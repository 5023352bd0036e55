//! The gradient-synchronization seam between the trainer and a
//! data-parallel communicator.
//!
//! A rank-local [`Trainer`](crate::Trainer) averages its accumulation
//! window, then — if a [`GradSync`] is installed — hands the averaged
//! gradients to the synchronizer *before* the loss scaler's finiteness
//! check. That ordering is deliberate: after the collective every rank
//! holds bit-identical post-reduce gradients, so every rank reaches the
//! same overflow-skip decision and the replicas stay in lockstep without a
//! separate agreement round.
//!
//! The trait is deliberately tiny so the socket ring (`bertscope-dist`)
//! plugs in, in-process or across processes, and so tests
//! can substitute arbitrary behaviours (including failures: a failed sync
//! leaves the window's sums intact, making
//! [`Trainer::close_window`](crate::Trainer::close_window) retryable after
//! the communicator is repaired).

use bertscope_tensor::{Tensor, Tracer};

/// A failed gradient synchronization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncError {
    /// What went wrong, for the [`TrainError::Sync`](crate::TrainError::Sync)
    /// surface.
    pub reason: String,
}

impl SyncError {
    /// A sync error with the given reason.
    #[must_use]
    pub fn new(reason: impl Into<String>) -> Self {
        SyncError { reason: reason.into() }
    }
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for SyncError {}

/// A data-parallel gradient synchronizer: turns each rank's locally
/// averaged gradients into the globally averaged gradients (mean across
/// the active ranks) in place.
///
/// Implementations must be deterministic for a fixed membership — every
/// rank's output bit-identical — and should trace their communication as
/// `Comm`-kind ops writing the gradient buffers, so the hazard analyzer
/// can prove the AllReduce-before-optimizer ordering (H004/H005).
pub trait GradSync: std::fmt::Debug {
    /// Number of ranks currently participating (after any elastic shrink).
    fn world(&self) -> usize;

    /// Synchronize the averaged gradients in place.
    ///
    /// # Errors
    ///
    /// Returns a [`SyncError`] when the collective fails (dead peer,
    /// timeout, retries exhausted). The caller's window state survives the
    /// failure, so the close can be retried after repair.
    fn sync(&mut self, tracer: &mut Tracer, grads: &mut [Tensor]) -> Result<(), SyncError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_error_displays_its_reason() {
        let e = SyncError::new("rank 2 timed out");
        assert_eq!(e.to_string(), "rank 2 timed out");
    }
}
