//! `dist::proc` — a real multi-process elastic data-parallel runtime.
//!
//! The rest of this crate is analytic; this module is the step beyond:
//! N *rank* workers (OS threads for cheap tests, or genuinely separate
//! processes re-exec'd from the same binary) each train a full replica
//! on the `bertscope-train` substrate and exchange gradients over local
//! TCP sockets via a bucketed ring `AllReduce`. A supervisor process holds
//! the control plane: it launches ranks, distributes ring membership,
//! listens to heartbeats, and when a rank dies mid-step drives one of two
//! recovery modes:
//!
//! * **restart** — every rank is shut down and relaunched from the last
//!   bit-exact [`TrainCheckpoint`](bertscope_train::TrainCheckpoint);
//!   training resumes exactly where the interrupted run would have been;
//! * **elastic** — the survivors re-form the ring at `N-1`, gradient
//!   averaging is rescaled to the new world size, and training continues
//!   with a logged degradation event.
//!
//! Failures are structured, never hangs: every socket hop carries a
//! receive deadline, lost or corrupted frames are retransmitted a bounded
//! number of times with exponential backoff, and exhaustion surfaces as a
//! [`DistError`] that the trainer converts into a retryable
//! window-close — the seam the supervisor's recovery drives through.
//!
//! The module layout mirrors the runtime's layers:
//!
//! * [`transport`] — length-prefixed, checksummed, acknowledged frames
//!   over TCP, with deterministic socket-fault injection (drop / delay /
//!   corrupt) from the shared [`FaultPlan`](bertscope_tensor::FaultPlan);
//! * [`ring`] — the socket ring `AllReduce` (bit-exact against a serial
//!   reference simulation), epoch-tagged ring formation and the
//!   in-process loopback runner [`ring::run_local_ring`];
//! * [`control`] — the supervisor<->worker message vocabulary;
//! * [`worker`] — the per-rank training loop and its `GradSync` bridge
//!   into the trainer;
//! * [`supervisor`] — the launcher, failure detector and recovery driver,
//!   with interchangeable thread and process backends.

pub mod control;
pub mod ring;
pub mod supervisor;
pub mod transport;
pub mod worker;

pub use control::ControlMsg;
pub use ring::{reference_allreduce, RingStats, SocketRing};
pub use supervisor::{
    run_process_cluster, run_thread_cluster, ClusterConfig, ClusterReport, DegradationEvent,
    RecoveryMode,
};
pub use transport::{SocketFaults, TransportStats};
pub use worker::{worker_main, WorkerConfig, WorkerReport};

use std::fmt;

/// A structured failure of the multi-process runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// An OS-level socket or file operation failed.
    Io(String),
    /// A peer spoke something other than the expected protocol.
    Protocol(String),
    /// A bounded wait expired (handshake, hop receive, control read).
    Timeout {
        /// What the runtime was waiting for.
        what: String,
    },
    /// A hop exhausted its retransmission budget.
    RetriesExhausted {
        /// Ring pipeline step of the final failure.
        step: usize,
        /// Attempts made (initial send + resends).
        attempts: u32,
    },
    /// This rank was killed by the fault plan (thread backend; the
    /// process backend exits abruptly instead).
    Killed {
        /// The dead rank.
        rank: usize,
    },
    /// A worker failed for a reason the supervisor could not recover.
    WorkerFailed {
        /// The failed rank.
        rank: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// The training substrate itself failed (non-finite loss under an
    /// abort policy, checkpoint mismatch, ...).
    Train(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(msg) => write!(f, "io error: {msg}"),
            DistError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            DistError::Timeout { what } => write!(f, "timed out waiting for {what}"),
            DistError::RetriesExhausted { step, attempts } => {
                write!(f, "hop at ring step {step} failed after {attempts} attempts")
            }
            DistError::Killed { rank } => write!(f, "rank {rank} killed by fault plan"),
            DistError::WorkerFailed { rank, reason } => {
                write!(f, "rank {rank} failed: {reason}")
            }
            DistError::Train(msg) => write!(f, "training error: {msg}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e.to_string())
    }
}

impl From<bertscope_train::TrainError> for DistError {
    fn from(e: bertscope_train::TrainError) -> Self {
        DistError::Train(e.to_string())
    }
}
