//! Dynamic loss scaling — the apex/AMP recipe.
//!
//! Mixed-precision training multiplies the loss by a large scale so small
//! gradients survive the f16 representable range, then divides the scale
//! back out before the optimizer. A *dynamic* scaler additionally watches
//! the unscaled gradients: a non-finite value means the scale pushed some
//! activation-gradient product past f16's max, so the step is skipped and
//! the scale halved; after `growth_interval` consecutive clean steps the
//! scale doubles back up, probing for the largest safe value.
//!
//! The scaler's bookkeeping is real GPU work — a fused unscale+isfinite
//! reduction over every gradient, plus scalar rescales — so it reports
//! itself to the tracer in [`Category::LossScale`], exactly where rocProf
//! would see the `amp_update_scale` / `multi_tensor_scale` kernels.

use bertscope_tensor::{AccessSet, Category, DType, OpKind, OpRecord, Phase, Tensor, Tracer};

/// Portable serialized form of a scaler (what checkpoints store).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalerState {
    /// Current loss scale.
    pub scale: f32,
    /// Consecutive clean (non-overflow) steps since the last scale change.
    pub clean_steps: u32,
    /// Total overflow-skipped steps observed so far.
    pub overflows: u64,
}

/// Dynamic (or fixed) loss scaler with overflow-skip semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct LossScaler {
    scale: f32,
    dynamic: bool,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: u32,
    min_scale: f32,
    max_scale: f32,
    clean_steps: u32,
    overflows: u64,
}

impl LossScaler {
    /// No scaling at all: scale fixed at 1, overflow checks still run (an
    /// FP32 run also skips a step whose gradients come back non-finite).
    #[must_use]
    pub fn none() -> Self {
        LossScaler::fixed(1.0)
    }

    /// A fixed scale that never adapts (legacy `loss_scale: 128.0`
    /// behavior, but with overflow-skip).
    #[must_use]
    pub fn fixed(scale: f32) -> Self {
        LossScaler {
            scale,
            dynamic: false,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: u32::MAX,
            min_scale: scale,
            max_scale: scale,
            clean_steps: 0,
            overflows: 0,
        }
    }

    /// A dynamic scaler starting at `initial`, halving on overflow and
    /// doubling after [`Self::with_growth_interval`] clean steps (default
    /// 16; real AMP uses 2000 — shortened so short characterization runs
    /// exercise growth too).
    ///
    /// # Panics
    ///
    /// Panics when `initial` is not a positive finite number.
    #[must_use]
    pub fn dynamic(initial: f32) -> Self {
        assert!(initial.is_finite() && initial > 0.0, "loss scale must be positive and finite");
        LossScaler {
            scale: initial,
            dynamic: true,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 16,
            min_scale: 1.0,
            max_scale: 2f32.powi(24),
            clean_steps: 0,
            overflows: 0,
        }
    }

    /// Override the number of clean steps before the scale grows.
    ///
    /// # Panics
    ///
    /// Panics when `interval` is zero.
    #[must_use]
    pub fn with_growth_interval(mut self, interval: u32) -> Self {
        assert!(interval > 0, "growth interval must be non-zero");
        self.growth_interval = interval;
        self
    }

    /// The current loss scale.
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Whether the scale adapts to overflows.
    #[must_use]
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// Total overflow-skipped steps observed.
    #[must_use]
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Consecutive clean steps since the last scale change.
    #[must_use]
    pub fn clean_streak(&self) -> u32 {
        self.clean_steps
    }

    /// Record an overflowed step: reset the clean streak and (if dynamic)
    /// halve the scale, clamped to the minimum.
    pub fn on_overflow(&mut self) {
        self.overflows += 1;
        self.clean_steps = 0;
        if self.dynamic {
            self.scale = (self.scale * self.backoff_factor).max(self.min_scale);
        }
    }

    /// Record a clean step. Returns `true` when the scale grew (the caller
    /// then traces the rescale kernel).
    pub fn on_clean_step(&mut self) -> bool {
        if !self.dynamic {
            return false;
        }
        self.clean_steps += 1;
        if self.clean_steps >= self.growth_interval && self.scale < self.max_scale {
            self.scale = (self.scale * self.growth_factor).min(self.max_scale);
            self.clean_steps = 0;
            return true;
        }
        false
    }

    /// Run the fused unscale + finiteness check over a window's gradients:
    /// trace the reduction, then return `true` when every gradient element
    /// is finite. The scan is chunk-parallel on the worker pool (via
    /// [`Tensor::all_finite`]) — the CPU analogue of apex's multi-tensor
    /// `unscale+isfinite` kernel, and an exact predicate, so chunking
    /// cannot change the verdict.
    #[must_use]
    pub fn unscale_check(&self, tracer: &mut Tracer, grads: &[Tensor]) -> bool {
        let total_params: u64 = grads.iter().map(|t| t.numel() as u64).sum();
        let ids: Vec<_> = grads.iter().map(Tensor::buf_id).collect();
        // The fused kernel unscales in place: every gradient buffer is both
        // read and rewritten.
        self.trace_unscale_check_acc(tracer, total_params, AccessSet::new(&ids, &ids));
        grads.iter().all(Tensor::all_finite)
    }

    /// Trace the fused unscale + finiteness reduction over `total_params`
    /// gradient elements with unknown buffer provenance (analytic callers
    /// that have no real gradient tensors in hand).
    pub fn trace_unscale_check(&self, tracer: &mut Tracer, total_params: u64) {
        self.trace_unscale_check_acc(tracer, total_params, AccessSet::default());
    }

    /// Trace the fused unscale + finiteness reduction over `total_params`
    /// gradient elements: one multiply and one isfinite test per element,
    /// writing back the unscaled gradients plus a scalar found-inf flag.
    pub fn trace_unscale_check_acc(
        &self,
        tracer: &mut Tracer,
        total_params: u64,
        access: AccessSet,
    ) {
        tracer.record(OpRecord {
            access,
            name: "scaler.unscale_check.update".into(),
            kind: OpKind::Reduction,
            category: Category::LossScale,
            phase: Phase::Update,
            layer: None,
            gemm: None,
            flops: 2 * total_params,
            bytes_read: 4 * total_params,
            bytes_written: 4 * total_params + 4,
            dtype: DType::F32,
        });
    }

    /// Trace the overflow marker: the scalar found-inf readback + scale
    /// backoff of a skipped step.
    pub fn trace_overflow(&self, tracer: &mut Tracer) {
        tracer.record(scalar_op("scaler.overflow.update"));
    }

    /// Trace the scale-growth rescale of a clean step.
    pub fn trace_rescale(&self, tracer: &mut Tracer) {
        tracer.record(scalar_op("scaler.rescale.update"));
    }

    /// Serialize the adaptive state (the configuration is construction-time
    /// and not part of a checkpoint).
    #[must_use]
    pub fn export_state(&self) -> ScalerState {
        ScalerState { scale: self.scale, clean_steps: self.clean_steps, overflows: self.overflows }
    }

    /// Restore previously exported adaptive state.
    pub fn import_state(&mut self, state: ScalerState) {
        self.scale = state.scale;
        self.clean_steps = state.clean_steps;
        self.overflows = state.overflows;
    }
}

fn scalar_op(name: &str) -> OpRecord {
    OpRecord {
        access: bertscope_tensor::AccessSet::default(),
        name: name.into(),
        kind: OpKind::ElementWise,
        category: Category::LossScale,
        phase: Phase::Update,
        layer: None,
        gemm: None,
        flops: 1,
        bytes_read: 4,
        bytes_written: 4,
        dtype: DType::F32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_halves_and_growth_doubles() {
        let mut s = LossScaler::dynamic(1024.0).with_growth_interval(3);
        s.on_overflow();
        assert_eq!(s.scale().to_bits(), 512.0f32.to_bits());
        assert_eq!(s.overflows(), 1);
        assert!(!s.on_clean_step());
        assert!(!s.on_clean_step());
        assert!(s.on_clean_step(), "third clean step grows the scale");
        assert_eq!(s.scale().to_bits(), 1024.0f32.to_bits());
        assert_eq!(s.clean_streak(), 0);
    }

    #[test]
    fn overflow_resets_the_clean_streak() {
        let mut s = LossScaler::dynamic(256.0).with_growth_interval(4);
        s.on_clean_step();
        s.on_clean_step();
        s.on_clean_step();
        s.on_overflow();
        assert_eq!(s.clean_streak(), 0);
        assert_eq!(s.scale().to_bits(), 128.0f32.to_bits());
    }

    #[test]
    fn scale_is_clamped_to_bounds() {
        let mut s = LossScaler::dynamic(1.0).with_growth_interval(1);
        s.on_overflow();
        assert_eq!(s.scale().to_bits(), 1.0f32.to_bits(), "backoff clamps at min_scale");
        let mut s = LossScaler::dynamic(2f32.powi(24)).with_growth_interval(1);
        assert!(!s.on_clean_step(), "no growth past max_scale");
        assert_eq!(s.scale().to_bits(), 2f32.powi(24).to_bits());
    }

    #[test]
    fn fixed_scaler_never_moves() {
        let mut s = LossScaler::fixed(128.0);
        s.on_overflow();
        assert_eq!(s.scale().to_bits(), 128.0f32.to_bits());
        assert_eq!(s.overflows(), 1, "overflows are still counted");
        for _ in 0..100 {
            assert!(!s.on_clean_step());
        }
        assert_eq!(s.scale().to_bits(), 128.0f32.to_bits());
        assert!(!s.is_dynamic());
        assert_eq!(LossScaler::none().scale().to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn traced_ops_carry_the_loss_scale_category() {
        let s = LossScaler::dynamic(128.0);
        let mut tr = Tracer::new();
        s.trace_unscale_check(&mut tr, 1000);
        s.trace_overflow(&mut tr);
        s.trace_rescale(&mut tr);
        assert_eq!(tr.kernel_count(), 3);
        for r in tr.records() {
            assert_eq!(r.category, Category::LossScale);
            assert_eq!(r.phase, Phase::Update);
            assert_eq!(r.dtype, DType::F32);
        }
        assert_eq!(tr.records()[0].flops, 2000);
        assert!(tr.records()[1].name.contains("scaler.overflow"));
    }

    #[test]
    fn unscale_check_traces_and_flags_non_finite_gradients() {
        let s = LossScaler::dynamic(128.0);
        let mut tr = Tracer::new();
        let clean = [Tensor::ones(&[8]), Tensor::full(&[4], 0.5)];
        assert!(s.unscale_check(&mut tr, &clean));
        let poisoned = [Tensor::ones(&[8]), Tensor::full(&[4], f32::INFINITY)];
        assert!(!s.unscale_check(&mut tr, &poisoned));
        assert_eq!(tr.kernel_count(), 2);
        assert_eq!(tr.records()[0].flops, 2 * 12, "traces the full element count");
    }

    #[test]
    fn state_roundtrips() {
        let mut a = LossScaler::dynamic(4096.0).with_growth_interval(5);
        a.on_overflow();
        a.on_clean_step();
        a.on_clean_step();
        let state = a.export_state();
        let mut b = LossScaler::dynamic(4096.0).with_growth_interval(5);
        b.import_state(state);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_scale_rejected() {
        let _ = LossScaler::dynamic(0.0);
    }
}
