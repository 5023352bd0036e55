//! Kernel invocation context: where in the network a kernel call sits.

use bertscope_tensor::{AccessSet, Category, DType, GemmSpec, OpKind, OpRecord, Phase, Tracer};

/// Describes the network position of a kernel invocation so the tracer can
/// attribute it correctly (paper Fig. 3/4 groupings).
///
/// `KernelCtx` is deliberately `Copy`-cheap apart from the name prefix, and
/// builder-style so call sites read naturally:
///
/// ```
/// use bertscope_kernels::KernelCtx;
/// use bertscope_tensor::{Category, Phase};
/// let ctx = KernelCtx::new("fc1", Category::FcGemm, Phase::Forward).layer(3);
/// assert_eq!(ctx.full_name("gemm"), "l3.fc1.gemm.fwd");
/// ```
#[derive(Debug, Clone)]
pub struct KernelCtx {
    name: String,
    category: Category,
    phase: Phase,
    layer: Option<usize>,
    dtype: DType,
}

impl KernelCtx {
    /// A context with the given name prefix, category and phase, in `f32`.
    #[must_use]
    pub fn new(name: &str, category: Category, phase: Phase) -> Self {
        KernelCtx { name: name.to_owned(), category, phase, layer: None, dtype: DType::F32 }
    }

    /// Attach a Transformer layer index.
    #[must_use]
    pub fn layer(mut self, layer: usize) -> Self {
        self.layer = Some(layer);
        self
    }

    /// Override the data precision recorded for this kernel.
    #[must_use]
    pub fn dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Switch the phase (e.g. re-running forward kernels as
    /// [`Phase::Recompute`] under activation checkpointing).
    #[must_use]
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phase = phase;
        self
    }

    /// The category this context attributes kernels to.
    #[must_use]
    pub fn category(&self) -> Category {
        self.category
    }

    /// The recorded precision.
    #[must_use]
    pub fn dtype_of(&self) -> DType {
        self.dtype
    }

    /// The fully-qualified kernel name: `l<layer>.<prefix>.<op>.<phase>`.
    #[must_use]
    pub fn full_name(&self, op: &str) -> String {
        match self.layer {
            Some(l) => format!("l{l}.{}.{op}.{}", self.name, self.phase),
            None => format!("{}.{op}.{}", self.name, self.phase),
        }
    }

    /// Emit a trace record for a non-GEMM kernel with unknown provenance.
    pub fn trace(
        &self,
        tracer: &mut Tracer,
        op: &str,
        kind: OpKind,
        flops: u64,
        bytes_read: u64,
        bytes_written: u64,
    ) {
        self.trace_acc(tracer, op, kind, flops, bytes_read, bytes_written, AccessSet::default());
    }

    /// Emit a trace record for a non-GEMM kernel, carrying the buffer
    /// read/write provenance the static hazard and lifetime analyses
    /// (`bertscope-check`) consume.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_acc(
        &self,
        tracer: &mut Tracer,
        op: &str,
        kind: OpKind,
        flops: u64,
        bytes_read: u64,
        bytes_written: u64,
        access: AccessSet,
    ) {
        if !tracer.is_enabled() {
            return;
        }
        tracer.record(OpRecord {
            name: self.full_name(op),
            kind,
            category: self.category,
            phase: self.phase,
            layer: self.layer,
            gemm: None,
            flops,
            bytes_read,
            bytes_written,
            dtype: self.dtype,
            access,
        });
    }

    /// Emit a trace record for a (batched) GEMM kernel with unknown
    /// provenance. FLOPs and bytes are derived from the spec at this
    /// context's precision.
    pub fn trace_gemm(&self, tracer: &mut Tracer, op: &str, spec: GemmSpec) {
        self.trace_gemm_acc(tracer, op, spec, AccessSet::default());
    }

    /// Emit a trace record for a (batched) GEMM kernel, carrying buffer
    /// read/write provenance.
    pub fn trace_gemm_acc(&self, tracer: &mut Tracer, op: &str, spec: GemmSpec, access: AccessSet) {
        if !tracer.is_enabled() {
            return;
        }
        let kind = if spec.batch > 1 { OpKind::BatchedGemm } else { OpKind::Gemm };
        tracer.record(OpRecord {
            name: self.full_name(op),
            kind,
            category: self.category,
            phase: self.phase,
            layer: self.layer,
            gemm: Some(spec),
            flops: spec.flops(),
            bytes_read: spec.bytes_read(self.dtype),
            bytes_written: spec.bytes_written(self.dtype),
            dtype: self.dtype,
            access,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_tensor::Transpose;

    #[test]
    fn full_name_includes_layer_and_phase() {
        let ctx = KernelCtx::new("attn", Category::AttnLinear, Phase::Backward).layer(7);
        assert_eq!(ctx.full_name("q_proj"), "l7.attn.q_proj.bwd");
        let no_layer = KernelCtx::new("mlm", Category::Output, Phase::Forward);
        assert_eq!(no_layer.full_name("decode"), "mlm.decode.fwd");
    }

    #[test]
    fn trace_records_category_and_dtype() {
        let mut tr = Tracer::new();
        let ctx = KernelCtx::new("gelu", Category::Gelu, Phase::Forward).dtype(DType::F16).layer(0);
        ctx.trace(&mut tr, "erf", OpKind::ElementWise, 100, 20, 20);
        let r = &tr.records()[0];
        assert_eq!(r.category, Category::Gelu);
        assert_eq!(r.dtype, DType::F16);
        assert_eq!(r.layer, Some(0));
        assert_eq!(r.flops, 100);
    }

    #[test]
    fn trace_gemm_derives_counts_from_spec() {
        let mut tr = Tracer::new();
        let ctx = KernelCtx::new("fc1", Category::FcGemm, Phase::Forward);
        let spec = GemmSpec::new(Transpose::No, Transpose::No, 8, 4, 2);
        ctx.trace_gemm(&mut tr, "gemm", spec);
        let r = &tr.records()[0];
        assert_eq!(r.kind, OpKind::Gemm);
        assert_eq!(r.flops, 2 * 8 * 4 * 2);
        assert_eq!(r.bytes_read, (8 * 2 + 2 * 4) * 4);
        assert_eq!(r.bytes_written, 8 * 4 * 4);
        // Batched spec flips the kind.
        let bspec = GemmSpec::batched(Transpose::No, Transpose::Yes, 4, 4, 2, 6);
        ctx.trace_gemm(&mut tr, "bgemm", bspec);
        assert_eq!(tr.records()[1].kind, OpKind::BatchedGemm);
    }

    #[test]
    fn disabled_tracer_short_circuits() {
        let mut tr = Tracer::disabled();
        let ctx = KernelCtx::new("x", Category::Gelu, Phase::Forward);
        ctx.trace(&mut tr, "y", OpKind::ElementWise, 1, 1, 1);
        ctx.trace_gemm(&mut tr, "z", GemmSpec::new(Transpose::No, Transpose::No, 1, 1, 1));
        assert_eq!(tr.kernel_count(), 0);
    }
}
