//! Multi-head self-attention: the composite of paper Fig. 5.
//!
//! The forward pass is the exact kernel sequence the paper profiles:
//! Q/K/V linear projections (three GEMMs, or one fused GEMM per §6.1.2),
//! head split, the batched attention-score GEMM `Q*K^T`, scale + mask +
//! softmax + dropout, the batched attention-output GEMM `scores*V`, head
//! merge, and the output projection. The backward pass mirrors it with the
//! gradient GEMMs of Table 2b.

use crate::ctx::KernelCtx;
use crate::dropout::{dropout_bwd, dropout_fwd, DropoutMask};
use crate::elementwise::{mask_add, scale};
use crate::linear::{linear_bwd, linear_fwd};
use crate::norm::{softmax_bwd, softmax_fwd};
use crate::Result;
use bertscope_tensor::{
    batched_gemm, batched_gemm_ep, AccessSet, Buffer, Category, DType, Epilogue, GemmEpilogue,
    GemmSpec, OpKind, Phase, Tensor, TensorError, Tracer, Transpose,
};

/// Learned parameters of one attention block, or their gradients
/// ([`attention_bwd`] returns them in this struct).
///
/// Weights are `[d_model, d_model]`, biases `[d_model]`.
#[derive(Debug, Clone)]
pub struct AttentionParams {
    /// Query projection weight.
    pub wq: Tensor,
    /// Query projection bias.
    pub bq: Tensor,
    /// Key projection weight.
    pub wk: Tensor,
    /// Key projection bias.
    pub bk: Tensor,
    /// Value projection weight.
    pub wv: Tensor,
    /// Value projection bias.
    pub bv: Tensor,
    /// Output projection weight.
    pub wo: Tensor,
    /// Output projection bias.
    pub bo: Tensor,
}

/// Static configuration of an attention invocation.
#[derive(Debug, Clone, Copy)]
pub struct AttentionConfig {
    /// Mini-batch size `B`.
    pub batch: usize,
    /// Sequence length `n`.
    pub seq: usize,
    /// Attention head count `h`.
    pub heads: usize,
    /// Hidden size `d_model` (must be divisible by `heads`).
    pub d_model: usize,
    /// Attention dropout probability.
    pub dropout_p: f32,
    /// Execute the Q/K/V projections as a single fused GEMM (paper §6.1.2)
    /// instead of three serial GEMMs.
    pub fused_qkv: bool,
    /// Fuse the score scale (and additive mask, when present) into the
    /// attention-score GEMM's writeback epilogue instead of launching
    /// separate memory-bound elementwise kernels (paper §6.1.3 fusion).
    pub fused_epilogue: bool,
    /// Ignored: the kernels always run the Q/K/V projections at their call
    /// sites. Concurrency between them comes from recording the whole
    /// training step as a task graph (`bertscope-train`'s
    /// `TrainOptions::graph`). Kept only so existing struct literals build.
    pub deferred: bool,
    /// Execution precision.
    pub dtype: DType,
    /// Transformer layer index for trace attribution.
    pub layer: usize,
}

impl AttentionConfig {
    fn head_dim(&self) -> usize {
        self.d_model / self.heads
    }
    fn tokens(&self) -> usize {
        self.batch * self.seq
    }
    fn validate(&self) -> Result<()> {
        if !self.d_model.is_multiple_of(self.heads) {
            return Err(TensorError::InvalidArgument(format!(
                "d_model {} not divisible by heads {}",
                self.d_model, self.heads
            )));
        }
        Ok(())
    }
}

/// Saved activations for the backward pass.
#[derive(Debug, Clone)]
pub struct AttentionState {
    x: Tensor,
    q_h: Tensor,
    k_h: Tensor,
    v_h: Tensor,
    /// Softmax output before dropout (needed by softmax backward).
    probs_pre_drop: Tensor,
    /// Softmax output after dropout (operand of the context GEMM).
    probs: Tensor,
    drop_mask: DropoutMask,
    ctx_merged: Tensor,
}

/// Reshape `[T, d_model]` into per-head `[B*h, n, d_h]`, tracing the data
/// movement as a `Copy` kernel.
fn split_heads(
    tracer: &mut Tracer,
    ctx: &KernelCtx,
    x: &Tensor,
    cfg: &AttentionConfig,
) -> Result<Tensor> {
    let (b, n, h, dh) = (cfg.batch, cfg.seq, cfg.heads, cfg.head_dim());
    let xs = x.as_slice();
    let mut out = Buffer::zeroed(x.numel());
    for bi in 0..b {
        for ni in 0..n {
            for hi in 0..h {
                let src = (bi * n + ni) * cfg.d_model + hi * dh;
                let dst = ((bi * h + hi) * n + ni) * dh;
                out[dst..dst + dh].copy_from_slice(&xs[src..src + dh]);
            }
        }
    }
    let y = Tensor::from_buffer(out, &[b * h, n, dh])?;
    let bytes = x.numel() as u64 * ctx.dtype_of().size_bytes();
    let access = AccessSet::new(&[x.buf_id()], &[y.buf_id()]);
    ctx.trace_acc(tracer, "split_heads", OpKind::Copy, 0, bytes, bytes, access);
    Ok(y)
}

/// Inverse of [`split_heads`]: `[B*h, n, d_h]` back to `[T, d_model]`.
fn merge_heads(
    tracer: &mut Tracer,
    ctx: &KernelCtx,
    x: &Tensor,
    cfg: &AttentionConfig,
) -> Result<Tensor> {
    let (b, n, h, dh) = (cfg.batch, cfg.seq, cfg.heads, cfg.head_dim());
    let xs = x.as_slice();
    let mut out = Buffer::zeroed(x.numel());
    for bi in 0..b {
        for ni in 0..n {
            for hi in 0..h {
                let src = ((bi * h + hi) * n + ni) * dh;
                let dst = (bi * n + ni) * cfg.d_model + hi * dh;
                out[dst..dst + dh].copy_from_slice(&xs[src..src + dh]);
            }
        }
    }
    let y = Tensor::from_buffer(out, &[b * n, cfg.d_model])?;
    let bytes = x.numel() as u64 * ctx.dtype_of().size_bytes();
    let access = AccessSet::new(&[x.buf_id()], &[y.buf_id()]);
    ctx.trace_acc(tracer, "merge_heads", OpKind::Copy, 0, bytes, bytes, access);
    Ok(y)
}

/// Concatenate the three projection weights column-wise into `[d, 3d]` for
/// the fused-QKV GEMM of paper §6.1.2 / Fig. 13.
fn concat_qkv_weights(p: &AttentionParams) -> Result<(Tensor, Tensor)> {
    let d = p.wq.dims()[0];
    let mut w = Buffer::zeroed(d * 3 * d);
    for r in 0..d {
        w[r * 3 * d..r * 3 * d + d].copy_from_slice(&p.wq.as_slice()[r * d..(r + 1) * d]);
        w[r * 3 * d + d..r * 3 * d + 2 * d].copy_from_slice(&p.wk.as_slice()[r * d..(r + 1) * d]);
        w[r * 3 * d + 2 * d..(r + 1) * 3 * d].copy_from_slice(&p.wv.as_slice()[r * d..(r + 1) * d]);
    }
    let mut b = Buffer::zeroed(3 * d);
    b[..d].copy_from_slice(p.bq.as_slice());
    b[d..2 * d].copy_from_slice(p.bk.as_slice());
    b[2 * d..].copy_from_slice(p.bv.as_slice());
    Ok((Tensor::from_buffer(w, &[d, 3 * d])?, Tensor::from_buffer(b, &[3 * d])?))
}

/// Split a `[T, 3d]` fused projection output into three `[T, d]` tensors.
fn split_columns3(x: &Tensor) -> Result<(Tensor, Tensor, Tensor)> {
    let (t, d3) = (x.dims()[0], x.dims()[1]);
    let d = d3 / 3;
    let mut a = Buffer::zeroed(t * d);
    let mut b = Buffer::zeroed(t * d);
    let mut c = Buffer::zeroed(t * d);
    for r in 0..t {
        let row = &x.as_slice()[r * d3..(r + 1) * d3];
        a[r * d..(r + 1) * d].copy_from_slice(&row[..d]);
        b[r * d..(r + 1) * d].copy_from_slice(&row[d..2 * d]);
        c[r * d..(r + 1) * d].copy_from_slice(&row[2 * d..]);
    }
    Ok((
        Tensor::from_buffer(a, &[t, d])?,
        Tensor::from_buffer(b, &[t, d])?,
        Tensor::from_buffer(c, &[t, d])?,
    ))
}

/// Concatenate three `[T, d]` tensors column-wise into `[T, 3d]`.
fn concat_columns3(a: &Tensor, b: &Tensor, c: &Tensor) -> Result<Tensor> {
    let (t, d) = (a.dims()[0], a.dims()[1]);
    let mut out = Buffer::zeroed(t * 3 * d);
    for r in 0..t {
        out[r * 3 * d..r * 3 * d + d].copy_from_slice(&a.as_slice()[r * d..(r + 1) * d]);
        out[r * 3 * d + d..r * 3 * d + 2 * d].copy_from_slice(&b.as_slice()[r * d..(r + 1) * d]);
        out[r * 3 * d + 2 * d..(r + 1) * 3 * d].copy_from_slice(&c.as_slice()[r * d..(r + 1) * d]);
    }
    Tensor::from_buffer(out, &[t, 3 * d])
}

/// Multi-head attention forward.
///
/// `x` is `[B*n, d_model]`; `attn_mask`, when present, is an additive mask
/// pre-broadcast to `[B*h, n, n]`. Returns the block output `[B*n, d_model]`
/// and the saved state for [`attention_bwd`].
///
/// # Errors
///
/// Returns shape/configuration errors for inconsistent inputs.
#[allow(clippy::too_many_lines)]
pub fn attention_fwd(
    tracer: &mut Tracer,
    cfg: &AttentionConfig,
    p: &AttentionParams,
    x: &Tensor,
    attn_mask: Option<&Tensor>,
    dropout_seed: u64,
) -> Result<(Tensor, AttentionState)> {
    cfg.validate()?;
    let t = cfg.tokens();
    if x.dims() != [t, cfg.d_model] {
        return Err(TensorError::shape("attention_fwd x", &[t, cfg.d_model], x.dims()));
    }
    let lin_ctx = KernelCtx::new("attn", Category::AttnLinear, Phase::Forward)
        .layer(cfg.layer)
        .dtype(cfg.dtype);
    let bgemm_ctx = KernelCtx::new("attn", Category::AttnBgemm, Phase::Forward)
        .layer(cfg.layer)
        .dtype(cfg.dtype);
    let sm_ctx = KernelCtx::new("attn", Category::ScaleMaskSoftmaxDropout, Phase::Forward)
        .layer(cfg.layer)
        .dtype(cfg.dtype);

    // 1. Q/K/V projections: three serial GEMMs or one fused GEMM.
    let (q, k, v) = if cfg.fused_qkv {
        let (w, b) = concat_qkv_weights(p)?;
        let qkv = linear_fwd(tracer, &lin_ctx, x, &w, Some(&b))?;
        split_columns3(&qkv)?
    } else {
        let q = linear_fwd(tracer, &lin_ctx, x, &p.wq, Some(&p.bq))?;
        let k = linear_fwd(tracer, &lin_ctx, x, &p.wk, Some(&p.bk))?;
        let v = linear_fwd(tracer, &lin_ctx, x, &p.wv, Some(&p.bv))?;
        (q, k, v)
    };

    // 2. Head split.
    let q_h = split_heads(tracer, &lin_ctx, &q, cfg)?;
    let k_h = split_heads(tracer, &lin_ctx, &k, cfg)?;
    let v_h = split_heads(tracer, &lin_ctx, &v, cfg)?;

    // 3. Attention scores: batched Q*K^T — paper Table 2b "Attn. Score FWD":
    //    n x n x (d/h), batch B*h. When epilogue fusion is on, the score
    //    scale (and mask) are applied at GEMM writeback and their separate
    //    elementwise kernels disappear from the stream.
    let alpha = 1.0 / (cfg.head_dim() as f32).sqrt();
    let score_spec = GemmSpec::batched(
        Transpose::No,
        Transpose::Yes,
        cfg.seq,
        cfg.seq,
        cfg.head_dim(),
        cfg.batch * cfg.heads,
    );
    let masked = if cfg.fused_epilogue {
        let (ep, tag) = match attn_mask {
            Some(m) => {
                (GemmEpilogue::ScaleMask { scale: alpha, mask: m.as_slice() }, Epilogue::ScaleMask)
            }
            None => (GemmEpilogue::Scale(alpha), Epilogue::Scale),
        };
        let scores = batched_gemm_ep(Transpose::No, Transpose::Yes, 1.0, &q_h, &k_h, ep)?;
        let mut access = AccessSet::new(&[q_h.buf_id(), k_h.buf_id()], &[scores.buf_id()]);
        if let Some(m) = attn_mask {
            access.reads.push(m.buf_id());
        }
        bgemm_ctx.trace_gemm_acc(tracer, "score", score_spec.with_epilogue(tag), access);
        scores
    } else {
        let scores = batched_gemm(Transpose::No, Transpose::Yes, 1.0, &q_h, &k_h)?;
        bgemm_ctx.trace_gemm_acc(
            tracer,
            "score",
            score_spec,
            AccessSet::new(&[q_h.buf_id(), k_h.buf_id()], &[scores.buf_id()]),
        );
        // 4-5. Scale, mask as separate elementwise kernels.
        let scaled = scale(tracer, &sm_ctx, &scores, alpha)?;
        match attn_mask {
            Some(m) => mask_add(tracer, &sm_ctx, &scaled, m)?,
            None => scaled,
        }
    };

    // 6-7. Softmax, dropout.
    let probs_pre_drop = softmax_fwd(tracer, &sm_ctx, &masked)?;
    let (probs, drop_mask) =
        dropout_fwd(tracer, &sm_ctx, &probs_pre_drop, cfg.dropout_p, dropout_seed)?;

    // 8. Attention output: batched scores*V — paper "Attn. O/p FWD":
    //    (d/h) x n x n, batch B*h.
    let ctx_h = batched_gemm(Transpose::No, Transpose::No, 1.0, &probs, &v_h)?;
    bgemm_ctx.trace_gemm_acc(
        tracer,
        "context",
        GemmSpec::batched(
            Transpose::No,
            Transpose::No,
            cfg.head_dim(),
            cfg.seq,
            cfg.seq,
            cfg.batch * cfg.heads,
        ),
        AccessSet::new(&[probs.buf_id(), v_h.buf_id()], &[ctx_h.buf_id()]),
    );

    // 9-10. Merge heads and project out.
    let ctx_merged = merge_heads(tracer, &lin_ctx, &ctx_h, cfg)?;
    let out_ctx = KernelCtx::new("attn_out", Category::AttnLinear, Phase::Forward)
        .layer(cfg.layer)
        .dtype(cfg.dtype);
    let out = linear_fwd(tracer, &out_ctx, &ctx_merged, &p.wo, Some(&p.bo))?;

    Ok((
        out,
        AttentionState {
            x: x.clone(),
            q_h,
            k_h,
            v_h,
            probs_pre_drop,
            probs,
            drop_mask,
            ctx_merged,
        },
    ))
}

/// Multi-head attention backward. Returns `dx` and the parameter
/// gradients.
///
/// # Errors
///
/// Returns shape errors when `dy` does not match the forward output.
#[allow(clippy::too_many_lines, clippy::similar_names)]
pub fn attention_bwd(
    tracer: &mut Tracer,
    cfg: &AttentionConfig,
    p: &AttentionParams,
    state: &AttentionState,
    dy: &Tensor,
) -> Result<(Tensor, AttentionParams)> {
    cfg.validate()?;
    let t = cfg.tokens();
    if dy.dims() != [t, cfg.d_model] {
        return Err(TensorError::shape("attention_bwd dy", &[t, cfg.d_model], dy.dims()));
    }
    let lin_ctx = KernelCtx::new("attn", Category::AttnLinear, Phase::Backward)
        .layer(cfg.layer)
        .dtype(cfg.dtype);
    let bgemm_ctx = KernelCtx::new("attn", Category::AttnBgemm, Phase::Backward)
        .layer(cfg.layer)
        .dtype(cfg.dtype);
    let sm_ctx = KernelCtx::new("attn", Category::ScaleMaskSoftmaxDropout, Phase::Backward)
        .layer(cfg.layer)
        .dtype(cfg.dtype);
    let (bh, n, dh) = (cfg.batch * cfg.heads, cfg.seq, cfg.head_dim());

    // 10'. Output projection backward.
    let out_ctx = KernelCtx::new("attn_out", Category::AttnLinear, Phase::Backward)
        .layer(cfg.layer)
        .dtype(cfg.dtype);
    let (dctx_merged, dwo, dbo) = linear_bwd(tracer, &out_ctx, &state.ctx_merged, &p.wo, dy, true)?;
    // 9'. Head split of the context gradient.
    let dctx_h = split_heads(tracer, &lin_ctx, &dctx_merged, cfg)?;

    // 8'. Context GEMM backward: dprobs = dctx * V^T; dV = probs^T * dctx.
    let dprobs = batched_gemm(Transpose::No, Transpose::Yes, 1.0, &dctx_h, &state.v_h)?;
    bgemm_ctx.trace_gemm_acc(
        tracer,
        "context.grad_act",
        GemmSpec::batched(Transpose::No, Transpose::Yes, dh, n, n, bh),
        AccessSet::new(&[dctx_h.buf_id(), state.v_h.buf_id()], &[dprobs.buf_id()]),
    );
    let dv_h = batched_gemm(Transpose::Yes, Transpose::No, 1.0, &state.probs, &dctx_h)?;
    bgemm_ctx.trace_gemm_acc(
        tracer,
        "context.grad_v",
        GemmSpec::batched(Transpose::Yes, Transpose::No, n, n, dh, bh),
        AccessSet::new(&[state.probs.buf_id(), dctx_h.buf_id()], &[dv_h.buf_id()]),
    );

    // 7'-4'. Dropout, softmax, mask (identity), scale backward.
    let dpre_drop = dropout_bwd(tracer, &sm_ctx, &state.drop_mask, &dprobs)?;
    let dmasked = softmax_bwd(tracer, &sm_ctx, &state.probs_pre_drop, &dpre_drop)?;
    let alpha = 1.0 / (dh as f32).sqrt();
    let dscores = scale(tracer, &sm_ctx, &dmasked, alpha)?;

    // 3'. Score GEMM backward — paper "Attn. Score BWD": dQ is
    //     n x (d/h) x n, dK is (d/h) x n x n, both batched B*h.
    let dq_h = batched_gemm(Transpose::No, Transpose::No, 1.0, &dscores, &state.k_h)?;
    bgemm_ctx.trace_gemm_acc(
        tracer,
        "score.grad_q",
        GemmSpec::batched(Transpose::No, Transpose::No, n, dh, n, bh),
        AccessSet::new(&[dscores.buf_id(), state.k_h.buf_id()], &[dq_h.buf_id()]),
    );
    let dk_h = batched_gemm(Transpose::Yes, Transpose::No, 1.0, &dscores, &state.q_h)?;
    bgemm_ctx.trace_gemm_acc(
        tracer,
        "score.grad_k",
        GemmSpec::batched(Transpose::Yes, Transpose::No, dh, n, n, bh),
        AccessSet::new(&[dscores.buf_id(), state.q_h.buf_id()], &[dk_h.buf_id()]),
    );

    // 2'. Merge head gradients back to [T, d].
    let dq = merge_heads(tracer, &lin_ctx, &dq_h, cfg)?;
    let dk = merge_heads(tracer, &lin_ctx, &dk_h, cfg)?;
    let dv = merge_heads(tracer, &lin_ctx, &dv_h, cfg)?;

    // 1'. Q/K/V projection backward (fused or serial).
    let (dx_qkv, dwq, dbq, dwk, dbk, dwv, dbv) = if cfg.fused_qkv {
        let (w, _) = concat_qkv_weights(p)?;
        let dqkv = concat_columns3(&dq, &dk, &dv)?;
        let (dx, dw, db) = linear_bwd(tracer, &lin_ctx, &state.x, &w, &dqkv, true)?;
        let d = cfg.d_model;
        // Split the fused weight/bias gradients back into three parts.
        let mut dwq_v = Buffer::zeroed(d * d);
        let mut dwk_v = Buffer::zeroed(d * d);
        let mut dwv_v = Buffer::zeroed(d * d);
        for r in 0..d {
            let row = &dw.as_slice()[r * 3 * d..(r + 1) * 3 * d];
            dwq_v[r * d..(r + 1) * d].copy_from_slice(&row[..d]);
            dwk_v[r * d..(r + 1) * d].copy_from_slice(&row[d..2 * d]);
            dwv_v[r * d..(r + 1) * d].copy_from_slice(&row[2 * d..]);
        }
        let db = db.expect("bias requested");
        (
            dx,
            Tensor::from_buffer(dwq_v, &[d, d])?,
            Tensor::from_buffer(Buffer::copied_from(&db.as_slice()[..d]), &[d])?,
            Tensor::from_buffer(dwk_v, &[d, d])?,
            Tensor::from_buffer(Buffer::copied_from(&db.as_slice()[d..2 * d]), &[d])?,
            Tensor::from_buffer(dwv_v, &[d, d])?,
            Tensor::from_buffer(Buffer::copied_from(&db.as_slice()[2 * d..]), &[d])?,
        )
    } else {
        let (dx_q, dwq, dbq) = linear_bwd(tracer, &lin_ctx, &state.x, &p.wq, &dq, true)?;
        let (dx_k, dwk, dbk) = linear_bwd(tracer, &lin_ctx, &state.x, &p.wk, &dk, true)?;
        let (dx_v, dwv, dbv) = linear_bwd(tracer, &lin_ctx, &state.x, &p.wv, &dv, true)?;
        let dx = dx_q.add(&dx_k)?.add(&dx_v)?;
        (
            dx,
            dwq,
            dbq.expect("bias requested"),
            dwk,
            dbk.expect("bias requested"),
            dwv,
            dbv.expect("bias requested"),
        )
    };

    Ok((
        dx_qkv,
        AttentionParams {
            wq: dwq,
            bq: dbq,
            wk: dwk,
            bk: dbk,
            wv: dwv,
            bv: dbv,
            wo: dwo,
            bo: dbo.expect("bias requested"),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{check_grad, rand_tensor};
    use bertscope_tensor::OpKind;

    fn tiny_cfg(fused: bool) -> AttentionConfig {
        AttentionConfig {
            batch: 2,
            seq: 3,
            heads: 2,
            d_model: 4,
            dropout_p: 0.0,
            fused_qkv: fused,
            fused_epilogue: false,
            deferred: false,
            dtype: DType::F32,
            layer: 0,
        }
    }

    fn tiny_params(seed: u64, d: usize) -> AttentionParams {
        AttentionParams {
            wq: rand_tensor(seed, &[d, d]).scale(0.5),
            bq: rand_tensor(seed + 1, &[d]).scale(0.1),
            wk: rand_tensor(seed + 2, &[d, d]).scale(0.5),
            bk: rand_tensor(seed + 3, &[d]).scale(0.1),
            wv: rand_tensor(seed + 4, &[d, d]).scale(0.5),
            bv: rand_tensor(seed + 5, &[d]).scale(0.1),
            wo: rand_tensor(seed + 6, &[d, d]).scale(0.5),
            bo: rand_tensor(seed + 7, &[d]).scale(0.1),
        }
    }

    #[test]
    fn forward_output_shape_and_finiteness() {
        let mut tr = Tracer::new();
        let cfg = tiny_cfg(false);
        let p = tiny_params(1, 4);
        let x = rand_tensor(9, &[6, 4]);
        let (y, _) = attention_fwd(&mut tr, &cfg, &p, &x, None, 0).unwrap();
        assert_eq!(y.dims(), &[6, 4]);
        assert!(y.all_finite());
    }

    #[test]
    fn trace_contains_table2b_bgemm_shapes() {
        let mut tr = Tracer::new();
        let cfg = tiny_cfg(false);
        let p = tiny_params(2, 4);
        let x = rand_tensor(10, &[6, 4]);
        attention_fwd(&mut tr, &cfg, &p, &x, None, 0).unwrap();
        let bgemms: Vec<_> = tr
            .records()
            .iter()
            .filter(|r| r.kind == OpKind::BatchedGemm)
            .map(|r| r.gemm.unwrap())
            .collect();
        assert_eq!(bgemms.len(), 2);
        // Attn. Score FWD: n x n x d/h, batch B*h.
        assert_eq!((bgemms[0].m, bgemms[0].n, bgemms[0].k, bgemms[0].batch), (3, 3, 2, 4));
        // Attn. O/p FWD: d/h x n x n, batch B*h.
        assert_eq!((bgemms[1].m, bgemms[1].n, bgemms[1].k, bgemms[1].batch), (2, 3, 3, 4));
    }

    #[test]
    fn fused_qkv_matches_serial_execution() {
        let p = tiny_params(3, 4);
        let x = rand_tensor(11, &[6, 4]);
        let mut tr_s = Tracer::new();
        let (y_serial, _) = attention_fwd(&mut tr_s, &tiny_cfg(false), &p, &x, None, 0).unwrap();
        let mut tr_f = Tracer::new();
        let (y_fused, _) = attention_fwd(&mut tr_f, &tiny_cfg(true), &p, &x, None, 0).unwrap();
        assert!(y_serial.max_abs_diff(&y_fused).unwrap() < 1e-4);
        // Fused execution launches two fewer projection GEMMs.
        let gemms = |tr: &Tracer| tr.records().iter().filter(|r| r.kind == OpKind::Gemm).count();
        assert_eq!(gemms(&tr_s) - gemms(&tr_f), 2);
        // And the fused GEMM's N dimension is 3x wider.
        let fused_spec =
            tr_f.records().iter().find(|r| r.kind == OpKind::Gemm).and_then(|r| r.gemm).unwrap();
        assert_eq!(fused_spec.m, 12, "fused projection output is 3*d_model wide");
    }

    #[test]
    fn additive_mask_suppresses_positions() {
        let mut tr = Tracer::disabled();
        let cfg = AttentionConfig { batch: 1, seq: 2, heads: 1, d_model: 2, ..tiny_cfg(false) };
        let p = tiny_params(4, 2);
        let x = rand_tensor(12, &[2, 2]);
        // Mask out attention *to* position 1 for every query.
        let mask = Tensor::from_vec(vec![0.0, -1e9, 0.0, -1e9], &[1, 2, 2]).unwrap();
        let (_, state) = attention_fwd(&mut tr, &cfg, &p, &x, Some(&mask), 0).unwrap();
        // After softmax, column 1 must carry ~zero probability.
        assert!(state.probs_pre_drop.as_slice()[1] < 1e-6);
        assert!(state.probs_pre_drop.as_slice()[3] < 1e-6);
        assert!((state.probs_pre_drop.as_slice()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences_serial_and_fused() {
        for fused in [false, true] {
            let cfg = tiny_cfg(fused);
            let p = tiny_params(5, 4);
            let x = rand_tensor(13, &[6, 4]);
            let w_obj = rand_tensor(14, &[6, 4]);
            let mut tr = Tracer::disabled();
            let (_, state) = attention_fwd(&mut tr, &cfg, &p, &x, None, 0).unwrap();
            let (dx, grads) = attention_bwd(&mut tr, &cfg, &p, &state, &w_obj).unwrap();

            let objective = |xp: &Tensor, pp: &AttentionParams| {
                let mut t = Tracer::disabled();
                let (y, _) = attention_fwd(&mut t, &cfg, pp, xp, None, 0).unwrap();
                y.mul(&w_obj).unwrap().sum()
            };
            check_grad(&x, &dx, 1e-3, 3e-2, |xp| objective(xp, &p));
            check_grad(&p.wq, &grads.wq, 1e-3, 3e-2, |wp| {
                objective(&x, &AttentionParams { wq: wp.clone(), ..p.clone() })
            });
            check_grad(&p.wo, &grads.wo, 1e-3, 3e-2, |wp| {
                objective(&x, &AttentionParams { wo: wp.clone(), ..p.clone() })
            });
            check_grad(&p.bv, &grads.bv, 1e-3, 3e-2, |bp| {
                objective(&x, &AttentionParams { bv: bp.clone(), ..p.clone() })
            });
            check_grad(&p.bk, &grads.bk, 1e-3, 3e-2, |bp| {
                objective(&x, &AttentionParams { bk: bp.clone(), ..p.clone() })
            });
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let mut tr = Tracer::new();
        let cfg = AttentionConfig { heads: 3, ..tiny_cfg(false) }; // 4 % 3 != 0
        let p = tiny_params(6, 4);
        let x = rand_tensor(15, &[6, 4]);
        assert!(attention_fwd(&mut tr, &cfg, &p, &x, None, 0).is_err());
        let cfg_ok = tiny_cfg(false);
        let x_bad = rand_tensor(16, &[5, 4]);
        assert!(attention_fwd(&mut tr, &cfg_ok, &p, &x_bad, None, 0).is_err());
    }
}
