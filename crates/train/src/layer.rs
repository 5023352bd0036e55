//! One Transformer encoder layer: attention + feed-forward with residuals
//! and `LayerNorm`s (paper Fig. 2(b)), executable forward and backward.

use crate::params::param_group;
use bertscope_kernels::activation::{gelu_bwd, gelu_fwd};
use bertscope_kernels::attention::{
    attention_bwd, attention_fwd, AttentionConfig, AttentionParams, AttentionState,
};
use bertscope_kernels::dropout::{dropout_bwd, dropout_fwd, DropoutMask};
use bertscope_kernels::elementwise::residual_add;
use bertscope_kernels::linear::{linear_bwd, linear_fwd, linear_gelu_fwd};
use bertscope_kernels::norm::{layernorm_bwd, layernorm_fwd, LayerNormState};
use bertscope_kernels::KernelCtx;
use bertscope_kernels::Result;
use bertscope_model::BertConfig;
use bertscope_tensor::init::randn;
use bertscope_tensor::{Category, DType, Phase, Tensor, Tracer};
use rand::Rng;

/// Execution-time configuration for one layer invocation.
#[derive(Debug, Clone, Copy)]
pub struct LayerCtx {
    /// Attention sub-configuration (batch, seq, heads, `d_model`, fusion, layer).
    pub attn: AttentionConfig,
    /// Feed-forward intermediate width `d_ff`.
    pub d_ff: usize,
    /// Hidden-state dropout probability.
    pub dropout_p: f32,
}

impl LayerCtx {
    /// Build a layer context from a model configuration.
    #[must_use]
    pub fn new(
        cfg: &BertConfig,
        layer: usize,
        dtype: DType,
        dropout_p: f32,
        fused_qkv: bool,
        fused_epilogue: bool,
    ) -> Self {
        LayerCtx {
            attn: AttentionConfig {
                batch: cfg.batch,
                seq: cfg.seq_len,
                heads: cfg.heads,
                d_model: cfg.d_model,
                dropout_p,
                fused_qkv,
                fused_epilogue,
                deferred: false,
                dtype,
                layer,
            },
            d_ff: cfg.d_ff,
            dropout_p,
        }
    }

    fn kctx(&self, name: &str, cat: Category, phase: Phase) -> KernelCtx {
        KernelCtx::new(name, cat, phase).layer(self.attn.layer).dtype(self.attn.dtype)
    }
}

/// Learnable parameters of one layer (or their gradients), in the slot
/// order its `param_group!` declaration fixes.
#[derive(Debug, Clone)]
pub struct LayerParams {
    /// Attention projections.
    pub attn: AttentionParams,
    /// Post-attention `LayerNorm` scale.
    pub ln1_gamma: Tensor,
    /// Post-attention `LayerNorm` shift.
    pub ln1_beta: Tensor,
    /// FC-1 weight `[d_model, d_ff]`.
    pub fc1_w: Tensor,
    /// FC-1 bias.
    pub fc1_b: Tensor,
    /// FC-2 weight `[d_ff, d_model]`.
    pub fc2_w: Tensor,
    /// FC-2 bias.
    pub fc2_b: Tensor,
    /// Post-FFN `LayerNorm` scale.
    pub ln2_gamma: Tensor,
    /// Post-FFN `LayerNorm` shift.
    pub ln2_beta: Tensor,
}

impl LayerParams {
    /// Random initialization (std 0.02 like BERT).
    pub fn init<R: Rng + ?Sized>(rng: &mut R, cfg: &BertConfig) -> Self {
        let d = cfg.d_model;
        let std = 0.02;
        LayerParams {
            attn: AttentionParams {
                wq: randn(rng, &[d, d], std),
                bq: Tensor::zeros(&[d]),
                wk: randn(rng, &[d, d], std),
                bk: Tensor::zeros(&[d]),
                wv: randn(rng, &[d, d], std),
                bv: Tensor::zeros(&[d]),
                wo: randn(rng, &[d, d], std),
                bo: Tensor::zeros(&[d]),
            },
            ln1_gamma: Tensor::ones(&[d]),
            ln1_beta: Tensor::zeros(&[d]),
            fc1_w: randn(rng, &[d, cfg.d_ff], std),
            fc1_b: Tensor::zeros(&[cfg.d_ff]),
            fc2_w: randn(rng, &[cfg.d_ff, d], std),
            fc2_b: Tensor::zeros(&[d]),
            ln2_gamma: Tensor::ones(&[d]),
            ln2_beta: Tensor::zeros(&[d]),
        }
    }
}

param_group!(LayerParams {
    attn.wq => "attn.wq",
    attn.bq => "attn.bq",
    attn.wk => "attn.wk",
    attn.bk => "attn.bk",
    attn.wv => "attn.wv",
    attn.bv => "attn.bv",
    attn.wo => "attn.wo",
    attn.bo => "attn.bo",
    ln1_gamma => "ln1.gamma",
    ln1_beta => "ln1.beta",
    fc1_w => "fc1.weight",
    fc1_b => "fc1.bias",
    fc2_w => "fc2.weight",
    fc2_b => "fc2.bias",
    ln2_gamma => "ln2.gamma",
    ln2_beta => "ln2.beta",
});

/// Saved activations for the backward pass.
#[derive(Debug, Clone)]
pub struct LayerActivations {
    attn: AttentionState,
    attn_drop: DropoutMask,
    res1: Tensor,
    ln1: LayerNormState,
    ln1_out: Tensor,
    fc1_out: Tensor,
    gelu_out: Tensor,
    ffn_drop: DropoutMask,
    res2: Tensor,
    ln2: LayerNormState,
}

/// Layer forward. `x` is `[B*n, d_model]`; `attn_mask` is the additive
/// attention mask pre-broadcast to `[B*h, n, n]`.
///
/// # Errors
///
/// Propagates kernel shape errors.
pub fn layer_fwd(
    tracer: &mut Tracer,
    lc: &LayerCtx,
    p: &LayerParams,
    x: &Tensor,
    attn_mask: Option<&Tensor>,
    seed: u64,
) -> Result<(Tensor, LayerActivations)> {
    let (attn_out, attn_state) = attention_fwd(tracer, &lc.attn, &p.attn, x, attn_mask, seed)?;

    let post_attn = lc.kctx("post_attn", Category::DropResidualNorm, Phase::Forward);
    let (dropped, attn_drop) = dropout_fwd(tracer, &post_attn, &attn_out, lc.dropout_p, seed ^ 1)?;
    let res1 = residual_add(tracer, &post_attn, x, &dropped)?;
    let ln1_ctx = lc.kctx("ln1", Category::DropResidualNorm, Phase::Forward);
    let (ln1_out, ln1) = layernorm_fwd(tracer, &ln1_ctx, &res1, &p.ln1_gamma, &p.ln1_beta, 1e-5)?;

    // Under a fused epilogue FC1+bias+GeLU is one kernel, GeLU evaluated on
    // register-resident tiles; the pre-activation is kept for backward.
    let fc1_ctx = lc.kctx("fc1", Category::FcGemm, Phase::Forward);
    let (fc1_out, gelu_out) = if lc.attn.fused_epilogue {
        linear_gelu_fwd(tracer, &fc1_ctx, &ln1_out, &p.fc1_w, &p.fc1_b)?
    } else {
        let fc1_out = linear_fwd(tracer, &fc1_ctx, &ln1_out, &p.fc1_w, Some(&p.fc1_b))?;
        let gelu_out = gelu_fwd(tracer, &lc.kctx("ffn", Category::Gelu, Phase::Forward), &fc1_out)?;
        (fc1_out, gelu_out)
    };
    let fc2_ctx = lc.kctx("fc2", Category::FcGemm, Phase::Forward);
    let fc2_out = linear_fwd(tracer, &fc2_ctx, &gelu_out, &p.fc2_w, Some(&p.fc2_b))?;

    let post_ffn = lc.kctx("post_ffn", Category::DropResidualNorm, Phase::Forward);
    let (dropped2, ffn_drop) = dropout_fwd(tracer, &post_ffn, &fc2_out, lc.dropout_p, seed ^ 2)?;
    let res2 = residual_add(tracer, &post_ffn, &ln1_out, &dropped2)?;
    let ln2_ctx = lc.kctx("ln2", Category::DropResidualNorm, Phase::Forward);
    let (y, ln2) = layernorm_fwd(tracer, &ln2_ctx, &res2, &p.ln2_gamma, &p.ln2_beta, 1e-5)?;

    Ok((
        y,
        LayerActivations {
            attn: attn_state,
            attn_drop,
            res1,
            ln1,
            ln1_out,
            fc1_out,
            gelu_out,
            ffn_drop,
            res2,
            ln2,
        },
    ))
}

/// Layer backward. Returns `dx` and the layer's gradients, held in a
/// [`LayerParams`].
///
/// # Errors
///
/// Propagates kernel shape errors.
pub fn layer_bwd(
    tracer: &mut Tracer,
    lc: &LayerCtx,
    p: &LayerParams,
    acts: &LayerActivations,
    dy: &Tensor,
) -> Result<(Tensor, LayerParams)> {
    let bwd = Phase::Backward;
    // Post-FFN LayerNorm + dropout backward.
    let ln2_ctx = lc.kctx("ln2", Category::DropResidualNorm, bwd);
    let (d_res2, d_ln2_gamma, d_ln2_beta) =
        layernorm_bwd(tracer, &ln2_ctx, &acts.res2, &p.ln2_gamma, &acts.ln2, dy)?;
    let post_ffn = lc.kctx("post_ffn", Category::DropResidualNorm, bwd);
    let d_fc2_out = dropout_bwd(tracer, &post_ffn, &acts.ffn_drop, &d_res2)?;
    // FC-2, GeLU, FC-1 backward.
    let fc2_ctx = lc.kctx("fc2", Category::FcGemm, bwd);
    let (d_gelu_out, d_fc2_w, d_fc2_b) =
        linear_bwd(tracer, &fc2_ctx, &acts.gelu_out, &p.fc2_w, &d_fc2_out, true)?;
    let gelu_ctx = lc.kctx("ffn", Category::Gelu, bwd);
    let d_fc1_out = gelu_bwd(tracer, &gelu_ctx, &acts.fc1_out, &d_gelu_out)?;
    let fc1_ctx = lc.kctx("fc1", Category::FcGemm, bwd);
    let (d_ln1_out_fc, d_fc1_w, d_fc1_b) =
        linear_bwd(tracer, &fc1_ctx, &acts.ln1_out, &p.fc1_w, &d_fc1_out, true)?;
    // Residual-path accumulation for the FFN sub-layer.
    let d_ln1_out = residual_add(tracer, &post_ffn, &d_res2, &d_ln1_out_fc)?;
    // Post-attention LayerNorm + dropout backward.
    let ln1_ctx = lc.kctx("ln1", Category::DropResidualNorm, bwd);
    let (d_res1, d_ln1_gamma, d_ln1_beta) =
        layernorm_bwd(tracer, &ln1_ctx, &acts.res1, &p.ln1_gamma, &acts.ln1, &d_ln1_out)?;
    let post_attn = lc.kctx("post_attn", Category::DropResidualNorm, bwd);
    let d_attn_out = dropout_bwd(tracer, &post_attn, &acts.attn_drop, &d_res1)?;
    // Attention backward.
    let (dx_attn, attn_grads) = attention_bwd(tracer, &lc.attn, &p.attn, &acts.attn, &d_attn_out)?;
    // Residual-path accumulation for the attention sub-layer.
    let dx = residual_add(tracer, &post_attn, &d_res1, &dx_attn)?;
    Ok((
        dx,
        LayerParams {
            attn: attn_grads,
            ln1_gamma: d_ln1_gamma,
            ln1_beta: d_ln1_beta,
            fc1_w: d_fc1_w,
            fc1_b: d_fc1_b.expect("fc1 has bias"),
            fc2_w: d_fc2_w,
            fc2_b: d_fc2_b.expect("fc2 has bias"),
            ln2_gamma: d_ln2_gamma,
            ln2_beta: d_ln2_beta,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (BertConfig, LayerCtx, LayerParams, Tensor) {
        let cfg = BertConfig::tiny();
        let lc = LayerCtx::new(&cfg, 0, DType::F32, 0.0, false, false);
        let mut rng = StdRng::seed_from_u64(42);
        let p = LayerParams::init(&mut rng, &cfg);
        let x = randn(&mut rng, &[cfg.tokens(), cfg.d_model], 1.0);
        (cfg, lc, p, x)
    }

    #[test]
    fn forward_preserves_shape_and_normalizes() {
        let (cfg, lc, p, x) = setup();
        let mut tr = Tracer::new();
        let (y, _) = layer_fwd(&mut tr, &lc, &p, &x, None, 0).unwrap();
        assert_eq!(y.dims(), &[cfg.tokens(), cfg.d_model]);
        assert!(y.all_finite());
        // LayerNorm output rows have ~zero mean.
        let d = cfg.d_model;
        for r in 0..cfg.tokens() {
            let row = &y.as_slice()[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
        }
    }

    #[test]
    fn layer_gradients_match_finite_differences() {
        let (_, lc, p, x) = setup();
        let w_obj = {
            let mut rng = StdRng::seed_from_u64(7);
            randn(&mut rng, x.dims(), 1.0)
        };
        let mut tr = Tracer::disabled();
        let (_, acts) = layer_fwd(&mut tr, &lc, &p, &x, None, 0).unwrap();
        let (dx, grads) = layer_bwd(&mut tr, &lc, &p, &acts, &w_obj).unwrap();
        let objective = |xp: &Tensor, pp: &LayerParams| {
            let mut t = Tracer::disabled();
            let (y, _) = layer_fwd(&mut t, &lc, pp, xp, None, 0).unwrap();
            y.mul(&w_obj).unwrap().sum()
        };
        bertscope_kernels::testsupport::check_grad(&x, &dx, 1e-2, 4e-2, |xp| objective(xp, &p));
        bertscope_kernels::testsupport::check_grad(&p.fc1_w, &grads.fc1_w, 1e-2, 4e-2, |wp| {
            objective(&x, &LayerParams { fc1_w: wp.clone(), ..p.clone() })
        });
        bertscope_kernels::testsupport::check_grad(
            &p.ln2_gamma,
            &grads.ln2_gamma,
            1e-2,
            4e-2,
            |gp| objective(&x, &LayerParams { ln2_gamma: gp.clone(), ..p.clone() }),
        );
        bertscope_kernels::testsupport::check_grad(&p.attn.wo, &grads.attn.wo, 1e-2, 4e-2, |wp| {
            objective(
                &x,
                &LayerParams {
                    attn: bertscope_kernels::attention::AttentionParams {
                        wo: wp.clone(),
                        ..p.attn.clone()
                    },
                    ..p.clone()
                },
            )
        });
    }

    #[test]
    fn fused_epilogue_layer_matches_unfused_bitwise_with_fewer_kernels() {
        let (cfg, lc, p, x) = setup();
        let lc_fused = LayerCtx::new(&cfg, 0, DType::F32, 0.0, false, true);
        let mask = {
            let mut rng = StdRng::seed_from_u64(9);
            randn(&mut rng, &[cfg.batch * cfg.heads, cfg.seq_len, cfg.seq_len], 1.0)
        };
        let mut tr_u = Tracer::new();
        let (y_u, _) = layer_fwd(&mut tr_u, &lc, &p, &x, Some(&mask), 0).unwrap();
        let mut tr_f = Tracer::new();
        let (y_f, acts_f) = layer_fwd(&mut tr_f, &lc_fused, &p, &x, Some(&mask), 0).unwrap();
        // Fusion never changes numerics — outputs are bit-identical.
        assert_eq!(y_u.as_slice(), y_f.as_slice());
        // Fusion removes three kernels from the forward stream: the score
        // scale, the mask add, and the standalone GeLU.
        assert_eq!(tr_u.kernel_count() - tr_f.kernel_count(), 3);
        // Backward still works off the fused activations.
        let dy = Tensor::ones(y_f.dims());
        let mut tr_b = Tracer::disabled();
        let (dx, _) = layer_bwd(&mut tr_b, &lc_fused, &p, &acts_f, &dy).unwrap();
        assert!(dx.all_finite());
    }

    #[test]
    fn dropout_seeds_make_execution_deterministic() {
        let (_, lc2, p, x) = setup();
        let lc = LayerCtx {
            dropout_p: 0.1,
            attn: AttentionConfig { dropout_p: 0.1, ..lc2.attn },
            ..lc2
        };
        let mut tr = Tracer::disabled();
        let (y1, _) = layer_fwd(&mut tr, &lc, &p, &x, None, 5).unwrap();
        let (y2, _) = layer_fwd(&mut tr, &lc, &p, &x, None, 5).unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice());
        let (y3, _) = layer_fwd(&mut tr, &lc, &p, &x, None, 6).unwrap();
        assert_ne!(y1.as_slice(), y3.as_slice());
    }

    #[test]
    fn half_precision_layer_runs_and_stays_finite() {
        let (cfg, _, p, x) = setup();
        let lc = LayerCtx::new(&cfg, 0, DType::F16, 0.0, false, false);
        let mut p16 = p.clone();
        for t in p16.tensors_mut() {
            *t = t.to_dtype(DType::F16);
        }
        let x16 = x.to_dtype(DType::F16);
        let mut tr = Tracer::new();
        let (y, acts) = layer_fwd(&mut tr, &lc, &p16, &x16, None, 0).unwrap();
        assert!(y.all_finite());
        // Trace records carry the f16 dtype (half the bytes).
        assert!(tr.records().iter().all(|r| r.dtype == DType::F16));
        let dy = Tensor::ones(y.dims()).to_dtype(DType::F16);
        let (dx, _) = layer_bwd(&mut tr, &lc, &p16, &acts, &dy).unwrap();
        assert!(dx.all_finite());
    }
}
