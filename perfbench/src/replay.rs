//! Replays the kernels of one traced training step at the step's own
//! shapes, through the public `kernels::*` and `tensor::{gemm,
//! batched_gemm}` entry points.
//!
//! Shapes come from the step's `OpRecord`s, never from the workload
//! definition: GEMM records carry a `GemmSpec`, the record name says which
//! kernel emitted it, and elementwise records carry their byte counts. A
//! record named `<ctx>.<op>.<phase>` maps to a kernel call as follows:
//!
//! | record                                   | replayed call                     |
//! |------------------------------------------|-----------------------------------|
//! | `Gemm` `nn` `*.gemm`, not attention       | `linear::linear_fwd`              |
//! | `Gemm` `*.grad_wt` of such a linear       | `linear::linear_bwd`              |
//! | `BatchedGemm` `*.score` fwd/recompute     | `attention::attention_fwd`        |
//! | `BatchedGemm` `*.score.grad_q`            | `attention::attention_bwd`        |
//! | `*.layernorm`                             | `norm::layernorm_fwd`/`_bwd`      |
//! | `*.gelu`, `*.tanh`                        | `activation::gelu_*`/`tanh_*`     |
//! | `*.xent`                                  | `loss::cross_entropy_fwd`/`_bwd`  |
//! | `*.gather`, `*.scatter_add`               | `embedding::embedding_fwd`/`_bwd` |
//!
//! Attention calls include their own projections, scores, softmax and
//! head reshapes, so the linear module counts only the linears outside
//! attention. Everything else in the step (the tied decoder GEMM, dropout
//! and residual adds, the optimizer, the loss scaler) is not replayed and
//! shows up in the unaccounted share.

use bertscope_kernels::attention::{
    attention_bwd, attention_fwd, AttentionConfig, AttentionParams, AttentionState,
};
use bertscope_kernels::loss::CrossEntropyState;
use bertscope_kernels::norm::LayerNormState;
use bertscope_kernels::testsupport::rand_tensor;
use bertscope_kernels::{activation, embedding, linear, loss, masks, norm, KernelCtx};
use bertscope_tensor::{
    batched_gemm, gemm, Category, DType, GemmSpec, OpKind, OpRecord, Phase, Tensor, Tracer,
    Transpose,
};
use bertscope_train::TrainOptions;
use std::collections::BTreeMap;
use std::time::Instant;

/// Kernel modules whose calls are replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Module {
    /// `kernels::linear`.
    Linear,
    /// `kernels::attention`.
    Attention,
    /// `kernels::norm` (LayerNorm; softmax runs inside attention).
    Norm,
    /// `kernels::activation`.
    Activation,
    /// `kernels::loss`.
    Loss,
    /// `kernels::embedding`.
    Embedding,
}

impl Module {
    /// Every module, in report order.
    pub const ALL: [Module; 6] = [
        Module::Linear,
        Module::Attention,
        Module::Norm,
        Module::Activation,
        Module::Loss,
        Module::Embedding,
    ];

    /// The module's replay-time metric.
    pub fn metric(self) -> &'static str {
        match self {
            Module::Linear => "kernels.linear.ms",
            Module::Attention => "kernels.attention.ms",
            Module::Norm => "kernels.norm.ms",
            Module::Activation => "kernels.activation.ms",
            Module::Loss => "kernels.loss.ms",
            Module::Embedding => "kernels.embedding.ms",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AttnShape {
    batch: usize,
    seq: usize,
    heads: usize,
    d_model: usize,
    masked: bool,
    fused_epilogue: bool,
}

/// One kernel call seen in the step's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    LinearFwd { t: usize, d_in: usize, d_out: usize },
    LinearBwd { t: usize, d_in: usize, d_out: usize },
    AttentionFwd(AttnShape),
    AttentionBwd(AttnShape),
    NormFwd { rows: usize, width: usize },
    NormBwd { rows: usize, width: usize },
    GeluFwd { numel: usize },
    GeluBwd { numel: usize },
    TanhFwd { numel: usize },
    TanhBwd { numel: usize },
    XentFwd { rows: usize, classes: usize },
    XentBwd { rows: usize, classes: usize },
    EmbFwd { vocab: usize, d: usize, t: usize },
    EmbBwd { vocab: usize, d: usize, t: usize },
}

impl Call {
    fn module(self) -> Module {
        match self {
            Call::LinearFwd { .. } | Call::LinearBwd { .. } => Module::Linear,
            Call::AttentionFwd(_) | Call::AttentionBwd(_) => Module::Attention,
            Call::NormFwd { .. } | Call::NormBwd { .. } => Module::Norm,
            Call::GeluFwd { .. }
            | Call::GeluBwd { .. }
            | Call::TanhFwd { .. }
            | Call::TanhBwd { .. } => Module::Activation,
            Call::XentFwd { .. } | Call::XentBwd { .. } => Module::Loss,
            Call::EmbFwd { .. } | Call::EmbBwd { .. } => Module::Embedding,
        }
    }
}

/// Record name without its phase suffix (which names the phase the kernel
/// was launched in: recomputed forwards keep their `.fwd`).
fn base_name(rec: &OpRecord) -> &str {
    rec.name.rsplit_once('.').map_or(&rec.name, |(base, _)| base)
}

fn is_fwd(rec: &OpRecord) -> bool {
    matches!(rec.phase, Phase::Forward | Phase::Recompute)
}

fn elements(rec: &OpRecord) -> usize {
    (rec.bytes_written / rec.dtype.size_bytes().max(1)) as usize
}

/// Step dimensions read off the GEMM records: tokens per step, hidden
/// size, and vocabulary (the tied decoder's output width).
struct Dims {
    tokens: usize,
    d_model: usize,
    vocab: usize,
}

fn dims(records: &[OpRecord]) -> Result<Dims, String> {
    let fc1 = records
        .iter()
        .find(|r| r.category == Category::FcGemm && r.phase == Phase::Forward)
        .and_then(|r| r.gemm)
        .ok_or("no forward FC GEMM in the step")?;
    let decoder = records
        .iter()
        .filter(|r| r.category == Category::Output && r.phase == Phase::Forward)
        .filter_map(|r| r.gemm)
        .find(|g| g.tb == Transpose::Yes)
        .ok_or("no tied decoder GEMM in the step")?;
    Ok(Dims { tokens: fc1.n, d_model: fc1.k, vocab: decoder.m })
}

/// The kernel calls of one step, in trace order.
fn calls(records: &[OpRecord], opts: &TrainOptions) -> Result<Vec<Call>, String> {
    let Dims { tokens, d_model, vocab } = dims(records)?;
    let masked = records.iter().any(|r| {
        r.category == Category::ScaleMaskSoftmaxDropout && base_name(r).ends_with(".mask")
    });
    let mut linears: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    let mut attention: BTreeMap<Option<usize>, AttnShape> = BTreeMap::new();
    let mut losses: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut last_gemm: Option<GemmSpec> = None;
    let mut out = Vec::new();
    for rec in records {
        let base = base_name(rec);
        let ctx = base.rsplit_once('.').map_or("", |(c, _)| c);
        let call = match (rec.kind, rec.gemm) {
            (OpKind::Gemm, Some(g))
                if is_fwd(rec)
                    && base.ends_with(".gemm")
                    && g.ta == Transpose::No
                    && g.tb == Transpose::No
                    && rec.category != Category::AttnLinear =>
            {
                linears.insert(ctx.to_owned(), (g.n, g.k, g.m));
                Some(Call::LinearFwd { t: g.n, d_in: g.k, d_out: g.m })
            }
            (OpKind::Gemm, Some(_))
                if rec.phase == Phase::Backward && base.ends_with(".grad_wt") =>
            {
                linears.get(ctx).map(|&(t, d_in, d_out)| Call::LinearBwd { t, d_in, d_out })
            }
            // The score GEMM's forward spec is `(n, n, d/h, B*h)`; its
            // backward specs permute those, so backward reuses the shape
            // its layer's forward recorded.
            (OpKind::BatchedGemm, Some(g)) if base.ends_with(".score") && is_fwd(rec) => {
                let heads = d_model / g.k.max(1);
                let shape = AttnShape {
                    batch: g.batch / heads.max(1),
                    seq: g.m,
                    heads,
                    d_model,
                    masked,
                    fused_epilogue: opts.fused_epilogue,
                };
                attention.insert(rec.layer, shape);
                Some(Call::AttentionFwd(shape))
            }
            (OpKind::BatchedGemm, Some(_))
                if base.ends_with(".score.grad_q") && rec.phase == Phase::Backward =>
            {
                attention.get(&rec.layer).map(|&s| Call::AttentionBwd(s))
            }
            _ if base.ends_with(".layernorm") => {
                let rows = tokens;
                let width = d_model;
                Some(if is_fwd(rec) {
                    Call::NormFwd { rows, width }
                } else {
                    Call::NormBwd { rows, width }
                })
            }
            _ if base.ends_with(".gelu") => {
                let numel = elements(rec);
                Some(if is_fwd(rec) { Call::GeluFwd { numel } } else { Call::GeluBwd { numel } })
            }
            _ if base.ends_with(".tanh") => {
                let numel = elements(rec);
                Some(if is_fwd(rec) { Call::TanhFwd { numel } } else { Call::TanhBwd { numel } })
            }
            // The logits are the output of the GEMM just before the forward
            // loss; backward reuses the shape its forward recorded.
            _ if base.ends_with(".xent") && is_fwd(rec) => {
                let g = last_gemm.ok_or("loss record with no logits GEMM before it")?;
                losses.insert(ctx.to_owned(), (g.n, g.m));
                Some(Call::XentFwd { rows: g.n, classes: g.m })
            }
            _ if base.ends_with(".xent") => {
                losses.get(ctx).map(|&(rows, classes)| Call::XentBwd { rows, classes })
            }
            _ if base.ends_with(".gather") => Some(Call::EmbFwd { vocab, d: d_model, t: tokens }),
            _ if base.ends_with(".scatter_add") => {
                Some(Call::EmbBwd { vocab, d: d_model, t: tokens })
            }
            _ => None,
        };
        if rec.kind == OpKind::Gemm {
            last_gemm = rec.gemm;
        }
        out.extend(call);
    }
    Ok(out)
}

/// Inputs of one call, built once outside the timed region.
enum Prepared {
    LinearFwd {
        x: Tensor,
        w: Tensor,
        b: Tensor,
    },
    LinearBwd {
        x: Tensor,
        w: Tensor,
        dy: Tensor,
    },
    AttentionFwd {
        cfg: AttentionConfig,
        p: AttentionParams,
        x: Tensor,
        mask: Option<Tensor>,
    },
    AttentionBwd {
        cfg: AttentionConfig,
        p: AttentionParams,
        state: Box<AttentionState>,
        dy: Tensor,
    },
    NormFwd {
        x: Tensor,
        g: Tensor,
        b: Tensor,
    },
    NormBwd {
        x: Tensor,
        g: Tensor,
        state: LayerNormState,
        dy: Tensor,
    },
    GeluFwd {
        x: Tensor,
    },
    GeluBwd {
        x: Tensor,
        dy: Tensor,
    },
    TanhFwd {
        x: Tensor,
    },
    TanhBwd {
        y: Tensor,
        dy: Tensor,
    },
    XentFwd {
        logits: Tensor,
        targets: Vec<usize>,
    },
    XentBwd {
        state: CrossEntropyState,
    },
    EmbFwd {
        table: Tensor,
        ids: Vec<usize>,
    },
    EmbBwd {
        dims: [usize; 2],
        ids: Vec<usize>,
        dy: Tensor,
    },
}

fn ctx() -> KernelCtx {
    KernelCtx::new("replay", Category::Output, Phase::Forward)
}

fn attention_parts(
    s: AttnShape,
    opts: &TrainOptions,
) -> bertscope_tensor::Result<(AttentionConfig, AttentionParams, Tensor, Option<Tensor>)> {
    let cfg = AttentionConfig {
        batch: s.batch,
        seq: s.seq,
        heads: s.heads,
        d_model: s.d_model,
        dropout_p: opts.dropout_p,
        fused_qkv: opts.fused_qkv,
        fused_epilogue: s.fused_epilogue,
        deferred: opts.deferred,
        dtype: DType::F32,
        layer: 0,
    };
    let d = s.d_model;
    let w = |seed| rand_tensor(seed, &[d, d]).scale(0.05);
    let p = AttentionParams {
        wq: w(11),
        bq: rand_tensor(12, &[d]),
        wk: w(13),
        bk: rand_tensor(14, &[d]),
        wv: w(15),
        bv: rand_tensor(16, &[d]),
        wo: w(17),
        bo: rand_tensor(18, &[d]),
    };
    let x = rand_tensor(19, &[s.batch * s.seq, d]);
    let mask = if s.masked {
        Some(masks::padding_mask(&vec![s.seq; s.batch], s.seq, s.heads, DType::F32)?)
    } else {
        None
    };
    Ok((cfg, p, x, mask))
}

fn ids(n: usize, vocab: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7919) % vocab.max(1)).collect()
}

fn prepare(call: Call, opts: &TrainOptions) -> bertscope_tensor::Result<Prepared> {
    let mut tr = Tracer::disabled();
    Ok(match call {
        Call::LinearFwd { t, d_in, d_out } => Prepared::LinearFwd {
            x: rand_tensor(1, &[t, d_in]),
            w: rand_tensor(2, &[d_in, d_out]),
            b: rand_tensor(3, &[d_out]),
        },
        Call::LinearBwd { t, d_in, d_out } => Prepared::LinearBwd {
            x: rand_tensor(1, &[t, d_in]),
            w: rand_tensor(2, &[d_in, d_out]),
            dy: rand_tensor(4, &[t, d_out]),
        },
        Call::AttentionFwd(s) => {
            let (cfg, p, x, mask) = attention_parts(s, opts)?;
            Prepared::AttentionFwd { cfg, p, x, mask }
        }
        Call::AttentionBwd(s) => {
            let (cfg, p, x, mask) = attention_parts(s, opts)?;
            let (y, state) = attention_fwd(&mut tr, &cfg, &p, &x, mask.as_ref(), 7)?;
            let dy = rand_tensor(20, y.dims());
            Prepared::AttentionBwd { cfg, p, state: Box::new(state), dy }
        }
        Call::NormFwd { rows, width } => Prepared::NormFwd {
            x: rand_tensor(5, &[rows, width]),
            g: Tensor::ones(&[width]),
            b: Tensor::zeros(&[width]),
        },
        Call::NormBwd { rows, width } => {
            let x = rand_tensor(5, &[rows, width]);
            let g = Tensor::ones(&[width]);
            let (_, state) =
                norm::layernorm_fwd(&mut tr, &ctx(), &x, &g, &Tensor::zeros(&[width]), 1e-12)?;
            Prepared::NormBwd { dy: rand_tensor(6, &[rows, width]), x, g, state }
        }
        Call::GeluFwd { numel } => Prepared::GeluFwd { x: rand_tensor(7, &[1, numel]) },
        Call::GeluBwd { numel } => {
            Prepared::GeluBwd { x: rand_tensor(7, &[1, numel]), dy: rand_tensor(8, &[1, numel]) }
        }
        Call::TanhFwd { numel } => Prepared::TanhFwd { x: rand_tensor(7, &[1, numel]) },
        Call::TanhBwd { numel } => {
            Prepared::TanhBwd { y: rand_tensor(7, &[1, numel]), dy: rand_tensor(8, &[1, numel]) }
        }
        Call::XentFwd { rows, classes } => Prepared::XentFwd {
            logits: rand_tensor(9, &[rows, classes]),
            targets: ids(rows, classes),
        },
        Call::XentBwd { rows, classes } => {
            let logits = rand_tensor(9, &[rows, classes]);
            let (_, state) =
                loss::cross_entropy_fwd(&mut tr, &ctx(), &logits, &ids(rows, classes))?;
            Prepared::XentBwd { state }
        }
        Call::EmbFwd { vocab, d, t } => {
            Prepared::EmbFwd { table: rand_tensor(10, &[vocab, d]), ids: ids(t, vocab) }
        }
        Call::EmbBwd { vocab, d, t } => {
            Prepared::EmbBwd { dims: [vocab, d], ids: ids(t, vocab), dy: rand_tensor(10, &[t, d]) }
        }
    })
}

fn run(p: &Prepared) -> bertscope_tensor::Result<()> {
    let mut tr = Tracer::disabled();
    let c = ctx();
    match p {
        Prepared::LinearFwd { x, w, b } => {
            std::hint::black_box(linear::linear_fwd(&mut tr, &c, x, w, Some(b))?);
        }
        Prepared::LinearBwd { x, w, dy } => {
            std::hint::black_box(linear::linear_bwd(&mut tr, &c, x, w, dy, true)?);
        }
        Prepared::AttentionFwd { cfg, p, x, mask } => {
            std::hint::black_box(attention_fwd(&mut tr, cfg, p, x, mask.as_ref(), 7)?);
        }
        Prepared::AttentionBwd { cfg, p, state, dy } => {
            std::hint::black_box(attention_bwd(&mut tr, cfg, p, state, dy)?);
        }
        Prepared::NormFwd { x, g, b } => {
            std::hint::black_box(norm::layernorm_fwd(&mut tr, &c, x, g, b, 1e-12)?);
        }
        Prepared::NormBwd { x, g, state, dy } => {
            std::hint::black_box(norm::layernorm_bwd(&mut tr, &c, x, g, state, dy)?);
        }
        Prepared::GeluFwd { x } => {
            std::hint::black_box(activation::gelu_fwd(&mut tr, &c, x)?);
        }
        Prepared::GeluBwd { x, dy } => {
            std::hint::black_box(activation::gelu_bwd(&mut tr, &c, x, dy)?);
        }
        Prepared::TanhFwd { x } => {
            std::hint::black_box(activation::tanh_fwd(&mut tr, &c, x)?);
        }
        Prepared::TanhBwd { y, dy } => {
            std::hint::black_box(activation::tanh_bwd(&mut tr, &c, y, dy)?);
        }
        Prepared::XentFwd { logits, targets } => {
            std::hint::black_box(loss::cross_entropy_fwd(&mut tr, &c, logits, targets)?);
        }
        Prepared::XentBwd { state } => {
            std::hint::black_box(loss::cross_entropy_bwd(&mut tr, &c, state)?);
        }
        Prepared::EmbFwd { table, ids } => {
            std::hint::black_box(embedding::embedding_fwd(&mut tr, &c, table, ids)?);
        }
        Prepared::EmbBwd { dims, ids, dy } => {
            std::hint::black_box(embedding::embedding_bwd(&mut tr, &c, dims, ids, dy)?);
        }
    }
    Ok(())
}

/// Per-module replay time of one step.
#[derive(Debug, Clone)]
pub struct KernelTimes {
    /// Median over repetitions of each module's summed call time, in ms.
    pub ms: BTreeMap<Module, f64>,
    /// Kernel calls replayed per step.
    pub calls: usize,
}

/// Replay every kernel call of the step `reps` times and report each
/// module's median per-step time.
pub fn replay_kernels(
    records: &[OpRecord],
    opts: &TrainOptions,
    reps: usize,
) -> Result<KernelTimes, String> {
    let calls = calls(records, opts)?;
    let prepared: Vec<(Module, Prepared)> = calls
        .iter()
        .map(|&c| prepare(c, opts).map(|p| (c.module(), p)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut per_rep: BTreeMap<Module, Vec<f64>> = BTreeMap::new();
    for _ in 0..reps {
        let mut sums: BTreeMap<Module, f64> = Module::ALL.iter().map(|&m| (m, 0.0)).collect();
        for (module, p) in &prepared {
            let t = Instant::now();
            run(p).map_err(|e| e.to_string())?;
            *sums.get_mut(module).expect("every module is present") +=
                t.elapsed().as_secs_f64() * 1e3;
        }
        for (m, v) in sums {
            per_rep.entry(m).or_default().push(v);
        }
    }
    let ms =
        per_rep.into_iter().map(|(m, v)| (m, crate::stats::median(&v).unwrap_or(0.0))).collect();
    Ok(KernelTimes { ms, calls: calls.len() })
}

/// Throughput of the step's GEMMs replayed at their own shapes.
#[derive(Debug, Clone, Copy)]
pub struct GemmRate {
    /// Multiply-add FLOPs per second over all GEMM calls of a step, in
    /// GFLOP/s (each distinct shape timed, weighted by its call count).
    pub gflops: f64,
    /// Distinct GEMM shapes in the step.
    pub shapes: usize,
    /// GEMM calls in the step.
    pub calls: usize,
}

/// Operands of one GEMM label: `C[n x m] = op(A) * op(B)` with the
/// label's transpose flags, `A` logically `[n, k]` and `B` `[k, m]`.
fn gemm_operands(g: &GemmSpec) -> (Vec<usize>, Vec<usize>) {
    let a = if g.ta == Transpose::No { [g.n, g.k] } else { [g.k, g.n] };
    let b = if g.tb == Transpose::No { [g.k, g.m] } else { [g.m, g.k] };
    if g.batch > 1 {
        (vec![g.batch, a[0], a[1]], vec![g.batch, b[0], b[1]])
    } else {
        (a.to_vec(), b.to_vec())
    }
}

/// Time every distinct GEMM shape of the step `reps` times through
/// `gemm`/`batched_gemm` and report the call-weighted throughput.
pub fn replay_gemms(records: &[OpRecord], reps: usize) -> Result<GemmRate, String> {
    let mut counts: BTreeMap<(bool, [usize; 6]), (GemmSpec, usize)> = BTreeMap::new();
    for rec in records {
        let Some(g) = rec.gemm else { continue };
        let batched = rec.kind == OpKind::BatchedGemm;
        let key = (
            batched,
            [
                usize::from(g.ta == Transpose::Yes),
                usize::from(g.tb == Transpose::Yes),
                g.m,
                g.n,
                g.k,
                g.batch,
            ],
        );
        counts.entry(key).or_insert((g, 0)).1 += 1;
    }
    let (mut flops, mut secs, mut calls) = (0.0f64, 0.0f64, 0usize);
    for ((batched, _), (g, count)) in &counts {
        let (ad, bd) = gemm_operands(g);
        let (a, b) = (rand_tensor(21, &ad), rand_tensor(22, &bd));
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            let c = if *batched {
                batched_gemm(g.ta, g.tb, 1.0, &a, &b)
            } else {
                gemm(g.ta, g.tb, 1.0, &a, &b, 0.0, None)
            }
            .map_err(|e| format!("replaying GEMM {g}: {e}"))?;
            times.push(t.elapsed().as_secs_f64());
            std::hint::black_box(c);
        }
        let t = crate::stats::median(&times).unwrap_or(0.0);
        flops += g.mac_flops() as f64 * *count as f64;
        secs += t * *count as f64;
        calls += count;
    }
    if secs <= 0.0 {
        return Err("the step has no GEMM records".into());
    }
    Ok(GemmRate { gflops: flops / secs / 1e9, shapes: counts.len(), calls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_model::BertConfig;
    use bertscope_train::{Bert, Lamb, SyntheticCorpus, Trainer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn traced_step(cfg: BertConfig, opts: TrainOptions) -> Vec<OpRecord> {
        let mut bert = Bert::new(cfg, opts, 3);
        let batch =
            SyntheticCorpus::new(cfg.vocab).generate_batch(&mut StdRng::seed_from_u64(3), &cfg);
        let mut tr = Tracer::new();
        Trainer::new(Lamb::new(1e-3), 1).micro_step(&mut tr, &mut bert, &batch).expect("step");
        tr.into_records()
    }

    #[test]
    fn calls_follow_the_traced_shapes() {
        let cfg = BertConfig::tiny();
        let opts = TrainOptions::default();
        let calls = calls(&traced_step(cfg, opts), &opts).expect("calls");
        let t = cfg.tokens();
        let count = |f: &dyn Fn(&Call) -> bool| calls.iter().filter(|c| f(c)).count();
        let attn = AttnShape {
            batch: cfg.batch,
            seq: cfg.seq_len,
            heads: cfg.heads,
            d_model: cfg.d_model,
            masked: true,
            fused_epilogue: false,
        };
        assert_eq!(count(&|c| *c == Call::AttentionFwd(attn)), cfg.layers);
        assert_eq!(count(&|c| *c == Call::AttentionBwd(attn)), cfg.layers);
        let fc1 = Call::LinearFwd { t, d_in: cfg.d_model, d_out: cfg.d_ff };
        assert_eq!(count(&|c| *c == fc1), cfg.layers);
        let fc1_bwd = Call::LinearBwd { t, d_in: cfg.d_model, d_out: cfg.d_ff };
        assert_eq!(count(&|c| *c == fc1_bwd), cfg.layers);
        // Embedding LN, two per layer, and the MLM head's.
        let ln = Call::NormFwd { rows: t, width: cfg.d_model };
        assert_eq!(count(&|c| *c == ln), 2 * cfg.layers + 2);
        for (rows, classes) in [(t, cfg.vocab), (cfg.batch, 2)] {
            assert_eq!(count(&|c| *c == Call::XentFwd { rows, classes }), 1);
            assert_eq!(count(&|c| *c == Call::XentBwd { rows, classes }), 1);
        }
        let ln_bwd = Call::NormBwd { rows: t, width: cfg.d_model };
        assert_eq!(count(&|c| *c == ln_bwd), 2 * cfg.layers + 2);
        assert_eq!(count(&|c| matches!(c, Call::EmbBwd { .. })), 3);
        assert_eq!(count(&|c| *c == Call::GeluFwd { numel: t * cfg.d_ff }), cfg.layers);
        assert_eq!(count(&|c| matches!(c, Call::EmbFwd { .. })), 3);
    }

    #[test]
    fn recomputed_forwards_are_replayed_too() {
        let cfg = BertConfig { layers: 4, ..BertConfig::tiny() };
        let plain = calls(&traced_step(cfg, TrainOptions::default()), &TrainOptions::default())
            .expect("calls");
        let opts = TrainOptions { checkpoint: true, ..TrainOptions::default() };
        let ckpt = calls(&traced_step(cfg, opts), &opts).expect("calls");
        let fwd = |v: &[Call]| v.iter().filter(|c| matches!(c, Call::AttentionFwd(_))).count();
        assert!(fwd(&ckpt) > fwd(&plain), "recompute must add attention forwards");
    }

    #[test]
    fn replays_cover_every_module_and_gemm_shape() {
        let cfg = BertConfig::tiny();
        let records = traced_step(cfg, TrainOptions::default());
        let k = replay_kernels(&records, &TrainOptions::default(), 1).expect("replay");
        for m in Module::ALL {
            assert!(k.ms[&m] > 0.0, "{} not replayed", m.metric());
        }
        let g = replay_gemms(&records, 1).expect("gemm replay");
        let gemm_records = records.iter().filter(|r| r.gemm.is_some()).count();
        assert_eq!(g.calls, gemm_records);
        assert!(g.gflops > 0.0 && g.shapes > 1);
    }
}
