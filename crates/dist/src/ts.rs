//! Megatron-style tensor slicing (paper §5.1-5.2, configurations T1/T2).
//!
//! An `m`-way slice partitions each Transformer layer across `m` devices
//! (paper Fig. 10): the Q/K/V projections and FC-1 are column-split, the
//! attention output projection and FC-2 are row-split (producing partial
//! sums), attention heads are divided `h/m` per device, and dropout /
//! residual / `LayerNorm` are replicated. Four activation/gradient `AllReduce`s
//! per layer per iteration cannot overlap with compute due to data
//! dependencies; the optimizer updates only the local `1/m` of the
//! parameters.
//!
//! The per-device operator stream is produced by *transforming* the
//! single-device analytic graph: GEMM specs are re-dimensioned and their
//! FLOP/byte counts recomputed, elementwise ops on split activations are
//! scaled, and the serialized communication ops are inserted.

use bertscope_device::{GpuModel, Link};
use bertscope_model::{build_iteration, BertConfig, GraphOptions};
use bertscope_sim::{IterationProfile, TimedOp};
use bertscope_tensor::{Category, Epilogue, GemmSpec, OpKind, OpRecord, Phase};

/// How a sliced op's dimensions change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slice {
    /// Output-feature dimension divided by `m` (column-parallel weight).
    M,
    /// Second weight dimension divided by `m`.
    N,
    /// Reduction dimension divided by `m` (row-parallel weight; produces
    /// partial sums that a subsequent `AllReduce` combines).
    K,
    /// Batched GEMM batch divided by `m` (heads are split).
    Batch,
    /// Elementwise/reduction op whose tensor shrinks by `m`.
    Elements,
    /// Replicated on every device (unchanged).
    Replicated,
}

/// Classify one op of the single-device graph for `m`-way slicing.
fn classify(op: &OpRecord) -> Slice {
    let name = op.name.as_str();
    match op.category {
        // Q/K/V projections: column-parallel.
        Category::AttnLinear if name.contains("attn_out.") => match () {
            // Output projection: row-parallel.
            () if name.contains(".gemm.") => Slice::K,
            () if name.contains("grad_act") => Slice::M,
            () if name.contains("grad_wt") => Slice::M,
            // Bias grad of the row-parallel linear reduces the replicated
            // output; computed on one device, replicated cost here.
            () => Slice::Replicated,
        },
        Category::AttnLinear => match () {
            () if name.contains(".gemm.") => Slice::M,
            () if name.contains("grad_act") => Slice::K,
            () if name.contains("grad_wt") => Slice::N,
            () => Slice::Elements, // bias grads over d/m columns
        },
        // Attention B-GEMMs and score elementwise ops: heads split.
        Category::AttnBgemm => Slice::Batch,
        // Score elementwise ops act on the split heads; the optimizer
        // updates 1/m of the parameters.
        Category::ScaleMaskSoftmaxDropout
        | Category::LambStage1
        | Category::LambStage2
        | Category::GradNorm => Slice::Elements,
        // FC-1 column-parallel, FC-2 row-parallel.
        Category::FcGemm if name.contains("fc1") => match () {
            () if name.contains(".gemm.") => Slice::M,
            () if name.contains("grad_act") => Slice::K,
            () if name.contains("grad_wt") => Slice::N,
            () => Slice::Elements,
        },
        Category::FcGemm => match () {
            () if name.contains(".gemm.") => Slice::K,
            () if name.contains("grad_act") => Slice::M,
            () if name.contains("grad_wt") => Slice::M,
            () => Slice::Replicated, // fc2 bias grad on the full output
        },
        // GeLU acts on the split intermediate activation.
        Category::Gelu if op.layer.is_some() => Slice::Elements,
        // Dropout/residual/LayerNorm are replicated (paper: "remaining
        // layers are replicated across devices"), and so are the embedding
        // and output head in this model (the paper's analysis focuses on
        // the Transformer layers).
        _ => Slice::Replicated,
    }
}

fn rescale_gemm(spec: GemmSpec, slice: Slice, m: usize) -> GemmSpec {
    let mut s = spec;
    match slice {
        Slice::M => s.m = (s.m / m).max(1),
        Slice::N => s.n = (s.n / m).max(1),
        Slice::K => {
            s.k = (s.k / m).max(1);
            // A row-parallel GEMM emits partial sums: no epilogue can be
            // fused before the AllReduce combines them, so the bias is
            // applied downstream of the reduction instead.
            s.epilogue = Epilogue::None;
        }
        Slice::Batch => s.batch = (s.batch / m).max(1),
        Slice::Elements | Slice::Replicated => {}
    }
    s
}

/// Transform the single-device graph into one device's share of an `m`-way
/// tensor-sliced execution, inserting the four serialized `AllReduce`s per
/// layer.
#[must_use]
pub fn tensor_slice_ops(cfg: &BertConfig, opts: &GraphOptions, ways: usize) -> Vec<OpRecord> {
    assert!(ways >= 1, "ways must be at least 1");
    let base = build_iteration(cfg, opts);
    if ways == 1 {
        return base;
    }
    let dt = opts.precision.activation_dtype();
    let act_bytes = (cfg.tokens() * cfg.d_model) as u64 * dt.size_bytes();
    let comm = |layer: usize, which: &str, phase: Phase| OpRecord {
        access: bertscope_tensor::AccessSet::default(),
        name: format!("l{layer}.allreduce.{which}"),
        kind: OpKind::Comm,
        category: Category::Comm,
        phase,
        layer: Some(layer),
        gemm: None,
        flops: 0,
        bytes_read: act_bytes,
        bytes_written: act_bytes,
        dtype: dt,
    };

    let mut out = Vec::with_capacity(base.len() + 4 * cfg.layers);
    for op in base {
        let slice = classify(&op);
        let mut new = op.clone();
        match (slice, op.gemm) {
            (Slice::Replicated, _) => {}
            (s, Some(spec)) if matches!(s, Slice::M | Slice::N | Slice::K | Slice::Batch) => {
                let spec = rescale_gemm(spec, s, ways);
                new.gemm = Some(spec);
                new.flops = spec.flops();
                new.bytes_read = spec.bytes_read(op.dtype);
                new.bytes_written = spec.bytes_written(op.dtype);
            }
            _ => {
                // Elementwise/reduction over a split tensor.
                let w = ways as u64;
                new.flops /= w;
                new.bytes_read /= w;
                new.bytes_written /= w;
            }
        }
        // Insert the forward AllReduces right after the partial-sum GEMMs
        // (attention output projection and FC-2), and the backward ones
        // after the column-parallel grad-activation GEMMs.
        let is_attn_out_fwd = new.name.contains("attn_out.gemm.") && new.phase == Phase::Forward;
        let is_fc2_fwd = new.name.contains("fc2.gemm") && new.phase == Phase::Forward;
        let is_qkv_bwd_last = new.name.contains("attn.grad_bias") && new.phase == Phase::Backward;
        let is_fc1_bwd = new.name.contains("fc1.grad_bias") && new.phase == Phase::Backward;
        let layer = new.layer;
        let phase = new.phase;
        out.push(new);
        if let Some(l) = layer {
            if is_attn_out_fwd {
                out.push(comm(l, "attn_out", phase));
            } else if is_fc2_fwd {
                out.push(comm(l, "fc2_out", phase));
            } else if is_fc1_bwd {
                out.push(comm(l, "grad_ln1", phase));
            } else if is_qkv_bwd_last {
                // Only once (after the last of the three QKV bias grads).
                if !out.iter().rev().take(12).any(|o| {
                    o.category == Category::Comm && o.layer == Some(l) && o.name.ends_with("grad_x")
                }) {
                    out.push(comm(l, "grad_x", phase));
                }
            }
        }
    }
    out
}

/// Per-device profile of `ways`-way tensor-sliced training: compute from the
/// transformed graph, communication from the Ring-AllReduce model over
/// `link` (fully serialized, per the paper).
#[must_use]
pub fn tensor_slice_profile(
    cfg: &BertConfig,
    opts: &GraphOptions,
    gpu: &GpuModel,
    link: &Link,
    ways: usize,
) -> IterationProfile {
    let ops = tensor_slice_ops(cfg, opts, ways);
    let timed = ops
        .into_iter()
        .map(|op| {
            let time_us = if op.kind == OpKind::Comm {
                link.ring_allreduce_us(op.bytes_read, ways)
            } else {
                gpu.op_time_us(&op)
            };
            TimedOp { op, time_us }
        })
        .collect();
    IterationProfile::from_timed(timed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_tensor::Group;

    fn setup() -> (BertConfig, GraphOptions, GpuModel, Link) {
        (
            BertConfig::bert_large().phase1(16),
            GraphOptions::default(),
            GpuModel::mi100(),
            Link::pcie4(),
        )
    }

    #[test]
    fn four_allreduces_per_layer() {
        let (cfg, opts, _, _) = setup();
        let ops = tensor_slice_ops(&cfg, &opts, 2);
        let comm_count = ops.iter().filter(|o| o.category == Category::Comm).count();
        assert_eq!(comm_count, 4 * cfg.layers, "paper: four AllReduces per layer");
        // Two in forward, two in backward, per layer.
        for l in 0..cfg.layers {
            let layer_comms: Vec<_> =
                ops.iter().filter(|o| o.category == Category::Comm && o.layer == Some(l)).collect();
            assert_eq!(layer_comms.len(), 4, "layer {l}");
            assert_eq!(layer_comms.iter().filter(|o| o.phase == Phase::Forward).count(), 2);
            assert_eq!(layer_comms.iter().filter(|o| o.phase == Phase::Backward).count(), 2);
        }
    }

    #[test]
    fn sliced_gemm_flops_are_one_mth_of_single_device() {
        let (cfg, opts, _, _) = setup();
        let base = build_iteration(&cfg, &opts);
        for ways in [2usize, 4, 8] {
            let sliced = tensor_slice_ops(&cfg, &opts, ways);
            let layer_gemm_flops = |ops: &[OpRecord]| -> u64 {
                ops.iter().filter(|o| o.is_gemm() && o.layer.is_some()).map(|o| o.flops).sum()
            };
            let ratio = layer_gemm_flops(&base) as f64 / layer_gemm_flops(&sliced) as f64;
            assert!((ratio - ways as f64).abs() / (ways as f64) < 0.02, "{ways}-way ratio {ratio}");
        }
    }

    #[test]
    fn lamb_traffic_shrinks_with_ways_but_replicated_ln_does_not() {
        // Paper Takeaway 12 + T2 observation on replicated layers.
        let (cfg, opts, _, _) = setup();
        let base = build_iteration(&cfg, &opts);
        let sliced = tensor_slice_ops(&cfg, &opts, 8);
        let bytes = |ops: &[OpRecord], cat: Category| -> u64 {
            ops.iter().filter(|o| o.category == cat).map(OpRecord::bytes_total).sum()
        };
        assert_eq!(bytes(&base, Category::LambStage1), 8 * bytes(&sliced, Category::LambStage1));
        assert_eq!(
            bytes(&base, Category::DropResidualNorm),
            bytes(&sliced, Category::DropResidualNorm),
            "DR+RC+LN is replicated"
        );
    }

    #[test]
    fn two_way_profile_resembles_single_gpu_with_comm() {
        // Paper T1: the high-level breakdown matches S1, plus ~9% comm and
        // LAMB's share halves.
        let (cfg, opts, gpu, link) = setup();
        let s1 = bertscope_sim::simulate_iteration(&cfg, &opts, &gpu);
        let t1 = tensor_slice_profile(&cfg, &opts, &gpu, &link, 2);
        let comm = t1.group_fraction(Group::Comm);
        assert!((0.03..0.25).contains(&comm), "T1 comm fraction {comm}");
        // LAMB's absolute time halves (each device updates half the
        // parameters), and its share of the iteration drops.
        let lamb_time =
            |p: &IterationProfile| p.time_by_group().get(&Group::Lamb).copied().unwrap_or(0.0);
        let abs_ratio = lamb_time(&s1) / lamb_time(&t1);
        assert!((1.7..2.3).contains(&abs_ratio), "LAMB time ratio {abs_ratio}");
        assert!(s1.group_fraction(Group::Lamb) > t1.group_fraction(Group::Lamb));
    }

    #[test]
    fn communication_share_grows_with_ways() {
        // Paper Takeaway 13 / T2: communication reaches ~40% at 8-way with
        // a larger per-device batch.
        let (cfg, opts, gpu, link) = setup();
        let t1 = tensor_slice_profile(&cfg, &opts, &gpu, &link, 2);
        let t2_cfg = BertConfig::bert_large().phase1(64);
        let t2 = tensor_slice_profile(&t2_cfg, &opts, &gpu, &link, 8);
        let c1 = t1.group_fraction(Group::Comm);
        let c2 = t2.group_fraction(Group::Comm);
        assert!(c2 > 1.5 * c1, "8-way comm {c2} vs 2-way {c1}");
        assert!((0.2..0.7).contains(&c2), "T2 comm fraction {c2}");
        // LAMB becomes negligible at 8-way (Takeaway 12).
        assert!(t2.group_fraction(Group::Lamb) < 0.03);
    }

    #[test]
    fn one_way_slicing_is_identity() {
        let (cfg, opts, _, _) = setup();
        let base = build_iteration(&cfg, &opts);
        let sliced = tensor_slice_ops(&cfg, &opts, 1);
        assert_eq!(base.len(), sliced.len());
        let total = |ops: &[OpRecord]| -> u64 { ops.iter().map(|o| o.flops).sum() };
        assert_eq!(total(&base), total(&sliced));
    }
}
