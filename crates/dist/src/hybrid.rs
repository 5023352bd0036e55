//! Hybrid model/data parallelism (paper §2.5): `M`-way tensor slicing
//! inside each cluster, replicated across `D` data-parallel clusters, for
//! `M * D` devices total.
//!
//! Tensor slicing communicates activations over the fast intra-node fabric;
//! data parallelism exchanges the (already `1/M`-sharded) gradients over the
//! inter-node link, overlapped with backprop.

use crate::ts::tensor_slice_ops;
use bertscope_device::{GpuModel, Link};
use bertscope_model::{BertConfig, GraphOptions};
use bertscope_sim::{IterationProfile, TimedOp};
use bertscope_tensor::{Category, DType, OpKind, OpRecord, Phase};

/// A hybrid cluster layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridPlan {
    /// Tensor-slicing ways within a cluster (intra-node).
    pub ts_ways: usize,
    /// Data-parallel replica count across clusters (inter-node).
    pub dp_replicas: usize,
    /// Intra-node fabric used by the tensor-slicing `AllReduce`s.
    pub intra_link: Link,
    /// Inter-node link used by the gradient `AllReduce`.
    pub inter_link: Link,
}

impl HybridPlan {
    /// Total device count `M * D`.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.ts_ways * self.dp_replicas
    }
}

/// Per-device profile of hybrid training under `plan`.
///
/// Tensor-slicing `AllReduce`s are serialized (data dependencies); the
/// data-parallel gradient exchange of the `1/M` local parameter shard is
/// modelled with full overlap against backprop (the paper's D2-style
/// optimization), exposing only the residual.
#[must_use]
pub fn hybrid_profile(
    cfg: &BertConfig,
    opts: &GraphOptions,
    gpu: &GpuModel,
    plan: &HybridPlan,
) -> IterationProfile {
    let ops = tensor_slice_ops(cfg, opts, plan.ts_ways);
    let mut timed: Vec<TimedOp> = ops
        .into_iter()
        .map(|op| {
            let time_us = if op.kind == OpKind::Comm {
                plan.intra_link.ring_allreduce_us(op.bytes_read, plan.ts_ways)
            } else {
                gpu.op_time_us(&op)
            };
            TimedOp { op, time_us }
        })
        .collect();

    if plan.dp_replicas > 1 {
        // Gradient volume per device: 1/M of the model (the TS shard),
        // exchanged across the D replicas; overlapped with backprop.
        let dt = opts.precision.activation_dtype();
        let shard_bytes =
            bertscope_model::parameter_count(cfg) * dt.size_bytes() / plan.ts_ways as u64;
        let full = plan.inter_link.ring_allreduce_us(shard_bytes, plan.dp_replicas);
        let bwd_compute: f64 =
            timed.iter().filter(|t| t.op.phase == Phase::Backward).map(|t| t.time_us).sum();
        // Exposed communication: whatever backprop cannot hide.
        let exposed = (full - bwd_compute).max(0.0);
        let pos = timed.iter().position(|t| t.op.phase == Phase::Update).unwrap_or(timed.len());
        timed.insert(
            pos,
            TimedOp {
                op: OpRecord {
                    access: bertscope_tensor::AccessSet::default(),
                    name: "hybrid.dp.allreduce.exposed".into(),
                    kind: OpKind::Comm,
                    category: Category::Comm,
                    phase: Phase::Communication,
                    layer: None,
                    gemm: None,
                    flops: 0,
                    bytes_read: shard_bytes,
                    bytes_written: shard_bytes,
                    dtype: DType::F32,
                },
                time_us: exposed,
            },
        );
    }
    IterationProfile::from_timed(timed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_tensor::Group;

    fn plan(ts: usize, dp: usize) -> HybridPlan {
        HybridPlan {
            ts_ways: ts,
            dp_replicas: dp,
            intra_link: Link::xgmi(),
            inter_link: Link::pcie4(),
        }
    }

    #[test]
    fn device_count_is_product() {
        assert_eq!(plan(8, 16).devices(), 128);
    }

    #[test]
    fn hybrid_beats_pure_tensor_slicing_at_same_device_count() {
        // 8-way TS alone on slow links vs 2-way TS x 4-way DP: the hybrid
        // keeps communication on the fast fabric and hides the DP exchange.
        let cfg = BertConfig::bert_large().phase1(32);
        let opts = GraphOptions::default();
        let gpu = GpuModel::mi100();
        let pure_ts = crate::ts::tensor_slice_profile(&cfg, &opts, &gpu, &Link::pcie4(), 8);
        let hybrid = hybrid_profile(&cfg, &opts, &gpu, &plan(2, 4));
        // Hybrid processes 4x the global batch of pure TS at the same device
        // count; compare per-sample time.
        let pure_per_sample = pure_ts.total_us() / cfg.batch as f64;
        let hybrid_per_sample = hybrid.total_us() / (cfg.batch * 4) as f64;
        assert!(
            hybrid_per_sample < pure_per_sample,
            "hybrid {hybrid_per_sample} vs pure-TS {pure_per_sample} us/sample"
        );
    }

    #[test]
    fn dp_dimension_overlaps_most_communication() {
        let cfg = BertConfig::bert_large().phase1(16);
        let opts = GraphOptions::default();
        let gpu = GpuModel::mi100();
        let h = hybrid_profile(&cfg, &opts, &gpu, &plan(2, 16));
        // The exposed DP allreduce is small relative to the serialized TS
        // communication.
        let dp_exposed: f64 =
            h.ops().iter().filter(|t| t.op.name.starts_with("hybrid.dp")).map(|t| t.time_us).sum();
        let ts_comm: f64 = h
            .ops()
            .iter()
            .filter(|t| t.op.category == Category::Comm && !t.op.name.starts_with("hybrid.dp"))
            .map(|t| t.time_us)
            .sum();
        assert!(dp_exposed < 0.5 * ts_comm, "dp exposed {dp_exposed} vs ts {ts_comm}");
    }

    #[test]
    fn degenerate_plans_match_their_pure_counterparts() {
        let cfg = BertConfig::bert_large().phase1(16);
        let opts = GraphOptions::default();
        let gpu = GpuModel::mi100();
        // ts=1, dp=1: single device.
        let single = hybrid_profile(&cfg, &opts, &gpu, &plan(1, 1));
        assert_eq!(single.group_fraction(Group::Comm).to_bits(), 0f64.to_bits());
        // ts=m, dp=1: pure tensor slicing on the intra link.
        let h = hybrid_profile(&cfg, &opts, &gpu, &plan(4, 1));
        let pure = crate::ts::tensor_slice_profile(&cfg, &opts, &gpu, &Link::xgmi(), 4);
        assert!((h.total_us() - pure.total_us()).abs() / pure.total_us() < 1e-9);
    }
}
