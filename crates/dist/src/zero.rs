//! ZeRO-style sharded data parallelism (paper §5.2's discussion of its ref. 69).
//!
//! The paper notes that data-parallel communication and redundant updates
//! "could potentially be reduced by making each device gather a reduced copy
//! of a subset of gradients and only update the corresponding subset of
//! parameters" — but that "certain optimizers such as LAMB require
//! normalization of all the layers' gradients at the beginning of the
//! algorithm". This module models exactly that trade:
//!
//! * gradients are **reduce-scattered** (each device ends with `1/D` of the
//!   averaged gradients — half the ring-AllReduce volume);
//! * each device runs the optimizer on its `1/D` parameter shard;
//! * updated parameters are **all-gathered** back;
//! * LAMB's global gradient norm still requires a (scalar) `AllReduce` of the
//!   per-shard partial norms, which serializes the update exactly as the
//!   paper warns — the norm dependency survives sharding.

use bertscope_device::{GpuModel, Link};
use bertscope_model::{build_iteration, BertConfig, GraphOptions};
use bertscope_sim::{IterationProfile, TimedOp};
use bertscope_tensor::{Category, DType, OpKind, OpRecord, Phase};

/// Per-device profile of ZeRO-style (optimizer-state-sharded) data-parallel
/// training across `devices` GPUs.
///
/// Compared with plain DP, the update phase shrinks by `1/devices` and the
/// gradient exchange becomes reduce-scatter + parameter all-gather.
#[must_use]
pub fn zero_dp_profile(
    cfg: &BertConfig,
    opts: &GraphOptions,
    gpu: &GpuModel,
    link: &Link,
    devices: usize,
) -> IterationProfile {
    let ops = build_iteration(cfg, opts);
    let d = devices.max(1) as u64;
    let grad_dtype = opts.precision.activation_dtype();
    let param_bytes = bertscope_model::parameter_count(cfg) * grad_dtype.size_bytes();

    let mut timed: Vec<TimedOp> = Vec::with_capacity(ops.len() + 3);
    for op in ops {
        let mut op = op;
        let mut time = None;
        if op.phase == Phase::Update {
            match op.category {
                // Each device updates only its 1/D parameter shard.
                Category::LambStage1 | Category::LambStage2 => {
                    op.flops /= d;
                    op.bytes_read /= d;
                    op.bytes_written /= d;
                }
                // The global norm reduces the local shard, then combines the
                // per-device partial norms with a tiny scalar AllReduce —
                // the dependency the paper highlights survives.
                Category::GradNorm => {
                    op.flops /= d;
                    op.bytes_read /= d;
                    let local = gpu.op_time_us(&op);
                    let scalar_allreduce = link.ring_allreduce_us(8, devices);
                    time = Some(local + scalar_allreduce);
                    op.name = format!("{}+scalar_allreduce", op.name);
                }
                _ => {}
            }
        }
        let time_us = time.unwrap_or_else(|| gpu.op_time_us(&op));
        timed.push(TimedOp { op, time_us });
    }
    if devices > 1 {
        // Reduce-scatter of gradients (half the 2(D-1)/D AllReduce volume)
        // before the update, all-gather of updated parameters after it.
        let pos = timed.iter().position(|t| t.op.phase == Phase::Update).unwrap_or(timed.len());
        let rs_time = link.all_gather_us(param_bytes, devices); // same volume as reduce-scatter
        timed.insert(
            pos,
            TimedOp {
                op: comm_record("zero.reduce_scatter.gradients", param_bytes),
                time_us: rs_time,
            },
        );
        let ag_time = link.all_gather_us(param_bytes, devices);
        timed.push(TimedOp {
            op: comm_record("zero.all_gather.parameters", param_bytes),
            time_us: ag_time,
        });
    }
    IterationProfile::from_timed(timed)
}

fn comm_record(name: &str, bytes: u64) -> OpRecord {
    OpRecord {
        access: bertscope_tensor::AccessSet::default(),
        name: name.to_owned(),
        kind: OpKind::Comm,
        category: Category::Comm,
        phase: Phase::Communication,
        layer: None,
        gemm: None,
        flops: 0,
        bytes_read: bytes,
        bytes_written: bytes,
        dtype: DType::F32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::data_parallel_profile;
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
    fn zero_shards_the_update_phase() {
        let (cfg, opts, gpu, link) = setup();
        let plain = data_parallel_profile(&cfg, &opts, &gpu, &link, 8, false);
        let zero = zero_dp_profile(&cfg, &opts, &gpu, &link, 8);
        let lamb = |p: &IterationProfile| p.time_by_group()[&Group::Lamb];
        // LAMB work per device shrinks substantially (norm AllReduce adds a
        // little latency back).
        assert!(lamb(&plain) / lamb(&zero) > 4.0, "{} vs {}", lamb(&plain), lamb(&zero));
    }

    #[test]
    fn zero_halves_gradient_exchange_volume_vs_allreduce() {
        let (cfg, opts, gpu, link) = setup();
        let plain = data_parallel_profile(&cfg, &opts, &gpu, &link, 64, false);
        let zero = zero_dp_profile(&cfg, &opts, &gpu, &link, 64);
        let comm = |p: &IterationProfile| p.time_by_group()[&Group::Comm];
        // Reduce-scatter + all-gather equals AllReduce volume, but the
        // parameter all-gather replaces nothing extra here: total comm is
        // comparable, not worse.
        let ratio = comm(&zero) / comm(&plain);
        assert!((0.8..1.2).contains(&ratio), "comm ratio {ratio}");
    }

    #[test]
    fn grad_norm_dependency_survives_sharding() {
        // The paper's caveat: LAMB still needs the global norm. The sharded
        // profile must retain a GradNorm op that includes communication.
        let (cfg, opts, gpu, link) = setup();
        let zero = zero_dp_profile(&cfg, &opts, &gpu, &link, 8);
        let norm_ops: Vec<_> =
            zero.ops().iter().filter(|t| t.op.category == Category::GradNorm).collect();
        assert_eq!(norm_ops.len(), 1);
        assert!(norm_ops[0].op.name.contains("scalar_allreduce"));
        // Its time exceeds the pure local-shard reduction time.
        let local_only = gpu.op_time_us(&norm_ops[0].op);
        assert!(norm_ops[0].time_us > local_only * 0.99);
    }

    #[test]
    fn single_device_zero_is_plain_training() {
        let (cfg, opts, gpu, link) = setup();
        let zero = zero_dp_profile(&cfg, &opts, &gpu, &link, 1);
        assert_eq!(zero.group_fraction(Group::Comm).to_bits(), 0f64.to_bits());
        let plain = bertscope_sim::simulate_iteration(&cfg, &opts, &gpu);
        // Same kernel count (no comm inserted), near-identical time (the
        // scalar allreduce is zero for one device).
        assert_eq!(zero.kernel_count(), plain.kernel_count());
        assert!((zero.total_us() - plain.total_us()).abs() / plain.total_us() < 1e-6);
    }

    #[test]
    fn update_shrinks_inversely_with_devices() {
        let (cfg, opts, gpu, link) = setup();
        let lamb =
            |d: usize| zero_dp_profile(&cfg, &opts, &gpu, &link, d).time_by_group()[&Group::Lamb];
        let l2 = lamb(2);
        let l8 = lamb(8);
        // Not exactly 4x because of launch overhead and the norm AllReduce,
        // but strongly decreasing.
        assert!(l2 / l8 > 2.5, "{l2} vs {l8}");
    }
}
