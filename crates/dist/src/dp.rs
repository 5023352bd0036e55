//! Data-parallel training model (paper §5.1-5.2, configurations D1/D2).
//!
//! Per-device computation equals single-device training; gradients are
//! averaged with a Ring `AllReduce` every iteration. With overlap, layer `L`'s
//! gradient communication proceeds while the device computes layer `L-1`'s
//! gradients — modelled, as in the paper, by running compute and the
//! communication engine as two pipelined resources and exposing only the
//! communication that cannot hide.

use bertscope_device::{GpuModel, Link};
use bertscope_model::{build_iteration, update_groups, BertConfig, GraphOptions};
use bertscope_sim::{IterationProfile, TimedOp};
use bertscope_tensor::{Category, DType, OpKind, OpRecord, Phase};

/// Build the exposed-communication op for a data-parallel iteration.
fn comm_op(label: &str, bytes: u64, time_us: f64) -> TimedOp {
    TimedOp {
        op: OpRecord {
            access: bertscope_tensor::AccessSet::default(),
            name: label.to_owned(),
            kind: OpKind::Comm,
            category: Category::Comm,
            phase: Phase::Communication,
            layer: None,
            gemm: None,
            flops: 0,
            bytes_read: bytes,
            bytes_written: bytes,
            dtype: DType::F32,
        },
        time_us,
    }
}

/// Per-device profile of data-parallel training across `devices` GPUs.
///
/// `overlap` selects between the paper's D1 (gradients communicated after
/// the full backprop) and D2 (communication overlapped with backprop).
#[must_use]
pub fn data_parallel_profile(
    cfg: &BertConfig,
    opts: &GraphOptions,
    gpu: &GpuModel,
    link: &Link,
    devices: usize,
    overlap: bool,
) -> IterationProfile {
    let ops = build_iteration(cfg, opts);
    let grad_dtype = opts.precision.activation_dtype();
    let groups = update_groups(cfg);
    let group_bytes: Vec<(Option<usize>, u64)> =
        groups.iter().map(|g| (g.layer, g.numel * grad_dtype.size_bytes())).collect();
    let total_grad_bytes: u64 = group_bytes.iter().map(|(_, b)| b).sum();

    let mut timed: Vec<TimedOp> =
        ops.iter().map(|op| TimedOp { op: op.clone(), time_us: gpu.op_time_us(op) }).collect();

    if !overlap {
        // D1: one big AllReduce fully exposed after backprop.
        let t = link.ring_allreduce_us(total_grad_bytes, devices);
        // Insert before the optimizer update.
        let pos = timed.iter().position(|t| t.op.phase == Phase::Update).unwrap_or(timed.len());
        timed.insert(pos, comm_op("allreduce.gradients", total_grad_bytes, t));
        return IterationProfile::from_timed(timed);
    }

    // D2: per-group AllReduces issued as each layer's backprop finishes,
    // overlapping with the next layer's compute. Two-resource pipeline:
    // compute runs serially; the comm engine starts each transfer when both
    // the gradients exist and the link is free.
    let bwd_layer_time = |layer: usize| -> f64 {
        timed
            .iter()
            .filter(|t| t.op.phase == Phase::Backward && t.op.layer == Some(layer))
            .map(|t| t.time_us)
            .sum()
    };
    let bwd_cat_time = |cat: Category| -> f64 {
        timed
            .iter()
            .filter(|t| t.op.phase == Phase::Backward && t.op.category == cat)
            .map(|t| t.time_us)
            .sum()
    };
    let es = grad_dtype.size_bytes();
    let bytes_of =
        |name: &str| -> u64 { groups.iter().find(|g| g.name == name).map_or(0, |g| g.numel * es) };
    // Backprop order: output-head grads first, then layers N-1..0, then
    // the embeddings.
    let mut t_compute = 0.0f64;
    let mut t_comm = 0.0f64;
    t_compute += bwd_cat_time(Category::Output);
    t_comm = t_comm.max(t_compute) + link.ring_allreduce_us(bytes_of("output"), devices);
    for l in (0..cfg.layers).rev() {
        t_compute += bwd_layer_time(l);
        t_comm =
            t_comm.max(t_compute) + link.ring_allreduce_us(bytes_of(&format!("l{l}")), devices);
    }
    t_compute += bwd_cat_time(Category::Embedding);
    t_comm = t_comm.max(t_compute) + link.ring_allreduce_us(bytes_of("embeddings"), devices);
    let exposed = (t_comm - t_compute).max(0.0);
    let pos = timed.iter().position(|t| t.op.phase == Phase::Update).unwrap_or(timed.len());
    timed.insert(pos, comm_op("allreduce.gradients.exposed", total_grad_bytes, exposed));
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
    fn without_overlap_communication_is_significant() {
        // Paper D1: ~19% of runtime spent communicating gradients.
        let (cfg, opts, gpu, link) = setup();
        let p = data_parallel_profile(&cfg, &opts, &gpu, &link, 128, false);
        let comm = p.group_fraction(Group::Comm);
        assert!((0.08..0.35).contains(&comm), "D1 comm fraction {comm}");
    }

    #[test]
    fn with_overlap_communication_mostly_hides() {
        // Paper D2 / Obs. 5: the overlapped profile looks like single-GPU.
        let (cfg, opts, gpu, link) = setup();
        let d2 = data_parallel_profile(&cfg, &opts, &gpu, &link, 128, true);
        let comm = d2.group_fraction(Group::Comm);
        assert!(comm < 0.08, "D2 exposed comm fraction {comm}");
        let d1 = data_parallel_profile(&cfg, &opts, &gpu, &link, 128, false);
        assert!(d1.total_us() > d2.total_us(), "overlap helps");
        // Compute portions are identical.
        let compute = |p: &IterationProfile| {
            p.total_us() - p.time_by_group().get(&Group::Comm).copied().unwrap_or(0.0)
        };
        assert!((compute(&d1) - compute(&d2)).abs() < 1e-6);
    }

    #[test]
    fn single_device_degenerates_to_local_training() {
        let (cfg, opts, gpu, link) = setup();
        let p = data_parallel_profile(&cfg, &opts, &gpu, &link, 1, true);
        assert_eq!(p.group_fraction(Group::Comm).to_bits(), 0f64.to_bits());
    }

    #[test]
    fn faster_link_reduces_exposed_communication() {
        let (cfg, opts, gpu, _) = setup();
        let slow = data_parallel_profile(
            &cfg,
            &opts,
            &gpu,
            &Link { bw_gbps: 8.0, latency_us: 5.0 },
            128,
            true,
        );
        let fast = data_parallel_profile(&cfg, &opts, &gpu, &Link::xgmi(), 128, true);
        let comm =
            |p: &IterationProfile| p.time_by_group().get(&Group::Comm).copied().unwrap_or(0.0);
        assert!(comm(&slow) > comm(&fast));
    }
}
