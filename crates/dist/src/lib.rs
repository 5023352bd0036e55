//! Multi-device training models for the bertscope suite (paper §5).
//!
//! * [`dp`] — data parallelism with and without compute/communication
//!   overlap (paper configurations D1/D2);
//! * [`ts`] — Megatron-style tensor slicing: the per-device graph transform
//!   plus four serialized `AllReduce`s per layer (configurations T1/T2);
//! * [`zero`] — ZeRO-style optimizer-state sharding (the `ZeRO` (paper ref. 69) approach the
//!   paper discusses, including LAMB's surviving grad-norm dependency);
//! * [`hybrid`] — M-way slicing x D-way replication clusters (paper §2.5);
//! * [`figure11_profiles`] — the complete Fig. 11 configuration set;
//! * [`linkmodel`] — α/β interconnect parameters fitted from *measured*
//!   `AllReduce` timings, bridging the socket runtime back to the analytic
//!   [`Link`](bertscope_device::Link) model;
//! * [`proc`] — a real multi-process elastic data-parallel runtime:
//!   the socket ring `AllReduce` that grounds the analytic communication
//!   model (also runnable in-process over loopback, with injected ring
//!   faults), supervised membership, fault injection and
//!   checkpoint/elastic recovery.

pub mod dp;
pub mod hybrid;
pub mod linkmodel;
pub mod proc;
pub mod ts;
pub mod zero;

pub use dp::data_parallel_profile;
pub use hybrid::{hybrid_profile, HybridPlan};
pub use linkmodel::{LinkModel, LinkSample};
pub use proc::ring::{
    ring_allreduce, ring_allreduce_faulty, ring_allreduce_mean, run_local_ring, RingConfig,
};
pub use proc::{
    run_process_cluster, run_thread_cluster, ClusterConfig, ClusterReport, DegradationEvent,
    DistError, RecoveryMode, SocketRing, WorkerConfig, WorkerReport,
};
pub use ts::{tensor_slice_ops, tensor_slice_profile};
pub use zero::zero_dp_profile;

use bertscope_device::{GpuModel, Link};
use bertscope_model::{BertConfig, GraphOptions};
use bertscope_sim::IterationProfile;

/// A labelled per-device profile of one Fig. 11 configuration.
#[derive(Debug, Clone)]
pub struct DistPoint {
    /// Configuration label as in the paper (S1, D1, D2, T1, T2).
    pub label: String,
    /// Description of the configuration.
    pub description: String,
    /// The per-device profile.
    pub profile: IterationProfile,
}

/// Build the five per-device profiles of the paper's Fig. 11:
/// S1 (single GPU, B=16), D1 (128-way DP without overlap), D2 (128-way DP
/// with overlap), T1 (2-way tensor slicing, B=16), T2 (8-way tensor
/// slicing, B=64).
#[must_use]
pub fn figure11_profiles(gpu: &GpuModel, link: &Link) -> Vec<DistPoint> {
    let opts = GraphOptions::default();
    let b16 = BertConfig::bert_large().phase1(16);
    let b64 = BertConfig::bert_large().phase1(64);
    vec![
        DistPoint {
            label: "S1".into(),
            description: "single GPU, B=16".into(),
            profile: bertscope_sim::simulate_iteration(&b16, &opts, gpu),
        },
        DistPoint {
            label: "D1".into(),
            description: "data parallel, 128 GPUs, B=16, no overlap".into(),
            profile: dp::data_parallel_profile(&b16, &opts, gpu, link, 128, false),
        },
        DistPoint {
            label: "D2".into(),
            description: "data parallel, 128 GPUs, B=16, overlapped".into(),
            profile: dp::data_parallel_profile(&b16, &opts, gpu, link, 128, true),
        },
        DistPoint {
            label: "T1".into(),
            description: "tensor slicing, 2-way, B=16".into(),
            profile: ts::tensor_slice_profile(&b16, &opts, gpu, link, 2),
        },
        DistPoint {
            label: "T2".into(),
            description: "tensor slicing, 8-way, B=64".into(),
            profile: ts::tensor_slice_profile(&b64, &opts, gpu, link, 8),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_tensor::Group;

    #[test]
    fn figure11_reproduces_paper_orderings() {
        let gpu = GpuModel::mi100();
        let link = Link::pcie4();
        let pts = figure11_profiles(&gpu, &link);
        let get = |l: &str| &pts.iter().find(|p| p.label == l).unwrap().profile;
        let comm = |l: &str| get(l).group_fraction(Group::Comm);
        let lamb = |l: &str| get(l).group_fraction(Group::Lamb);

        // S1 has no communication; D2's profile is close to S1 (Obs. 5).
        assert_eq!(comm("S1").to_bits(), 0f64.to_bits());
        assert!(comm("D2") < 0.08, "D2 comm {}", comm("D2"));
        // D1 exposes significant communication (paper: ~19%).
        assert!(comm("D1") > 2.0 * comm("D2").max(0.02), "D1 comm {}", comm("D1"));
        // T1 spends noticeable time communicating (paper: ~9%).
        assert!((0.02..0.25).contains(&comm("T1")), "T1 comm {}", comm("T1"));
        // T2's communication dominates T1's (paper: ~42%), Takeaway 13.
        assert!(comm("T2") > comm("T1"), "T2 {} vs T1 {}", comm("T2"), comm("T1"));
        assert!(comm("T2") > 0.2);
        // LAMB's share shrinks with slicing ways (Takeaway 12).
        assert!(lamb("S1") > lamb("T1"));
        assert!(lamb("T1") > lamb("T2"));
        assert!(lamb("T2") < 0.03);
    }

    #[test]
    fn labels_are_unique_and_complete() {
        let pts = figure11_profiles(&GpuModel::mi100(), &Link::pcie4());
        let labels: Vec<_> = pts.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["S1", "D1", "D2", "T1", "T2"]);
    }
}
