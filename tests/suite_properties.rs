//! Property-based tests of cross-crate invariants: the relationships the
//! paper's scaling analysis (§3.3) relies on must hold for *arbitrary*
//! configurations, not just BERT-Large.

use bertscope_device::GpuModel;
use bertscope_dist::tensor_slice_ops;
use bertscope_model::{
    build_iteration, parameter_count, parameter_tensors, BertConfig, GraphOptions, Precision,
};
use bertscope_sim::simulate_iteration;
use bertscope_tensor::{Group, OpRecord, Phase};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = BertConfig> {
    // Keep dims small: these tests build graphs, not tensors, so the only
    // cost is op-list length — but heads must divide d_model.
    (1usize..6, 1usize..8, prop_oneof![Just(2usize), Just(4), Just(8)], 1usize..4, 2usize..17)
        .prop_map(|(layers, dm_mult, heads, ff_mult, seq)| {
            let d_model = heads * 16 * dm_mult;
            BertConfig {
                layers,
                d_model,
                heads,
                d_ff: d_model * ff_mult,
                vocab: 500,
                max_position: 512,
                seq_len: seq * 8,
                batch: 3,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Backward GEMM MACs are exactly twice forward GEMM MACs within the
    /// Transformer layers (each forward GEMM spawns two gradient GEMMs of
    /// equal MAC count — Table 2b's structure). Compared on the contraction
    /// work alone: forward GEMMs additionally carry fused epilogue FLOPs
    /// (bias adds) that have no backward counterpart.
    #[test]
    fn backward_gemms_are_exactly_2x_forward(cfg in arb_config()) {
        let ops = build_iteration(&cfg, &GraphOptions::default());
        let gemm_macs = |ph: Phase| -> u64 {
            ops.iter()
                .filter(|o| o.phase == ph && o.is_gemm() && o.layer.is_some())
                .filter_map(|o| o.gemm)
                .map(|s| s.mac_flops())
                .sum()
        };
        prop_assert_eq!(gemm_macs(Phase::Backward), 2 * gemm_macs(Phase::Forward));
    }

    /// Update-phase traffic depends only on the model, never on B or n.
    #[test]
    fn optimizer_traffic_is_input_invariant(cfg in arb_config(), b2 in 1usize..9, n2 in 1usize..5) {
        let mut other = cfg;
        other.batch = b2;
        other.seq_len = n2 * 16;
        let upd = |c: &BertConfig| -> u64 {
            build_iteration(c, &GraphOptions::default())
                .iter()
                .filter(|o| o.phase == Phase::Update)
                .map(OpRecord::bytes_total)
                .sum()
        };
        prop_assert_eq!(upd(&cfg), upd(&other));
    }

    /// Transformer FLOPs scale exactly linearly with batch size.
    #[test]
    fn flops_scale_linearly_with_batch(cfg in arb_config(), k in 2usize..5) {
        let mut scaled = cfg;
        scaled.batch = cfg.batch * k;
        let layer_flops = |c: &BertConfig| -> u64 {
            build_iteration(c, &GraphOptions::default())
                .iter()
                .filter(|o| o.layer.is_some() && o.phase != Phase::Update)
                .map(|o| o.flops)
                .sum()
        };
        prop_assert_eq!(layer_flops(&scaled), (k as u64) * layer_flops(&cfg));
    }

    /// Parameter count equals the sum over the tensor inventory, and the
    /// per-layer share is identical for every layer.
    #[test]
    fn parameter_inventory_is_consistent(cfg in arb_config()) {
        let tensors = parameter_tensors(&cfg);
        let total: u64 = tensors.iter().map(|t| t.numel()).sum();
        prop_assert_eq!(total, parameter_count(&cfg));
        let layer_sum = |l: usize| -> u64 {
            tensors.iter().filter(|t| t.layer == Some(l)).map(|t| t.numel()).sum()
        };
        for l in 1..cfg.layers {
            prop_assert_eq!(layer_sum(l), layer_sum(0));
        }
    }

    /// Simulated iteration time is positive and monotone in layer count.
    #[test]
    fn sim_time_monotone_in_depth(cfg in arb_config()) {
        let gpu = GpuModel::mi100();
        let mut deeper = cfg;
        deeper.layers = cfg.layers + 2;
        let t1 = simulate_iteration(&cfg, &GraphOptions::default(), &gpu).total_us();
        let t2 = simulate_iteration(&deeper, &GraphOptions::default(), &gpu).total_us();
        prop_assert!(t1 > 0.0);
        prop_assert!(t2 > t1);
    }

    /// Mixed precision never slows an iteration down and never changes the
    /// kernel count.
    #[test]
    fn mixed_precision_is_a_pure_speedup(cfg in arb_config()) {
        let gpu = GpuModel::mi100();
        let f32p = simulate_iteration(&cfg, &GraphOptions::default(), &gpu);
        let mpp = simulate_iteration(
            &cfg,
            &GraphOptions { precision: Precision::Mixed, ..GraphOptions::default() },
            &gpu,
        );
        prop_assert_eq!(f32p.kernel_count(), mpp.kernel_count());
        prop_assert!(mpp.total_us() <= f32p.total_us());
    }

    /// Checkpointing adds kernels, never removes them, and leaves the
    /// update phase untouched.
    #[test]
    fn checkpointing_only_adds_recompute(cfg in arb_config()) {
        let base = build_iteration(&cfg, &GraphOptions::default());
        let ck = build_iteration(&cfg, &GraphOptions { checkpoint: true, ..GraphOptions::default() });
        prop_assert!(ck.len() >= base.len());
        let upd = |ops: &[OpRecord]| ops.iter().filter(|o| o.phase == Phase::Update).count();
        prop_assert_eq!(upd(&base), upd(&ck));
        // Added ops are exactly the recompute ops.
        let recompute = ck.iter().filter(|o| o.phase == Phase::Recompute).count();
        prop_assert_eq!(ck.len() - base.len(), recompute);
    }

    /// Tensor slicing conserves sliced-GEMM work: per-device FLOPs times the
    /// slice count equals the single-device FLOPs (for layer GEMMs).
    #[test]
    fn tensor_slicing_conserves_work(cfg in arb_config(), ways in prop_oneof![Just(2usize)]) {
        // Only slice configurations whose dims divide evenly.
        prop_assume!(
            cfg.heads.is_multiple_of(ways)
                && cfg.d_ff.is_multiple_of(ways)
                && cfg.d_model.is_multiple_of(ways)
        );
        let base = build_iteration(&cfg, &GraphOptions::default());
        let sliced = tensor_slice_ops(&cfg, &GraphOptions::default(), ways);
        // MAC work only: fused bias epilogues are *not* conserved — the
        // row-parallel GEMMs drop theirs (partial sums defer the bias past
        // the AllReduce).
        let layer_gemm = |ops: &[OpRecord]| -> u64 {
            ops.iter()
                .filter(|o| o.is_gemm() && o.layer.is_some())
                .filter_map(|o| o.gemm)
                .map(|s| s.mac_flops())
                .sum()
        };
        prop_assert_eq!(layer_gemm(&base), (ways as u64) * layer_gemm(&sliced));
    }

    /// The group fractions of any simulated profile sum to one.
    #[test]
    fn group_fractions_partition_unity(cfg in arb_config()) {
        let gpu = GpuModel::mi100();
        let p = simulate_iteration(&cfg, &GraphOptions::default(), &gpu);
        let sum: f64 = [Group::Transformer, Group::Embedding, Group::Output, Group::Lamb, Group::Comm]
            .iter()
            .map(|&g| p.group_fraction(g))
            .sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
    }
}

fn arb_gemm_spec() -> impl Strategy<Value = bertscope_tensor::GemmSpec> {
    use bertscope_tensor::{GemmSpec, Transpose};
    (1usize..4096, 1usize..4096, 1usize..4096, 1usize..64)
        .prop_map(|(m, n, k, b)| GemmSpec::batched(Transpose::No, Transpose::No, m, n, k, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GEMM efficiency is always within (0, max_gemm_efficiency].
    #[test]
    fn gemm_efficiency_is_bounded(spec in arb_gemm_spec()) {
        let gpu = GpuModel::mi100();
        let e = gpu.gemm_efficiency(&spec);
        prop_assert!(e > 0.0, "{spec}: {e}");
        prop_assert!(e <= gpu.max_gemm_efficiency + 1e-12, "{spec}: {e}");
    }

    /// Modelled op time is monotone in bytes for memory-bound ops and never
    /// below the launch overhead.
    #[test]
    fn op_time_monotone_in_bytes(bytes in 1u64..(1 << 30), extra in 1u64..(1 << 24)) {
        use bertscope_tensor::{Category, DType, OpKind, OpRecord};
        let gpu = GpuModel::mi100();
        let mk = |b: u64| OpRecord {
            access: Default::default(),
            name: "ew".into(),
            kind: OpKind::ElementWise,
            category: Category::Gelu,
            phase: Phase::Forward,
            layer: None,
            gemm: None,
            flops: 0,
            bytes_read: b,
            bytes_written: 0,
            dtype: DType::F32,
        };
        let t1 = gpu.op_time_us(&mk(bytes));
        let t2 = gpu.op_time_us(&mk(bytes + extra));
        prop_assert!(t2 >= t1);
        prop_assert!(t1 >= gpu.launch_overhead_us);
    }

    /// The loopback socket Ring AllReduce equals the elementwise sum for arbitrary
    /// device counts and (possibly indivisible) lengths.
    #[test]
    fn ring_allreduce_is_a_sum(devices in 2usize..6, len in 1usize..200, seedling in 0u64..1000) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seedling);
        let bufs: Vec<Vec<f32>> = (0..devices)
            .map(|_| (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let expected: Vec<f32> =
            (0..len).map(|i| bufs.iter().map(|b| b[i]).sum::<f32>()).collect();
        let mut work = bufs.clone();
        let stats = bertscope_dist::ring_allreduce(&mut work);
        prop_assert_eq!(stats.world, devices);
        for b in &work {
            for (got, want) in b.iter().zip(&expected) {
                prop_assert!((got - want).abs() < 1e-3, "{got} vs {want}");
            }
        }
    }

    /// Padding masks block exactly the padded keys, for arbitrary shapes.
    #[test]
    fn padding_mask_blocks_exactly_pads(
        seq in 2usize..24,
        heads in 1usize..5,
        lens in proptest::collection::vec(1usize..24, 1..4),
    ) {
        use bertscope_kernels::masks::padding_mask;
        use bertscope_tensor::DType;
        let lens: Vec<usize> = lens.into_iter().map(|l| l.min(seq)).collect();
        let m = padding_mask(&lens, seq, heads, DType::F32).unwrap();
        prop_assert_eq!(m.dims(), &[lens.len() * heads, seq, seq]);
        for (b, &len) in lens.iter().enumerate() {
            for h in 0..heads {
                for q in 0..seq {
                    for k in 0..seq {
                        let v = m.at(&[b * heads + h, q, k]).unwrap();
                        if k < len {
                            prop_assert_eq!(v, 0.0);
                        } else {
                            prop_assert!(v < -1.0e4);
                        }
                    }
                }
            }
        }
    }

    /// Fine-tuning never costs more than pre-training at the same
    /// configuration (the task head is strictly smaller).
    #[test]
    fn finetuning_is_never_slower_than_pretraining(cfg in arb_config()) {
        let gpu = GpuModel::mi100();
        let pt = simulate_iteration(&cfg, &GraphOptions::default(), &gpu).total_us();
        let ft = bertscope_sim::simulate_finetune(&cfg, &GraphOptions::default(), &gpu).total_us();
        prop_assert!(ft <= pt, "finetune {ft} vs pretrain {pt}");
    }
}
