//! End-to-end training integration tests: the executable substrate learns,
//! mixed precision and checkpointing behave, and data-parallel replicas
//! trained through the real Ring AllReduce stay synchronized.

use bertscope_dist::ring_allreduce_mean;
use bertscope_model::{BertConfig, Precision};
use bertscope_tensor::{FaultKind, FaultPlan, Tensor, Tracer};
use bertscope_train::{
    Bert, Lamb, LossScaler, ParamSlot, Sgd, SyntheticCorpus, TrainOptions, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_cfg() -> BertConfig {
    BertConfig {
        layers: 2,
        d_model: 32,
        heads: 4,
        d_ff: 64,
        vocab: 101,
        max_position: 24,
        seq_len: 16,
        batch: 4,
    }
}

#[test]
fn mlm_and_nsp_losses_both_improve() {
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(5);
    let batches: Vec<_> = (0..3).map(|_| corpus.generate_batch(&mut rng, &cfg)).collect();
    let mut bert = Bert::new(cfg, TrainOptions::default(), 1);
    let mut opt = Lamb::new(0.03);
    let mut tr = Tracer::disabled();
    let steps = 60;
    let mut first = (0.0f32, 0.0f32);
    let mut last = (0.0f32, 0.0f32);
    for step in 0..steps {
        let out = bert.train_step(&mut tr, &batches[step % batches.len()]).unwrap();
        if step < 3 {
            first.0 += out.mlm_loss / 3.0;
            first.1 += out.nsp_loss / 3.0;
        }
        if step >= steps - 3 {
            last.0 += out.mlm_loss / 3.0;
            last.1 += out.nsp_loss / 3.0;
        }
        let mut slots = bert.param_slots();
        opt.step(&mut tr, &mut slots);
    }
    assert!(last.0 < first.0 - 0.5, "MLM loss: {} -> {}", first.0, last.0);
    assert!(last.1 < first.1 - 0.01, "NSP loss: {} -> {}", first.1, last.1);
}

#[test]
fn mixed_precision_training_also_learns() {
    // Mixed precision now runs under the fault-tolerant trainer: a dynamic
    // loss scaler supplies the scale, and an Inf injected into a gradient
    // mid-run must be survivable — the step is skipped, the scale halves,
    // and training keeps converging.
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(6);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let opts = TrainOptions { precision: Precision::Mixed, ..TrainOptions::default() };
    let mut bert = Bert::new(cfg, opts, 2);
    let faults = FaultPlan::new().with(5, FaultKind::InfGradient { param: "l1.fc2.weight".into() });
    let mut trainer = Trainer::new(Lamb::new(0.03), 1)
        .with_scaler(LossScaler::dynamic(1024.0))
        .with_faults(faults);
    let mut tr = Tracer::disabled();
    let mut first = 0.0;
    let mut last = 0.0;
    for step in 0..17 {
        let (out, result) =
            trainer.micro_step(&mut tr, &mut bert, &batch).expect("overflow must be recoverable");
        assert!(out.loss.is_finite(), "step {step} diverged");
        if step == 0 {
            first = out.loss;
        }
        if result.updated() {
            last = out.loss;
        }
    }
    assert_eq!(trainer.skipped_updates(), 1, "the injected Inf skips exactly one update");
    assert_eq!(trainer.scaler().scale(), 512.0, "overflow halves the dynamic scale");
    assert_eq!(trainer.updates(), 16);
    assert!(last < first - 0.3, "MP loss: {first} -> {last}");
}

#[test]
fn checkpointed_training_matches_plain_training_over_steps() {
    // The recompute path must be bit-for-bit compatible with saved
    // activations across multiple optimizer updates.
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(8);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let mut plain = Bert::new(cfg, TrainOptions::default(), 4);
    let mut ckpt = Bert::new(cfg, TrainOptions { checkpoint: true, ..TrainOptions::default() }, 4);
    let mut opt_a = Sgd::new(0.05);
    let mut opt_b = Sgd::new(0.05);
    let mut tr = Tracer::disabled();
    for step in 0..4 {
        let a = plain.train_step(&mut tr, &batch).unwrap();
        let b = ckpt.train_step(&mut tr, &batch).unwrap();
        assert!((a.loss - b.loss).abs() < 1e-4, "step {step}: {} vs {}", a.loss, b.loss);
        let mut sa = plain.param_slots();
        opt_a.step(&mut tr, &mut sa);
        let mut sb = ckpt.param_slots();
        opt_b.step(&mut tr, &mut sb);
    }
}

#[test]
fn data_parallel_replicas_stay_synchronized_through_real_allreduce() {
    // Two model replicas on disjoint batches; gradients averaged with the
    // socket Ring AllReduce; parameters must remain identical and match a
    // single-model run on the concatenated batch (up to fp error).
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(13);
    let batch_a = corpus.generate_batch(&mut rng, &cfg);
    let batch_b = corpus.generate_batch(&mut rng, &cfg);

    let mut replica_a = Bert::new(cfg, TrainOptions::default(), 21);
    let mut replica_b = Bert::new(cfg, TrainOptions::default(), 21); // same init
    let mut opt_a = Sgd::new(0.05);
    let mut opt_b = Sgd::new(0.05);
    let mut tr = Tracer::disabled();

    for step in 0..3 {
        replica_a.train_step(&mut tr, &batch_a).unwrap();
        replica_b.train_step(&mut tr, &batch_b).unwrap();
        // Gather both replicas' gradients into flat buffers, average them
        // with the real ring AllReduce, and scatter back.
        let ga: Vec<f32> =
            replica_a.param_slots().iter().flat_map(|s| s.grad.as_slice().to_vec()).collect();
        let gb: Vec<f32> =
            replica_b.param_slots().iter().flat_map(|s| s.grad.as_slice().to_vec()).collect();
        let mut bufs = vec![ga, gb];
        ring_allreduce_mean(&mut bufs);
        assert_eq!(bufs[0].len(), bufs[1].len());
        for (x, y) in bufs[0].iter().zip(&bufs[1]) {
            assert!((x - y).abs() < 1e-6, "replicas see identical averaged gradients");
        }
        // Apply the averaged gradients on both replicas.
        let apply = |bert: &mut Bert, avg: &[f32], opt: &mut Sgd| {
            let mut offset = 0;
            let mut slots = bert.param_slots();
            let avg_tensors: Vec<Tensor> = slots
                .iter()
                .map(|s| {
                    let n = s.grad.numel();
                    let t =
                        Tensor::from_vec(avg[offset..offset + n].to_vec(), s.grad.dims()).unwrap();
                    offset += n;
                    t
                })
                .collect();
            let mut avg_slots: Vec<ParamSlot<'_>> = slots
                .iter_mut()
                .zip(&avg_tensors)
                .map(|(s, g)| ParamSlot { name: s.name, value: s.value, grad: g })
                .collect();
            let mut t = Tracer::disabled();
            opt.step(&mut t, &mut avg_slots);
        };
        apply(&mut replica_a, &bufs[0], &mut opt_a);
        apply(&mut replica_b, &bufs[1], &mut opt_b);

        // Replicas remain bit-identical.
        let pa = replica_a.param_slots();
        let pb = replica_b.param_slots();
        for (a, b) in pa.iter().zip(&pb) {
            assert_eq!(
                a.value.as_slice(),
                b.value.as_slice(),
                "step {step}: {} diverged across replicas",
                a.name
            );
        }
    }
}

#[test]
fn fused_qkv_training_matches_serial_training() {
    // Fusion is an execution-strategy change only: losses and gradients must
    // be numerically identical (paper §6.1.2).
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(31);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let mut serial = Bert::new(cfg, TrainOptions::default(), 9);
    let mut fused = Bert::new(cfg, TrainOptions { fused_qkv: true, ..TrainOptions::default() }, 9);
    let mut tr = Tracer::disabled();
    let a = serial.train_step(&mut tr, &batch).unwrap();
    let b = fused.train_step(&mut tr, &batch).unwrap();
    assert!((a.loss - b.loss).abs() < 1e-4, "{} vs {}", a.loss, b.loss);
    for (sa, sb) in serial.param_slots().iter().zip(&fused.param_slots()) {
        assert!(
            sa.grad.max_abs_diff(sb.grad).unwrap() < 1e-3,
            "{} gradients diverge between fused and serial QKV",
            sa.name
        );
    }
}

#[test]
fn bf16_training_learns_without_loss_scaling() {
    // bf16 keeps the f32 exponent range, so no loss scaling is required —
    // the "more aggressive quantization" direction the paper projects.
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(17);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let opts = TrainOptions { precision: Precision::MixedBf16, ..TrainOptions::default() };
    let mut bert = Bert::new(cfg, opts, 3);
    let mut opt = Lamb::new(0.03);
    let mut tr = Tracer::disabled();
    let mut first = 0.0;
    let mut last = 0.0;
    for step in 0..16 {
        let out = bert.train_step(&mut tr, &batch).unwrap();
        assert!(out.loss.is_finite(), "step {step} diverged");
        if step == 0 {
            first = out.loss;
        }
        last = out.loss;
        let mut slots = bert.param_slots();
        opt.step(&mut tr, &mut slots);
    }
    assert!(last < first - 0.3, "bf16 loss: {first} -> {last}");
}

#[test]
fn bf16_trace_also_matches_the_analytic_graph() {
    use bertscope_model::{build_iteration, GraphOptions, OptimizerChoice};
    use bertscope_tensor::OpKind;
    let cfg = BertConfig::tiny();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(19);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let mut bert = Bert::new(
        cfg,
        TrainOptions { precision: Precision::MixedBf16, ..TrainOptions::default() },
        5,
    );
    let mut tracer = Tracer::new();
    bert.train_step(&mut tracer, &batch).unwrap();
    let mut opt = Lamb::new(0.001);
    let mut slots = bert.param_slots();
    opt.step(&mut tracer, &mut slots);
    let trace: Vec<_> =
        tracer.into_records().into_iter().filter(|r| r.kind != OpKind::Copy).collect();
    let graph = build_iteration(
        &cfg,
        &GraphOptions {
            precision: Precision::MixedBf16,
            optimizer: OptimizerChoice::Lamb,
            fused_gelu: true,
            ..GraphOptions::default()
        },
    );
    assert_eq!(trace.len(), graph.len());
    for (t, g) in trace.iter().zip(&graph) {
        assert_eq!(
            (t.kind, t.dtype, t.flops, t.bytes_read),
            (g.kind, g.dtype, g.flops, g.bytes_read)
        );
    }
}

#[test]
fn evaluation_accuracy_rises_above_chance_with_training() {
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(23);
    let train_batch = corpus.generate_batch(&mut rng, &cfg);
    let mut bert = Bert::new(cfg, TrainOptions::default(), 11);
    let mut tr = Tracer::disabled();
    let before = bert.evaluate(&mut tr, &train_batch).unwrap();
    let mut opt = Lamb::new(0.05);
    for _ in 0..30 {
        bert.train_step(&mut tr, &train_batch).unwrap();
        let mut slots = bert.param_slots();
        opt.step(&mut tr, &mut slots);
    }
    let after = bert.evaluate(&mut tr, &train_batch).unwrap();
    // MLM accuracy starts near zero (1/vocab chance) and rises well above it
    // once the batch is memorized.
    assert!(before.mlm_accuracy < 0.1, "before {:?}", before);
    assert!(after.mlm_accuracy > 0.3, "after {:?}", after);
    assert!(after.mlm_loss < before.mlm_loss);
    // NSP accuracy at or above the 50% coin flip.
    assert!(after.nsp_accuracy >= 0.5, "nsp accuracy {}", after.nsp_accuracy);
}

#[test]
fn evaluation_trace_matches_the_inference_graph() {
    // Cross-validation for the forward-only path: the paper's §7 inference
    // discussion, pinned the same way the training iteration is.
    use bertscope_model::{build_inference, GraphOptions};
    use bertscope_tensor::OpKind;
    let cfg = BertConfig::tiny();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(29);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let bert = Bert::new(cfg, TrainOptions::default(), 7);
    let mut tracer = Tracer::new();
    bert.evaluate(&mut tracer, &batch).unwrap();
    let trace: Vec<_> =
        tracer.into_records().into_iter().filter(|r| r.kind != OpKind::Copy).collect();
    let graph =
        build_inference(&cfg, &GraphOptions { fused_gelu: true, ..GraphOptions::default() });
    assert_eq!(trace.len(), graph.len(), "inference kernel counts diverge");
    for (t, g) in trace.iter().zip(&graph) {
        assert_eq!(
            (t.kind, t.category, t.phase, t.flops, t.bytes_read, t.bytes_written),
            (g.kind, g.category, g.phase, g.flops, g.bytes_read, g.bytes_written),
            "inference op diverges: {} vs {}",
            t.name,
            g.name
        );
    }
}

#[test]
fn padding_is_numerically_invisible_to_the_loss() {
    // The same content evaluated at its natural length and PAD-extended to a
    // longer sequence must produce the same losses: the padding mask keeps
    // real tokens from attending to pads, and padded positions carry no
    // loss. This is the strongest end-to-end check of the masking path.
    use bertscope_kernels::loss::IGNORE_INDEX;
    use bertscope_train::data::special;
    let cfg_short = BertConfig { seq_len: 12, max_position: 24, ..small_cfg() };
    let cfg_long = BertConfig { seq_len: 20, max_position: 24, ..small_cfg() };
    let corpus = SyntheticCorpus::new(cfg_short.vocab);
    let mut rng = StdRng::seed_from_u64(41);
    let short = corpus.generate_batch(&mut rng, &cfg_short);

    // Re-lay the same content into the longer shape with PAD tails.
    let (b, ns, nl) = (cfg_short.batch, cfg_short.seq_len, cfg_long.seq_len);
    let mut long = bertscope_train::PretrainBatch {
        input_ids: vec![special::PAD; b * nl],
        segment_ids: vec![1; b * nl],
        position_ids: (0..b * nl).map(|i| i % nl).collect(),
        mlm_targets: vec![IGNORE_INDEX; b * nl],
        nsp_labels: short.nsp_labels.clone(),
        lengths: vec![ns; b],
    };
    for s in 0..b {
        for p in 0..ns {
            long.input_ids[s * nl + p] = short.input_ids[s * ns + p];
            long.segment_ids[s * nl + p] = short.segment_ids[s * ns + p];
            long.mlm_targets[s * nl + p] = short.mlm_targets[s * ns + p];
        }
    }

    let mut tr = Tracer::disabled();
    // Identical weights: same seed, and initialization does not depend on
    // seq_len (only on max_position, which matches).
    let bert_short = Bert::new(cfg_short, TrainOptions::default(), 77);
    let bert_long = Bert::new(cfg_long, TrainOptions::default(), 77);
    let es = bert_short.evaluate(&mut tr, &short).unwrap();
    let el = bert_long.evaluate(&mut tr, &long).unwrap();
    assert!(
        (es.mlm_loss - el.mlm_loss).abs() < 2e-3,
        "MLM loss: {} vs padded {}",
        es.mlm_loss,
        el.mlm_loss
    );
    assert!(
        (es.nsp_loss - el.nsp_loss).abs() < 2e-3,
        "NSP loss: {} vs padded {}",
        es.nsp_loss,
        el.nsp_loss
    );
    assert_eq!(es.mlm_accuracy, el.mlm_accuracy);
}

#[test]
fn causal_attention_trains_with_identical_kernel_structure() {
    // Paper §2.3: a decoder differs only by masking future tokens — "it does
    // not affect training (it only zeros certain matrix elements)".
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(43);
    let batch = corpus.generate_batch(&mut rng, &cfg);

    let mut encoder = Bert::new(cfg, TrainOptions::default(), 55);
    let mut decoder =
        Bert::new(cfg, TrainOptions { causal_attention: true, ..TrainOptions::default() }, 55);
    let mut tr_e = Tracer::new();
    let out_e = encoder.train_step(&mut tr_e, &batch).unwrap();
    let mut tr_d = Tracer::new();
    let out_d = decoder.train_step(&mut tr_d, &batch).unwrap();
    // Different numerics (future tokens hidden)...
    assert!(out_e.loss.is_finite() && out_d.loss.is_finite());
    assert_ne!(out_e.mlm_loss, out_d.mlm_loss);
    // ...but identical kernel structure, shape for shape.
    assert_eq!(tr_e.kernel_count(), tr_d.kernel_count());
    for (e, d) in tr_e.records().iter().zip(tr_d.records()) {
        assert_eq!((e.kind, e.flops, e.bytes_read), (d.kind, d.flops, d.bytes_read), "{}", e.name);
    }
    // And the decoder still learns.
    let mut opt = Lamb::new(0.05);
    let mut tr = Tracer::disabled();
    let mut last = out_d.loss;
    for _ in 0..12 {
        let mut slots = decoder.param_slots();
        opt.step(&mut tr, &mut slots);
        last = decoder.train_step(&mut tr, &batch).unwrap().loss;
    }
    assert!(last < out_d.loss - 0.3, "decoder loss {} -> {last}", out_d.loss);
}

#[test]
fn padded_batches_train_stably() {
    let cfg = BertConfig { seq_len: 16, ..small_cfg() };
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(47);
    let mut bert = Bert::new(cfg, TrainOptions::default(), 61);
    let mut opt = Lamb::new(0.04);
    let mut tr = Tracer::disabled();
    let mut first = 0.0;
    let mut last = 0.0;
    for step in 0..16 {
        let batch = corpus.generate_padded_batch(&mut rng, &cfg, 8);
        assert!(batch.lengths.iter().any(|&l| l < cfg.seq_len), "some padding expected");
        let out = bert.train_step(&mut tr, &batch).unwrap();
        assert!(out.loss.is_finite());
        if step == 0 {
            first = out.loss;
        }
        last = out.loss;
        let mut slots = bert.param_slots();
        opt.step(&mut tr, &mut slots);
    }
    assert!(last < first, "padded training learns: {first} -> {last}");
}
