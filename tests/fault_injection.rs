//! Fault-injection integration tests: the training runtime must survive a
//! poisoned gradient (skip the update, halve the scale, keep converging),
//! the ring collective must fail fast — not hang — on a dead rank, and the
//! static checker's scaler rules (S001/S002) must hold on live traces.

use bertscope_check::{check_stream, report};
use bertscope_model::{BertConfig, Precision};
use bertscope_tensor::{Category, DType, FaultKind, FaultPlan, OpKind, OpRecord, Phase, Tracer};
use bertscope_train::{Bert, Lamb, LossScaler, StepResult, SyntheticCorpus, TrainOptions, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

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
fn injected_inf_gradient_skips_the_step_and_training_recovers() {
    // The acceptance scenario: an Inf lands in a named gradient mid-run.
    // The window must close as SkippedOverflow (no optimizer launch), the
    // dynamic scale must halve, and the run must keep improving afterwards.
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(51);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let opts = TrainOptions { precision: Precision::Mixed, ..TrainOptions::default() };
    let mut bert = Bert::new(cfg, opts, 9);
    // k=2 accumulation; the fault hits micro-step 4, i.e. the second window.
    let faults = FaultPlan::new().with(4, FaultKind::InfGradient { param: "l0.attn.wq".into() });
    let mut trainer = Trainer::new(Lamb::new(0.03), 2)
        .with_scaler(LossScaler::dynamic(2048.0))
        .with_faults(faults);
    let mut tr = Tracer::disabled();

    let mut results = Vec::new();
    let mut first = 0.0f32;
    let mut last = 0.0f32;
    for step in 0..24 {
        let (out, res) =
            trainer.micro_step(&mut tr, &mut bert, &batch).expect("skip-step policy recovers");
        assert!(out.loss.is_finite(), "micro-step {step} diverged");
        if step == 0 {
            first = out.loss;
        }
        last = out.loss;
        results.push(res);
    }
    assert_eq!(results[1], StepResult::Updated, "window 1 is clean");
    assert_eq!(results[3], StepResult::SkippedOverflow, "window 2 absorbs the Inf");
    assert_eq!(results[5], StepResult::Updated, "window 3 resumes updating");
    assert_eq!(trainer.skipped_updates(), 1);
    assert_eq!(trainer.updates(), 11);
    assert_eq!(trainer.scaler().scale(), 1024.0, "2048 halves to 1024 on overflow");
    assert_eq!(trainer.scaler().overflows(), 1);
    assert!(last < first - 0.3, "training still converges: {first} -> {last}");
}

#[test]
fn killed_allreduce_rank_fails_fast_instead_of_hanging() {
    use bertscope_dist::{ring_allreduce_faulty, DistError};
    let mut bufs: Vec<Vec<f32>> = (0..4).map(|r| vec![r as f32; 256]).collect();
    let timeout = Duration::from_millis(250);
    let start = Instant::now();
    let err = ring_allreduce_faulty(&mut bufs, &[FaultKind::KillRank { rank: 1 }], timeout)
        .expect_err("a dead rank must surface as an error");
    let elapsed = start.elapsed();
    assert_eq!(err, DistError::Killed { rank: 1 });
    // Worst case is one per-hop timeout on each of the 2(D-1) hops plus
    // scheduling slack; the essential property is a bound, not a deadlock.
    assert!(elapsed < Duration::from_secs(6), "degraded exit took {elapsed:?}");
}

#[test]
fn corrupt_allreduce_segment_surfaces_as_detectable_nan() {
    use bertscope_dist::ring_allreduce_faulty;
    let mut bufs: Vec<Vec<f32>> = (0..3).map(|_| vec![1.0f32; 30]).collect();
    ring_allreduce_faulty(
        &mut bufs,
        &[FaultKind::CorruptSegment { rank: 2, chunk: 0 }],
        Duration::from_secs(5),
    )
    .expect("corruption poisons values, not the protocol");
    // The reduction spreads the NaN to every device — exactly the signal
    // the trainer's finiteness check (and an overflow skip) keys on.
    for (rank, buf) in bufs.iter().enumerate() {
        assert!(buf.iter().any(|v| v.is_nan()), "rank {rank} must see the poisoned segment");
        assert!(buf.iter().any(|v| v.is_finite()), "untouched chunks survive");
    }
}

/// Trace exactly one accumulation window through the fault-tolerant
/// trainer (multi-window traces would trip the one-iteration stream lints).
fn single_window_trace(fault: Option<FaultKind>) -> (Vec<OpRecord>, StepResult) {
    let cfg = BertConfig::tiny();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(53);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let opts = TrainOptions { precision: Precision::Mixed, ..TrainOptions::default() };
    let mut bert = Bert::new(cfg, opts, 13);
    let mut faults = FaultPlan::new();
    if let Some(kind) = fault {
        faults = faults.with(1, kind);
    }
    let mut trainer = Trainer::new(Lamb::new(0.01), 1)
        .with_scaler(LossScaler::dynamic(256.0))
        .with_faults(faults);
    let mut tracer = Tracer::new();
    let (_, res) = trainer.micro_step(&mut tracer, &mut bert, &batch).expect("recoverable");
    (tracer.into_records(), res)
}

#[test]
fn live_clean_window_passes_the_scaler_rules() {
    let (trace, res) = single_window_trace(None);
    assert_eq!(res, StepResult::Updated);
    assert!(trace.iter().any(|r| r.category == Category::LossScale), "scaler ops are traced");
    assert!(trace.iter().any(|r| r.category == Category::LambStage1), "optimizer ran");
    let findings = check_stream(&trace);
    assert!(findings.is_empty(), "{}", report(&findings));
}

#[test]
fn live_overflow_skip_window_passes_the_scaler_rules() {
    let (trace, res) =
        single_window_trace(Some(FaultKind::InfGradient { param: "mlm.dense.weight".into() }));
    assert_eq!(res, StepResult::SkippedOverflow);
    assert!(trace.iter().any(|r| r.name.contains("scaler.overflow")), "skip marker traced");
    assert!(
        !trace.iter().any(|r| matches!(
            r.category,
            Category::GradNorm | Category::LambStage1 | Category::LambStage2
        )),
        "a skipped step launches no optimizer kernels"
    );
    let findings = check_stream(&trace);
    assert!(findings.is_empty(), "{}", report(&findings));
}

#[test]
fn a_doctored_trace_with_an_update_after_overflow_fires_s002() {
    // Take a clean window (which ends in real optimizer kernels) and forge
    // an overflow marker in front of them: the checker must object — an
    // overflowed step that still updates weights is exactly the corruption
    // S002 exists to catch.
    let (trace, _) = single_window_trace(None);
    let first_opt = trace
        .iter()
        .position(|r| r.category == Category::GradNorm || r.category == Category::LambStage1)
        .expect("clean window contains optimizer ops");
    let mut doctored = trace;
    doctored.insert(
        first_opt,
        OpRecord {
            access: Default::default(),
            name: "scaler.overflow.update".into(),
            kind: OpKind::ElementWise,
            category: Category::LossScale,
            phase: Phase::Update,
            layer: None,
            gemm: None,
            flops: 1,
            bytes_read: 4,
            bytes_written: 4,
            dtype: DType::F32,
        },
    );
    let findings = check_stream(&doctored);
    assert!(
        findings.iter().any(|f| f.rule.code() == "S002"),
        "expected S002, got: {}",
        report(&findings)
    );
}
