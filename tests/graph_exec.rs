//! The recorded step, verified from the outside: every training step (and
//! inference pass) is recorded as a task graph, and running that graph on
//! the scheduler instead of inline (eager) must change *when* work runs,
//! never *what* it computes — at any worker count, for training (plain and
//! checkpointed) and for evaluation.
//!
//! The scheduler's checkpointed backward is also pinned through its
//! captured run reports: no segment recomputes before backward reaches it.

use bertscope_model::BertConfig;
use bertscope_tensor::{pool, sched, Tracer};
use bertscope_train::{Bert, Lamb, SyntheticCorpus, TrainOptions, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two structurally different configurations: the canonical tiny BERT and
/// an asymmetric deeper one (odd vocab, layers not a power of two) so the
/// graph's task layout is exercised beyond one shape.
fn configs() -> Vec<BertConfig> {
    vec![
        BertConfig::tiny(),
        BertConfig {
            layers: 3,
            d_model: 48,
            heads: 6,
            d_ff: 96,
            vocab: 131,
            max_position: 40,
            seq_len: 20,
            batch: 3,
        },
    ]
}

/// Run a few optimizer updates and return every loss and parameter bit.
fn run_training(cfg: BertConfig, opts: TrainOptions) -> (Vec<u32>, Vec<u32>) {
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(17);
    let batches: Vec<_> = (0..2).map(|_| corpus.generate_batch(&mut rng, &cfg)).collect();
    let mut bert = Bert::new(cfg, opts, 9);
    let mut trainer = Trainer::new(Lamb::new(0.01), 1);
    let mut tr = Tracer::disabled();
    let mut losses = Vec::new();
    for step in 0..3 {
        let (out, _) = trainer
            .micro_step(&mut tr, &mut bert, &batches[step % batches.len()])
            .expect("micro step");
        losses.push(out.loss.to_bits());
    }
    let params = bert
        .param_values_mut()
        .iter()
        .flat_map(|(_, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    (losses, params)
}

/// The tentpole bit-identity claim: for two configurations, the micro-step
/// run on the scheduler (Trainer + LAMB included) leaves exactly the
/// losses and parameter bits of the inline (eager) 1-thread reference, at
/// 1, 2 and 8 worker threads.
#[test]
fn graph_training_is_bit_identical_to_eager_across_threads_and_configs() {
    for cfg in configs() {
        let base = pool::with_threads(1, || run_training(cfg, TrainOptions::default()));
        for threads in [1usize, 2, 8] {
            let scheduled = pool::with_threads(threads, || {
                run_training(cfg, TrainOptions { graph: true, ..TrainOptions::default() })
            });
            assert_eq!(
                scheduled, base,
                "scheduled training diverged from inline at {threads} threads \
                 ({} layers, d_model {})",
                cfg.layers, cfg.d_model
            );
        }
    }
}

/// Checkpointed training (segment recompute during backward) computes the
/// same bits on the scheduler as inline.
#[test]
fn op_grain_and_checkpointed_graph_training_match_eager() {
    let cfg = BertConfig::tiny();
    let opts = TrainOptions { checkpoint: true, ..TrainOptions::default() };
    let reference = pool::with_threads(1, || run_training(cfg, opts));
    for threads in [1usize, 2, 8] {
        let scheduled =
            pool::with_threads(threads, || run_training(cfg, TrainOptions { graph: true, ..opts }));
        assert_eq!(
            scheduled, reference,
            "scheduled checkpointed training diverged at {threads} threads"
        );
    }
}

/// Under checkpointing, each segment's recompute must not run until
/// backward has produced the gradient flowing into that segment — or the
/// recomputed activations sit in memory for the whole backward pass. The
/// FIFO scheduler runs any ready task, so only a dependence edge can hold
/// the recompute back; the captured run reports show whether it did.
#[test]
fn scheduled_recompute_waits_for_its_upstream_gradient() {
    let cfg = BertConfig { layers: 4, ..BertConfig::tiny() };
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(31);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let opts = TrainOptions { graph: true, checkpoint: true, ..TrainOptions::default() };
    for threads in [1usize, 2, 8] {
        let runs = pool::with_threads(threads, || {
            let mut bert = Bert::new(cfg, opts, 9);
            sched::start_capture();
            bert.train_step(&mut Tracer::disabled(), &batch).expect("checkpointed step");
            sched::take_captured()
        });
        assert_eq!(runs.len(), 1, "one scheduled run per step");
        let run = &runs[0];
        let retired = |label: &str| {
            let task = run.labels.iter().position(|l| l == label).unwrap_or_else(|| {
                panic!("no task `{label}` in {:?}", run.labels);
            });
            run.completion_order.iter().position(|&t| t == task).expect("task retired")
        };
        let recomputes: Vec<&String> =
            run.labels.iter().filter(|l| l.starts_with("bwd.recompute.s")).collect();
        assert!(recomputes.len() > 1, "config must have several segments: {recomputes:?}");
        let segs = bertscope_model::checkpoint_segments(cfg.layers);
        let per_seg = cfg.layers.div_ceil(segs);
        for label in recomputes {
            let start: usize = label["bwd.recompute.s".len()..].parse().expect("segment start");
            let end = (start + per_seg).min(cfg.layers);
            // dy[end] comes from the heads' backward for the last segment
            // and from layer `end`'s backward for every other one.
            let writer =
                if end == cfg.layers { "bwd.heads.mlm".into() } else { format!("bwd.l{end}") };
            assert!(
                retired(label) > retired(&writer),
                "`{label}` retired before `{writer}` at {threads} threads: {:?}",
                run.completion_order.iter().map(|&t| &run.labels[t]).collect::<Vec<_>>()
            );
        }
    }
}

/// Inference on the scheduler: every loss and accuracy bit matches the
/// inline (eager) evaluation, at every thread count.
#[test]
fn fused_graph_evaluation_matches_eager_across_threads() {
    let cfg = BertConfig::tiny();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(23);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let inline = Bert::new(cfg, TrainOptions::default(), 9);
    let mut tr = Tracer::disabled();
    let base = inline.evaluate(&mut tr, &batch).expect("inline evaluate");
    let scheduled = Bert::new(cfg, TrainOptions { graph: true, ..TrainOptions::default() }, 9);
    for threads in [1usize, 2, 8] {
        let out = pool::with_threads(threads, || {
            let mut tr = Tracer::disabled();
            scheduled.evaluate(&mut tr, &batch).expect("scheduled evaluate")
        });
        assert_eq!(base.mlm_loss.to_bits(), out.mlm_loss.to_bits(), "{threads} threads");
        assert_eq!(base.nsp_loss.to_bits(), out.nsp_loss.to_bits(), "{threads} threads");
        assert_eq!(base.mlm_accuracy.to_bits(), out.mlm_accuracy.to_bits(), "{threads} threads");
        assert_eq!(base.nsp_accuracy.to_bits(), out.nsp_accuracy.to_bits(), "{threads} threads");
    }
}
