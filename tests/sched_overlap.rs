//! Backward/AllReduce overlap, verified from the outside: the scheduler
//! must change *when* work runs, never *what* it computes, and the
//! optimizer must provably wait for each gradient bucket's collective.
//!
//! Two angles:
//!
//! * the scheduled micro-step is bit-identical to the inline (eager) one
//!   at 1, 2 and 8 worker threads — the scheduler buys inter-op
//!   parallelism without touching numerics;
//! * a live overlapped trace (observer-fired buckets, per-bucket `Comm`
//!   ops, presynced close) passes the H005 communication contract — no
//!   update-phase op reads a gradient buffer before the bucket collective
//!   that reduces it — and the same checker flags a deliberately reordered
//!   version of that trace, so the pass is not vacuous.

use bertscope_check::{check_comm_ordering, has_errors, report};
use bertscope_model::BertConfig;
use bertscope_tensor::{
    pool, AccessSet, BufId, Category, DType, OpKind, OpRecord, Phase, Tensor, Tracer,
};
use bertscope_train::{
    Bert, BucketSink, BucketedAverager, Lamb, SyntheticCorpus, TrainOptions, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

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

fn param_bits(bert: &mut Bert) -> Vec<u32> {
    bert.param_values_mut()
        .iter()
        .flat_map(|(_, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

/// Train a few windows under the given options and return the final
/// parameter bits.
fn run_params_with(opts: TrainOptions) -> Vec<u32> {
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(11);
    let batches: Vec<_> = (0..2).map(|_| corpus.generate_batch(&mut rng, &cfg)).collect();
    let mut bert = Bert::new(cfg, opts, 7);
    let mut trainer = Trainer::new(Lamb::new(0.01), 2);
    let mut tr = Tracer::disabled();
    for step in 0..4 {
        let (out, _) = trainer
            .micro_step(&mut tr, &mut bert, &batches[step % batches.len()])
            .expect("micro step");
        assert!(out.loss.is_finite(), "step {step} diverged");
    }
    param_bits(&mut bert)
}

/// The inline (eager) executor leaves the exact parameter bits of its
/// 1-thread run at every thread count, even though its kernels spread over
/// the whole pool. The `deferred` option is ignored; setting it must not
/// change a bit either.
#[test]
fn deferred_micro_step_is_bit_identical_to_eager_across_threads() {
    let base = pool::with_threads(1, || run_params_with(TrainOptions::default()));
    for threads in [1usize, 2, 8] {
        for deferred in [false, true] {
            let inline = pool::with_threads(threads, || {
                run_params_with(TrainOptions { deferred, ..TrainOptions::default() })
            });
            assert_eq!(
                inline, base,
                "inline micro-step diverged at {threads} threads (deferred={deferred})"
            );
        }
    }
}

/// Scheduled execution composes with the overlap machinery: running the
/// recorded step on the scheduler leaves the exact parameter bits of the
/// inline (eager) 1-thread reference at every thread count.
#[test]
fn graph_micro_step_is_bit_identical_to_eager_across_threads() {
    let base = pool::with_threads(1, || run_params_with(TrainOptions::default()));
    for threads in [1usize, 2, 8] {
        let scheduled = pool::with_threads(threads, || {
            run_params_with(TrainOptions { graph: true, ..TrainOptions::default() })
        });
        assert_eq!(scheduled, base, "scheduled micro-step diverged at {threads} threads");
    }
}

/// Under scheduled execution the observer fires from inside backward
/// tasks on pool workers, but the dy dataflow serializes the chain — so
/// the bucket sequence (and every payload) must be exactly the inline one. This is the precondition
/// for ring collectives: all ranks enter bucket AllReduces in one order.
#[test]
fn graph_mode_buckets_fire_in_eager_order() {
    let fire = |graph: bool| {
        let cfg = small_cfg();
        let corpus = SyntheticCorpus::new(cfg.vocab);
        let mut rng = StdRng::seed_from_u64(13);
        let batch = corpus.generate_batch(&mut rng, &cfg);
        let opts = TrainOptions { graph, ..TrainOptions::default() };
        let mut bert = Bert::new(cfg, opts, 3);
        let mut trainer = Trainer::new(Lamb::new(0.01), 1);
        let lens: Vec<usize> =
            bert.param_values_mut().iter().map(|(_, t)| t.as_slice().len()).collect();
        let mut averager = BucketedAverager::new(&lens, 4096, Collect::default());
        let mut tracer = Tracer::disabled();
        trainer
            .micro_step_observed(&mut tracer, &mut bert, &batch, &mut averager)
            .expect("observed micro step");
        averager.into_sink().fired
    };
    let inline = fire(false);
    let scheduled = fire(true);
    assert!(!inline.is_empty(), "buckets must fire");
    assert_eq!(inline.len(), scheduled.len());
    for (e, g) in inline.iter().zip(&scheduled) {
        assert_eq!(e.0, g.0, "bucket order diverged");
        assert_eq!(e.1, g.1, "bucket range diverged");
        let (eb, gb): (Vec<u32>, Vec<u32>) =
            (e.2.iter().map(|v| v.to_bits()).collect(), g.2.iter().map(|v| v.to_bits()).collect());
        assert_eq!(eb, gb, "bucket {} payload diverged bitwise", e.0);
    }
}

#[derive(Default)]
struct Collect {
    fired: Vec<(usize, Range<usize>, Vec<f32>)>,
}

impl BucketSink for Collect {
    fn bucket_ready(&mut self, bucket: usize, range: Range<usize>, data: &[f32]) {
        self.fired.push((bucket, range, data.to_vec()));
    }
}

/// The H005 contract on a live overlapped trace: drive the same
/// observer → bucket → per-bucket `Comm` op → presynced-close sequence the
/// distributed worker uses (world of one, so "synced" is the averaged
/// gradient itself), then assert no optimizer op reads a gradient buffer
/// before the bucket collective that reduces it — and that moving the
/// collectives after the optimizer makes the same checker fail.
#[test]
fn optimizer_never_starts_before_its_buckets_allreduce_retires() {
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(13);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let opts = TrainOptions { graph: true, ..TrainOptions::default() };
    let mut bert = Bert::new(cfg, opts, 3);
    let mut trainer = Trainer::new(Lamb::new(0.01), 1);
    let mut tracer = Tracer::new();

    let (dims, lens): (Vec<Vec<usize>>, Vec<usize>) = bert
        .param_values_mut()
        .iter()
        .map(|(_, t)| (t.dims().to_vec(), t.as_slice().len()))
        .unzip();
    let mut averager = BucketedAverager::new(&lens, 4096, Collect::default());
    let n_buckets = averager.bucket_ranges().len();
    assert!(n_buckets > 1, "config too small to exercise bucketing: {n_buckets} bucket(s)");

    let (_, window_full) = trainer
        .micro_step_observed(&mut tracer, &mut bert, &batch, &mut averager)
        .expect("observed micro step");
    assert!(window_full, "accumulation of one closes every window");
    let sink = averager.into_sink();
    assert_eq!(sink.fired.len(), n_buckets, "every bucket must fire during backward");

    // Reassemble the fired buckets into canonical per-slot tensors, exactly
    // as the distributed worker does after its comm thread drains.
    let total: usize = lens.iter().sum();
    let mut flat = vec![0.0f32; total];
    for (_, range, data) in &sink.fired {
        flat[range.clone()].copy_from_slice(data);
    }
    let mut offsets = vec![0usize];
    for &len in &lens {
        offsets.push(offsets.last().expect("non-empty") + len);
    }
    let averaged: Vec<Tensor> = dims
        .iter()
        .zip(offsets.windows(2))
        .map(|(d, w)| Tensor::from_vec(flat[w[0]..w[1]].to_vec(), d).expect("slot shape"))
        .collect();

    // One Comm op per bucket over the gradient tensors it covers, recorded
    // before the optimizer reads them.
    for (b, range, _) in &sink.fired {
        let ids: Vec<BufId> = averaged
            .iter()
            .zip(offsets.windows(2))
            .filter(|(_, w)| w[0] < range.end && range.start < w[1])
            .map(|(t, _)| t.buf_id())
            .collect();
        tracer.record(OpRecord {
            name: format!("test.allreduce.bucket{b}"),
            kind: OpKind::Comm,
            category: Category::Comm,
            phase: Phase::Communication,
            layer: None,
            gemm: None,
            flops: range.len() as u64,
            bytes_read: 4 * range.len() as u64,
            bytes_written: 4 * range.len() as u64,
            dtype: DType::F32,
            access: AccessSet { reads: ids.clone(), writes: ids, allocs: vec![], frees: vec![] },
        });
    }
    trainer.close_window_presynced(&mut tracer, &mut bert, &averaged).expect("presynced close");

    let records = tracer.records();
    let comm_ops = records.iter().filter(|o| o.kind == OpKind::Comm).count();
    let update_ops = records.iter().filter(|o| o.phase == Phase::Update).count();
    assert_eq!(comm_ops, n_buckets, "one collective per bucket on the trace");
    assert!(update_ops > 0, "the presynced close must trace optimizer ops");

    let findings = check_comm_ordering(records);
    assert!(
        !has_errors(&findings),
        "H005 violated on the live overlapped trace:\n{}",
        report(&findings)
    );

    // Teeth check: the same trace with the collectives pushed after the
    // optimizer must fail — the checker is actually watching this order.
    let mut reordered: Vec<OpRecord> =
        records.iter().filter(|o| o.kind != OpKind::Comm).cloned().collect();
    reordered.extend(records.iter().filter(|o| o.kind == OpKind::Comm).cloned());
    assert!(
        has_errors(&check_comm_ordering(&reordered)),
        "reordering collectives after the optimizer must trip H005"
    );
}
