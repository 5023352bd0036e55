//! Single-process training: the end-to-end run of the pretrain workloads
//! and the per-layer probe every workload's traced run uses.

use crate::replay::{replay_gemms, replay_kernels, Module};
use crate::report::{metric, Metric};
use crate::stats::{median, tail, Tally};
use bertscope_model::BertConfig;
use bertscope_tensor::{alloc, pool, sched, OpRecord, Phase, Tensor, Tracer};
use bertscope_train::{
    Bert, GradObserver, Lamb, PretrainBatch, StepResult, SyntheticCorpus, TrainOptions, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// LAMB learning rate: small enough that no workload diverges within a run.
const LR: f32 = 1e-3;
/// Distinct batches per run, cycled through by the steps.
const BATCHES: usize = 4;
/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// The timed loop runs at least this many steps, so the tail percentile
/// (ten samples beyond) is at least the median.
pub const MIN_SAMPLES: usize = 20;
/// Leading steps whose losses must be bit-identical at another pool size.
const BIT_STEPS: usize = 2;
/// Untimed steps between set-up and the timed loop. The first steps of a
/// process run slower while the system allocator adapts to the pool's
/// large buffers; users pay that once, so it is excluded from step times.
const WARMUP_STEPS: usize = 8;

/// Model shape and execution options of a single-process workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Model and input shape.
    pub cfg: BertConfig,
    /// Execution options.
    pub opts: TrainOptions,
}

/// The batches a run cycles through, generated from the seed alone.
pub fn batches(cfg: &BertConfig, seed: u64) -> Vec<PretrainBatch> {
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_da7a);
    (0..BATCHES).map(|_| corpus.generate_batch(&mut rng, cfg)).collect()
}

fn fresh(spec: &Spec, seed: u64) -> (Bert, Trainer<Lamb>) {
    (Bert::new(spec.cfg, spec.opts, seed), Trainer::new(Lamb::new(LR), 1))
}

/// One untraced training step with a LAMB update. Counts it in `tally`
/// (failed unless the loss is finite and the update applied) and returns
/// its wall time in ms and its loss.
fn step(
    bert: &mut Bert,
    trainer: &mut Trainer<Lamb>,
    batch: &PretrainBatch,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (f64, Option<f32>) {
    let t = Instant::now();
    let res = trainer.micro_step(tracer, bert, batch);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let loss = match res {
        Ok((out, StepResult::Updated)) if out.loss.is_finite() => Some(out.loss),
        _ => None,
    };
    tally.op(loss.is_some());
    (ms, loss)
}

/// Losses of the first `n` steps of a fresh run, at the current pool size.
fn leading_losses(spec: &Spec, seed: u64, batches: &[PretrainBatch], n: usize) -> Vec<Option<f32>> {
    let (mut bert, mut trainer) = fresh(spec, seed);
    let mut scratch = Tally::default();
    (0..n)
        .map(|i| {
            step(
                &mut bert,
                &mut trainer,
                &batches[i % batches.len()],
                &mut Tracer::disabled(),
                &mut scratch,
            )
            .1
        })
        .collect()
}

fn same_bits(a: &[Option<f32>], b: &[Option<f32>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| matches!((x, y), (Some(x), Some(y)) if x.to_bits() == y.to_bits()))
}

/// The end-to-end run: set-up repeated [`SETUP_REPS`] times, warm-up,
/// then untraced steps for `seconds` (and at least [`MIN_SAMPLES`]), then
/// the thread-count bit-identity check.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: u64) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let batches = batches(&spec.cfg, seed);
    let mut setup_s = Vec::new();
    let mut first = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (mut bert, mut trainer) = fresh(spec, seed);
        let (_, loss) =
            step(&mut bert, &mut trainer, &batches[0], &mut Tracer::disabled(), &mut tally);
        setup_s.push(t.elapsed().as_secs_f64());
        first.push(loss);
        state = Some((bert, trainer));
    }
    tally.check(
        first.iter().all(|l| same_bits(&[*l], &first[..1])),
        SETUP_REPS as u64,
        "repeated set-ups gave different first-step losses",
    );
    let (mut bert, mut trainer) = state.expect("at least one set-up");

    let mut losses = vec![first[0]];
    let mut steps = 1usize;
    let mut next_step = |bert: &mut Bert, trainer: &mut Trainer<Lamb>, tally: &mut Tally| {
        let batch = &batches[steps % batches.len()];
        let (t, loss) = step(bert, trainer, batch, &mut Tracer::disabled(), tally);
        if losses.len() < BIT_STEPS {
            losses.push(loss);
        }
        steps += 1;
        t
    };
    for _ in 0..WARMUP_STEPS {
        next_step(&mut bert, &mut trainer, &mut tally);
    }
    alloc::reset_peak();
    let mut ms = Vec::new();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(seconds) || ms.len() < MIN_SAMPLES {
        ms.push(next_step(&mut bert, &mut trainer, &mut tally));
    }
    let peak = alloc::stats().peak_bytes;

    let host = pool::current_threads();
    let other = if host == 1 { 2 } else { 1 };
    let again = pool::with_threads(other, || leading_losses(spec, seed, &batches, BIT_STEPS));
    tally.check(
        same_bits(&losses, &again),
        BIT_STEPS as u64,
        format!("first {BIT_STEPS} losses at {other} pool threads differ from {host}"),
    );

    let n = ms.len();
    let total_s: f64 = ms.iter().sum::<f64>() / 1e3;
    let tail = tail(&ms).expect("at least MIN_SAMPLES steps");
    let basis = format!("{n} steps");
    let metrics = vec![
        metric("tokens_per_s", (n * spec.cfg.tokens()) as f64 / total_s, "1/s", basis.clone()),
        metric("step_ms_p50", median(&ms).unwrap_or(0.0), "ms", format!("p50 of {n} steps")),
        metric(
            "step_ms_tail",
            tail.value,
            "ms",
            format!("p{:.1} of {n} steps, {} beyond", tail.percentile, crate::stats::TAIL_BEYOND),
        ),
        metric(
            "setup_s",
            median(&setup_s).unwrap_or(0.0),
            "s",
            format!("median of {SETUP_REPS} set-ups"),
        ),
        metric(
            "peak_mib",
            peak as f64 / (1u64 << 20) as f64,
            "MiB",
            format!("alloc peak over {n} steps"),
        ),
    ];
    (tally, metrics)
}

/// Timestamps each gradient group as backward retires it.
#[derive(Default)]
struct GroupClock {
    stamps: Vec<Instant>,
}

impl GradObserver for GroupClock {
    fn group_ready(&mut self, _base_slot: usize, _grads: &[&Tensor]) {
        self.stamps.push(Instant::now());
    }
}

/// Repetitions of each per-layer measurement for a run of `seconds`: at
/// least three, so every per-layer metric is a median.
pub fn probe_reps(seconds: u64) -> usize {
    (seconds / 5).clamp(3, 12) as usize
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Per-layer metrics of the single-process training path, measured by
/// timing public calls on one model of the workload's shape, each
/// measurement repeated `reps` times.
pub fn layer_probe(spec: &Spec, seed: u64, reps: usize, tally: &mut Tally) -> Vec<Metric> {
    let batches = batches(&spec.cfg, seed);
    let (mut bert, mut trainer) = fresh(spec, seed);
    let mut off = Tracer::disabled();
    let mut i = 0usize;
    let mut next = || {
        i += 1;
        &batches[i % batches.len()]
    };
    step(&mut bert, &mut trainer, next(), &mut off, tally);

    // Untraced steps, with the allocator's counters around them,
    // alternating with traced steps for the tracer's overhead and the
    // records the replays use.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut fresh_allocs, mut reuses, mut acquisitions) = (0u64, 0u64, 0u64);
    let mut records: Vec<OpRecord> = Vec::new();
    for _ in 0..reps {
        let a0 = alloc::stats();
        plain.push(step(&mut bert, &mut trainer, next(), &mut off, tally).0);
        let a1 = alloc::stats();
        fresh_allocs += a1.fresh_allocs - a0.fresh_allocs;
        reuses += a1.reuses - a0.reuses;
        acquisitions += a1.acquisitions() - a0.acquisitions();
        let mut tr = Tracer::new();
        traced.push(step(&mut bert, &mut trainer, next(), &mut tr, tally).0);
        records = tr.into_records();
    }
    let step_ms = med(&plain);
    let recompute_flops: u64 =
        records.iter().filter(|r| r.phase == Phase::Recompute).map(|r| r.flops).sum();

    // Phases: forward alone, backward up to the last retired gradient
    // group, and the optimizer window close.
    let (mut fwd, mut bwd, mut bwd_layer, mut opt) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let layers = spec.cfg.layers;
    for _ in 0..reps {
        let batch = next();
        let t = Instant::now();
        let eval = bert.evaluate(&mut off, batch);
        let f = t.elapsed().as_secs_f64() * 1e3;
        let mut clock = GroupClock::default();
        let t = Instant::now();
        let observed = trainer.micro_step_observed(&mut off, &mut bert, batch, &mut clock);
        let closed = trainer.close_window(&mut off, &mut bert);
        let o = t.elapsed();
        let ok = eval.is_ok()
            && matches!(observed, Ok((out, true)) if out.loss.is_finite())
            && matches!(closed, Ok(StepResult::Updated))
            && clock.stamps.len() == layers + 2;
        tally.op(ok);
        if !ok {
            continue;
        }
        let since = |s: Instant| s.duration_since(t).as_secs_f64() * 1e3;
        let last = since(*clock.stamps.last().expect("groups retired"));
        // Groups retire heads first, then layers last to first, then the
        // embeddings: stamps 1..=L close the layers' backward passes.
        let per_layer: Vec<f64> = clock.stamps[..=layers]
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
            .collect();
        fwd.push(f);
        bwd.push(last - f);
        bwd_layer.push(per_layer.iter().sum::<f64>() / layers as f64);
        opt.push(o.as_secs_f64() * 1e3 - last);
    }

    // The scheduler's own reports, captured on this thread.
    let (mut tasks, mut par, mut dispatch) = (0usize, Vec::new(), Vec::new());
    for _ in 0..reps {
        sched::start_capture();
        step(&mut bert, &mut trainer, next(), &mut off, tally);
        let runs = sched::take_captured();
        tasks = runs.iter().map(|r| r.task_ns.len()).sum();
        let busy: u64 = runs.iter().map(|r| r.task_ns.iter().sum::<u64>()).sum();
        let wall: u64 = runs.iter().map(|r| r.elapsed_ns).sum();
        par.push(if wall == 0 { 0.0 } else { busy as f64 / wall as f64 });
        dispatch.push(wall as f64 / 1e6);
    }

    let one_thread: Vec<f64> = pool::with_threads(1, || {
        (0..reps - 1).map(|_| step(&mut bert, &mut trainer, next(), &mut off, tally).0).collect()
    });

    let mut out = Vec::new();
    let steps = format!("median of {reps} steps");
    out.push(metric("train.fwd_ms", med(&fwd), "ms", format!("Bert::evaluate, {}", steps)));
    out.push(metric("train.bwd_ms", med(&bwd), "ms", format!("to last group_ready, {steps}")));
    out.push(metric(
        "train.bwd_layer_ms",
        med(&bwd_layer),
        "ms",
        format!("mean over {layers} layers, {steps}"),
    ));
    out.push(metric("train.opt_ms", med(&opt), "ms", format!("Trainer::close_window, {steps}")));
    out.push(metric(
        "train.recompute_gflop",
        recompute_flops as f64 / 1e9,
        "GFLOP",
        "recompute-phase records of one step",
    ));
    match replay_gemms(&records, reps) {
        Ok(g) => out.push(metric(
            "tensor.gemm.gflops",
            g.gflops,
            "GFLOP/s",
            format!("{} calls at {} shapes, median of {reps}", g.calls, g.shapes),
        )),
        Err(e) => tally.check(false, 1, format!("GEMM replay: {e}")),
    }
    out.push(metric(
        "tensor.pool.speedup_1t",
        med(&one_thread) / step_ms,
        "ratio",
        format!("1 thread over {} threads", pool::current_threads()),
    ));
    let untraced = format!("{reps} untraced steps");
    out.push(metric(
        "tensor.alloc.fresh_per_step",
        fresh_allocs as f64 / reps as f64,
        "count",
        format!("mean of {untraced}"),
    ));
    out.push(metric(
        "tensor.alloc.reuse_ratio",
        reuses as f64 / acquisitions.max(1) as f64,
        "ratio",
        format!("reuses over acquisitions, {untraced}"),
    ));
    out.push(metric("tensor.sched.tasks", tasks as f64, "count", "tasks per step"));
    out.push(metric(
        "tensor.sched.achieved_parallelism",
        med(&par),
        "ratio",
        format!("task time over dispatch wall, {steps}"),
    ));
    out.push(metric(
        "tensor.sched.dispatch_ms",
        med(&dispatch),
        "ms",
        format!("graph dispatch wall per step, {steps}"),
    ));
    match replay_kernels(&records, &spec.opts, reps) {
        Ok(k) => {
            let basis = format!("{} calls replayed, median of {reps}", k.calls);
            for m in Module::ALL {
                out.push(metric(m.metric(), k.ms[&m], "ms", basis.clone()));
            }
            let covered: f64 = k.ms.values().sum();
            out.push(metric(
                "kernels.unaccounted_pct",
                100.0 * (1.0 - covered / step_ms),
                "%",
                format!("share of the {step_ms:.3} ms step outside the replayed kernels"),
            ));
        }
        Err(e) => tally.check(false, 1, format!("kernel replay: {e}")),
    }
    out.push(metric(
        "trace.overhead_pct",
        100.0 * (med(&traced) / step_ms - 1.0),
        "%",
        format!("median traced over median untraced step, {reps} pairs"),
    ));
    out
}
