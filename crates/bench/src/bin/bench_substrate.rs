//! Tracked substrate benchmark: times the Fig. 6 GEMM shapes, a full
//! training micro-step, and a 1M-parameter LAMB update on the *real*
//! executing substrate (the worker pool), and emits a machine-readable
//! `BENCH_substrate.json` so perf changes are visible in review.
//!
//! Modes:
//!
//! - default: best/mean of 3 iterations per shape, written to
//!   `BENCH_substrate.json` (or `--out FILE`).
//! - `--smoke`: 1 iteration per shape — cheap enough for CI.
//! - `--check FILE`: instead of writing, compare this run against a
//!   previously committed baseline file. Exits non-zero when the file is
//!   malformed, any shared shape regressed by more than `--max-regression`
//!   (default 2.0×), or — when the pool is configured with one thread —
//!   either `gemm_nn` shape runs slower than the committed pre-pool serial
//!   baseline (the pooled path must cost nothing at one thread).
//!
//! The JSON also carries the pre-pool *serial* baseline captured on the
//! reference host before the parallel runtime landed, so the speedup from
//! the pooled substrate stays auditable from the committed artifact alone.
//! The v3 schema adds per-shape `flops`/`gflops` (achieved throughput of
//! the microkernel) and the fused-epilogue entries
//! `linear_bias_gelu_512x4096x1024` / `attn_scores_fused_b256`, whose
//! unfused counterparts are `gemm_nn_512x4096x1024` and
//! `bgemm_nt_384x384x64_b256`. The v5 schema adds `micro_step_graph` —
//! the recorded micro-step run on the operator-graph scheduler
//! (`TrainOptions::graph`) instead of inline — and `--check` gates it
//! against this run's inline `micro_step_tiny_bert` (scheduling must not
//! be meaningfully slower than inline execution), plus a `sched` section
//! with the recorded graph's shape (task count, depth, max width, achieved
//! parallelism) and its per-phase wall time split (forward/backward task
//! time, remaining optimizer + dispatch time).

use bertscope_model::BertConfig;
use bertscope_tensor::init::randn;
use bertscope_tensor::{
    alloc, batched_gemm, batched_gemm_ep, gemm, gemm_bias_gelu, pool, sched, GemmEpilogue, Tensor,
    Tracer, Transpose,
};
use bertscope_train::{
    Bert, Lamb, ParamSlot, PretrainBatch, SyntheticCorpus, TrainOptions, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Serial (pre-pool) best-of-3 timings on the reference host, in
/// nanoseconds. Captured at the commit immediately before the worker pool
/// landed; kept in the artifact so the parallel speedup is auditable.
const SERIAL_BASELINE_NS: &[(&str, u64)] = &[
    ("gemm_nn_512x1024x1024", 84_461_685),
    ("gemm_nn_512x4096x1024", 353_614_615),
    ("bgemm_nt_384x384x64_b256", 486_228_654),
    ("bgemm_nn_384x64x384_b256", 406_905_504),
    ("micro_step_tiny_bert", 386_691_354),
    ("lamb_update_1m", 9_840_088),
];

/// Per-iteration buffer acquisitions before the pooled allocator landed —
/// every one of these used to hit the system allocator. Captured as the
/// steady-state acquisition count at the commit the pools landed in (the
/// request stream is identical; the pools only change who serves it).
/// Kept in the artifact so the committed `allocs` counts stay auditable
/// as a reduction against this baseline.
const PRE_ALLOCATOR_ALLOCS: &[(&str, u64)] = &[
    ("gemm_nn_512x1024x1024", 1),
    ("gemm_nn_512x4096x1024", 1),
    ("bgemm_nt_384x384x64_b256", 257),
    ("bgemm_nn_384x64x384_b256", 1),
    ("micro_step_tiny_bert", 865),
    ("lamb_update_1m", 1),
];

struct Sample {
    label: &'static str,
    iters: u32,
    best_ns: u64,
    mean_ns: u64,
    /// FLOPs one iteration performs (MACs plus any fused epilogue work);
    /// zero for composite workloads where a single count is not meaningful.
    flops: u64,
    /// Steady-state system-allocator hits in one iteration (pool misses).
    allocs: u64,
    /// Steady-state buffer requests in one iteration — what a pool-less
    /// allocator would have allocated fresh.
    acquisitions: u64,
    /// Peak live bytes during one iteration, including the benchmark's
    /// resident input tensors.
    peak_bytes: u64,
}

impl Sample {
    /// Achieved throughput in GFLOP/s (FLOPs per nanosecond of the best
    /// iteration), or zero when no FLOP count is attached.
    #[allow(clippy::cast_precision_loss)]
    fn gflops(&self) -> f64 {
        if self.flops == 0 {
            0.0
        } else {
            self.flops as f64 / self.best_ns.max(1) as f64
        }
    }
}

fn time_best<F: FnMut()>(label: &'static str, iters: u32, flops: u64, mut body: F) -> Sample {
    // One untimed warmup populates the thread-local free lists so the
    // measured allocation counts are steady-state (the caching-allocator
    // regime the paper's ROCm runtime operates in), not cold-start.
    body();
    let before = alloc::stats();
    alloc::reset_peak();
    let mut best = u64::MAX;
    let mut total = 0u64;
    let (mut allocs, mut acquisitions, mut peak_bytes) = (0u64, 0u64, 0u64);
    for i in 0..iters {
        let t = Instant::now();
        body();
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if i == 0 {
            let after = alloc::stats();
            allocs = after.fresh_allocs - before.fresh_allocs;
            acquisitions = after.acquisitions() - before.acquisitions();
            peak_bytes = after.peak_bytes;
        }
        best = best.min(ns);
        total += ns;
    }
    Sample {
        label,
        iters,
        best_ns: best,
        mean_ns: total / u64::from(iters.max(1)),
        flops,
        allocs,
        acquisitions,
        peak_bytes,
    }
}

/// The small-BERT configuration and deterministic batch every micro-step
/// entry trains on.
fn bench_model() -> (BertConfig, PretrainBatch) {
    let cfg = BertConfig {
        layers: 2,
        d_model: 128,
        heads: 8,
        d_ff: 512,
        vocab: 1000,
        max_position: 128,
        seq_len: 128,
        batch: 8,
    };
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(1);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    (cfg, batch)
}

/// Shape and phase split of the task graph one training micro-step
/// records, run on the scheduler (`micro_step_graph`'s workload), from the
/// executor's own run report: per-task wall time summed by label prefix
/// (`fwd.` / `bwd.`), everything outside the graph dispatch — optimizer
/// and step bookkeeping — as the remainder.
struct SchedStats {
    workers: usize,
    tasks: usize,
    depth: usize,
    max_width: usize,
    achieved_parallelism: f64,
    fwd_ns: u64,
    bwd_ns: u64,
    opt_ns: u64,
}

fn graph_sched_stats() -> SchedStats {
    let (cfg, batch) = bench_model();
    let opts = TrainOptions { graph: true, ..TrainOptions::default() };
    let mut bert = Bert::new(cfg, opts, 3);
    let mut trainer = Trainer::new(Lamb::new(0.001), 1);
    let mut tr = Tracer::disabled();
    // Warmed-up single step under capture: the executor logs its run
    // report (task labels, per-task wall time, DAG shape) as it retires.
    trainer.micro_step(&mut tr, &mut bert, &batch).unwrap();
    sched::start_capture();
    let t = Instant::now();
    trainer.micro_step(&mut tr, &mut bert, &batch).unwrap();
    let step_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let runs = sched::take_captured();
    let (mut fwd_ns, mut bwd_ns, mut graph_ns, mut busy_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut tasks, mut depth, mut max_width, mut workers) = (0usize, 0usize, 0usize, 1usize);
    for r in &runs {
        for (label, ns) in r.labels.iter().zip(&r.task_ns) {
            if label.starts_with("fwd.") {
                fwd_ns += ns;
            } else if label.starts_with("bwd.") {
                bwd_ns += ns;
            }
            busy_ns += ns;
        }
        graph_ns += r.elapsed_ns;
        tasks += r.labels.len();
        depth = depth.max(r.depth);
        max_width = max_width.max(r.max_width);
        workers = workers.max(r.workers);
    }
    #[allow(clippy::cast_precision_loss)]
    let achieved_parallelism = if graph_ns == 0 { 0.0 } else { busy_ns as f64 / graph_ns as f64 };
    SchedStats {
        workers,
        tasks,
        depth,
        max_width,
        achieved_parallelism,
        fwd_ns,
        bwd_ns,
        opt_ns: step_ns.saturating_sub(graph_ns),
    }
}

fn run_all(iters: u32) -> Vec<Sample> {
    let mut r = StdRng::seed_from_u64(42);
    let mut samples = Vec::new();

    // Fig. 6 shapes: attention projection, FC1, attention scores (Q·Kᵀ),
    // attention context (scores·V).
    let a = randn(&mut r, &[512, 1024], 1.0);
    let b = randn(&mut r, &[1024, 1024], 0.05);
    samples.push(time_best("gemm_nn_512x1024x1024", iters, 2 * 512 * 1024 * 1024, || {
        let _ = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None).unwrap();
    }));
    let w = randn(&mut r, &[1024, 4096], 0.05);
    samples.push(time_best("gemm_nn_512x4096x1024", iters, 2 * 512 * 4096 * 1024, || {
        let _ = gemm(Transpose::No, Transpose::No, 1.0, &a, &w, 0.0, None).unwrap();
    }));
    let q = randn(&mut r, &[256, 384, 64], 1.0);
    let k = randn(&mut r, &[256, 384, 64], 1.0);
    samples.push(time_best("bgemm_nt_384x384x64_b256", iters, 2 * 384 * 384 * 64 * 256, || {
        let _ = batched_gemm(Transpose::No, Transpose::Yes, 1.0, &q, &k).unwrap();
    }));
    let s = randn(&mut r, &[256, 384, 384], 1.0);
    let v = randn(&mut r, &[256, 384, 64], 1.0);
    samples.push(time_best("bgemm_nn_384x64x384_b256", iters, 2 * 384 * 64 * 384 * 256, || {
        let _ = batched_gemm(Transpose::No, Transpose::No, 1.0, &s, &v).unwrap();
    }));

    // Fused-epilogue counterparts (paper §6.1.3): the same FC-1 and
    // attention-score GEMMs with the bias+GeLU / scale+mask tails applied
    // at writeback instead of as separate elementwise kernels.
    let bias = Tensor::full(&[4096], 0.01);
    let fc1_flops = 2 * 512 * 4096 * 1024 + 13 * 512 * 4096;
    samples.push(time_best("linear_bias_gelu_512x4096x1024", iters, fc1_flops, || {
        let _ = gemm_bias_gelu(Transpose::No, Transpose::No, 1.0, &a, &w, &bias).unwrap();
    }));
    let mask: Vec<f32> =
        (0..256 * 384 * 384).map(|i| if i % 7 == 0 { -10_000.0 } else { 0.0 }).collect();
    let score_flops = 2 * 384 * 384 * 64 * 256 + 2 * 384 * 384 * 256;
    samples.push(time_best("attn_scores_fused_b256", iters, score_flops, || {
        let ep = GemmEpilogue::ScaleMask { scale: 0.125, mask: &mask };
        let _ = batched_gemm_ep(Transpose::No, Transpose::Yes, 1.0, &q, &k, ep).unwrap();
    }));

    // Full training micro-step on a small BERT.
    let (cfg, batch) = bench_model();
    let mut bert = Bert::new(cfg, TrainOptions::default(), 3);
    let mut trainer = Trainer::new(Lamb::new(0.001), 1);
    samples.push(time_best("micro_step_tiny_bert", iters, 0, || {
        let mut tr = Tracer::disabled();
        trainer.micro_step(&mut tr, &mut bert, &batch).unwrap();
    }));

    // The same recorded micro-step — embeddings, every layer, heads, loss
    // and the full backward chain — dispatched through the operator-graph
    // scheduler (`TrainOptions::graph`) instead of run inline.
    // Bit-identical; the check gates this entry against the inline one so
    // scheduling overhead stays a rounding error.
    let opts = TrainOptions { graph: true, ..TrainOptions::default() };
    let mut bert_graph = Bert::new(cfg, opts, 3);
    let mut trainer_graph = Trainer::new(Lamb::new(0.001), 1);
    samples.push(time_best("micro_step_graph", iters, 0, || {
        let mut tr = Tracer::disabled();
        trainer_graph.micro_step(&mut tr, &mut bert_graph, &batch).unwrap();
    }));

    // LAMB update over 1M parameters (the optimizer hot loop).
    let n = 1 << 20;
    let mut wt = Tensor::ones(&[n]);
    let g = Tensor::full(&[n], 0.01);
    let mut opt = Lamb::new(0.001);
    samples.push(time_best("lamb_update_1m", iters, 0, || {
        let mut tr = Tracer::disabled();
        opt.step(&mut tr, &mut [ParamSlot { name: "l0.w", value: &mut wt, grad: &g }]);
    }));

    samples
}

fn render_json(mode: &str, samples: &[Sample], sched_stats: Option<&SchedStats>) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"bertscope-bench-substrate-v5\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"pool_threads\": {},", pool::configured_threads());
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(out, "  \"host_parallelism\": {host},");
    out.push_str("  \"shapes\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"label\": \"{}\", \"iters\": {}, \"best_ns\": {}, \"mean_ns\": {}, \
             \"flops\": {}, \"gflops\": {:.2}, \"allocs\": {}, \"peak_bytes\": {}}}",
            s.label,
            s.iters,
            s.best_ns,
            s.mean_ns,
            s.flops,
            s.gflops(),
            s.allocs,
            s.peak_bytes
        );
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    if let Some(st) = sched_stats {
        out.push_str("  \"sched\": {\n");
        let _ = writeln!(out, "    \"workers\": {},", st.workers);
        let _ = writeln!(out, "    \"tasks\": {},", st.tasks);
        let _ = writeln!(out, "    \"depth\": {},", st.depth);
        let _ = writeln!(out, "    \"max_width\": {},", st.max_width);
        let _ = writeln!(out, "    \"achieved_parallelism\": {:.3},", st.achieved_parallelism);
        let _ = writeln!(out, "    \"fwd_ns\": {},", st.fwd_ns);
        let _ = writeln!(out, "    \"bwd_ns\": {},", st.bwd_ns);
        let _ = writeln!(out, "    \"opt_ns\": {}", st.opt_ns);
        out.push_str("  },\n");
    }
    out.push_str("  \"serial_baseline_ns\": {\n");
    for (i, (label, ns)) in SERIAL_BASELINE_NS.iter().enumerate() {
        let _ = write!(out, "    \"{label}\": {ns}");
        out.push_str(if i + 1 < SERIAL_BASELINE_NS.len() { ",\n" } else { "\n" });
    }
    out.push_str("  },\n");
    out.push_str("  \"pre_allocator_allocs\": {\n");
    for (i, (label, n)) in PRE_ALLOCATOR_ALLOCS.iter().enumerate() {
        let _ = write!(out, "    \"{label}\": {n}");
        out.push_str(if i + 1 < PRE_ALLOCATOR_ALLOCS.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

struct BaselineShape {
    label: String,
    best_ns: u64,
    allocs: u64,
}

/// Scan one numeric field out of a shape entry; `rest` is advanced past
/// the parsed digits. Zero is legal only when `allow_zero`.
fn scan_field(rest: &mut &str, label: &str, field: &str, allow_zero: bool) -> Result<u64, String> {
    let marker = format!("\"{field}\": ");
    // The field must appear before the next shape entry begins.
    let scope_end = rest.find("\"label\": \"").unwrap_or(rest.len());
    let at = rest[..scope_end]
        .find(&marker)
        .ok_or_else(|| format!("shape {label} has no {field} field"))?;
    *rest = &rest[at + marker.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        return Err(format!("shape {label}: bad {field}"));
    }
    *rest = &rest[digits.len()..];
    let n = digits.parse::<u64>().map_err(|_| format!("shape {label}: bad {field}"))?;
    if n == 0 && !allow_zero {
        return Err(format!("shape {label}: {field} is zero"));
    }
    Ok(n)
}

/// Pull the shape entries out of a baseline document with a scan — enough
/// structure-checking to catch a truncated or hand-mangled file without a
/// JSON parser. Every shape must carry `best_ns`, `flops`, `allocs` and
/// `peak_bytes` (since the v3 schema); a missing or non-numeric field
/// fails the whole document.
fn parse_baseline(doc: &str) -> Result<Vec<BaselineShape>, String> {
    if !doc.contains("\"schema\": \"bertscope-bench-substrate-v5\"") {
        return Err("missing or unexpected schema marker (want v5)".into());
    }
    let shapes_at =
        doc.find("\"shapes\"").ok_or_else(|| String::from("missing \"shapes\" section"))?;
    let mut entries = Vec::new();
    let mut rest = &doc[shapes_at..];
    while let Some(at) = rest.find("\"label\": \"") {
        rest = &rest[at + "\"label\": \"".len()..];
        let end = rest.find('"').ok_or_else(|| String::from("unterminated label"))?;
        let label = rest[..end].to_string();
        let best_ns = scan_field(&mut rest, &label, "best_ns", false)?;
        let _flops = scan_field(&mut rest, &label, "flops", true)?;
        let allocs = scan_field(&mut rest, &label, "allocs", true)?;
        let _peak = scan_field(&mut rest, &label, "peak_bytes", false)?;
        entries.push(BaselineShape { label, best_ns, allocs });
        // Stop at the serial-baseline section: its keys are not shapes.
        if let Some(stop) = rest.find("\"serial_baseline_ns\"") {
            if rest[..stop].find("\"label\": \"").is_none() {
                break;
            }
        }
    }
    if entries.is_empty() {
        return Err("no shapes found in baseline".into());
    }
    Ok(entries)
}

fn check(baseline_path: &str, samples: &[Sample], max_regression: f64) -> Result<(), String> {
    let doc = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let baseline = parse_baseline(&doc)?;
    let mut failures = Vec::new();
    for base in &baseline {
        let label = &base.label;
        let Some(now) = samples.iter().find(|s| s.label == *label) else {
            failures.push(format!("baseline shape {label} is no longer benchmarked"));
            continue;
        };
        #[allow(clippy::cast_precision_loss)]
        let ratio = now.best_ns as f64 / base.best_ns as f64;
        println!(
            "{label}: baseline {} ns, now {} ns ({ratio:.2}x{})",
            base.best_ns,
            now.best_ns,
            if ratio > max_regression { " — REGRESSION" } else { "" }
        );
        if ratio > max_regression {
            failures.push(format!(
                "{label} regressed {ratio:.2}x ({:.3} ms -> {:.3} ms, limit {max_regression:.2}x)",
                base.best_ns as f64 / 1e6,
                now.best_ns as f64 / 1e6
            ));
        }
        // Allocation-count gate: a steady-state iteration must not hit the
        // system allocator more than `max_regression` times as often as
        // the committed baseline (small absolute slack so one-digit counts
        // do not flap).
        let alloc_limit = ((base.allocs as f64) * max_regression).ceil() as u64 + 4;
        println!("{label}: baseline {} allocs, now {}", base.allocs, now.allocs);
        if now.allocs > alloc_limit {
            failures.push(format!(
                "{label} allocation count regressed: {} vs baseline {} (limit {alloc_limit})",
                now.allocs, base.allocs
            ));
        }
    }
    // At one pool thread the pooled substrate must be at least as fast as
    // the committed pre-pool serial baseline on the plain GEMM shapes: the
    // microkernel dispatches serially below the parallel threshold, so
    // pack-and-pool overhead at one thread is a regression, not a cost of
    // doing business.
    if pool::configured_threads() == 1 {
        for (label, serial_ns) in SERIAL_BASELINE_NS {
            if !label.starts_with("gemm_nn_") {
                continue;
            }
            let Some(now) = samples.iter().find(|s| s.label == *label) else {
                continue;
            };
            println!(
                "{label}: serial baseline {serial_ns} ns, pooled at 1 thread {} ns",
                now.best_ns
            );
            if now.best_ns > *serial_ns {
                failures.push(format!(
                    "{label} pooled-at-1-thread is slower than the serial baseline: \
                     {} ns vs {serial_ns} ns",
                    now.best_ns
                ));
            }
        }
    }
    // Scheduled-vs-inline gate: running the recorded micro-step on the
    // scheduler (`micro_step_graph`) may not make it meaningfully slower
    // than running it inline *in this run* (same host, same load). The 15%
    // tolerance absorbs measurement noise on contended CI hosts; anything
    // beyond it means dispatch grew a real cost.
    let find = |label: &str| samples.iter().find(|s| s.label == label);
    if let (Some(inline), Some(sched)) = (find("micro_step_tiny_bert"), find("micro_step_graph")) {
        #[allow(clippy::cast_precision_loss)]
        let ratio = sched.best_ns as f64 / inline.best_ns.max(1) as f64;
        println!(
            "micro_step_graph: scheduled {} ns vs inline {} ns ({ratio:.2}x{})",
            sched.best_ns,
            inline.best_ns,
            if ratio > 1.15 { " — REGRESSION" } else { "" }
        );
        if ratio > 1.15 {
            failures.push(format!(
                "scheduled micro-step is {ratio:.2}x the inline one ({} ns vs {} ns, \
                 limit 1.15x)",
                sched.best_ns, inline.best_ns
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut max_regression = 2.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next(),
            "--check" => check_path = args.next(),
            "--max-regression" => {
                max_regression = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-regression needs a numeric factor");
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: bench_substrate [--smoke] [--out FILE] \
                     [--check FILE] [--max-regression FACTOR]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let mode = if smoke { "smoke" } else { "full" };
    let iters = if smoke { 1 } else { 3 };
    eprintln!("bench_substrate: mode={mode} pool_threads={}", pool::configured_threads());
    let samples = run_all(iters);
    let sched_stats = graph_sched_stats();
    eprintln!(
        "  graph: {} tasks, depth {}, max width {}, {:.3} achieved parallelism at {} workers; \
         fwd {} ns, bwd {} ns, opt+dispatch {} ns",
        sched_stats.tasks,
        sched_stats.depth,
        sched_stats.max_width,
        sched_stats.achieved_parallelism,
        sched_stats.workers,
        sched_stats.fwd_ns,
        sched_stats.bwd_ns,
        sched_stats.opt_ns
    );
    for s in &samples {
        eprintln!(
            "  {}: best {} ns, mean {} ns ({} iters, {:.2} GFLOP/s); {} fresh allocs of \
             {} requests, peak {} bytes",
            s.label,
            s.best_ns,
            s.mean_ns,
            s.iters,
            s.gflops(),
            s.allocs,
            s.acquisitions,
            s.peak_bytes
        );
    }

    if let Some(path) = &check_path {
        if let Err(msg) = check(path, &samples, max_regression) {
            eprintln!("bench_substrate check FAILED: {msg}");
            return ExitCode::FAILURE;
        }
        println!("bench_substrate check passed against {path}");
    }
    // Checking compares against the committed artifact, so it only
    // overwrites when --out is explicit.
    let write_to = out_path.or_else(|| {
        if check_path.is_none() {
            Some(String::from("BENCH_substrate.json"))
        } else {
            None
        }
    });
    if let Some(path) = write_to {
        if let Err(e) = std::fs::write(&path, render_json(mode, &samples, Some(&sched_stats))) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_for(samples: &[Sample]) -> String {
        let sched_stats = SchedStats {
            workers: 1,
            tasks: 11,
            depth: 9,
            max_width: 2,
            achieved_parallelism: 1.0,
            fwd_ns: 100,
            bwd_ns: 200,
            opt_ns: 50,
        };
        render_json("full", samples, Some(&sched_stats))
    }

    fn sample(label: &'static str, best_ns: u64, allocs: u64) -> Sample {
        Sample {
            label,
            iters: 3,
            best_ns,
            mean_ns: best_ns,
            flops: 1000,
            allocs,
            acquisitions: allocs,
            peak_bytes: 1024,
        }
    }

    #[test]
    fn rendered_json_roundtrips_through_the_checker() {
        let samples =
            vec![sample("gemm_nn_512x1024x1024", 100, 2), sample("lamb_update_1m", 50, 0)];
        let parsed = parse_baseline(&doc_for(&samples)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].label, "gemm_nn_512x1024x1024");
        assert_eq!(parsed[0].best_ns, 100);
        assert_eq!(parsed[0].allocs, 2);
        assert_eq!(parsed[1].allocs, 0, "zero allocs is a legal steady state");
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baseline("{}").is_err(), "missing schema");
        let v1 = "{\"schema\": \"bertscope-bench-substrate-v1\"}";
        assert!(parse_baseline(v1).is_err(), "v1 schema is rejected");
        let v2 = "{\"schema\": \"bertscope-bench-substrate-v2\"}";
        assert!(parse_baseline(v2).is_err(), "v2 schema (no flops fields) is rejected");
        let v3 = "{\"schema\": \"bertscope-bench-substrate-v3\"}";
        assert!(parse_baseline(v3).is_err(), "v3 schema is rejected");
        let v4 = "{\"schema\": \"bertscope-bench-substrate-v4\"}";
        assert!(parse_baseline(v4).is_err(), "v4 schema (no micro_step_graph) is rejected");
        let no_shapes = "{\"schema\": \"bertscope-bench-substrate-v5\"}";
        assert!(parse_baseline(no_shapes).is_err(), "missing shapes");
        let zero = "{\n  \"schema\": \"bertscope-bench-substrate-v5\",\n  \"shapes\": [\n    \
                    {\"label\": \"x\", \"iters\": 1, \"best_ns\": 0, \"mean_ns\": 0, \
                    \"flops\": 0, \"allocs\": 0, \"peak_bytes\": 1}\n  ]\n}";
        assert!(parse_baseline(zero).is_err(), "zero best_ns");
        let no_flops = "{\n  \"schema\": \"bertscope-bench-substrate-v5\",\n  \"shapes\": [\n    \
                        {\"label\": \"x\", \"iters\": 1, \"best_ns\": 5, \"mean_ns\": 5, \
                        \"allocs\": 1, \"peak_bytes\": 1}\n  ]\n}";
        assert!(parse_baseline(no_flops).is_err(), "missing flops field");
        let no_allocs = "{\n  \"schema\": \"bertscope-bench-substrate-v5\",\n  \"shapes\": [\n    \
                         {\"label\": \"x\", \"iters\": 1, \"best_ns\": 5, \"mean_ns\": 5, \
                         \"flops\": 7}\n  ]\n}";
        assert!(parse_baseline(no_allocs).is_err(), "missing allocs field");
        let no_peak = "{\n  \"schema\": \"bertscope-bench-substrate-v5\",\n  \"shapes\": [\n    \
                       {\"label\": \"x\", \"iters\": 1, \"best_ns\": 5, \"mean_ns\": 5, \
                       \"flops\": 7, \"allocs\": 1}\n  ]\n}";
        assert!(parse_baseline(no_peak).is_err(), "missing peak_bytes field");
    }

    #[test]
    fn scheduled_gate_trips_just_past_1_15x() {
        let doc = doc_for(&[sample("micro_step_tiny_bert", 1000, 1)]);
        let path = std::env::temp_dir().join("bertscope_bench_sched_gate.json");
        std::fs::write(&path, doc).unwrap();
        let path = path.to_str().unwrap();
        // Exactly at the limit passes; just past it fails.
        let ok = [sample("micro_step_tiny_bert", 1000, 1), sample("micro_step_graph", 1150, 1)];
        assert!(check(path, &ok, 2.0).is_ok());
        let bad = [sample("micro_step_tiny_bert", 1000, 1), sample("micro_step_graph", 1160, 1)];
        let err = check(path, &bad, 2.0).unwrap_err();
        assert!(err.contains("scheduled micro-step is 1.16x the inline one"), "{err}");
    }

    #[test]
    fn scheduled_slower_than_inline_fails_the_check() {
        let doc = doc_for(&[sample("micro_step_tiny_bert", 1000, 1)]);
        let path = std::env::temp_dir().join("bertscope_bench_graph_gate.json");
        std::fs::write(&path, doc).unwrap();
        let path = path.to_str().unwrap();
        let ok = [sample("micro_step_tiny_bert", 1000, 1), sample("micro_step_graph", 1100, 1)];
        assert!(check(path, &ok, 2.0).is_ok());
        let bad = [sample("micro_step_tiny_bert", 1000, 1), sample("micro_step_graph", 3000, 1)];
        let err = check(path, &bad, 2.0).unwrap_err();
        assert!(err.contains("scheduled micro-step is 3.00x the inline one"), "{err}");
    }

    #[test]
    fn serial_baseline_keys_are_not_parsed_as_shapes() {
        let samples = vec![sample("micro_step_tiny_bert", 42, 1)];
        let parsed = parse_baseline(&doc_for(&samples)).unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn time_regression_names_the_shape_and_timings() {
        let doc = doc_for(&[sample("lamb_update_1m", 1_000_000, 2)]);
        let path = std::env::temp_dir().join("bertscope_bench_time_gate.json");
        std::fs::write(&path, doc).unwrap();
        let err = check(path.to_str().unwrap(), &[sample("lamb_update_1m", 5_000_000, 2)], 2.0)
            .unwrap_err();
        assert!(
            err.contains("lamb_update_1m regressed 5.00x (1.000 ms -> 5.000 ms"),
            "failure must name the shape and both timings: {err}"
        );
    }

    #[test]
    fn alloc_regression_fails_the_check() {
        let doc = doc_for(&[sample("lamb_update_1m", 50, 2)]);
        let path = std::env::temp_dir().join("bertscope_bench_alloc_gate.json");
        std::fs::write(&path, doc).unwrap();
        let path = path.to_str().unwrap();
        // Same counts pass; 2 -> 20 fresh allocs (beyond 2x + slack) fails.
        assert!(check(path, &[sample("lamb_update_1m", 50, 2)], 2.0).is_ok());
        let err = check(path, &[sample("lamb_update_1m", 50, 20)], 2.0).unwrap_err();
        assert!(err.contains("allocation count regressed"), "{err}");
    }
}
