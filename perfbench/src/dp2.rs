//! The `dp2_overlap` workload: a two-rank thread cluster with backward /
//! AllReduce overlap, driven through `dist::run_thread_cluster`.

use crate::report::{metric, Metric};
use crate::single::{layer_probe, Spec, MIN_SAMPLES};
use crate::stats::{median, tail, Tally};
use bertscope_dist::{run_thread_cluster, ClusterConfig, ClusterReport};
use bertscope_model::BertConfig;
use bertscope_tensor::alloc;
use bertscope_train::{Bert, Lamb, TrainOptions, Trainer};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

const WORLD: usize = 2;
/// Ring bucket size in f32s: small enough that the tiny model's gradients
/// span several buckets, so there are collectives to overlap.
const BUCKET_ELEMS: usize = 4096;
/// Updates per timed cluster run.
const UPDATES: u64 = 16;
/// Untimed cluster runs between set-up and the timed loop (see
/// `single::WARMUP_STEPS`).
const WARMUP_RUNS: usize = 2;
/// One-update cluster runs that measure set-up; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Cluster runs the traced run reads ring and transport counters from.
const TRACE_RUNS: usize = 3;

/// The model every rank trains and the options overlap turns on.
pub fn spec() -> Spec {
    Spec {
        cfg: BertConfig::tiny(),
        opts: TrainOptions { deferred: true, graph: true, ..TrainOptions::default() },
    }
}

/// A scratch directory for checkpoints, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// `<cwd>/.perfbench-scratch/<pid>`.
    pub fn new() -> std::io::Result<Scratch> {
        let dir = Path::new(".perfbench-scratch").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Run {
    report: ClusterReport,
    /// Seconds from the start of the run to the end of each update, read
    /// from the modification time of the checkpoint the checkpointing rank
    /// writes after every update.
    update_ends: Vec<f64>,
    peak_bytes: u64,
}

fn update_ends(dir: &Path, started: SystemTime, updates: u64) -> Result<Vec<f64>, String> {
    (1..=updates)
        .map(|u| {
            let path = dir.join(format!("step_{u}.bsck"));
            let mtime = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(mtime.duration_since(started).unwrap_or_default().as_secs_f64())
        })
        .collect()
}

fn cluster(seed: u64, updates: u64, dir: &Path) -> Result<Run, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = ClusterConfig::new(WORLD, updates, dir.to_path_buf());
    cfg.accumulation = 1;
    cfg.overlap = true;
    cfg.ring.bucket_elems = BUCKET_ELEMS;
    cfg.seed = seed;
    cfg.run_timeout = Duration::from_secs(30);
    alloc::reset_peak();
    let started = SystemTime::now();
    let report = run_thread_cluster(&cfg).map_err(|e| format!("cluster run failed: {e}"))?;
    let peak_bytes = alloc::stats().peak_bytes;
    Ok(Run { update_ends: update_ends(dir, started, updates)?, report, peak_bytes })
}

/// The dp2 correctness contract for one cluster run.
fn verify(r: &ClusterReport, updates: u64) -> Result<(), String> {
    if r.restarts != 0 || r.final_world != WORLD || r.updates != updates {
        return Err(format!(
            "{} restarts, final world {}, {} of {updates} updates",
            r.restarts, r.final_world, r.updates
        ));
    }
    if r.worker_reports.len() != WORLD {
        return Err(format!("{} worker reports for world {WORLD}", r.worker_reports.len()));
    }
    for w in &r.worker_reports {
        if w.early_shutdown || w.updates != updates || w.weights_hash != r.weights_hash {
            return Err(format!(
                "rank {}: early shutdown {}, {} updates, hash {:x} vs {:x}",
                w.orig_rank, w.early_shutdown, w.updates, w.weights_hash, r.weights_hash
            ));
        }
    }
    Ok(())
}

/// Run a verified cluster and count its updates in `tally`; a run that
/// errors or fails a check fails all of them. Runs of the same seed and
/// length must also end on the same weights (`expect_hash`).
fn counted(
    seed: u64,
    updates: u64,
    dir: &Path,
    expect_hash: &mut Option<u64>,
    tally: &mut Tally,
) -> Option<Run> {
    let run = cluster(seed, updates, dir).and_then(|run| {
        verify(&run.report, updates)?;
        let hash = *expect_hash.get_or_insert(run.report.weights_hash);
        if hash != run.report.weights_hash {
            return Err(format!(
                "weights hash {:x} differs from an identical run's {hash:x}",
                run.report.weights_hash
            ));
        }
        Ok(run)
    });
    for _ in 0..updates {
        tally.op(true);
    }
    match run {
        Ok(run) => Some(run),
        Err(e) => {
            tally.check(false, updates, e);
            None
        }
    }
}

/// Per-update time of one run: the least-squares slope of update end
/// times against update index. It uses every end time, so the coarse
/// granularity some filesystems give timestamps averages out.
fn update_slope(ends: &[f64]) -> f64 {
    let n = ends.len() as f64;
    let mean_u = (n - 1.0) / 2.0;
    let mean_e = ends.iter().sum::<f64>() / n;
    let (mut num, mut den) = (0.0, 0.0);
    for (u, e) in ends.iter().enumerate() {
        let du = u as f64 - mean_u;
        num += du * (e - mean_e);
        den += du * du;
    }
    num / den
}

/// End-to-end run. Set-up is cluster spawn, ring formation and the first
/// update, read off one-update runs. After warm-up, each timed run of
/// `UPDATES` updates yields one per-update sample: the slope of its update
/// end times. That is steady-state training only; spawn and teardown stay
/// out of it.
pub fn end_to_end(seed: u64, seconds: u64, scratch: &Scratch) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut hash1 = None;
    let setup: Vec<f64> = (0..SETUP_REPS)
        .filter_map(|_| {
            counted(seed, 1, &scratch.0, &mut hash1, &mut tally).map(|r| r.update_ends[0])
        })
        .collect();

    let mut hash = None;
    for _ in 0..WARMUP_RUNS {
        counted(seed, UPDATES, &scratch.0, &mut hash, &mut tally);
    }
    let (mut ms, mut peak) = (Vec::new(), 0u64);
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(seconds) || ms.len() < MIN_SAMPLES {
        if let Some(run) = counted(seed, UPDATES, &scratch.0, &mut hash, &mut tally) {
            ms.push(update_slope(&run.update_ends) * 1e3);
            peak = peak.max(run.peak_bytes);
        } else if start.elapsed() > Duration::from_secs(seconds) {
            break;
        }
    }

    let cfg = spec().cfg;
    let n = ms.len();
    let updates = n as f64 * (UPDATES - 1) as f64;
    let busy_s = ms.iter().sum::<f64>() * (UPDATES - 1) as f64 / 1e3;
    let tokens = updates * (WORLD * cfg.tokens()) as f64;
    let basis = format!("{n} cluster runs of {} timed updates", UPDATES - 1);
    let tail = tail(&ms);
    let metrics = vec![
        metric(
            "tokens_per_s",
            tokens / busy_s.max(f64::MIN_POSITIVE),
            "1/s",
            format!("global over {WORLD} ranks, {basis}"),
        ),
        metric(
            "step_ms_p50",
            median(&ms).unwrap_or(0.0),
            "ms",
            format!("p50 per update of {basis}"),
        ),
        metric(
            "step_ms_tail",
            tail.map_or(0.0, |t| t.value),
            "ms",
            tail.map_or("too few runs".into(), |t| {
                format!("p{:.1} per update of {basis}", t.percentile)
            }),
        ),
        metric(
            "setup_s",
            median(&setup).unwrap_or(0.0),
            "s",
            format!("median of {} one-update cluster runs", setup.len()),
        ),
        metric(
            "peak_mib",
            peak as f64 / (1u64 << 20) as f64,
            "MiB",
            format!("alloc peak, both ranks, {n} runs"),
        ),
    ];
    (tally, metrics)
}

/// Per-layer run: the training-path probe on one rank's model and options,
/// ring and transport counters from cluster runs, and checkpoint saves.
pub fn layers(seed: u64, reps: usize, scratch: &Scratch) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut out = layer_probe(&spec(), seed, reps, &mut tally);

    let mut hash = None;
    let runs: Vec<Run> = (0..TRACE_RUNS)
        .filter_map(|_| counted(seed, UPDATES, &scratch.0, &mut hash, &mut tally))
        .collect();
    let reports: Vec<_> = runs.iter().flat_map(|r| &r.report.worker_reports).collect();
    let rank_updates = (reports.len() as u64 * UPDATES).max(1) as f64;
    let stats: Vec<_> = reports.iter().flat_map(|w| &w.ring_stats).collect();
    let us: Vec<f64> = stats.iter().map(|s| s.elapsed_us as f64).collect();
    let bytes: u64 = stats.iter().map(|s| s.bytes_sent).sum();
    let busy_us: u64 = stats.iter().map(|s| s.elapsed_us).sum();
    let frames: u64 = stats.iter().map(|s| s.transport.frames_sent).sum();
    let retries: u64 = stats.iter().map(|s| s.transport.retries).sum();
    let timeouts: u64 = stats.iter().map(|s| s.transport.timeouts).sum();
    let exposed: Vec<f64> =
        reports.iter().flat_map(|w| &w.exposed_comm_us).map(|&u| u as f64 / 1e3).collect();
    let basis = format!("{} rank-updates in {} cluster runs", rank_updates, runs.len());
    out.extend([
        metric(
            "dist.ring.allreduce_us_p50",
            median(&us).unwrap_or(0.0),
            "us",
            format!("p50 of {} bucket collectives", us.len()),
        ),
        metric(
            "dist.ring.collectives_per_update",
            stats.len() as f64 / rank_updates,
            "count",
            basis.clone(),
        ),
        metric("dist.ring.bytes_per_update", bytes as f64 / rank_updates, "B", basis.clone()),
        metric(
            "dist.ring.bandwidth_mbps",
            bytes as f64 / (busy_us.max(1) as f64),
            "MB/s",
            "bytes sent over collective time",
        ),
        metric(
            "dist.ring.exposed_ms_per_update",
            exposed.iter().sum::<f64>() / exposed.len().max(1) as f64,
            "ms",
            format!("mean of {} window closes", exposed.len()),
        ),
        metric(
            "dist.transport.frames_per_update",
            frames as f64 / rank_updates,
            "count",
            basis.clone(),
        ),
        metric(
            "dist.transport.retry_ratio",
            retries as f64 / frames.max(1) as f64,
            "ratio",
            "retries over frames sent",
        ),
        metric("dist.transport.timeouts", timeouts as f64, "count", basis),
    ]);

    let save_ms = checkpoint_saves(seed, &scratch.0, &mut tally);
    out.push(metric(
        "train.checkpoint.save_ms",
        median(&save_ms).unwrap_or(0.0),
        "ms",
        format!("median of {} TrainCheckpoint::save", save_ms.len()),
    ));
    (tally, out)
}

/// Time `TrainCheckpoint::save` of one rank's model after an update.
fn checkpoint_saves(seed: u64, dir: &Path, tally: &mut Tally) -> Vec<f64> {
    let spec = spec();
    let mut bert = Bert::new(spec.cfg, spec.opts, seed);
    let mut trainer = Trainer::new(Lamb::new(0.01), 1);
    let batch = &crate::single::batches(&spec.cfg, seed)[0];
    let stepped = trainer.micro_step(&mut bertscope_tensor::Tracer::disabled(), &mut bert, batch);
    tally.op(stepped.is_ok());
    let ckpt = match trainer.checkpoint(&mut bert) {
        Ok(c) => c,
        Err(e) => {
            tally.check(false, 1, format!("checkpoint: {e}"));
            return Vec::new();
        }
    };
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("probe.bsck");
    (0..10)
        .filter_map(|_| {
            let t = Instant::now();
            let saved = ckpt.save(&path);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tally.op(saved.is_ok());
            saved.ok().map(|()| ms)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::update_slope;

    #[test]
    fn slope_recovers_the_update_period() {
        let ends: Vec<f64> = (0..16).map(|u| 0.05 + 0.04 * u as f64).collect();
        assert!((update_slope(&ends) - 0.04).abs() < 1e-12);
        // Ends rounded down to a 4 ms grid still give a slope near 40 ms.
        let coarse: Vec<f64> = ends.iter().map(|e| (e / 0.004).floor() * 0.004).collect();
        assert!((update_slope(&coarse) - 0.04).abs() < 1e-3);
    }
}
