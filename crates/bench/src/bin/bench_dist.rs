//! Tracked distributed benchmark: times the socket-ring AllReduce at
//! 2/4/8 (and `--wide` 16) ranks over several payload sizes, fits the
//! α/β link parameters of [`bertscope_dist::LinkModel`] from the measured
//! timings, and reports measured-vs-modelled collective time for the
//! multi-process training runtime — both the eager aggregate sync and,
//! bucket by bucket, the overlapped path that AllReduces each gradient
//! bucket while backward still computes (with the per-update *exposed*
//! communication time that overlap could not hide). Emits
//! `BENCH_dist.json` so scaling changes are visible in review.
//!
//! Modes:
//!
//! - default: best-of-5 per (world, size) point, written to
//!   `BENCH_dist.json` (or `--out FILE`).
//! - `--smoke`: best-of-2 and the small sizes only — cheap enough for CI.
//! - `--wide`: add the 16-rank points (2x host oversubscription on small
//!   CI machines; off by default).
//! - `--check FILE`: compare this run's 4-rank AllReduce bandwidth against
//!   a committed baseline; exits non-zero when bandwidth fell below
//!   `baseline / --max-regression` (default 2.0x).
//! - `--trace-dir DIR`: dump per-rank operator traces from the smallest
//!   training cluster into `DIR/rank{N}.trace` for `racecheck --trace`.

use bertscope_dist::{
    run_local_ring, run_thread_cluster, ClusterConfig, LinkModel, LinkSample, RingConfig,
};
use bertscope_model::BertConfig;
use bertscope_train::{Bert, TrainOptions};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// One measured AllReduce point.
struct Point {
    devices: usize,
    bytes: u64,
    /// Best-of-iters collective wall time (max across ranks within one
    /// iteration — the collective is only done when its slowest rank is).
    measured_us: u64,
    iters: u32,
}

/// Run `iters` socket-ring AllReduces at `world` ranks x `elems` f32s and
/// return the best collective time in microseconds.
fn measure_allreduce(world: usize, elems: usize, iters: u32) -> u64 {
    let cfg = RingConfig {
        timeout: Duration::from_secs(10),
        backoff: Duration::from_millis(5),
        ..RingConfig::default()
    };
    let per_rank = run_local_ring(world, &cfg, |rank, ring| {
        #[allow(clippy::cast_precision_loss)]
        let mut buf: Vec<f32> = (0..elems).map(|i| (i as f32).mul_add(1e-3, rank as f32)).collect();
        (0..iters)
            .map(|_| Ok(ring.allreduce(&mut buf)?.elapsed_us))
            .collect::<Result<Vec<u64>, _>>()
    })
    .expect("allreduce");
    (0..iters as usize)
        .map(|i| per_rank.iter().map(|t| t[i]).max().unwrap_or(0))
        .min()
        .unwrap_or(u64::MAX)
}

/// Total gradient bytes one training AllReduce moves for the tiny config
/// (every parameter, f32).
fn tiny_grad_bytes() -> u64 {
    let mut bert = Bert::new(BertConfig::tiny(), TrainOptions::default(), 1);
    bert.param_values_mut().iter().map(|(_, t)| t.as_slice().len() as u64 * 4).sum()
}

/// One gradient bucket's measured-vs-modelled collective time, from the
/// overlapped training run. `bucket` is the firing position within an
/// update (backward retirement order, identical on every rank and
/// update), not the flat-layout index.
struct BucketGap {
    bucket: usize,
    payload_bytes: u64,
    measured_us: u64,
    modelled_us: u64,
}

struct TrainPoint {
    world: usize,
    grad_bytes: u64,
    /// Mean in-training collective time across ranks and updates, eager
    /// path (one aggregate AllReduce after backward).
    measured_us: u64,
    modelled_us: u64,
    /// Wall time per optimizer update, including spawn/teardown amortized
    /// over the run (an upper bound on steady-state step time).
    wall_ms_per_update: u64,
    /// Mean *exposed* (unhidden) communication time per update when the
    /// per-bucket collectives overlap backward — the wait that remains
    /// after backward retires the last bucket.
    exposed_allreduce_us: u64,
    /// Per-bucket measured-vs-modelled gap from the overlapped run.
    buckets: Vec<BucketGap>,
}

/// Bucket granularity of the training measurement: small enough that the
/// tiny model's gradients span several buckets, so the overlapped run has
/// collectives to hide behind backward.
const TRAIN_BUCKET_ELEMS: usize = 4096;

fn train_cluster_config(
    world: usize,
    updates: u64,
    overlap: bool,
) -> (ClusterConfig, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "bertscope-bench-dist-{}-{world}-{}",
        std::process::id(),
        u8::from(overlap)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut cfg = ClusterConfig::new(world, updates, dir.clone());
    cfg.accumulation = 1;
    cfg.overlap = overlap;
    cfg.ring.bucket_elems = TRAIN_BUCKET_ELEMS;
    (cfg, dir)
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
fn measure_training(
    world: usize,
    updates: u64,
    model: Option<&LinkModel>,
    trace_dir: Option<&str>,
) -> TrainPoint {
    // Eager run: the aggregate post-backward collective (one ring stats
    // entry per update per rank).
    let (eager_cfg, eager_dir) = train_cluster_config(world, updates, false);
    let t = std::time::Instant::now();
    let eager = run_thread_cluster(&eager_cfg).expect("bench cluster");
    let wall_ms = u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX);
    let _ = std::fs::remove_dir_all(&eager_dir);
    let (mut total_us, mut n) = (0u64, 0u64);
    for w in &eager.worker_reports {
        for s in &w.ring_stats {
            total_us += s.elapsed_us;
            n += 1;
        }
    }

    // Overlapped run: per-bucket collectives fired mid-backward. Stats
    // arrive in firing order, `buckets_per_update` entries per update, so
    // position `k` is the same bucket on every rank and update.
    let (mut ov_cfg, ov_dir) = train_cluster_config(world, updates, true);
    if let Some(td) = trace_dir {
        std::fs::create_dir_all(td).expect("trace dir");
        ov_cfg.trace_dir = Some(std::path::PathBuf::from(td));
    }
    let overlapped = run_thread_cluster(&ov_cfg).expect("bench cluster (overlap)");
    let _ = std::fs::remove_dir_all(&ov_dir);
    let (mut exposed_total, mut exposed_n) = (0u64, 0u64);
    for w in &overlapped.worker_reports {
        for &us in &w.exposed_comm_us {
            exposed_total += us;
            exposed_n += 1;
        }
    }
    let per_update = overlapped
        .worker_reports
        .first()
        .map_or(0, |w| w.ring_stats.len() / usize::try_from(updates.max(1)).unwrap_or(1));
    let mut buckets = Vec::with_capacity(per_update);
    for k in 0..per_update {
        let (mut sum_us, mut sum_wire, mut m) = (0u64, 0u64, 0u64);
        for w in &overlapped.worker_reports {
            for u in 0..w.ring_stats.len() / per_update.max(1) {
                let s = &w.ring_stats[u * per_update + k];
                sum_us += s.elapsed_us;
                sum_wire += s.bytes_sent;
                m += 1;
            }
        }
        // Invert the ring wire volume (2(D-1)/D x payload) back to the
        // bucket's payload bytes for the link-model prediction.
        let wire = sum_wire.checked_div(m).unwrap_or(0);
        let payload_bytes =
            if world > 1 { wire * world as u64 / (2 * (world as u64 - 1)) } else { 0 };
        buckets.push(BucketGap {
            bucket: k,
            payload_bytes,
            measured_us: sum_us.checked_div(m).unwrap_or(0),
            modelled_us: model
                .map_or(0, |lm| lm.predict_us(payload_bytes, world).round().max(0.0) as u64),
        });
    }

    let grad_bytes = tiny_grad_bytes();
    TrainPoint {
        world,
        grad_bytes,
        measured_us: total_us.checked_div(n).unwrap_or(0),
        modelled_us: model.map_or(0, |m| m.predict_us(grad_bytes, world).round().max(0.0) as u64),
        wall_ms_per_update: wall_ms / updates.max(1),
        exposed_allreduce_us: exposed_total.checked_div(exposed_n).unwrap_or(0),
        buckets,
    }
}

#[allow(clippy::cast_precision_loss)]
fn bandwidth_mbps(p: &Point) -> u64 {
    // Wire volume of a ring AllReduce: 2(D-1)/D x payload, per rank.
    let wire = bertscope_dist::linkmodel::ring_wire_bytes(p.bytes, p.devices);
    if p.measured_us == 0 {
        return 0;
    }
    // bytes/us == MB/s.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let mbps = (wire as f64 / p.measured_us as f64).round() as u64;
    mbps
}

fn render_json(
    mode: &str,
    points: &[Point],
    fit: Option<&LinkModel>,
    train: &[TrainPoint],
    gate_mbps: u64,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"bertscope-bench-dist-v2\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(out, "  \"host_parallelism\": {host},");
    out.push_str("  \"allreduce\": [\n");
    for (i, p) in points.iter().enumerate() {
        let modelled = fit.map_or(0.0, |m| m.predict_us(p.bytes, p.devices));
        let _ = write!(
            out,
            "    {{\"devices\": {}, \"bytes\": {}, \"iters\": {}, \"measured_us\": {}, \
             \"modelled_us\": {:.1}, \"bandwidth_mbps\": {}}}",
            p.devices,
            p.bytes,
            p.iters,
            p.measured_us,
            modelled,
            bandwidth_mbps(p)
        );
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    if let Some(m) = fit {
        let _ = writeln!(
            out,
            "  \"link_fit\": {{\"alpha_us\": {:.3}, \"beta_us_per_byte\": {:.9}, \
             \"r_squared\": {:.4}, \"bandwidth_gbps\": {:.3}, \"samples\": {}}},",
            m.alpha_us,
            m.beta_us_per_byte,
            m.r_squared,
            m.bandwidth_gbps(),
            m.samples
        );
    } else {
        out.push_str("  \"link_fit\": null,\n");
    }
    out.push_str("  \"train\": [\n");
    for (i, t) in train.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"world\": {}, \"grad_bytes\": {}, \"measured_allreduce_us\": {}, \
             \"modelled_allreduce_us\": {}, \"wall_ms_per_update\": {}, \
             \"exposed_allreduce_us\": {},\n     \"buckets\": [",
            t.world,
            t.grad_bytes,
            t.measured_us,
            t.modelled_us,
            t.wall_ms_per_update,
            t.exposed_allreduce_us
        );
        for (j, b) in t.buckets.iter().enumerate() {
            let _ = write!(
                out,
                "\n      {{\"bucket\": {}, \"payload_bytes\": {}, \"measured_us\": {}, \
                 \"modelled_us\": {}}}{}",
                b.bucket,
                b.payload_bytes,
                b.measured_us,
                b.modelled_us,
                if j + 1 < t.buckets.len() { "," } else { "" }
            );
        }
        out.push_str("]}");
        out.push_str(if i + 1 < train.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"gate_four_rank_bw_mbps\": {gate_mbps}");
    out.push_str("}\n");
    out
}

/// Pull the 4-rank bandwidth gate out of a committed baseline document.
fn parse_gate(doc: &str) -> Result<u64, String> {
    if !doc.contains("\"schema\": \"bertscope-bench-dist-v2\"") {
        return Err("missing or unexpected schema marker (want bertscope-bench-dist-v2)".into());
    }
    let marker = "\"gate_four_rank_bw_mbps\": ";
    let at = doc.find(marker).ok_or_else(|| String::from("missing bandwidth gate field"))?;
    let rest = &doc[at + marker.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let n = digits.parse::<u64>().map_err(|_| String::from("bad bandwidth gate value"))?;
    if n == 0 {
        return Err("bandwidth gate is zero".into());
    }
    Ok(n)
}

fn check(baseline_path: &str, gate_mbps: u64, max_regression: f64) -> Result<(), String> {
    let doc = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let base = parse_gate(&doc)?;
    #[allow(clippy::cast_precision_loss)]
    let ratio = base as f64 / (gate_mbps.max(1)) as f64;
    println!(
        "4-rank AllReduce bandwidth: baseline {base} MB/s, now {gate_mbps} MB/s \
         ({ratio:.2}x slower{})",
        if ratio > max_regression { " — REGRESSION" } else { "" }
    );
    if ratio > max_regression {
        return Err(format!(
            "4-rank AllReduce bandwidth regressed {ratio:.2}x \
             ({base} MB/s -> {gate_mbps} MB/s, limit {max_regression:.2}x)"
        ));
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut smoke = false;
    let mut wide = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut max_regression = 2.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--wide" => wide = true,
            "--out" => out_path = args.next(),
            "--check" => check_path = args.next(),
            "--trace-dir" => trace_dir = args.next(),
            "--max-regression" => {
                max_regression = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-regression needs a numeric factor");
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: bench_dist [--smoke] [--wide] [--out FILE] \
                     [--check FILE] [--trace-dir DIR] [--max-regression FACTOR]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let mode = if smoke { "smoke" } else { "full" };
    let iters: u32 = if smoke { 2 } else { 5 };
    let mut worlds = vec![2usize, 4, 8];
    if wide {
        worlds.push(16);
    }
    let sizes: &[usize] = if smoke { &[1 << 14, 1 << 16] } else { &[1 << 14, 1 << 16, 1 << 18] };

    eprintln!("bench_dist: mode={mode} worlds={worlds:?}");
    let mut points = Vec::new();
    for &world in &worlds {
        for &elems in sizes {
            let measured_us = measure_allreduce(world, elems, iters);
            let p = Point { devices: world, bytes: elems as u64 * 4, measured_us, iters };
            eprintln!(
                "  D={world} {} KiB: best {} us ({} MB/s)",
                elems * 4 / 1024,
                p.measured_us,
                bandwidth_mbps(&p)
            );
            points.push(p);
        }
    }

    #[allow(clippy::cast_precision_loss)]
    let samples: Vec<LinkSample> = points
        .iter()
        .map(|p| LinkSample {
            bytes: p.bytes,
            devices: p.devices,
            measured_us: p.measured_us as f64,
        })
        .collect();
    let fit = LinkModel::fit(&samples);
    match &fit {
        Some(m) => eprintln!(
            "  link fit: alpha {:.1} us, beta {:.6} us/byte ({:.2} GB/s), r^2 {:.4}",
            m.alpha_us,
            m.beta_us_per_byte,
            m.bandwidth_gbps(),
            m.r_squared
        ),
        None => eprintln!("  link fit: insufficient samples"),
    }

    // Measured-vs-modelled collective time inside real training runs.
    let train_worlds: &[usize] = if smoke { &[2] } else { &[2, 4] };
    // Per-rank trace dumping (for `racecheck --trace`) only makes sense on
    // one cluster — attach it to the smallest world so the stream is short.
    let trace_world = train_worlds.first().copied();
    let train: Vec<TrainPoint> = train_worlds
        .iter()
        .map(|&w| {
            let td = if Some(w) == trace_world { trace_dir.as_deref() } else { None };
            let t = measure_training(w, 2, fit.as_ref(), td);
            eprintln!(
                "  train D={w}: grads {} KiB, measured {} us, modelled {} us, \
                 exposed {} us over {} buckets, {} ms/update",
                t.grad_bytes / 1024,
                t.measured_us,
                t.modelled_us,
                t.exposed_allreduce_us,
                t.buckets.len(),
                t.wall_ms_per_update
            );
            t
        })
        .collect();

    // The regression gate: the largest 4-rank point's achieved bandwidth.
    let gate_mbps =
        points.iter().filter(|p| p.devices == 4).max_by_key(|p| p.bytes).map_or(0, bandwidth_mbps);

    if let Some(path) = &check_path {
        if let Err(msg) = check(path, gate_mbps, max_regression) {
            eprintln!("bench_dist check FAILED: {msg}");
            return ExitCode::FAILURE;
        }
        println!("bench_dist check passed against {path}");
    }
    let write_to = out_path.or_else(|| {
        if check_path.is_none() {
            Some(String::from("BENCH_dist.json"))
        } else {
            None
        }
    });
    if let Some(path) = write_to {
        let doc = render_json(mode, &points, fit.as_ref(), &train, gate_mbps);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
