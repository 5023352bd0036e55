//! The bertscope benchmark: three training workloads measured end to end
//! (`--trace 0`) and layer by layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload <pretrain_s128|pretrain_s512_ckpt|dp2_overlap|all>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every metric is printed by name with its unit and basis, then a
//! provenance line, and the last line of standard output is the result
//! object `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is 1 when a correctness check failed and 2 on a usage error. See
//! `perfbench/README.md` for why each workload exists and which metric
//! each layer should move.

mod dp2;
mod replay;
mod report;
mod single;
mod stats;

use bertscope_model::BertConfig;
use bertscope_tensor::pool;
use bertscope_train::TrainOptions;
use report::{json_object, metric, Metric};
use single::Spec;
use stats::Tally;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Phase-1 shape class: GEMM-bound, pool-parallel.
fn pretrain_s128() -> Spec {
    Spec {
        cfg: BertConfig {
            layers: 2,
            d_model: 256,
            heads: 4,
            d_ff: 1024,
            vocab: 2048,
            max_position: 512,
            seq_len: 128,
            batch: 4,
        },
        opts: TrainOptions::default(),
    }
}

/// Phase-2 shape class with activation checkpointing: attention-heavy,
/// single pool thread.
fn pretrain_s512_ckpt() -> Spec {
    Spec {
        cfg: BertConfig {
            layers: 4,
            d_model: 128,
            heads: 2,
            d_ff: 512,
            vocab: 2048,
            max_position: 512,
            seq_len: 512,
            batch: 1,
        },
        opts: TrainOptions { checkpoint: true, ..TrainOptions::default() },
    }
}

/// Per-layer metrics of the ring, transport and checkpoint layers, which
/// only the cluster workload exercises: the pretrain workloads do no work
/// there, so they read zero.
fn idle_dist_layers() -> Vec<Metric> {
    [
        ("dist.ring.allreduce_us_p50", "us"),
        ("dist.ring.collectives_per_update", "count"),
        ("dist.ring.bytes_per_update", "B"),
        ("dist.ring.bandwidth_mbps", "MB/s"),
        ("dist.ring.exposed_ms_per_update", "ms"),
        ("dist.transport.frames_per_update", "count"),
        ("dist.transport.retry_ratio", "ratio"),
        ("dist.transport.timeouts", "count"),
        ("train.checkpoint.save_ms", "ms"),
    ]
    .into_iter()
    .map(|(name, unit)| metric(name, 0.0, unit, "not exercised by this workload"))
    .collect()
}

/// Brand string from CPUID, without reading anything from disk.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaves past the reported maximum are not queried.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes).trim_matches('\0').trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}

/// Whether the GEMM takes its AVX2+FMA microkernel: the same feature test
/// the tensor crate's runtime dispatch makes.
fn gemm_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2+fma";
        }
    }
    "portable"
}

/// The commit of the checkout, when it is a git work tree; read from
/// `.git` in the working directory only.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit.into()
    }
}

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["pretrain_s128", "pretrain_s512_ckpt", "dp2_overlap"];

/// Run every workload in a child process of its own (each pins its pool
/// before first use, which a shared process could not), failing when any
/// of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: locating the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let spec = match args.workload.as_str() {
        "pretrain_s128" => pretrain_s128(),
        "pretrain_s512_ckpt" => {
            // Pinned before the pool's first use, which reads it once.
            std::env::set_var("BERTSCOPE_THREADS", "1");
            pretrain_s512_ckpt()
        }
        "dp2_overlap" => dp2::spec(),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "provenance {}",
        json_object(&[
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("nproc", nproc.to_string()),
            ("cpu", cpu_model()),
            ("pool_threads", pool::current_threads().to_string()),
            ("gemm_path", gemm_path().to_string()),
            ("commit", git_commit()),
        ])
    );

    let (tally, metrics): (Tally, Vec<Metric>) = if args.workload == "dp2_overlap" {
        let scratch = match dp2::Scratch::new() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: scratch directory: {e}");
                return ExitCode::FAILURE;
            }
        };
        if args.trace {
            dp2::layers(args.seed, single::probe_reps(args.seconds), &scratch)
        } else {
            dp2::end_to_end(args.seed, args.seconds, &scratch)
        }
    } else if args.trace {
        let mut tally = Tally::default();
        let mut m =
            single::layer_probe(&spec, args.seed, single::probe_reps(args.seconds), &mut tally);
        m.extend(idle_dist_layers());
        (tally, m)
    } else {
        single::end_to_end(&spec, args.seed, args.seconds)
    };
    report::print_result(&args.workload, &tally, &metrics);
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
