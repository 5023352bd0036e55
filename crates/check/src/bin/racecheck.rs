//! `racecheck`: sweep the static hazard & lifetime analyzer over every
//! paper configuration — BERT-Base/Large x Fp32/Mixed/MixedBf16 x
//! checkpointing on/off x LAMB/Adam, for pre-training, fine-tuning and
//! inference streams.
//!
//! For each stream the analyzer reconstructs the operator dependence DAG
//! from buffer provenance and verifies two schedules against it: plain
//! program order, and the max-parallel ASAP schedule in which every op
//! starts at the first step its dependence predecessors allow (the static
//! analogue of running the stream across unlimited GPU execution streams
//! with event-based synchronization). Buffer lifetimes are replayed through
//! the L-series state machine along the way. Exits nonzero if any stream
//! carries an error-severity finding under either schedule.
//!
//! `racecheck --stats` additionally prints each DAG's depth, width and
//! critical-path FLOPs — the work/span parallelism the schedule analysis
//! exposes.

use bertscope_check::{
    check_fusion, check_schedule, hazard, lifetime, report, DepGraph, Finding, RuleId, Schedule,
    Severity,
};
use bertscope_model::{
    build_finetune, build_inference, build_iteration, BertConfig, GraphOptions, OptimizerChoice,
    Precision,
};
use bertscope_tensor::sched::{self, FusePattern};
use bertscope_tensor::{AccessSet, OpRecord};

fn precision_label(p: Precision) -> &'static str {
    match p {
        Precision::Fp32 => "fp32",
        Precision::Mixed => "fp16",
        Precision::MixedBf16 => "bf16",
    }
}

fn optimizer_label(o: OptimizerChoice) -> &'static str {
    match o {
        OptimizerChoice::Lamb => "lamb",
        OptimizerChoice::Adam => "adam",
        OptimizerChoice::None => "none",
    }
}

struct Tally {
    streams: usize,
    errors: usize,
    warnings: usize,
    stats: bool,
}

fn analyze(ops: &[OpRecord]) -> (Vec<Finding>, DepGraph) {
    let graph = DepGraph::build(ops);
    let mut findings = check_schedule(ops, &graph, &Schedule::program_order(ops.len()), "program");
    findings.extend(check_schedule(ops, &graph, &Schedule::asap(&graph), "asap"));
    findings.extend(hazard::check_comm_ordering(ops));
    findings.extend(lifetime::check(ops));
    (findings, graph)
}

fn check_one(tally: &mut Tally, model: &str, workload: &str, opts: GraphOptions, ops: &[OpRecord]) {
    let (findings, graph) = analyze(ops);
    let errors = findings.iter().filter(|f| f.severity == Severity::Error).count();
    let warnings = findings.len() - errors;
    tally.streams += 1;
    tally.errors += errors;
    tally.warnings += warnings;
    let label = format!(
        "{model} {workload} {} {}{}",
        precision_label(opts.precision),
        optimizer_label(opts.optimizer),
        if opts.checkpoint { " ckpt" } else { "" },
    );
    if findings.is_empty() {
        println!("ok    {label:<44} ({} ops, {} edges)", ops.len(), graph.edges.len());
    } else {
        println!(
            "FAIL  {label:<44} ({} ops, {} edges, {errors} errors, {warnings} warnings)",
            ops.len(),
            graph.edges.len()
        );
        println!("{}", report(&findings));
    }
    if tally.stats {
        println!("      {}", graph.report(ops));
    }
}

/// Check externally-captured operator streams (one per file), e.g. the
/// per-rank traces a `dist::proc` worker dumps with
/// `bertscope_tensor::tracefile`. Returns the process exit code.
fn run_traces(paths: &[String], stats: bool) -> i32 {
    let mut tally = Tally { streams: 0, errors: 0, warnings: 0, stats };
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("racecheck: cannot read {path}: {e}");
                return 2;
            }
        };
        let ops = match bertscope_tensor::tracefile::parse_records(&text) {
            Ok(ops) => ops,
            Err(e) => {
                eprintln!("racecheck: {path}: {e}");
                return 2;
            }
        };
        if ops.is_empty() {
            eprintln!("racecheck: {path}: empty trace");
            return 2;
        }
        let (findings, graph) = analyze(&ops);
        let errors = findings.iter().filter(|f| f.severity == Severity::Error).count();
        let warnings = findings.len() - errors;
        tally.streams += 1;
        tally.errors += errors;
        tally.warnings += warnings;
        if findings.is_empty() {
            println!("ok    {path:<44} ({} ops, {} edges)", ops.len(), graph.edges.len());
        } else {
            println!(
                "FAIL  {path:<44} ({} ops, {} edges, {errors} errors, {warnings} warnings)",
                ops.len(),
                graph.edges.len()
            );
            println!("{}", report(&findings));
        }
        if tally.stats {
            println!("      {}", graph.report(&ops));
        }
    }
    println!(
        "racecheck: {} traced streams checked under 2 schedules each, {} errors, {} warnings",
        tally.streams, tally.errors, tally.warnings
    );
    i32::from(tally.errors > 0)
}

/// Verify the operator-graph scheduler's *emitted* orders: for a sample
/// of the paper configurations, plan a completion order with
/// `bertscope_tensor::sched::plan_order` at several worker counts — with
/// and without a `plan_fusion` grouping — then re-check that order against the
/// stream's dependence DAG (H-series), verify any fusion grouping with the
/// F-series legality rules, and replay the reordered stream through the
/// communication-ordering and L-series lifetime rules. This is the closed
/// loop the scheduler claims: every schedule it emits, fused or not, is
/// one the static analyzer accepts. A malformed emitted order (not a
/// permutation) is surfaced with the offending task's name instead of a
/// panic.
#[allow(clippy::too_many_lines)]
fn run_sched(stats: bool) -> i32 {
    let mut tally = Tally { streams: 0, errors: 0, warnings: 0, stats };
    let base = BertConfig::bert_base();
    let large = BertConfig::bert_large();
    let opts = |precision, optimizer, checkpoint| GraphOptions {
        precision,
        optimizer,
        checkpoint,
        ..GraphOptions::default()
    };
    let sample: Vec<(&str, &str, GraphOptions, Vec<OpRecord>)> = vec![
        {
            let o = opts(Precision::Fp32, OptimizerChoice::Lamb, false);
            ("BERT-Base", "pretrain", o, build_iteration(&base, &o))
        },
        {
            let o = opts(Precision::Mixed, OptimizerChoice::Lamb, true);
            ("BERT-Base", "pretrain", o, build_iteration(&base, &o))
        },
        {
            let o = opts(Precision::MixedBf16, OptimizerChoice::Adam, false);
            ("BERT-Base", "pretrain", o, build_iteration(&base, &o))
        },
        {
            let o = opts(Precision::Fp32, OptimizerChoice::Lamb, true);
            ("BERT-Large", "pretrain", o, build_iteration(&large, &o))
        },
        {
            let o = opts(Precision::Mixed, OptimizerChoice::Lamb, false);
            ("BERT-Base", "finetune", o, build_finetune(&base, &o))
        },
        {
            let o = opts(Precision::Fp32, OptimizerChoice::None, false);
            ("BERT-Base", "inference", o, build_inference(&base, &o))
        },
        {
            let o = opts(Precision::MixedBf16, OptimizerChoice::None, false);
            ("BERT-Large", "inference", o, build_inference(&large, &o))
        },
    ];
    for (model, workload, o, ops) in &sample {
        let accesses: Vec<&AccessSet> = ops.iter().map(|op| &op.access).collect();
        let graph = DepGraph::build(ops);
        // Plan the legal fusion grouping over the stream's own labels for
        // the bias+GeLU and residual+LayerNorm chains (paper §6.1.3). Training
        // streams decline every pair (backward keeps the intermediates
        // multi-successor); inference streams merge residual+LayerNorm
        // chains. Either way the grouping must pass the F-rules and the
        // fused emitted orders must still satisfy the per-op DAG.
        let labels: Vec<String> = ops.iter().map(|op| op.name.clone()).collect();
        let patterns = [FusePattern::new("fc1", "gelu"), FusePattern::new("residual", "layernorm")];
        let groups = sched::plan_fusion(&labels, &accesses, &patterns);
        let fused_pairs: usize = groups.iter().map(|g| g.len() - 1).sum();
        let merged: Vec<AccessSet> = groups
            .iter()
            .map(|g| {
                let ga: Vec<&AccessSet> = g.iter().map(|&i| &ops[i].access).collect();
                sched::merge_accesses(&ga)
            })
            .collect();
        let merged_refs: Vec<&AccessSet> = merged.iter().collect();
        for workers in [1usize, 2, 8] {
            for fuse in [false, true] {
                let order = if fuse {
                    sched::expand_order(&groups, &sched::plan_order(&merged_refs, workers))
                } else {
                    sched::plan_order(&accesses, workers)
                };
                let tag = if fuse {
                    format!("sched-w{workers}-fused")
                } else {
                    format!("sched-w{workers}")
                };
                let sched = match Schedule::try_from_completion_order(&order) {
                    Ok(s) => s,
                    Err(e) => {
                        let name = ops.get(e.op()).map_or("<out of range>", |op| op.name.as_str());
                        eprintln!(
                            "racecheck: {model} {workload} {tag}: rejected emitted order: \
                             {e} (task `{name}`)"
                        );
                        return 2;
                    }
                };
                let mut findings = check_schedule(ops, &graph, &sched, &tag);
                if fuse {
                    findings.extend(check_fusion(ops, &groups));
                }
                // Replay the emitted order as a stream: the communication
                // contract and lifetime state machine must hold in that
                // order too, not just the dependence edges.
                let permuted: Vec<OpRecord> = order.iter().map(|&i| ops[i].clone()).collect();
                findings.extend(hazard::check_comm_ordering(&permuted));
                findings.extend(lifetime::check(&permuted));
                let errors = findings.iter().filter(|f| f.severity == Severity::Error).count();
                let warnings = findings.len() - errors;
                tally.streams += 1;
                tally.errors += errors;
                tally.warnings += warnings;
                let label = format!(
                    "{model} {workload} {} {}{} w{workers}{}",
                    precision_label(o.precision),
                    optimizer_label(o.optimizer),
                    if o.checkpoint { " ckpt" } else { "" },
                    if fuse { format!(" fused({fused_pairs})") } else { String::new() },
                );
                if findings.is_empty() {
                    println!("ok    {label:<44} ({} ops, {} edges)", ops.len(), graph.edges.len());
                } else {
                    println!(
                        "FAIL  {label:<44} ({} ops, {} edges, {errors} errors, \
                         {warnings} warnings)",
                        ops.len(),
                        graph.edges.len()
                    );
                    println!("{}", report(&findings));
                }
            }
        }
        if tally.stats {
            println!("      {}", graph.report(ops));
        }
    }
    println!(
        "racecheck: {} scheduler-emitted orders checked (fusion off/on), {} errors, {} warnings",
        tally.streams, tally.errors, tally.warnings
    );
    i32::from(tally.errors > 0)
}

fn run(stats: bool) -> i32 {
    let mut tally = Tally { streams: 0, errors: 0, warnings: 0, stats };
    let models = [("BERT-Base", BertConfig::bert_base()), ("BERT-Large", BertConfig::bert_large())];
    let precisions = [Precision::Fp32, Precision::Mixed, Precision::MixedBf16];
    for (model, cfg) in &models {
        for &precision in &precisions {
            for checkpoint in [false, true] {
                for optimizer in [OptimizerChoice::Lamb, OptimizerChoice::Adam] {
                    let opts = GraphOptions {
                        precision,
                        optimizer,
                        checkpoint,
                        ..GraphOptions::default()
                    };
                    check_one(&mut tally, model, "pretrain", opts, &build_iteration(cfg, &opts));
                    if !checkpoint {
                        // build_finetune does not model checkpointing.
                        check_one(&mut tally, model, "finetune", opts, &build_finetune(cfg, &opts));
                    }
                }
            }
            let inf = GraphOptions {
                precision,
                optimizer: OptimizerChoice::None,
                ..GraphOptions::default()
            };
            check_one(&mut tally, model, "inference", inf, &build_inference(cfg, &inf));
        }
    }
    println!(
        "racecheck: {} streams checked under 2 schedules each, {} errors, {} warnings",
        tally.streams, tally.errors, tally.warnings
    );
    i32::from(tally.errors > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => std::process::exit(run(false)),
        Some("--stats") if args.len() == 1 => std::process::exit(run(true)),
        Some("--sched") if args.len() <= 2 => {
            let stats = args.get(1).map(String::as_str) == Some("--stats");
            if args.len() == 2 && !stats {
                eprintln!("racecheck: unrecognized argument after --sched (try --help)");
                std::process::exit(2);
            }
            std::process::exit(run_sched(stats));
        }
        Some("--trace") => {
            let mut stats = false;
            let mut paths: Vec<String> = Vec::new();
            for a in &args[1..] {
                if a == "--stats" {
                    stats = true;
                } else {
                    paths.push(a.clone());
                }
            }
            if paths.is_empty() {
                eprintln!("racecheck: --trace needs at least one trace file");
                std::process::exit(2);
            }
            std::process::exit(run_traces(&paths, stats));
        }
        Some("--list-rules") if args.len() == 1 => {
            for rule in RuleId::all() {
                let code = rule.code();
                if code.starts_with('H') || code.starts_with('L') || code.starts_with('F') {
                    println!("{code}  {}", rule.summary());
                }
            }
        }
        Some("--help" | "-h") if args.len() == 1 => {
            println!(
                "racecheck: statically race- and lifetime-check the operator streams of\n\
                 every paper configuration\n\
                 \n\
                 usage: racecheck [--stats | --sched [--stats] | --list-rules |\n\
                \u{20}                 --trace FILE... [--stats]]\n\
                 \n\
                 With no arguments, sweeps BERT-Base/Large x fp32/fp16/bf16 x checkpointing\n\
                 on/off x LAMB/Adam (pre-training, fine-tuning and inference), rebuilds each\n\
                 stream's dependence DAG from buffer provenance, and verifies both program\n\
                 order and the max-parallel ASAP schedule against it. Exits 1 if any stream\n\
                 carries an error-severity finding.\n\
                 \n\
                 --stats        also print DAG depth/width/critical-path parallelism\n\
                 --sched        plan completion orders with the operator-graph scheduler\n\
                \u{20}               at 1/2/8 workers (fusion plan off and on) for a sample of\n\
                \u{20}               the configurations, verify any fusion grouping with the\n\
                \u{20}               F-rules, and re-check each emitted order against the H-\n\
                \u{20}               and L-rules; malformed orders are reported with the\n\
                \u{20}               offending task's name\n\
                 --list-rules   print the H-, L- and F-series rule registry\n\
                 --trace FILE   check externally-captured operator streams instead\n\
                \u{20}               (the per-rank traces dist::proc workers dump)"
            );
        }
        Some(other) => {
            eprintln!("racecheck: unrecognized argument `{other}` (try --help)");
            std::process::exit(2);
        }
    }
}
