//! Static verification of bertscope operator streams.
//!
//! The whole suite trades in one currency: streams of
//! [`OpRecord`](bertscope_tensor::OpRecord)s, produced either analytically
//! (`bertscope_model::build_iteration` and friends) or by executing the
//! substrate under a [`Tracer`](bertscope_tensor::Tracer). This crate is a
//! lint pass over that currency — it verifies, without executing any
//! arithmetic, that a stream is *internally consistent*:
//!
//! * **Conservation** (`C` rules): every op's recorded FLOP/byte counts
//!   match an independent closed-form recomputation from its own metadata,
//!   and — given a configuration — per-layer and optimizer totals match
//!   the Table 2b and parameter-inventory closed forms.
//! * **Dataflow** (`D` rules): producer→consumer shapes chain through each
//!   layer, dtypes obey the precision contract (f32 optimizer and losses,
//!   one uniform activation dtype), and no op is a ghost.
//! * **Phase legality** (`P` rules): forward before backward, backward in
//!   reverse layer order, recompute correctly sandwiched, optimizer last
//!   and internally ordered.
//! * **Scaler/skip semantics** (`S` rules): loss-scaler bookkeeping sits
//!   between backward and the optimizer, and a step the scaler skipped on
//!   overflow launches no optimizer kernels.
//! * **Memory accounting** (`M` rules, via [`check_memory`]): the measured
//!   memory profile must be internally consistent — live bytes never
//!   negative, the peak at least the resident weights+gradients bound.
//! * **Hazards** (`H` rules, via [`deps`] + [`hazard`]): from each op's
//!   buffer read/write sets the checker reconstructs the true operator DAG
//!   and verifies that a candidate parallel schedule respects every
//!   RAW/WAR/WAW edge, never races across phase boundaries, and orders
//!   gradient communication before the optimizer — statically, where a GPU
//!   runtime would rely on stream/event dependency tracking. `cargo run -p
//!   bertscope-check --bin racecheck` sweeps every paper configuration
//!   under both program order and the max-parallel ASAP schedule.
//! * **Lifetimes** (`L` rules, via [`lifetime`]): buffer provenance must
//!   describe legal pooled lifetimes — no use after release, no double
//!   release, no write into recycled storage, no leaked stream-local
//!   allocation.
//! * **Fusion legality** (`F` rules, via [`fusion`]): every task pair a
//!   `bertscope_tensor::sched::plan_fusion` grouping merges must be
//!   provable on the dependence DAG — adjacent in submission order, the
//!   producer's sole successor its fused consumer, both sides carrying
//!   provenance.
//!
//! The two sides of the suite's central cross-validation (`graph.rs` and
//! the kernels crate) intentionally share their formulas; this checker is
//! the *third*, independent implementation that keeps an agreed-upon-but-
//! wrong formula from slipping through. `cargo run -p bertscope-check --bin
//! opcheck` sweeps every paper configuration and exits nonzero on any
//! error-severity finding.
//!
//! # Examples
//!
//! ```
//! use bertscope_check::{check_stream, check_iteration};
//! use bertscope_model::{build_iteration, BertConfig, GraphOptions};
//!
//! let cfg = BertConfig::tiny();
//! let opts = GraphOptions::default();
//! let ops = build_iteration(&cfg, &opts);
//! assert!(check_iteration(&cfg, &opts, &ops).is_empty());
//!
//! // Corrupt one GEMM's FLOP count and the conservation lint fires.
//! let mut bad = ops.clone();
//! let i = bad.iter().position(|o| o.is_gemm()).unwrap();
//! bad[i].flops += 1;
//! let findings = check_stream(&bad);
//! assert_eq!(findings[0].rule.code(), "C001");
//! ```

pub mod deps;
pub mod finding;
pub mod fusion;
pub mod hazard;
pub mod lifetime;
pub mod rules;

mod config_checks;
mod conservation;
mod dataflow;
mod memory;
mod phase;
mod scaler;

pub use config_checks::check_iteration;
pub use deps::{
    annotate_lifetimes, DagReport, DepEdge, DepGraph, DepKind, Lifetime, Schedule, ScheduleError,
};
pub use finding::{Finding, Severity};
pub use fusion::check_fusion;
pub use hazard::{check_comm_ordering, check_schedule};
pub use memory::check_memory;
pub use rules::RuleId;

use bertscope_tensor::OpRecord;

/// Run every stream-level lint (no configuration required) over an operator
/// stream — analytic or traced. Returns the findings sorted errors-first.
///
/// Copy and communication ops are tolerated wherever they appear (the
/// analytic graph omits them; live traces and distributed schedules
/// interleave them freely).
#[must_use]
pub fn check_stream(ops: &[OpRecord]) -> Vec<Finding> {
    let mut out = conservation::check(ops);
    out.extend(dataflow::check(ops));
    out.extend(phase::check(ops));
    out.extend(scaler::check(ops));
    out.extend(hazard::check(ops));
    out.extend(lifetime::check(ops));
    finding::sort(&mut out);
    out
}

/// Whether any finding is error severity (the `opcheck` exit criterion).
#[must_use]
pub fn has_errors(findings: &[Finding]) -> bool {
    findings.iter().any(Finding::is_error)
}

/// Render findings as one rustc-style report, one blank line apart.
#[must_use]
pub fn report(findings: &[Finding]) -> String {
    findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_model::{build_iteration, BertConfig, GraphOptions};

    #[test]
    fn clean_stream_has_no_findings() {
        let cfg = BertConfig::tiny();
        let opts = GraphOptions::default();
        let findings = check_iteration(&cfg, &opts, &build_iteration(&cfg, &opts));
        assert!(findings.is_empty(), "{}", report(&findings));
    }

    #[test]
    fn report_joins_findings() {
        let mut ops = build_iteration(&BertConfig::tiny(), &GraphOptions::default());
        let i = ops.iter().position(OpRecord::is_gemm).unwrap();
        ops[i].flops = 1;
        let findings = check_stream(&ops);
        assert!(has_errors(&findings));
        assert!(report(&findings).contains("error[C001]"));
    }
}
