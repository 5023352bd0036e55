//! F-series: fusion-legality verification.
//!
//! The scheduler's fusion planner (`bertscope_tensor::sched::plan_fusion`)
//! groups chains of tasks — bias+GeLU, residual+LayerNorm — that could run
//! as single dispatches; `racecheck --sched` plans such fused orders over
//! the analytic streams. Merging is only legal when the dependence DAG
//! proves nothing can observe the intermediate state: the fused ops must
//! be **adjacent** in submission order (so the merged node occupies a
//! contiguous span and no edge can invert), each producer's **sole**
//! dependence successor must be its fused consumer (RAW, WAR and WAW all
//! counted — anything else waiting on the producer would deadlock or
//! race), and every member must carry buffer provenance (an opaque op is a
//! scheduling barrier and must stay one). [`check_fusion`] re-proves all
//! three conditions from the op stream itself, independently of the
//! planner — the same trust-but-verify loop `racecheck --sched` closes for
//! emitted schedules.

use crate::deps::DepGraph;
use crate::finding::Finding;
use crate::rules::RuleId;
use bertscope_tensor::OpRecord;

/// Verify a claimed fusion grouping (original op ids per post-fusion task,
/// e.g. what `bertscope_tensor::sched::plan_fusion` returns) against the
/// dependence DAG reconstructed from `ops`. Returns one error-severity
/// F001 finding per violated condition; an empty vec means every merged
/// group is provably legal. Groups must cover `0..ops.len()` exactly once,
/// in submission order — a malformed cover is itself reported.
#[must_use]
pub fn check_fusion(ops: &[OpRecord], groups: &[Vec<usize>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let covered: Vec<usize> = groups.iter().flatten().copied().collect();
    if covered != (0..ops.len()).collect::<Vec<_>>() {
        findings.push(Finding::err(
            RuleId::FusionLegality,
            format!(
                "fusion groups do not cover the stream: {} ids over {} ops",
                covered.len(),
                ops.len()
            ),
        ));
        return findings;
    }
    let graph = DepGraph::build(ops);
    let succs = graph.successors();
    for group in groups.iter().filter(|g| g.len() > 1) {
        for pair in group.windows(2) {
            let (producer, consumer) = (pair[0], pair[1]);
            if consumer != producer + 1 {
                findings.push(
                    Finding::err(
                        RuleId::FusionLegality,
                        format!(
                            "fused ops {producer} and {consumer} are not adjacent in \
                             submission order"
                        ),
                    )
                    .at(producer, &ops[producer]),
                );
                continue;
            }
            if ops[producer].access.is_empty() || ops[consumer].access.is_empty() {
                findings.push(
                    Finding::err(
                        RuleId::FusionLegality,
                        "fused op has opaque provenance and must remain a scheduling barrier",
                    )
                    .at(producer, &ops[producer]),
                );
                continue;
            }
            let mut others: Vec<usize> =
                succs[producer].iter().copied().filter(|&s| s != consumer).collect();
            others.sort_unstable();
            others.dedup();
            if !others.is_empty() {
                findings.push(
                    Finding::err(
                        RuleId::FusionLegality,
                        format!(
                            "producer op {producer} has dependence successors besides its \
                             fused consumer {consumer}"
                        ),
                    )
                    .at(producer, &ops[producer])
                    .with_note(format!(
                        "also feeds op{} {}",
                        if others.len() == 1 { "" } else { "s" },
                        others
                            .iter()
                            .map(|&s| format!("#{s} `{}`", ops[s].name))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )),
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_tensor::{AccessSet, BufId, Category, DType, OpKind, Phase};

    fn op(name: &str, reads: &[BufId], writes: &[BufId]) -> OpRecord {
        OpRecord {
            access: AccessSet::new(reads, writes),
            name: name.into(),
            kind: OpKind::ElementWise,
            category: Category::Gelu,
            phase: Phase::Forward,
            layer: None,
            gemm: None,
            flops: 1,
            bytes_read: 4,
            bytes_written: 4,
            dtype: DType::F32,
        }
    }

    fn bufs<const N: usize>() -> [BufId; N] {
        std::array::from_fn(|_| BufId::fresh())
    }

    #[test]
    fn legal_sole_consumer_chain_passes() {
        let [a, b, c] = bufs();
        let ops = vec![op("fc1", &[], &[a]), op("gelu", &[a], &[b]), op("fc2", &[b], &[c])];
        assert!(check_fusion(&ops, &[vec![0, 1], vec![2]]).is_empty());
    }

    #[test]
    fn extra_successor_fires_f001_with_the_witness() {
        let [a, b, c] = bufs();
        // `fc1`'s output feeds both `gelu` and `saver`: fusing fc1+gelu
        // would hide the value `saver` still needs.
        let ops = vec![op("fc1", &[], &[a]), op("gelu", &[a], &[b]), op("saver", &[a], &[c])];
        let findings = check_fusion(&ops, &[vec![0, 1], vec![2]]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule.code(), "F001");
        assert!(findings[0].note.as_deref().unwrap().contains("`saver`"), "{:?}", findings[0]);
    }

    #[test]
    fn non_adjacent_and_opaque_members_are_rejected() {
        let [a, b] = bufs();
        let ops = vec![op("w", &[], &[a]), op("mid", &[], &[b]), op("r", &[a], &[])];
        let non_adjacent = check_fusion(&ops, &[vec![0, 2], vec![1]]);
        assert!(!non_adjacent.is_empty(), "permuted cover must fail");

        let mut opaque = ops.clone();
        opaque[1].access = AccessSet::default();
        let findings = check_fusion(&opaque, &[vec![0], vec![1, 2]]);
        assert!(
            findings.iter().any(|f| f.message.contains("opaque")),
            "opaque member must fire: {findings:?}"
        );
    }

    #[test]
    fn malformed_cover_is_reported() {
        let [a] = bufs();
        let ops = vec![op("w", &[], &[a])];
        let findings = check_fusion(&ops, &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("do not cover"));
    }
}
