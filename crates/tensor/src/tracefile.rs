//! Line-oriented serialization of traced operator streams.
//!
//! A multi-process training run produces one operator stream *per rank
//! process*; to race-check those streams after the fact (the `racecheck
//! --trace` path), each worker dumps its tracer to a file and the
//! analyzer re-reads it. The format is one tab-separated line per op:
//!
//! ```text
//! name  kind  category  phase  layer  flops  bytes_read  bytes_written \
//! dtype  reads  writes  allocs  frees
//! ```
//!
//! `layer` is `-` or an index; the four access columns are `-` or
//! comma-separated raw buffer ids. GEMM shape descriptors are not
//! serialized (the static analyses don't consume them); a parsed record
//! carries `gemm: None`.

use crate::dtype::DType;
use crate::trace::{AccessSet, BufId, Category, OpKind, OpRecord, Phase};

fn kind_str(k: OpKind) -> &'static str {
    match k {
        OpKind::Gemm => "gemm",
        OpKind::BatchedGemm => "batched-gemm",
        OpKind::ElementWise => "elementwise",
        OpKind::Reduction => "reduction",
        OpKind::Copy => "copy",
        OpKind::Comm => "comm",
    }
}

fn kind_parse(s: &str) -> Option<OpKind> {
    Some(match s {
        "gemm" => OpKind::Gemm,
        "batched-gemm" => OpKind::BatchedGemm,
        "elementwise" => OpKind::ElementWise,
        "reduction" => OpKind::Reduction,
        "copy" => OpKind::Copy,
        "comm" => OpKind::Comm,
        _ => return None,
    })
}

fn category_str(c: Category) -> &'static str {
    match c {
        Category::Embedding => "embedding",
        Category::AttnLinear => "attn-linear",
        Category::AttnBgemm => "attn-bgemm",
        Category::ScaleMaskSoftmaxDropout => "scale-mask-sm-dr",
        Category::FcGemm => "fc-gemm",
        Category::Gelu => "gelu",
        Category::DropResidualNorm => "dr-rc-ln",
        Category::Output => "output",
        Category::LambStage1 => "lamb-stage1",
        Category::LambStage2 => "lamb-stage2",
        Category::GradNorm => "grad-norm",
        Category::LossScale => "loss-scale",
        Category::Comm => "comm",
    }
}

fn category_parse(s: &str) -> Option<Category> {
    Some(match s {
        "embedding" => Category::Embedding,
        "attn-linear" => Category::AttnLinear,
        "attn-bgemm" => Category::AttnBgemm,
        "scale-mask-sm-dr" => Category::ScaleMaskSoftmaxDropout,
        "fc-gemm" => Category::FcGemm,
        "gelu" => Category::Gelu,
        "dr-rc-ln" => Category::DropResidualNorm,
        "output" => Category::Output,
        "lamb-stage1" => Category::LambStage1,
        "lamb-stage2" => Category::LambStage2,
        "grad-norm" => Category::GradNorm,
        "loss-scale" => Category::LossScale,
        "comm" => Category::Comm,
        _ => return None,
    })
}

fn phase_str(p: Phase) -> &'static str {
    match p {
        Phase::Forward => "fwd",
        Phase::Backward => "bwd",
        Phase::Recompute => "recompute",
        Phase::Update => "update",
        Phase::Communication => "comm",
    }
}

fn phase_parse(s: &str) -> Option<Phase> {
    Some(match s {
        "fwd" => Phase::Forward,
        "bwd" => Phase::Backward,
        "recompute" => Phase::Recompute,
        "update" => Phase::Update,
        "comm" => Phase::Communication,
        _ => return None,
    })
}

fn dtype_str(d: DType) -> &'static str {
    match d {
        DType::F32 => "f32",
        DType::F16 => "f16",
        DType::BF16 => "bf16",
    }
}

fn dtype_parse(s: &str) -> Option<DType> {
    Some(match s {
        "f32" => DType::F32,
        "f16" => DType::F16,
        "bf16" => DType::BF16,
        _ => return None,
    })
}

fn ids_str(ids: &[BufId]) -> String {
    if ids.is_empty() {
        "-".to_string()
    } else {
        ids.iter().map(|b| b.raw().to_string()).collect::<Vec<_>>().join(",")
    }
}

fn ids_parse(s: &str) -> Result<Vec<BufId>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|x| x.parse::<u64>().map(BufId::from_raw).map_err(|_| format!("bad buffer id `{x}`")))
        .collect()
}

/// Render one record as a trace line (no trailing newline). Tab characters
/// in the op name are replaced with spaces to keep the column structure.
#[must_use]
pub fn record_to_line(rec: &OpRecord) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        rec.name.replace('\t', " "),
        kind_str(rec.kind),
        category_str(rec.category),
        phase_str(rec.phase),
        rec.layer.map_or_else(|| "-".to_string(), |l| l.to_string()),
        rec.flops,
        rec.bytes_read,
        rec.bytes_written,
        dtype_str(rec.dtype),
        ids_str(&rec.access.reads),
        ids_str(&rec.access.writes),
        ids_str(&rec.access.allocs),
        ids_str(&rec.access.frees),
    )
}

/// Parse one trace line back into a record (`gemm` is always `None`).
///
/// # Errors
///
/// Returns a description of the malformed column.
pub fn record_from_line(line: &str) -> Result<OpRecord, String> {
    let cols: Vec<&str> = line.split('\t').collect();
    if cols.len() != 13 {
        return Err(format!("expected 13 columns, got {} in `{line}`", cols.len()));
    }
    let num = |i: usize| -> Result<u64, String> {
        cols[i].parse::<u64>().map_err(|_| format!("bad number `{}` in column {i}", cols[i]))
    };
    let layer = if cols[4] == "-" {
        None
    } else {
        Some(cols[4].parse::<usize>().map_err(|_| format!("bad layer `{}`", cols[4]))?)
    };
    Ok(OpRecord {
        name: cols[0].to_string(),
        kind: kind_parse(cols[1]).ok_or_else(|| format!("unknown kind `{}`", cols[1]))?,
        category: category_parse(cols[2])
            .ok_or_else(|| format!("unknown category `{}`", cols[2]))?,
        phase: phase_parse(cols[3]).ok_or_else(|| format!("unknown phase `{}`", cols[3]))?,
        layer,
        gemm: None,
        flops: num(5)?,
        bytes_read: num(6)?,
        bytes_written: num(7)?,
        dtype: dtype_parse(cols[8]).ok_or_else(|| format!("unknown dtype `{}`", cols[8]))?,
        access: AccessSet {
            reads: ids_parse(cols[9])?,
            writes: ids_parse(cols[10])?,
            allocs: ids_parse(cols[11])?,
            frees: ids_parse(cols[12])?,
        },
    })
}

/// Render a whole stream, one line per op, with a `#`-prefixed header.
#[must_use]
pub fn dump_records(records: &[OpRecord]) -> String {
    let mut out = String::from(
        "# bertscope trace v1: name kind category phase layer flops bytes_read bytes_written dtype reads writes allocs frees\n",
    );
    for rec in records {
        out.push_str(&record_to_line(rec));
        out.push('\n');
    }
    out
}

/// Parse a dumped stream; `#` comment lines and blank lines are skipped.
///
/// # Errors
///
/// Returns the first malformed line's description, with its line number.
pub fn parse_records(text: &str) -> Result<Vec<OpRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        out.push(record_from_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<OpRecord> {
        let b1 = BufId::fresh();
        let b2 = BufId::fresh();
        vec![
            OpRecord {
                name: "l0.fc1.fwd".into(),
                kind: OpKind::Gemm,
                category: Category::FcGemm,
                phase: Phase::Forward,
                layer: Some(0),
                gemm: None,
                flops: 1_000,
                bytes_read: 256,
                bytes_written: 128,
                dtype: DType::F16,
                access: AccessSet::new(&[b1], &[b2]),
            },
            OpRecord {
                name: "dist.allreduce grads".into(),
                kind: OpKind::Comm,
                category: Category::Comm,
                phase: Phase::Communication,
                layer: None,
                gemm: None,
                flops: 0,
                bytes_read: 512,
                bytes_written: 512,
                dtype: DType::F32,
                access: AccessSet {
                    reads: vec![b1, b2],
                    writes: vec![b1, b2],
                    allocs: vec![],
                    frees: vec![],
                },
            },
        ]
    }

    #[test]
    fn stream_roundtrips() {
        let records = sample();
        let text = dump_records(&records);
        let back = parse_records(&text).expect("parse");
        assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.category, b.category);
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.layer, b.layer);
            assert_eq!(a.flops, b.flops);
            assert_eq!(a.dtype, b.dtype);
            assert_eq!(a.access.reads, b.access.reads);
            assert_eq!(a.access.writes, b.access.writes);
        }
    }

    #[test]
    fn all_enum_variants_roundtrip() {
        for kind in [
            OpKind::Gemm,
            OpKind::BatchedGemm,
            OpKind::ElementWise,
            OpKind::Reduction,
            OpKind::Copy,
            OpKind::Comm,
        ] {
            assert_eq!(kind_parse(kind_str(kind)), Some(kind));
        }
        for cat in [
            Category::Embedding,
            Category::AttnLinear,
            Category::AttnBgemm,
            Category::ScaleMaskSoftmaxDropout,
            Category::FcGemm,
            Category::Gelu,
            Category::DropResidualNorm,
            Category::Output,
            Category::LambStage1,
            Category::LambStage2,
            Category::GradNorm,
            Category::LossScale,
            Category::Comm,
        ] {
            assert_eq!(category_parse(category_str(cat)), Some(cat));
        }
        for phase in
            [Phase::Forward, Phase::Backward, Phase::Recompute, Phase::Update, Phase::Communication]
        {
            assert_eq!(phase_parse(phase_str(phase)), Some(phase));
        }
        for dt in [DType::F32, DType::F16, DType::BF16] {
            assert_eq!(dtype_parse(dtype_str(dt)), Some(dt));
        }
    }

    #[test]
    fn malformed_lines_are_located() {
        let err = parse_records("# header\nbogus line").expect_err("must fail");
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(record_from_line("too\tfew\tcolumns").is_err());
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = format!("# c\n\n{}\n# trailing\n", record_to_line(&sample()[0]));
        assert_eq!(parse_records(&text).expect("parse").len(), 1);
    }

    mod fuzz {
        use super::*;
        use proptest::collection;
        use proptest::prelude::*;

        /// Text built from the format's own tokens, separators and
        /// arbitrary characters, so that many inputs get past the column
        /// count and into the per-column parsers.
        fn fuzz_text() -> impl Strategy<Value = String> {
            let tokens: Vec<&str> = "gemm elementwise comm fc-gemm gelu fwd bwd f32 bf16 - 0 7 \
                                     18446744073709551616 1,2 , #"
                .split(' ')
                .chain(["\t", "\n", " "])
                .collect();
            let part = (0..tokens.len() + 1, 0u32..0x11_0000);
            collection::vec(part, 0..40).prop_map(move |parts| {
                let mut text = String::new();
                for (t, c) in parts {
                    match tokens.get(t) {
                        Some(tok) => text.push_str(tok),
                        None => text.push(char::from_u32(c).unwrap_or('\u{fffd}')),
                    }
                }
                text
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// `racecheck --trace` reads trace files written by other
            /// processes: any text parses or returns a located error, never
            /// a panic. Half the inputs are a valid dump with characters
            /// deleted, inserted or cut off. A successful parse dumps back
            /// to text that parses to as many records.
            #[test]
            fn trace_text_never_panics(
                text in fuzz_text(),
                edits in collection::vec((0usize..4096, 0u32..0x11_0000, 0u8..3), 1..6),
                mutated in 0u8..2,
            ) {
                let input = if mutated == 1 {
                    let mut chars: Vec<char> = dump_records(&sample()).chars().collect();
                    for (at, c, op) in edits {
                        let at = at % (chars.len() + 1);
                        match op {
                            0 if at < chars.len() => {
                                chars.remove(at);
                            }
                            1 => chars.insert(at, char::from_u32(c).unwrap_or('\t')),
                            _ => chars.truncate(at),
                        }
                    }
                    chars.into_iter().collect()
                } else {
                    text
                };
                if let Ok(records) = parse_records(&input) {
                    let again = parse_records(&dump_records(&records)).map(|r| r.len());
                    prop_assert_eq!(again, Ok(records.len()));
                }
            }
        }
    }
}
