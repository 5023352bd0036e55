//! The suite's central cross-validation: executing one real training step
//! must produce exactly the operation stream the analytic graph predicts.
//!
//! Every figure in the reproduction is driven by the analytic graph
//! (`bertscope_model::build_iteration`); this test pins that graph to the
//! executable substrate (`bertscope_train`) — our equivalent of the paper
//! validating its analytical model against rocProf measurements (§5.1-5.2).

use bertscope_model::{build_iteration, BertConfig, GraphOptions, OptimizerChoice, Precision};
use bertscope_tensor::{Category, DType, OpKind, OpRecord, Phase, Tracer};
use bertscope_train::{Bert, Lamb, SyntheticCorpus, TrainOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The comparable signature of an op: everything except its name and layer
/// attribution (names differ cosmetically between the two producers).
type Sig = (OpKind, Category, Phase, u64, u64, u64, DType);

fn signature(op: &OpRecord) -> Sig {
    (op.kind, op.category, op.phase, op.flops, op.bytes_read, op.bytes_written, op.dtype)
}

fn executed_trace(cfg: BertConfig, opts: TrainOptions) -> Vec<OpRecord> {
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(7);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let mut bert = Bert::new(cfg, opts, 3);
    let mut tracer = Tracer::new();
    bert.train_step(&mut tracer, &batch).expect("train step");
    // The optimizer contributes the update-phase kernels.
    let mut opt = Lamb::new(0.001);
    opt.grad_scale = opts.loss_scale;
    let mut slots = bert.param_slots();
    opt.step(&mut tracer, &mut slots);
    tracer
        .into_records()
        .into_iter()
        .filter(|r| r.kind != OpKind::Copy) // the graph does not model copies
        .collect()
}

fn compare(cfg: BertConfig, train_opts: TrainOptions, graph_opts: GraphOptions) {
    let trace = executed_trace(cfg, train_opts);
    let graph = build_iteration(&cfg, &graph_opts);
    assert_eq!(
        trace.len(),
        graph.len(),
        "kernel counts diverge: executed {} vs analytic {}",
        trace.len(),
        graph.len()
    );
    for (i, (t, g)) in trace.iter().zip(&graph).enumerate() {
        assert_eq!(
            signature(t),
            signature(g),
            "op #{i} diverges:\n  executed: {} {:?}\n  analytic: {} {:?}",
            t.name,
            signature(t),
            g.name,
            signature(g)
        );
        // GEMM specs must agree exactly (dims and transposes) — Table 2b.
        assert_eq!(t.gemm, g.gemm, "op #{i} GEMM spec: {} vs {}", t.name, g.name);
    }
}

fn graph_opts(precision: Precision, checkpoint: bool, fused_qkv: bool) -> GraphOptions {
    GraphOptions {
        precision,
        optimizer: OptimizerChoice::Lamb,
        checkpoint,
        fused_qkv,
        // The executable substrate runs the fused GeLU kernel.
        fused_gelu: true,
        fused_epilogue: false,
    }
}

#[test]
fn fp32_trace_matches_graph() {
    compare(BertConfig::tiny(), TrainOptions::default(), graph_opts(Precision::Fp32, false, false));
}

#[test]
fn mixed_precision_trace_matches_graph() {
    compare(
        BertConfig::tiny(),
        TrainOptions { precision: Precision::Mixed, loss_scale: 64.0, ..TrainOptions::default() },
        graph_opts(Precision::Mixed, false, false),
    );
}

#[test]
fn fused_qkv_trace_matches_graph() {
    compare(
        BertConfig::tiny(),
        TrainOptions { fused_qkv: true, ..TrainOptions::default() },
        graph_opts(Precision::Fp32, false, true),
    );
}

#[test]
fn fused_epilogue_trace_matches_graph() {
    // Bias+GeLU folds into FC-1 and scale+mask into the score B-GEMM on
    // both sides; the graph must mirror every epilogue tag exactly.
    compare(
        BertConfig::tiny(),
        TrainOptions { fused_epilogue: true, ..TrainOptions::default() },
        GraphOptions { fused_epilogue: true, ..graph_opts(Precision::Fp32, false, false) },
    );
}

#[test]
fn fused_epilogue_checkpointed_trace_matches_graph() {
    // Recomputed forwards must carry the same fused epilogues as the
    // original forward pass.
    compare(
        BertConfig::tiny(),
        TrainOptions { fused_epilogue: true, checkpoint: true, ..TrainOptions::default() },
        GraphOptions { fused_epilogue: true, ..graph_opts(Precision::Fp32, true, false) },
    );
}

#[test]
fn checkpointed_trace_matches_graph() {
    compare(
        BertConfig::tiny(),
        TrainOptions { checkpoint: true, ..TrainOptions::default() },
        graph_opts(Precision::Fp32, true, false),
    );
}

#[test]
fn a_wider_deeper_config_also_matches() {
    // Different head counts, layer counts and asymmetric dims exercise the
    // shape algebra differently.
    let cfg = BertConfig {
        layers: 3,
        d_model: 48,
        heads: 6,
        d_ff: 96,
        vocab: 131,
        max_position: 40,
        seq_len: 20,
        batch: 3,
    };
    compare(cfg, TrainOptions::default(), graph_opts(Precision::Fp32, false, false));
}

/// The cross-mode projection of a record: everything except buffer
/// provenance. Every allocation mints a fresh buffer id, so two runs of the
/// same step never share ids; every other facet of the stream — names,
/// kinds, phases, layer attribution, GEMM specs, FLOP/byte counts, dtypes —
/// must be identical, in order.
fn graph_mode_sig(op: &OpRecord) -> (String, Option<usize>, Sig) {
    (op.name.clone(), op.layer, signature(op))
}

/// The recorded step run on the scheduler (`TrainOptions::graph`), its
/// per-task records merged in submission order, must produce the same op
/// stream the inline (eager) run records directly.
fn graph_trace_matches_eager(opts: TrainOptions) {
    let cfg = BertConfig::tiny();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(7);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let mut inline = Bert::new(cfg, opts, 3);
    let mut scheduled = Bert::new(cfg, TrainOptions { graph: true, ..opts }, 3);
    let mut tr_i = Tracer::new();
    let mut tr_s = Tracer::new();
    inline.train_step(&mut tr_i, &batch).expect("inline step");
    scheduled.train_step(&mut tr_s, &batch).expect("scheduled step");
    let ti = tr_i.into_records();
    let ts = tr_s.into_records();
    assert_eq!(
        ti.len(),
        ts.len(),
        "kernel counts diverge: inline {} vs scheduled {}",
        ti.len(),
        ts.len()
    );
    for (i, (a, b)) in ti.iter().zip(&ts).enumerate() {
        assert_eq!(
            graph_mode_sig(a),
            graph_mode_sig(b),
            "op #{i} diverges between inline and scheduled execution"
        );
        assert_eq!(a.gemm, b.gemm, "op #{i} GEMM spec: {} vs {}", a.name, b.name);
    }
}

#[test]
fn whole_model_graph_trace_matches_eager_checkpointed() {
    graph_trace_matches_eager(TrainOptions { checkpoint: true, ..TrainOptions::default() });
}

#[test]
fn whole_model_graph_trace_matches_eager_fused_epilogue() {
    graph_trace_matches_eager(TrainOptions { fused_epilogue: true, ..TrainOptions::default() });
}

#[test]
fn whole_model_graph_trace_matches_eager() {
    graph_trace_matches_eager(TrainOptions::default());
}

#[test]
fn trace_and_graph_agree_on_aggregate_flops_and_bytes() {
    let cfg = BertConfig::tiny();
    let trace = executed_trace(cfg, TrainOptions::default());
    let graph = build_iteration(&cfg, &graph_opts(Precision::Fp32, false, false));
    let total = |ops: &[OpRecord]| -> (u64, u64) {
        (ops.iter().map(|o| o.flops).sum(), ops.iter().map(OpRecord::bytes_total).sum())
    };
    assert_eq!(total(&trace), total(&graph));
}
