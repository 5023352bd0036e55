//! The training step and the inference pass, described once. Each call
//! records its whole computation — embeddings, every transformer layer,
//! both output heads, the loss, the full backward chain, the
//! gradient-observer boundaries — as one [`TaskGraph`]: named tasks with
//! buffer provenance ([`AccessSet`]s over fresh dataflow tokens). The graph
//! then runs one of two ways:
//!
//! * **Inline** (the default): [`TaskGraph::run_inline`] runs each task on
//!   the calling thread in submission order, and kernels spread over the
//!   whole worker pool. This is eager execution.
//! * **Scheduled** ([`crate::TrainOptions::graph`]): [`TaskGraph::run`]
//!   dispatches ready tasks onto the pool, each body internally serial, so
//!   independent tasks retire concurrently.
//!
//! Three properties hold by construction:
//!
//! * **Bit identity.** Both executors run the same task bodies, values move
//!   between tasks through rendezvous cells, and every kernel is
//!   bit-identical at any pool size — so losses, gradients and the trace
//!   are identical between the two modes at any worker count.
//! * **Deterministic observer order.** The backward chain is serialized by
//!   its `dy` dataflow, so gradient groups retire heads → layers (last to
//!   first) → embeddings in both modes, and backward/AllReduce overlap
//!   ([`crate::defer`]) composes with inter-op parallelism unchanged.
//! * **Short lifetimes.** Most values pass through single-use cells that
//!   their consumer empties, so they are freed when it retires. A
//!   checkpointed segment's recompute reads the upstream gradient, so even
//!   the scheduler cannot run it before backward reaches the segment.
//!
//! Every task is one model unit: the embedding block, one transformer
//! layer's forward or backward, a checkpoint segment's recompute, or an
//! output head.

use crate::bert::{top1_accuracy, Bert, EmbeddingActs, EvalOutput, StepOutput};
use crate::data::PretrainBatch;
use crate::defer::GradObserver;
use crate::layer::{layer_bwd, layer_fwd, LayerActivations, LayerParams};
use crate::params::{EmbeddingParams, HeadParams, Params};
use bertscope_kernels::activation::{gelu_bwd, gelu_fwd, tanh_bwd, tanh_fwd};
use bertscope_kernels::dropout::dropout_bwd;
use bertscope_kernels::embedding::embedding_bwd;
use bertscope_kernels::linear::{linear_bwd, linear_fwd};
use bertscope_kernels::loss::{cross_entropy_bwd, cross_entropy_fwd, CrossEntropyState};
use bertscope_kernels::norm::{layernorm_bwd, layernorm_fwd, LayerNormState};
use bertscope_kernels::{KernelCtx, Result};
use bertscope_model::checkpoint_segments;
use bertscope_tensor::sched::{Slot, TaskGraph};
use bertscope_tensor::{
    gemm, gemm_ep, AccessSet, BufId, Buffer, Category, DType, Epilogue, GemmEpilogue, GemmSpec,
    OpKind, Phase, Tensor, TensorError, Tracer, Transpose,
};
use std::sync::Mutex;

/// Multi-consumer rendezvous cell: `put` once, every `get` clones. Used
/// for values with more than one downstream task (sequence output feeding
/// both heads; a layer input feeding attention and its residual).
#[derive(Debug)]
struct Shared<T>(Mutex<Option<T>>);

impl<T: Clone> Shared<T> {
    fn new() -> Self {
        Shared(Mutex::new(None))
    }

    fn put(&self, value: T) {
        *self.0.lock().expect("graph cell poisoned") = Some(value);
    }

    fn get(&self) -> Option<T> {
        self.0.lock().expect("graph cell poisoned").clone()
    }
}

/// First-error-wins cell shared by every task body. Once set, downstream
/// bodies fast-fail without executing kernels, and the error surfaces as
/// the step's `Err` after the graph quiesces.
#[derive(Debug)]
struct ErrCell(Mutex<Option<TensorError>>);

impl ErrCell {
    fn new() -> Self {
        ErrCell(Mutex::new(None))
    }

    fn set(&self, e: TensorError) {
        let mut slot = self.0.lock().expect("error cell poisoned");
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    fn is_set(&self) -> bool {
        self.0.lock().expect("error cell poisoned").is_some()
    }

    fn take(&self) -> Option<TensorError> {
        self.0.lock().expect("error cell poisoned").take()
    }
}

/// Wrap a fallible task body: skip execution when an earlier task already
/// failed, and record the first error instead of panicking.
fn guarded<'s>(
    err: &'s ErrCell,
    body: impl FnOnce(&mut Tracer) -> Result<()> + Send + 's,
) -> impl FnOnce(&mut Tracer) + Send + 's {
    move |tr| {
        if err.is_set() {
            return;
        }
        if let Err(e) = body(tr) {
            err.set(e);
        }
    }
}

/// MLM-head forward results the MLM backward task consumes.
struct MlmFwd {
    mlm_h: Tensor,
    mlm_g: Tensor,
    mlm_n: Tensor,
    ln_state: LayerNormState,
    xent: CrossEntropyState,
}

/// NSP-head forward results the NSP backward task consumes.
struct NspFwd {
    cls_rows: Tensor,
    pooled: Tensor,
    xent: CrossEntropyState,
}

/// NSP-head gradients, handed to the MLM backward task (which scatters the
/// [CLS]-row gradient and reports the combined heads group).
struct NspBwd {
    d_cls_rows: Tensor,
    pooler_w: Tensor,
    pooler_b: Tensor,
    cls_w: Tensor,
    cls_b: Tensor,
}

/// A loss gradient multiplied by the loss scale; an unscaled loss (scale
/// exactly 1) skips the multiply.
fn loss_scaled(d_logits: Tensor, scale: f32) -> Tensor {
    if scale.to_bits() == 1f32.to_bits() {
        d_logits
    } else {
        d_logits.scale(scale)
    }
}

/// MLM head forward on the sequence output: dense, `GeLU`, `LayerNorm`, the
/// tied decoder GEMM and the loss. Returns the loss, the logits and what
/// the MLM backward task consumes.
fn mlm_head_fwd(
    this: &Bert,
    tr: &mut Tracer,
    seq_out: &Tensor,
    batch: &PretrainBatch,
) -> Result<(f32, Tensor, MlmFwd)> {
    let t = this.cfg.tokens();
    let d = this.cfg.d_model;
    let out_ctx = this.kctx("mlm", Category::Output, Phase::Forward);
    let heads = &this.params.heads;
    let mlm_h = linear_fwd(
        tr,
        &this.kctx("mlm.dense", Category::Output, Phase::Forward),
        seq_out,
        &heads.mlm_dense_w,
        Some(&heads.mlm_dense_b),
    )?;
    let mlm_g = gelu_fwd(tr, &out_ctx, &mlm_h)?;
    let (mlm_n, ln_state) =
        layernorm_fwd(tr, &out_ctx, &mlm_g, &heads.mlm_ln_gamma, &heads.mlm_ln_beta, 1e-5)?;
    // Tied decoder: logits = x * W_word^T + b.
    let logits = gemm_ep(
        Transpose::No,
        Transpose::Yes,
        1.0,
        &mlm_n,
        &this.params.emb.word,
        0.0,
        None,
        GemmEpilogue::Bias(heads.decoder_bias.as_slice()),
    )?;
    this.kctx("mlm.decoder", Category::Output, Phase::Forward).trace_gemm_acc(
        tr,
        "gemm",
        GemmSpec::new(Transpose::No, Transpose::Yes, this.cfg.vocab, t, d)
            .with_epilogue(Epilogue::Bias),
        AccessSet::new(
            &[mlm_n.buf_id(), this.params.emb.word.buf_id(), heads.decoder_bias.buf_id()],
            &[logits.buf_id()],
        ),
    );
    let xent_ctx = KernelCtx::new("mlm", Category::Output, Phase::Forward).dtype(DType::F32);
    let (loss, xent) = cross_entropy_fwd(tr, &xent_ctx, &logits, &batch.mlm_targets)?;
    Ok((loss, logits, MlmFwd { mlm_h, mlm_g, mlm_n, ln_state, xent }))
}

/// NSP head forward on the [CLS] rows: pooler, tanh, classifier and the
/// loss. Returns the loss, the logits and what the NSP backward task
/// consumes.
fn nsp_head_fwd(
    this: &Bert,
    tr: &mut Tracer,
    seq_out: &Tensor,
    batch: &PretrainBatch,
) -> Result<(f32, Tensor, NspFwd)> {
    let nsp_ctx = this.kctx("nsp", Category::Output, Phase::Forward);
    let cls_rows = this.gather_cls(tr, seq_out)?;
    let pooled_pre = linear_fwd(
        tr,
        &this.kctx("nsp.pooler", Category::Output, Phase::Forward),
        &cls_rows,
        &this.params.heads.pooler_w,
        Some(&this.params.heads.pooler_b),
    )?;
    let pooled = tanh_fwd(tr, &nsp_ctx, &pooled_pre)?;
    let logits = linear_fwd(
        tr,
        &this.kctx("nsp.classifier", Category::Output, Phase::Forward),
        &pooled,
        &this.params.heads.cls_w,
        Some(&this.params.heads.cls_b),
    )?;
    let xent_ctx = KernelCtx::new("nsp", Category::Output, Phase::Forward).dtype(DType::F32);
    let (loss, xent) = cross_entropy_fwd(tr, &xent_ctx, &logits, &batch.nsp_labels)?;
    Ok((loss, logits, NspFwd { cls_rows, pooled, xent }))
}

/// Rendezvous cells and dataflow tokens for one recorded training step.
struct TrainStorage {
    x: Vec<Shared<Tensor>>,
    emb_acts: Slot<EmbeddingActs>,
    acts: Vec<Slot<LayerActivations>>,
    segs: Vec<Slot<Tensor>>,
    mlm_fwd: Slot<MlmFwd>,
    nsp_fwd: Slot<NspFwd>,
    nsp_bwd: Slot<NspBwd>,
    dy: Vec<Slot<Tensor>>,
    dwd: Slot<Tensor>,
    grads: Vec<Slot<LayerParams>>,
    heads: Slot<HeadParams>,
    emb_out: Slot<EmbeddingParams>,
    loss_mlm: Slot<f32>,
    loss_nsp: Slot<f32>,
    err: ErrCell,
    b_x: Vec<BufId>,
    b_act: Vec<BufId>,
    b_seg: Vec<BufId>,
    b_dy: Vec<BufId>,
    b_grad: Vec<BufId>,
    b_emb_acts: BufId,
    b_mlm: BufId,
    b_nsp: BufId,
    b_nsp_bwd: BufId,
    b_dwd: BufId,
    b_heads: BufId,
    b_emb_out: BufId,
}

impl TrainStorage {
    fn new(layers: usize, segs: usize) -> Self {
        TrainStorage {
            x: (0..=layers).map(|_| Shared::new()).collect(),
            emb_acts: Slot::new(),
            acts: (0..layers).map(|_| Slot::new()).collect(),
            segs: (0..segs).map(|_| Slot::new()).collect(),
            mlm_fwd: Slot::new(),
            nsp_fwd: Slot::new(),
            nsp_bwd: Slot::new(),
            dy: (0..=layers).map(|_| Slot::new()).collect(),
            dwd: Slot::new(),
            grads: (0..layers).map(|_| Slot::new()).collect(),
            heads: Slot::new(),
            emb_out: Slot::new(),
            loss_mlm: Slot::new(),
            loss_nsp: Slot::new(),
            err: ErrCell::new(),
            b_x: (0..=layers).map(|_| BufId::fresh()).collect(),
            b_act: (0..layers).map(|_| BufId::fresh()).collect(),
            b_seg: (0..segs).map(|_| BufId::fresh()).collect(),
            b_dy: (0..=layers).map(|_| BufId::fresh()).collect(),
            b_grad: (0..layers).map(|_| BufId::fresh()).collect(),
            b_emb_acts: BufId::fresh(),
            b_mlm: BufId::fresh(),
            b_nsp: BufId::fresh(),
            b_nsp_bwd: BufId::fresh(),
            b_dwd: BufId::fresh(),
            b_heads: BufId::fresh(),
            b_emb_out: BufId::fresh(),
        }
    }
}

/// Run a recorded graph: on the scheduler under
/// [`crate::TrainOptions::graph`], otherwise inline.
fn execute(this: &Bert, graph: TaskGraph<'_>, tracer: &mut Tracer) {
    if this.opts.graph {
        graph.run(tracer);
    } else {
        graph.run_inline(tracer);
    }
}

/// Record and run the forward-only evaluation graph ([`Bert::evaluate`]).
pub(crate) fn run_eval_graph(
    this: &Bert,
    tracer: &mut Tracer,
    batch: &PretrainBatch,
) -> Result<EvalOutput> {
    let mask = this.attention_mask(batch)?;
    let st = EvalStorage::new(this);
    execute(this, build_eval_graph(this, batch, &mask, &st), tracer);
    if let Some(e) = st.err.take() {
        return Err(e);
    }
    let (mlm_loss, mlm_accuracy) = st.mlm_out.take().expect("mlm head retired");
    let (nsp_loss, nsp_accuracy) = st.nsp_out.take().expect("nsp head retired");
    Ok(EvalOutput { mlm_loss, nsp_loss, mlm_accuracy, nsp_accuracy })
}

/// Record and run the training graph ([`Bert::train_step_observed`]).
/// Shared-borrows the model throughout (task bodies capture `&Bert`); the
/// caller applies the returned gradients to the model afterwards.
#[allow(clippy::too_many_lines)]
pub(crate) fn run_train_graph(
    this: &Bert,
    tracer: &mut Tracer,
    batch: &PretrainBatch,
    mask: &Tensor,
    seed0: u64,
    observer: Option<&mut dyn GradObserver>,
) -> Result<(StepOutput, Params)> {
    let layers = this.cfg.layers;
    let checkpoint = this.opts.checkpoint;
    let n_segs = checkpoint_segments(layers);
    let per_seg = layers.div_ceil(n_segs);
    let st = TrainStorage::new(layers, n_segs);
    let st = &st;
    let obs = Mutex::new(observer);
    let obs = &obs;
    let err = &st.err;

    let mut graph = TaskGraph::new();

    // ---- Forward ----
    graph.submit(
        "fwd.emb",
        AccessSet::new(&[], &[st.b_x[0], st.b_emb_acts]),
        guarded(err, move |tr| {
            let (x0, ea) = this.embedding_fwd_pass(tr, batch, this.opts.dropout_p, seed0)?;
            st.x[0].put(x0);
            st.emb_acts.put(ea);
            Ok(())
        }),
    );
    for l in 0..layers {
        let boundary = checkpoint && l % per_seg == 0;
        let mut writes = vec![st.b_x[l + 1]];
        if boundary {
            writes.push(st.b_seg[l / per_seg]);
        }
        if !checkpoint {
            writes.push(st.b_act[l]);
        }
        graph.submit(
            format!("fwd.l{l}"),
            AccessSet::new(&[st.b_x[l]], &writes),
            guarded(err, move |tr| {
                let Some(x) = st.x[l].get() else { return Ok(()) };
                if boundary {
                    st.segs[l / per_seg].put(x.clone());
                }
                let lc = this.layer_ctx(l, false);
                let (y, a) =
                    layer_fwd(tr, &lc, &this.params.layers[l], &x, Some(mask), seed0 + l as u64)?;
                if !checkpoint {
                    st.acts[l].put(a);
                }
                st.x[l + 1].put(y);
                Ok(())
            }),
        );
    }

    // ---- Output heads forward ----
    graph.submit(
        "fwd.heads.mlm",
        AccessSet::new(&[st.b_x[layers]], &[st.b_mlm]),
        guarded(err, move |tr| {
            let Some(seq_out) = st.x[layers].get() else { return Ok(()) };
            let (loss, _, fwd) = mlm_head_fwd(this, tr, &seq_out, batch)?;
            st.loss_mlm.put(loss);
            st.mlm_fwd.put(fwd);
            Ok(())
        }),
    );
    graph.submit(
        "fwd.heads.nsp",
        AccessSet::new(&[st.b_x[layers]], &[st.b_nsp]),
        guarded(err, move |tr| {
            let Some(seq_out) = st.x[layers].get() else { return Ok(()) };
            let (loss, _, fwd) = nsp_head_fwd(this, tr, &seq_out, batch)?;
            st.loss_nsp.put(loss);
            st.nsp_fwd.put(fwd);
            Ok(())
        }),
    );

    // ---- Backward: heads (NSP first) ----
    graph.submit(
        "bwd.heads.nsp",
        AccessSet::new(&[st.b_nsp], &[st.b_nsp_bwd]),
        guarded(err, move |tr| {
            let Some(NspFwd { cls_rows, pooled, xent }) = st.nsp_fwd.take() else {
                return Ok(());
            };
            let nsp_bwd_ctx =
                KernelCtx::new("nsp", Category::Output, Phase::Backward).dtype(DType::F32);
            let d_nsp_logits =
                loss_scaled(cross_entropy_bwd(tr, &nsp_bwd_ctx, &xent)?, this.opts.loss_scale);
            let (d_pooled, cls_w, cls_b) = linear_bwd(
                tr,
                &this.kctx("nsp.classifier", Category::Output, Phase::Backward),
                &pooled,
                &this.params.heads.cls_w,
                &d_nsp_logits,
                true,
            )?;
            let cls_b = cls_b.expect("bias requested");
            let nsp_bwd = this.kctx("nsp", Category::Output, Phase::Backward);
            let d_pooled_pre = tanh_bwd(tr, &nsp_bwd, &pooled, &d_pooled)?;
            let (d_cls_rows, pooler_w, pooler_b) = linear_bwd(
                tr,
                &this.kctx("nsp.pooler", Category::Output, Phase::Backward),
                &cls_rows,
                &this.params.heads.pooler_w,
                &d_pooled_pre,
                true,
            )?;
            let pooler_b = pooler_b.expect("bias requested");
            st.nsp_bwd.put(NspBwd { d_cls_rows, pooler_w, pooler_b, cls_w, cls_b });
            Ok(())
        }),
    );
    graph.submit(
        "bwd.heads.mlm",
        AccessSet::new(
            &[st.b_mlm, st.b_x[layers], st.b_nsp_bwd],
            &[st.b_dy[layers], st.b_dwd, st.b_heads],
        ),
        guarded(err, move |tr| {
            let Some(MlmFwd { mlm_h, mlm_g, mlm_n, ln_state, xent }) = st.mlm_fwd.take() else {
                return Ok(());
            };
            let Some(seq_out) = st.x[layers].get() else { return Ok(()) };
            let Some(NspBwd { d_cls_rows, pooler_w, pooler_b, cls_w, cls_b }) = st.nsp_bwd.take()
            else {
                return Ok(());
            };
            let t = this.cfg.tokens();
            let d = this.cfg.d_model;
            let dt = this.act_dtype();
            let mlm_bwd_ctx =
                KernelCtx::new("mlm", Category::Output, Phase::Backward).dtype(DType::F32);
            let d_logits =
                loss_scaled(cross_entropy_bwd(tr, &mlm_bwd_ctx, &xent)?, this.opts.loss_scale);
            let d_mlm_n = gemm(
                Transpose::No,
                Transpose::No,
                1.0,
                &d_logits,
                &this.params.emb.word,
                0.0,
                None,
            )?;
            let dec_bwd = this.kctx("mlm.decoder", Category::Output, Phase::Backward);
            dec_bwd.trace_gemm_acc(
                tr,
                "grad_act",
                GemmSpec::new(Transpose::No, Transpose::No, d, t, this.cfg.vocab),
                AccessSet::new(
                    &[d_logits.buf_id(), this.params.emb.word.buf_id()],
                    &[d_mlm_n.buf_id()],
                ),
            );
            let d_word_from_decoder =
                gemm(Transpose::Yes, Transpose::No, 1.0, &d_logits, &mlm_n, 0.0, None)?;
            dec_bwd.trace_gemm_acc(
                tr,
                "grad_wt",
                GemmSpec::new(Transpose::Yes, Transpose::No, this.cfg.vocab, d, t),
                AccessSet::new(
                    &[d_logits.buf_id(), mlm_n.buf_id()],
                    &[d_word_from_decoder.buf_id()],
                ),
            );
            let decoder_bias = {
                let mut acc = Buffer::zeroed(this.cfg.vocab);
                for row in d_logits.as_slice().chunks(this.cfg.vocab) {
                    for (a, &v) in acc.iter_mut().zip(row) {
                        *a += v;
                    }
                }
                let es = dt.size_bytes();
                dec_bwd.trace_acc(
                    tr,
                    "grad_bias",
                    OpKind::Reduction,
                    (t * this.cfg.vocab) as u64,
                    (t * this.cfg.vocab) as u64 * es,
                    this.cfg.vocab as u64 * 4,
                    AccessSet::new(&[d_logits.buf_id()], &[acc.id()]),
                );
                Tensor::from_buffer(acc, &[this.cfg.vocab])?
            };
            let out_bwd = this.kctx("mlm", Category::Output, Phase::Backward);
            let heads = &this.params.heads;
            let (d_mlm_g, mlm_ln_gamma, mlm_ln_beta) =
                layernorm_bwd(tr, &out_bwd, &mlm_g, &heads.mlm_ln_gamma, &ln_state, &d_mlm_n)?;
            let d_mlm_h = gelu_bwd(tr, &out_bwd, &mlm_h, &d_mlm_g)?;
            let (mut d_seq, mlm_dense_w, mlm_dense_b) = linear_bwd(
                tr,
                &this.kctx("mlm.dense", Category::Output, Phase::Backward),
                &seq_out,
                &heads.mlm_dense_w,
                &d_mlm_h,
                true,
            )?;
            let mlm_dense_b = mlm_dense_b.expect("bias requested");
            this.scatter_cls(tr, &mut d_seq, &d_cls_rows);
            let grads = HeadParams {
                mlm_dense_w,
                mlm_dense_b,
                mlm_ln_gamma,
                mlm_ln_beta,
                decoder_bias,
                pooler_w,
                pooler_b,
                cls_w,
                cls_b,
            };
            // The heads group retires here, first.
            if let Some(o) = obs.lock().expect("observer cell poisoned").as_deref_mut() {
                o.group_ready(Params::layer_base(layers), &grads.tensors());
            }
            st.dy[layers].put(d_seq);
            st.dwd.put(d_word_from_decoder);
            st.heads.put(grads);
            Ok(())
        }),
    );

    // ---- Backward: transformer layers ----
    // One task per layer in both modes; the dy dataflow serializes the
    // chain, which is what keeps observer retirement deterministic.
    macro_rules! submit_bwd_layer {
        ($l:expr) => {{
            let l = $l;
            graph.submit(
                format!("bwd.l{l}"),
                AccessSet::new(&[st.b_act[l], st.b_dy[l + 1]], &[st.b_dy[l], st.b_grad[l]]),
                guarded(err, move |tr| {
                    let Some(a) = st.acts[l].take() else { return Ok(()) };
                    let Some(dy) = st.dy[l + 1].take() else { return Ok(()) };
                    let lc = this.layer_ctx(l, false);
                    let (dx, g) = layer_bwd(tr, &lc, &this.params.layers[l], &a, &dy)?;
                    if let Some(o) = obs.lock().expect("observer cell poisoned").as_deref_mut() {
                        o.group_ready(Params::layer_base(l), &g.tensors());
                    }
                    st.grads[l].put(g);
                    st.dy[l].put(dx);
                    Ok(())
                }),
            );
        }};
    }
    if checkpoint {
        let mut starts: Vec<usize> = (0..layers).step_by(per_seg).collect();
        starts.reverse();
        for start in starts {
            let end = (start + per_seg).min(layers);
            let seg = start / per_seg;
            let writes: Vec<BufId> = (start..end).map(|l| st.b_act[l]).collect();
            // Reading the segment's upstream gradient holds the recompute
            // back until backward reaches the segment, so its activations
            // are never live longer than they are needed.
            graph.submit(
                format!("bwd.recompute.s{start}"),
                AccessSet::new(&[st.b_seg[seg], st.b_dy[end]], &writes),
                guarded(err, move |tr| {
                    let Some(mut xin) = st.segs[seg].take() else { return Ok(()) };
                    let mut tmp = Tracer::new();
                    for l in start..end {
                        let lc = this.layer_ctx(l, false);
                        let (y, a) = layer_fwd(
                            &mut tmp,
                            &lc,
                            &this.params.layers[l],
                            &xin,
                            Some(mask),
                            seed0 + l as u64,
                        )?;
                        st.acts[l].put(a);
                        xin = y;
                    }
                    tr.extend(tmp.into_records().into_iter().map(|mut r| {
                        r.phase = Phase::Recompute;
                        r
                    }));
                    Ok(())
                }),
            );
            for l in (start..end).rev() {
                submit_bwd_layer!(l);
            }
        }
    } else {
        for l in (0..layers).rev() {
            submit_bwd_layer!(l);
        }
    }

    // ---- Backward: embeddings (retires last) ----
    graph.submit(
        "bwd.emb",
        AccessSet::new(&[st.b_dy[0], st.b_emb_acts, st.b_dwd], &[st.b_emb_out]),
        guarded(err, move |tr| {
            let Some(dy) = st.dy[0].take() else { return Ok(()) };
            let Some(ea) = st.emb_acts.take() else { return Ok(()) };
            let Some(dwd) = st.dwd.take() else { return Ok(()) };
            let d = this.cfg.d_model;
            let emb_bwd = this.kctx("emb", Category::Embedding, Phase::Backward);
            let d_normed = dropout_bwd(tr, &emb_bwd, &ea.drop, &dy)?;
            let (d_sum2, ln_gamma, ln_beta) = layernorm_bwd(
                tr,
                &emb_bwd,
                &ea.sum2,
                &this.params.emb.ln_gamma,
                &ea.ln_state,
                &d_normed,
            )?;
            let mut word =
                embedding_bwd(tr, &emb_bwd, &[this.cfg.vocab, d], &batch.input_ids, &d_sum2)?;
            let position = embedding_bwd(
                tr,
                &emb_bwd,
                &[this.cfg.max_position, d],
                &batch.position_ids,
                &d_sum2,
            )?;
            let segment = embedding_bwd(tr, &emb_bwd, &[2, d], &batch.segment_ids, &d_sum2)?;
            word.axpy(1.0, &dwd)?;
            let grads = EmbeddingParams { word, position, segment, ln_gamma, ln_beta };
            if let Some(o) = obs.lock().expect("observer cell poisoned").as_deref_mut() {
                o.group_ready(0, &grads.tensors());
            }
            st.emb_out.put(grads);
            Ok(())
        }),
    );

    execute(this, graph, tracer);

    if let Some(e) = st.err.take() {
        return Err(e);
    }
    let mlm_loss = st.loss_mlm.take().expect("mlm head retired");
    let nsp_loss = st.loss_nsp.take().expect("nsp head retired");
    let grads = Params {
        emb: st.emb_out.take().expect("embedding backward retired"),
        layers: st.grads.iter().map(|s| s.take().expect("layer backward retired")).collect(),
        heads: st.heads.take().expect("heads backward retired"),
    };
    Ok((StepOutput { loss: mlm_loss + nsp_loss, mlm_loss, nsp_loss }, grads))
}

/// Rendezvous cells and dataflow tokens for one recorded inference pass.
struct EvalStorage {
    x: Vec<Shared<Tensor>>,
    mlm_out: Slot<(f32, f32)>,
    nsp_out: Slot<(f32, f32)>,
    err: ErrCell,
    b_x: Vec<BufId>,
    b_mlm: BufId,
    b_nsp: BufId,
}

impl EvalStorage {
    fn new(this: &Bert) -> Self {
        let layers = this.config().layers;
        EvalStorage {
            x: (0..=layers).map(|_| Shared::new()).collect(),
            mlm_out: Slot::new(),
            nsp_out: Slot::new(),
            err: ErrCell::new(),
            b_x: (0..=layers).map(|_| BufId::fresh()).collect(),
            b_mlm: BufId::fresh(),
            b_nsp: BufId::fresh(),
        }
    }
}

/// Record the forward-only graph (dropout disabled, no activations saved).
fn build_eval_graph<'s>(
    this: &'s Bert,
    batch: &'s PretrainBatch,
    mask: &'s Tensor,
    st: &'s EvalStorage,
) -> TaskGraph<'s> {
    let layers = this.cfg.layers;
    let err = &st.err;
    let mut graph = TaskGraph::new();
    graph.submit(
        "fwd.emb",
        AccessSet::new(&[], &[st.b_x[0]]),
        guarded(err, move |tr| {
            let (x0, _) = this.embedding_fwd_pass(tr, batch, 0.0, 0)?;
            st.x[0].put(x0);
            Ok(())
        }),
    );
    for l in 0..layers {
        graph.submit(
            format!("fwd.l{l}"),
            AccessSet::new(&[st.b_x[l]], &[st.b_x[l + 1]]),
            guarded(err, move |tr| {
                let Some(x) = st.x[l].get() else { return Ok(()) };
                let lc = this.layer_ctx(l, true);
                let (y, _) = layer_fwd(tr, &lc, &this.params.layers[l], &x, Some(mask), 0)?;
                st.x[l + 1].put(y);
                Ok(())
            }),
        );
    }
    graph.submit(
        "fwd.heads.mlm",
        AccessSet::new(&[st.b_x[layers]], &[st.b_mlm]),
        guarded(err, move |tr| {
            let Some(seq_out) = st.x[layers].get() else { return Ok(()) };
            let (loss, logits, _) = mlm_head_fwd(this, tr, &seq_out, batch)?;
            st.mlm_out.put((loss, top1_accuracy(&logits, this.cfg.vocab, &batch.mlm_targets)));
            Ok(())
        }),
    );
    graph.submit(
        "fwd.heads.nsp",
        AccessSet::new(&[st.b_x[layers]], &[st.b_nsp]),
        guarded(err, move |tr| {
            let Some(seq_out) = st.x[layers].get() else { return Ok(()) };
            let (loss, logits, _) = nsp_head_fwd(this, tr, &seq_out, batch)?;
            st.nsp_out.put((loss, top1_accuracy(&logits, 2, &batch.nsp_labels)));
            Ok(())
        }),
    );
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bert::TrainOptions;
    use crate::data::SyntheticCorpus;
    use bertscope_model::BertConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(opts: TrainOptions) -> (Bert, PretrainBatch) {
        let cfg = BertConfig::tiny();
        let corpus = SyntheticCorpus::new(cfg.vocab);
        let mut rng = StdRng::seed_from_u64(11);
        let batch = corpus.generate_batch(&mut rng, &cfg);
        (Bert::new(cfg, opts, 5), batch)
    }

    fn grads_of(bert: &mut Bert) -> Vec<Tensor> {
        bert.param_slots().iter().map(|s| s.grad.clone()).collect()
    }

    #[test]
    fn scheduled_step_is_bit_identical_to_inline() {
        let (mut inline, batch) = setup(TrainOptions::default());
        let (mut scheduled, _) = setup(TrainOptions { graph: true, ..TrainOptions::default() });
        let mut tr = Tracer::disabled();
        let oi = inline.train_step(&mut tr, &batch).unwrap();
        let os = scheduled.train_step(&mut tr, &batch).unwrap();
        assert_eq!(oi.loss.to_bits(), os.loss.to_bits());
        assert_eq!(oi.mlm_loss.to_bits(), os.mlm_loss.to_bits());
        assert_eq!(oi.nsp_loss.to_bits(), os.nsp_loss.to_bits());
        let (gi, gs) = (grads_of(&mut inline), grads_of(&mut scheduled));
        for (a, b) in gi.iter().zip(&gs) {
            assert_eq!(a.as_slice(), b.as_slice(), "gradient mismatch");
        }
    }

    #[test]
    fn checkpointed_scheduled_step_matches_inline_checkpointed() {
        let opts = TrainOptions { checkpoint: true, ..TrainOptions::default() };
        let (mut inline, batch) = setup(opts);
        let (mut scheduled, _) = setup(TrainOptions { graph: true, ..opts });
        let mut tr_i = Tracer::new();
        let mut tr_s = Tracer::new();
        let oi = inline.train_step(&mut tr_i, &batch).unwrap();
        let os = scheduled.train_step(&mut tr_s, &batch).unwrap();
        assert_eq!(oi.loss.to_bits(), os.loss.to_bits());
        assert_eq!(tr_i.kernel_count(), tr_s.kernel_count());
        assert!(tr_s.records().iter().any(|r| r.phase == Phase::Recompute));
        for (a, b) in grads_of(&mut inline).iter().zip(&grads_of(&mut scheduled)) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn scheduled_evaluate_matches_inline() {
        let (inline, batch) = setup(TrainOptions::default());
        let (scheduled, _) = setup(TrainOptions { graph: true, ..TrainOptions::default() });
        let mut tr = Tracer::disabled();
        let base = inline.evaluate(&mut tr, &batch).unwrap();
        let out = scheduled.evaluate(&mut tr, &batch).unwrap();
        assert_eq!(base.mlm_loss.to_bits(), out.mlm_loss.to_bits());
        assert_eq!(base.nsp_loss.to_bits(), out.nsp_loss.to_bits());
        assert_eq!(base.mlm_accuracy.to_bits(), out.mlm_accuracy.to_bits());
        assert_eq!(base.nsp_accuracy.to_bits(), out.nsp_accuracy.to_bits());
    }

    #[test]
    fn scheduled_observer_order_matches_inline() {
        #[derive(Default)]
        struct Record(Vec<usize>);
        impl GradObserver for Record {
            fn group_ready(&mut self, base_slot: usize, _grads: &[&Tensor]) {
                self.0.push(base_slot);
            }
        }
        let (mut inline, batch) = setup(TrainOptions::default());
        let (mut scheduled, _) = setup(TrainOptions { graph: true, ..TrainOptions::default() });
        let mut tr = Tracer::disabled();
        let mut oi = Record::default();
        let mut os = Record::default();
        inline.train_step_observed(&mut tr, &batch, Some(&mut oi)).unwrap();
        scheduled.train_step_observed(&mut tr, &batch, Some(&mut os)).unwrap();
        assert!(!oi.0.is_empty());
        assert_eq!(oi.0, os.0, "group retirement order must match inline");
    }
}
