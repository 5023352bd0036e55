//! The full executable BERT pre-training model: embeddings, Transformer
//! stack, masked-LM and next-sentence-prediction heads, loss, and a complete
//! hand-derived backward pass — with operation tracing throughout.
//!
//! This module holds the model's parameters, options and gradient plumbing;
//! the step itself is described once, as a recorded task graph, in
//! [`crate::graph`]. Its kernel sequence is the same sequence (minus pure
//! copies) that `bertscope_model::build_iteration` produces analytically;
//! the `trace_matches_graph` integration test enforces this.

use crate::data::PretrainBatch;
use crate::layer::{LayerCtx, LayerParams};
use crate::optim::ParamSlot;
use crate::params::{EmbeddingParams, HeadParams, Params};
use bertscope_kernels::elementwise::residual_add;
use bertscope_kernels::embedding::embedding_fwd;
use bertscope_kernels::norm::layernorm_fwd;
use bertscope_kernels::{KernelCtx, Result};
use bertscope_model::{BertConfig, Precision};
use bertscope_tensor::init::randn;
use bertscope_tensor::{
    AccessSet, Buffer, Category, DType, OpKind, OpRecord, Phase, Tensor, Tracer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Execution options for the trainable model.
#[derive(Debug, Clone, Copy)]
#[allow(
    clippy::struct_excessive_bools,
    reason = "independent switches; callers name every field in struct literals"
)]
pub struct TrainOptions {
    /// Numeric precision (mixed precision keeps f32 loss and optimizer).
    pub precision: Precision,
    /// Dropout probability (0 for deterministic tests).
    pub dropout_p: f32,
    /// Recompute layer activations during backprop from `sqrt(N)` segment
    /// checkpoints (paper §4).
    pub checkpoint: bool,
    /// Execute Q/K/V projections as one fused GEMM (paper §6.1.2).
    pub fused_qkv: bool,
    /// Fuse elementwise tails into GEMM writeback epilogues (paper §6.1.3):
    /// FC1's bias+GeLU and the attention-score scale+mask execute inside
    /// the producing GEMM instead of as separate memory-bound kernels.
    pub fused_epilogue: bool,
    /// Ignored. Concurrency between independent kernels comes from
    /// [`TrainOptions::graph`]. Kept only so existing struct literals build.
    pub deferred: bool,
    /// Loss scale applied to gradients in mixed precision.
    pub loss_scale: f32,
    /// Use decoder-style causal attention (paper §2.3: masks future tokens;
    /// identical kernel structure and cost to the encoder).
    pub causal_attention: bool,
    /// How the recorded step runs. Every step — forward, loss, backward,
    /// observer boundaries — is recorded as one task graph
    /// ([`crate::graph`]). `false` (the default) runs it eagerly: each task
    /// inline on the calling thread in program order, with kernels free to
    /// use the whole worker pool. `true` runs it on the
    /// `bertscope_tensor::sched` scheduler, with independent tasks retiring
    /// concurrently. Both are bit-identical at any thread count, and their
    /// traces are equal.
    pub graph: bool,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            precision: Precision::Fp32,
            dropout_p: 0.0,
            checkpoint: false,
            fused_qkv: false,
            fused_epilogue: false,
            deferred: false,
            loss_scale: 1.0,
            causal_attention: false,
            graph: false,
        }
    }
}

/// Losses returned by one training step.
#[derive(Debug, Clone, Copy)]
pub struct StepOutput {
    /// Total loss (MLM + NSP).
    pub loss: f32,
    /// Masked-LM cross-entropy.
    pub mlm_loss: f32,
    /// Next-sentence-prediction cross-entropy.
    pub nsp_loss: f32,
}

/// Evaluation metrics from a forward-only pass.
#[derive(Debug, Clone, Copy)]
pub struct EvalOutput {
    /// Masked-LM cross-entropy.
    pub mlm_loss: f32,
    /// NSP cross-entropy.
    pub nsp_loss: f32,
    /// Top-1 accuracy over masked positions.
    pub mlm_accuracy: f32,
    /// Top-1 accuracy of next-sentence prediction.
    pub nsp_accuracy: f32,
}

/// Top-1 accuracy of `logits` (`[rows, classes]`) against targets, skipping
/// [`bertscope_kernels::loss::IGNORE_INDEX`] rows. Returns 0 when no row is
/// active.
pub(crate) fn top1_accuracy(logits: &Tensor, classes: usize, targets: &[usize]) -> f32 {
    use bertscope_kernels::loss::IGNORE_INDEX;
    let mut correct = 0usize;
    let mut active = 0usize;
    for (row, &t) in logits.as_slice().chunks(classes).zip(targets) {
        if t == IGNORE_INDEX {
            continue;
        }
        active += 1;
        let argmax = row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(i, _)| i);
        if argmax == t {
            correct += 1;
        }
    }
    if active == 0 {
        0.0
    } else {
        correct as f32 / active as f32
    }
}

/// The executable BERT pre-training model.
#[derive(Debug)]
pub struct Bert {
    pub(crate) cfg: BertConfig,
    pub(crate) opts: TrainOptions,
    pub(crate) params: Params,
    /// The last step's gradients, in the same groups as `params`.
    pub(crate) grads: Option<Params>,
    /// Canonical slot names, built once from the inventory.
    names: Vec<String>,
    pub(crate) step: u64,
}

impl Bert {
    /// Initialize a model with BERT's initialization scheme.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` fails validation.
    #[must_use]
    pub fn new(cfg: BertConfig, opts: TrainOptions, seed: u64) -> Self {
        cfg.validate().expect("invalid configuration");
        let mut rng = StdRng::seed_from_u64(seed);
        let d = cfg.d_model;
        let std = 0.02;
        let emb = EmbeddingParams {
            word: randn(&mut rng, &[cfg.vocab, d], std),
            position: randn(&mut rng, &[cfg.max_position, d], std),
            segment: randn(&mut rng, &[2, d], std),
            ln_gamma: Tensor::ones(&[d]),
            ln_beta: Tensor::zeros(&[d]),
        };
        let heads = HeadParams {
            mlm_dense_w: randn(&mut rng, &[d, d], std),
            mlm_dense_b: Tensor::zeros(&[d]),
            mlm_ln_gamma: Tensor::ones(&[d]),
            mlm_ln_beta: Tensor::zeros(&[d]),
            decoder_bias: Tensor::zeros(&[cfg.vocab]),
            pooler_w: randn(&mut rng, &[d, d], std),
            pooler_b: Tensor::zeros(&[d]),
            cls_w: randn(&mut rng, &[d, 2], std),
            cls_b: Tensor::zeros(&[2]),
        };
        let layers = (0..cfg.layers).map(|_| LayerParams::init(&mut rng, &cfg)).collect();
        let mut params = Params { emb, layers, heads };
        let dt = opts.precision.activation_dtype();
        if dt.is_half() {
            for t in params.tensors_mut() {
                *t = t.to_dtype(dt);
            }
        }
        let names = Params::names(cfg.layers);
        Bert { cfg, opts, params, grads: None, names, step: 0 }
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &BertConfig {
        &self.cfg
    }

    /// The execution options.
    #[must_use]
    pub fn options(&self) -> &TrainOptions {
        &self.opts
    }

    /// Override the loss scale for subsequent steps (a dynamic scaler
    /// adjusts this between accumulation windows).
    pub fn set_loss_scale(&mut self, scale: f32) {
        self.opts.loss_scale = scale;
    }

    /// Number of training steps executed so far.
    #[must_use]
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Restore the step counter (checkpoint resume; the counter seeds the
    /// per-step dropout RNG, so a resumed run replays the same stream).
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    pub(crate) fn act_dtype(&self) -> DType {
        self.opts.precision.activation_dtype()
    }

    pub(crate) fn kctx(&self, name: &str, cat: Category, phase: Phase) -> KernelCtx {
        KernelCtx::new(name, cat, phase).dtype(self.act_dtype())
    }

    /// The context layer `layer`'s kernels run under; evaluation zeroes
    /// dropout.
    pub(crate) fn layer_ctx(&self, layer: usize, eval: bool) -> LayerCtx {
        LayerCtx::new(
            &self.cfg,
            layer,
            self.act_dtype(),
            if eval { 0.0 } else { self.opts.dropout_p },
            self.opts.fused_qkv,
            self.opts.fused_epilogue,
        )
    }

    /// Embedding forward: gather + sum + `LayerNorm` + dropout.
    pub(crate) fn embedding_fwd_pass(
        &self,
        tracer: &mut Tracer,
        batch: &PretrainBatch,
        dropout_p: f32,
        seed: u64,
    ) -> Result<(Tensor, EmbeddingActs)> {
        let fwd = Phase::Forward;
        let ctx = self.kctx("emb", Category::Embedding, fwd);
        let word = embedding_fwd(tracer, &ctx, &self.params.emb.word, &batch.input_ids)?;
        let pos = embedding_fwd(tracer, &ctx, &self.params.emb.position, &batch.position_ids)?;
        let seg = embedding_fwd(tracer, &ctx, &self.params.emb.segment, &batch.segment_ids)?;
        let sum1 = residual_add(tracer, &ctx, &word, &pos)?;
        let sum2 = residual_add(tracer, &ctx, &sum1, &seg)?;
        let (normed, ln_state) = layernorm_fwd(
            tracer,
            &ctx,
            &sum2,
            &self.params.emb.ln_gamma,
            &self.params.emb.ln_beta,
            1e-5,
        )?;
        let (x0, drop) =
            bertscope_kernels::dropout::dropout_fwd(tracer, &ctx, &normed, dropout_p, seed)?;
        Ok((x0, EmbeddingActs { sum2, ln_state, drop }))
    }

    /// One full training step: forward, loss, backward. Gradients are stored
    /// on the model; apply them with [`Bert::param_slots`] + an optimizer.
    /// The previous step's gradients are released when the next step
    /// begins, so a step never holds two of the model's gradient sets.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (shape mismatches indicate a bug).
    pub fn train_step(&mut self, tracer: &mut Tracer, batch: &PretrainBatch) -> Result<StepOutput> {
        self.train_step_observed(tracer, batch, None)
    }

    /// [`train_step`](Bert::train_step) with gradient-readiness reporting:
    /// as each gradient group retires during backward — the output heads,
    /// each transformer layer (last to first), finally the embeddings —
    /// `observer` is told the group's canonical slot base and final
    /// tensors. This is the hook backward/AllReduce overlap hangs off:
    /// a bucket's collective can start the moment its last writer retires,
    /// while backward continues on earlier layers.
    ///
    /// The step is recorded as a task graph and run inline, or on the
    /// scheduler under [`TrainOptions::graph`]. The previous step's
    /// gradients are released before the new step is recorded, so they do
    /// not stay alive through its forward and backward.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (shape mismatches indicate a bug).
    pub fn train_step_observed(
        &mut self,
        tracer: &mut Tracer,
        batch: &PretrainBatch,
        observer: Option<&mut dyn crate::defer::GradObserver>,
    ) -> Result<StepOutput> {
        self.step += 1;
        let seed0 = self.step * 1_000_003;
        // The mask is untraced constant data: compute it before recording.
        let mask = self.attention_mask(batch)?;
        self.grads = None;
        let (out, grads) =
            crate::graph::run_train_graph(self, tracer, batch, &mask, seed0, observer)?;
        self.grads = Some(grads);
        Ok(out)
    }

    /// Forward-only evaluation pass (paper §7's inference mode): dropout
    /// disabled, no activations saved, no gradients. Returns losses and
    /// top-1 accuracies for both pre-training tasks.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn evaluate(&self, tracer: &mut Tracer, batch: &PretrainBatch) -> Result<EvalOutput> {
        crate::graph::run_eval_graph(self, tracer, batch)
    }

    /// Build the additive attention mask for a batch: padding visibility
    /// from the batch's sequence lengths, combined with the causal mask for
    /// decoder-style models.
    pub(crate) fn attention_mask(&self, batch: &PretrainBatch) -> Result<Tensor> {
        use bertscope_kernels::masks::{causal_mask, combine, padding_mask};
        let dt = self.act_dtype();
        let pad = padding_mask(&batch.lengths, self.cfg.seq_len, self.cfg.heads, dt)?;
        if self.opts.causal_attention {
            let causal = causal_mask(self.cfg.batch, self.cfg.seq_len, self.cfg.heads, dt)?;
            combine(&pad, &causal)
        } else {
            Ok(pad)
        }
    }

    /// Gather the [CLS] (position 0) rows into `[B, d]`.
    pub(crate) fn gather_cls(&self, tracer: &mut Tracer, seq: &Tensor) -> Result<Tensor> {
        let (n, d, b) = (self.cfg.seq_len, self.cfg.d_model, self.cfg.batch);
        let mut out = Buffer::zeroed(b * d);
        for s in 0..b {
            out[s * d..(s + 1) * d].copy_from_slice(&seq.as_slice()[s * n * d..s * n * d + d]);
        }
        let ctx = self.kctx("nsp", Category::Output, Phase::Forward);
        let bytes = (b * d) as u64 * self.act_dtype().size_bytes();
        let access = AccessSet::new(&[seq.buf_id()], &[out.id()]);
        ctx.trace_acc(tracer, "gather_cls", OpKind::Copy, 0, bytes, bytes, access);
        Tensor::from_buffer(out, &[b, d])
    }

    /// Scatter [CLS]-row gradients back into the sequence gradient.
    pub(crate) fn scatter_cls(&self, tracer: &mut Tracer, d_seq: &mut Tensor, d_cls: &Tensor) {
        let (n, d, b) = (self.cfg.seq_len, self.cfg.d_model, self.cfg.batch);
        for s in 0..b {
            let dst = &mut d_seq.as_mut_slice()[s * n * d..s * n * d + d];
            for (x, &g) in dst.iter_mut().zip(&d_cls.as_slice()[s * d..(s + 1) * d]) {
                *x += g;
            }
        }
        let ctx = self.kctx("nsp", Category::Output, Phase::Backward);
        let bytes = (b * d) as u64 * self.act_dtype().size_bytes();
        let access = AccessSet::new(&[d_cls.buf_id()], &[d_seq.buf_id()]);
        ctx.trace_acc(tracer, "scatter_cls", OpKind::Copy, 0, bytes, bytes, access);
    }

    /// Enumerate `(name, parameter, gradient)` slots for the optimizers.
    /// The crate's parameter inventory is the one source of slot order:
    /// embeddings, layers `l0..`, output heads, which is the canonical
    /// `bertscope-model` order. Observer slot bases, checkpoints and
    /// [`Bert::param_values_mut`] follow the same order.
    ///
    /// # Panics
    ///
    /// Panics when called before any [`Bert::train_step`] (no gradients).
    #[must_use]
    pub fn param_slots(&mut self) -> Vec<ParamSlot<'_>> {
        let grads = self.grads.as_ref().expect("train_step before param_slots");
        self.names
            .iter()
            .zip(self.params.tensors_mut())
            .zip(grads.tensors())
            .map(|((name, value), grad)| ParamSlot { name, value, grad })
            .collect()
    }

    /// Mutable views of every parameter in canonical inventory order,
    /// without requiring gradients (usable on a freshly built model, unlike
    /// [`Bert::param_slots`]). This is the checkpoint export/import surface.
    #[must_use]
    pub fn param_values_mut(&mut self) -> Vec<(&str, &mut Tensor)> {
        self.names.iter().map(String::as_str).zip(self.params.tensors_mut()).collect()
    }

    /// Overwrite one element of the named parameter's gradient with
    /// `value` — the fault-injection hook. Returns `false` when the name is
    /// unknown or no gradients exist yet.
    pub fn corrupt_gradient(&mut self, name: &str, value: f32) -> bool {
        let Some(grads) = self.grads.as_mut() else { return false };
        let Some(slot) = self.names.iter().position(|n| n == name) else { return false };
        let grad = grads.tensors_mut().nth(slot).expect("one gradient per name");
        grad.as_mut_slice()[0] = value;
        true
    }

    /// Total learnable parameter count (matches the analytic inventory).
    #[must_use]
    pub fn parameter_count(&self) -> u64 {
        bertscope_model::parameter_count(&self.cfg)
    }
}

/// Saved embedding-layer activations.
#[derive(Debug, Clone)]
pub(crate) struct EmbeddingActs {
    pub(crate) sum2: Tensor,
    pub(crate) ln_state: bertscope_kernels::norm::LayerNormState,
    pub(crate) drop: bertscope_kernels::dropout::DropoutMask,
}

/// Strip pure data movements from a trace: the analytic graph does not model
/// copies, so cross-validation compares the arithmetic kernels only.
#[must_use]
pub fn non_copy_records(records: &[OpRecord]) -> Vec<OpRecord> {
    records.iter().filter(|r| r.kind != OpKind::Copy).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticCorpus;
    use crate::optim::{Lamb, Optimizer};

    fn tiny_setup(opts: TrainOptions) -> (Bert, SyntheticCorpus, PretrainBatch) {
        let cfg = BertConfig::tiny();
        let corpus = SyntheticCorpus::new(cfg.vocab);
        let mut rng = StdRng::seed_from_u64(11);
        let batch = corpus.generate_batch(&mut rng, &cfg);
        (Bert::new(cfg, opts, 5), corpus, batch)
    }

    #[test]
    fn train_step_produces_finite_losses_and_grads() {
        let (mut bert, _, batch) = tiny_setup(TrainOptions::default());
        let mut tr = Tracer::new();
        let out = bert.train_step(&mut tr, &batch).unwrap();
        assert!(out.loss.is_finite() && out.loss > 0.0);
        assert!(out.mlm_loss > 0.0 && out.nsp_loss > 0.0);
        // Initial MLM loss is near ln(vocab); NSP near ln(2).
        let expected = (bert.config().vocab as f32).ln();
        assert!((out.mlm_loss - expected).abs() < 2.0, "mlm {} vs ln(V) {expected}", out.mlm_loss);
        assert!((out.nsp_loss - 2f32.ln()).abs() < 0.5, "nsp {}", out.nsp_loss);
        for s in bert.param_slots() {
            assert!(s.grad.all_finite(), "{} grad not finite", s.name);
        }
        assert!(tr.kernel_count() > 50);
    }

    #[test]
    fn param_slots_match_model_inventory() {
        let (mut bert, _, batch) = tiny_setup(TrainOptions::default());
        let mut tr = Tracer::disabled();
        bert.train_step(&mut tr, &batch).unwrap();
        let inventory = bertscope_model::parameter_tensors(&BertConfig::tiny());
        let slots = bert.param_slots();
        assert_eq!(slots.len(), inventory.len());
        for (slot, tensor) in slots.iter().zip(&inventory) {
            assert_eq!(slot.name, tensor.name, "inventory order must match");
            assert_eq!(slot.value.numel() as u64, tensor.numel(), "{}", tensor.name);
            assert_eq!(slot.value.dims(), &tensor.dims[..], "{}", tensor.name);
        }
    }

    /// `BertConfig::tiny()` (two layers) and a three-layer variant, each
    /// with one step taken.
    fn stepped_models() -> Vec<Bert> {
        let tiny = BertConfig::tiny();
        [tiny, BertConfig { layers: 3, ..tiny }]
            .into_iter()
            .map(|cfg| {
                let batch = SyntheticCorpus::new(cfg.vocab)
                    .generate_batch(&mut StdRng::seed_from_u64(11), &cfg);
                let mut bert = Bert::new(cfg, TrainOptions::default(), 5);
                bert.train_step(&mut Tracer::disabled(), &batch).unwrap();
                bert
            })
            .collect()
    }

    fn grad_bits(bert: &mut Bert) -> Vec<Vec<u32>> {
        bert.param_slots()
            .iter()
            .map(|s| s.grad.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn param_values_follow_the_slot_order() {
        for mut bert in stepped_models() {
            let slots: Vec<String> = bert.param_slots().iter().map(|s| s.name.to_owned()).collect();
            let values: Vec<String> =
                bert.param_values_mut().iter().map(|(n, _)| (*n).to_owned()).collect();
            assert_eq!(values, slots);
        }
    }

    #[test]
    fn corrupt_gradient_changes_exactly_the_named_slot() {
        const POISON: f32 = -1234.5;
        for mut bert in stepped_models() {
            let names: Vec<String> = bert.param_slots().iter().map(|s| s.name.to_owned()).collect();
            for (i, name) in names.iter().enumerate() {
                let mut want = grad_bits(&mut bert);
                assert!(bert.corrupt_gradient(name, POISON), "{name} rejected");
                want[i][0] = POISON.to_bits();
                assert_eq!(grad_bits(&mut bert), want, "corrupting {name}");
            }
        }
    }

    #[test]
    fn corrupt_gradient_rejects_names_outside_the_inventory() {
        for mut bert in stepped_models() {
            let before = grad_bits(&mut bert);
            let past_last = format!("l{}.attn.wq", bert.config().layers);
            for name in [past_last.as_str(), "l0.attn.nope", "embeddings"] {
                assert!(!bert.corrupt_gradient(name, 1.0), "{name} accepted");
            }
            assert_eq!(grad_bits(&mut bert), before);
            let mut fresh = Bert::new(*bert.config(), TrainOptions::default(), 5);
            let names: Vec<String> = bert.param_slots().iter().map(|s| s.name.to_owned()).collect();
            for name in &names {
                assert!(!fresh.corrupt_gradient(name, 1.0), "{name} accepted before a step");
            }
        }
    }

    #[test]
    fn observer_groups_tile_the_slots_exactly_once() {
        #[derive(Default)]
        struct Groups(Vec<(usize, Vec<Vec<usize>>)>);
        impl crate::defer::GradObserver for Groups {
            fn group_ready(&mut self, base_slot: usize, grads: &[&Tensor]) {
                self.0.push((base_slot, grads.iter().map(|g| g.dims().to_vec()).collect()));
            }
        }
        for mut bert in stepped_models() {
            let cfg = *bert.config();
            let batch = SyntheticCorpus::new(cfg.vocab)
                .generate_batch(&mut StdRng::seed_from_u64(12), &cfg);
            let mut groups = Groups::default();
            bert.train_step_observed(&mut Tracer::disabled(), &batch, Some(&mut groups)).unwrap();
            groups.0.sort_by_key(|g| g.0);
            let slots = bert.param_slots();
            let mut next = 0;
            for (base, dims) in &groups.0 {
                assert_eq!(*base, next, "groups must tile the slots without gaps or overlaps");
                for (i, d) in dims.iter().enumerate() {
                    assert_eq!(slots[base + i].value.dims(), &d[..], "{}", slots[base + i].name);
                }
                next += dims.len();
            }
            assert_eq!(next, slots.len());
        }
    }

    #[test]
    fn loss_decreases_under_lamb() {
        // Two fixed batches, repeated: the model must be able to fit them
        // (memorization), demonstrating a correct end-to-end training loop.
        let (mut bert, corpus, _) = tiny_setup(TrainOptions::default());
        let mut rng = StdRng::seed_from_u64(99);
        let batches = [
            corpus.generate_batch(&mut rng, bert.config()),
            corpus.generate_batch(&mut rng, bert.config()),
        ];
        let mut opt = Lamb::new(0.05);
        let mut tr = Tracer::disabled();
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..20 {
            let out = bert.train_step(&mut tr, &batches[step % 2]).unwrap();
            if step < 2 {
                first += out.loss / 2.0;
            }
            last = out.loss;
            let mut slots = bert.param_slots();
            opt.step(&mut tr, &mut slots);
        }
        assert!(last < first - 0.5, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn checkpointed_step_matches_plain_step_numerically() {
        let (mut plain, _, batch) = tiny_setup(TrainOptions::default());
        let (mut ckpt, _, _) =
            tiny_setup(TrainOptions { checkpoint: true, ..TrainOptions::default() });
        let mut tr = Tracer::disabled();
        let o1 = plain.train_step(&mut tr, &batch).unwrap();
        let o2 = ckpt.train_step(&mut tr, &batch).unwrap();
        assert!((o1.loss - o2.loss).abs() < 1e-5);
        // Gradients agree too.
        let g1: Vec<Tensor> = plain.param_slots().iter().map(|s| s.grad.clone()).collect();
        let g2: Vec<Tensor> = ckpt.param_slots().iter().map(|s| s.grad.clone()).collect();
        for (a, b) in g1.iter().zip(&g2) {
            assert!(a.max_abs_diff(b).unwrap() < 1e-4);
        }
    }

    #[test]
    fn checkpointing_adds_recompute_kernels() {
        let (mut plain, _, batch) = tiny_setup(TrainOptions::default());
        let (mut ckpt, _, _) =
            tiny_setup(TrainOptions { checkpoint: true, ..TrainOptions::default() });
        let mut tr1 = Tracer::new();
        plain.train_step(&mut tr1, &batch).unwrap();
        let mut tr2 = Tracer::new();
        ckpt.train_step(&mut tr2, &batch).unwrap();
        assert!(tr2.kernel_count() > tr1.kernel_count());
        assert!(tr2.records().iter().any(|r| r.phase == Phase::Recompute));
        assert!(!tr1.records().iter().any(|r| r.phase == Phase::Recompute));
    }

    #[test]
    fn mixed_precision_step_runs_with_dynamic_loss_scaling() {
        use crate::scaler::LossScaler;
        let opts = TrainOptions { precision: Precision::Mixed, ..TrainOptions::default() };
        let (mut bert, _, batch) = tiny_setup(opts);
        // The scale now comes from a dynamic scaler rather than a hardcoded
        // 128.0: the model scales the loss, the optimizer divides it out.
        let scaler = LossScaler::dynamic(128.0);
        bert.set_loss_scale(scaler.scale());
        let mut tr = Tracer::new();
        let out = bert.train_step(&mut tr, &batch).unwrap();
        assert!(out.loss.is_finite());
        // Forward/backward kernels carry f16; loss and update stay f32.
        let f16_ops = tr.records().iter().filter(|r| r.dtype == DType::F16).count();
        assert!(f16_ops > 50, "most kernels run in f16, got {f16_ops}");
        let xent = tr.records().iter().find(|r| r.name.contains("xent")).unwrap();
        assert_eq!(xent.dtype, DType::F32);
        // Gradients are loss-scaled.
        let mut slots = bert.param_slots();
        let mut opt = Lamb::new(0.01);
        opt.set_grad_scale(scaler.scale());
        opt.step(&mut tr, &mut slots);
    }

    #[test]
    fn whole_model_gradient_check_on_micro_config() {
        // End-to-end finite-difference check through embeddings, attention,
        // FFN, heads and loss — the strongest correctness evidence for the
        // hand-derived backprop.
        let cfg = BertConfig {
            layers: 1,
            d_model: 8,
            heads: 2,
            d_ff: 16,
            vocab: 23,
            max_position: 8,
            seq_len: 6,
            batch: 2,
        };
        let corpus = SyntheticCorpus::new(cfg.vocab);
        let mut rng = StdRng::seed_from_u64(3);
        let batch = corpus.generate_batch(&mut rng, &cfg);
        let mut bert = Bert::new(cfg, TrainOptions::default(), 17);
        let mut tr = Tracer::disabled();
        bert.train_step(&mut tr, &batch).unwrap();

        // Pick a few parameters spread across the model and compare their
        // analytic gradient against finite differences of the loss.
        let probe = |bert: &mut Bert, name: &str, idx: usize, grad: f32| {
            let eps = 2e-2f32;
            let base = {
                let slot_val = |b: &mut Bert, delta: f32| {
                    {
                        let mut slots = b.param_slots();
                        let s = slots.iter_mut().find(|s| s.name == name).unwrap();
                        let v = s.value.as_slice()[idx];
                        s.value.as_mut_slice()[idx] = v + delta;
                    }
                    let mut t = Tracer::disabled();
                    let out = b.train_step(&mut t, &batch).unwrap();
                    {
                        let mut slots = b.param_slots();
                        let s = slots.iter_mut().find(|s| s.name == name).unwrap();
                        let v = s.value.as_slice()[idx];
                        s.value.as_mut_slice()[idx] = v - delta;
                    }
                    out.loss
                };
                let plus = slot_val(bert, eps);
                let minus = slot_val(bert, -eps);
                (plus - minus) / (2.0 * eps)
            };
            let denom = 1.0f32.max(base.abs()).max(grad.abs());
            assert!(
                (base - grad).abs() / denom < 0.08,
                "{name}[{idx}]: fd {base} vs analytic {grad}"
            );
        };
        let targets: Vec<(String, usize, f32)> = {
            let slots = bert.param_slots();
            [
                "l0.attn.wq",
                "l0.fc1.weight",
                "mlm.dense.weight",
                "embeddings.word",
                "nsp.pooler.weight",
                "l0.ln1.gamma",
            ]
            .iter()
            .map(|&n| {
                let s = slots.iter().find(|s| s.name == n).unwrap();
                let idx = s.grad.numel() / 2;
                (n.to_owned(), idx, s.grad.as_slice()[idx])
            })
            .collect()
        };
        for (name, idx, g) in targets {
            probe(&mut bert, &name, idx, g);
        }
    }
}
