//! A fault-tolerant training driver with gradient accumulation: `k`
//! forward/backward micro-steps per optimizer update (the paper's §2.4
//! observation that LAMB "updates model weights once every (few)
//! iteration(s)"), wrapped in the robustness machinery real BERT runs use —
//! dynamic loss scaling with overflow-skip, a configurable
//! [`RecoveryPolicy`] for non-finite steps, deterministic fault injection,
//! and checkpoint/restore of the full training state.

use crate::bert::{Bert, StepOutput};
use crate::checkpoint::{ParamRecord, TrainCheckpoint};
use crate::error::{RecoveryPolicy, TrainError};
use crate::optim::{Optimizer, ParamSlot};
use crate::scaler::LossScaler;
use crate::sync::GradSync;
use bertscope_tensor::{FaultPlan, Tensor, Tracer};
use std::collections::HashMap;

/// What one [`Trainer::micro_step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// Gradients accumulated; the window is still open.
    Accumulated,
    /// The window closed and the optimizer applied an update.
    Updated,
    /// The window closed but the scaler found non-finite gradients: the
    /// update was skipped and the scale backed off.
    SkippedOverflow,
}

impl StepResult {
    /// Whether an optimizer update fired.
    #[must_use]
    pub fn updated(self) -> bool {
        self == StepResult::Updated
    }
}

/// Accumulates gradients across micro-steps and drives the optimizer once
/// per `accumulation_steps`, surviving non-finite steps per its
/// [`RecoveryPolicy`] and [`LossScaler`].
#[derive(Debug)]
pub struct Trainer<O> {
    optimizer: O,
    accumulation_steps: usize,
    scaler: LossScaler,
    policy: RecoveryPolicy,
    faults: FaultPlan,
    sync: Option<Box<dyn GradSync>>,
    sums: Vec<Tensor>,
    pending: usize,
    micro_steps: u64,
    updates: u64,
    skipped_updates: u64,
    retries: u64,
}

impl<O: Optimizer> Trainer<O> {
    /// A trainer applying `optimizer` every `accumulation_steps`
    /// micro-steps, with no loss scaling and the default skip-step policy.
    ///
    /// # Panics
    ///
    /// Panics when `accumulation_steps` is zero.
    #[must_use]
    pub fn new(optimizer: O, accumulation_steps: usize) -> Self {
        assert!(accumulation_steps > 0, "accumulation_steps must be non-zero");
        Trainer {
            optimizer,
            accumulation_steps,
            scaler: LossScaler::none(),
            policy: RecoveryPolicy::default(),
            faults: FaultPlan::new(),
            sync: None,
            sums: Vec::new(),
            pending: 0,
            micro_steps: 0,
            updates: 0,
            skipped_updates: 0,
            retries: 0,
        }
    }

    /// Use the given loss scaler (dynamic or fixed).
    #[must_use]
    pub fn with_scaler(mut self, scaler: LossScaler) -> Self {
        self.scaler = scaler;
        self
    }

    /// Use the given recovery policy for non-finite micro-steps.
    #[must_use]
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Install a deterministic fault-injection plan (testing hook).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Install a data-parallel gradient synchronizer: at every window
    /// close the locally averaged gradients are synchronized (globally
    /// averaged across ranks) *before* the scaler's finiteness check, so
    /// all replicas reach identical overflow decisions.
    #[must_use]
    pub fn with_sync(mut self, sync: Box<dyn GradSync>) -> Self {
        self.sync = Some(sync);
        self
    }

    /// Replace (or remove) the gradient synchronizer — the elastic
    /// recovery path, where a re-formed ring supersedes the old one.
    pub fn set_sync(&mut self, sync: Option<Box<dyn GradSync>>) {
        self.sync = sync;
    }

    /// Number of optimizer updates applied so far.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Number of accumulation windows the scaler skipped on overflow.
    #[must_use]
    pub fn skipped_updates(&self) -> u64 {
        self.skipped_updates
    }

    /// Number of micro-batch retries performed under
    /// [`RecoveryPolicy::RetryMicrobatch`].
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total micro-step attempts executed (including retried ones) — the
    /// counter fault plans key on.
    #[must_use]
    pub fn micro_steps(&self) -> u64 {
        self.micro_steps
    }

    /// Micro-steps accumulated in the currently open window.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Borrow the wrapped optimizer.
    #[must_use]
    pub fn optimizer(&self) -> &O {
        &self.optimizer
    }

    /// Borrow the loss scaler.
    #[must_use]
    pub fn scaler(&self) -> &LossScaler {
        &self.scaler
    }

    /// Run one micro-step: forward/backward on `batch`, accumulate the
    /// gradients, and when the accumulation window closes run the scaler's
    /// unscale/finiteness check and either apply the optimizer or skip the
    /// step. Returns the micro-step's losses and what happened.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors, and surfaces non-finite losses or
    /// gradients according to the configured [`RecoveryPolicy`]:
    /// [`RecoveryPolicy::Abort`] errors immediately,
    /// [`RecoveryPolicy::RetryMicrobatch`] errors once its attempts are
    /// exhausted, and [`RecoveryPolicy::SkipStep`] (the default) never
    /// errors on numerics — the window-close check skips the update
    /// instead.
    pub fn micro_step(
        &mut self,
        tracer: &mut Tracer,
        bert: &mut Bert,
        batch: &crate::data::PretrainBatch,
    ) -> Result<(StepOutput, StepResult), TrainError> {
        let mut attempts = 0usize;
        let out = loop {
            attempts += 1;
            bert.set_loss_scale(self.scaler.scale());
            let out = bert.train_step(tracer, batch)?;
            self.count_micro_step(bert);
            match self.first_non_finite(bert, out) {
                None => break out,
                Some(err) => match self.policy {
                    RecoveryPolicy::Abort => return Err(err),
                    RecoveryPolicy::RetryMicrobatch { max_retries } => {
                        if attempts > max_retries {
                            return Err(TrainError::RetriesExhausted {
                                step: self.micro_steps,
                                attempts,
                            });
                        }
                        self.retries += 1;
                        // Loop again: the attempt counter advanced, so a
                        // step-keyed fault does not refire.
                    }
                    // Accumulate the poisoned gradients; the window-close
                    // scaler check will skip the update.
                    RecoveryPolicy::SkipStep => break out,
                },
            }
        };
        self.accumulate(bert)?;
        if self.pending < self.accumulation_steps {
            return Ok((out, StepResult::Accumulated));
        }
        let result = self.close_window(tracer, bert)?;
        Ok((out, result))
    }

    /// [`micro_step`](Trainer::micro_step) with gradient-readiness
    /// reporting for backward/AllReduce overlap. As each gradient group
    /// retires during backward, `observer` receives the group's
    /// *window-averaged* gradients — `(sums + grad) / (pending + 1)`,
    /// computed with the same tensor ops the eager close performs, so a
    /// collective fired from the observer reduces bit-identical values.
    ///
    /// Unlike `micro_step`, a full window is **not** closed automatically:
    /// the caller overlaps the collectives with this very backward pass
    /// and must finish with either
    /// [`close_window_presynced`](Trainer::close_window_presynced) (the
    /// overlapped collectives succeeded) or
    /// [`close_window`](Trainer::close_window) (fallback: re-sync
    /// eagerly — the window's sums are intact). Returns the losses and
    /// whether the window is now full.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors and non-finite failures like `micro_step`;
    /// additionally returns [`TrainError::InvalidState`] under
    /// [`RecoveryPolicy::RetryMicrobatch`] — a retry would re-fire bucket
    /// collectives that are already in flight on other ranks, so per-rank
    /// micro-batch retry and overlap are mutually exclusive (real DDP has
    /// the same constraint).
    pub fn micro_step_observed(
        &mut self,
        tracer: &mut Tracer,
        bert: &mut Bert,
        batch: &crate::data::PretrainBatch,
        observer: &mut dyn crate::defer::GradObserver,
    ) -> Result<(StepOutput, bool), TrainError> {
        if matches!(self.policy, RecoveryPolicy::RetryMicrobatch { .. }) {
            return Err(TrainError::InvalidState(
                "overlapped micro-step cannot retry micro-batches: bucket collectives \
                 fired during backward cannot be unfired"
                    .into(),
            ));
        }
        bert.set_loss_scale(self.scaler.scale());
        let out = {
            let inv = 1.0 / (self.pending + 1) as f32;
            let mut averager = WindowAverager { sums: &self.sums, inv, inner: observer };
            bert.train_step_observed(tracer, batch, Some(&mut averager))?
        };
        self.count_micro_step(bert);
        // Abort on non-finite numbers; under SkipStep the post-sync scaler
        // check skips the update on every rank consistently (the poisoned
        // values were already reduced identically everywhere).
        if let Some(err) = self.first_non_finite(bert, out) {
            if matches!(self.policy, RecoveryPolicy::Abort) {
                return Err(err);
            }
        }
        self.accumulate(bert)?;
        Ok((out, self.pending >= self.accumulation_steps))
    }

    /// Close the open accumulation window: average the gradient sums,
    /// synchronize across ranks (when a [`GradSync`] is installed), run
    /// the scaler's unscale/finiteness check, and apply or skip the
    /// optimizer update.
    ///
    /// [`micro_step`](Trainer::micro_step) calls this automatically when
    /// the window fills; the method is public because a *failed* sync
    /// leaves the window's sums intact, so a distributed runtime can
    /// repair its communicator (elastic ring re-formation) and call
    /// `close_window` again to finish the interrupted step.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidState`] when no window is open, and
    /// [`TrainError::Sync`] when the synchronizer fails — the window
    /// survives that error and the close is retryable.
    pub fn close_window(
        &mut self,
        tracer: &mut Tracer,
        bert: &mut Bert,
    ) -> Result<StepResult, TrainError> {
        if self.pending == 0 {
            return Err(TrainError::InvalidState(
                "close_window with no accumulated micro-steps".into(),
            ));
        }
        // Average locally, then across ranks. Any sync failure before the
        // scaler check leaves `sums`/`pending` untouched: retryable.
        let inv = 1.0 / self.pending as f32;
        let mut averaged: Vec<Tensor> = self.sums.iter().map(|t| t.scale(inv)).collect();
        if let Some(sync) = &mut self.sync {
            sync.sync(tracer, &mut averaged)
                .map_err(|e| TrainError::Sync { step: self.micro_steps, reason: e.reason })?;
        }
        // The finiteness check runs on the *post-reduce* gradients, which
        // are bit-identical on every rank — so the replicas agree on the
        // skip decision without a separate vote.
        Ok(self.finish_window(tracer, bert, &averaged))
    }

    /// The post-sync half of [`close_window`](Trainer::close_window), for
    /// callers that already synchronized the window's averaged gradients —
    /// the backward/AllReduce-overlap path, where bucket collectives
    /// completed during backward and `synced` is their reassembled result.
    /// Runs the scaler's unscale/finiteness check and applies or skips the
    /// optimizer update, exactly as the eager close would after
    /// [`GradSync::sync`] returned.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidState`] when no window is open or when
    /// `synced` does not match the window's slot shapes. On error the
    /// window is left intact, so the eager `close_window` remains a valid
    /// fallback.
    pub fn close_window_presynced(
        &mut self,
        tracer: &mut Tracer,
        bert: &mut Bert,
        synced: &[Tensor],
    ) -> Result<StepResult, TrainError> {
        if self.pending == 0 {
            return Err(TrainError::InvalidState(
                "close_window_presynced with no accumulated micro-steps".into(),
            ));
        }
        if synced.len() != self.sums.len()
            || synced.iter().zip(&self.sums).any(|(a, b)| a.dims() != b.dims())
        {
            return Err(TrainError::InvalidState(
                "pre-synced gradients do not match the window's parameter slots".into(),
            ));
        }
        Ok(self.finish_window(tracer, bert, synced))
    }

    /// Count the micro-step just executed and apply the fault plan's
    /// gradient faults for it.
    fn count_micro_step(&mut self, bert: &mut Bert) {
        self.micro_steps += 1;
        for (param, value) in self.faults.gradient_faults_at(self.micro_steps) {
            assert!(
                bert.corrupt_gradient(param, value),
                "fault plan names unknown parameter `{param}`"
            );
        }
    }

    /// Add the micro-step's gradients to the open window's sums.
    fn accumulate(&mut self, bert: &mut Bert) -> Result<(), TrainError> {
        let slots = bert.param_slots();
        if self.sums.is_empty() {
            self.sums = slots.iter().map(|s| (*s.grad).clone()).collect();
        } else {
            for (sum, slot) in self.sums.iter_mut().zip(&slots) {
                sum.axpy(1.0, slot.grad)?;
            }
        }
        self.pending += 1;
        Ok(())
    }

    /// The common tail of both window closes: the scaler's
    /// unscale/finiteness check on the synchronized window averages, then
    /// the optimizer update or the overflow skip, then a fresh window.
    fn finish_window(
        &mut self,
        tracer: &mut Tracer,
        bert: &mut Bert,
        averaged: &[Tensor],
    ) -> StepResult {
        let result = if self.scaler.unscale_check(tracer, averaged) {
            // The optimizer must divide out the scale these gradients were
            // computed under; growth (if any) only affects the next window.
            let window_scale = self.scaler.scale();
            if self.scaler.on_clean_step() {
                self.scaler.trace_rescale(tracer);
            }
            let mut slots = bert.param_slots();
            let mut avg_slots: Vec<ParamSlot<'_>> = slots
                .iter_mut()
                .zip(averaged)
                .map(|(s, g)| ParamSlot { name: s.name, value: s.value, grad: g })
                .collect();
            self.optimizer.set_grad_scale(window_scale);
            self.optimizer.step(tracer, &mut avg_slots);
            self.updates += 1;
            StepResult::Updated
        } else {
            self.scaler.trace_overflow(tracer);
            self.scaler.on_overflow();
            self.skipped_updates += 1;
            StepResult::SkippedOverflow
        };
        self.sums.clear();
        self.pending = 0;
        result
    }

    /// First non-finite quantity of the just-executed micro-step, if any.
    fn first_non_finite(&self, bert: &mut Bert, out: StepOutput) -> Option<TrainError> {
        if !out.loss.is_finite() {
            return Some(TrainError::NonFiniteLoss { step: self.micro_steps, loss: out.loss });
        }
        bert.param_slots().iter().find(|s| !s.grad.all_finite()).map(|s| {
            TrainError::NonFiniteGradient { step: self.micro_steps, param: s.name.to_owned() }
        })
    }

    /// Capture the full training state — weights, optimizer moments, scaler
    /// and step counters — as a [`TrainCheckpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidState`] when the accumulation window is
    /// open: partial gradient sums are not part of the checkpoint format,
    /// so saving mid-window would silently drop them.
    pub fn checkpoint(&self, bert: &mut Bert) -> Result<TrainCheckpoint, TrainError> {
        if self.pending != 0 {
            return Err(TrainError::InvalidState(format!(
                "checkpoint with {} micro-steps pending; save at a window boundary",
                self.pending
            )));
        }
        let params = bert
            .param_values_mut()
            .into_iter()
            .map(|(name, t)| ParamRecord {
                name: name.to_owned(),
                dims: t.dims().to_vec(),
                dtype: t.dtype(),
                data: t.as_slice().to_vec(),
            })
            .collect();
        Ok(TrainCheckpoint {
            bert_step: bert.step(),
            micro_steps: self.micro_steps,
            updates: self.updates,
            skipped_updates: self.skipped_updates,
            retries: self.retries,
            scaler: self.scaler.export_state(),
            params,
            optimizer: self.optimizer.export_state(),
        })
    }

    /// Restore training state from a checkpoint into this trainer and the
    /// given model, discarding any open accumulation window. The whole
    /// checkpoint is validated before anything is applied, so a rejected
    /// checkpoint leaves the model and the trainer untouched.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Checkpoint`] when the checkpoint's parameter
    /// inventory (names, order, shapes, value counts) does not match the
    /// model's, or when an optimizer slot names no model parameter or has
    /// moment or master lengths other than that parameter's element count.
    pub fn restore(&mut self, ckpt: &TrainCheckpoint, bert: &mut Bert) -> Result<(), TrainError> {
        let mut values = bert.param_values_mut();
        if values.len() != ckpt.params.len() {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint has {} parameters, model has {}",
                ckpt.params.len(),
                values.len()
            )));
        }
        let mut numel: HashMap<&str, usize> = HashMap::with_capacity(values.len());
        let mut restored = Vec::with_capacity(values.len());
        for ((name, t), rec) in values.iter().zip(&ckpt.params) {
            if *name != rec.name {
                return Err(TrainError::Checkpoint(format!(
                    "parameter order mismatch: model `{name}` vs checkpoint `{}`",
                    rec.name
                )));
            }
            if t.dims() != &rec.dims[..] {
                return Err(TrainError::Checkpoint(format!(
                    "`{name}` shape mismatch: model {:?} vs checkpoint {:?}",
                    t.dims(),
                    rec.dims
                )));
            }
            // Stored values are already quantized to the logical dtype, so
            // the roundtrip through to_dtype is bit-exact.
            restored.push(Tensor::from_vec(rec.data.clone(), &rec.dims)?.to_dtype(rec.dtype));
            numel.insert(&rec.name, t.numel());
        }
        for slot in &ckpt.optimizer.slots {
            let Some(&n) = numel.get(slot.name.as_str()) else {
                return Err(TrainError::Checkpoint(format!(
                    "optimizer slot `{}` names no model parameter",
                    slot.name
                )));
            };
            for (field, len) in
                [("m", slot.m.len()), ("v", slot.v.len()), ("master", slot.master.len())]
            {
                if len != n {
                    return Err(TrainError::Checkpoint(format!(
                        "optimizer slot `{}`: {field} has {len} values, the parameter has {n}",
                        slot.name
                    )));
                }
            }
        }
        for ((_, t), new) in values.iter_mut().zip(restored) {
            **t = new;
        }
        drop(values);
        bert.set_step(ckpt.bert_step);
        self.micro_steps = ckpt.micro_steps;
        self.updates = ckpt.updates;
        self.skipped_updates = ckpt.skipped_updates;
        self.retries = ckpt.retries;
        self.scaler.import_state(ckpt.scaler);
        self.optimizer.import_state(ckpt.optimizer.clone());
        self.sums.clear();
        self.pending = 0;
        Ok(())
    }
}

/// Turns raw micro-step gradient groups into window-averaged ones before
/// forwarding them: `(sums[slot] + grad) * inv`, computed with the exact
/// tensor-op sequence (`clone` + `axpy` + `scale`) the eager window close
/// performs, so downstream collectives reduce bit-identical values.
struct WindowAverager<'a> {
    sums: &'a [Tensor],
    inv: f32,
    inner: &'a mut dyn crate::defer::GradObserver,
}

impl crate::defer::GradObserver for WindowAverager<'_> {
    fn group_ready(&mut self, base_slot: usize, grads: &[&Tensor]) {
        let averaged: Vec<Tensor> = grads
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let mut sum = if self.sums.is_empty() {
                    (*g).clone()
                } else {
                    let mut s = self.sums[base_slot + i].clone();
                    s.axpy(1.0, g).expect("gradient shapes are stable across micro-steps");
                    s
                };
                sum = sum.scale(self.inv);
                sum
            })
            .collect();
        let refs: Vec<&Tensor> = averaged.iter().collect();
        self.inner.group_ready(base_slot, &refs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bert::TrainOptions;
    use crate::data::SyntheticCorpus;
    use crate::optim::{Lamb, Sgd};
    use bertscope_model::BertConfig;
    use bertscope_tensor::{FaultKind, Phase};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Bert, SyntheticCorpus, crate::data::PretrainBatch) {
        let cfg = BertConfig::tiny();
        let corpus = SyntheticCorpus::new(cfg.vocab);
        let mut rng = StdRng::seed_from_u64(3);
        let batch = corpus.generate_batch(&mut rng, &cfg);
        (Bert::new(cfg, TrainOptions::default(), 9), corpus, batch)
    }

    #[test]
    fn updates_fire_once_per_window() {
        let (mut bert, _, batch) = setup();
        let mut trainer = Trainer::new(Lamb::new(0.01), 3);
        let mut tr = Tracer::new();
        let mut fired = Vec::new();
        for _ in 0..7 {
            let (_, result) = trainer.micro_step(&mut tr, &mut bert, &batch).expect("micro-step");
            fired.push(result.updated());
        }
        assert_eq!(fired, vec![false, false, true, false, false, true, false]);
        assert_eq!(trainer.updates(), 2);
        assert_eq!(trainer.skipped_updates(), 0);
        // Update-phase kernels appear exactly twice (norm + stages each).
        let norms = tr
            .records()
            .iter()
            .filter(|r| r.phase == Phase::Update && r.name.contains("grad_norm"))
            .count();
        assert_eq!(norms, 2);
    }

    #[test]
    fn accumulating_identical_microbatches_equals_one_step() {
        // k micro-steps on the same batch average to that batch's gradient,
        // so the resulting update matches a single-step trainer exactly.
        let (mut a, _, batch) = setup();
        let (mut b, _, _) = setup();
        let mut tr = Tracer::disabled();
        let mut acc = Trainer::new(Sgd::new(0.05), 2);
        acc.micro_step(&mut tr, &mut a, &batch).expect("micro-step");
        acc.micro_step(&mut tr, &mut a, &batch).expect("micro-step");
        let mut single = Trainer::new(Sgd::new(0.05), 1);
        single.micro_step(&mut tr, &mut b, &batch).expect("micro-step");
        for (sa, sb) in a.param_slots().iter().zip(&b.param_slots()) {
            assert!(
                sa.value.max_abs_diff(sb.value).unwrap() < 1e-6,
                "{} diverged between accumulated and single-step training",
                sa.name
            );
        }
    }

    #[test]
    fn accumulated_training_learns() {
        let (mut bert, corpus, _) = setup();
        let mut rng = StdRng::seed_from_u64(31);
        // Ensure both batches actually contain masked positions (a tiny
        // batch can roll zero masks).
        let has_masks = |b: &crate::data::PretrainBatch| {
            b.mlm_targets.iter().any(|&t| t != bertscope_kernels::loss::IGNORE_INDEX)
        };
        let mut gen = || loop {
            let b = corpus.generate_batch(&mut rng, bert.config());
            if has_masks(&b) {
                return b;
            }
        };
        let batches = [gen(), gen()];
        let mut trainer = Trainer::new(Lamb::new(0.05), 2);
        let mut tr = Tracer::disabled();
        // Track the loss of batch 0 specifically (batches alternate, and a
        // tiny batch can contain zero masked positions by chance).
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..20 {
            let (out, _) =
                trainer.micro_step(&mut tr, &mut bert, &batches[step % 2]).expect("micro-step");
            if step == 0 {
                first = out.loss + out.mlm_loss; // weight MLM for signal
            }
            if step == 18 {
                last = out.loss + out.mlm_loss;
            }
        }
        assert_eq!(trainer.updates(), 10);
        assert!(last < first - 0.2, "accumulated loss {first} -> {last}");
    }

    #[test]
    fn injected_overflow_skips_the_update_and_halves_the_scale() {
        let (mut bert, _, batch) = setup();
        let plan =
            FaultPlan::new().with(2, FaultKind::InfGradient { param: "l0.fc1.weight".into() });
        let mut trainer = Trainer::new(Lamb::new(0.01), 2)
            .with_scaler(LossScaler::dynamic(1024.0))
            .with_faults(plan);
        let mut tr = Tracer::new();
        let (_, r1) = trainer.micro_step(&mut tr, &mut bert, &batch).expect("micro-step");
        assert_eq!(r1, StepResult::Accumulated);
        let (_, r2) = trainer.micro_step(&mut tr, &mut bert, &batch).expect("micro-step");
        assert_eq!(r2, StepResult::SkippedOverflow);
        assert_eq!(trainer.updates(), 0);
        assert_eq!(trainer.skipped_updates(), 1);
        assert_eq!(
            trainer.scaler().scale().to_bits(),
            512.0f32.to_bits(),
            "overflow halves the scale"
        );
        // The skipped window traced the check and the overflow marker but
        // launched zero optimizer kernels.
        assert!(tr.records().iter().any(|r| r.name.contains("scaler.overflow")));
        assert!(!tr.records().iter().any(|r| r.name.contains("lamb.")));
        // Training resumes: the next clean window updates.
        let (_, r3) = trainer.micro_step(&mut tr, &mut bert, &batch).expect("micro-step");
        let (_, r4) = trainer.micro_step(&mut tr, &mut bert, &batch).expect("micro-step");
        assert_eq!((r3, r4), (StepResult::Accumulated, StepResult::Updated));
        assert_eq!(trainer.updates(), 1);
    }

    #[test]
    fn abort_policy_surfaces_the_poisoned_parameter() {
        let (mut bert, _, batch) = setup();
        let plan =
            FaultPlan::new().with(1, FaultKind::NanGradient { param: "nsp.pooler.bias".into() });
        let mut trainer =
            Trainer::new(Sgd::new(0.01), 1).with_policy(RecoveryPolicy::Abort).with_faults(plan);
        let mut tr = Tracer::disabled();
        let err = trainer.micro_step(&mut tr, &mut bert, &batch).unwrap_err();
        assert_eq!(err, TrainError::NonFiniteGradient { step: 1, param: "nsp.pooler.bias".into() });
    }

    #[test]
    fn retry_policy_survives_a_transient_fault() {
        let (mut bert, _, batch) = setup();
        // The fault fires at attempt 2 only; the retry (attempt 3) is clean.
        let plan = FaultPlan::new().with(2, FaultKind::InfGradient { param: "l0.attn.wq".into() });
        let mut trainer = Trainer::new(Sgd::new(0.01), 1)
            .with_policy(RecoveryPolicy::RetryMicrobatch { max_retries: 2 })
            .with_faults(plan);
        let mut tr = Tracer::disabled();
        trainer.micro_step(&mut tr, &mut bert, &batch).expect("clean step");
        let (_, r) = trainer.micro_step(&mut tr, &mut bert, &batch).expect("retried step");
        assert_eq!(r, StepResult::Updated);
        assert_eq!(trainer.retries(), 1);
        assert_eq!(trainer.micro_steps(), 3, "the retry consumed an extra attempt");
    }

    #[test]
    fn retry_policy_gives_up_on_a_persistent_fault() {
        let (mut bert, _, batch) = setup();
        // Poison two consecutive attempts: one retry is not enough.
        let plan = FaultPlan::new()
            .with(1, FaultKind::NanGradient { param: "l0.fc2.bias".into() })
            .with(2, FaultKind::NanGradient { param: "l0.fc2.bias".into() });
        let mut trainer = Trainer::new(Sgd::new(0.01), 1)
            .with_policy(RecoveryPolicy::RetryMicrobatch { max_retries: 1 })
            .with_faults(plan);
        let mut tr = Tracer::disabled();
        let err = trainer.micro_step(&mut tr, &mut bert, &batch).unwrap_err();
        assert_eq!(err, TrainError::RetriesExhausted { step: 2, attempts: 2 });
        assert_eq!(trainer.retries(), 1);
    }

    #[derive(Debug)]
    struct MockSync {
        calls: std::rc::Rc<std::cell::Cell<u64>>,
        fail_next: std::rc::Rc<std::cell::Cell<bool>>,
        zero_grads: bool,
    }

    impl crate::sync::GradSync for MockSync {
        fn world(&self) -> usize {
            2
        }

        fn sync(
            &mut self,
            _tracer: &mut Tracer,
            grads: &mut [Tensor],
        ) -> Result<(), crate::sync::SyncError> {
            if self.fail_next.replace(false) {
                return Err(crate::sync::SyncError::new("injected ring failure"));
            }
            self.calls.set(self.calls.get() + 1);
            if self.zero_grads {
                for g in grads {
                    *g = g.scale(0.0);
                }
            }
            Ok(())
        }
    }

    #[test]
    fn sync_runs_once_per_window_close() {
        let (mut bert, _, batch) = setup();
        let calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let sync = MockSync {
            calls: calls.clone(),
            fail_next: std::rc::Rc::new(std::cell::Cell::new(false)),
            zero_grads: false,
        };
        let mut trainer = Trainer::new(Sgd::new(0.01), 2).with_sync(Box::new(sync));
        let mut tr = Tracer::disabled();
        for _ in 0..6 {
            trainer.micro_step(&mut tr, &mut bert, &batch).expect("micro-step");
        }
        assert_eq!(calls.get(), 3, "one sync per closed window");
        assert_eq!(trainer.updates(), 3);
    }

    #[test]
    fn synced_zero_gradients_freeze_the_weights() {
        // If the collective replaces every gradient with zeros, the
        // optimizer update is a no-op — proof the synced values (not the
        // local ones) are what the optimizer consumes.
        let (mut bert, _, batch) = setup();
        let before: Vec<Vec<f32>> =
            bert.param_values_mut().iter().map(|(_, t)| t.as_slice().to_vec()).collect();
        let sync = MockSync {
            calls: std::rc::Rc::new(std::cell::Cell::new(0)),
            fail_next: std::rc::Rc::new(std::cell::Cell::new(false)),
            zero_grads: true,
        };
        let mut trainer = Trainer::new(Sgd::new(0.5), 1).with_sync(Box::new(sync));
        let mut tr = Tracer::disabled();
        let (_, r) = trainer.micro_step(&mut tr, &mut bert, &batch).expect("micro-step");
        assert_eq!(r, StepResult::Updated);
        for (slot, want) in bert.param_slots().iter().zip(&before) {
            for (got, want) in slot.value.as_slice().iter().zip(want) {
                assert!((got - want).abs() < 1e-7, "{} moved on zero gradients", slot.name);
            }
        }
    }

    #[test]
    fn failed_sync_preserves_the_window_and_close_is_retryable() {
        let (mut bert, _, batch) = setup();
        let calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let fail_next = std::rc::Rc::new(std::cell::Cell::new(true));
        let sync =
            MockSync { calls: calls.clone(), fail_next: fail_next.clone(), zero_grads: false };
        let mut trainer = Trainer::new(Sgd::new(0.01), 2).with_sync(Box::new(sync));
        let mut tr = Tracer::disabled();
        trainer.micro_step(&mut tr, &mut bert, &batch).expect("first micro-step");
        let err = trainer.micro_step(&mut tr, &mut bert, &batch).unwrap_err();
        assert!(
            matches!(err, TrainError::Sync { step: 2, ref reason } if reason.contains("ring")),
            "{err}"
        );
        // The window survived the failure...
        assert_eq!(trainer.pending(), 2);
        assert_eq!(trainer.updates(), 0);
        // ...and the retried close (communicator "repaired") completes it.
        let r = trainer.close_window(&mut tr, &mut bert).expect("retried close");
        assert_eq!(r, StepResult::Updated);
        assert_eq!(trainer.pending(), 0);
        assert_eq!(trainer.updates(), 1);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn close_without_a_window_is_invalid() {
        let (mut bert, _, _) = setup();
        let mut trainer = Trainer::new(Sgd::new(0.01), 2);
        let mut tr = Tracer::disabled();
        let err = trainer.close_window(&mut tr, &mut bert).unwrap_err();
        assert!(matches!(err, TrainError::InvalidState(_)), "{err}");
    }

    #[test]
    fn checkpoint_mid_window_is_rejected() {
        let (mut bert, _, batch) = setup();
        let mut trainer = Trainer::new(Sgd::new(0.01), 2);
        let mut tr = Tracer::disabled();
        trainer.micro_step(&mut tr, &mut bert, &batch).expect("micro-step");
        assert_eq!(trainer.pending(), 1);
        let err = trainer.checkpoint(&mut bert).unwrap_err();
        assert!(matches!(err, TrainError::InvalidState(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let _ = Trainer::new(Sgd::new(0.1), 0);
    }
}
