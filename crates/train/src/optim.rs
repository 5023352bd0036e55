//! Optimizers for the executable substrate: LAMB (paper §2.4), Adam (fused
//! and unfused, for the Fig. 12a study) and SGD.
//!
//! All optimizer math runs in f32 regardless of the model's precision: with
//! half-precision parameters the optimizer keeps f32 *master weights* and
//! writes rounded copies back — exactly the mixed-precision recipe the
//! paper describes (updates stay FP32, Takeaway 2).

use bertscope_model::graph::{
    ADAM_FLOPS_PER_PARAM, LAMB_STAGE1_FLOPS_PER_PARAM, LAMB_STAGE2_FLOPS_PER_PARAM,
};
use bertscope_tensor::{
    pool, AccessSet, Buffer, Category, DType, OpKind, OpRecord, Phase, Tensor, Tracer,
};
use std::collections::HashMap;

/// Parameters per pool task for the optimizer loops. A pure function of the
/// tensor size (never the thread count): chunk boundaries, and therefore the
/// association order of every chunked reduction, are identical at any pool
/// size, which preserves the bit-exact checkpoint/resume guarantee.
const OPT_GRAIN: usize = 1 << 15;

/// Chunked f64 sum-reduction over a gradient slice with a shape-only
/// association order: per-chunk partials are folded in ascending chunk
/// index on the calling thread.
fn chunked_sq_sum(data: &[f32], scale: f64) -> f64 {
    pool::parallel_map(data.len(), OPT_GRAIN, |r| {
        data[r]
            .iter()
            .map(|&g| {
                let g = f64::from(g) * scale;
                g * g
            })
            .sum::<f64>()
    })
    .into_iter()
    .sum()
}

/// Common interface of the suite's optimizers, for generic training loops.
pub trait Optimizer {
    /// Apply one update to the given parameter slots.
    fn step(&mut self, tracer: &mut Tracer, slots: &mut [ParamSlot<'_>]);
    /// The loss scale this optimizer divides out of incoming gradients.
    fn grad_scale(&self) -> f32 {
        1.0
    }
    /// Set the loss scale divided out of incoming gradients (a dynamic
    /// scaler changes this between updates). Stateless optimizers that
    /// ignore scaling may keep the default no-op.
    fn set_grad_scale(&mut self, _scale: f32) {}
    /// Serialize the optimizer's adaptive state (step count, moments,
    /// master weights) for checkpointing. Stateless optimizers return an
    /// empty state.
    fn export_state(&self) -> OptimizerState {
        OptimizerState::default()
    }
    /// Restore state produced by [`Optimizer::export_state`], replacing any
    /// current state.
    fn import_state(&mut self, _state: OptimizerState) {}
}

/// Serializable snapshot of one parameter's optimizer state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotState {
    /// Canonical parameter name.
    pub name: String,
    /// First moment (momentum), f32.
    pub m: Vec<f32>,
    /// Second moment (velocity), f32.
    pub v: Vec<f32>,
    /// f32 master copy of the (possibly half-precision) weights.
    pub master: Vec<f32>,
}

/// Serializable snapshot of a whole optimizer, name-sorted for determinism.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptimizerState {
    /// Update steps taken so far (drives bias correction).
    pub step: u64,
    /// Per-parameter state, sorted by name.
    pub slots: Vec<SlotState>,
}

/// Shared export/import for the two moment-tracking optimizers.
fn export_moments(
    step: u64,
    state: &HashMap<String, Moments>,
    master: &HashMap<String, Buffer>,
) -> OptimizerState {
    let mut names: Vec<&String> = state.keys().collect();
    names.sort();
    let slots = names
        .into_iter()
        .map(|n| SlotState {
            name: n.clone(),
            m: state[n].m.to_vec(),
            v: state[n].v.to_vec(),
            master: master.get(n).map(|b| b.to_vec()).unwrap_or_default(),
        })
        .collect();
    OptimizerState { step, slots }
}

fn import_moments(
    imported: OptimizerState,
    step: &mut u64,
    state: &mut HashMap<String, Moments>,
    master: &mut HashMap<String, Buffer>,
) {
    *step = imported.step;
    state.clear();
    master.clear();
    for s in imported.slots {
        state.insert(s.name.clone(), Moments { m: Buffer::adopt(s.m), v: Buffer::adopt(s.v) });
        master.insert(s.name, Buffer::adopt(s.master));
    }
}

/// A mutable view of one named parameter and its gradient.
#[derive(Debug)]
pub struct ParamSlot<'a> {
    /// Parameter name (must match the `bertscope-model` inventory).
    pub name: &'a str,
    /// The parameter tensor (possibly half precision).
    pub value: &'a mut Tensor,
    /// The accumulated gradient (possibly half precision and loss-scaled).
    pub grad: &'a Tensor,
}

/// The update group a parameter belongs to, mirroring
/// [`bertscope_model::graph::update_groups`].
fn group_of(name: &str) -> String {
    match name.split('.').next() {
        Some(first) if first.starts_with('l') && first[1..].chars().all(|c| c.is_ascii_digit()) => {
            first.to_owned()
        }
        Some("embeddings") => "embeddings".into(),
        _ => "output".into(),
    }
}

/// LAMB stage 2: `master -= step_scale * update`, then the parameter takes
/// the master weight quantized to its dtype. Chunked over the pool; every
/// element is independent, so results are bit-identical at any pool size.
fn apply_update(master: &mut [f32], value: &mut Tensor, update: &[f32], step_scale: f32) {
    let dt = value.dtype();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = master
        .chunks_mut(OPT_GRAIN)
        .zip(value.as_mut_slice().chunks_mut(OPT_GRAIN))
        .enumerate()
        .map(|(ci, (mchunk, vchunk))| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let off = ci * OPT_GRAIN;
                for i in 0..mchunk.len() {
                    mchunk[i] -= step_scale * update[off + i];
                    vchunk[i] = dt.quantize(mchunk[i]);
                }
            });
            task
        })
        .collect();
    pool::run_tasks(tasks);
}

/// The accounting entry of update group `group`, appended with a default
/// value on first sight, so groups keep first-seen (slot) order.
fn group_entry<V: Default>(groups: &mut Vec<(String, V)>, group: String) -> &mut V {
    let i = groups.iter().position(|(g, _)| *g == group).unwrap_or_else(|| {
        groups.push((group, V::default()));
        groups.len() - 1
    });
    &mut groups[i].1
}

fn update_rec(
    name: String,
    cat: Category,
    flops: u64,
    br: u64,
    bw: u64,
    access: AccessSet,
) -> OpRecord {
    OpRecord {
        access,
        name,
        kind: if cat == Category::GradNorm { OpKind::Reduction } else { OpKind::ElementWise },
        category: cat,
        phase: Phase::Update,
        layer: None,
        gemm: None,
        flops,
        bytes_read: br,
        bytes_written: bw,
        dtype: DType::F32,
    }
}

/// Per-tensor optimizer state in f32, held in pooled buffers so optimizer
/// memory shows up in the measured live-byte accounting.
#[derive(Debug, Default)]
struct Moments {
    m: Buffer,
    v: Buffer,
}

/// The LAMB optimizer (You et al., the paper's §2.4 / Algorithm 2).
///
/// Executed per parameter tensor, launched (and traced) as two fused stages
/// per update group plus the global gradient-norm reduction the algorithm
/// requires before any update — matching the analytic graph's
/// [`optimizer_ops`](bertscope_model::optimizer_ops).
#[derive(Debug)]
pub struct Lamb {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Divide incoming gradients by this loss scale before use.
    pub grad_scale: f32,
    step: u64,
    state: HashMap<String, Moments>,
    master: HashMap<String, Buffer>,
}

impl Lamb {
    /// A LAMB optimizer with BERT-style defaults.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Lamb {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-6,
            weight_decay: 0.01,
            grad_scale: 1.0,
            step: 0,
            state: HashMap::new(),
            master: HashMap::new(),
        }
    }

    /// Number of update steps taken.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Apply one LAMB update to the given parameters.
    pub fn step(&mut self, tracer: &mut Tracer, slots: &mut [ParamSlot<'_>]) {
        self.step += 1;
        let inv_scale = 1.0 / self.grad_scale;

        // Global gradient norm: LAMB pre-normalizes gradients when their
        // global L2 norm exceeds one. This reduction serializes the update
        // against the whole backprop (paper Takeaway 7).
        let total_params: u64 = slots.iter().map(|s| s.grad.numel() as u64).sum();
        let global_sq: f64 =
            slots.iter().map(|s| chunked_sq_sum(s.grad.as_slice(), f64::from(inv_scale))).sum();
        let global_norm = global_sq.sqrt() as f32;
        let clip = if global_norm > 1.0 { 1.0 / global_norm } else { 1.0 };
        let grad_ids: Vec<_> = slots.iter().map(|s| s.grad.buf_id()).collect();
        tracer.record(update_rec(
            "lamb.grad_norm.update".into(),
            Category::GradNorm,
            2 * total_params,
            total_params * 4,
            8,
            AccessSet::new(&grad_ids, &[]),
        ));

        // Per-group element counts and access sets for the two fused stage
        // records: stage 1 reads gradients + moments + master weights and
        // rewrites the moments; stage 2 applies the trust-ratio step to
        // masters and parameters.
        let mut groups: Vec<(String, (u64, AccessSet, AccessSet))> = Vec::new();

        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for s in slots.iter_mut() {
            let n = s.value.numel();
            let master = self
                .master
                .entry(s.name.to_owned())
                .or_insert_with(|| Buffer::copied_from(s.value.as_slice()));
            let st = self
                .state
                .entry(s.name.to_owned())
                .or_insert_with(|| Moments { m: Buffer::zeroed(n), v: Buffer::zeroed(n) });
            {
                let (numel, stage1, stage2) = group_entry(&mut groups, group_of(s.name));
                *numel += n as u64;
                stage1.reads.extend([s.grad.buf_id(), master.id(), st.m.id(), st.v.id()]);
                stage1.writes.extend([st.m.id(), st.v.id()]);
                stage2.reads.extend([st.m.id(), st.v.id(), master.id()]);
                stage2.writes.extend([master.id(), s.value.buf_id()]);
            }
            // Stage 1: update moments and form the update direction.
            // Chunked over the pool; each chunk owns its slices of m/v/update
            // and its own (w_sq, u_sq) partial, merged in chunk order below.
            let mut update = Buffer::zeroed(n);
            let mut partials = vec![(0.0f64, 0.0f64); n.div_ceil(OPT_GRAIN)];
            let gs = s.grad.as_slice();
            let master_ro: &[f32] = master;
            let (beta1, beta2, eps, wd) = (self.beta1, self.beta2, self.eps, self.weight_decay);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                st.m.chunks_mut(OPT_GRAIN)
                    .zip(st.v.chunks_mut(OPT_GRAIN))
                    .zip(update.chunks_mut(OPT_GRAIN))
                    .zip(partials.iter_mut())
                    .enumerate()
                    .map(|(ci, (((mc, vc), uc), partial))| {
                        let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                            let off = ci * OPT_GRAIN;
                            let (mut w_sq, mut u_sq) = (0.0f64, 0.0f64);
                            for i in 0..uc.len() {
                                let g = gs[off + i] * inv_scale * clip;
                                mc[i] = beta1 * mc[i] + (1.0 - beta1) * g;
                                vc[i] = beta2 * vc[i] + (1.0 - beta2) * g * g;
                                let m_hat = mc[i] / bc1;
                                let v_hat = vc[i] / bc2;
                                let w = master_ro[off + i];
                                let u = m_hat / (v_hat.sqrt() + eps) + wd * w;
                                uc[i] = u;
                                w_sq += f64::from(w) * f64::from(w);
                                u_sq += f64::from(u) * f64::from(u);
                            }
                            *partial = (w_sq, u_sq);
                        });
                        task
                    })
                    .collect();
            pool::run_tasks(tasks);
            let (w_sq, u_sq) =
                partials.iter().fold((0.0f64, 0.0f64), |(ws, us), &(w, u)| (ws + w, us + u));
            // Stage 2: trust-ratio-scaled weight update.
            let w_norm = w_sq.sqrt() as f32;
            let u_norm = u_sq.sqrt() as f32;
            let trust = if w_norm > 0.0 && u_norm > 0.0 { w_norm / u_norm } else { 1.0 };
            apply_update(master, s.value, &update, self.lr * trust);
        }

        // Trace the two fused stages per group, matching the analytic graph.
        for (g, (n, a1, a2)) in groups {
            tracer.record(update_rec(
                format!("lamb.{g}.stage1.update"),
                Category::LambStage1,
                LAMB_STAGE1_FLOPS_PER_PARAM * n,
                4 * n * 4,
                3 * n * 4,
                a1,
            ));
            tracer.record(update_rec(
                format!("lamb.{g}.stage2.update"),
                Category::LambStage2,
                LAMB_STAGE2_FLOPS_PER_PARAM * n,
                2 * n * 4,
                n * 4,
                a2,
            ));
        }
    }
}

impl Optimizer for Lamb {
    fn step(&mut self, tracer: &mut Tracer, slots: &mut [ParamSlot<'_>]) {
        Lamb::step(self, tracer, slots);
    }
    fn grad_scale(&self) -> f32 {
        self.grad_scale
    }
    fn set_grad_scale(&mut self, scale: f32) {
        self.grad_scale = scale;
    }
    fn export_state(&self) -> OptimizerState {
        export_moments(self.step, &self.state, &self.master)
    }
    fn import_state(&mut self, state: OptimizerState) {
        import_moments(state, &mut self.step, &mut self.state, &mut self.master);
    }
}

/// Adam with optional kernel fusion (paper Fig. 12a's subject).
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Divide incoming gradients by this loss scale before use.
    pub grad_scale: f32,
    /// When false, trace the ~10 separate primitive kernels per tensor that
    /// an eager (unfused) implementation launches.
    pub fused: bool,
    step: u64,
    state: HashMap<String, Moments>,
    master: HashMap<String, Buffer>,
}

impl Adam {
    /// An Adam optimizer with standard defaults, fused kernels.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            grad_scale: 1.0,
            fused: true,
            step: 0,
            state: HashMap::new(),
            master: HashMap::new(),
        }
    }

    /// Switch to the unfused (eager) kernel accounting.
    #[must_use]
    pub fn unfused(mut self) -> Self {
        self.fused = false;
        self
    }

    /// Apply one Adam update.
    pub fn step(&mut self, tracer: &mut Tracer, slots: &mut [ParamSlot<'_>]) {
        self.step += 1;
        let t = self.step as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        let inv_scale = 1.0 / self.grad_scale;
        let mut groups: Vec<(String, (u64, AccessSet))> = Vec::new();
        for s in slots.iter_mut() {
            let n = s.value.numel();
            let master = self
                .master
                .entry(s.name.to_owned())
                .or_insert_with(|| Buffer::copied_from(s.value.as_slice()));
            let st = self
                .state
                .entry(s.name.to_owned())
                .or_insert_with(|| Moments { m: Buffer::zeroed(n), v: Buffer::zeroed(n) });
            let dt = s.value.dtype();
            // One fused, chunk-parallel pass: every element is independent,
            // so results are bit-identical at any pool size.
            let gs = s.grad.as_slice();
            let (beta1, beta2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                st.m.chunks_mut(OPT_GRAIN)
                    .zip(st.v.chunks_mut(OPT_GRAIN))
                    .zip(master.chunks_mut(OPT_GRAIN))
                    .zip(s.value.as_mut_slice().chunks_mut(OPT_GRAIN))
                    .enumerate()
                    .map(|(ci, (((mc, vc), mstr), vals))| {
                        let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                            let off = ci * OPT_GRAIN;
                            for i in 0..vals.len() {
                                let g = gs[off + i] * inv_scale;
                                mc[i] = beta1 * mc[i] + (1.0 - beta1) * g;
                                vc[i] = beta2 * vc[i] + (1.0 - beta2) * g * g;
                                let m_hat = mc[i] / bc1;
                                let v_hat = vc[i] / bc2;
                                mstr[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                                vals[i] = dt.quantize(mstr[i]);
                            }
                        });
                        task
                    })
                    .collect();
            pool::run_tasks(tasks);
            if self.fused {
                let (numel, access) = group_entry(&mut groups, group_of(s.name));
                *numel += n as u64;
                access.reads.extend([s.grad.buf_id(), st.m.id(), st.v.id(), master.id()]);
                access.writes.extend([st.m.id(), st.v.id(), master.id(), s.value.buf_id()]);
            } else {
                // Ten primitive kernels per tensor (the eager path).
                let b = n as u64 * 4;
                let steps: [(&str, u64, u64); 10] = [
                    ("m_decay", 1, 1),
                    ("m_update", 2, 1),
                    ("v_decay", 1, 1),
                    ("g_square", 1, 1),
                    ("v_update", 2, 1),
                    ("m_hat", 1, 1),
                    ("v_hat", 1, 1),
                    ("denom", 1, 1),
                    ("step", 2, 1),
                    ("apply", 2, 1),
                ];
                for (op, reads, writes) in steps {
                    tracer.record(update_rec(
                        format!("adam.{}.{op}.update", s.name),
                        Category::LambStage1,
                        n as u64,
                        reads * b,
                        writes * b,
                        AccessSet::new(
                            &[s.grad.buf_id(), st.m.id(), st.v.id(), master.id()],
                            &[st.m.id(), st.v.id(), master.id(), s.value.buf_id()],
                        ),
                    ));
                }
            }
        }
        for (g, (n, access)) in groups {
            tracer.record(update_rec(
                format!("adam.{g}.fused.update"),
                Category::LambStage1,
                ADAM_FLOPS_PER_PARAM * n,
                4 * n * 4,
                3 * n * 4,
                access,
            ));
        }
    }
}

/// BERT's learning-rate schedule: linear warmup to the peak rate, then
/// linear (or polynomial) decay to zero over the remaining steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupSchedule {
    /// Peak learning rate, reached at the end of warmup.
    pub peak_lr: f32,
    /// Warmup step count.
    pub warmup_steps: u64,
    /// Total training steps (decay reaches zero here).
    pub total_steps: u64,
    /// Decay exponent (1.0 = linear, BERT's default).
    pub power: f32,
}

impl WarmupSchedule {
    /// A linear-warmup / linear-decay schedule.
    ///
    /// # Panics
    ///
    /// Panics when `warmup_steps >= total_steps` or `total_steps == 0`.
    #[must_use]
    pub fn new(peak_lr: f32, warmup_steps: u64, total_steps: u64) -> Self {
        assert!(total_steps > 0, "total_steps must be non-zero");
        assert!(warmup_steps < total_steps, "warmup must end before training does");
        WarmupSchedule { peak_lr, warmup_steps, total_steps, power: 1.0 }
    }

    /// Learning rate at (1-based) step `step`. Steps beyond `total_steps`
    /// return zero.
    #[must_use]
    pub fn lr_at(&self, step: u64) -> f32 {
        if step == 0 {
            return 0.0;
        }
        if step <= self.warmup_steps {
            return self.peak_lr * step as f32 / self.warmup_steps.max(1) as f32;
        }
        if step >= self.total_steps {
            return 0.0;
        }
        let remaining =
            (self.total_steps - step) as f32 / (self.total_steps - self.warmup_steps) as f32;
        self.peak_lr * remaining.powf(self.power)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, tracer: &mut Tracer, slots: &mut [ParamSlot<'_>]) {
        Adam::step(self, tracer, slots);
    }
    fn grad_scale(&self) -> f32 {
        self.grad_scale
    }
    fn set_grad_scale(&mut self, scale: f32) {
        self.grad_scale = scale;
    }
    fn export_state(&self) -> OptimizerState {
        export_moments(self.step, &self.state, &self.master)
    }
    fn import_state(&mut self, state: OptimizerState) {
        import_moments(state, &mut self.step, &mut self.state, &mut self.master);
    }
}

/// Plain SGD, for convergence sanity tests.
#[derive(Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Divide incoming gradients by this loss scale before use.
    pub grad_scale: f32,
}

impl Sgd {
    /// An SGD optimizer.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Sgd { lr, grad_scale: 1.0 }
    }

    /// Apply one SGD update.
    pub fn step(&mut self, tracer: &mut Tracer, slots: &mut [ParamSlot<'_>]) {
        let inv = 1.0 / self.grad_scale;
        for s in slots.iter_mut() {
            let dt = s.value.dtype();
            let n = s.value.numel() as u64;
            let gs = s.grad.as_slice();
            let lr = self.lr;
            pool::parallel_for_mut(s.value.as_mut_slice(), OPT_GRAIN, |off, chunk| {
                for (i, w) in chunk.iter_mut().enumerate() {
                    *w = dt.quantize(*w - lr * gs[off + i] * inv);
                }
            });
            tracer.record(update_rec(
                format!("sgd.{}.update", s.name),
                Category::LambStage2,
                2 * n,
                2 * n * 4,
                n * 4,
                AccessSet::new(&[s.grad.buf_id(), s.value.buf_id()], &[s.value.buf_id()]),
            ));
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, tracer: &mut Tracer, slots: &mut [ParamSlot<'_>]) {
        Sgd::step(self, tracer, slots);
    }
    fn grad_scale(&self) -> f32 {
        self.grad_scale
    }
    fn set_grad_scale(&mut self, scale: f32) {
        self.grad_scale = scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot_fixture(n: usize, gval: f32) -> (Tensor, Tensor) {
        (Tensor::ones(&[n]), Tensor::full(&[n], gval))
    }

    #[test]
    fn warmup_schedule_ramps_then_decays() {
        let sched = WarmupSchedule::new(1e-3, 10, 100);
        assert_eq!(sched.lr_at(0).to_bits(), 0.0f32.to_bits());
        assert!((sched.lr_at(5) - 5e-4).abs() < 1e-9, "halfway through warmup");
        assert!((sched.lr_at(10) - 1e-3).abs() < 1e-9, "peak at warmup end");
        assert!(sched.lr_at(55) < sched.lr_at(10));
        assert!(sched.lr_at(55) > sched.lr_at(90));
        assert_eq!(sched.lr_at(100).to_bits(), 0.0f32.to_bits());
        assert_eq!(sched.lr_at(1000).to_bits(), 0.0f32.to_bits());
        // Monotone up then monotone down.
        for s in 1..10 {
            assert!(sched.lr_at(s + 1) > sched.lr_at(s));
        }
        for s in 10..99 {
            assert!(sched.lr_at(s + 1) <= sched.lr_at(s));
        }
    }

    #[test]
    #[should_panic(expected = "warmup must end")]
    fn warmup_longer_than_training_rejected() {
        let _ = WarmupSchedule::new(1e-3, 100, 100);
    }

    #[test]
    fn group_names_follow_model_inventory() {
        assert_eq!(group_of("l0.fc1.weight"), "l0");
        assert_eq!(group_of("l23.attn.wq"), "l23");
        assert_eq!(group_of("embeddings.word"), "embeddings");
        assert_eq!(group_of("mlm.dense.weight"), "output");
        assert_eq!(group_of("nsp.pooler.bias"), "output");
        // "ln" prefix should not be mistaken for a layer group.
        assert_eq!(group_of("lnorm.x"), "output");
    }

    #[test]
    fn sgd_descends() {
        let (mut w, g) = slot_fixture(4, 0.5);
        let mut tr = Tracer::new();
        let mut opt = Sgd::new(0.1);
        opt.step(&mut tr, &mut [ParamSlot { name: "w", value: &mut w, grad: &g }]);
        assert!(w.as_slice().iter().all(|&v| (v - 0.95).abs() < 1e-6));
        assert_eq!(tr.kernel_count(), 1);
    }

    #[test]
    fn adam_first_step_moves_by_lr() {
        // With bias correction, Adam's first step is ~lr in the gradient
        // direction regardless of gradient magnitude.
        let (mut w, g) = slot_fixture(4, 3.0);
        let mut tr = Tracer::disabled();
        let mut opt = Adam::new(0.01);
        opt.step(&mut tr, &mut [ParamSlot { name: "w", value: &mut w, grad: &g }]);
        for &v in w.as_slice() {
            assert!((v - (1.0 - 0.01)).abs() < 1e-4, "w = {v}");
        }
    }

    #[test]
    fn unfused_adam_traces_ten_kernels_per_tensor() {
        let (mut w1, g1) = slot_fixture(8, 1.0);
        let (mut w2, g2) = slot_fixture(8, 1.0);
        let mut tr = Tracer::new();
        let mut opt = Adam::new(0.01).unfused();
        opt.step(
            &mut tr,
            &mut [
                ParamSlot { name: "l0.a", value: &mut w1, grad: &g1 },
                ParamSlot { name: "l0.b", value: &mut w2, grad: &g2 },
            ],
        );
        assert_eq!(tr.kernel_count(), 20);
        // Fused traces one kernel per group.
        let (mut w3, g3) = slot_fixture(8, 1.0);
        let (mut w4, g4) = slot_fixture(8, 1.0);
        let mut tr2 = Tracer::new();
        let mut fused = Adam::new(0.01);
        fused.step(
            &mut tr2,
            &mut [
                ParamSlot { name: "l0.a", value: &mut w3, grad: &g3 },
                ParamSlot { name: "l0.b", value: &mut w4, grad: &g4 },
            ],
        );
        assert_eq!(tr2.kernel_count(), 1);
        // Same numerics either way.
        assert_eq!(w1.as_slice(), w3.as_slice());
    }

    #[test]
    fn lamb_trust_ratio_scales_update_with_weight_norm() {
        // Two tensors with identical gradients but different weight norms:
        // the larger-norm tensor takes a larger absolute step.
        let mut small = Tensor::full(&[16], 0.1);
        let mut large = Tensor::full(&[16], 10.0);
        let g = Tensor::full(&[16], 1.0);
        let mut tr = Tracer::disabled();
        let mut opt = Lamb::new(0.01);
        opt.weight_decay = 0.0;
        opt.step(
            &mut tr,
            &mut [
                ParamSlot { name: "l0.small", value: &mut small, grad: &g },
                ParamSlot { name: "l1.large", value: &mut large, grad: &g },
            ],
        );
        let step_small = (0.1 - small.as_slice()[0]).abs();
        let step_large = (10.0 - large.as_slice()[0]).abs();
        assert!(step_large > 5.0 * step_small, "{step_large} vs {step_small}");
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn lamb_traces_norm_plus_two_stages_per_group() {
        let (mut w1, g1) = slot_fixture(8, 1.0);
        let (mut w2, g2) = slot_fixture(8, 1.0);
        let (mut w3, g3) = slot_fixture(8, 1.0);
        let mut tr = Tracer::new();
        let mut opt = Lamb::new(0.01);
        opt.step(
            &mut tr,
            &mut [
                ParamSlot { name: "l0.a", value: &mut w1, grad: &g1 },
                ParamSlot { name: "l0.b", value: &mut w2, grad: &g2 },
                ParamSlot { name: "embeddings.word", value: &mut w3, grad: &g3 },
            ],
        );
        // 1 grad-norm + 2 groups x 2 stages.
        assert_eq!(tr.kernel_count(), 5);
        assert_eq!(tr.records()[0].category, Category::GradNorm);
        let s1 = tr.records().iter().filter(|r| r.category == Category::LambStage1).count();
        assert_eq!(s1, 2);
    }

    #[test]
    fn half_precision_params_keep_f32_masters() {
        // Repeated tiny updates must accumulate in the master copy even
        // when each one is below f16 resolution.
        let mut w = Tensor::ones(&[4]).to_dtype(DType::F16);
        let g = Tensor::full(&[4], 1.0);
        let mut opt = Sgd::new(1e-5);
        // SGD has no master weights: updates vanish in f16...
        let mut tr = Tracer::disabled();
        for _ in 0..50 {
            opt.step(&mut tr, &mut [ParamSlot { name: "w", value: &mut w, grad: &g }]);
        }
        assert_eq!(w.as_slice()[0].to_bits(), 1.0f32.to_bits(), "f16 swallows tiny SGD steps");
        // ...but Adam's master copy accumulates them.
        let mut w2 = Tensor::ones(&[4]).to_dtype(DType::F16);
        let mut adam = Adam::new(1e-5);
        for _ in 0..200 {
            adam.step(&mut tr, &mut [ParamSlot { name: "w", value: &mut w2, grad: &g }]);
        }
        assert!(w2.as_slice()[0] < 1.0, "master weights accumulate below-resolution steps");
    }

    #[test]
    fn optimizer_state_roundtrips_exactly() {
        // Two steps on one optimizer; export after step 1, import into a
        // fresh optimizer, and the second steps must agree bit-for-bit.
        let (mut w_a, g) = slot_fixture(8, 0.7);
        let mut tr = Tracer::disabled();
        let mut a = Lamb::new(0.02);
        a.step(&mut tr, &mut [ParamSlot { name: "l0.w", value: &mut w_a, grad: &g }]);
        let state = Optimizer::export_state(&a);
        assert_eq!(state.step, 1);
        assert_eq!(state.slots.len(), 1);
        let mut w_b = w_a.clone();
        let mut b = Lamb::new(0.02);
        b.import_state(state);
        a.step(&mut tr, &mut [ParamSlot { name: "l0.w", value: &mut w_a, grad: &g }]);
        b.step(&mut tr, &mut [ParamSlot { name: "l0.w", value: &mut w_b, grad: &g }]);
        assert_eq!(w_a.as_slice(), w_b.as_slice(), "restored LAMB diverged");
        // Adam exports/imports through the same machinery.
        let (mut w, g2) = slot_fixture(4, 1.0);
        let mut adam = Adam::new(0.01);
        adam.step(&mut tr, &mut [ParamSlot { name: "l0.w", value: &mut w, grad: &g2 }]);
        let st = Optimizer::export_state(&adam);
        let mut adam2 = Adam::new(0.01);
        adam2.import_state(st.clone());
        assert_eq!(Optimizer::export_state(&adam2), st);
        // SGD is stateless.
        assert_eq!(Optimizer::export_state(&Sgd::new(0.1)), OptimizerState::default());
    }

    #[test]
    fn set_grad_scale_updates_the_divisor() {
        let mut opt = Lamb::new(0.01);
        opt.set_grad_scale(256.0);
        assert_eq!(Optimizer::grad_scale(&opt).to_bits(), 256.0f32.to_bits());
        let mut adam = Adam::new(0.01);
        adam.set_grad_scale(64.0);
        assert_eq!(Optimizer::grad_scale(&adam).to_bits(), 64.0f32.to_bits());
        let mut sgd = Sgd::new(0.01);
        sgd.set_grad_scale(8.0);
        assert_eq!(Optimizer::grad_scale(&sgd).to_bits(), 8.0f32.to_bits());
    }

    #[test]
    fn grad_scale_is_divided_out() {
        let (mut w_scaled, g_scaled) = (Tensor::ones(&[4]), Tensor::full(&[4], 512.0));
        let (mut w_plain, g_plain) = (Tensor::ones(&[4]), Tensor::full(&[4], 1.0));
        let mut tr = Tracer::disabled();
        let mut a = Adam::new(0.01);
        a.grad_scale = 512.0;
        a.step(&mut tr, &mut [ParamSlot { name: "w", value: &mut w_scaled, grad: &g_scaled }]);
        let mut b = Adam::new(0.01);
        b.step(&mut tr, &mut [ParamSlot { name: "w", value: &mut w_plain, grad: &g_plain }]);
        assert_eq!(w_scaled.as_slice(), w_plain.as_slice());
    }
}
