//! Deterministic fault injection for the training runtime.
//!
//! Real BERT runs treat NaN steps, stragglers and dead ranks as first-class
//! events; a workload characterization that only models the happy path
//! cannot count the robustness kernels (unscale, overflow check, state
//! serialization) that show up in real profiles. A [`FaultPlan`] is a small,
//! fully deterministic script of such events: "at micro-step 3, the gradient
//! of `l0.fc1.weight` becomes `inf`", "rank 2 of the AllReduce ring dies".
//!
//! The plan lives in this crate because both `bertscope-train` (gradient
//! faults) and `bertscope-dist` (ring faults) consume it, and `tensor` is
//! their common dependency. Injection is keyed on logical step counters, not
//! wall-clock time or randomness, so every failure a test provokes is
//! bit-reproducible.

/// One kind of injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Overwrite one element of the named parameter's gradient with NaN.
    NanGradient {
        /// Canonical parameter name (e.g. `"l0.fc1.weight"`).
        param: String,
    },
    /// Overwrite one element of the named parameter's gradient with +inf —
    /// the shape of a genuine FP16 overflow.
    InfGradient {
        /// Canonical parameter name (e.g. `"l0.fc1.weight"`).
        param: String,
    },
    /// Poison one chunk of one rank's AllReduce contribution with NaN, as a
    /// bit-flipped or torn payload would.
    CorruptSegment {
        /// Ring rank whose buffer is corrupted.
        rank: usize,
        /// Chunk index (ranks exchange `devices` chunks) to poison.
        chunk: usize,
    },
    /// Make one rank a straggler: it sleeps before joining the ring.
    DelayRank {
        /// Ring rank to delay.
        rank: usize,
        /// Delay duration in microseconds.
        micros: u64,
    },
    /// Kill one rank: it exits before the ring exchange, so its neighbors
    /// observe a disconnect/timeout instead of data.
    KillRank {
        /// Ring rank to kill.
        rank: usize,
    },
    /// Kill one *worker process* mid-step: the process exits abruptly
    /// (no farewell message, sockets reset), modelling a crashed or
    /// OOM-killed rank. Consumed by `dist::proc` workers.
    KillProcess {
        /// Worker rank whose process dies.
        rank: usize,
    },
    /// Silently drop the next `count` socket writes of one rank — a lossy
    /// or firewalled link. The reliable hop protocol must recover by
    /// resending after an ack timeout.
    DropSend {
        /// Worker rank whose outgoing frames are dropped.
        rank: usize,
        /// Number of consecutive frames to drop.
        count: u32,
    },
    /// Delay every socket write of one rank at the affected step — a
    /// congested link or a descheduled sender.
    DelaySend {
        /// Worker rank whose writes are delayed.
        rank: usize,
        /// Delay per write, in microseconds.
        micros: u64,
    },
    /// Corrupt the payload bytes of the next `count` socket writes after
    /// their checksum is computed — a bit-flipped or torn frame. The
    /// receiver must detect the checksum mismatch and request a resend.
    CorruptPayload {
        /// Worker rank whose frames are corrupted.
        rank: usize,
        /// Number of consecutive frames to corrupt.
        count: u32,
    },
}

impl FaultKind {
    /// Whether this fault targets a gradient (consumed by the trainer).
    #[must_use]
    pub fn is_gradient_fault(&self) -> bool {
        matches!(self, FaultKind::NanGradient { .. } | FaultKind::InfGradient { .. })
    }

    /// Whether this fault targets one rank of a ring collective (consumed
    /// by `dist::ring_allreduce_faulty`, which kills, delays or poisons
    /// that rank on the loopback socket ring).
    #[must_use]
    pub fn is_ring_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::CorruptSegment { .. }
                | FaultKind::DelayRank { .. }
                | FaultKind::KillRank { .. }
        )
    }

    /// Whether this fault targets a worker process or its sockets
    /// (consumed by `dist::proc`).
    #[must_use]
    pub fn is_process_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::KillProcess { .. }
                | FaultKind::DropSend { .. }
                | FaultKind::DelaySend { .. }
                | FaultKind::CorruptPayload { .. }
        )
    }
}

/// A fault scheduled at one logical step.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// 1-based micro-step attempt index at which the fault fires. The
    /// trainer increments its attempt counter on every forward/backward
    /// execution, including retries, so a retried micro-batch naturally
    /// escapes a step-keyed fault.
    pub step: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic script of faults, keyed by micro-step attempt index.
///
/// ```
/// use bertscope_tensor::fault::{FaultKind, FaultPlan};
/// let plan = FaultPlan::new()
///     .with(3, FaultKind::InfGradient { param: "l0.fc1.weight".into() });
/// assert_eq!(plan.gradient_faults_at(3), vec![("l0.fc1.weight", f32::INFINITY)]);
/// assert!(plan.gradient_faults_at(4).is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: no faults ever fire.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a fault firing at the given 1-based micro-step attempt.
    #[must_use]
    pub fn with(mut self, step: u64, kind: FaultKind) -> Self {
        self.faults.push(Fault { step, kind });
        self
    }

    /// Whether the plan schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// All scheduled faults, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Gradient faults firing at `step`, as `(param, poison value)` pairs.
    #[must_use]
    pub fn gradient_faults_at(&self, step: u64) -> Vec<(&str, f32)> {
        self.faults
            .iter()
            .filter(|f| f.step == step)
            .filter_map(|f| match &f.kind {
                FaultKind::NanGradient { param } => Some((param.as_str(), f32::NAN)),
                FaultKind::InfGradient { param } => Some((param.as_str(), f32::INFINITY)),
                _ => None,
            })
            .collect()
    }

    /// Ring faults firing at `step` (corrupt/delay/kill).
    #[must_use]
    pub fn ring_faults_at(&self, step: u64) -> Vec<&FaultKind> {
        self.faults
            .iter()
            .filter(|f| f.step == step && f.kind.is_ring_fault())
            .map(|f| &f.kind)
            .collect()
    }

    /// Process/socket faults firing at `step` (kill process, drop/delay/
    /// corrupt socket writes).
    #[must_use]
    pub fn process_faults_at(&self, step: u64) -> Vec<&FaultKind> {
        self.faults
            .iter()
            .filter(|f| f.step == step && f.kind.is_process_fault())
            .map(|f| &f.kind)
            .collect()
    }

    /// Render the plan as a compact spec string — the wire format a
    /// launcher uses to hand a fault script to re-exec'd worker processes
    /// (an environment variable cannot carry a struct). One
    /// `;`-separated entry per fault:
    ///
    /// ```text
    /// nan:STEP:PARAM | inf:STEP:PARAM | corrupt:STEP:RANK:CHUNK
    /// delay:STEP:RANK:MICROS | kill:STEP:RANK | pkill:STEP:RANK
    /// pdrop:STEP:RANK:COUNT | pdelay:STEP:RANK:MICROS | pcorrupt:STEP:RANK:COUNT
    /// ```
    #[must_use]
    pub fn to_spec(&self) -> String {
        self.faults
            .iter()
            .map(|f| {
                let s = f.step;
                match &f.kind {
                    FaultKind::NanGradient { param } => format!("nan:{s}:{param}"),
                    FaultKind::InfGradient { param } => format!("inf:{s}:{param}"),
                    FaultKind::CorruptSegment { rank, chunk } => {
                        format!("corrupt:{s}:{rank}:{chunk}")
                    }
                    FaultKind::DelayRank { rank, micros } => format!("delay:{s}:{rank}:{micros}"),
                    FaultKind::KillRank { rank } => format!("kill:{s}:{rank}"),
                    FaultKind::KillProcess { rank } => format!("pkill:{s}:{rank}"),
                    FaultKind::DropSend { rank, count } => format!("pdrop:{s}:{rank}:{count}"),
                    FaultKind::DelaySend { rank, micros } => format!("pdelay:{s}:{rank}:{micros}"),
                    FaultKind::CorruptPayload { rank, count } => {
                        format!("pcorrupt:{s}:{rank}:{count}")
                    }
                }
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Parse a spec string produced by [`FaultPlan::to_spec`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(';').filter(|e| !e.is_empty()) {
            let parts: Vec<&str> = entry.split(':').collect();
            let num = |i: usize| -> Result<u64, String> {
                parts
                    .get(i)
                    .ok_or_else(|| format!("fault entry `{entry}`: missing field {i}"))?
                    .parse::<u64>()
                    .map_err(|_| format!("fault entry `{entry}`: bad number in field {i}"))
            };
            let count = |i: usize| -> Result<u32, String> {
                u32::try_from(num(i)?)
                    .map_err(|_| format!("fault entry `{entry}`: count in field {i} exceeds u32"))
            };
            let step = num(1)?;
            let arity = |want: usize| -> Result<(), String> {
                if parts.len() == want {
                    Ok(())
                } else {
                    Err(format!("fault entry `{entry}`: expected {want} fields"))
                }
            };
            let kind = match parts.first().copied() {
                Some("nan") => {
                    arity(3)?;
                    FaultKind::NanGradient { param: parts[2].to_string() }
                }
                Some("inf") => {
                    arity(3)?;
                    FaultKind::InfGradient { param: parts[2].to_string() }
                }
                Some("corrupt") => {
                    arity(4)?;
                    FaultKind::CorruptSegment { rank: num(2)? as usize, chunk: num(3)? as usize }
                }
                Some("delay") => {
                    arity(4)?;
                    FaultKind::DelayRank { rank: num(2)? as usize, micros: num(3)? }
                }
                Some("kill") => {
                    arity(3)?;
                    FaultKind::KillRank { rank: num(2)? as usize }
                }
                Some("pkill") => {
                    arity(3)?;
                    FaultKind::KillProcess { rank: num(2)? as usize }
                }
                Some("pdrop") => {
                    arity(4)?;
                    FaultKind::DropSend { rank: num(2)? as usize, count: count(3)? }
                }
                Some("pdelay") => {
                    arity(4)?;
                    FaultKind::DelaySend { rank: num(2)? as usize, micros: num(3)? }
                }
                Some("pcorrupt") => {
                    arity(4)?;
                    FaultKind::CorruptPayload { rank: num(2)? as usize, count: count(3)? }
                }
                other => return Err(format!("unknown fault kind {other:?} in `{entry}`")),
            };
            plan = plan.with(step, kind);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_only_at_their_step() {
        let plan = FaultPlan::new()
            .with(2, FaultKind::NanGradient { param: "mlm.dense.weight".into() })
            .with(2, FaultKind::InfGradient { param: "nsp.pooler.bias".into() })
            .with(5, FaultKind::KillRank { rank: 1 });
        assert_eq!(plan.len(), 3);
        let at2 = plan.gradient_faults_at(2);
        assert_eq!(at2.len(), 2);
        assert!(at2[0].1.is_nan());
        assert_eq!(at2[1].1, f32::INFINITY);
        assert!(plan.gradient_faults_at(5).is_empty());
        assert_eq!(plan.ring_faults_at(5).len(), 1);
        assert!(plan.ring_faults_at(2).is_empty());
    }

    #[test]
    fn fault_kind_classification() {
        assert!(FaultKind::NanGradient { param: "x".into() }.is_gradient_fault());
        assert!(FaultKind::CorruptSegment { rank: 0, chunk: 0 }.is_ring_fault());
        assert!(FaultKind::DelayRank { rank: 0, micros: 10 }.is_ring_fault());
        assert!(FaultKind::KillRank { rank: 0 }.is_ring_fault());
        for kind in [
            FaultKind::KillProcess { rank: 1 },
            FaultKind::DropSend { rank: 1, count: 2 },
            FaultKind::DelaySend { rank: 1, micros: 100 },
            FaultKind::CorruptPayload { rank: 1, count: 1 },
        ] {
            assert!(kind.is_process_fault(), "{kind:?}");
            assert!(!kind.is_ring_fault(), "{kind:?}");
            assert!(!kind.is_gradient_fault(), "{kind:?}");
        }
    }

    #[test]
    fn process_faults_fire_only_at_their_step() {
        let plan = FaultPlan::new()
            .with(3, FaultKind::KillProcess { rank: 2 })
            .with(3, FaultKind::DropSend { rank: 0, count: 1 })
            .with(4, FaultKind::KillRank { rank: 1 });
        assert_eq!(plan.process_faults_at(3).len(), 2);
        assert!(plan.process_faults_at(4).is_empty(), "KillRank is a ring fault");
        assert!(plan.process_faults_at(1).is_empty());
    }

    #[test]
    fn spec_roundtrips_every_fault_kind() {
        let plan = FaultPlan::new()
            .with(1, FaultKind::NanGradient { param: "l0.fc1.weight".into() })
            .with(2, FaultKind::InfGradient { param: "mlm.dense.bias".into() })
            .with(3, FaultKind::CorruptSegment { rank: 1, chunk: 2 })
            .with(4, FaultKind::DelayRank { rank: 0, micros: 500 })
            .with(5, FaultKind::KillRank { rank: 3 })
            .with(6, FaultKind::KillProcess { rank: 2 })
            .with(7, FaultKind::DropSend { rank: 1, count: 3 })
            .with(8, FaultKind::DelaySend { rank: 0, micros: 250 })
            .with(9, FaultKind::CorruptPayload { rank: 3, count: 1 });
        let spec = plan.to_spec();
        let back = FaultPlan::from_spec(&spec).expect("roundtrip");
        assert_eq!(plan, back);
        // An empty spec is the empty plan.
        assert_eq!(FaultPlan::from_spec("").expect("empty"), FaultPlan::new());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(FaultPlan::from_spec("bogus:1:0").is_err());
        assert!(FaultPlan::from_spec("pkill:notanumber:0").is_err());
        assert!(FaultPlan::from_spec("pdrop:1:0").is_err(), "missing count field");
        assert!(FaultPlan::from_spec("kill:1:0:9").is_err(), "extra field");
        assert!(FaultPlan::from_spec("pdrop:1:0:4294967297").is_err(), "count overflows u32");
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        for step in 0..10 {
            assert!(plan.gradient_faults_at(step).is_empty());
            assert!(plan.ring_faults_at(step).is_empty());
        }
    }
}
