//! Supervisor <-> worker control-plane messages.
//!
//! The control plane is a line-oriented text protocol over each worker's
//! TCP connection to the supervisor — deliberately human-readable, so a
//! hung cluster can be debugged with `strace`/`tcpdump` output alone.
//! One message per line:
//!
//! ```text
//! worker -> supervisor:
//!   hello <rank> <data_port>          first message after connecting
//!   hb <micro_steps>                  heartbeat (liveness + progress)
//!   update <updates>                  an optimizer update was applied
//!   ckpt <updates> <path>             a checkpoint was written
//!   syncfail <epoch> <reason...>      window-close sync failed at the
//!                                     given membership epoch; awaiting
//!                                     a members (elastic) or shutdown
//!                                     (restart) instruction
//!   done <updates> <weights_hash>     target reached; hash of all
//!                                     parameter bytes for replica
//!                                     agreement checks
//!
//! supervisor -> worker:
//!   members <epoch> <rank:port,...>   (re)form the data ring with this
//!                                     membership, in list order
//!   shutdown                          exit now (restart-recovery or end
//!                                     of run)
//! ```

use crate::proc::DistError;

/// A parsed control-plane message (either direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// Worker announces itself: original rank and its ring listen port.
    Hello {
        /// The worker's original (spawn-time) rank.
        rank: usize,
        /// Localhost port its ring listener is bound to.
        data_port: u16,
    },
    /// Liveness heartbeat with the worker's micro-step counter.
    Heartbeat {
        /// Micro-steps executed so far.
        micro_steps: u64,
    },
    /// An optimizer update completed.
    Update {
        /// Total updates applied by this worker.
        updates: u64,
    },
    /// A checkpoint was written.
    Checkpoint {
        /// Update count the checkpoint captures.
        updates: u64,
        /// Filesystem path of the checkpoint.
        path: String,
    },
    /// The worker's window-close gradient sync failed.
    SyncFail {
        /// Membership epoch the failed ring was formed at. The supervisor
        /// uses this to discard stale syncfails that are really responses
        /// to an already-handled (and already-rebroadcast) incident.
        epoch: u32,
        /// Human-readable failure.
        reason: String,
    },
    /// The worker reached its update target.
    Done {
        /// Final update count.
        updates: u64,
        /// FNV-1a hash over all parameter bytes (replica agreement).
        weights_hash: u64,
    },
    /// Supervisor instructs: (re)form the ring with this membership.
    Members {
        /// Membership epoch (strictly increasing across reconfigurations).
        epoch: u32,
        /// `(original rank, data port)` pairs in ring order.
        members: Vec<(usize, u16)>,
    },
    /// Supervisor instructs: exit now.
    Shutdown,
}

impl ControlMsg {
    /// Render as one protocol line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            ControlMsg::Hello { rank, data_port } => format!("hello {rank} {data_port}"),
            ControlMsg::Heartbeat { micro_steps } => format!("hb {micro_steps}"),
            ControlMsg::Update { updates } => format!("update {updates}"),
            ControlMsg::Checkpoint { updates, path } => format!("ckpt {updates} {path}"),
            ControlMsg::SyncFail { epoch, reason } => {
                format!("syncfail {epoch} {}", reason.replace('\n', " "))
            }
            ControlMsg::Done { updates, weights_hash } => {
                format!("done {updates} {weights_hash}")
            }
            ControlMsg::Members { epoch, members } => {
                let list =
                    members.iter().map(|(r, p)| format!("{r}:{p}")).collect::<Vec<_>>().join(",");
                format!("members {epoch} {list}")
            }
            ControlMsg::Shutdown => "shutdown".to_string(),
        }
    }

    /// Parse one protocol line.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Protocol`] on a malformed line.
    pub fn from_line(line: &str) -> Result<ControlMsg, DistError> {
        let line = line.trim_end();
        let bad = || DistError::Protocol(format!("malformed control line `{line}`"));
        let mut it = line.splitn(3, ' ');
        let verb = it.next().ok_or_else(bad)?;
        let a = it.next();
        let b = it.next();
        let num = |s: Option<&str>| -> Result<u64, DistError> {
            s.ok_or_else(bad)?.parse::<u64>().map_err(|_| bad())
        };
        Ok(match verb {
            "hello" => ControlMsg::Hello {
                rank: num(a)? as usize,
                data_port: u16::try_from(num(b)?).map_err(|_| bad())?,
            },
            "hb" => ControlMsg::Heartbeat { micro_steps: num(a)? },
            "update" => ControlMsg::Update { updates: num(a)? },
            "ckpt" => {
                ControlMsg::Checkpoint { updates: num(a)?, path: b.ok_or_else(bad)?.to_string() }
            }
            "syncfail" => ControlMsg::SyncFail {
                epoch: u32::try_from(num(a)?).map_err(|_| bad())?,
                reason: b.unwrap_or("").to_string(),
            },
            "done" => ControlMsg::Done { updates: num(a)?, weights_hash: num(b)? },
            "members" => {
                let epoch = u32::try_from(num(a)?).map_err(|_| bad())?;
                let mut members = Vec::new();
                for pair in b.ok_or_else(bad)?.split(',').filter(|p| !p.is_empty()) {
                    let (r, p) = pair.split_once(':').ok_or_else(bad)?;
                    members.push((
                        r.parse::<usize>().map_err(|_| bad())?,
                        p.parse::<u16>().map_err(|_| bad())?,
                    ));
                }
                if members.is_empty() {
                    return Err(bad());
                }
                ControlMsg::Members { epoch, members }
            }
            "shutdown" => ControlMsg::Shutdown,
            _ => return Err(bad()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_tensor::FaultPlan;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn every_message_roundtrips() {
        let msgs = vec![
            ControlMsg::Hello { rank: 3, data_port: 40113 },
            ControlMsg::Heartbeat { micro_steps: 17 },
            ControlMsg::Update { updates: 4 },
            ControlMsg::Checkpoint { updates: 4, path: "/tmp/ck/step_4.bsck".into() },
            ControlMsg::SyncFail {
                epoch: 1,
                reason: "rank 1 lost its ring neighbour at step 2".into(),
            },
            ControlMsg::Done { updates: 8, weights_hash: 0xdead_beef_cafe },
            ControlMsg::Members { epoch: 2, members: vec![(0, 4000), (2, 4002), (3, 4003)] },
            ControlMsg::Shutdown,
        ];
        for m in msgs {
            let line = m.to_line();
            assert!(!line.contains('\n'));
            let back = ControlMsg::from_line(&line).expect("roundtrip");
            assert_eq!(m, back, "line `{line}`");
        }
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        for bad in ["", "frobnicate 1", "hello onlyrank", "hello x y", "members 1", "members 1 ,"] {
            assert!(ControlMsg::from_line(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn syncfail_reasons_survive_spaces() {
        let m = ControlMsg::SyncFail {
            epoch: 3,
            reason: "hop at ring step 3 failed after 4 attempts".into(),
        };
        assert_eq!(ControlMsg::from_line(&m.to_line()).expect("parse"), m);
    }

    /// Strings mixing protocol tokens with arbitrary characters, so the
    /// fuzz reaches past the verb check into the field parsers.
    fn fuzz_text() -> impl Strategy<Value = String> {
        let tokens: Vec<&str> = "hello members syncfail done ckpt pdrop pcorrupt kill corrupt nan \
                                 0 7 -1 65536 4294967297 18446744073709551616 : ; ,"
            .split(' ')
            .chain([" ", "\n"])
            .collect();
        let part = (0..tokens.len() + 1, 0u32..0x11_0000);
        collection::vec(part, 0..12).prop_map(move |parts| {
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

        /// The supervisor and workers parse each other's lines: any input
        /// is a message or a structured error, never a panic.
        #[test]
        fn control_lines_never_panic(line in fuzz_text()) {
            if let Ok(msg) = ControlMsg::from_line(&line) {
                prop_assert!(!msg.to_line().is_empty());
            }
        }

        /// Workers parse the fault spec their launcher hands them.
        #[test]
        fn fault_specs_never_panic(spec in fuzz_text()) {
            if let Ok(plan) = FaultPlan::from_spec(&spec) {
                prop_assert_eq!(FaultPlan::from_spec(&plan.to_spec()), Ok(plan));
            }
        }
    }
}
