//! The per-rank worker: a full training replica wired into the socket
//! ring and the supervisor's control plane.
//!
//! Every rank builds the *same* model (same init seed), trains on
//! rank-disjoint deterministic synthetic batches, and installs a
//! [`GradSync`] bridge that `AllReduce`s the window-averaged gradients over
//! the [`SocketRing`] — so the replicas stay bit-identical, which the
//! supervisor verifies by comparing the weight hashes every rank reports
//! at the end of the run.
//!
//! Fault handling is two-layered: socket faults (drop/delay/corrupt) are
//! armed into the transport and absorbed by its retransmission protocol;
//! a `KillProcess` fault is fatal by design — the worker drops all its
//! sockets without a word (process backend: `std::process::exit`), and
//! *recovery is the supervisor's job*. When a sync fails because the ring
//! died, the worker reports `syncfail` and blocks on the control plane
//! for either a new membership (elastic shrink: re-form the ring, retry
//! the preserved window) or a shutdown (restart recovery: exit, be
//! relaunched from the last checkpoint).

use crate::proc::control::ControlMsg;
use crate::proc::ring::RingConfig;
use crate::proc::ring::{form_ring, RingStats, SocketRing};
use crate::proc::transport::SocketFaults;
use crate::proc::DistError;
use bertscope_model::BertConfig;
use bertscope_tensor::bucket::encode_f32s;
use bertscope_tensor::{
    AccessSet, BufId, Category, DType, FaultKind, FaultPlan, OpKind, OpRecord, Phase, Tensor,
    Tracer,
};
use bertscope_train::{
    Bert, BucketSink, BucketedAverager, GradSync, Lamb, PretrainBatch, StepResult, SyncError,
    SyntheticCorpus, TrainCheckpoint, TrainError, TrainOptions, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a worker needs to run — constructible from explicit values
/// (thread backend) or from environment variables (process backend, where
/// the launcher re-execs the binary).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// This worker's original (spawn-time) rank.
    pub orig_rank: usize,
    /// Initial world size.
    pub world: usize,
    /// Supervisor control address, e.g. `127.0.0.1:41234`.
    pub supervisor: String,
    /// Seed for model init (shared) and data (per-rank-derived).
    pub seed: u64,
    /// Optimizer updates to run before reporting done.
    pub total_updates: u64,
    /// Gradient-accumulation window (micro-steps per update).
    pub accumulation: usize,
    /// Overlap backward with communication: run the recorded step on the
    /// operator-graph scheduler and `AllReduce` each gradient bucket on a
    /// communication thread the moment its last producing op retires,
    /// instead of one aggregate collective after backward. Bit-identical
    /// results either way.
    pub overlap: bool,
    /// Fault plan spec (see `FaultPlan::to_spec`).
    pub fault_spec: String,
    /// Ring tunables (timeouts, retries, bucket size).
    pub ring: RingConfig,
    /// Directory checkpoints are written into.
    pub ckpt_dir: PathBuf,
    /// Checkpoint to restore before training (restart recovery).
    pub resume_from: Option<PathBuf>,
    /// Heartbeat period on the control plane.
    pub heartbeat: Duration,
    /// Deadline for control-plane waits (membership, shutdown).
    pub control_timeout: Duration,
    /// Where to dump this rank's traced operator stream, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Whether a `KillProcess` fault exits the OS process (process
    /// backend) or returns [`DistError::Killed`] (thread backend).
    pub process_backend: bool,
}

/// Environment variable names of the process backend (all prefixed so a
/// re-exec'd binary can detect the worker role).
pub const ENV_ROLE: &str = "BERTSCOPE_PROC_ROLE";
const ENV_RANK: &str = "BERTSCOPE_PROC_RANK";
const ENV_WORLD: &str = "BERTSCOPE_PROC_WORLD";
const ENV_SUPERVISOR: &str = "BERTSCOPE_PROC_SUPERVISOR";
const ENV_SEED: &str = "BERTSCOPE_PROC_SEED";
const ENV_UPDATES: &str = "BERTSCOPE_PROC_UPDATES";
const ENV_ACCUM: &str = "BERTSCOPE_PROC_ACCUM";
const ENV_OVERLAP: &str = "BERTSCOPE_PROC_OVERLAP";
const ENV_FAULTS: &str = "BERTSCOPE_PROC_FAULTS";
const ENV_CKPT_DIR: &str = "BERTSCOPE_PROC_CKPT_DIR";
const ENV_RESUME: &str = "BERTSCOPE_PROC_RESUME";
const ENV_TIMEOUT_MS: &str = "BERTSCOPE_PROC_TIMEOUT_MS";
const ENV_RETRIES: &str = "BERTSCOPE_PROC_RETRIES";
const ENV_BACKOFF_MS: &str = "BERTSCOPE_PROC_BACKOFF_MS";
const ENV_BUCKET: &str = "BERTSCOPE_PROC_BUCKET";
const ENV_HEARTBEAT_MS: &str = "BERTSCOPE_PROC_HEARTBEAT_MS";
const ENV_CONTROL_TIMEOUT_MS: &str = "BERTSCOPE_PROC_CONTROL_TIMEOUT_MS";
const ENV_TRACE_OUT: &str = "BERTSCOPE_PROC_TRACE_OUT";

impl WorkerConfig {
    /// Render as the environment a process-backend launcher passes to the
    /// re-exec'd worker (paired with [`WorkerConfig::from_env`]).
    #[must_use]
    pub fn to_env(&self) -> Vec<(String, String)> {
        let mut env = vec![
            (ENV_ROLE.into(), "worker".into()),
            (ENV_RANK.into(), self.orig_rank.to_string()),
            (ENV_WORLD.into(), self.world.to_string()),
            (ENV_SUPERVISOR.into(), self.supervisor.clone()),
            (ENV_SEED.into(), self.seed.to_string()),
            (ENV_UPDATES.into(), self.total_updates.to_string()),
            (ENV_ACCUM.into(), self.accumulation.to_string()),
            (ENV_OVERLAP.into(), u32::from(self.overlap).to_string()),
            (ENV_FAULTS.into(), self.fault_spec.clone()),
            (ENV_CKPT_DIR.into(), self.ckpt_dir.display().to_string()),
            (ENV_TIMEOUT_MS.into(), self.ring.timeout.as_millis().to_string()),
            (ENV_RETRIES.into(), self.ring.max_retries.to_string()),
            (ENV_BACKOFF_MS.into(), self.ring.backoff.as_millis().to_string()),
            (ENV_BUCKET.into(), self.ring.bucket_elems.to_string()),
            (ENV_HEARTBEAT_MS.into(), self.heartbeat.as_millis().to_string()),
            (ENV_CONTROL_TIMEOUT_MS.into(), self.control_timeout.as_millis().to_string()),
        ];
        if let Some(p) = &self.resume_from {
            env.push((ENV_RESUME.into(), p.display().to_string()));
        }
        if let Some(p) = &self.trace_out {
            env.push((ENV_TRACE_OUT.into(), p.display().to_string()));
        }
        env
    }

    /// Reconstruct from the environment (process backend).
    ///
    /// # Errors
    ///
    /// Returns a protocol error naming the first missing or malformed
    /// variable.
    pub fn from_env() -> Result<WorkerConfig, DistError> {
        WorkerConfig::from_vars(|k| std::env::var(k).ok())
    }

    /// [`WorkerConfig::from_env`] over an arbitrary variable lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<WorkerConfig, DistError> {
        let bad = |k: &str| DistError::Protocol(format!("bad env {k}"));
        let get = |k: &str| -> Result<String, DistError> {
            var(k).ok_or_else(|| DistError::Protocol(format!("missing env {k}")))
        };
        let num =
            |k: &str| -> Result<u64, DistError> { get(k)?.parse::<u64>().map_err(|_| bad(k)) };
        Ok(WorkerConfig {
            orig_rank: num(ENV_RANK)? as usize,
            world: num(ENV_WORLD)? as usize,
            supervisor: get(ENV_SUPERVISOR)?,
            seed: num(ENV_SEED)?,
            total_updates: num(ENV_UPDATES)?,
            accumulation: num(ENV_ACCUM)? as usize,
            overlap: var(ENV_OVERLAP).is_some_and(|v| v == "1"),
            fault_spec: var(ENV_FAULTS).unwrap_or_default(),
            ring: RingConfig {
                timeout: Duration::from_millis(num(ENV_TIMEOUT_MS)?),
                max_retries: u32::try_from(num(ENV_RETRIES)?).map_err(|_| bad(ENV_RETRIES))?,
                backoff: Duration::from_millis(num(ENV_BACKOFF_MS)?),
                // `plan_buckets` rejects an empty bucket.
                bucket_elems: match num(ENV_BUCKET)? {
                    0 => return Err(bad(ENV_BUCKET)),
                    n => n as usize,
                },
            },
            ckpt_dir: PathBuf::from(get(ENV_CKPT_DIR)?),
            resume_from: var(ENV_RESUME).map(PathBuf::from),
            heartbeat: Duration::from_millis(num(ENV_HEARTBEAT_MS)?),
            control_timeout: Duration::from_millis(num(ENV_CONTROL_TIMEOUT_MS)?),
            trace_out: var(ENV_TRACE_OUT).map(PathBuf::from),
            process_backend: true,
        })
    }
}

/// What a worker accomplished (thread backend return value; the process
/// backend communicates the same facts over the control plane).
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The worker's original rank.
    pub orig_rank: usize,
    /// Optimizer updates applied.
    pub updates: u64,
    /// FNV-1a hash over all parameter names and bytes.
    pub weights_hash: u64,
    /// Whether the supervisor shut the worker down before it reached its
    /// update target (restart recovery relaunches it).
    pub early_shutdown: bool,
    /// Per-collective ring statistics, in execution order. Overlapped
    /// window closes contribute one entry *per gradient bucket*; the
    /// eager path contributes one aggregate entry per window.
    pub ring_stats: Vec<RingStats>,
    /// For each overlapped window close, the microseconds the close had
    /// to wait on the communication thread after backward retired the
    /// last bucket — the *exposed* (unhidden) communication time.
    pub exposed_comm_us: Vec<u64>,
}

/// Shared ring state: the trainer's `GradSync` box and the worker's
/// control loop both reach it (sync uses it, reconfiguration replaces
/// it).
#[derive(Debug, Default)]
struct RingShared {
    ring: Option<SocketRing>,
    pending_faults: SocketFaults,
    stats_log: Vec<RingStats>,
}

impl RingShared {
    /// Arm the window's pending socket faults. `arm_faults` overwrites, so
    /// this runs once per window, never per bucket.
    fn arm_window_faults(&mut self) {
        let faults = std::mem::take(&mut self.pending_faults);
        if let Some(ring) = self.ring.as_mut() {
            ring.arm_faults(faults);
        }
    }

    /// `AllReduce` `data` over the ring, scale it to the mean and log the
    /// stats. A transport error drops the ring: a reconfiguration must
    /// replace it before the window close is retried.
    fn allreduce_mean(&mut self, data: &mut [f32]) -> Result<RingStats, String> {
        let Some(ring) = self.ring.as_mut() else {
            return Err("ring lost before bucket collective".into());
        };
        let stats = match ring.allreduce(data) {
            Ok(stats) => stats,
            Err(e) => {
                self.ring = None;
                return Err(e.to_string());
            }
        };
        let inv = 1.0 / stats.world as f32;
        for v in data {
            *v *= inv;
        }
        self.stats_log.push(stats);
        Ok(stats)
    }
}

/// The `Comm` record of one `AllReduce` of `elems` values held in the
/// buffers `ids`, which it both reads and writes.
fn comm_record(name: String, elems: usize, stats: &RingStats, ids: &[BufId]) -> OpRecord {
    OpRecord {
        name,
        kind: OpKind::Comm,
        category: Category::Comm,
        phase: Phase::Communication,
        layer: None,
        gemm: None,
        flops: elems as u64 * (stats.world as u64 - 1),
        bytes_read: stats.bytes_sent,
        bytes_written: stats.bytes_sent,
        dtype: DType::F32,
        access: AccessSet::new(ids, ids),
    }
}

/// The trainer-facing bridge: flattens the averaged gradients, `AllReduce`s
/// them over the socket ring, rescales by the active world size and
/// writes them back — tracing the whole exchange as a `Comm` op over the
/// gradient buffers so the hazard analyzer sees the
/// AllReduce-before-optimizer ordering.
#[derive(Debug)]
struct RingGradSync {
    shared: Arc<Mutex<RingShared>>,
}

impl GradSync for RingGradSync {
    fn world(&self) -> usize {
        self.shared.lock().expect("ring lock").ring.as_ref().map_or(1, |r| r.world)
    }

    fn sync(&mut self, tracer: &mut Tracer, grads: &mut [Tensor]) -> Result<(), SyncError> {
        let mut shared = self.shared.lock().expect("ring lock");
        shared.arm_window_faults();
        let Some(epoch) = shared.ring.as_ref().map(|r| r.epoch) else {
            // World of one (or no ring yet): the local mean is the global
            // mean.
            return Ok(());
        };
        let mut flat: Vec<f32> = Vec::with_capacity(grads.iter().map(|g| g.as_slice().len()).sum());
        for g in grads.iter() {
            flat.extend_from_slice(g.as_slice());
        }
        let stats = shared.allreduce_mean(&mut flat).map_err(SyncError::new)?;
        let mut at = 0;
        let mut ids = Vec::with_capacity(grads.len());
        for g in grads.iter_mut() {
            let dst = g.as_mut_slice();
            dst.copy_from_slice(&flat[at..at + dst.len()]);
            at += dst.len();
            ids.push(g.buf_id());
        }
        let name = format!("proc.allreduce epoch{epoch} w{}", stats.world);
        tracer.record(comm_record(name, flat.len(), &stats, &ids));
        Ok(())
    }
}

/// Streams fired gradient buckets from the backward pass to the
/// per-window communication thread. The payload is copied out of the
/// averager's flat buffer so backward never waits on the wire.
struct ChannelSink(mpsc::Sender<(usize, Range<usize>, Vec<f32>)>);

impl BucketSink for ChannelSink {
    fn bucket_ready(&mut self, bucket: usize, range: Range<usize>, data: &[f32]) {
        // The receiver is only gone after a ring failure; the join in
        // `overlapped_close` surfaces that, so a send error is ignorable.
        let _ = self.0.send((bucket, range, data.to_vec()));
    }
}

/// One bucket's synced payload: `(bucket index, flat range, averaged
/// data, collective stats)`.
type BucketResult = (usize, Range<usize>, Vec<f32>, RingStats);

/// Body of the per-window communication thread: `AllReduce` each gradient
/// bucket as backward fires it, while backward keeps computing the next.
///
/// Each bucket's payload is at most `bucket_elems` long and starts on a
/// plan boundary, so the per-bucket collective performs the bit-identical
/// reduction the aggregate post-backward call would. On a transport error
/// the ring is torn down (as in the eager path) and the error string
/// returned; the caller converts it into the retryable
/// [`TrainError::Sync`] — the trainer's gradient sums are untouched by
/// this thread, so the eager `close_window` retry remains exact.
fn comm_thread(
    shared: &Arc<Mutex<RingShared>>,
    rx: &mpsc::Receiver<(usize, Range<usize>, Vec<f32>)>,
) -> Result<Vec<BucketResult>, String> {
    let mut out: Vec<BucketResult> = Vec::new();
    let mut armed = false;
    while let Ok((bucket, range, mut data)) = rx.recv() {
        let mut sh = shared.lock().expect("ring lock");
        if !armed {
            sh.arm_window_faults();
            armed = true;
        }
        let stats = sh.allreduce_mean(&mut data)?;
        out.push((bucket, range, data, stats));
    }
    Ok(out)
}

/// Run the window-closing micro-step with backward/AllReduce overlap.
///
/// Backward runs on the caller thread and fires each gradient bucket —
/// already window-averaged by the trainer's observer — into the
/// communication thread the moment its last producing op retires. After
/// backward the caller blocks only for whatever wire time backward could
/// not hide; that wait is recorded in `exposed_log` as the window's
/// exposed communication time. The synced buckets are reassembled into
/// per-slot tensors, traced as per-bucket `Comm` ops (so the hazard rules
/// see each bucket's AllReduce-before-optimizer order), and handed to
/// [`Trainer::close_window_presynced`] for the optimizer step.
fn overlapped_close(
    trainer: &mut Trainer<Lamb>,
    bert: &mut Bert,
    tracer: &mut Tracer,
    batch: &PretrainBatch,
    shared: &Arc<Mutex<RingShared>>,
    bucket_elems: usize,
    exposed_log: &mut Vec<u64>,
) -> Result<StepResult, TrainError> {
    let (dims, lens): (Vec<Vec<usize>>, Vec<usize>) = bert
        .param_values_mut()
        .iter()
        .map(|(_, t)| (t.dims().to_vec(), t.as_slice().len()))
        .unzip();
    let (tx, rx) = mpsc::channel();
    let comm = {
        let shared = shared.clone();
        std::thread::spawn(move || comm_thread(&shared, &rx))
    };
    let mut averager = BucketedAverager::new(&lens, bucket_elems, ChannelSink(tx));
    let step = trainer.micro_step_observed(tracer, bert, batch, &mut averager);
    let (_, window_full) = match step {
        Ok(v) => v,
        Err(e) => {
            // Close the channel without the all-buckets-fired assertion
            // and let the comm thread drain; the error itself is fatal.
            drop(averager);
            let _ = comm.join();
            return Err(e);
        }
    };
    debug_assert!(window_full, "overlap gate only fires on the window-closing micro-step");
    drop(averager.into_sink());
    let wait = Instant::now();
    let results = comm
        .join()
        .expect("comm thread panicked")
        .map_err(|reason| TrainError::Sync { step: trainer.micro_steps(), reason })?;
    exposed_log.push(u64::try_from(wait.elapsed().as_micros()).unwrap_or(u64::MAX));

    // Reassemble the flat synced vector into canonical per-slot tensors.
    let total: usize = lens.iter().sum();
    let mut flat = vec![0.0f32; total];
    for (_, range, data, _) in &results {
        flat[range.clone()].copy_from_slice(data);
    }
    let mut offsets = Vec::with_capacity(lens.len() + 1);
    offsets.push(0usize);
    for &len in &lens {
        offsets.push(offsets.last().expect("non-empty") + len);
    }
    let averaged: Vec<Tensor> = dims
        .iter()
        .zip(offsets.windows(2))
        .map(|(d, w)| Tensor::from_vec(flat[w[0]..w[1]].to_vec(), d).expect("slot shape"))
        .collect();

    // One Comm op per bucket, over exactly the gradient buffers the
    // bucket covers, recorded before the optimizer reads them.
    for (b, range, _, stats) in &results {
        let ids: Vec<BufId> = averaged
            .iter()
            .zip(offsets.windows(2))
            .filter(|(_, w)| w[0] < range.end && range.start < w[1])
            .map(|(t, _)| t.buf_id())
            .collect();
        let name = format!("proc.allreduce.bucket{b} w{}", stats.world);
        tracer.record(comm_record(name, range.len(), stats, &ids));
    }
    trainer.close_window_presynced(tracer, bert, &averaged)
}

/// FNV-1a over parameter names and raw f32 bytes — the replica-agreement
/// fingerprint every rank reports in its `done` message.
#[must_use]
pub fn weights_hash(bert: &mut Bert) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let extend = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, t) in bert.param_values_mut() {
        extend(&mut h, name.as_bytes());
        extend(&mut h, &encode_f32s(t.as_slice()));
    }
    h
}

/// The deterministic batch for `(seed, rank, attempt)` — every rank draws
/// from a disjoint, reproducible stream, so an interrupted run re-executes
/// the identical data order after restart.
#[must_use]
pub fn batch_for(
    corpus: &SyntheticCorpus,
    cfg: &BertConfig,
    seed: u64,
    rank: usize,
    attempt: u64,
) -> PretrainBatch {
    let mixed = seed
        ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ attempt.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let mut rng = StdRng::seed_from_u64(mixed);
    corpus.generate_batch(&mut rng, cfg)
}

fn send_ctrl(w: &Arc<Mutex<TcpStream>>, msg: &ControlMsg) -> Result<(), DistError> {
    let mut line = msg.to_line();
    line.push('\n');
    let mut stream = w.lock().expect("control lock");
    stream.write_all(line.as_bytes())?;
    stream.flush()?;
    Ok(())
}

/// Read the next control message, tolerating read-timeout ticks until
/// `deadline`.
fn read_ctrl(
    reader: &mut BufReader<TcpStream>,
    deadline: Instant,
    what: &str,
) -> Result<ControlMsg, DistError> {
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(DistError::Io("supervisor hung up".into())),
            Ok(_) => return ControlMsg::from_line(&line),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err(DistError::Timeout { what: what.into() });
                }
            }
            Err(e) => return Err(DistError::Io(e.to_string())),
        }
    }
}

/// Run one worker to completion (or supervised shutdown). This is the
/// entry point of both backends: the thread backend calls it directly,
/// the process backend calls it from `main` after
/// [`WorkerConfig::from_env`].
///
/// # Errors
///
/// Structured [`DistError`]s: unrecoverable training failures, protocol
/// violations, control-plane timeouts, or [`DistError::Killed`] when the
/// fault plan kills this rank (thread backend).
///
/// # Panics
///
/// Panics when the fault spec is unparseable (a launcher bug, not a
/// runtime condition).
pub fn worker_main(cfg: &WorkerConfig) -> Result<WorkerReport, DistError> {
    let plan = FaultPlan::from_spec(&cfg.fault_spec).expect("fault spec must parse");
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let data_port = listener.local_addr()?.port();

    let control = TcpStream::connect(&cfg.supervisor)?;
    control.set_nodelay(true)?;
    control.set_read_timeout(Some(Duration::from_millis(50)))?;
    let ctrl_w = Arc::new(Mutex::new(control.try_clone()?));
    let mut ctrl_r = BufReader::new(control);
    send_ctrl(&ctrl_w, &ControlMsg::Hello { rank: cfg.orig_rank, data_port })?;

    // Heartbeats ride the same socket; the write mutex keeps lines atomic.
    let stop = Arc::new(AtomicBool::new(false));
    let hb_handle = {
        let stop = stop.clone();
        let w = ctrl_w.clone();
        let period = cfg.heartbeat;
        std::thread::spawn(move || {
            let mut beats: u64 = 0;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                beats += 1;
                if send_ctrl(&w, &ControlMsg::Heartbeat { micro_steps: beats }).is_err() {
                    return;
                }
            }
        })
    };
    // Everything after this point must stop the heartbeat before
    // returning; a small guard keeps the paths honest.
    let finish = |stop: &Arc<AtomicBool>, ctrl_w: &Arc<Mutex<TcpStream>>| {
        stop.store(true, Ordering::Relaxed);
        if let Ok(s) = ctrl_w.lock() {
            let _ = s.shutdown(Shutdown::Both);
        }
    };

    let result = run_worker(cfg, &plan, &listener, &ctrl_w, &mut ctrl_r);
    finish(&stop, &ctrl_w);
    let _ = hb_handle.join();
    result
}

/// Await a `members` instruction newer than `last_epoch` and (re)form the
/// data ring from it, advancing `last_epoch` to the formed epoch.
/// Membership lines at or below `last_epoch` are stale broadcasts from an
/// incident this worker already recovered from; acting on one would form
/// a ring against dead or reconfigured peers, so they are drained and
/// dropped.
fn await_and_form_ring(
    cfg: &WorkerConfig,
    listener: &TcpListener,
    ctrl_r: &mut BufReader<TcpStream>,
    shared: &Arc<Mutex<RingShared>>,
    last_epoch: &mut u32,
) -> Result<MembershipOutcome, DistError> {
    let deadline = Instant::now() + cfg.control_timeout;
    loop {
        match read_ctrl(ctrl_r, deadline, "ring membership")? {
            ControlMsg::Members { epoch, members } if epoch > *last_epoch => {
                let Some(position) = members.iter().position(|(r, _)| *r == cfg.orig_rank) else {
                    // Evicted (shouldn't happen to a live rank): exit.
                    return Ok(MembershipOutcome::Shutdown);
                };
                let ports: Vec<u16> = members.iter().map(|(_, p)| *p).collect();
                let ring = if members.len() > 1 {
                    Some(form_ring(listener, &ports, position, epoch, &cfg.ring)?)
                } else {
                    None
                };
                let lowest = members.iter().map(|(r, _)| *r).min().expect("non-empty");
                shared.lock().expect("ring lock").ring = ring;
                *last_epoch = epoch;
                return Ok(MembershipOutcome::Formed { checkpoint_duty: lowest == cfg.orig_rank });
            }
            ControlMsg::Shutdown => return Ok(MembershipOutcome::Shutdown),
            // Ignore anything else (stale broadcasts).
            _ => {}
        }
    }
}

enum MembershipOutcome {
    Formed {
        /// Whether this rank writes the checkpoints (lowest live rank).
        checkpoint_duty: bool,
    },
    Shutdown,
}

#[allow(clippy::too_many_lines)]
fn run_worker(
    cfg: &WorkerConfig,
    plan: &FaultPlan,
    listener: &TcpListener,
    ctrl_w: &Arc<Mutex<TcpStream>>,
    ctrl_r: &mut BufReader<TcpStream>,
) -> Result<WorkerReport, DistError> {
    // Any rank may inherit the checkpoint duty after a membership change.
    std::fs::create_dir_all(&cfg.ckpt_dir)?;
    let shared = Arc::new(Mutex::new(RingShared::default()));
    let mut last_epoch: u32 = 0;
    let mut checkpoint_duty =
        match await_and_form_ring(cfg, listener, ctrl_r, &shared, &mut last_epoch)? {
            MembershipOutcome::Formed { checkpoint_duty } => checkpoint_duty,
            MembershipOutcome::Shutdown => {
                return Ok(WorkerReport {
                    orig_rank: cfg.orig_rank,
                    updates: 0,
                    weights_hash: 0,
                    early_shutdown: true,
                    ring_stats: Vec::new(),
                    exposed_comm_us: Vec::new(),
                });
            }
        };

    // Same config + same seed on every rank: identical initial replicas.
    let bert_cfg = BertConfig::tiny();
    let corpus = SyntheticCorpus::new(bert_cfg.vocab);
    // `overlap` also runs the recorded micro-step on the scheduler
    // (`graph`) so backward/AllReduce overlap composes with inter-op
    // parallelism; both modes are bit-identical to inline execution.
    let opts = TrainOptions { graph: cfg.overlap, ..TrainOptions::default() };
    let mut bert = Bert::new(bert_cfg, opts, cfg.seed);
    let mut trainer = Trainer::new(Lamb::new(0.01), cfg.accumulation)
        .with_sync(Box::new(RingGradSync { shared: shared.clone() }));
    let mut tracer = if cfg.trace_out.is_some() { Tracer::new() } else { Tracer::disabled() };
    if let Some(path) = &cfg.resume_from {
        let ckpt = TrainCheckpoint::load(path).map_err(|e| DistError::Train(e.to_string()))?;
        trainer.restore(&ckpt, &mut bert).map_err(|e| DistError::Train(e.to_string()))?;
    }

    let mut early_shutdown = false;
    let mut exposed_log: Vec<u64> = Vec::new();
    'train: while trainer.updates() < cfg.total_updates {
        let attempt = trainer.micro_steps() + 1;
        // Arm this step's process faults.
        {
            let mut sf = SocketFaults::default();
            for fault in plan.process_faults_at(attempt) {
                match *fault {
                    FaultKind::KillProcess { rank } if rank == cfg.orig_rank => {
                        if cfg.process_backend {
                            // An abrupt, word-less death: sockets reset,
                            // no farewell. 113 distinguishes the injected
                            // kill from genuine crashes in CI logs.
                            std::process::exit(113);
                        }
                        return Err(DistError::Killed { rank: cfg.orig_rank });
                    }
                    FaultKind::DropSend { rank, count } if rank == cfg.orig_rank => {
                        sf.drop_sends += count;
                    }
                    FaultKind::DelaySend { rank, micros } if rank == cfg.orig_rank => {
                        sf.delay_send_micros += micros;
                    }
                    FaultKind::CorruptPayload { rank, count } if rank == cfg.orig_rank => {
                        sf.corrupt_sends += count;
                    }
                    _ => {}
                }
            }
            shared.lock().expect("ring lock").pending_faults = sf;
        }

        let batch = batch_for(&corpus, &bert_cfg, cfg.seed, cfg.orig_rank, attempt);
        // Overlap fires on the window-closing micro-step of a live ring;
        // everything else (accumulating steps, world of one, post-failure
        // retries) takes the eager path.
        let overlap_now = cfg.overlap
            && trainer.pending() + 1 == cfg.accumulation
            && shared.lock().expect("ring lock").ring.is_some();
        let mut outcome = if overlap_now {
            overlapped_close(
                &mut trainer,
                &mut bert,
                &mut tracer,
                &batch,
                &shared,
                cfg.ring.bucket_elems,
                &mut exposed_log,
            )
        } else {
            trainer.micro_step(&mut tracer, &mut bert, &batch).map(|(_, r)| r)
        };
        // A failed sync is retryable after the supervisor repairs the
        // membership; everything else is fatal for this worker.
        loop {
            match outcome {
                Ok(StepResult::Updated) => {
                    on_update(cfg, &mut trainer, &mut bert, ctrl_w, checkpoint_duty)?;
                    break;
                }
                Ok(_) => break,
                Err(TrainError::Sync { ref reason, .. }) => {
                    send_ctrl(
                        ctrl_w,
                        &ControlMsg::SyncFail { epoch: last_epoch, reason: reason.clone() },
                    )?;
                    match await_and_form_ring(cfg, listener, ctrl_r, &shared, &mut last_epoch)? {
                        MembershipOutcome::Formed { checkpoint_duty: duty } => {
                            checkpoint_duty = duty;
                            outcome = trainer.close_window(&mut tracer, &mut bert);
                        }
                        MembershipOutcome::Shutdown => {
                            early_shutdown = true;
                            break 'train;
                        }
                    }
                }
                Err(e) => return Err(DistError::Train(e.to_string())),
            }
        }
    }

    if let (Some(path), true) = (&cfg.trace_out, tracer.is_enabled()) {
        std::fs::write(path, bertscope_tensor::tracefile::dump_records(tracer.records()))?;
    }

    let hash = if early_shutdown { 0 } else { weights_hash(&mut bert) };
    if !early_shutdown {
        send_ctrl(ctrl_w, &ControlMsg::Done { updates: trainer.updates(), weights_hash: hash })?;
        // Wait (bounded) for the supervisor's shutdown so the control
        // socket closes in order; a timeout here is not an error.
        let deadline = Instant::now() + cfg.control_timeout;
        loop {
            match read_ctrl(ctrl_r, deadline, "final shutdown") {
                Ok(ControlMsg::Shutdown) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
    let ring_stats = std::mem::take(&mut shared.lock().expect("ring lock").stats_log);
    Ok(WorkerReport {
        orig_rank: cfg.orig_rank,
        updates: trainer.updates(),
        weights_hash: hash,
        early_shutdown,
        ring_stats,
        exposed_comm_us: exposed_log,
    })
}

/// Post-update duties: report progress; on the checkpointing rank, write
/// the bit-exact checkpoint atomically ([`TrainCheckpoint::save`]) and
/// announce it once it is in place.
fn on_update(
    cfg: &WorkerConfig,
    trainer: &mut Trainer<Lamb>,
    bert: &mut Bert,
    ctrl_w: &Arc<Mutex<TcpStream>>,
    checkpoint_duty: bool,
) -> Result<(), DistError> {
    let updates = trainer.updates();
    send_ctrl(ctrl_w, &ControlMsg::Update { updates })?;
    if checkpoint_duty {
        let final_path = cfg.ckpt_dir.join(format!("step_{updates}.bsck"));
        let ckpt = trainer.checkpoint(bert).map_err(|e| DistError::Train(e.to_string()))?;
        ckpt.save(&final_path).map_err(|e| DistError::Train(e.to_string()))?;
        send_ctrl(
            ctrl_w,
            &ControlMsg::Checkpoint { updates, path: final_path.display().to_string() },
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::supervisor::{worker_config, ClusterConfig};
    use std::collections::HashMap;

    /// Parse a launcher-rendered environment with `key` overridden.
    fn parse_with(key: &str, value: &str) -> Result<WorkerConfig, DistError> {
        let cluster = ClusterConfig::new(2, 3, PathBuf::from("ckpt"));
        let wcfg = worker_config(&cluster, 1, "127.0.0.1:1", "pdrop:1:0:2", None, true);
        let mut env: HashMap<String, String> = wcfg.to_env().into_iter().collect();
        env.insert(key.into(), value.into());
        WorkerConfig::from_vars(|k| env.get(k).cloned())
    }

    #[test]
    fn env_roundtrips_and_rejects_an_empty_bucket() {
        let cfg = parse_with(ENV_BUCKET, "64").expect("valid env");
        assert_eq!((cfg.orig_rank, cfg.world, cfg.ring.bucket_elems), (1, 2, 64));
        assert_eq!(
            (cfg.fault_spec.as_str(), cfg.ring.timeout),
            ("pdrop:1:0:2", Duration::from_secs(5))
        );
        let err = parse_with(ENV_BUCKET, "0").expect_err("empty bucket");
        assert!(matches!(err, DistError::Protocol(ref m) if m.contains(ENV_BUCKET)), "{err}");
    }
}
