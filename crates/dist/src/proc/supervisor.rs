//! The cluster supervisor: spawns the rank workers, owns the control
//! plane, detects failures (socket loss or missed heartbeats) and drives
//! one of two recovery policies:
//!
//! * [`RecoveryMode::Restart`] — shut every survivor down and relaunch
//!   the *full* world from the latest checkpoint. Training replays the
//!   identical deterministic batches, so the recovered run is bit-exact
//!   with an unfaulted one.
//! * [`RecoveryMode::Elastic`] — let the survivors re-form the ring at
//!   world `N-1` and keep going. Gradient averaging rescales to the new
//!   world size; the degradation is recorded as a [`DegradationEvent`]
//!   rather than papered over.
//!
//! Two backends share all of this logic: `run_thread_cluster` runs each
//! worker on a thread in-process (fast, used by most tests), and
//! `run_process_cluster` spawns real OS processes through a
//! caller-supplied launcher (used by the process-isolation tests and
//! `bench_dist`). The control protocol is identical either way.

use crate::proc::control::ControlMsg;
use crate::proc::ring::RingConfig;
use crate::proc::worker::{worker_main, WorkerConfig, WorkerReport};
use crate::proc::DistError;
use bertscope_tensor::FaultPlan;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// What the supervisor does when a rank dies mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Shut everyone down, relaunch the full world from the latest
    /// checkpoint (bit-exact replay).
    Restart,
    /// Survivors re-form the ring at `N-1` and continue (logged
    /// degradation).
    Elastic,
}

/// Cluster-level configuration shared by both backends.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of rank workers to launch.
    pub world: usize,
    /// Optimizer updates each rank must complete.
    pub total_updates: u64,
    /// Gradient-accumulation window (micro-steps per update).
    pub accumulation: usize,
    /// Overlap backward with communication on every rank (see
    /// [`WorkerConfig::overlap`]).
    pub overlap: bool,
    /// Model-init seed (shared by all ranks) and data-seed base.
    pub seed: u64,
    /// Faults to inject (kills, socket drops/delays/corruption).
    pub faults: FaultPlan,
    /// Failure-recovery policy.
    pub recovery: RecoveryMode,
    /// Ring transport tunables.
    pub ring: RingConfig,
    /// Directory checkpoints are written into.
    pub ckpt_dir: PathBuf,
    /// Worker heartbeat period.
    pub heartbeat: Duration,
    /// Silence longer than this marks a worker dead.
    pub hb_grace: Duration,
    /// Deadline for control-plane phases (hellos, membership).
    pub control_timeout: Duration,
    /// Hard deadline for the whole run.
    pub run_timeout: Duration,
    /// When set, each rank dumps its traced operator stream to
    /// `<dir>/rank<R>.trace`.
    pub trace_dir: Option<PathBuf>,
}

impl ClusterConfig {
    /// A config with test-friendly defaults: elastic recovery, tight
    /// heartbeats, 2-step accumulation windows.
    #[must_use]
    pub fn new(world: usize, total_updates: u64, ckpt_dir: PathBuf) -> ClusterConfig {
        ClusterConfig {
            world,
            total_updates,
            accumulation: 2,
            overlap: false,
            seed: 42,
            faults: FaultPlan::new(),
            recovery: RecoveryMode::Elastic,
            ring: RingConfig { timeout: Duration::from_secs(5), ..RingConfig::default() },
            ckpt_dir,
            heartbeat: Duration::from_millis(25),
            hb_grace: Duration::from_secs(2),
            control_timeout: Duration::from_secs(10),
            run_timeout: Duration::from_mins(2),
            trace_dir: None,
        }
    }
}

/// A logged capacity-degradation (or restart) incident.
#[derive(Debug, Clone)]
pub struct DegradationEvent {
    /// Membership epoch the incident created.
    pub epoch: u32,
    /// Original rank of the dead worker.
    pub dead_rank: usize,
    /// Highest update count observed when the death was detected.
    pub at_update: u64,
    /// Human-readable action taken ("elastic-shrink to world 3", ...).
    pub action: String,
}

/// The supervisor's summary of a completed run.
#[derive(Debug)]
pub struct ClusterReport {
    /// Updates completed (equals the configured target on success).
    pub updates: u64,
    /// World size at the end of the run.
    pub final_world: usize,
    /// Full-cluster restarts performed.
    pub restarts: u32,
    /// Final membership epoch (1 = never reconfigured).
    pub epochs: u32,
    /// Every recovery incident, in order.
    pub events: Vec<DegradationEvent>,
    /// The agreed FNV-1a hash over all parameter bytes (every live rank
    /// reported this same value).
    pub weights_hash: u64,
    /// Latest checkpoint written, if any.
    pub final_checkpoint: Option<PathBuf>,
    /// Thread-backend worker reports (empty for the process backend).
    pub worker_reports: Vec<WorkerReport>,
}

/// Spawns one worker process from its config (the supervisor cannot know
/// how the host binary dispatches the worker role, so the caller builds
/// the `Command`).
pub type ProcessSpawner<'a> = &'a mut dyn FnMut(&WorkerConfig) -> std::io::Result<Child>;

enum Backend<'a> {
    Thread,
    Process(ProcessSpawner<'a>),
}

enum Handle {
    Thread(std::thread::JoinHandle<Result<WorkerReport, DistError>>),
    Process(Child),
}

/// Control-plane events, tagged with the spawn generation so stale
/// sockets from a restarted cluster cannot masquerade as live workers.
enum Ev {
    Hello { gen: u32, rank: usize, data_port: u16, writer: TcpStream },
    Msg { gen: u32, rank: usize, msg: ControlMsg },
    Gone { gen: u32, rank: usize },
}

struct Live {
    port: u16,
    writer: TcpStream,
    last_seen: Instant,
    updates: u64,
    done: Option<u64>,
}

/// Run the cluster with every worker on an in-process thread.
///
/// # Errors
///
/// Structured [`DistError`]s for unrecoverable cluster conditions: no
/// survivors, replica hash divergence, protocol violations, deadline
/// expiry.
pub fn run_thread_cluster(cfg: &ClusterConfig) -> Result<ClusterReport, DistError> {
    supervise(cfg, Backend::Thread)
}

/// Run the cluster with every worker in its own OS process, launched by
/// `spawner` (typically: re-exec the current binary with
/// [`WorkerConfig::to_env`] in the environment).
///
/// # Errors
///
/// As [`run_thread_cluster`].
pub fn run_process_cluster(
    cfg: &ClusterConfig,
    spawner: ProcessSpawner<'_>,
) -> Result<ClusterReport, DistError> {
    supervise(cfg, Backend::Process(spawner))
}

pub(super) fn worker_config(
    cfg: &ClusterConfig,
    rank: usize,
    supervisor: &str,
    fault_spec: &str,
    resume_from: Option<PathBuf>,
    process_backend: bool,
) -> WorkerConfig {
    WorkerConfig {
        orig_rank: rank,
        world: cfg.world,
        supervisor: supervisor.to_string(),
        seed: cfg.seed,
        total_updates: cfg.total_updates,
        accumulation: cfg.accumulation,
        overlap: cfg.overlap,
        fault_spec: fault_spec.to_string(),
        ring: cfg.ring,
        ckpt_dir: cfg.ckpt_dir.clone(),
        resume_from,
        heartbeat: cfg.heartbeat,
        control_timeout: cfg.control_timeout,
        trace_out: cfg.trace_dir.as_ref().map(|d| d.join(format!("rank{rank}.trace"))),
        process_backend,
    }
}

fn spawn_worker(backend: &mut Backend<'_>, wcfg: WorkerConfig) -> Result<Handle, DistError> {
    match backend {
        Backend::Thread => Ok(Handle::Thread(
            std::thread::Builder::new()
                .name(format!("bertscope-rank{}", wcfg.orig_rank))
                .spawn(move || worker_main(&wcfg))
                .map_err(|e| DistError::Io(e.to_string()))?,
        )),
        Backend::Process(spawner) => {
            Ok(Handle::Process(spawner(&wcfg).map_err(|e| DistError::Io(e.to_string()))?))
        }
    }
}

/// Drop the one `pkill` entry that just fired against `dead_rank` from a
/// fault spec: the kill has fired, and a restarted worker replaying the
/// same micro-steps must not walk into it again. Faults fire in step
/// order, so the fired kill is the earliest-step `pkill` still in the
/// spec for that rank; later kills for the same rank are preserved.
fn scrub_fired_kills(spec: &str, dead_rank: usize) -> String {
    let entries: Vec<&str> = spec.split(';').filter(|e| !e.is_empty()).collect();
    let fired: Option<usize> = entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let parts: Vec<&str> = e.split(':').collect();
            if parts.len() == 3 && parts[0] == "pkill" && parts[2].parse::<usize>() == Ok(dead_rank)
            {
                parts[1].parse::<u64>().ok().map(|step| (step, i))
            } else {
                None
            }
        })
        .min()
        .map(|(_, i)| i);
    entries
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != fired)
        .map(|(_, e)| *e)
        .collect::<Vec<_>>()
        .join(";")
}

fn broadcast(live: &mut BTreeMap<usize, Live>, msg: &ControlMsg) {
    let mut line = msg.to_line();
    line.push('\n');
    for worker in live.values_mut() {
        // A dead socket shows up as a Gone event; ignore write errors.
        let _ = worker.writer.write_all(line.as_bytes());
        let _ = worker.writer.flush();
    }
}

fn members_msg(epoch: u32, live: &BTreeMap<usize, Live>) -> ControlMsg {
    ControlMsg::Members { epoch, members: live.iter().map(|(r, w)| (*r, w.port)).collect() }
}

/// Accept control connections and pump each worker's messages into the
/// event channel from a per-connection reader thread.
fn start_control_plane(
    listener: TcpListener,
    tx: &mpsc::Sender<Ev>,
    gen: &Arc<AtomicU32>,
    stop: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let tx = tx.clone();
    let gen = gen.clone();
    let stop = stop.clone();
    listener.set_nonblocking(true).expect("nonblocking listener");
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let tx = tx.clone();
                    let conn_gen = gen.load(Ordering::Relaxed);
                    std::thread::spawn(move || reader_loop(stream, &tx, conn_gen));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => return,
            }
        }
    })
}

fn reader_loop(stream: TcpStream, tx: &mpsc::Sender<Ev>, gen: u32) {
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // First line must be the hello.
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let Ok(ControlMsg::Hello { rank, data_port }) = ControlMsg::from_line(&line) else {
        return;
    };
    if tx.send(Ev::Hello { gen, rank, data_port, writer }).is_err() {
        return;
    }
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = tx.send(Ev::Gone { gen, rank });
                return;
            }
            Ok(_) => {
                let Ok(msg) = ControlMsg::from_line(&line) else {
                    let _ = tx.send(Ev::Gone { gen, rank });
                    return;
                };
                if tx.send(Ev::Msg { gen, rank, msg }).is_err() {
                    return;
                }
            }
        }
    }
}

/// Collect `expected` hellos of generation `want_gen` into a fresh
/// membership map.
fn wait_hellos(
    rx: &mpsc::Receiver<Ev>,
    expected: usize,
    want_gen: u32,
    deadline: Instant,
) -> Result<BTreeMap<usize, Live>, DistError> {
    let mut live = BTreeMap::new();
    while live.len() < expected {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(DistError::Timeout {
                what: format!("waiting for {expected} worker hellos (have {})", live.len()),
            });
        }
        match rx.recv_timeout(left.min(Duration::from_millis(50))) {
            Ok(Ev::Hello { gen, rank, data_port, writer }) if gen == want_gen => {
                live.insert(
                    rank,
                    Live {
                        port: data_port,
                        writer,
                        last_seen: Instant::now(),
                        updates: 0,
                        done: None,
                    },
                );
            }
            // Stale-generation chatter and early messages are ignored
            // here; the main loop picks up live-generation traffic.
            Ok(_) | Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(DistError::Protocol("control plane collapsed".into()));
            }
        }
    }
    Ok(live)
}

#[allow(clippy::too_many_lines)]
fn supervise(cfg: &ClusterConfig, mut backend: Backend<'_>) -> Result<ClusterReport, DistError> {
    assert!(cfg.world >= 1, "world must be at least 1");
    let process_backend = matches!(backend, Backend::Process(_));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let supervisor_addr = listener.local_addr()?.to_string();
    let (tx, rx) = mpsc::channel::<Ev>();
    let gen = Arc::new(AtomicU32::new(1));
    let stop = Arc::new(AtomicBool::new(false));
    let accept_handle = start_control_plane(listener, &tx, &gen, &stop);

    let mut fault_spec = cfg.faults.to_spec();
    let mut handles: Vec<Handle> = Vec::new();
    let mut events: Vec<DegradationEvent> = Vec::new();
    let mut latest_ckpt: Option<PathBuf> = None;
    let mut restarts: u32 = 0;
    let mut epoch: u32 = 0;
    let mut max_updates: u64 = 0;
    let run_deadline = Instant::now() + cfg.run_timeout;

    let result = (|| -> Result<(u64, usize, u64), DistError> {
        // Launch generation 1 and form the initial ring.
        for rank in 0..cfg.world {
            handles.push(spawn_worker(
                &mut backend,
                worker_config(cfg, rank, &supervisor_addr, &fault_spec, None, process_backend),
            )?);
        }
        let mut live = wait_hellos(&rx, cfg.world, 1, Instant::now() + cfg.control_timeout)?;
        epoch = 1;
        let msg = members_msg(epoch, &live);
        broadcast(&mut live, &msg);

        // Ranks whose window-close sync failed and are blocked awaiting a
        // membership instruction.
        let mut awaiting: Vec<usize> = Vec::new();

        loop {
            if Instant::now() >= run_deadline {
                return Err(DistError::Timeout { what: "cluster run".into() });
            }
            let cur_gen = gen.load(Ordering::Relaxed);
            let mut dead: Option<usize> = None;
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(Ev::Msg { gen: g, rank, msg }) if g == cur_gen => {
                    if let Some(worker) = live.get_mut(&rank) {
                        worker.last_seen = Instant::now();
                        match msg {
                            ControlMsg::Update { updates } => {
                                worker.updates = updates;
                                max_updates = max_updates.max(updates);
                            }
                            ControlMsg::Checkpoint { path, .. } => {
                                latest_ckpt = Some(PathBuf::from(path));
                            }
                            // Only syncfails at the *current* epoch count
                            // toward the all-awaiting re-form: a stale
                            // epoch means the rank is reacting to an
                            // incident that already triggered a Members
                            // broadcast, and answering it again would
                            // queue a second membership no survivor reads
                            // until the next failure — poisoning that
                            // recovery with outdated members.
                            ControlMsg::SyncFail { epoch: e, .. }
                                if e == epoch && !awaiting.contains(&rank) =>
                            {
                                awaiting.push(rank);
                            }
                            ControlMsg::Done { updates, weights_hash } => {
                                worker.updates = updates;
                                worker.done = Some(weights_hash);
                                max_updates = max_updates.max(updates);
                            }
                            _ => {}
                        }
                    }
                }
                Ok(Ev::Gone { gen: g, rank }) if g == cur_gen => {
                    // A rank that already reported done may close its
                    // socket after giving up on a laggy Shutdown — that is
                    // a completion, not a death.
                    if live.get(&rank).is_some_and(|w| w.done.is_none()) {
                        dead = Some(rank);
                    }
                }
                // Late duplicate hellos and other generations' events.
                Ok(_) | Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(DistError::Protocol("control plane collapsed".into()));
                }
            }

            // Missed-heartbeat detection (unless already handling a death).
            if dead.is_none() {
                dead = live
                    .iter()
                    .find(|(_, w)| w.done.is_none() && w.last_seen.elapsed() > cfg.hb_grace)
                    .map(|(r, _)| *r);
            }

            if let Some(dead_rank) = dead {
                live.remove(&dead_rank);
                awaiting.retain(|r| *r != dead_rank);
                match cfg.recovery {
                    RecoveryMode::Elastic => {
                        if live.is_empty() {
                            return Err(DistError::WorkerFailed {
                                rank: dead_rank,
                                reason: "no survivors to shrink to".into(),
                            });
                        }
                        epoch += 1;
                        events.push(DegradationEvent {
                            epoch,
                            dead_rank,
                            at_update: max_updates,
                            action: format!("elastic-shrink to world {}", live.len()),
                        });
                        awaiting.clear();
                        let msg = members_msg(epoch, &live);
                        broadcast(&mut live, &msg);
                    }
                    RecoveryMode::Restart => {
                        restarts += 1;
                        epoch += 1;
                        events.push(DegradationEvent {
                            epoch,
                            dead_rank,
                            at_update: max_updates,
                            action: format!(
                                "restart from {}",
                                latest_ckpt
                                    .as_ref()
                                    .map_or_else(|| "scratch".into(), |p| p.display().to_string())
                            ),
                        });
                        fault_spec = scrub_fired_kills(&fault_spec, dead_rank);
                        broadcast(&mut live, &ControlMsg::Shutdown);
                        live.clear();
                        awaiting.clear();
                        let new_gen = gen.fetch_add(1, Ordering::Relaxed) + 1;
                        for rank in 0..cfg.world {
                            handles.push(spawn_worker(
                                &mut backend,
                                worker_config(
                                    cfg,
                                    rank,
                                    &supervisor_addr,
                                    &fault_spec,
                                    latest_ckpt.clone(),
                                    process_backend,
                                ),
                            )?);
                        }
                        live = wait_hellos(
                            &rx,
                            cfg.world,
                            new_gen,
                            Instant::now() + cfg.control_timeout,
                        )?;
                        let msg = members_msg(epoch, &live);
                        broadcast(&mut live, &msg);
                    }
                }
                continue;
            }

            // Full-ring collapse without a death (e.g. retry exhaustion):
            // when every live rank reports syncfail, re-form at the same
            // membership under a new epoch.
            if !live.is_empty() && awaiting.len() == live.len() {
                epoch += 1;
                awaiting.clear();
                let msg = members_msg(epoch, &live);
                broadcast(&mut live, &msg);
                continue;
            }

            // Completion: every live rank reported done with one agreed
            // weights hash.
            if !live.is_empty() && live.values().all(|w| w.done.is_some()) {
                let hashes: Vec<u64> = live.values().map(|w| w.done.unwrap_or(0)).collect();
                let first = hashes[0];
                if hashes.iter().any(|h| *h != first) {
                    return Err(DistError::Protocol(format!(
                        "replica divergence: weight hashes {hashes:x?}"
                    )));
                }
                let updates = live.values().map(|w| w.updates).max().unwrap_or(0);
                let final_world = live.len();
                broadcast(&mut live, &ControlMsg::Shutdown);
                return Ok((updates, final_world, first));
            }
        }
    })();

    // Tear the control plane down and reap every worker we ever spawned.
    stop.store(true, Ordering::Relaxed);
    let _ = accept_handle.join();
    let mut worker_reports = Vec::new();
    for handle in handles {
        match handle {
            Handle::Thread(h) => {
                // Killed and shut-down workers return structured errors or
                // early-shutdown reports; both are expected mid-recovery.
                if let Ok(Ok(report)) = h.join() {
                    worker_reports.push(report);
                }
            }
            Handle::Process(mut child) => {
                let _ = child.wait();
            }
        }
    }

    let (updates, final_world, weights_hash) = result?;
    Ok(ClusterReport {
        updates,
        final_world,
        restarts,
        epochs: epoch,
        events,
        weights_hash,
        final_checkpoint: latest_ckpt,
        worker_reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fired_kills_are_scrubbed_precisely() {
        let spec = "pkill:3:1;pdrop:2:1:1;pkill:5:2";
        assert_eq!(scrub_fired_kills(spec, 1), "pdrop:2:1:1;pkill:5:2");
        assert_eq!(scrub_fired_kills(spec, 2), "pkill:3:1;pdrop:2:1:1");
        assert_eq!(scrub_fired_kills("", 0), "");
    }

    #[test]
    fn only_the_earliest_kill_for_a_rank_is_scrubbed() {
        // Two kills aimed at the same rank at different steps: the first
        // restart scrubs only the step-3 kill (the one that fired); the
        // step-9 kill must survive to fire against the relaunched worker.
        let spec = "pkill:9:1;pdrop:2:1:1;pkill:3:1";
        assert_eq!(scrub_fired_kills(spec, 1), "pkill:9:1;pdrop:2:1:1");
        assert_eq!(scrub_fired_kills("pkill:9:1;pdrop:2:1:1", 1), "pdrop:2:1:1");
    }

    #[test]
    fn cluster_config_defaults_are_sane() {
        let cfg = ClusterConfig::new(4, 3, PathBuf::from("/tmp/ck"));
        assert_eq!(cfg.world, 4);
        assert_eq!(cfg.recovery, RecoveryMode::Elastic);
        assert!(cfg.hb_grace > cfg.heartbeat * 10);
    }
}
