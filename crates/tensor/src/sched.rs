//! Operator-graph scheduler: record first, run the DAG second.
//!
//! Callers *record* named tasks into a [`TaskGraph`], each task carrying
//! the same [`AccessSet`] read/write provenance the tracer already threads
//! through every kernel. A recorded graph runs one of two ways:
//!
//! * [`TaskGraph::run_inline`] runs each body on the calling thread in
//!   submission order — eager execution, where program order is the
//!   schedule and each kernel is internally data-parallel over the pool.
//! * [`TaskGraph::run`] works the way a GPU stream/graph runtime does: it
//!   derives the dependence DAG from the provenance (the same
//!   last-writer/readers-since construction as `bertscope-check`'s
//!   `DepGraph::build`), then dispatches *ready* tasks onto the worker
//!   pool, so independent tasks retire concurrently instead of serially.
//!
//! # Determinism and safety
//!
//! * **Bit-identical results.** Under [`TaskGraph::run`] every task body
//!   runs under [`pool::run_isolated`], i.e. internally serial with the
//!   1-thread reference chunking each kernel is already bit-identical
//!   against. Parallelism comes only from the DAG, and the DAG never lets
//!   two tasks race on a buffer (RAW/WAR/WAW all become edges), so outputs
//!   are bit-identical to inline execution at any worker count.
//! * **Deterministic traces.** Each scheduled task records into a private
//!   tracer; [`TaskGraph::run`] merges the fragments back in *submission*
//!   order, so the merged trace equals the inline trace regardless of
//!   retirement order. What actually varies — the completion order — is
//!   returned in the [`RunReport`] so `bertscope-check` can re-verify the
//!   *emitted schedule* against the H001–H005 hazard rules.
//! * **Opaque tasks are barriers.** A task whose [`AccessSet`] is empty has
//!   unknown provenance; the scheduler orders it after every earlier task
//!   and before every later one rather than guessing independence.
//!
//! # Example
//!
//! ```
//! use bertscope_tensor::sched::{Slot, TaskGraph};
//! use bertscope_tensor::{AccessSet, BufId, Tracer};
//!
//! let a = BufId::fresh();
//! let b = BufId::fresh();
//! let out = Slot::new();
//! let mut graph = TaskGraph::new();
//! // Two independent producers and a consumer joined by RAW edges.
//! graph.submit("produce_a", AccessSet::new(&[], &[a]), |_| {});
//! graph.submit("produce_b", AccessSet::new(&[], &[b]), |_| {});
//! graph.submit("consume", AccessSet::new(&[a, b], &[]), |_| out.put(42));
//! let report = graph.run(&mut Tracer::disabled());
//! assert_eq!(report.completion_order.len(), 3);
//! assert_eq!(*report.completion_order.last().unwrap(), 2);
//! assert_eq!(out.take(), Some(42));
//! ```

use crate::pool;
use crate::trace::{AccessSet, BufId, OpRecord, Tracer};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A recorded task body: runs once, records its kernels into the tracer it
/// is handed.
pub type TaskBody<'scope> = Box<dyn FnOnce(&mut Tracer) + Send + 'scope>;

struct Task<'scope> {
    label: String,
    access: AccessSet,
    body: TaskBody<'scope>,
}

/// A single-value rendezvous cell for passing a task's result back to the
/// recording scope (task bodies are `FnOnce() + Send`, so they cannot
/// return values directly).
#[derive(Debug)]
pub struct Slot<T>(Mutex<Option<T>>);

impl<T> Slot<T> {
    /// An empty slot.
    #[must_use]
    pub const fn new() -> Self {
        Slot(Mutex::new(None))
    }

    /// Store a value (overwrites any previous one).
    pub fn put(&self, value: T) {
        *self.0.lock().expect("sched slot poisoned") = Some(value);
    }

    /// Take the stored value out, if any.
    pub fn take(&self) -> Option<T> {
        self.0.lock().expect("sched slot poisoned").take()
    }
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot::new()
    }
}

/// What one [`TaskGraph::run`] actually did: the retirement order the
/// executor emitted, and where the merged records landed in the destination
/// tracer. This is the hand-off to `bertscope-check`: `record_order` is a
/// permutation of the run's record indices suitable for
/// `Schedule::from_completion_order`, so every emitted schedule can be
/// re-verified against the static hazard rules.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Task ids in the order they retired.
    pub completion_order: Vec<usize>,
    /// Index in the destination tracer of this run's first merged record
    /// (0 when the tracer was disabled).
    pub first_record: usize,
    /// Absolute record range each task contributed to the destination
    /// tracer, indexed by task id. Records are merged in submission order,
    /// so the ranges are contiguous and ascending.
    pub task_records: Vec<Range<usize>>,
    /// Absolute indices of this run's records in *retirement* order: tasks
    /// in `completion_order`, each task's records in the order it recorded
    /// them. Empty when the tracer was disabled.
    pub record_order: Vec<usize>,
    /// Worker count the executor ran with.
    pub workers: usize,
    /// Task labels, indexed by task id.
    pub labels: Vec<String>,
    /// Wall-clock nanoseconds each task body spent executing, indexed by
    /// task id.
    pub task_ns: Vec<u64>,
    /// Wall-clock nanoseconds the whole dispatch took, from first ready
    /// task to quiescence.
    pub elapsed_ns: u64,
    /// Length of the longest dependence chain (number of ASAP levels).
    pub depth: usize,
    /// Largest number of tasks sharing one ASAP level — the DAG's width.
    pub max_width: usize,
}

impl RunReport {
    /// Effective worker occupancy: total per-task busy time over the run's
    /// wall time. 1.0 means perfectly serial; `workers` is the ceiling.
    #[must_use]
    pub fn achieved_parallelism(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.task_ns.iter().sum::<u64>() as f64 / self.elapsed_ns as f64
    }
}

/// Depth (ASAP level count) and maximum width (largest level population)
/// of a dependence DAG given per-task predecessor lists.
#[must_use]
pub fn dag_shape(preds: &[Vec<usize>]) -> (usize, usize) {
    if preds.is_empty() {
        return (0, 0);
    }
    let mut level = vec![0usize; preds.len()];
    let mut depth = 0usize;
    for (i, ps) in preds.iter().enumerate() {
        level[i] = ps.iter().map(|&p| level[p] + 1).max().unwrap_or(0);
        depth = depth.max(level[i] + 1);
    }
    let mut width = vec![0usize; depth];
    for &l in &level {
        width[l] += 1;
    }
    (depth, width.into_iter().max().unwrap_or(0))
}

/// A recorded execution graph: tasks with buffer provenance, run inline in
/// submission order or as a dependence DAG over the worker pool.
#[derive(Default)]
pub struct TaskGraph<'scope> {
    tasks: Vec<Task<'scope>>,
}

impl std::fmt::Debug for TaskGraph<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskGraph").field("tasks", &self.tasks.len()).finish()
    }
}

impl<'scope> TaskGraph<'scope> {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        TaskGraph { tasks: Vec::new() }
    }

    /// Number of recorded tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no tasks have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Record a task. `access` declares every buffer the body reads and
    /// writes — the dependence DAG is derived from these sets, so an
    /// undeclared access is a correctness bug (an *empty* set is safe: the
    /// task is then treated as a full barrier). Returns the task id.
    pub fn submit(
        &mut self,
        label: impl Into<String>,
        access: AccessSet,
        body: impl FnOnce(&mut Tracer) + Send + 'scope,
    ) -> usize {
        self.tasks.push(Task { label: label.into(), access, body: Box::new(body) });
        self.tasks.len() - 1
    }

    /// Execute the graph inline: run every task body on the calling thread
    /// in submission order, recording straight into `tracer`. Submission
    /// order is always a topological order of the dependence DAG, and the
    /// records land in the order [`TaskGraph::run`]'s merge produces. Bodies
    /// are *not* isolated, so their kernels keep the pool's intra-op
    /// parallelism. No [`RunReport`] is built or captured.
    pub fn run_inline(self, tracer: &mut Tracer) {
        for task in self.tasks {
            (task.body)(tracer);
        }
    }

    /// Execute the graph: derive the dependence DAG from the recorded
    /// access sets and dispatch ready tasks onto the worker pool until all
    /// retire. Task bodies run isolated (internally serial), so results are
    /// bit-identical to [`TaskGraph::run_inline`] at any thread count. Records
    /// are merged into `tracer` in submission order; the actual retirement
    /// order is returned for hazard re-verification.
    ///
    /// # Panics
    ///
    /// Re-raises the first task panic after the whole graph has quiesced
    /// (no borrow escapes the call).
    pub fn run(self, tracer: &mut Tracer) -> RunReport {
        let n = self.tasks.len();
        let workers = pool::current_threads().min(n).max(1);
        if n == 0 {
            return RunReport {
                completion_order: Vec::new(),
                first_record: tracer.records().len(),
                task_records: Vec::new(),
                record_order: Vec::new(),
                workers,
                labels: Vec::new(),
                task_ns: Vec::new(),
                elapsed_ns: 0,
                depth: 0,
                max_width: 0,
            };
        }
        let accesses: Vec<&AccessSet> = self.tasks.iter().map(|t| &t.access).collect();
        let preds = dependence_preds(&accesses);
        let (depth, max_width) = dag_shape(&preds);
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (i, ps) in preds.iter().enumerate() {
            indeg[i] = ps.len();
            for &p in ps {
                succs[p].push(i);
            }
        }
        let ready: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let shared = ExecShared {
            state: Mutex::new(ExecState {
                ready,
                indeg,
                remaining: n,
                completed: Vec::with_capacity(n),
                panic: None,
            }),
            work: Condvar::new(),
        };
        let enabled = tracer.is_enabled();
        let labels: Vec<String> = self.tasks.iter().map(|t| t.label.clone()).collect();
        let bodies: Vec<Mutex<Option<TaskBody<'scope>>>> =
            self.tasks.into_iter().map(|t| Mutex::new(Some(t.body))).collect();
        let outputs: Vec<Mutex<Vec<OpRecord>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let timings: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();

        // One executor loop per participating thread. Each loop claims a
        // ready task, runs its body isolated, retires it and wakes the
        // others; loops exit when the graph is drained (or poisoned by a
        // panic). `pool::run_tasks` runs loop 0 on the calling thread.
        let exec_loop = || loop {
            let t = {
                let mut st = shared.state.lock().expect("sched state poisoned");
                loop {
                    if st.panic.is_some() || st.remaining == 0 {
                        return;
                    }
                    if let Some(t) = st.ready.pop_front() {
                        break t;
                    }
                    st = shared.work.wait(st).expect("sched state poisoned");
                }
            };
            let body = bodies[t]
                .lock()
                .expect("sched body poisoned")
                .take()
                .expect("task dispatched twice");
            let mut local = if enabled { Tracer::new() } else { Tracer::disabled() };
            let began = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| pool::run_isolated(|| body(&mut local))));
            timings[t].store(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
            *outputs[t].lock().expect("sched output poisoned") = local.into_records();
            let mut st = shared.state.lock().expect("sched state poisoned");
            match result {
                Ok(()) => {
                    st.completed.push(t);
                    st.remaining -= 1;
                    for &s in &succs[t] {
                        st.indeg[s] -= 1;
                        if st.indeg[s] == 0 {
                            st.ready.push_back(s);
                        }
                    }
                }
                Err(payload) => {
                    if st.panic.is_none() {
                        st.panic = Some((t, payload));
                    }
                }
            }
            drop(st);
            shared.work.notify_all();
        };
        let loops: Vec<Box<dyn FnOnce() + Send + '_>> =
            (0..workers).map(|_| Box::new(exec_loop) as Box<dyn FnOnce() + Send + '_>).collect();
        let dispatch_began = Instant::now();
        pool::run_tasks(loops);
        let elapsed_ns = dispatch_began.elapsed().as_nanos() as u64;

        let mut st = shared.state.into_inner().expect("sched state poisoned");
        if let Some((t, payload)) = st.panic.take() {
            // Surface which task died, then re-raise the original payload
            // so assertion messages survive.
            eprintln!("bertscope-sched: task {t} `{}` panicked", labels[t]);
            std::panic::resume_unwind(payload);
        }
        let completion_order = st.completed;
        debug_assert_eq!(completion_order.len(), n, "scheduler retired every task");

        // Merge per-task records back in submission order: the merged trace
        // is identical to the inline trace, and each task's records occupy a
        // contiguous range.
        let first_record = tracer.records().len();
        let mut task_records = Vec::with_capacity(n);
        let mut next = first_record;
        for out in &outputs {
            let mut records = out.lock().expect("sched output poisoned");
            let count = records.len();
            tracer.extend(records.drain(..));
            task_records.push(next..next + count);
            next += count;
        }
        let record_order: Vec<usize> = if enabled {
            completion_order.iter().flat_map(|&t| task_records[t].clone()).collect()
        } else {
            Vec::new()
        };
        let task_ns: Vec<u64> = timings.iter().map(|t| t.load(Ordering::Relaxed)).collect();
        let report = RunReport {
            completion_order,
            first_record,
            task_records,
            record_order,
            workers,
            labels,
            task_ns,
            elapsed_ns,
            depth,
            max_width,
        };
        log_run(&report);
        report
    }
}

struct ExecShared {
    state: Mutex<ExecState>,
    work: Condvar,
}

struct ExecState {
    ready: VecDeque<usize>,
    indeg: Vec<usize>,
    remaining: usize,
    completed: Vec<usize>,
    panic: Option<(usize, Box<dyn std::any::Any + Send>)>,
}

/// Per-task predecessor lists derived from access sets — the same
/// last-writer/readers-since construction as `bertscope-check`'s
/// `DepGraph::build` (RAW from the last writer, WAR from readers since
/// that writer, WAW between writers), with two scheduler-side
/// conservatisms: `allocs`/`frees` order like writes (a free must not
/// overtake a reader), and a task with empty provenance is a full barrier.
#[must_use]
pub fn dependence_preds(accesses: &[&AccessSet]) -> Vec<Vec<usize>> {
    let mut last_writer: HashMap<BufId, usize> = HashMap::new();
    let mut readers_since: HashMap<BufId, Vec<usize>> = HashMap::new();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); accesses.len()];
    let mut barrier: Option<usize> = None;
    for (i, acc) in accesses.iter().enumerate() {
        if acc.is_empty() {
            preds[i].extend(0..i);
            barrier = Some(i);
            continue;
        }
        if let Some(b) = barrier {
            preds[i].push(b);
        }
        for &r in &acc.reads {
            if let Some(&w) = last_writer.get(&r) {
                if w != i {
                    preds[i].push(w);
                }
            }
            readers_since.entry(r).or_default().push(i);
        }
        for &w in acc.writes.iter().chain(&acc.allocs).chain(&acc.frees) {
            if let Some(readers) = readers_since.get(&w) {
                preds[i].extend(readers.iter().copied().filter(|&r| r != i));
            }
            if let Some(&lw) = last_writer.get(&w) {
                if lw != i {
                    preds[i].push(lw);
                }
            }
            last_writer.insert(w, i);
            readers_since.insert(w, Vec::new());
        }
        preds[i].sort_unstable();
        preds[i].dedup();
    }
    preds
}

/// One producer→consumer task-pair shape [`plan_fusion`] may merge: both
/// fields are label substrings (`"fc1"` + `"gelu"` fuses the bias+GeLU
/// chain, `"res"` + `"ln"` the residual+LayerNorm chain). Matching labels
/// is *necessary but not sufficient* — the dependence DAG must also prove
/// the pair legal (see [`plan_fusion`]).
#[derive(Debug, Clone)]
pub struct FusePattern {
    /// Substring the producer task's label must contain.
    pub producer: String,
    /// Substring the consumer task's label must contain.
    pub consumer: String,
}

impl FusePattern {
    /// A pattern matching producer labels containing `producer` followed by
    /// consumer labels containing `consumer`.
    #[must_use]
    pub fn new(producer: impl Into<String>, consumer: impl Into<String>) -> Self {
        FusePattern { producer: producer.into(), consumer: consumer.into() }
    }
}

/// Plan the legal fusion grouping for a recorded task list. Tasks `i` and
/// `i + 1` may merge only when *all* of the following hold, proven on the
/// dependence DAG derived from the access sets:
///
/// 1. **Adjacency**: the consumer is the very next submitted task, so the
///    merged node occupies a contiguous span and every remaining edge
///    still points forward — fusion can never create a cycle.
/// 2. **Sole successor**: the consumer is the producer's *only* dependence
///    successor (RAW, WAR and WAW all counted). Nothing else is waiting on
///    the producer, so serializing the pair forfeits no parallelism and no
///    third task can observe the intermediate state.
/// 3. **Known provenance**: neither side has an empty [`AccessSet`] — an
///    opaque task is a scheduling barrier and must stay one.
/// 4. **Shape**: the pair's labels match one of `patterns` in order.
///
/// Chains extend greedily: `a→b→c` collapses to one task when both links
/// qualify. Returns the groups covering every task id exactly once, in
/// submission order (singletons included).
#[must_use]
pub fn plan_fusion(
    labels: &[String],
    accesses: &[&AccessSet],
    patterns: &[FusePattern],
) -> Vec<Vec<usize>> {
    let n = accesses.len();
    let preds = dependence_preds(accesses);
    let mut succ_count = vec![0usize; n];
    let mut sole_succ: Vec<Option<usize>> = vec![None; n];
    for (i, ps) in preds.iter().enumerate() {
        for &p in ps {
            succ_count[p] += 1;
            sole_succ[p] = Some(i);
        }
    }
    let matches = |producer: usize, consumer: usize| {
        patterns.iter().any(|pat| {
            labels[producer].contains(&pat.producer) && labels[consumer].contains(&pat.consumer)
        })
    };
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut i = 0;
    while i < n {
        let mut group = vec![i];
        let mut last = i;
        while last + 1 < n
            && succ_count[last] == 1
            && sole_succ[last] == Some(last + 1)
            && !accesses[last].is_empty()
            && !accesses[last + 1].is_empty()
            && matches(last, last + 1)
        {
            last += 1;
            group.push(last);
        }
        i = last + 1;
        groups.push(group);
    }
    groups
}

/// Union of several access sets — the conservative provenance of a fused
/// task (a buffer both produced and consumed inside the group stays in
/// both sets; self-dependences are filtered during DAG construction).
#[must_use]
pub fn merge_accesses(accesses: &[&AccessSet]) -> AccessSet {
    let union = |pick: fn(&AccessSet) -> &Vec<BufId>| {
        let mut v: Vec<BufId> = accesses.iter().flat_map(|a| pick(a).iter().copied()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let reads = union(|a| &a.reads);
    let writes = union(|a| &a.writes);
    let allocs = union(|a| &a.allocs);
    let frees = union(|a| &a.frees);
    AccessSet::new(&reads, &writes).with_allocs(&allocs).with_frees(&frees)
}

/// Expand a post-fusion completion order back to original task ids: each
/// group retires as a unit, its members in submission order — the order to
/// hand `Schedule::from_completion_order` when re-verifying a fused
/// schedule against the per-task dependence DAG.
#[must_use]
pub fn expand_order(groups: &[Vec<usize>], group_order: &[usize]) -> Vec<usize> {
    group_order.iter().flat_map(|&g| groups[g].iter().copied()).collect()
}

/// Deterministically simulate the executor's scheduling policy over a
/// stream of access sets, one task per entry, with `workers` virtual
/// executor loops of unit task duration: a FIFO ready queue seeded in
/// submission order, up to `workers` tasks in flight, in-flight tasks
/// retiring in ascending id order each tick. Returns the completion
/// order — a topological order of the dependence DAG, usable with
/// `Schedule::from_completion_order` to re-verify the policy against the
/// hazard rules without executing anything (`racecheck --sched` does this
/// over the analytic streams of all 42 paper configurations).
///
/// # Panics
///
/// Panics when `workers` is zero.
#[must_use]
pub fn plan_order(accesses: &[&AccessSet], workers: usize) -> Vec<usize> {
    assert!(workers >= 1, "worker count must be at least 1");
    let n = accesses.len();
    let preds = dependence_preds(accesses);
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (i, ps) in preds.iter().enumerate() {
        indeg[i] = ps.len();
        for &p in ps {
            succs[p].push(i);
        }
    }
    let mut ready: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut running: Vec<usize> = Vec::with_capacity(workers);
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        while running.len() < workers {
            let Some(t) = ready.pop_front() else { break };
            running.push(t);
        }
        assert!(!running.is_empty(), "dependence graph has a cycle");
        running.sort_unstable();
        for t in running.drain(..) {
            order.push(t);
            for &s in &succs[t] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push_back(s);
                }
            }
        }
    }
    order
}

thread_local! {
    /// Capture buffer for [`RunReport`]s, used by tests and `racecheck` to
    /// collect the live schedules a traced step emitted.
    static RUN_LOG: std::cell::RefCell<Option<Vec<RunReport>>> =
        const { std::cell::RefCell::new(None) };
}

/// Start capturing every subsequent [`TaskGraph::run`] report on this
/// thread (clears any previous capture).
pub fn start_capture() {
    RUN_LOG.with(|l| *l.borrow_mut() = Some(Vec::new()));
}

/// Stop capturing and return the reports collected since
/// [`start_capture`]. Returns an empty vec when capture was never started.
#[must_use]
pub fn take_captured() -> Vec<RunReport> {
    RUN_LOG.with(|l| l.borrow_mut().take()).unwrap_or_default()
}

fn log_run(report: &RunReport) {
    RUN_LOG.with(|l| {
        if let Some(log) = l.borrow_mut().as_mut() {
            log.push(report.clone());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::with_threads;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn acc(reads: &[BufId], writes: &[BufId]) -> AccessSet {
        AccessSet::new(reads, writes)
    }

    /// Assert `order` is a permutation respecting every dependence edge.
    fn assert_valid(order: &[usize], accesses: &[&AccessSet]) {
        let n = accesses.len();
        let mut step = vec![usize::MAX; n];
        for (s, &t) in order.iter().enumerate() {
            assert_eq!(step[t], usize::MAX, "task {t} retired twice");
            step[t] = s;
        }
        assert!(step.iter().all(|&s| s != usize::MAX), "not a permutation");
        for (i, preds) in dependence_preds(accesses).iter().enumerate() {
            for &p in preds {
                assert!(step[p] < step[i], "edge {p} -> {i} violated");
            }
        }
    }

    #[test]
    fn raw_war_waw_edges_order_execution() {
        let x = BufId::fresh();
        let y = BufId::fresh();
        // 0 writes x; 1 reads x (RAW on 0); 2 rewrites x (WAR on 1, WAW on
        // 0); 3 writes y (independent of all).
        let sets = [acc(&[], &[x]), acc(&[x], &[y]), acc(&[y], &[x]), acc(&[], &[BufId::fresh()])];
        let refs: Vec<&AccessSet> = sets.iter().collect();
        let preds = dependence_preds(&refs);
        assert_eq!(preds[0], vec![]);
        assert_eq!(preds[1], vec![0]);
        assert_eq!(preds[2], vec![0, 1]);
        assert_eq!(preds[3], vec![]);
    }

    #[test]
    fn frees_and_allocs_order_like_writes() {
        let x = BufId::fresh();
        // 0 allocs+writes x, 1 reads it, 2 frees it: the free must come last.
        let sets = [
            AccessSet::new(&[], &[x]).with_allocs(&[x]),
            acc(&[x], &[]),
            AccessSet::new(&[], &[]).with_frees(&[x]),
        ];
        let refs: Vec<&AccessSet> = sets.iter().collect();
        let preds = dependence_preds(&refs);
        assert_eq!(preds[2], vec![0, 1]);
    }

    #[test]
    fn opaque_task_is_a_full_barrier() {
        let x = BufId::fresh();
        let y = BufId::fresh();
        let sets = [acc(&[], &[x]), AccessSet::default(), acc(&[], &[y])];
        let refs: Vec<&AccessSet> = sets.iter().collect();
        let preds = dependence_preds(&refs);
        assert_eq!(preds[1], vec![0], "barrier waits for every earlier task");
        assert_eq!(preds[2], vec![1], "later tasks wait for the barrier");
    }

    #[test]
    fn graph_runs_chain_in_order_and_parallel_group_completely() {
        for threads in [1, 2, 8] {
            with_threads(threads, || {
                let data = Mutex::new(vec![0i64; 4]);
                let x = BufId::fresh();
                let outs: Vec<BufId> = (0..3).map(|_| BufId::fresh()).collect();
                let mut g = TaskGraph::new();
                // A producer, three independent consumers, and a reducer.
                g.submit("produce", acc(&[], &[x]), |_| {
                    data.lock().unwrap()[0] = 7;
                });
                for (i, &o) in outs.iter().enumerate() {
                    let data = &data;
                    g.submit(format!("consume{i}"), acc(&[x], &[o]), move |_| {
                        let mut d = data.lock().unwrap();
                        d[1 + i] = d[0] * (i as i64 + 1);
                    });
                }
                let report = g.run(&mut Tracer::disabled());
                assert_eq!(report.completion_order[0], 0, "producer retires first");
                assert_eq!(*data.lock().unwrap(), vec![7, 7, 14, 21], "threads={threads}");
                let sets = [
                    acc(&[], &[x]),
                    acc(&[x], &[outs[0]]),
                    acc(&[x], &[outs[1]]),
                    acc(&[x], &[outs[2]]),
                ];
                let refs: Vec<&AccessSet> = sets.iter().collect();
                assert_valid(&report.completion_order, &refs);
            });
        }
    }

    #[test]
    fn run_merges_records_in_submission_order_and_reports_retirement() {
        use crate::trace::{Category, OpKind, Phase};
        use crate::DType;
        let mk = |name: &str| OpRecord {
            name: name.into(),
            kind: OpKind::ElementWise,
            category: Category::Gelu,
            phase: Phase::Forward,
            layer: None,
            gemm: None,
            flops: 1,
            bytes_read: 4,
            bytes_written: 4,
            dtype: DType::F32,
            access: AccessSet::default(),
        };
        with_threads(4, || {
            let x = BufId::fresh();
            let y = BufId::fresh();
            let mut tracer = Tracer::new();
            let mut g = TaskGraph::new();
            g.submit("a", acc(&[], &[x]), |tr: &mut Tracer| {
                tr.record(mk("a0"));
                tr.record(mk("a1"));
            });
            g.submit("b", acc(&[], &[y]), |tr: &mut Tracer| tr.record(mk("b0")));
            g.submit("c", acc(&[x, y], &[]), |tr: &mut Tracer| tr.record(mk("c0")));
            let report = g.run(&mut tracer);
            let names: Vec<&str> = tracer.records().iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, vec!["a0", "a1", "b0", "c0"], "submission-order merge");
            assert_eq!(report.task_records, vec![0..2, 2..3, 3..4]);
            // record_order is a permutation ending with the join's record.
            let mut sorted = report.record_order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            assert_eq!(*report.record_order.last().unwrap(), 3);
        });
    }

    #[test]
    fn task_panic_propagates_after_quiescing() {
        let hits = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                let x = BufId::fresh();
                let mut g = TaskGraph::new();
                g.submit("ok", acc(&[], &[x]), |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                g.submit("boom", acc(&[x], &[]), |_| panic!("task exploded"));
                g.run(&mut Tracer::disabled());
            });
        }));
        assert!(result.is_err(), "panic must reach the caller");
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_kernels_in_task_bodies_do_not_deadlock() {
        // A task body that itself calls parallel_for: must run inline.
        with_threads(4, || {
            let sums = Mutex::new(vec![0usize; 2]);
            let mut g = TaskGraph::new();
            for i in 0..2 {
                let b = BufId::fresh();
                let sums = &sums;
                g.submit(format!("nested{i}"), acc(&[], &[b]), move |_| {
                    let total: usize =
                        pool::parallel_map(100, 10, |r| r.sum::<usize>()).into_iter().sum();
                    sums.lock().unwrap()[i] = total;
                });
            }
            g.run(&mut Tracer::disabled());
            assert_eq!(*sums.lock().unwrap(), vec![4950, 4950]);
        });
    }

    #[test]
    fn plan_order_is_deterministic_and_valid() {
        // A small pseudo-random graph: 20 tasks over 6 buffers.
        let bufs: Vec<BufId> = (0..6).map(|_| BufId::fresh()).collect();
        let mut state = 0x9e37_79b9u64;
        let mut rand = || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) as usize
        };
        let sets: Vec<AccessSet> = (0..20)
            .map(|_| {
                let r = bufs[rand() % 6];
                let w = bufs[rand() % 6];
                acc(&[r], &[w])
            })
            .collect();
        let refs: Vec<&AccessSet> = sets.iter().collect();
        for workers in [1, 2, 8] {
            let a = plan_order(&refs, workers);
            let b = plan_order(&refs, workers);
            assert_eq!(a, b, "plan_order must be deterministic");
            assert_valid(&a, &refs);
        }
        // One virtual worker reproduces a serial FIFO elaboration.
        assert_eq!(plan_order(&refs, 1).len(), 20);
    }

    #[test]
    fn capture_collects_run_reports() {
        start_capture();
        let x = BufId::fresh();
        let mut g = TaskGraph::new();
        g.submit("t", acc(&[], &[x]), |_| {});
        g.run(&mut Tracer::new());
        let runs = take_captured();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].completion_order, vec![0]);
        assert!(take_captured().is_empty(), "capture is consumed");
    }

    #[test]
    fn inline_run_matches_scheduled_run_and_logs_nothing() {
        use crate::trace::{Category, OpKind, Phase};
        use crate::DType;
        fn mk(name: &str) -> OpRecord {
            OpRecord {
                name: name.into(),
                kind: OpKind::ElementWise,
                category: Category::Gelu,
                phase: Phase::Forward,
                layer: None,
                gemm: None,
                flops: 1,
                bytes_read: 4,
                bytes_written: 4,
                dtype: DType::F32,
                access: AccessSet::default(),
            }
        }
        fn build(sums: &Mutex<Vec<usize>>) -> TaskGraph<'_> {
            let x = BufId::fresh();
            let mut g = TaskGraph::new();
            g.submit("produce", acc(&[], &[x]), move |tr: &mut Tracer| {
                sums.lock().unwrap()[0] = 3;
                tr.record(mk("produce"));
            });
            for i in 1..3 {
                g.submit(format!("consume{i}"), acc(&[x], &[BufId::fresh()]), move |tr| {
                    // Inline bodies may fan kernels out over the pool.
                    let total: usize =
                        pool::parallel_map(100, 10, |r| r.sum::<usize>()).into_iter().sum();
                    let mut d = sums.lock().unwrap();
                    d[i] = d[0] * i + total;
                    tr.record(mk(&format!("consume{i}")));
                });
            }
            g
        }
        for threads in [1, 2, 8] {
            with_threads(threads, || {
                let scheduled = Mutex::new(vec![0; 3]);
                let mut tr_s = Tracer::new();
                build(&scheduled).run(&mut tr_s);
                start_capture();
                let inline = Mutex::new(vec![0; 3]);
                let mut tr_i = Tracer::new();
                build(&inline).run_inline(&mut tr_i);
                assert!(take_captured().is_empty(), "inline runs log no report");
                assert_eq!(*inline.lock().unwrap(), vec![3, 4953, 4956]);
                assert_eq!(*inline.lock().unwrap(), *scheduled.lock().unwrap());
                let names =
                    |tr: &Tracer| tr.records().iter().map(|r| r.name.clone()).collect::<Vec<_>>();
                assert_eq!(names(&tr_i), vec!["produce", "consume1", "consume2"]);
                assert_eq!(names(&tr_i), names(&tr_s), "threads={threads}");
            });
        }
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        let report = TaskGraph::new().run(&mut Tracer::new());
        assert!(report.completion_order.is_empty());
        assert!(report.record_order.is_empty());
        assert_eq!((report.depth, report.max_width), (0, 0));
    }

    #[test]
    fn report_carries_dag_shape_and_labels() {
        let x = BufId::fresh();
        let y = BufId::fresh();
        let z = BufId::fresh();
        let mut g = TaskGraph::new();
        // A producer feeding two independent consumers: depth 2, width 2.
        g.submit("src", acc(&[], &[x]), |_| {});
        g.submit("left", acc(&[x], &[y]), |_| {});
        g.submit("right", acc(&[x], &[z]), |_| {});
        let report = g.run(&mut Tracer::disabled());
        assert_eq!(report.depth, 2);
        assert_eq!(report.max_width, 2);
        assert_eq!(report.labels, vec!["src", "left", "right"]);
        assert_eq!(report.task_ns.len(), 3);
    }

    #[test]
    fn fusion_merges_adjacent_sole_consumer_pairs() {
        let a = BufId::fresh();
        let b = BufId::fresh();
        let c = BufId::fresh();
        let labels: Vec<String> = vec!["fc1".into(), "gelu".into(), "fc2".into()];
        let sets = [acc(&[], &[a]), acc(&[a], &[b]), acc(&[b], &[c])];
        let refs: Vec<&AccessSet> = sets.iter().collect();
        let groups = plan_fusion(&labels, &refs, &[FusePattern::new("fc1", "gelu")]);
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
        // The merged access set is the union.
        let merged = merge_accesses(&[refs[0], refs[1]]);
        assert_eq!(merged.reads, vec![a]);
        let mut writes = merged.writes.clone();
        writes.sort_unstable();
        assert_eq!(writes, {
            let mut v = vec![a, b];
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn fusion_declines_multi_consumer_producers() {
        // `fc1`'s output is read by both `gelu` and a second consumer
        // (backward will need the pre-activation): not a sole successor,
        // so the pattern must not fire.
        let a = BufId::fresh();
        let b = BufId::fresh();
        let c = BufId::fresh();
        let labels: Vec<String> = vec!["fc1".into(), "gelu".into(), "saver".into()];
        let sets = [acc(&[], &[a]), acc(&[a], &[b]), acc(&[a], &[c])];
        let refs: Vec<&AccessSet> = sets.iter().collect();
        let groups = plan_fusion(&labels, &refs, &[FusePattern::new("fc1", "gelu")]);
        assert_eq!(groups, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn fusion_never_merges_opaque_barriers() {
        let a = BufId::fresh();
        let labels: Vec<String> = vec!["fc1".into(), "gelu".into()];
        let sets = [acc(&[], &[a]), AccessSet::default()];
        let refs: Vec<&AccessSet> = sets.iter().collect();
        let groups = plan_fusion(&labels, &refs, &[FusePattern::new("fc1", "gelu")]);
        assert_eq!(groups, vec![vec![0], vec![1]], "barriers must stay barriers");
    }

    #[test]
    fn fusion_extends_chains_greedily() {
        let a = BufId::fresh();
        let b = BufId::fresh();
        let c = BufId::fresh();
        let d = BufId::fresh();
        let labels: Vec<String> = vec!["res1".into(), "ln1".into(), "fc1".into(), "gelu".into()];
        let sets = [acc(&[], &[a]), acc(&[a], &[b]), acc(&[b], &[c]), acc(&[c], &[d])];
        let refs: Vec<&AccessSet> = sets.iter().collect();
        let patterns = [
            FusePattern::new("res", "ln"),
            FusePattern::new("ln", "fc1"),
            FusePattern::new("fc1", "gelu"),
        ];
        let groups = plan_fusion(&labels, &refs, &patterns);
        assert_eq!(groups, vec![vec![0, 1, 2, 3]]);
        assert_eq!(expand_order(&groups, &[0]), vec![0, 1, 2, 3]);
    }
}
