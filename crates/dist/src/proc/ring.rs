//! The ring `AllReduce` (Baidu's ring algorithm, paper ref. 28) over TCP
//! connections between ranks: `2(D-1)` pipeline steps of reduce-scatter +
//! all-gather over `D` chunks, the collective whose `2(D-1)/D x bytes`
//! per-rank traffic the paper's §5.1 model charges.
//!
//! This is the only ring in the suite. Cluster workers form it through the
//! supervisor's membership messages; in-process callers use
//! [`run_local_ring`], which binds loopback listeners and runs one scoped
//! thread per rank, and the buffer-level collectives [`ring_allreduce`],
//! [`ring_allreduce_faulty`] and [`ring_allreduce_mean`] built on it. The
//! serial [`reference_allreduce`] simulation applies the same chunk
//! schedule and accumulation order, so ring and reference produce
//! *bit-identical* results. That property is what makes the recovery tests
//! meaningful: a restarted or shrunk run can be compared against an
//! uninterrupted reference down to the last mantissa bit.
//!
//! Large payloads travel as [`plan_buckets`]-partitioned buckets
//! (`RingConfig::bucket_elems` elements each), each reduced by its own
//! ring pass; chunk frames ride the reliable transport, so socket faults
//! surface only in the stats.

use crate::proc::transport::{FrameConn, SocketFaults, TransportStats};
use crate::proc::DistError;
use bertscope_tensor::bucket::{decode_f32s, encode_f32s, plan_buckets};
use bertscope_tensor::FaultKind;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tunables of the socket ring: per-hop deadlines, the retransmission
/// budget and the bucket size. Shared by the cluster workers and the
/// in-process [`run_local_ring`] runner, so a fault exercised in-process
/// predicts the cluster's behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Per-hop receive and acknowledgement timeout.
    pub timeout: Duration,
    /// Bounded resend attempts per hop before the collective fails.
    pub max_retries: u32,
    /// Base backoff between retries; doubled on each attempt
    /// (exponential backoff, capped by `timeout`).
    pub backoff: Duration,
    /// Bucket granularity, in f32 elements per bucket (non-zero).
    pub bucket_elems: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            timeout: Duration::from_secs(30),
            max_retries: 3,
            backoff: Duration::from_millis(20),
            bucket_elems: 1 << 18, // 1 MiB of f32s per bucket
        }
    }
}

impl RingConfig {
    /// A config with the given per-hop timeout and defaults elsewhere.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        RingConfig { timeout, ..RingConfig::default() }
    }

    /// Backoff before retry attempt `attempt` (0-based), doubling per
    /// attempt and capped at the hop timeout.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let exp = self.backoff.saturating_mul(1 << attempt.min(16));
        exp.min(self.timeout)
    }

    /// Deadline for forming (or re-forming) a socket ring. A surviving
    /// peer may only notice the old ring died after exhausting its full
    /// receive/acknowledgement retry budget — `(max_retries + 1)` hop
    /// timeouts plus the backoffs between them — so a rank that failed
    /// fast must out-wait that worst case (plus one hop timeout of
    /// margin for the handshake itself), not a single hop timeout.
    #[must_use]
    pub fn formation_timeout(&self) -> Duration {
        let mut t = self.timeout.saturating_mul(self.max_retries.saturating_add(2));
        for attempt in 0..self.max_retries {
            t = t.saturating_add(self.backoff_for(attempt));
        }
        t
    }
}

/// Handshake magic for ring data connections.
const RING_MAGIC: &[u8; 4] = b"BSRG";

/// Statistics of one socket-ring collective.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Participating ranks.
    pub world: usize,
    /// Pipeline steps executed per bucket (`2(world-1)`).
    pub steps_per_bucket: usize,
    /// Buckets the payload was partitioned into.
    pub buckets: usize,
    /// Payload bytes this rank pushed onto the wire (excluding resends).
    pub bytes_sent: u64,
    /// Transport reliability counters (resends, timeouts, corrupt frames).
    pub transport: TransportStats,
    /// Wall time of the collective, in microseconds.
    pub elapsed_us: u64,
}

/// One rank's endpoints of a formed ring at a given membership epoch.
#[derive(Debug)]
pub struct SocketRing {
    /// Membership epoch this ring was formed at (bumped by every elastic
    /// reconfiguration).
    pub epoch: u32,
    /// This rank's position in the *active* member list (its ring index).
    pub position: usize,
    /// Active world size.
    pub world: usize,
    cfg: RingConfig,
    to_succ: FrameConn,
    from_pred: FrameConn,
}

fn io_err(e: &std::io::Error, what: &str) -> DistError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            DistError::Timeout { what: what.into() }
        }
        _ => DistError::Io(format!("{what}: {e}")),
    }
}

/// Form a ring at `epoch` among `members` (listen ports on localhost, in
/// ring order). `position` indexes this rank within `members`; `listener`
/// is this rank's own accepting socket (bound once, reused across
/// epochs). Stale connections from earlier epochs are drained and
/// dropped.
///
/// The whole formation runs under [`RingConfig::formation_timeout`]
/// rather than one hop timeout: after a fault, a surviving member may
/// only discover the re-formation once its receive/ack retry budget on
/// the dead ring is exhausted, and a fast-failing peer must keep
/// listening until then.
///
/// # Errors
///
/// Returns a timeout when the successor never accepts or the predecessor
/// never dials in, or a protocol error on a handshake mismatch.
///
/// # Panics
///
/// Panics when `position` is out of range of `members`.
pub fn form_ring(
    listener: &TcpListener,
    members: &[u16],
    position: usize,
    epoch: u32,
    cfg: &RingConfig,
) -> Result<SocketRing, DistError> {
    let world = members.len();
    assert!(position < world, "position {position} out of {world}");
    let succ_port = members[(position + 1) % world];
    let deadline = Instant::now() + cfg.formation_timeout();

    // Dial the successor (retrying while it re-forms), sending the
    // epoch-tagged handshake.
    let to_succ = loop {
        match TcpStream::connect(("127.0.0.1", succ_port)) {
            Ok(mut s) => {
                let mut hello = Vec::with_capacity(12);
                hello.extend_from_slice(RING_MAGIC);
                hello.extend_from_slice(&epoch.to_le_bytes());
                hello.extend_from_slice(&u32::try_from(position).expect("small").to_le_bytes());
                s.write_all(&hello).map_err(|e| io_err(&e, "ring handshake write"))?;
                break s;
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io_err(&e, "connect to ring successor"));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    to_succ.set_nodelay(true).map_err(|e| io_err(&e, "nodelay"))?;

    // Accept the predecessor, discarding stale-epoch dials.
    listener.set_nonblocking(false).map_err(|e| io_err(&e, "listener mode"))?;
    let from_pred = loop {
        if Instant::now() >= deadline {
            return Err(DistError::Timeout { what: format!("ring predecessor at epoch {epoch}") });
        }
        // A short accept timeout via nonblocking + poll keeps the deadline
        // honest without platform-specific socket options.
        listener.set_nonblocking(true).map_err(|e| io_err(&e, "listener mode"))?;
        let accepted = listener.accept();
        listener.set_nonblocking(false).map_err(|e| io_err(&e, "listener mode"))?;
        let mut stream = match accepted {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(e) => return Err(io_err(&e, "accept ring predecessor")),
        };
        stream.set_read_timeout(Some(cfg.timeout)).map_err(|e| io_err(&e, "handshake timeout"))?;
        let mut hello = [0u8; 12];
        if stream.read_exact(&mut hello).is_err() {
            continue; // half-open stale dial; drop it
        }
        if &hello[0..4] != RING_MAGIC {
            continue;
        }
        let peer_epoch = u32::from_le_bytes(hello[4..8].try_into().expect("4 bytes"));
        if peer_epoch != epoch {
            continue; // stale epoch: a member that has not reconfigured yet
        }
        break stream;
    };

    Ok(SocketRing {
        epoch,
        position,
        world,
        cfg: *cfg,
        to_succ: FrameConn::new(to_succ, *cfg)?,
        from_pred: FrameConn::new(from_pred, *cfg)?,
    })
}

impl SocketRing {
    /// Arm send-path faults for the next collective (reset afterwards).
    pub fn arm_faults(&mut self, faults: SocketFaults) {
        self.to_succ.faults = faults;
    }

    /// Sum-AllReduce `data` in place across the ring.
    ///
    /// Bit-exact against [`reference_allreduce`] with the same world size
    /// and bucket plan. A world of one returns immediately.
    ///
    /// # Errors
    ///
    /// Structured [`DistError`]s on peer death, hop timeout or retry
    /// exhaustion; on error the buffer contents are unspecified and the
    /// ring should be considered broken (re-form before retrying).
    pub fn allreduce(&mut self, data: &mut [f32]) -> Result<RingStats, DistError> {
        let start = Instant::now();
        let d = self.world;
        let mut stats = RingStats {
            world: d,
            steps_per_bucket: if d > 1 { 2 * (d - 1) } else { 0 },
            ..RingStats::default()
        };
        if d <= 1 || data.is_empty() {
            stats.elapsed_us = instant_us(start);
            return Ok(stats);
        }
        let rank = self.position;
        for bucket in plan_buckets(data.len(), self.cfg.bucket_elems) {
            stats.buckets += 1;
            let buf = &mut data[bucket];
            let bounds = chunk_bounds(buf.len(), d);
            for t in 0..2 * (d - 1) {
                let send_c = send_chunk(rank, d, t);
                let recv_c = (send_c + d - 1) % d;
                stats.bytes_sent += self.hop(t, &bounds, send_c, recv_c, buf, t < d - 1)?;
            }
        }
        // Faults are one-collective-scoped; a clean next step starts clean.
        self.to_succ.faults = SocketFaults::default();
        stats.transport.absorb(&self.to_succ.stats);
        stats.transport.absorb(&self.from_pred.stats);
        self.to_succ.stats = TransportStats::default();
        self.from_pred.stats = TransportStats::default();
        stats.elapsed_us = instant_us(start);
        Ok(stats)
    }

    /// One pipeline hop: push the outgoing chunk, service the inbound
    /// side, then reap the acknowledgement. The send-before-receive order
    /// plus TCP buffering keeps the simultaneous ring deadlock-free.
    fn hop(
        &mut self,
        step: usize,
        bounds: &[(usize, usize)],
        send_chunk: usize,
        recv_chunk: usize,
        buf: &mut [f32],
        reduce: bool,
    ) -> Result<u64, DistError> {
        let (a, b) = bounds[send_chunk];
        let payload = encode_f32s(&buf[a..b]);
        let seq = self.to_succ.send_data(&payload)?;
        let incoming = self.from_pred.recv_data()?;
        let incoming = decode_f32s(&incoming).map_err(DistError::Protocol)?;
        let (ra, rb) = bounds[recv_chunk];
        if incoming.len() != rb - ra {
            return Err(DistError::Protocol(format!(
                "hop {step}: got {} elements for a {}-element chunk",
                incoming.len(),
                rb - ra
            )));
        }
        if reduce {
            for (dst, src) in buf[ra..rb].iter_mut().zip(&incoming) {
                *dst += src;
            }
        } else {
            buf[ra..rb].copy_from_slice(&incoming);
        }
        self.to_succ.await_ack(seq, &payload, step)?;
        Ok(payload.len() as u64)
    }
}

fn instant_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Chunk boundaries of a `len`-element bucket split over `d` ranks.
fn chunk_bounds(len: usize, d: usize) -> Vec<(usize, usize)> {
    (0..d).map(|c| (c * len / d, (c + 1) * len / d)).collect()
}

/// The chunk `rank` sends at pipeline step `t` of `2(d-1)`; it receives
/// the chunk before it from its predecessor. Steps below `d - 1` are the
/// reduce-scatter (accumulate), the rest the all-gather (copy).
fn send_chunk(rank: usize, d: usize, t: usize) -> usize {
    (rank + 2 * d - t) % d
}

/// Run `body` on every rank of a `world`-rank socket ring formed over
/// loopback TCP, one scoped thread per rank. One listener per rank is
/// bound up front; each rank then forms its side of the ring with
/// [`form_ring`] and calls `body(rank, &mut ring)`. The ring is dropped
/// when `body` returns.
///
/// # Errors
///
/// Returns the root cause when any rank fails to form its ring or its
/// `body` fails: a [`DistError::Killed`] wins over the hang-ups it causes
/// on surviving ranks, otherwise the lowest failing rank's error.
///
/// # Panics
///
/// Propagates a panic raised by any rank's `body`.
pub fn run_local_ring<T, F>(world: usize, cfg: &RingConfig, body: F) -> Result<Vec<T>, DistError>
where
    T: Send,
    F: Fn(usize, &mut SocketRing) -> Result<T, DistError> + Sync,
{
    let listeners =
        (0..world).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<Result<Vec<_>, _>>()?;
    let ports = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect::<Result<Vec<_>, _>>()?;
    let outcomes: Vec<Result<T, DistError>> = std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .iter()
            .enumerate()
            .map(|(rank, listener)| {
                let (ports, body) = (&ports, &body);
                s.spawn(move || body(rank, &mut form_ring(listener, ports, rank, 1, cfg)?))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    if let Some(Err(killed)) = outcomes.iter().find(|o| matches!(o, Err(DistError::Killed { .. })))
    {
        return Err(killed.clone());
    }
    outcomes.into_iter().collect()
}

/// Sum-AllReduce the given per-device buffers in place on a loopback
/// socket ring of one thread per device (see [`run_local_ring`]).
///
/// Returns the statistics of the rank that sent the most bytes: the
/// per-device traffic the analytic model charges.
///
/// # Panics
///
/// Panics when buffers have mismatched lengths, `buffers` is empty, or
/// the loopback ring fails.
pub fn ring_allreduce(buffers: &mut [Vec<f32>]) -> RingStats {
    ring_allreduce_faulty(buffers, &[], RingConfig::default().timeout)
        .expect("fault-free loopback allreduce failed")
}

/// [`ring_allreduce`] with deterministic fault injection and per-hop
/// timeouts. The ring faults of the plan act on their rank:
///
/// * [`FaultKind::KillRank`] — the rank drops its formed ring without
///   sending; its neighbours observe the dead links and the call returns
///   [`DistError::Killed`] instead of hanging.
/// * [`FaultKind::DelayRank`] — the rank sleeps before its first hop; the
///   collective still completes unless the delay exceeds the ranks'
///   retry budget.
/// * [`FaultKind::CorruptSegment`] — the rank's chunk is NaN-poisoned
///   before the exchange, so the reduction spreads NaN to every device
///   (detectable downstream by the trainer's finiteness check).
///
/// Other faults are ignored here. On error the buffer contents are
/// unspecified.
///
/// # Errors
///
/// The root-cause [`DistError`]: an injected kill wins over the secondary
/// hang-ups it causes on surviving ranks.
///
/// # Panics
///
/// Panics when buffers have mismatched lengths, `buffers` is empty, or a
/// fault names a rank or chunk out of range.
pub fn ring_allreduce_faulty(
    buffers: &mut [Vec<f32>],
    faults: &[FaultKind],
    timeout: Duration,
) -> Result<RingStats, DistError> {
    let d = buffers.len();
    assert!(d > 0, "at least one device required");
    let len = buffers[0].len();
    assert!(buffers.iter().all(|b| b.len() == len), "buffer lengths must match");
    let mut killed = vec![false; d];
    let mut delay = vec![Duration::ZERO; d];
    for fault in faults {
        match *fault {
            FaultKind::KillRank { rank } => {
                assert!(rank < d, "fault plan kills rank {rank} of {d}");
                killed[rank] = true;
            }
            FaultKind::DelayRank { rank, micros } => {
                assert!(rank < d, "fault plan delays rank {rank} of {d}");
                delay[rank] += Duration::from_micros(micros);
            }
            FaultKind::CorruptSegment { rank, chunk } => {
                assert!(rank < d, "fault plan corrupts rank {rank} of {d}");
                assert!(chunk < d, "fault plan corrupts chunk {chunk} of {d}");
                let (a, b) = chunk_bounds(len, d)[chunk];
                buffers[rank][a..b].fill(f32::NAN);
            }
            _ => {}
        }
    }
    let slots: Vec<Mutex<&mut Vec<f32>>> = buffers.iter_mut().map(Mutex::new).collect();
    let per_rank = run_local_ring(d, &RingConfig::with_timeout(timeout), |rank, ring| {
        if killed[rank] {
            return Err(DistError::Killed { rank });
        }
        std::thread::sleep(delay[rank]);
        ring.allreduce(&mut slots[rank].lock().expect("each rank locks only its own buffer"))
    })?;
    Ok(per_rank.into_iter().max_by_key(|s| s.bytes_sent).expect("at least one rank"))
}

/// Mean-AllReduce: sum then divide by the device count (the gradient
/// averaging of data-parallel training, §2.5).
///
/// # Panics
///
/// Panics under the same conditions as [`ring_allreduce`].
pub fn ring_allreduce_mean(buffers: &mut [Vec<f32>]) -> RingStats {
    let stats = ring_allreduce(buffers);
    let inv = 1.0 / buffers.len() as f32;
    for v in buffers.iter_mut().flatten() {
        *v *= inv;
    }
    stats
}

/// Serial lockstep simulation of the ring: applies the exact per-step
/// chunk schedule and accumulation order of [`SocketRing::allreduce`] to
/// all buffers at once, giving the bit-exact expected result of the
/// distributed collective.
///
/// # Panics
///
/// Panics when buffers have mismatched lengths or `buffers` is empty.
pub fn reference_allreduce(buffers: &mut [Vec<f32>], bucket_elems: usize) {
    let d = buffers.len();
    assert!(d > 0, "at least one rank required");
    let len = buffers[0].len();
    assert!(buffers.iter().all(|b| b.len() == len), "buffer lengths must match");
    if d == 1 || len == 0 {
        return;
    }
    for bucket in plan_buckets(len, bucket_elems) {
        let bounds = chunk_bounds(bucket.len(), d);
        let chunk = |c: usize| bucket.start + bounds[c].0..bucket.start + bounds[c].1;
        for t in 0..2 * (d - 1) {
            // Snapshot every rank's outgoing chunk from pre-step state,
            // then apply — the lockstep the parallel ring executes.
            let payloads: Vec<Vec<f32>> =
                (0..d).map(|rank| buffers[rank][chunk(send_chunk(rank, d, t))].to_vec()).collect();
            for (rank, buf) in buffers.iter_mut().enumerate() {
                let dst = &mut buf[chunk((send_chunk(rank, d, t) + d - 1) % d)];
                let src = &payloads[(rank + d - 1) % d];
                if t < d - 1 {
                    dst.iter_mut().zip(src).for_each(|(x, y)| *x += y);
                } else {
                    dst.copy_from_slice(src);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_buffers(d: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..d).map(|_| (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
    }

    fn elementwise_sum(bufs: &[Vec<f32>]) -> Vec<f32> {
        (0..bufs[0].len()).map(|i| bufs.iter().map(|b| b[i]).sum::<f32>()).collect()
    }

    fn assert_all_close(bufs: &[Vec<f32>], want: &[f32]) {
        for b in bufs {
            for (got, want) in b.iter().zip(want) {
                assert!((got - want).abs() < 1e-4, "{got} vs {want}");
            }
        }
    }

    #[test]
    fn allreduce_computes_elementwise_sum() {
        for d in [2usize, 3, 4, 8] {
            let mut bufs = random_buffers(d, 37, d as u64); // 37: not divisible by d
            let expected = elementwise_sum(&bufs);
            let stats = ring_allreduce(&mut bufs);
            assert_all_close(&bufs, &expected);
            assert_eq!(stats.steps_per_bucket, 2 * (d - 1));
        }
    }

    #[test]
    fn mean_allreduce_averages_gradients() {
        let mut bufs = vec![vec![1.0f32; 8], vec![3.0; 8]];
        ring_allreduce_mean(&mut bufs);
        for b in &bufs {
            assert!(b.iter().all(|&v| (v - 2.0).abs() < 1e-6));
        }
    }

    #[test]
    fn traffic_matches_analytic_volume() {
        // Analytic model: each device sends 2*(D-1)/D of the buffer.
        let (d, len) = (4, 1024);
        let stats = ring_allreduce(&mut random_buffers(d, len, 9));
        assert_eq!(stats.bytes_sent, (2 * (d - 1) * len / d * 4) as u64);
    }

    #[test]
    fn single_device_is_identity() {
        let mut bufs = vec![vec![5.0f32; 4]];
        let stats = ring_allreduce(&mut bufs);
        assert_eq!(bufs[0], vec![5.0; 4]);
        assert_eq!(stats.bytes_sent, 0);
    }

    #[test]
    fn empty_buffers_are_noop() {
        let stats = ring_allreduce(&mut [Vec::new(), Vec::new()]);
        assert_eq!(stats.bytes_sent, 0);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_lengths_panic() {
        let _ = ring_allreduce(&mut [vec![1.0f32; 4], vec![1.0; 5]]);
    }

    #[test]
    fn killed_rank_errors_within_the_timeout_bound() {
        let mut bufs = random_buffers(4, 64, 7);
        let start = Instant::now();
        let err = ring_allreduce_faulty(
            &mut bufs,
            &[FaultKind::KillRank { rank: 2 }],
            Duration::from_millis(200),
        )
        .expect_err("a dead rank must fail the collective");
        assert_eq!(err, DistError::Killed { rank: 2 });
        // Each hop is bounded by the per-hop timeout and its retries; the
        // point is: no deadlock.
        assert!(start.elapsed() < Duration::from_secs(5), "took {:?}", start.elapsed());
    }

    #[test]
    fn delayed_rank_still_completes() {
        let d = 3;
        let mut bufs = random_buffers(d, 12, 11);
        let expected = elementwise_sum(&bufs);
        let stats = ring_allreduce_faulty(
            &mut bufs,
            &[FaultKind::DelayRank { rank: 1, micros: 20_000 }],
            Duration::from_secs(5),
        )
        .expect("a short delay must not break the collective");
        assert_eq!(stats.steps_per_bucket, 2 * (d - 1));
        assert_all_close(&bufs, &expected);
    }

    #[test]
    fn exponential_backoff_is_capped() {
        let cfg = RingConfig {
            timeout: Duration::from_millis(500),
            backoff: Duration::from_millis(20),
            ..RingConfig::default()
        };
        assert_eq!(cfg.backoff_for(0), Duration::from_millis(20));
        assert_eq!(cfg.backoff_for(1), Duration::from_millis(40));
        assert_eq!(cfg.backoff_for(3), Duration::from_millis(160));
        // Capped at the hop timeout well before overflow territory.
        assert_eq!(cfg.backoff_for(10), Duration::from_millis(500));
        assert_eq!(cfg.backoff_for(60), Duration::from_millis(500));
    }

    #[test]
    fn corrupt_segment_spreads_detectable_nan() {
        let mut bufs = random_buffers(4, 32, 3);
        let stats = ring_allreduce_faulty(
            &mut bufs,
            &[FaultKind::CorruptSegment { rank: 1, chunk: 2 }],
            Duration::from_secs(5),
        )
        .expect("corruption poisons data, not the protocol");
        assert_eq!(stats.steps_per_bucket, 6);
        let (a, b) = (2 * 32 / 4, 3 * 32 / 4);
        for buf in &bufs {
            assert!(buf[a..b].iter().all(|v| v.is_nan()), "reduced chunk must be NaN");
            assert!(buf[..a].iter().all(|v| v.is_finite()), "other chunks stay clean");
        }
    }

    #[test]
    fn gradient_faults_are_ignored_by_the_ring() {
        let mut bufs = vec![vec![1.0f32; 8], vec![2.0; 8]];
        let stats = ring_allreduce_faulty(
            &mut bufs,
            &[FaultKind::InfGradient { param: "l0.fc1.weight".into() }],
            Duration::from_secs(5),
        )
        .expect("gradient faults are the trainer's business");
        assert_eq!(stats.world, 2);
        assert!(bufs[0].iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn reference_bucketing_keeps_ranks_in_agreement() {
        // Bucketed chunk bounds differ from whole-buffer bounds, so the
        // *values* may differ in the last bits between plans — but within
        // one plan every rank must end bit-identical, and the result must
        // be the correct sum to f32 accuracy.
        let d = 4;
        let mut bucketed: Vec<Vec<f32>> =
            (0..d).map(|r| (0..101).map(|i| ((r + i * 7) as f32).cos()).collect()).collect();
        let expected = elementwise_sum(&bucketed);
        reference_allreduce(&mut bucketed, 13);
        for rank in 1..d {
            for (i, (a, b)) in bucketed[0].iter().zip(&bucketed[rank]).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "rank {rank} elem {i} disagrees");
            }
        }
        assert_all_close(&bucketed, &expected);
    }
}
