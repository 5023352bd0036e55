//! Socket-ring `AllReduce` correctness across real threads and real TCP
//! sockets — bit-exact against the serial reference simulation, with and
//! without injected socket faults.

use bertscope_dist::proc::ring::{reference_allreduce, run_local_ring, RingStats};
use bertscope_dist::proc::transport::SocketFaults;
use bertscope_dist::RingConfig;
use std::time::Duration;

fn test_cfg(bucket_elems: usize) -> RingConfig {
    RingConfig {
        timeout: Duration::from_millis(500),
        max_retries: 4,
        backoff: Duration::from_millis(5),
        bucket_elems,
    }
}

/// Deterministic, rank-distinct, non-trivial payloads (values whose f32
/// sums are order-sensitive, so bit-exactness is a real claim).
fn payload(rank: usize, elems: usize) -> Vec<f32> {
    (0..elems)
        .map(|i| {
            let x = (i as f32).mul_add(0.317_77, rank as f32 * 0.709_93);
            (x.sin() * 1_000.0) + 1.0e-4 * (i as f32)
        })
        .collect()
}

/// Run a `world`-rank socket ring over loopback TCP, each rank reducing
/// its payload. `faults` are armed on rank 0 before the collective.
fn run_socket_ring(
    world: usize,
    elems: usize,
    cfg: &RingConfig,
    faults: SocketFaults,
) -> (Vec<Vec<f32>>, Vec<RingStats>) {
    run_local_ring(world, cfg, |rank, ring| {
        if rank == 0 {
            ring.arm_faults(faults);
        }
        let mut buf = payload(rank, elems);
        let stats = ring.allreduce(&mut buf)?;
        Ok((buf, stats))
    })
    .expect("socket ring")
    .into_iter()
    .unzip()
}

fn reference(world: usize, elems: usize, bucket_elems: usize) -> Vec<Vec<f32>> {
    let mut bufs: Vec<Vec<f32>> = (0..world).map(|r| payload(r, elems)).collect();
    reference_allreduce(&mut bufs, bucket_elems);
    bufs
}

fn assert_bitwise(got: &[Vec<f32>], want: &[Vec<f32>]) {
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len());
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "rank {rank} elem {i}: socket {a} != reference {b}"
            );
        }
    }
}

#[test]
fn socket_ring_matches_reference_bitwise() {
    // 257: not divisible by world or bucket, exercising remainders; 37
    // fits one bucket, so each rank's chunk spans the whole buffer.
    let cases = [(2, 257), (3, 257), (4, 257), (2, 37), (3, 37), (4, 37), (8, 37)];
    for (world, elems) in cases {
        let cfg = test_cfg(64);
        let (bufs, stats) = run_socket_ring(world, elems, &cfg, SocketFaults::default());
        assert_bitwise(&bufs, &reference(world, elems, cfg.bucket_elems));
        for st in &stats {
            assert_eq!(st.world, world);
            assert_eq!(st.transport.retries, 0, "clean run must not retry");
        }
    }
}

#[test]
fn bucketed_collective_splits_frames_but_not_results() {
    let cfg = test_cfg(32); // 200 elems -> 7 buckets
    let (bufs, stats) = run_socket_ring(4, 200, &cfg, SocketFaults::default());
    assert_bitwise(&bufs, &reference(4, 200, 32));
    assert!(stats[0].buckets >= 7, "expected >= 7 buckets, got {}", stats[0].buckets);
}

#[test]
fn dropped_frames_are_absorbed_by_retransmission() {
    let cfg = test_cfg(64);
    let faults = SocketFaults { drop_sends: 1, ..SocketFaults::default() };
    let (bufs, stats) = run_socket_ring(3, 100, &cfg, faults);
    assert_bitwise(&bufs, &reference(3, 100, 64));
    let total_retries: u64 = stats.iter().map(|s| s.transport.retries).sum();
    assert!(total_retries >= 1, "the dropped frame must have been resent");
}

#[test]
fn corrupted_frames_are_nacked_and_absorbed() {
    let cfg = test_cfg(64);
    let faults = SocketFaults { corrupt_sends: 2, ..SocketFaults::default() };
    let (bufs, stats) = run_socket_ring(4, 150, &cfg, faults);
    assert_bitwise(&bufs, &reference(4, 150, 64));
    let corrupt: u64 = stats.iter().map(|s| s.transport.corrupt_frames).sum();
    assert!(corrupt >= 2, "receivers must have detected the corruption, saw {corrupt}");
}

#[test]
fn delayed_sender_slows_but_does_not_break_the_ring() {
    let cfg = test_cfg(64);
    let faults = SocketFaults { delay_send_micros: 2_000, ..SocketFaults::default() };
    let (bufs, _) = run_socket_ring(3, 64, &cfg, faults);
    assert_bitwise(&bufs, &reference(3, 64, 64));
}

#[test]
fn consecutive_collectives_reuse_the_ring() {
    let world = 3;
    let cfg = test_cfg(128);
    let mut expected1: Vec<Vec<f32>> = (0..world).map(|r| payload(r, 90)).collect();
    reference_allreduce(&mut expected1, cfg.bucket_elems);
    let mut expected2: Vec<Vec<f32>> = expected1.clone();
    reference_allreduce(&mut expected2, cfg.bucket_elems);

    let got = run_local_ring(world, &cfg, |rank, ring| {
        let mut buf = payload(rank, 90);
        ring.allreduce(&mut buf)?;
        let first = buf.clone();
        ring.allreduce(&mut buf)?;
        Ok((first, buf))
    })
    .expect("two collectives on one ring");
    for (rank, (first, second)) in got.iter().enumerate() {
        assert_eq!(first, &expected1[rank], "rank {rank} first collective");
        assert_eq!(second, &expected2[rank], "rank {rank} second collective");
    }
}
