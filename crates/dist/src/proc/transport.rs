//! Reliable framed transport over TCP for the socket ring.
//!
//! Wire format of one frame (all integers little-endian):
//!
//! ```text
//! [ payload_len: u32 ][ tag: u8 ][ seq: u64 ][ crc: u64 ][ payload ... ]
//! ```
//!
//! `crc` is the FNV-1a checksum of the payload
//! ([`bertscope_tensor::bucket::checksum64`]). DATA frames are positively
//! acknowledged: the receiver replies ACK on a clean frame and NACK on a
//! checksum mismatch, and the sender retransmits on NACK or
//! acknowledgement timeout, a bounded number of times with exponential
//! backoff ([`RingConfig::backoff_for`]). Duplicate DATA frames (a resend
//! racing a lost ACK) are detected by sequence number, re-acknowledged and
//! dropped. The result: the fault classes `FaultPlan` injects on the send
//! path — dropped writes, delayed writes, corrupted payloads — are
//! *absorbed* by the protocol and show up only as retry/timeout counts in
//! [`TransportStats`], while a genuinely dead peer degrades into a
//! structured [`DistError`] within the configured deadline.

use crate::proc::ring::RingConfig;
use crate::proc::DistError;
use bertscope_tensor::bucket::checksum64;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Frame tags.
const TAG_DATA: u8 = 0;
const TAG_ACK: u8 = 1;
const TAG_NACK: u8 = 2;

/// Largest payload the receiver will accept (a corrupted length prefix
/// must not trigger a huge allocation).
const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;

/// Deterministic send-path fault state, armed per training step from the
/// rank's [`FaultPlan`](bertscope_tensor::FaultPlan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketFaults {
    /// Silently skip the next `drop_sends` DATA writes (the frame is
    /// "sent" as far as the sender's protocol state is concerned, but
    /// never hits the wire).
    pub drop_sends: u32,
    /// Corrupt the payload of the next `corrupt_sends` DATA writes after
    /// their checksum is computed.
    pub corrupt_sends: u32,
    /// Sleep this long before every DATA write (a congested link).
    pub delay_send_micros: u64,
}

/// Counters of the reliability machinery's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// DATA frames written to the wire (including retransmissions).
    pub frames_sent: u64,
    /// Retransmissions performed (NACK- or timeout-triggered).
    pub retries: u64,
    /// Acknowledgement waits that expired and were absorbed by a resend.
    pub timeouts: u64,
    /// Frames received with a checksum mismatch (`NACK`ed).
    pub corrupt_frames: u64,
    /// Duplicate DATA frames dropped (resend raced a lost ACK).
    pub duplicates: u64,
}

impl TransportStats {
    /// Accumulate another transport's counters into this one.
    pub fn absorb(&mut self, other: &TransportStats) {
        self.frames_sent += other.frames_sent;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.corrupt_frames += other.corrupt_frames;
        self.duplicates += other.duplicates;
    }
}

/// One reliable, sequenced frame connection over a TCP stream.
///
/// A ring rank owns two: one toward its successor (it sends DATA, reads
/// ACKs) and one from its predecessor (it reads DATA, sends ACKs). The
/// same type serves both roles; the sequence counters are per-direction.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    cfg: RingConfig,
    next_send_seq: u64,
    next_recv_seq: u64,
    /// Armed send-path faults (consumed as they fire).
    pub faults: SocketFaults,
    /// Reliability counters for this connection.
    pub stats: TransportStats,
}

fn write_frame(
    stream: &mut TcpStream,
    tag: u8,
    seq: u64,
    crc: u64,
    payload: &[u8],
) -> Result<(), DistError> {
    let mut header = Vec::with_capacity(21 + payload.len());
    header.extend_from_slice(
        &u32::try_from(payload.len())
            .map_err(|_| {
                DistError::Protocol(format!(
                    "payload of {} bytes exceeds the frame format",
                    payload.len()
                ))
            })?
            .to_le_bytes(),
    );
    header.push(tag);
    header.extend_from_slice(&seq.to_le_bytes());
    header.extend_from_slice(&crc.to_le_bytes());
    header.extend_from_slice(payload);
    stream.write_all(&header)?;
    stream.flush()?;
    Ok(())
}

/// A decoded frame.
struct Frame {
    tag: u8,
    seq: u64,
    crc: u64,
    payload: Vec<u8>,
}

fn read_exact_timeout(mut stream: impl Read, buf: &mut [u8]) -> Result<(), DistError> {
    stream.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            DistError::Timeout { what: "frame from ring peer".into() }
        }
        std::io::ErrorKind::UnexpectedEof => DistError::Io("ring peer hung up".into()),
        _ => DistError::Io(e.to_string()),
    })
}

fn read_frame(mut stream: impl Read) -> Result<Frame, DistError> {
    let mut head = [0u8; 21];
    read_exact_timeout(&mut stream, &mut head)?;
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    if len > MAX_PAYLOAD {
        return Err(DistError::Protocol(format!("frame advertises {len} bytes")));
    }
    let tag = head[4];
    let seq = u64::from_le_bytes(head[5..13].try_into().expect("8 bytes"));
    let crc = u64::from_le_bytes(head[13..21].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; len as usize];
    read_exact_timeout(&mut stream, &mut payload)?;
    Ok(Frame { tag, seq, crc, payload })
}

impl FrameConn {
    /// Wrap a connected stream. The per-hop timeout from `cfg` becomes the
    /// socket read timeout.
    ///
    /// # Errors
    ///
    /// Returns an error when the socket options cannot be set.
    pub fn new(stream: TcpStream, cfg: RingConfig) -> Result<FrameConn, DistError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(cfg.timeout))?;
        Ok(FrameConn {
            stream,
            cfg,
            next_send_seq: 0,
            next_recv_seq: 0,
            faults: SocketFaults::default(),
            stats: TransportStats::default(),
        })
    }

    /// Fire-and-forget write of the next DATA frame (no acknowledgement
    /// wait). Pair with [`FrameConn::await_ack`] — splitting the two is
    /// what keeps a ring of simultaneous senders deadlock-free: every rank
    /// first pushes its frame into the socket buffer, then services its
    /// *inbound* side (which produces the ACKs), then reaps its own ACK.
    ///
    /// Armed [`SocketFaults`] fire here: a dropped write never reaches the
    /// wire, a corrupted write flips payload bits after the checksum, a
    /// delayed write sleeps first.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the peer's socket is gone.
    pub fn send_data(&mut self, payload: &[u8]) -> Result<u64, DistError> {
        let seq = self.next_send_seq;
        self.next_send_seq += 1;
        self.write_data_frame(seq, payload)?;
        Ok(seq)
    }

    /// (Re)write the DATA frame with the given sequence number, applying
    /// armed faults.
    fn write_data_frame(&mut self, seq: u64, payload: &[u8]) -> Result<(), DistError> {
        if self.faults.delay_send_micros > 0 {
            std::thread::sleep(Duration::from_micros(self.faults.delay_send_micros));
        }
        if self.faults.drop_sends > 0 {
            self.faults.drop_sends -= 1;
            // The frame vanishes on the "wire"; the ack wait will expire
            // and the retransmission path repairs the loss.
            return Ok(());
        }
        let crc = checksum64(payload);
        if self.faults.corrupt_sends > 0 {
            self.faults.corrupt_sends -= 1;
            let mut bad = payload.to_vec();
            if bad.is_empty() {
                bad.push(0xFF);
            } else {
                let mid = bad.len() / 2;
                bad[mid] ^= 0x40;
            }
            self.stats.frames_sent += 1;
            return write_frame(&mut self.stream, TAG_DATA, seq, crc, &bad);
        }
        self.stats.frames_sent += 1;
        write_frame(&mut self.stream, TAG_DATA, seq, crc, payload)
    }

    /// Wait for the acknowledgement of `seq`, retransmitting `payload` on
    /// NACK or timeout up to the configured retry budget.
    ///
    /// # Errors
    ///
    /// [`DistError::RetriesExhausted`] when the budget runs out, or an I/O
    /// error when the peer is gone. `step` only labels the error.
    pub fn await_ack(&mut self, seq: u64, payload: &[u8], step: usize) -> Result<(), DistError> {
        let mut attempt: u32 = 0;
        loop {
            match read_frame(&mut self.stream) {
                Ok(f) if f.tag == TAG_ACK && f.seq == seq => return Ok(()),
                // A stale ACK or NACK (for an earlier, already-satisfied
                // seq — e.g. our resend crossed the original ACK in
                // flight, or a corrupted duplicate of an already-delivered
                // frame drew a NACK). Both are about history, not `seq`.
                Ok(f) if (f.tag == TAG_ACK || f.tag == TAG_NACK) && f.seq < seq => {}
                Ok(f) if f.tag == TAG_NACK && f.seq == seq => {
                    attempt += 1;
                    if attempt > self.cfg.max_retries {
                        return Err(DistError::RetriesExhausted { step, attempts: attempt + 1 });
                    }
                    self.stats.retries += 1;
                    std::thread::sleep(self.cfg.backoff_for(attempt - 1));
                    self.write_data_frame(seq, payload)?;
                }
                Ok(f) => {
                    return Err(DistError::Protocol(format!(
                        "unexpected frame tag {} seq {} while awaiting ack {seq}",
                        f.tag, f.seq
                    )));
                }
                Err(DistError::Timeout { .. }) => {
                    attempt += 1;
                    if attempt > self.cfg.max_retries {
                        return Err(DistError::RetriesExhausted { step, attempts: attempt + 1 });
                    }
                    self.stats.timeouts += 1;
                    self.stats.retries += 1;
                    std::thread::sleep(self.cfg.backoff_for(attempt - 1));
                    self.write_data_frame(seq, payload)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Receive the next in-order DATA payload, acknowledging it.
    /// Checksum-mismatched frames are `NACK`ed (the sender resends),
    /// duplicates are re-ACKed and dropped.
    ///
    /// The receive deadline spans the sender's whole retry budget
    /// (`(max_retries + 1) x timeout`): a frame lost on the wire only
    /// reaches us via a timeout-triggered resend, which lands *after* a
    /// single hop timeout has expired on our side.
    ///
    /// # Errors
    ///
    /// [`DistError::Timeout`] when no clean frame arrives within the
    /// sender's full retry window, or an I/O error when the peer is gone.
    pub fn recv_data(&mut self) -> Result<Vec<u8>, DistError> {
        let mut waits: u32 = 0;
        loop {
            let f = match read_frame(&mut self.stream) {
                Ok(f) => f,
                Err(DistError::Timeout { .. }) if waits < self.cfg.max_retries => {
                    waits += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            if f.tag != TAG_DATA {
                return Err(DistError::Protocol(format!(
                    "unexpected frame tag {} while awaiting data",
                    f.tag
                )));
            }
            if f.seq < self.next_recv_seq {
                // Duplicate of an already-delivered frame: its ACK was
                // lost or late. Re-ACK so the sender can move on — before
                // the checksum check, so a *corrupted* duplicate is
                // re-ACKed rather than NACKed (the clean copy was already
                // delivered; a NACK would demand a pointless resend).
                self.stats.duplicates += 1;
                write_frame(&mut self.stream, TAG_ACK, f.seq, 0, &[])?;
                continue;
            }
            if checksum64(&f.payload) != f.crc {
                self.stats.corrupt_frames += 1;
                write_frame(&mut self.stream, TAG_NACK, f.seq, 0, &[])?;
                continue;
            }
            if f.seq > self.next_recv_seq {
                return Err(DistError::Protocol(format!(
                    "sequence gap: got {} expected {}",
                    f.seq, self.next_recv_seq
                )));
            }
            self.next_recv_seq += 1;
            write_frame(&mut self.stream, TAG_ACK, f.seq, 0, &[])?;
            return Ok(f.payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_tensor::bucket::{decode_f32s, encode_f32s};
    use proptest::collection;
    use proptest::prelude::*;
    use std::net::TcpListener;
    use std::thread;

    fn pair(cfg: RingConfig) -> (FrameConn, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (server, _) = listener.accept().expect("accept");
        let client = client.join().expect("join");
        (
            FrameConn::new(server, cfg).expect("server conn"),
            FrameConn::new(client, cfg).expect("client conn"),
        )
    }

    fn fast_cfg() -> RingConfig {
        RingConfig {
            timeout: Duration::from_millis(300),
            max_retries: 3,
            backoff: Duration::from_millis(5),
            ..RingConfig::default()
        }
    }

    /// Drive one reliable exchange: `a` sends `payload` to `b`, `b`
    /// receives (on its own thread, so ACKs flow while `a` waits).
    fn exchange(a: &mut FrameConn, b: &mut FrameConn, payload: &[u8]) -> Vec<u8> {
        let seq = a.send_data(payload).expect("send");
        thread::scope(|s| {
            let receiver = s.spawn(|| b.recv_data().expect("recv"));
            a.await_ack(seq, payload, 0).expect("ack");
            receiver.join().expect("join")
        })
    }

    #[test]
    fn clean_frames_roundtrip() {
        let (mut a, mut b) = pair(fast_cfg());
        let got = exchange(&mut a, &mut b, b"hello ring");
        assert_eq!(got, b"hello ring");
        assert_eq!(a.stats.retries, 0);
        assert_eq!(b.stats.corrupt_frames, 0);
        // Sequences advance.
        let got = exchange(&mut a, &mut b, b"second");
        assert_eq!(got, b"second");
        assert_eq!(a.stats.frames_sent, 2);
    }

    #[test]
    fn dropped_write_is_retransmitted() {
        let (mut a, mut b) = pair(fast_cfg());
        a.faults.drop_sends = 1;
        let got = exchange(&mut a, &mut b, b"survives a loss");
        assert_eq!(got, b"survives a loss");
        assert!(a.stats.retries >= 1, "loss must be repaired by a resend");
        assert!(a.stats.timeouts >= 1, "the repair is timeout-triggered");
    }

    #[test]
    fn corrupted_write_is_nacked_and_resent() {
        let (mut a, mut b) = pair(fast_cfg());
        a.faults.corrupt_sends = 1;
        let got = exchange(&mut a, &mut b, b"bitflip on the wire");
        assert_eq!(got, b"bitflip on the wire");
        assert!(a.stats.retries >= 1);
        assert_eq!(b.stats.corrupt_frames, 1, "receiver must detect the flip");
    }

    #[test]
    fn delayed_write_still_arrives() {
        let (mut a, mut b) = pair(fast_cfg());
        a.faults.delay_send_micros = 20_000;
        let got = exchange(&mut a, &mut b, b"slow but sure");
        assert_eq!(got, b"slow but sure");
    }

    #[test]
    fn persistent_loss_exhausts_the_retry_budget() {
        let (mut a, b) = pair(fast_cfg());
        // Drop every attempt: initial + all retries.
        a.faults.drop_sends = 10;
        let payload = b"never arrives";
        let seq = a.send_data(payload).expect("send");
        let err = a.await_ack(seq, payload, 7).expect_err("must exhaust");
        assert!(matches!(err, DistError::RetriesExhausted { step: 7, .. }), "{err}");
        drop(b);
    }

    #[test]
    fn dead_peer_is_an_io_error_not_a_hang() {
        let (mut a, b) = pair(fast_cfg());
        drop(b);
        let start = std::time::Instant::now();
        let err = a.recv_data().expect_err("peer is gone");
        assert!(matches!(err, DistError::Io(_)), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Any byte stream decodes into a frame or a structured error.
        /// Half the inputs carry a small length prefix so the payload
        /// path is reached, not only the header checks.
        #[test]
        fn read_frame_never_panics(
            mut bytes in collection::vec(0u8..=255, 0..96),
            small_len in 0u32..64,
            framed in 0u8..2,
        ) {
            if framed == 1 {
                let n = bytes.len().min(4);
                bytes.splice(0..n, small_len.to_le_bytes());
            }
            if let Ok(frame) = read_frame(&mut bytes.as_slice()) {
                let advertised = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
                prop_assert_eq!(frame.payload.len(), advertised as usize);
            }
        }

        /// Hop payloads decode into f32s or a structured error, and a
        /// successful decode round-trips bit for bit.
        #[test]
        fn decode_f32s_never_panics(bytes in collection::vec(0u8..=255, 0..64)) {
            match decode_f32s(&bytes) {
                Ok(values) => prop_assert_eq!(encode_f32s(&values), bytes),
                Err(_) => prop_assert!(bytes.len() % 4 != 0),
            }
        }
    }
}
