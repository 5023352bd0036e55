//! Versioned binary checkpoint format for the full training state.
//!
//! A checkpoint captures everything a bit-exact resume needs: model
//! weights (with their logical dtypes), optimizer moments and f32 master
//! weights, the loss scaler's adaptive state, and every step counter. The
//! format is deliberately simple — a magic tag, a version, then
//! length-prefixed little-endian records — because the suite vendors no
//! serialization framework and the format must stay auditable.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "BSCK" | version:u32 | bert_step,micro_steps,updates,skipped,retries:u64 x5
//! scaler: scale:f32 clean_steps:u32 overflows:u64
//! params: count:u32, then per param:
//!   name:(u32 len + utf8) dims:(u32 count + u64 each) dtype:u8 data:(u64 len + f32 each)
//! optimizer: step:u64 count:u32, then per slot:
//!   name:(u32 len + utf8) m,v,master:(u64 len + f32 each) x3
//! ```

use crate::error::TrainError;
use crate::optim::{OptimizerState, SlotState};
use crate::scaler::ScalerState;
use bertscope_tensor::DType;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic identifying a bertscope checkpoint.
pub const MAGIC: [u8; 4] = *b"BSCK";
/// Current format version.
pub const VERSION: u32 = 1;

/// One serialized parameter tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamRecord {
    /// Canonical parameter name.
    pub name: String,
    /// Tensor shape.
    pub dims: Vec<usize>,
    /// Logical dtype (values are stored as the quantized f32 they hold in
    /// memory, so the roundtrip is bit-exact).
    pub dtype: DType,
    /// Flattened row-major values.
    pub data: Vec<f32>,
}

/// The complete training state of one (trainer, model) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// The model's step counter (seeds per-step dropout).
    pub bert_step: u64,
    /// Micro-step attempts executed.
    pub micro_steps: u64,
    /// Optimizer updates applied.
    pub updates: u64,
    /// Overflow-skipped windows.
    pub skipped_updates: u64,
    /// Micro-batch retries performed.
    pub retries: u64,
    /// Loss-scaler adaptive state.
    pub scaler: ScalerState,
    /// Every parameter tensor, in canonical inventory order.
    pub params: Vec<ParamRecord>,
    /// Optimizer moments and master weights.
    pub optimizer: OptimizerState,
}

impl TrainCheckpoint {
    /// Serialize to any writer with a single `write_all` of
    /// [`to_bytes`](TrainCheckpoint::to_bytes).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&self.to_bytes())
    }

    /// Deserialize from any reader, validating magic and version.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Checkpoint`] on I/O failure, a bad magic tag,
    /// an unsupported version, or malformed records.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Self, TrainError> {
        let mut magic = [0u8; 4];
        read_exact(r, &mut magic)?;
        if magic != MAGIC {
            return Err(TrainError::Checkpoint(format!(
                "bad magic {magic:?}: not a bertscope checkpoint"
            )));
        }
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(TrainError::Checkpoint(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        let bert_step = read_u64(r)?;
        let micro_steps = read_u64(r)?;
        let updates = read_u64(r)?;
        let skipped_updates = read_u64(r)?;
        let retries = read_u64(r)?;
        let scaler =
            ScalerState { scale: read_f32(r)?, clean_steps: read_u32(r)?, overflows: read_u64(r)? };
        let n_params = read_u32(r)? as usize;
        let mut params = Vec::with_capacity(n_params.min(1 << 16));
        for _ in 0..n_params {
            let name = read_str(r)?;
            let n_dims = read_u32(r)? as usize;
            let mut dims = Vec::with_capacity(n_dims.min(16));
            for _ in 0..n_dims {
                dims.push(read_u64(r)? as usize);
            }
            let mut tag = [0u8; 1];
            read_exact(r, &mut tag)?;
            let dtype = dtype_from_tag(tag[0])?;
            let data = read_f32s(r)?;
            params.push(ParamRecord { name, dims, dtype, data });
        }
        let step = read_u64(r)?;
        let n_slots = read_u32(r)? as usize;
        let mut slots = Vec::with_capacity(n_slots.min(1 << 16));
        for _ in 0..n_slots {
            let name = read_str(r)?;
            let m = read_f32s(r)?;
            let v = read_f32s(r)?;
            let master = read_f32s(r)?;
            slots.push(SlotState { name, m, v, master });
        }
        Ok(TrainCheckpoint {
            bert_step,
            micro_steps,
            updates,
            skipped_updates,
            retries,
            scaler,
            params,
            optimizer: OptimizerState { step, slots },
        })
    }

    /// Serialize to a fresh byte buffer, sized up front to the exact
    /// encoded length.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        for v in
            [self.bert_step, self.micro_steps, self.updates, self.skipped_updates, self.retries]
        {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&self.scaler.scale.to_le_bytes());
        buf.extend_from_slice(&self.scaler.clean_steps.to_le_bytes());
        buf.extend_from_slice(&self.scaler.overflows.to_le_bytes());
        buf.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        for p in &self.params {
            put_str(&mut buf, &p.name);
            buf.extend_from_slice(&(p.dims.len() as u32).to_le_bytes());
            for &d in &p.dims {
                buf.extend_from_slice(&(d as u64).to_le_bytes());
            }
            buf.push(dtype_tag(p.dtype));
            put_f32s(&mut buf, &p.data);
        }
        buf.extend_from_slice(&self.optimizer.step.to_le_bytes());
        buf.extend_from_slice(&(self.optimizer.slots.len() as u32).to_le_bytes());
        for s in &self.optimizer.slots {
            put_str(&mut buf, &s.name);
            put_f32s(&mut buf, &s.m);
            put_f32s(&mut buf, &s.v);
            put_f32s(&mut buf, &s.master);
        }
        debug_assert_eq!(buf.len(), len, "encoded_len disagrees with the encoder");
        buf
    }

    /// The exact byte length [`to_bytes`](TrainCheckpoint::to_bytes)
    /// produces.
    fn encoded_len(&self) -> usize {
        let str_len = |s: &str| 4 + s.len();
        let f32s_len = |d: &[f32]| 8 + 4 * d.len();
        let params: usize = self
            .params
            .iter()
            .map(|p| str_len(&p.name) + 4 + 8 * p.dims.len() + 1 + f32s_len(&p.data))
            .sum();
        let slots: usize = self
            .optimizer
            .slots
            .iter()
            .map(|s| str_len(&s.name) + f32s_len(&s.m) + f32s_len(&s.v) + f32s_len(&s.master))
            .sum();
        // Magic, version, five counters, scaler state and the param count;
        // then the optimizer step and slot count.
        4 + 4 + 5 * 8 + (4 + 4 + 8) + 4 + params + 8 + 4 + slots
    }

    /// Write the checkpoint to `path` atomically: one `write_all` of the
    /// encoded bytes (see [`write_to`](TrainCheckpoint::write_to)) into a
    /// fresh temp file beside `path`, then a rename over `path`. A process
    /// that dies mid-save leaves the previous checkpoint intact; readers
    /// see the old file or the new one, never a truncated one. Nothing is
    /// fsynced, so a power loss is not covered.
    ///
    /// The temp name is unique per call, not just per path: two savers in
    /// one process (say, a dying worker incarnation and its replacement
    /// reaching the same update) must not rename each other's half-written
    /// file away. Concurrent savers of one path race only on the rename,
    /// and last-writer-wins is safe when they save the same state.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Checkpoint`] on any I/O failure; the temp file
    /// is removed on the way out.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), TrainError> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = path.as_ref();
        let Some(name) = path.file_name() else {
            return Err(TrainError::Checkpoint(format!("save: {} names no file", path.display())));
        };
        let tmp = path.with_file_name(format!(
            ".{}.{}.{}.tmp",
            name.to_string_lossy(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let saved = std::fs::File::create(&tmp)
            .map_err(|e| TrainError::Checkpoint(format!("create: {e}")))
            .and_then(|mut f| {
                self.write_to(&mut f).map_err(|e| TrainError::Checkpoint(format!("write: {e}")))
            })
            .and_then(|()| {
                std::fs::rename(&tmp, path)
                    .map_err(|e| TrainError::Checkpoint(format!("rename: {e}")))
            });
        if saved.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        saved
    }

    /// Read a checkpoint back from a file.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Checkpoint`] on I/O failure or a malformed
    /// file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, TrainError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| TrainError::Checkpoint(format!("read: {e}")))?;
        Self::read_from(&mut bytes.as_slice())
    }
}

fn dtype_tag(dt: DType) -> u8 {
    match dt {
        DType::F32 => 0,
        DType::F16 => 1,
        DType::BF16 => 2,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DType, TrainError> {
    match tag {
        0 => Ok(DType::F32),
        1 => Ok(DType::F16),
        2 => Ok(DType::BF16),
        other => Err(TrainError::Checkpoint(format!("unknown dtype tag {other}"))),
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, data: &[f32]) {
    buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for &x in data {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), TrainError> {
    r.read_exact(buf).map_err(|e| TrainError::Checkpoint(format!("truncated checkpoint: {e}")))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, TrainError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, TrainError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f32<R: Read>(r: &mut R) -> Result<f32, TrainError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn read_str<R: Read>(r: &mut R) -> Result<String, TrainError> {
    let len = read_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(TrainError::Checkpoint(format!("implausible string length {len}")));
    }
    let mut b = vec![0u8; len];
    read_exact(r, &mut b)?;
    String::from_utf8(b).map_err(|e| TrainError::Checkpoint(format!("non-utf8 name: {e}")))
}

fn read_f32s<R: Read>(r: &mut R) -> Result<Vec<f32>, TrainError> {
    let len = read_u64(r)?;
    if len > 1 << 32 {
        return Err(TrainError::Checkpoint(format!("implausible tensor length {len}")));
    }
    // Grow with the payload actually present: a corrupt length prefix must
    // not allocate its claimed size before a single value has been read.
    let want = len * 4;
    let mut bytes = Vec::with_capacity(want.min(1 << 20) as usize);
    r.take(want)
        .read_to_end(&mut bytes)
        .map_err(|e| TrainError::Checkpoint(format!("truncated checkpoint: {e}")))?;
    if bytes.len() as u64 != want {
        return Err(TrainError::Checkpoint(format!(
            "truncated checkpoint: tensor payload has {} of {want} bytes",
            bytes.len()
        )));
    }
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> TrainCheckpoint {
        TrainCheckpoint {
            bert_step: 12,
            micro_steps: 24,
            updates: 11,
            skipped_updates: 1,
            retries: 2,
            scaler: ScalerState { scale: 512.0, clean_steps: 3, overflows: 1 },
            params: vec![
                ParamRecord {
                    name: "l0.fc1.weight".into(),
                    dims: vec![4, 2],
                    dtype: DType::F16,
                    data: vec![1.0, -2.5, 0.0, 3.25, -0.125, 7.0, 0.5, -1.0],
                },
                ParamRecord {
                    name: "mlm.decoder.bias".into(),
                    dims: vec![3],
                    dtype: DType::F32,
                    data: vec![0.1, 0.2, 0.3],
                },
            ],
            optimizer: OptimizerState {
                step: 11,
                slots: vec![SlotState {
                    name: "l0.fc1.weight".into(),
                    m: vec![0.5; 8],
                    v: vec![0.25; 8],
                    master: vec![1.0; 8],
                }],
            },
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ckpt = fixture();
        let bytes = ckpt.to_bytes();
        let back = TrainCheckpoint::read_from(&mut bytes.as_slice()).expect("read");
        assert_eq!(ckpt, back);
        assert_eq!(&bytes[..4], b"BSCK");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = fixture().to_bytes();
        bytes[0] = b'X';
        let err = TrainCheckpoint::read_from(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = fixture().to_bytes();
        bytes[4] = 99;
        let err = TrainCheckpoint::read_from(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = fixture().to_bytes();
        let err = TrainCheckpoint::read_from(&mut bytes[..bytes.len() / 2].as_ref()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn huge_tensor_length_is_rejected_without_allocating_it() {
        // Magic, version, counters and scaler state: the first 64 bytes.
        let mut bytes = fixture().to_bytes()[..64].to_vec();
        bytes.extend(1u32.to_le_bytes()); // one parameter record,
        bytes.extend(1u32.to_le_bytes()); // named "w",
        bytes.push(b'w');
        bytes.extend(0u32.to_le_bytes()); // with no dims,
        bytes.push(0); // f32,
        bytes.extend((1u64 << 32).to_le_bytes()); // claiming 2^32 values, then ending.
        assert_eq!(bytes.len(), 86);
        let err = TrainCheckpoint::read_from(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, TrainError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("bertscope-ckpt-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("roundtrip.bsck");
        let ckpt = fixture();
        ckpt.save(&path).expect("save");
        assert_eq!(std::fs::read(&path).expect("read back"), ckpt.to_bytes());
        let back = TrainCheckpoint::load(&path).expect("load");
        assert_eq!(ckpt, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saving_over_a_checkpoint_replaces_it_and_leaves_no_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("bertscope-ckpt-overwrite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("step.bsck");
        let first = fixture();
        let mut second = fixture();
        second.updates += 1;
        second.params[0].data[0] = -0.0;
        for ckpt in [&first, &second] {
            ckpt.save(&path).expect("save");
            assert_eq!(std::fs::read(&path).expect("read back"), ckpt.to_bytes());
            assert_eq!(&TrainCheckpoint::load(&path).expect("load"), ckpt);
        }
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert_eq!(names, ["step.bsck"], "a save left a temp file behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `Write` that counts the calls made on it.
    #[derive(Default)]
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_calls_scale_with_records_not_values() {
        let mut ckpt = fixture();
        ckpt.params.push(ParamRecord {
            name: "emb.word.weight".into(),
            dims: vec![100, 100],
            dtype: DType::F32,
            data: (0..10_000).map(|i| i as f32 * 0.5).collect(),
        });
        let mut w = CountingWriter::default();
        ckpt.write_to(&mut w).expect("write");
        assert!(w.calls < 100, "{} writer calls for a 10,000-value tensor", w.calls);
        assert_eq!(w.bytes, ckpt.to_bytes());
    }

    mod fuzz {
        use super::*;
        use proptest::collection;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// Checkpoint files are outside bytes: any input decodes or
            /// returns a structured error, never a panic or an abort. The
            /// inputs are raw noise, noise behind a valid header, and valid
            /// checkpoints cut short or with bytes flipped. A successful
            /// decode re-encodes to the bytes it consumed.
            #[test]
            fn checkpoint_bytes_never_panic(
                noise in collection::vec(0u8..=255, 0..160),
                cut in 0usize..4096,
                flips in collection::vec((0usize..4096, 1u8..=255), 1..4),
                mode in 0u8..4,
            ) {
                let valid = fixture().to_bytes();
                let bytes = match mode {
                    0 => noise,
                    1 => valid[..8].iter().copied().chain(noise).collect(),
                    2 => valid[..cut % (valid.len() + 1)].to_vec(),
                    _ => {
                        let mut b = valid;
                        let n = b.len();
                        for (at, x) in flips {
                            b[at % n] ^= x;
                        }
                        b
                    }
                };
                if let Ok(ckpt) = TrainCheckpoint::read_from(&mut bytes.as_slice()) {
                    prop_assert!(bytes.starts_with(&ckpt.to_bytes()));
                }
            }
        }
    }
}
