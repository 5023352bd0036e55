//! Blocked general matrix multiplication (GEMM) and batched GEMM.
//!
//! These are the substrate for every linear, attention and fully-connected
//! layer in BERT. The inner loop is a register-blocked [`MR`]`x`[`NR`]
//! microkernel over packed operand panels — AVX2+FMA `core::arch`
//! intrinsics on `x86_64` hosts that support them, with a portable
//! unrolled-array fallback selected once at runtime. Half-precision
//! operands are packed as raw f16/bf16 bit panels (half the panel traffic)
//! and widened lane-wise inside the microkernel.
//!
//! Accumulation is always performed in `f32` (matching the behaviour of GPU
//! matrix cores, which accumulate half-precision products in single
//! precision) over the full contraction depth in strictly ascending `k`
//! order for every output element, on both the serial and the pooled path.
//! Each output element is one fused-multiply-add chain from +0.0,
//! `acc = (alpha * a).mul_add(b, acc)`, followed by `out + acc` onto the
//! zeroed or `beta`-scaled output and the epilogue's rounding chain; tile
//! shape, packing, chunking and the thread count never enter the
//! arithmetic, so results are bit-identical at any thread count and on any
//! host. The result is quantized to the left operand's logical
//! [`DType`](crate::DType) at tile writeback, where a fused
//! [`GemmEpilogue`] (bias / residual / scale+mask, plus the bias+GeLU pair
//! of [`gemm_bias_gelu`]) is applied while the tile is still cache-hot.

use crate::alloc::Buffer;
use crate::dtype::{bf16_bits_to_f32, f32_to_bf16_bits, f32_to_f16_bits, DType};
use crate::error::TensorError;
use crate::mathfn::gelu_scalar;
use crate::pool;
use crate::tensor::Tensor;
use crate::Result;
use std::ops::Range;

/// Whether an operand is transposed, i.e. the `transA`/`transB` flags of the
/// classic BLAS interface. The paper labels its GEMMs `(transposeA,
/// transposeB, M, N, K, [batch])` in Fig. 6; this type carries those flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transpose {
    /// Use the operand as stored.
    #[default]
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Transpose {
    /// Short BLAS-style letter (`n` or `t`), used in trace labels.
    #[must_use]
    pub const fn letter(self) -> char {
        match self {
            Transpose::No => 'n',
            Transpose::Yes => 't',
        }
    }
}

/// Register-tile rows of the microkernel (one accumulator vector per row).
const MR: usize = 8;
/// Register-tile columns of the microkernel (one 8-lane f32 vector).
const NR: usize = 8;
/// Work threshold (in multiply-accumulates) above which rows are split
/// across the worker pool. Below it the microkernel runs inline on the
/// calling thread and pays no task-dispatch overhead.
const PARALLEL_THRESHOLD: usize = 1 << 21;
/// Target multiply-accumulates per pool task. The row grain derived from
/// this depends only on the problem shape — never on the thread count — so
/// chunk boundaries (and therefore results) are identical at any pool size.
const GRAIN_MACS: usize = 1 << 22;
/// Batch count at or above which `batched_gemm` parallelizes across whole
/// slices only (one task per slice) instead of also splitting rows.
const BATCH_SLICE_PARALLEL: usize = 8;

/// Rows per pool task for an `m x n x k` GEMM, derived only from the shape
/// and rounded up to a whole number of [`MR`]-row panels so every task owns
/// complete register tiles.
fn row_grain(m: usize, n: usize, k: usize) -> usize {
    let g = (GRAIN_MACS / (n * k).max(1)).clamp(1, m.max(1));
    g.div_ceil(MR) * MR
}

/// An elementwise tail fused into the GEMM's tile writeback, applied while
/// each output tile is still register/cache resident instead of as separate
/// memory-bound kernels afterwards.
///
/// The fused arithmetic rounds through the output dtype between steps in
/// exactly the order the unfused kernel sequence would (`quantize(gemm)`,
/// then `quantize(+bias)`, ...), so a fused path is *bit-identical* to its
/// unfused equivalent — fusion changes kernel counts and bytes moved, never
/// numerics. The bias+GeLU epilogue is exposed separately as
/// [`gemm_bias_gelu`] because it produces two outputs (backward needs the
/// pre-activation).
#[derive(Debug, Clone, Copy, Default)]
pub enum GemmEpilogue<'e> {
    /// Plain GEMM.
    #[default]
    None,
    /// `out[i][j] += bias[j]` — bias over the output columns.
    Bias(&'e [f32]),
    /// `out += bias`, then `out += residual` (the residual-add that feeds
    /// LayerNorm). `residual` is the full `m x n` output-shaped tensor.
    BiasResidual {
        /// Per-column bias, length `n`.
        bias: &'e [f32],
        /// Output-shaped residual input, length `m * n`.
        residual: &'e [f32],
    },
    /// `out *= scale` (attention-score scaling by `1/sqrt(d_h)`).
    Scale(f32),
    /// `out = out * scale + mask` — the fused scale+mask pair feeding the
    /// attention softmax. `mask` covers the full (batched) output,
    /// `batch * m * n` elements.
    ScaleMask {
        /// Score scale factor.
        scale: f32,
        /// Additive mask, length `batch * m * n`.
        mask: &'e [f32],
    },
}

/// Internal per-slice epilogue view: like [`GemmEpilogue`] but validated,
/// sliced to one batch slice, and including the dual-output bias+GeLU.
#[derive(Clone, Copy)]
enum EpView<'e> {
    None,
    Bias(&'e [f32]),
    BiasGelu(&'e [f32]),
    BiasResidual { bias: &'e [f32], residual: &'e [f32] },
    Scale(f32),
    ScaleMask { scale: f32, mask: &'e [f32] },
}

impl<'e> GemmEpilogue<'e> {
    /// Validate operand lengths against the output shape and build the
    /// executable view for batch slice 0.
    fn validate(&self, m: usize, n: usize, batch: usize) -> Result<EpView<'e>> {
        let check = |name: &str, len: usize, want: usize| -> Result<()> {
            if len == want {
                Ok(())
            } else {
                Err(TensorError::InvalidArgument(format!(
                    "gemm epilogue {name} has {len} elements, output needs {want}"
                )))
            }
        };
        Ok(match *self {
            GemmEpilogue::None => EpView::None,
            GemmEpilogue::Bias(b) => {
                check("bias", b.len(), n)?;
                EpView::Bias(b)
            }
            GemmEpilogue::BiasResidual { bias, residual } => {
                check("bias", bias.len(), n)?;
                check("residual", residual.len(), batch * m * n)?;
                EpView::BiasResidual { bias, residual }
            }
            GemmEpilogue::Scale(s) => EpView::Scale(s),
            GemmEpilogue::ScaleMask { scale, mask } => {
                check("mask", mask.len(), batch * m * n)?;
                EpView::ScaleMask { scale, mask }
            }
        })
    }
}

impl<'e> EpView<'e> {
    /// The view for batch slice `i`: output-shaped operands (residual,
    /// mask) are narrowed to the slice; broadcast operands are shared.
    fn slice(self, i: usize, m: usize, n: usize) -> EpView<'e> {
        let span = m * n;
        match self {
            EpView::BiasResidual { bias, residual } => {
                EpView::BiasResidual { bias, residual: &residual[i * span..(i + 1) * span] }
            }
            EpView::ScaleMask { scale, mask } => {
                EpView::ScaleMask { scale, mask: &mask[i * span..(i + 1) * span] }
            }
            other => other,
        }
    }
}

/// The element encoding of a packed panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PanelKind {
    /// One f32 per element.
    F32,
    /// Raw IEEE f16 bits, two per f32 storage slot.
    F16,
    /// Raw bfloat16 bits, two per f32 storage slot.
    Bf16,
}

impl PanelKind {
    /// Half-bit panels are used only when *both* operands share the same
    /// half dtype; mixed-precision operand pairs fall back to f32 panels so
    /// packing never rounds an operand below its own precision.
    fn for_operands(a: DType, b: DType) -> PanelKind {
        match (a, b) {
            (DType::F16, DType::F16) => PanelKind::F16,
            (DType::BF16, DType::BF16) => PanelKind::Bf16,
            _ => PanelKind::F32,
        }
    }

    /// f32 storage slots per panel of depth `k`.
    fn panel_slots(self, k: usize) -> usize {
        match self {
            PanelKind::F32 => k * MR,
            PanelKind::F16 | PanelKind::Bf16 => k * MR / 2,
        }
    }
}

// A and B panels share one layout (and one packer): 8 lanes per depth step.
const _: () = assert!(MR == NR);

/// A packed operand: [`MR`]-row (A) or [`NR`]-column (B) panels, k-major
/// within each panel, zero-padded at ragged edges. Half-precision panels
/// store raw 16-bit patterns, two per f32 slot, and are widened lane-wise
/// inside the microkernel. An A pack holds only the panels of the row chunk
/// that uses it.
struct PanelBuf {
    buf: Buffer,
    k: usize,
    kind: PanelKind,
    /// The panels held, by operand-wide panel index.
    panels: Range<usize>,
}

impl PanelBuf {
    /// Pack panels `panels` of an operand whose element at (`lane`, `kk`)
    /// is `get(lane, kk)`; a lane is a row of A or a column of B, and
    /// `get` returns 0 for lanes past the operand's edge.
    fn pack(
        kind: PanelKind,
        k: usize,
        panels: Range<usize>,
        get: impl Fn(usize, usize) -> f32,
    ) -> PanelBuf {
        let slots = kind.panel_slots(k);
        let mut buf = Buffer::zeroed(panels.len() * slots);
        for (i, p) in panels.clone().enumerate() {
            let dst = &mut buf[i * slots..(i + 1) * slots];
            let lane0 = p * MR;
            match kind {
                PanelKind::F32 => {
                    for kk in 0..k {
                        for l in 0..MR {
                            dst[kk * MR + l] = get(lane0 + l, kk);
                        }
                    }
                }
                PanelKind::F16 | PanelKind::Bf16 => {
                    for kk in 0..k {
                        for s in 0..MR / 2 {
                            let lo = half_bits(kind, get(lane0 + 2 * s, kk));
                            let hi = half_bits(kind, get(lane0 + 2 * s + 1, kk));
                            dst[kk * MR / 2 + s] =
                                f32::from_bits(u32::from(lo) | (u32::from(hi) << 16));
                        }
                    }
                }
            }
        }
        PanelBuf { buf, k, kind, panels }
    }

    fn panel(&self, p: usize) -> &[f32] {
        let w = self.kind.panel_slots(self.k);
        let i = p - self.panels.start;
        &self.buf[i * w..(i + 1) * w]
    }
}

/// Encode one value as the panel's 16-bit pattern.
#[inline]
fn half_bits(kind: PanelKind, v: f32) -> u16 {
    match kind {
        PanelKind::F16 => f32_to_f16_bits(v),
        PanelKind::Bf16 => f32_to_bf16_bits(v),
        PanelKind::F32 => unreachable!("f32 panels store full words"),
    }
}

/// Instruction sets the microkernel can target, detected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    Portable,
    Avx2,
    Avx2F16c,
}

fn isa() -> Isa {
    static ISA: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return if std::arch::is_x86_feature_detected!("f16c") {
                    Isa::Avx2F16c
                } else {
                    Isa::Avx2
                };
            }
        }
        Isa::Portable
    })
}

/// AVX2+FMA microkernels: one 8-lane accumulator vector per tile row,
/// broadcast-A x vector-B outer products over the full depth. Each A value
/// reaches its FMA by a broadcast load, so the loop issues one FMA per
/// accumulator and nothing else on the vector ports.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{MR, NR};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// f32 panels: `a`/`b` point at `k * 8` floats each; `a` already holds
    /// `alpha * A` (folded in at pack time).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn mk_f32(a: *const f32, b: *const f32, k: usize, acc: &mut [[f32; NR]; MR]) {
        let mut c = [_mm256_setzero_ps(); MR];
        for kk in 0..k {
            let bv = _mm256_loadu_ps(b.add(kk * NR));
            let ap = a.add(kk * MR);
            for (r, cr) in c.iter_mut().enumerate() {
                *cr = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(r)), bv, *cr);
            }
        }
        for (row, cr) in acc.iter_mut().zip(&c) {
            _mm256_storeu_ps(row.as_mut_ptr(), *cr);
        }
    }

    /// Widen 8 bf16 bit patterns (4 f32 slots) to an f32 vector: zero-extend
    /// each u16 lane and shift into the high half of the f32 word.
    #[inline]
    unsafe fn widen_bf16(p: *const f32) -> __m256 {
        let h = _mm_loadu_si128(p.cast());
        _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16))
    }

    /// bf16 panels: `a`/`b` point at `k * 4` f32 slots (two bit patterns
    /// per slot). The widened A row is scaled by `alpha` in f32 — lane for
    /// lane the product the scalar contract rounds — and each lane is
    /// broadcast from a stack copy.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn mk_bf16(
        alpha: f32,
        a: *const f32,
        b: *const f32,
        k: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        let alpha = _mm256_set1_ps(alpha);
        let mut c = [_mm256_setzero_ps(); MR];
        let mut arow = [0.0f32; MR];
        for kk in 0..k {
            let bv = widen_bf16(b.add(kk * NR / 2));
            _mm256_storeu_ps(
                arow.as_mut_ptr(),
                _mm256_mul_ps(alpha, widen_bf16(a.add(kk * MR / 2))),
            );
            for (av, cr) in arow.iter().zip(c.iter_mut()) {
                *cr = _mm256_fmadd_ps(_mm256_broadcast_ss(av), bv, *cr);
            }
        }
        for (row, cr) in acc.iter_mut().zip(&c) {
            _mm256_storeu_ps(row.as_mut_ptr(), *cr);
        }
    }

    /// f16 panels, as [`mk_bf16`] (requires F16C for the 8-lane
    /// half-to-single convert).
    #[target_feature(enable = "avx2,fma,f16c")]
    pub unsafe fn mk_f16(
        alpha: f32,
        a: *const f32,
        b: *const f32,
        k: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        let alpha = _mm256_set1_ps(alpha);
        let mut c = [_mm256_setzero_ps(); MR];
        let mut arow = [0.0f32; MR];
        for kk in 0..k {
            let bv = _mm256_cvtph_ps(_mm_loadu_si128(b.add(kk * NR / 2).cast()));
            let av8 = _mm256_cvtph_ps(_mm_loadu_si128(a.add(kk * MR / 2).cast()));
            _mm256_storeu_ps(arow.as_mut_ptr(), _mm256_mul_ps(alpha, av8));
            for (av, cr) in arow.iter().zip(c.iter_mut()) {
                *cr = _mm256_fmadd_ps(_mm256_broadcast_ss(av), bv, *cr);
            }
        }
        for (row, cr) in acc.iter_mut().zip(&c) {
            _mm256_storeu_ps(row.as_mut_ptr(), *cr);
        }
    }
}

/// Portable microkernel: the same outer-product loop over fixed-width
/// `[f32; 8]` arrays, one fused multiply-add per element and depth step
/// (`f32::mul_add`, a single rounding), so it produces the SIMD kernels'
/// bits on any host. Hosts without a hardware FMA pay a libm `fmaf` call
/// per multiply-accumulate.
mod portable {
    use super::{bf16_bits_to_f32, PanelKind, MR, NR};
    use crate::dtype::f16_bits_to_f32;

    /// Decode the 8 panel values at depth `kk`.
    #[inline]
    fn load8(panel: &[f32], kk: usize, kind: PanelKind) -> [f32; 8] {
        match kind {
            PanelKind::F32 => panel[kk * 8..kk * 8 + 8].try_into().expect("panel width"),
            PanelKind::F16 | PanelKind::Bf16 => {
                let mut out = [0.0f32; 8];
                for s in 0..4 {
                    let bits = panel[kk * 4 + s].to_bits();
                    let (lo, hi) = ((bits & 0xFFFF) as u16, (bits >> 16) as u16);
                    let (lo, hi) = if kind == PanelKind::F16 {
                        (f16_bits_to_f32(lo), f16_bits_to_f32(hi))
                    } else {
                        (bf16_bits_to_f32(lo), bf16_bits_to_f32(hi))
                    };
                    out[2 * s] = lo;
                    out[2 * s + 1] = hi;
                }
                out
            }
        }
    }

    /// `alpha` scales half A panels; f32 A panels already hold it.
    pub fn mk(
        kind: PanelKind,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        k: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        let mut c = [[0.0f32; NR]; MR];
        for kk in 0..k {
            let b8 = load8(b, kk, kind);
            let mut a8 = load8(a, kk, kind);
            if kind != PanelKind::F32 {
                for av in &mut a8 {
                    *av *= alpha;
                }
            }
            for (cr, &av) in c.iter_mut().zip(&a8) {
                for (x, &bv) in cr.iter_mut().zip(&b8) {
                    *x = av.mul_add(bv, *x);
                }
            }
        }
        *acc = c;
    }
}

/// Compute one full-depth [`MR`]`x`[`NR`] register tile into `acc`,
/// dispatching to the best microkernel for this host and panel encoding.
/// `alpha` scales half A panels inside the kernel; f32 A panels carry it
/// from [`Slice::pack_a`].
#[inline]
fn micro_tile(
    kind: PanelKind,
    alpha: f32,
    apan: &[f32],
    bpan: &[f32],
    k: usize,
    acc: &mut [[f32; NR]; MR],
) {
    #[cfg(target_arch = "x86_64")]
    {
        let is = isa();
        // SAFETY: the target features were verified by `isa()` at runtime,
        // and each panel slice holds exactly `panel_slots(k)` f32 words, so
        // every `kk`-indexed load below stays in bounds.
        #[allow(unsafe_code)]
        match kind {
            PanelKind::F32 if is >= Isa::Avx2 => {
                unsafe { simd::mk_f32(apan.as_ptr(), bpan.as_ptr(), k, acc) };
                return;
            }
            PanelKind::Bf16 if is >= Isa::Avx2 => {
                unsafe { simd::mk_bf16(alpha, apan.as_ptr(), bpan.as_ptr(), k, acc) };
                return;
            }
            PanelKind::F16 if is >= Isa::Avx2F16c => {
                unsafe { simd::mk_f16(alpha, apan.as_ptr(), bpan.as_ptr(), k, acc) };
                return;
            }
            _ => {}
        }
    }
    portable::mk(kind, alpha, apan, bpan, k, acc);
}

/// Write one accumulated tile back into `out`: `out = q(out + acc)`, then
/// the epilogue's rounding chain, with `q` rounding to the output dtype.
/// The tile's first element sits at `at` in `out` and at `idx` in the
/// slice's output (the index of output-shaped epilogue operands). The
/// epilogue is matched per row, outside the element loops, so a full f32
/// tile (constant `rows`/`cols`, identity `q`) writes back in vector form.
#[inline(always)]
fn write_tile<'e>(
    ep: EpView<'e>,
    q: impl Fn(f32) -> f32,
    acc: &[[f32; NR]; MR],
    (rows, cols): (usize, usize),
    out: &mut [f32],
    mut act: Option<&mut [f32]>,
    (at, idx, j0, n): (usize, usize, usize, usize),
) {
    for (r, arow) in acc.iter().enumerate().take(rows) {
        let o = &mut out[at + r * n..at + r * n + cols];
        let a = &arow[..cols];
        let side = |s: &'e [f32]| -> &'e [f32] { &s[idx + r * n..idx + r * n + cols] };
        let cols_of = |s: &'e [f32]| -> &'e [f32] { &s[j0..j0 + cols] };
        match ep {
            EpView::None => {
                for (o, &a) in o.iter_mut().zip(a) {
                    *o = q(*o + a);
                }
            }
            EpView::Bias(bias) => {
                for ((o, &a), &b) in o.iter_mut().zip(a).zip(cols_of(bias)) {
                    *o = q(q(*o + a) + b);
                }
            }
            EpView::BiasResidual { bias, residual } => {
                let it = o.iter_mut().zip(a).zip(cols_of(bias)).zip(side(residual));
                for (((o, &a), &b), &x) in it {
                    *o = q(q(q(*o + a) + b) + x);
                }
            }
            EpView::Scale(s) => {
                for (o, &a) in o.iter_mut().zip(a) {
                    *o = q(q(*o + a) * s);
                }
            }
            EpView::ScaleMask { scale, mask } => {
                for ((o, &a), &x) in o.iter_mut().zip(a).zip(side(mask)) {
                    *o = q(q(q(*o + a) * scale) + x);
                }
            }
            EpView::BiasGelu(bias) => {
                let act = act.as_deref_mut().expect("bias+gelu needs a second output");
                let g = &mut act[at + r * n..at + r * n + cols];
                for (((o, g), &a), &b) in o.iter_mut().zip(g).zip(a).zip(cols_of(bias)) {
                    let pre = q(q(*o + a) + b);
                    *o = pre;
                    *g = q(gelu_scalar(pre));
                }
            }
        }
    }
}

/// One 2-D GEMM problem — a whole [`gemm`] call or one slice of a batched
/// call: operands, flags, shape and the writeback rule.
#[derive(Clone, Copy)]
struct Slice<'s> {
    ta: Transpose,
    tb: Transpose,
    alpha: f32,
    a: &'s [f32],
    a_stride: usize,
    b: &'s [f32],
    b_stride: usize,
    m: usize,
    n: usize,
    k: usize,
    kind: PanelKind,
    dt: DType,
    ep: EpView<'s>,
}

/// A pool task that borrows for `'t`.
type Task<'t> = Box<dyn FnOnce() + Send + 't>;

impl<'s> Slice<'s> {
    /// The problem `alpha * op(a) * op(b)` of shape `m x n x k`, written
    /// back in `a`'s dtype through `ep`. The row stride of `a`/`b` is
    /// their last dimension; batched operands start at slice 0.
    fn new(
        ta: Transpose,
        tb: Transpose,
        alpha: f32,
        a: &'s Tensor,
        b: &'s Tensor,
        (m, n, k): (usize, usize, usize),
        ep: EpView<'s>,
    ) -> Slice<'s> {
        Slice {
            ta,
            tb,
            alpha,
            a: a.as_slice(),
            a_stride: *a.dims().last().expect("gemm operands are 2-d or 3-d"),
            b: b.as_slice(),
            b_stride: *b.dims().last().expect("gemm operands are 2-d or 3-d"),
            m,
            n,
            k,
            kind: PanelKind::for_operands(a.dtype(), b.dtype()),
            dt: a.dtype(),
            ep,
        }
    }

    /// Slice `i` of a batched call: operands advance by one `[rows, cols]`
    /// matrix each, output-shaped epilogue operands by one output slice.
    fn batch_slice(self, i: usize, a_span: usize, b_span: usize) -> Slice<'s> {
        Slice {
            a: &self.a[i * a_span..(i + 1) * a_span],
            b: &self.b[i * b_span..(i + 1) * b_span],
            ep: self.ep.slice(i, self.m, self.n),
            ..self
        }
    }

    /// Pack the row panels of `op(A)` covering `rows` (a chunk starting on
    /// a panel boundary), with `alpha` folded into f32 panels: the panel
    /// holds exactly the `alpha * a` product the kernel would otherwise
    /// round per FMA. Half panels keep raw `a` — rounding `alpha * a` to
    /// half would change the bits — and are scaled in the kernel.
    fn pack_a(&self, rows: Range<usize>) -> PanelBuf {
        let Slice { ta, alpha, a, a_stride, m, .. } = *self;
        let fold = self.kind == PanelKind::F32;
        PanelBuf::pack(self.kind, self.k, rows.start / MR..rows.end.div_ceil(MR), |i, kk| {
            if i >= m {
                return 0.0;
            }
            let v = match ta {
                Transpose::No => a[i * a_stride + kk],
                Transpose::Yes => a[kk * a_stride + i],
            };
            if fold {
                alpha * v
            } else {
                v
            }
        })
    }

    /// Pack all column panels of `op(B)`.
    fn pack_b(&self) -> PanelBuf {
        let Slice { tb, b, b_stride, n, .. } = *self;
        PanelBuf::pack(self.kind, self.k, 0..n.div_ceil(NR), |j, kk| {
            if j >= n {
                return 0.0;
            }
            match tb {
                Transpose::No => b[kk * b_stride + j],
                Transpose::Yes => b[j * b_stride + kk],
            }
        })
    }

    /// Compute the output rows `[row0, row0 + out.len() / n)`: pack those
    /// rows of A, accumulate each tile over the full depth against the
    /// shared B panels, and write it back through the epilogue onto the
    /// zeroed or `beta`-preloaded `out`. `act` receives the activated
    /// second output of the bias+GeLU epilogue.
    fn rows(&self, bpan: &PanelBuf, row0: usize, out: &mut [f32], mut act: Option<&mut [f32]>) {
        debug_assert_eq!(row0 % MR, 0, "tasks own whole register-tile row panels");
        let Slice { alpha, n, k, kind, dt, ep, .. } = *self;
        let rows = out.len() / n;
        let apan = self.pack_a(row0..row0 + rows);
        let mut acc = [[0.0f32; NR]; MR];
        for p in apan.panels.clone() {
            let gr0 = p * MR;
            let tile_rows = (row0 + rows - gr0).min(MR);
            for q in bpan.panels.clone() {
                let j0 = q * NR;
                let tile_cols = (n - j0).min(NR);
                micro_tile(kind, alpha, apan.panel(p), bpan.panel(q), k, &mut acc);
                let place = ((gr0 - row0) * n + j0, gr0 * n + j0, j0, n);
                let act = act.as_deref_mut();
                if dt == DType::F32 && tile_rows == MR && tile_cols == NR {
                    write_tile(ep, |v| v, &acc, (MR, NR), out, act, place);
                } else {
                    let round = |v| dt.quantize(v);
                    write_tile(ep, round, &acc, (tile_rows, tile_cols), out, act, place);
                }
            }
        }
    }

    /// Queue one task per `grain`-row chunk of this slice's output. Each
    /// task packs its own A rows; all share the slice's packed B.
    fn push_row_tasks<'t>(
        &'t self,
        bpan: &'t PanelBuf,
        grain: usize,
        out: &'t mut [f32],
        act: Option<&'t mut [f32]>,
        tasks: &mut Vec<Task<'t>>,
    ) {
        let n = self.n;
        let mut acts = act.map(|a| a.chunks_mut(grain * n));
        for (ci, oc) in out.chunks_mut(grain * n).enumerate() {
            let ac = acts.as_mut().map(|it| it.next().expect("act is output-shaped"));
            tasks.push(Box::new(move || self.rows(bpan, ci * grain, oc, ac)));
        }
    }

    /// Run this slice into `out` (and `act`), splitting row chunks across
    /// the worker pool for large problems.
    fn run(&self, out: &mut [f32], act: Option<&mut [f32]>) {
        let bpan = self.pack_b();
        let (m, n, k) = (self.m, self.n, self.k);
        if m * n * k >= PARALLEL_THRESHOLD && m >= 2 {
            let grain = row_grain(m, n, k);
            let mut tasks = Vec::with_capacity(m.div_ceil(grain));
            self.push_row_tasks(&bpan, grain, out, act, &mut tasks);
            pool::run_tasks(tasks);
        } else {
            self.rows(&bpan, 0, out, act);
        }
    }
}

fn op_dims(rows: usize, cols: usize, t: Transpose) -> (usize, usize) {
    match t {
        Transpose::No => (rows, cols),
        Transpose::Yes => (cols, rows),
    }
}

/// Compute `alpha * op(A) * op(B) + beta * C` for 2-D tensors.
///
/// `op(A)` must be `m x k` and `op(B)` must be `k x n`. When `c` is `None`,
/// `beta` is ignored and the result is freshly allocated. The output adopts
/// `a`'s logical dtype and is quantized accordingly.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-2-D operands and
/// [`TensorError::ShapeMismatch`] when the inner or output dimensions do not
/// agree.
///
/// ```
/// use bertscope_tensor::{gemm, Tensor, Transpose};
/// # fn main() -> Result<(), bertscope_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None)?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn gemm(
    ta: Transpose,
    tb: Transpose,
    alpha: f32,
    a: &Tensor,
    b: &Tensor,
    beta: f32,
    c: Option<&Tensor>,
) -> Result<Tensor> {
    gemm_ep(ta, tb, alpha, a, b, beta, c, GemmEpilogue::None)
}

/// [`gemm`] with a fused [`GemmEpilogue`] applied to output tiles at
/// writeback, while they are still cache-hot.
///
/// # Errors
///
/// As [`gemm`], plus [`TensorError::InvalidArgument`] when an epilogue
/// operand's length does not match the output shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ep(
    ta: Transpose,
    tb: Transpose,
    alpha: f32,
    a: &Tensor,
    b: &Tensor,
    beta: f32,
    c: Option<&Tensor>,
    ep: GemmEpilogue<'_>,
) -> Result<Tensor> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "gemm requires 2-d operands, got ranks {} and {}",
            a.shape().rank(),
            b.shape().rank()
        )));
    }
    let (m, ka) = op_dims(a.dims()[0], a.dims()[1], ta);
    let (kb, n) = op_dims(b.dims()[0], b.dims()[1], tb);
    if ka != kb {
        return Err(TensorError::shape("gemm inner dimension", a.dims(), b.dims()));
    }
    let view = ep.validate(m, n, 1)?;
    let mut out = Buffer::zeroed(m * n);
    if let Some(c) = c {
        if c.dims() != [m, n] {
            return Err(TensorError::shape("gemm accumulator", &[m, n], c.dims()));
        }
        if beta != 0.0 {
            for (o, &cv) in out.iter_mut().zip(c.as_slice()) {
                *o = beta * cv;
            }
        }
    }
    let op = Slice::new(ta, tb, alpha, a, b, (m, n, ka), view);
    op.run(&mut out, None);
    let mut t = Tensor::from_buffer(out, &[m, n])?;
    t.set_dtype_raw(op.dt);
    Ok(t)
}

/// Fused `linear + GeLU`: `pre = op(A) * op(B) + bias`, `act = GeLU(pre)`,
/// both produced by one kernel launch — the activation is evaluated on each
/// output tile while it is register-resident, and the pre-activation is
/// stored too because the backward pass consumes it.
///
/// Returns `(pre, act)`, both in `a`'s logical dtype, with values
/// bit-identical to the unfused `gemm` → bias-add → `gelu` sequence.
///
/// # Errors
///
/// As [`gemm`], plus a length check on `bias` (`n` elements).
pub fn gemm_bias_gelu(
    ta: Transpose,
    tb: Transpose,
    alpha: f32,
    a: &Tensor,
    b: &Tensor,
    bias: &Tensor,
) -> Result<(Tensor, Tensor)> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "gemm requires 2-d operands, got ranks {} and {}",
            a.shape().rank(),
            b.shape().rank()
        )));
    }
    let (m, ka) = op_dims(a.dims()[0], a.dims()[1], ta);
    let (kb, n) = op_dims(b.dims()[0], b.dims()[1], tb);
    if ka != kb {
        return Err(TensorError::shape("gemm inner dimension", a.dims(), b.dims()));
    }
    if bias.numel() != n {
        return Err(TensorError::InvalidArgument(format!(
            "gemm bias+gelu epilogue: bias has {} elements, output needs {n}",
            bias.numel()
        )));
    }
    let mut pre = Buffer::zeroed(m * n);
    let mut act = Buffer::zeroed(m * n);
    let op = Slice::new(ta, tb, alpha, a, b, (m, n, ka), EpView::BiasGelu(bias.as_slice()));
    op.run(&mut pre, Some(&mut act));
    let dt = op.dt;
    let mut pre = Tensor::from_buffer(pre, &[m, n])?;
    pre.set_dtype_raw(dt);
    let mut act = Tensor::from_buffer(act, &[m, n])?;
    act.set_dtype_raw(dt);
    Ok((pre, act))
}

/// Compute a batched GEMM over 3-D tensors `[batch, rows, cols]`.
///
/// Every batch slice is multiplied independently, exactly like the
/// `B*h`-wide batched attention GEMMs of the paper (§3.2.2). The output is
/// `[batch, m, n]` in `a`'s logical dtype.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-3-D operands and
/// [`TensorError::ShapeMismatch`] when batch or inner dimensions disagree.
pub fn batched_gemm(
    ta: Transpose,
    tb: Transpose,
    alpha: f32,
    a: &Tensor,
    b: &Tensor,
) -> Result<Tensor> {
    batched_gemm_ep(ta, tb, alpha, a, b, GemmEpilogue::None)
}

/// [`batched_gemm`] with a fused [`GemmEpilogue`]. Output-shaped epilogue
/// operands (residual, mask) cover the whole `[batch, m, n]` output.
///
/// # Errors
///
/// As [`batched_gemm`], plus epilogue operand length checks.
pub fn batched_gemm_ep(
    ta: Transpose,
    tb: Transpose,
    alpha: f32,
    a: &Tensor,
    b: &Tensor,
    ep: GemmEpilogue<'_>,
) -> Result<Tensor> {
    if a.shape().rank() != 3 || b.shape().rank() != 3 {
        return Err(TensorError::InvalidArgument(format!(
            "batched_gemm requires 3-d operands, got ranks {} and {}",
            a.shape().rank(),
            b.shape().rank()
        )));
    }
    let batch = a.dims()[0];
    if b.dims()[0] != batch {
        return Err(TensorError::shape("batched_gemm batch", a.dims(), b.dims()));
    }
    let (m, ka) = op_dims(a.dims()[1], a.dims()[2], ta);
    let (kb, n) = op_dims(b.dims()[1], b.dims()[2], tb);
    if ka != kb {
        return Err(TensorError::shape("batched_gemm inner dimension", a.dims(), b.dims()));
    }
    let view = ep.validate(m, n, batch)?;
    let (a_span, b_span) = (a.dims()[1] * a.dims()[2], b.dims()[1] * b.dims()[2]);
    let mut out = Buffer::zeroed(batch * m * n);
    let whole = Slice::new(ta, tb, alpha, a, b, (m, n, ka), view);
    let slices: Vec<Slice<'_>> = (0..batch).map(|i| whole.batch_slice(i, a_span, b_span)).collect();
    let parallel = batch * m * n * ka >= PARALLEL_THRESHOLD;
    if parallel && batch >= BATCH_SLICE_PARALLEL {
        // One task per slice: this is the `B*h`-wide attention shape of
        // the paper (§3.2.2), where the batch dimension alone saturates the
        // pool.
        let tasks: Vec<Task<'_>> = slices
            .iter()
            .zip(out.chunks_mut(m * n))
            .map(|(op, chunk)| -> Task<'_> {
                Box::new(move || op.rows(&op.pack_b(), 0, chunk, None))
            })
            .collect();
        pool::run_tasks(tasks);
    } else if parallel {
        // Small batches split rows too, in one task wave over batch x row
        // chunks — a shape-only rule, so chunking (and bits) never depends
        // on the thread count. Each slice's B is packed once and shared by
        // its chunks; each chunk packs only its own A rows.
        let bpans: Vec<PanelBuf> = slices.iter().map(Slice::pack_b).collect();
        let grain = row_grain(m, n, ka);
        let mut tasks = Vec::with_capacity(batch * m.div_ceil(grain));
        for ((op, bpan), chunk) in slices.iter().zip(&bpans).zip(out.chunks_mut(m * n)) {
            op.push_row_tasks(bpan, grain, chunk, None, &mut tasks);
        }
        pool::run_tasks(tasks);
    } else {
        for (op, chunk) in slices.iter().zip(out.chunks_mut(m * n)) {
            op.run(chunk, None);
        }
    }
    let mut t = Tensor::from_buffer(out, &[batch, m, n])?;
    t.set_dtype_raw(whole.dt);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive(
        ta: Transpose,
        tb: Transpose,
        a: &Tensor,
        b: &Tensor,
        m: usize,
        n: usize,
        k: usize,
    ) -> Vec<f32> {
        let get_a = |i: usize, kk: usize| match ta {
            Transpose::No => a.as_slice()[i * a.dims()[1] + kk],
            Transpose::Yes => a.as_slice()[kk * a.dims()[1] + i],
        };
        let get_b = |kk: usize, j: usize| match tb {
            Transpose::No => b.as_slice()[kk * b.dims()[1] + j],
            Transpose::Yes => b.as_slice()[j * b.dims()[1] + kk],
        };
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for kk in 0..k {
                    acc += f64::from(get_a(i, kk)) * f64::from(get_b(kk, j));
                }
                out[i * n + j] = acc as f32;
            }
        }
        out
    }

    fn rand_tensor(rng: &mut StdRng, dims: &[usize]) -> Tensor {
        let data = (0..dims.iter().product::<usize>()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    #[test]
    fn matches_naive_for_all_transpose_combinations() {
        let mut rng = StdRng::seed_from_u64(7);
        let (m, n, k) = (13, 9, 17);
        for &ta in &[Transpose::No, Transpose::Yes] {
            for &tb in &[Transpose::No, Transpose::Yes] {
                let a_dims = if ta == Transpose::No { [m, k] } else { [k, m] };
                let b_dims = if tb == Transpose::No { [k, n] } else { [n, k] };
                let a = rand_tensor(&mut rng, &a_dims);
                let b = rand_tensor(&mut rng, &b_dims);
                let got = gemm(ta, tb, 1.0, &a, &b, 0.0, None).unwrap();
                let want = naive(ta, tb, &a, &b, m, n, k);
                for (g, w) in got.as_slice().iter().zip(&want) {
                    assert!((g - w).abs() < 1e-4, "ta={ta:?} tb={tb:?}: {g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn alpha_beta_accumulation() {
        let a = Tensor::eye(2);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = Tensor::ones(&[2, 2]);
        let out = gemm(Transpose::No, Transpose::No, 2.0, &a, &b, 3.0, Some(&c)).unwrap();
        assert_eq!(out.as_slice(), &[5.0, 7.0, 9.0, 11.0]);
    }

    #[test]
    fn rejects_dimension_mismatches() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None).is_err());
        // but transposing b fixes it: (2x3)*(3x... no, b^T is 2x4 -> still bad k
        let b2 = Tensor::zeros(&[5, 3]);
        assert!(gemm(Transpose::No, Transpose::Yes, 1.0, &a, &b2, 0.0, None).is_ok());
        let v = Tensor::zeros(&[3]);
        assert!(gemm(Transpose::No, Transpose::No, 1.0, &a, &v, 0.0, None).is_err());
        let c_bad = Tensor::zeros(&[9, 9]);
        assert!(gemm(Transpose::No, Transpose::Yes, 1.0, &a, &b2, 1.0, Some(&c_bad)).is_err());
    }

    #[test]
    fn rejects_epilogue_operand_mismatches() {
        let a = Tensor::zeros(&[4, 3]);
        let b = Tensor::zeros(&[3, 5]);
        let short = vec![0.0f32; 4];
        assert!(gemm_ep(
            Transpose::No,
            Transpose::No,
            1.0,
            &a,
            &b,
            0.0,
            None,
            GemmEpilogue::Bias(&short)
        )
        .is_err());
        let bias = vec![0.0f32; 5];
        assert!(gemm_ep(
            Transpose::No,
            Transpose::No,
            1.0,
            &a,
            &b,
            0.0,
            None,
            GemmEpilogue::BiasResidual { bias: &bias, residual: &short }
        )
        .is_err());
        let ab = Tensor::zeros(&[2, 4, 3]);
        let bb = Tensor::zeros(&[2, 3, 5]);
        assert!(batched_gemm_ep(
            Transpose::No,
            Transpose::No,
            1.0,
            &ab,
            &bb,
            GemmEpilogue::ScaleMask { scale: 1.0, mask: &bias }
        )
        .is_err());
        let bad_bias = Tensor::zeros(&[4]);
        assert!(gemm_bias_gelu(Transpose::No, Transpose::No, 1.0, &a, &b, &bad_bias).is_err());
    }

    #[test]
    fn large_gemm_uses_parallel_path_and_matches() {
        let mut rng = StdRng::seed_from_u64(11);
        let (m, n, k) = (160, 96, 150); // m*n*k > PARALLEL_THRESHOLD
        let a = rand_tensor(&mut rng, &[m, k]);
        let b = rand_tensor(&mut rng, &[k, n]);
        let got = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None).unwrap();
        let want = naive(Transpose::No, Transpose::No, &a, &b, m, n, k);
        for (g, w) in got.as_slice().iter().zip(&want) {
            assert!((g - w).abs() < 1e-3);
        }
    }

    #[test]
    fn batched_matches_per_slice_gemm() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = rand_tensor(&mut rng, &[4, 5, 6]);
        let b = rand_tensor(&mut rng, &[4, 6, 3]);
        let out = batched_gemm(Transpose::No, Transpose::No, 1.0, &a, &b).unwrap();
        assert_eq!(out.dims(), &[4, 5, 3]);
        for i in 0..4 {
            let ai =
                Tensor::from_vec(a.as_slice()[i * 30..(i + 1) * 30].to_vec(), &[5, 6]).unwrap();
            let bi =
                Tensor::from_vec(b.as_slice()[i * 18..(i + 1) * 18].to_vec(), &[6, 3]).unwrap();
            let want = gemm(Transpose::No, Transpose::No, 1.0, &ai, &bi, 0.0, None).unwrap();
            let got = &out.as_slice()[i * 15..(i + 1) * 15];
            for (g, w) in got.iter().zip(want.as_slice()) {
                assert!((g - w).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn batched_transpose_b_is_attention_score_shape() {
        // q: [B*h, n, d/h], k: [B*h, n, d/h], scores = q * k^T : [B*h, n, n]
        let mut rng = StdRng::seed_from_u64(5);
        let q = rand_tensor(&mut rng, &[2, 4, 3]);
        let kt = rand_tensor(&mut rng, &[2, 4, 3]);
        let s = batched_gemm(Transpose::No, Transpose::Yes, 1.0, &q, &kt).unwrap();
        assert_eq!(s.dims(), &[2, 4, 4]);
    }

    #[test]
    fn batched_rejects_mismatches() {
        let a = Tensor::zeros(&[2, 3, 4]);
        let b = Tensor::zeros(&[3, 4, 5]);
        assert!(batched_gemm(Transpose::No, Transpose::No, 1.0, &a, &b).is_err());
        let b2 = Tensor::zeros(&[2, 5, 5]);
        assert!(batched_gemm(Transpose::No, Transpose::No, 1.0, &a, &b2).is_err());
        let m = Tensor::zeros(&[3, 4]);
        assert!(batched_gemm(Transpose::No, Transpose::No, 1.0, &a, &m).is_err());
    }

    #[test]
    fn half_precision_output_is_quantized() {
        let a = Tensor::full(&[2, 2], 1.0 / 3.0).to_dtype(DType::F16);
        let b = Tensor::eye(2);
        let c = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None).unwrap();
        assert_eq!(c.dtype(), DType::F16);
        for &x in c.as_slice() {
            assert_eq!(x, DType::F16.quantize(x), "output must be f16-representable");
        }
    }

    #[test]
    fn half_panel_packing_is_bit_lossless() {
        // Pre-quantized half values survive the u16 panel round trip
        // exactly: a half GEMM against the identity returns the input.
        for dt in [DType::F16, DType::BF16] {
            let mut rng = StdRng::seed_from_u64(23);
            let a = rand_tensor(&mut rng, &[11, 11]).to_dtype(dt);
            let eye = Tensor::eye(11).to_dtype(dt);
            let out = gemm(Transpose::No, Transpose::No, 1.0, &a, &eye, 0.0, None).unwrap();
            assert_eq!(out.as_slice(), a.as_slice(), "{dt:?}");
        }
    }

    /// The unfused reference chain for each epilogue, rounding through `dt`
    /// between steps exactly like the standalone kernels do.
    fn unfused_reference(base: &Tensor, ep: &GemmEpilogue<'_>, dt: DType) -> Vec<f32> {
        let n = *base.dims().last().unwrap();
        let out: Vec<f32> = match *ep {
            GemmEpilogue::None => base.as_slice().to_vec(),
            GemmEpilogue::Bias(b) => base
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| dt.quantize(v + b[i % n]))
                .collect(),
            GemmEpilogue::BiasResidual { bias, residual } => base
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| dt.quantize(dt.quantize(v + bias[i % n]) + residual[i]))
                .collect(),
            GemmEpilogue::Scale(s) => base.as_slice().iter().map(|&v| dt.quantize(v * s)).collect(),
            GemmEpilogue::ScaleMask { scale, mask } => base
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| dt.quantize(dt.quantize(v * scale) + mask[i]))
                .collect(),
        };
        out
    }

    #[test]
    fn fused_epilogues_match_unfused_chain_bitwise() {
        let (m, n, k) = (13, 10, 21);
        for dt in [DType::F32, DType::F16, DType::BF16] {
            let mut rng = StdRng::seed_from_u64(31);
            let a = rand_tensor(&mut rng, &[m, k]).to_dtype(dt);
            let b = rand_tensor(&mut rng, &[k, n]).to_dtype(dt);
            let bias: Vec<f32> = (0..n).map(|_| dt.quantize(rng.gen_range(-1.0..1.0))).collect();
            let res: Vec<f32> = (0..m * n).map(|_| dt.quantize(rng.gen_range(-1.0..1.0))).collect();
            let base = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None).unwrap();
            let eps = [
                GemmEpilogue::Bias(&bias),
                GemmEpilogue::BiasResidual { bias: &bias, residual: &res },
                GemmEpilogue::Scale(0.125),
                GemmEpilogue::ScaleMask { scale: 0.125, mask: &res },
            ];
            for ep in eps {
                let fused =
                    gemm_ep(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None, ep).unwrap();
                let want = unfused_reference(&base, &ep, dt);
                assert_eq!(fused.as_slice(), &want[..], "{dt:?} {ep:?}");
            }
        }
    }

    #[test]
    fn fused_bias_gelu_matches_unfused_sequence_bitwise() {
        let (m, n, k) = (9, 14, 17);
        for dt in [DType::F32, DType::F16] {
            let mut rng = StdRng::seed_from_u64(41);
            let a = rand_tensor(&mut rng, &[m, k]).to_dtype(dt);
            let b = rand_tensor(&mut rng, &[k, n]).to_dtype(dt);
            let bias_v: Vec<f32> = (0..n).map(|_| dt.quantize(rng.gen_range(-1.0..1.0))).collect();
            let bias = Tensor::from_vec(bias_v.clone(), &[n]).unwrap();
            let (pre, act) =
                gemm_bias_gelu(Transpose::No, Transpose::No, 1.0, &a, &b, &bias).unwrap();
            let base = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None).unwrap();
            for (i, (&p, &g)) in pre.as_slice().iter().zip(act.as_slice()).enumerate() {
                let want_pre = dt.quantize(base.as_slice()[i] + bias_v[i % n]);
                assert_eq!(p, want_pre, "{dt:?} pre[{i}]");
                assert_eq!(g, dt.quantize(gelu_scalar(want_pre)), "{dt:?} act[{i}]");
            }
            assert_eq!(pre.dtype(), dt);
            assert_eq!(act.dtype(), dt);
        }
    }

    #[test]
    fn batched_scale_mask_epilogue_slices_the_mask() {
        let (batch, m, n, k) = (3, 5, 4, 6);
        let mut rng = StdRng::seed_from_u64(47);
        let a = rand_tensor(&mut rng, &[batch, m, k]);
        let b = rand_tensor(&mut rng, &[batch, n, k]);
        let mask: Vec<f32> = (0..batch * m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let scale = 0.5;
        let fused = batched_gemm_ep(
            Transpose::No,
            Transpose::Yes,
            1.0,
            &a,
            &b,
            GemmEpilogue::ScaleMask { scale, mask: &mask },
        )
        .unwrap();
        let base = batched_gemm(Transpose::No, Transpose::Yes, 1.0, &a, &b).unwrap();
        for (i, (&f, &v)) in fused.as_slice().iter().zip(base.as_slice()).enumerate() {
            assert!((f - (v * scale + mask[i])).abs() < 1e-5, "[{i}]");
        }
    }

    #[test]
    fn ragged_shapes_match_naive_for_all_dtypes() {
        // Shapes deliberately not multiples of the 8x8 register tile.
        let shapes = [(1, 1, 1), (7, 9, 5), (8, 8, 8), (17, 23, 31), (9, 65, 12)];
        for dt in [DType::F32, DType::F16, DType::BF16] {
            for &(m, n, k) in &shapes {
                let mut rng = StdRng::seed_from_u64(m as u64 * 31 + n as u64);
                let a = rand_tensor(&mut rng, &[m, k]).to_dtype(dt);
                let b = rand_tensor(&mut rng, &[k, n]).to_dtype(dt);
                let got = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None).unwrap();
                let want = naive(Transpose::No, Transpose::No, &a, &b, m, n, k);
                let tol = match dt {
                    DType::F32 => 1e-4 * (k as f32).max(1.0),
                    DType::F16 => 3e-3 * (k as f32).max(1.0),
                    DType::BF16 => 2e-2 * (k as f32).max(1.0),
                };
                for (g, w) in got.as_slice().iter().zip(&want) {
                    assert!((g - w).abs() < tol, "{dt:?} ({m},{n},{k}): {g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn transpose_letters() {
        assert_eq!(Transpose::No.letter(), 'n');
        assert_eq!(Transpose::Yes.letter(), 't');
    }

    #[test]
    fn portable_microkernel_matches_the_dispatched_one_bitwise() {
        // On SIMD hosts this pins the portable fallback to the FMA kernels'
        // bits; elsewhere both sides are the portable kernel.
        let mut rng = StdRng::seed_from_u64(59);
        let k = 37;
        for kind in [PanelKind::F32, PanelKind::F16, PanelKind::Bf16] {
            let mut vals: Vec<f32> = (0..2 * MR * k).map(|_| rng.gen_range(-4.0..4.0)).collect();
            vals[3] = -0.0;
            vals[90] = f32::INFINITY;
            let a = PanelBuf::pack(kind, k, 0..1, |l, kk| vals[kk * MR + l]);
            let b = PanelBuf::pack(kind, k, 0..1, |l, kk| vals[(k + kk) * MR + l]);
            for alpha in [1.0, 0.5, -3.0] {
                let (mut fast, mut slow) = ([[0.0f32; NR]; MR], [[0.0f32; NR]; MR]);
                micro_tile(kind, alpha, a.panel(0), b.panel(0), k, &mut fast);
                portable::mk(kind, alpha, a.panel(0), b.panel(0), k, &mut slow);
                let bits = |t: &[[f32; NR]; MR]| {
                    t.concat().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(&fast), bits(&slow), "{kind:?} alpha={alpha}");
            }
        }
    }

    #[test]
    fn row_grain_is_tile_aligned() {
        for (m, n, k) in [(1, 1, 1), (512, 1024, 1024), (100, 64, 64), (4096, 64, 64)] {
            let g = row_grain(m, n, k);
            assert_eq!(g % MR, 0, "grain {g} not a multiple of MR for ({m},{n},{k})");
            assert!(g >= 1);
        }
    }
}
