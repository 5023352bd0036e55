//! Property-based tests for the register-blocked SIMD microkernel GEMM:
//! agreement with an f64 reference across transpose combinations, ragged
//! shapes and dtypes, fused-vs-unfused bit identity, and bit-identical
//! results across thread counts.

use bertscope_tensor::{
    batched_gemm_ep, gemm, gemm_bias_gelu, gemm_ep, pool, DType, GemmEpilogue, Tensor, Transpose,
};
use proptest::prelude::*;

/// Plain-loop f64 reference for `alpha * op(A) * op(B)`.
#[allow(clippy::too_many_arguments)]
fn naive_f64(
    ta: Transpose,
    tb: Transpose,
    alpha: f32,
    a: &Tensor,
    b: &Tensor,
    m: usize,
    n: usize,
    k: usize,
) -> Vec<f64> {
    let get_a = |i: usize, kk: usize| match ta {
        Transpose::No => a.as_slice()[i * a.dims()[1] + kk],
        Transpose::Yes => a.as_slice()[kk * a.dims()[1] + i],
    };
    let get_b = |kk: usize, j: usize| match tb {
        Transpose::No => b.as_slice()[kk * b.dims()[1] + j],
        Transpose::Yes => b.as_slice()[j * b.dims()[1] + kk],
    };
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc += f64::from(get_a(i, kk)) * f64::from(get_b(kk, j));
            }
            out[i * n + j] = f64::from(alpha) * acc;
        }
    }
    out
}

fn dim() -> impl Strategy<Value = usize> {
    1usize..40
}

fn dtype() -> impl Strategy<Value = DType> {
    prop_oneof![Just(DType::F32), Just(DType::F16), Just(DType::BF16)]
}

fn transpose() -> impl Strategy<Value = Transpose> {
    prop_oneof![Just(Transpose::No), Just(Transpose::Yes)]
}

/// Worst-case absolute error budget for a depth-`k` dot product of values
/// in [-2, 2] accumulated in f32 from operands rounded to `dt`.
fn tol(dt: DType, k: usize) -> f64 {
    let k = k as f64;
    match dt {
        // f32 operands are exact; error is f32 accumulation order only.
        DType::F32 => 1e-5 * k.max(1.0) * 4.0,
        // Half operands round at ~2^-11 (f16) / ~2^-8 (bf16) per element;
        // the reference sees the *rounded* values so this only covers
        // accumulation differences, but keep slack for FMA contraction.
        DType::F16 => 2e-4 * k.max(1.0) * 4.0,
        DType::BF16 => 2e-4 * k.max(1.0) * 4.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Microkernel output matches the f64 reference for every transpose
    /// combination, ragged shape, and dtype.
    #[test]
    fn microkernel_matches_f64_reference(
        m in dim(), n in dim(), k in dim(),
        ta in transpose(), tb in transpose(),
        dt in dtype(),
        alpha in -2.0f32..2.0,
        seed in proptest::collection::vec(-2.0f32..2.0, 40 * 40 * 2),
    ) {
        let a_dims = if ta == Transpose::No { [m, k] } else { [k, m] };
        let b_dims = if tb == Transpose::No { [k, n] } else { [n, k] };
        let a = Tensor::from_vec(seed[..m * k].to_vec(), &a_dims).unwrap().to_dtype(dt);
        let b = Tensor::from_vec(seed[m * k..m * k + k * n].to_vec(), &b_dims).unwrap().to_dtype(dt);
        let got = gemm(ta, tb, alpha, &a, &b, 0.0, None).unwrap();
        let want = naive_f64(ta, tb, alpha, &a, &b, m, n, k);
        let budget = tol(dt, k);
        for (i, (&g, &w)) in got.as_slice().iter().zip(&want).enumerate() {
            // The output itself is rounded to dt; round the reference too.
            let w = f64::from(dt.quantize(w as f32));
            prop_assert!(
                (f64::from(g) - w).abs() <= budget,
                "{dt:?} ta={ta:?} tb={tb:?} ({m},{n},{k})[{i}]: {g} vs {w} (tol {budget})"
            );
        }
    }

    /// Fused epilogues are bit-identical to the unfused kernel sequence
    /// (GEMM, then separate rounding elementwise steps) for every dtype.
    #[test]
    fn fused_epilogue_is_bit_identical_to_unfused(
        m in dim(), n in dim(), k in dim(),
        dt in dtype(),
        which in 0usize..4,
        seed in proptest::collection::vec(-2.0f32..2.0, 40 * 40 * 3 + 40),
    ) {
        let a = Tensor::from_vec(seed[..m * k].to_vec(), &[m, k]).unwrap().to_dtype(dt);
        let b = Tensor::from_vec(seed[m * k..m * k + k * n].to_vec(), &[k, n]).unwrap().to_dtype(dt);
        let aux_base = m * k + k * n;
        let bias: Vec<f32> = seed[aux_base..aux_base + n].iter().map(|&v| dt.quantize(v)).collect();
        let big: Vec<f32> =
            seed[aux_base..aux_base + m * n].iter().map(|&v| dt.quantize(v)).collect();
        let base = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None).unwrap();
        let (ep, want): (GemmEpilogue<'_>, Vec<f32>) = match which {
            0 => (
                GemmEpilogue::Bias(&bias),
                base.as_slice().iter().enumerate()
                    .map(|(i, &v)| dt.quantize(v + bias[i % n])).collect(),
            ),
            1 => (
                GemmEpilogue::BiasResidual { bias: &bias, residual: &big },
                base.as_slice().iter().enumerate()
                    .map(|(i, &v)| dt.quantize(dt.quantize(v + bias[i % n]) + big[i])).collect(),
            ),
            2 => (
                GemmEpilogue::Scale(0.125),
                base.as_slice().iter().map(|&v| dt.quantize(v * 0.125)).collect(),
            ),
            _ => (
                GemmEpilogue::ScaleMask { scale: 0.125, mask: &big },
                base.as_slice().iter().enumerate()
                    .map(|(i, &v)| dt.quantize(dt.quantize(v * 0.125) + big[i])).collect(),
            ),
        };
        let fused = gemm_ep(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None, ep).unwrap();
        for (i, (&f, &w)) in fused.as_slice().iter().zip(&want).enumerate() {
            prop_assert_eq!(
                f.to_bits(), w.to_bits(),
                "{:?} ep#{} ({},{},{})[{}]: {} vs {}", dt, which, m, n, k, i, f, w
            );
        }
    }

    /// The dual-output bias+GeLU fusion reproduces the unfused
    /// linear -> bias -> GeLU chain bit-for-bit on both outputs.
    #[test]
    fn fused_bias_gelu_is_bit_identical(
        m in dim(), n in dim(), k in dim(),
        dt in dtype(),
        seed in proptest::collection::vec(-2.0f32..2.0, 40 * 40 * 2 + 40),
    ) {
        let a = Tensor::from_vec(seed[..m * k].to_vec(), &[m, k]).unwrap().to_dtype(dt);
        let b = Tensor::from_vec(seed[m * k..m * k + k * n].to_vec(), &[k, n]).unwrap().to_dtype(dt);
        let bias_v: Vec<f32> =
            seed[m * k + k * n..m * k + k * n + n].iter().map(|&v| dt.quantize(v)).collect();
        let bias = Tensor::from_vec(bias_v.clone(), &[n]).unwrap();
        let (pre, act) = gemm_bias_gelu(Transpose::No, Transpose::No, 1.0, &a, &b, &bias).unwrap();
        let base = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None).unwrap();
        for (i, &v) in base.as_slice().iter().enumerate() {
            let want_pre = dt.quantize(v + bias_v[i % n]);
            prop_assert_eq!(pre.as_slice()[i].to_bits(), want_pre.to_bits());
            let want_act = dt.quantize(bertscope_tensor::mathfn::gelu_scalar(want_pre));
            prop_assert_eq!(act.as_slice()[i].to_bits(), want_act.to_bits());
        }
    }
}

/// Fused and unfused GEMM results must be bit-identical at 1, 2 and 8
/// threads — the microkernel's fixed-width accumulation order does not
/// depend on how rows are split across the pool.
#[test]
fn gemm_is_bit_identical_across_thread_counts() {
    // Big enough to cross PARALLEL_THRESHOLD and span several row grains.
    let (m, n, k) = (160, 130, 110);
    let data_a: Vec<f32> =
        (0..m * k).map(|i| ((i * 2_654_435_761) % 1000) as f32 / 500.0 - 1.0).collect();
    let data_b: Vec<f32> =
        (0..k * n).map(|i| ((i * 2_246_822_519) % 1000) as f32 / 500.0 - 1.0).collect();
    let bias: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
    for dt in [DType::F32, DType::F16, DType::BF16] {
        let a = Tensor::from_vec(data_a.clone(), &[m, k]).unwrap().to_dtype(dt);
        let b = Tensor::from_vec(data_b.clone(), &[k, n]).unwrap().to_dtype(dt);
        let bias_q: Vec<f32> = bias.iter().map(|&v| dt.quantize(v)).collect();
        let bias_t = Tensor::from_vec(bias_q.clone(), &[n]).unwrap();
        let run = |threads: usize| {
            pool::with_threads(threads, || {
                let plain = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None).unwrap();
                let fused = gemm_ep(
                    Transpose::No,
                    Transpose::No,
                    1.0,
                    &a,
                    &b,
                    0.0,
                    None,
                    GemmEpilogue::Bias(&bias_q),
                )
                .unwrap();
                let (pre, act) =
                    gemm_bias_gelu(Transpose::No, Transpose::No, 1.0, &a, &b, &bias_t).unwrap();
                [plain, fused, pre, act]
                    .iter()
                    .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
                    .collect::<Vec<_>>()
            })
        };
        let at1 = run(1);
        let at2 = run(2);
        let at8 = run(8);
        assert_eq!(at1, at2, "{dt:?}: 1-thread vs 2-thread bits differ");
        assert_eq!(at1, at8, "{dt:?}: 1-thread vs 8-thread bits differ");
    }
}

/// Batched fused attention-score epilogue (scale+mask) is bit-identical
/// across thread counts, including the per-slice mask slicing.
#[test]
fn batched_fused_scale_mask_is_bit_identical_across_thread_counts() {
    let (batch, m, n, k) = (12, 32, 32, 24);
    let data_q: Vec<f32> =
        (0..batch * m * k).map(|i| ((i * 40_503) % 997) as f32 / 498.5 - 1.0).collect();
    let data_k: Vec<f32> =
        (0..batch * n * k).map(|i| ((i * 65_537) % 991) as f32 / 495.5 - 1.0).collect();
    let mask: Vec<f32> =
        (0..batch * m * n).map(|i| if i % 7 == 0 { -10_000.0 } else { 0.0 }).collect();
    let q = Tensor::from_vec(data_q, &[batch, m, k]).unwrap();
    let kt = Tensor::from_vec(data_k, &[batch, n, k]).unwrap();
    let run = |threads: usize| {
        pool::with_threads(threads, || {
            batched_gemm_ep(
                Transpose::No,
                Transpose::Yes,
                1.0,
                &q,
                &kt,
                GemmEpilogue::ScaleMask { scale: 0.204_124, mask: &mask },
            )
            .unwrap()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u32>>()
        })
    };
    let at1 = run(1);
    assert_eq!(at1, run(2), "1-thread vs 2-thread bits differ");
    assert_eq!(at1, run(8), "1-thread vs 8-thread bits differ");
}

// ---------------------------------------------------------------------------
// The bitwise GEMM contract.
//
// Every output element is one FMA chain in ascending `k` from +0.0,
// `acc = (alpha * a).mul_add(b, acc)`, over operands as the microkernel sees
// them (rounded to the shared half type when both operands carry it, read as
// stored otherwise); then `quantize(out0 + acc)` with `out0` the zeroed or
// beta-scaled accumulator, then the epilogue's rounding chain. Tiling,
// packing, chunking and the thread count never enter the arithmetic, so the
// comparison is on bits: a reordered or split accumulation fails it, which
// the f64-tolerance property above cannot detect. NaN outputs are compared
// as NaN only, since IEEE 754 leaves the propagated payload open.
// ---------------------------------------------------------------------------

/// The epilogue a contract case runs, by index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tail {
    None,
    Bias,
    BiasResidual,
    Scale,
    ScaleMask,
    BiasGelu,
}

const TAILS: [Tail; 6] =
    [Tail::None, Tail::Bias, Tail::BiasResidual, Tail::Scale, Tail::ScaleMask, Tail::BiasGelu];

/// Deterministic values in [-2, 2) from a seed (SplitMix64).
fn values(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Overwrite a few positions with −0.0, ±inf or NaN.
fn sprinkle(v: &mut [f32], specials: &[(usize, usize)]) {
    const SPECIAL: [f32; 5] = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    if v.is_empty() {
        return;
    }
    for &(pos, which) in specials {
        let len = v.len();
        v[pos % len] = SPECIAL[which % SPECIAL.len()];
    }
}

fn same_bits(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// One contract case: shapes, flags and data for a (batched) GEMM call.
struct Case {
    ta: Transpose,
    tb: Transpose,
    alpha: f32,
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    a: Tensor,
    b: Tensor,
    /// `Some((beta, c))` for a 2-D call with an accumulator input.
    acc_in: Option<(f32, Tensor)>,
    bias: Vec<f32>,
    /// Output-shaped residual / mask operand, `batch * m * n` values.
    big: Vec<f32>,
}

impl Case {
    fn new(
        (ta, tb): (Transpose, Transpose),
        alpha: f32,
        (batch, m, n, k): (usize, usize, usize, usize),
        (adt, bdt): (DType, DType),
        beta: Option<f32>,
        seed: u64,
        specials: &[(usize, usize)],
    ) -> Case {
        // `batch == 0` asks for a 2-D call (one slice, no batch dimension).
        let two_d = batch == 0;
        let batch = batch.max(1);
        let (ar, ac) = if ta == Transpose::No { (m, k) } else { (k, m) };
        let (br, bc) = if tb == Transpose::No { (k, n) } else { (n, k) };
        let mut av = values(seed, batch * ar * ac);
        let mut bv = values(seed ^ 0xB, batch * br * bc);
        sprinkle(&mut av, specials);
        sprinkle(&mut bv, &specials.iter().map(|&(p, w)| (p / 3, w + 1)).collect::<Vec<_>>());
        let (a, b) = if two_d {
            (
                Tensor::from_vec(av, &[ar, ac]).unwrap().to_dtype(adt),
                Tensor::from_vec(bv, &[br, bc]).unwrap().to_dtype(bdt),
            )
        } else {
            (
                Tensor::from_vec(av, &[batch, ar, ac]).unwrap().to_dtype(adt),
                Tensor::from_vec(bv, &[batch, br, bc]).unwrap().to_dtype(bdt),
            )
        };
        let q = |v: Vec<f32>| v.into_iter().map(|x| adt.quantize(x)).collect::<Vec<f32>>();
        let acc_in = beta.map(|beta| {
            let mut cv = values(seed ^ 0xC, m * n);
            sprinkle(&mut cv, &specials[..specials.len().min(1)]);
            (beta, Tensor::from_vec(cv, &[m, n]).unwrap())
        });
        Case {
            ta,
            tb,
            alpha,
            batch,
            m,
            n,
            k,
            a,
            b,
            acc_in,
            bias: q(values(seed ^ 0xD, n)),
            big: q(values(seed ^ 0xE, batch * m * n)),
        }
    }

    fn is_2d(&self) -> bool {
        self.a.dims().len() == 2
    }

    /// Run the library call under test: `(out, act)`, `act` only for bias+GeLU.
    fn run(&self, tail: Tail) -> (Vec<f32>, Option<Vec<f32>>) {
        let ep = match tail {
            Tail::None | Tail::BiasGelu => GemmEpilogue::None,
            Tail::Bias => GemmEpilogue::Bias(&self.bias),
            Tail::BiasResidual => {
                GemmEpilogue::BiasResidual { bias: &self.bias, residual: &self.big }
            }
            Tail::Scale => GemmEpilogue::Scale(0.125),
            Tail::ScaleMask => GemmEpilogue::ScaleMask { scale: -0.375, mask: &self.big },
        };
        if tail == Tail::BiasGelu {
            let bias = Tensor::from_vec(self.bias.clone(), &[self.n]).unwrap();
            let (pre, act) =
                gemm_bias_gelu(self.ta, self.tb, self.alpha, &self.a, &self.b, &bias).unwrap();
            return (pre.as_slice().to_vec(), Some(act.as_slice().to_vec()));
        }
        let out = if self.is_2d() {
            let (beta, c) = match &self.acc_in {
                Some((beta, c)) => (*beta, Some(c)),
                None => (0.0, None),
            };
            gemm_ep(self.ta, self.tb, self.alpha, &self.a, &self.b, beta, c, ep).unwrap()
        } else {
            batched_gemm_ep(self.ta, self.tb, self.alpha, &self.a, &self.b, ep).unwrap()
        };
        (out.as_slice().to_vec(), None)
    }

    /// The scalar contract: one k-ascending FMA chain per element.
    fn accumulators(&self) -> Vec<f32> {
        let (m, n, k) = (self.m, self.n, self.k);
        let (adt, bdt) = (self.a.dtype(), self.b.dtype());
        // Half panels only when both operands share the half type.
        let widen =
            |x: f32, own: DType| if adt == bdt && own.is_half() { own.quantize(x) } else { x };
        let (a_cols, b_cols) = (*self.a.dims().last().unwrap(), *self.b.dims().last().unwrap());
        let (a_span, b_span) = (m * k, k * n);
        let mut out = Vec::with_capacity(self.batch * m * n);
        for s in 0..self.batch {
            let a = &self.a.as_slice()[s * a_span..(s + 1) * a_span];
            let b = &self.b.as_slice()[s * b_span..(s + 1) * b_span];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        let av = match self.ta {
                            Transpose::No => a[i * a_cols + kk],
                            Transpose::Yes => a[kk * a_cols + i],
                        };
                        let bv = match self.tb {
                            Transpose::No => b[kk * b_cols + j],
                            Transpose::Yes => b[j * b_cols + kk],
                        };
                        acc = (self.alpha * widen(av, adt)).mul_add(widen(bv, bdt), acc);
                    }
                    out.push(acc);
                }
            }
        }
        out
    }

    /// Check one library call against the contract, bit for bit.
    fn check(&self, acc: &[f32], tail: Tail, label: &str) {
        let dt = self.a.dtype();
        let (got, got_act) = self.run(tail);
        assert_eq!(got.len(), acc.len(), "{label}");
        for (idx, (&g, &acc)) in got.iter().zip(acc).enumerate() {
            let col = idx % self.n;
            let out0 = match &self.acc_in {
                Some((beta, c)) if *beta != 0.0 && tail != Tail::BiasGelu => {
                    beta * c.as_slice()[idx]
                }
                _ => 0.0,
            };
            let v = dt.quantize(out0 + acc);
            let want = match tail {
                Tail::None => v,
                Tail::Bias | Tail::BiasGelu => dt.quantize(v + self.bias[col]),
                Tail::BiasResidual => dt.quantize(dt.quantize(v + self.bias[col]) + self.big[idx]),
                Tail::Scale => dt.quantize(v * 0.125),
                Tail::ScaleMask => dt.quantize(dt.quantize(v * -0.375) + self.big[idx]),
            };
            assert!(
                same_bits(g, want),
                "{label} {tail:?} [{idx}]: got {g:e} ({:#010x}), contract {want:e} ({:#010x})",
                g.to_bits(),
                want.to_bits()
            );
            if let Some(act) = &got_act {
                let want_act = dt.quantize(bertscope_tensor::mathfn::gelu_scalar(want));
                assert!(same_bits(act[idx], want_act), "{label} gelu [{idx}]");
            }
        }
    }
}

fn alpha() -> impl Strategy<Value = f32> {
    prop_oneof![Just(1.0f32), Just(0.5f32), Just(-3.0f32)]
}

fn depth() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1usize), 1usize..40]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small and ragged problems (the inline path): every element equals the
    /// scalar contract bit for bit, for every transpose pair, alpha,
    /// epilogue, dtype pairing, beta accumulator, batch and thread count.
    #[test]
    fn gemm_matches_scalar_contract_bitwise(
        m in dim(), n in dim(), k in depth(),
        ta in transpose(), tb in transpose(),
        alpha in alpha(),
        dts in (dtype(), prop_oneof![Just(true), Just(false)]),
        shape in (0usize..3, 1usize..11, prop_oneof![Just(0.0f32), Just(1.0f32), Just(-0.5f32)]),
        tail in 0usize..6,
        threads in 1usize..3,
        seed in 0u64..u64::MAX,
        specials in proptest::collection::vec((0usize..4096, 0usize..5), 0..4),
    ) {
        let (adt, same) = dts;
        let bdt = if same { adt } else { DType::F32 };
        let tail = TAILS[tail];
        // shape.0: 0 = 2-D plain, 1 = 2-D with a beta accumulator, 2 =
        // batched (batch 0 below means a 2-D call). Bias+GeLU is 2-D only.
        let (batch, beta) = match shape.0 {
            1 if tail != Tail::BiasGelu => (0, Some(shape.2)),
            2 if tail != Tail::BiasGelu => (shape.1, None),
            _ => (0, None),
        };
        let case = Case::new((ta, tb), alpha, (batch, m, n, k), (adt, bdt), beta, seed, &specials);
        let acc = case.accumulators();
        pool::with_threads(threads, || {
            case.check(&acc, tail, &format!("{adt:?}x{bdt:?} {ta:?}{tb:?} a={alpha} b={batch} ({m},{n},{k})"));
        });
    }
}

/// The pooled paths: row-chunked 2-D GEMMs, batched GEMMs split into row
/// chunks (batch < 8) and one task per slice (batch >= 8). Each equals the
/// scalar contract bit for bit at 1 and 2 pool threads.
#[test]
fn pooled_gemm_paths_match_scalar_contract_bitwise() {
    let specials = [(17, 0), (901, 2), (2048, 4), (3001, 3)];
    let cases = [
        // 2-D, crosses the parallel threshold, two row chunks, ragged n.
        ((Transpose::No, Transpose::No), 1.0, (0, 203, 150, 150), None),
        ((Transpose::Yes, Transpose::Yes), -3.0, (0, 203, 150, 150), Some(-0.5)),
        // Batched below the slice-parallel count: slices split into row chunks.
        ((Transpose::No, Transpose::Yes), 0.5, (2, 130, 190, 190), None),
        // Batched at the slice-parallel count: one task per slice.
        ((Transpose::Yes, Transpose::No), 1.0, (8, 64, 67, 64), None),
    ];
    for (ci, &(tr, alpha, dims, beta)) in cases.iter().enumerate() {
        for dt in [DType::F32, DType::F16, DType::BF16] {
            let case = Case::new(tr, alpha, dims, (dt, dt), beta, 7 + ci as u64, &specials);
            let acc = case.accumulators();
            // Every epilogue on f32; one rotating epilogue on the half types.
            let tails: Vec<Tail> = if dt == DType::F32 {
                TAILS.iter().copied().filter(|&t| case.is_2d() || t != Tail::BiasGelu).collect()
            } else {
                vec![TAILS[(ci + dt as usize) % if case.is_2d() { 6 } else { 5 }]]
            };
            for tail in tails {
                if tail == Tail::BiasGelu && beta.is_some() {
                    continue;
                }
                for threads in [1, 2] {
                    pool::with_threads(threads, || {
                        case.check(&acc, tail, &format!("case {ci} {dt:?} {threads}t"));
                    });
                }
            }
        }
    }
}
