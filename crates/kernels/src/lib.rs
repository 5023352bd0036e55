//! Neural-network kernels for the bertscope BERT substrate.
//!
//! Every kernel here comes in a forward and a hand-derived backward form and
//! reports itself to a [`Tracer`](bertscope_tensor::Tracer), recording the
//! manifestation, shape, FLOPs and bytes that the characterization in
//! *"Demystifying BERT"* (IISWC 2022) is built on. The inventory covers
//! exactly the operations the paper enumerates:
//!
//! * [`linear`] — the linear-projection and fully-connected GEMMs (+bias);
//! * [`norm`] — softmax and LayerNorm (reduction-flavoured non-GEMMs);
//! * [`activation`] — GeLU with its error-function implementation;
//! * [`dropout`] — inverted dropout with deterministic seeded masks;
//! * [`elementwise`] — scale, additive mask and residual addition;
//! * [`embedding`] — token/position/segment embedding lookup and its
//!   scatter-add backward;
//! * [`loss`] — softmax cross-entropy for the MLM and NSP heads;
//! * [`attention`] — the full multi-head attention composite, including the
//!   batched score/context GEMMs and the optional fused-QKV execution of
//!   paper §6.1.2.
//!
//! All kernels take the tracer first, then a [`KernelCtx`] describing where
//! in the network the call sits (category, phase, layer), then data.

pub mod activation;
pub mod attention;
pub mod ctx;
pub mod dropout;
pub mod elementwise;
pub mod embedding;
pub mod linear;
pub mod loss;
pub mod masks;
pub mod norm;

pub use ctx::KernelCtx;

/// Result alias re-used from the tensor substrate.
pub type Result<T> = bertscope_tensor::Result<T>;

/// Test-support helpers: deterministic random tensors and finite-difference
/// gradient checking. Public so downstream crates (the trainable model, the
/// integration tests) can reuse the same gradient-checking harness.
pub mod testsupport {
    use bertscope_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Deterministic random tensor for tests.
    pub fn rand_tensor(seed: u64, dims: &[usize]) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..dims.iter().product::<usize>()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Tensor::from_vec(data, dims).expect("sized by construction")
    }

    /// Central finite difference of `f` with respect to `x[i]`.
    pub fn finite_diff(x: &Tensor, i: usize, eps: f32, mut f: impl FnMut(&Tensor) -> f32) -> f32 {
        let mut plus = x.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = x.clone();
        minus.as_mut_slice()[i] -= eps;
        (f(&plus) - f(&minus)) / (2.0 * eps)
    }

    /// Assert every element of an analytic gradient matches finite
    /// differences of a scalar-valued function.
    pub fn check_grad(
        x: &Tensor,
        analytic: &Tensor,
        eps: f32,
        tol: f32,
        mut f: impl FnMut(&Tensor) -> f32,
    ) {
        assert_eq!(x.dims(), analytic.dims());
        for i in 0..x.numel() {
            let fd = finite_diff(x, i, eps, &mut f);
            let an = analytic.as_slice()[i];
            let denom = 1.0f32.max(fd.abs()).max(an.abs());
            assert!(
                (fd - an).abs() / denom < tol,
                "grad mismatch at {i}: finite-diff {fd} vs analytic {an}"
            );
        }
    }
}
