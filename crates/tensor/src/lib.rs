//! Dense tensor substrate for the `bertscope` workload-characterization suite.
//!
//! This crate is the lowest layer of the stack that reproduces
//! *"Demystifying BERT: System Design Implications"* (IISWC 2022). It provides:
//!
//! * [`Tensor`] — a dense, row-major, f32-backed tensor whose *logical*
//!   [`DType`] may be half precision (values are then rounded through a
//!   software f16/bf16 representation so mixed-precision training is
//!   numerically meaningful);
//! * [`gemm()`](gemm())/[`batched_gemm`] — blocked general matrix multiplication with
//!   transpose support, the workhorse of every BERT layer;
//! * elementwise and reduction primitives used by the NN kernels;
//! * [`pool`] — a persistent worker pool with deterministically chunked
//!   `parallel_for` helpers (the CPU stand-in for the GPU runtime's
//!   multi-CU dispatch); results are bit-identical at any thread count;
//! * [`alloc`] — the pooled buffer allocator every tensor and kernel
//!   workspace routes through (the CPU stand-in for the ROCm caching
//!   allocator), with global live/peak byte accounting that feeds the
//!   measured [`MemoryProfile`];
//! * [`sched`] — the operator-graph scheduler: tasks recorded with
//!   `AccessSet` provenance, run inline in program order or as a
//!   dependence DAG over the worker pool with inter-op parallelism (the CPU
//!   stand-in for HIP stream/event scheduling), bit-identical either way;
//! * [`trace`] — the operation tracer that records, for every kernel
//!   invocation, its manifestation (GEMM / batched-GEMM / elementwise /
//!   reduction), shape, FLOP count and bytes moved. The tracer plays the role
//!   rocProf played in the paper: it is how the suite "profiles one training
//!   iteration".
//!
//! # Examples
//!
//! ```
//! use bertscope_tensor::{Tensor, gemm, Transpose};
//!
//! # fn main() -> Result<(), bertscope_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, None)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok(())
//! # }
//! ```

pub mod alloc;
pub mod bucket;
pub mod dtype;
pub mod error;
pub mod fault;
pub mod gemm;
pub mod init;
pub mod mathfn;
pub mod pool;
pub mod sched;
pub mod shape;
pub mod tensor;
pub mod trace;
pub mod tracefile;

pub use alloc::{AllocStats, Buffer};
pub use dtype::DType;
pub use error::TensorError;
pub use fault::{Fault, FaultKind, FaultPlan};
pub use gemm::{batched_gemm, gemm, Transpose};
pub use gemm::{batched_gemm_ep, gemm_bias_gelu, gemm_ep, GemmEpilogue};
pub use shape::Shape;
pub use tensor::Tensor;
pub use trace::{
    summarize, AccessSet, BufId, Category, Epilogue, GemmSpec, Group, MemoryProfile, OpKind,
    OpRecord, Phase, Totals, Tracer,
};

/// Result alias used across the tensor substrate.
pub type Result<T> = std::result::Result<T, TensorError>;
