//! Executable BERT pre-training substrate for the bertscope suite.
//!
//! This crate *runs* BERT pre-training — the paper's workload — on the
//! pure-Rust kernel substrate: synthetic MLM/NSP data ([`data`]), the full
//! model with hand-derived backprop ([`bert`], [`layer`]) whose every step
//! is recorded once as a task graph and run inline or on the scheduler
//! ([`graph`]), and the LAMB /
//! Adam / SGD optimizers ([`optim`]), including mixed precision with loss
//! scaling and f32 master weights, fused-QKV execution, and activation
//! checkpointing with real recomputation.
//!
//! Every parameter's name, slot order and group is declared once, in the
//! crate's parameter inventory (the embeddings, one group per layer, the
//! output heads). Optimizer slots ([`Bert::param_slots`]), checkpoints,
//! fault injection and gradient-observer groups all derive their order
//! from it, and that order is the `bertscope-model` inventory's.
//!
//! Every kernel call reports itself to the tracer, so executing one training
//! step yields the same operation stream the analytic graph in
//! `bertscope-model` predicts — the cross-validation at the heart of the
//! reproduction.
//!
//! The crate also carries the fault-tolerant training runtime: dynamic loss
//! scaling with overflow-skip ([`scaler`]), structured step errors and
//! recovery policies ([`error`]), deterministic fault injection (via
//! `bertscope_tensor::FaultPlan`), and versioned full-state checkpoints with
//! bit-exact resume ([`checkpoint`]).

pub mod bert;
pub mod checkpoint;
pub mod data;
pub mod defer;
pub mod error;
pub mod graph;
pub mod layer;
pub mod optim;
mod params;
pub mod scaler;
pub mod sync;
pub mod trainer;

pub use bert::{non_copy_records, Bert, EvalOutput, StepOutput, TrainOptions};
pub use checkpoint::{ParamRecord, TrainCheckpoint};
pub use data::{PretrainBatch, SyntheticCorpus};
pub use defer::{BucketSink, BucketedAverager, GradObserver};
pub use error::{RecoveryPolicy, TrainError};
pub use layer::{layer_bwd, layer_fwd, LayerActivations, LayerCtx, LayerParams};
pub use optim::{Adam, Lamb, Optimizer, OptimizerState, ParamSlot, Sgd, SlotState, WarmupSchedule};
pub use scaler::{LossScaler, ScalerState};
pub use sync::{GradSync, SyncError};
pub use trainer::{StepResult, Trainer};

/// Result alias re-used from the tensor substrate.
pub type Result<T> = bertscope_tensor::Result<T>;
