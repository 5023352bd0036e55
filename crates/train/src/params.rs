//! The parameter inventory: the one place that fixes every parameter's
//! canonical name, slot order and group.
//!
//! BERT's parameters fall into three groups, in slot order: the embeddings
//! ([`EmbeddingParams`], 5 tensors), one group per transformer layer
//! ([`LayerParams`], 16 tensors each, named `l{i}.*`), and the MLM/NSP
//! output heads ([`HeadParams`], 9 tensors). Each group declares its names
//! once, beside the fields they name, through [`param_group!`]; the same
//! struct type holds the group's gradients. Optimizer slots, checkpoint
//! views, fault injection, the mixed-precision cast, gradient-observer
//! group bases and the recorded backward's outputs are all iterations over
//! these views, so the order is the `bertscope-model` inventory order
//! everywhere by construction.

use crate::layer::LayerParams;
use bertscope_tensor::Tensor;

/// Declare a parameter group's canonical names and its `tensors()` /
/// `tensors_mut()` views, all in slot order, from one `field => "name"`
/// list.
macro_rules! param_group {
    ($group:ty { $($($field:ident).+ => $name:literal,)+ }) => {
        impl $group {
            /// Canonical parameter names, in slot order.
            pub const NAMES: &'static [&'static str] = &[$($name),+];

            /// Every tensor of the group, in [`Self::NAMES`] order.
            #[must_use]
            pub fn tensors(&self) -> [&Tensor; [$($name),+].len()] {
                [$(&self.$($field).+),+]
            }

            /// Every tensor of the group, mutably, in [`Self::NAMES`] order.
            pub fn tensors_mut(&mut self) -> [&mut Tensor; [$($name),+].len()] {
                [$(&mut self.$($field).+),+]
            }
        }
    };
}
pub(crate) use param_group;

/// Token, position and segment embedding tables and the embedding
/// `LayerNorm`.
#[derive(Debug, Clone)]
pub(crate) struct EmbeddingParams {
    pub(crate) word: Tensor,
    pub(crate) position: Tensor,
    pub(crate) segment: Tensor,
    pub(crate) ln_gamma: Tensor,
    pub(crate) ln_beta: Tensor,
}

param_group!(EmbeddingParams {
    word => "embeddings.word",
    position => "embeddings.position",
    segment => "embeddings.segment",
    ln_gamma => "embeddings.ln.gamma",
    ln_beta => "embeddings.ln.beta",
});

/// The MLM head (dense, `LayerNorm`, the tied decoder's bias) and the NSP
/// head (pooler, classifier).
#[derive(Debug, Clone)]
pub(crate) struct HeadParams {
    pub(crate) mlm_dense_w: Tensor,
    pub(crate) mlm_dense_b: Tensor,
    pub(crate) mlm_ln_gamma: Tensor,
    pub(crate) mlm_ln_beta: Tensor,
    pub(crate) decoder_bias: Tensor,
    pub(crate) pooler_w: Tensor,
    pub(crate) pooler_b: Tensor,
    pub(crate) cls_w: Tensor,
    pub(crate) cls_b: Tensor,
}

param_group!(HeadParams {
    mlm_dense_w => "mlm.dense.weight",
    mlm_dense_b => "mlm.dense.bias",
    mlm_ln_gamma => "mlm.ln.gamma",
    mlm_ln_beta => "mlm.ln.beta",
    decoder_bias => "mlm.decoder.bias",
    pooler_w => "nsp.pooler.weight",
    pooler_b => "nsp.pooler.bias",
    cls_w => "nsp.classifier.weight",
    cls_b => "nsp.classifier.bias",
});

/// Every parameter of the model (or every gradient of one step), grouped.
#[derive(Debug, Clone)]
pub(crate) struct Params {
    pub(crate) emb: EmbeddingParams,
    pub(crate) layers: Vec<LayerParams>,
    pub(crate) heads: HeadParams,
}

impl Params {
    /// Canonical names of a `layers`-layer model, in slot order.
    pub(crate) fn names(layers: usize) -> Vec<String> {
        let emb = EmbeddingParams::NAMES.iter().map(|n| (*n).to_owned());
        let layer =
            (0..layers).flat_map(|l| LayerParams::NAMES.iter().map(move |n| format!("l{l}.{n}")));
        let heads = HeadParams::NAMES.iter().map(|n| (*n).to_owned());
        emb.chain(layer).chain(heads).collect()
    }

    /// Slot index of layer `l`'s first parameter; `layer_base(layers)` is
    /// the heads group's base.
    pub(crate) fn layer_base(l: usize) -> usize {
        EmbeddingParams::NAMES.len() + l * LayerParams::NAMES.len()
    }

    /// Every tensor, in slot order.
    pub(crate) fn tensors(&self) -> impl Iterator<Item = &Tensor> {
        self.emb
            .tensors()
            .into_iter()
            .chain(self.layers.iter().flat_map(LayerParams::tensors))
            .chain(self.heads.tensors())
    }

    /// Every tensor, mutably, in slot order.
    pub(crate) fn tensors_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        self.emb
            .tensors_mut()
            .into_iter()
            .chain(self.layers.iter_mut().flat_map(LayerParams::tensors_mut))
            .chain(self.heads.tensors_mut())
    }
}
