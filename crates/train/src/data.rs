//! Synthetic pre-training data: the suite's stand-in for the paper's
//! Wikipedia corpus.
//!
//! Token values never influence the characterization (only sequence length,
//! batch size and vocabulary size do), but the *tasks* must be learnable so
//! the substrate can demonstrate decreasing loss. Sequences are built from
//! Zipf-distributed tokens partitioned into two "topics"; the next-sentence
//! pair shares the topic when `IsNext`, and masked-LM masking follows
//! BERT's 15% / 80-10-10 recipe.

use bertscope_kernels::loss::IGNORE_INDEX;
use bertscope_model::BertConfig;
use bertscope_tensor::init::Zipf;
use rand::distributions::Distribution;
use rand::Rng;

/// Reserved token ids, mirroring BERT's `WordPiece` specials.
pub mod special {
    /// Padding token.
    pub const PAD: usize = 0;
    /// Classification token, first in every sequence.
    pub const CLS: usize = 1;
    /// Separator token between and after the two sentences.
    pub const SEP: usize = 2;
    /// Mask token for masked-LM.
    pub const MASK: usize = 3;
    /// First ordinary vocabulary id.
    pub const FIRST_WORD: usize = 4;
}

/// One pre-training mini-batch.
#[derive(Debug, Clone)]
pub struct PretrainBatch {
    /// Token ids, row-major `[B * n]`.
    pub input_ids: Vec<usize>,
    /// Segment (sentence A/B) ids, `[B * n]`.
    pub segment_ids: Vec<usize>,
    /// Position ids, `[B * n]` (0..n per sequence).
    pub position_ids: Vec<usize>,
    /// Masked-LM targets: original token id at masked positions,
    /// [`IGNORE_INDEX`] elsewhere. `[B * n]`.
    pub mlm_targets: Vec<usize>,
    /// Next-sentence labels, `[B]` (1 = `IsNext`).
    pub nsp_labels: Vec<usize>,
    /// Real (unpadded) length of each sequence, `[B]`.
    pub lengths: Vec<usize>,
}

/// Synthetic corpus generator.
#[derive(Debug, Clone)]
pub struct SyntheticCorpus {
    vocab: usize,
    zipf: Zipf,
    mask_rate: f64,
}

impl SyntheticCorpus {
    /// A corpus over `vocab` tokens with BERT's 15% masking rate.
    ///
    /// # Panics
    ///
    /// Panics when `vocab` leaves no room for ordinary words.
    #[must_use]
    pub fn new(vocab: usize) -> Self {
        assert!(vocab > special::FIRST_WORD + 8, "vocab {vocab} too small");
        let words = vocab - special::FIRST_WORD;
        SyntheticCorpus { vocab, zipf: Zipf::new(words, 1.1), mask_rate: 0.15 }
    }

    /// The vocabulary size.
    #[must_use]
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Sample a word id belonging to `topic` (0 or 1): topics partition the
    /// ordinary vocabulary by parity, keeping both Zipf-shaped.
    fn sample_word<R: Rng + ?Sized>(&self, rng: &mut R, topic: usize) -> usize {
        let base = self.zipf.sample(rng);
        let id = special::FIRST_WORD + base;
        // Force parity to encode the topic, staying in range.
        let id = if id % 2 == topic % 2 { id } else { id + 1 };
        if id >= self.vocab {
            id - 2
        } else {
            id
        }
    }

    /// Generate one batch shaped for `cfg` (every sequence full length).
    pub fn generate_batch<R: Rng + ?Sized>(&self, rng: &mut R, cfg: &BertConfig) -> PretrainBatch {
        self.generate_batch_with_lengths(rng, cfg, &vec![cfg.seq_len; cfg.batch])
    }

    /// Generate a batch with variable sequence lengths drawn uniformly from
    /// `[min_len, n]`; shorter sequences are PAD-filled (real corpora are
    /// heterogeneous — paper §3.1.4's discussion of NLP iteration
    /// heterogeneity).
    ///
    /// # Panics
    ///
    /// Panics when `min_len < 8` (a sequence needs room for its specials).
    pub fn generate_padded_batch<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        cfg: &BertConfig,
        min_len: usize,
    ) -> PretrainBatch {
        assert!(min_len >= 8, "min_len must leave room for [CLS]/[SEP] structure");
        let lengths: Vec<usize> =
            (0..cfg.batch).map(|_| rng.gen_range(min_len..=cfg.seq_len)).collect();
        self.generate_batch_with_lengths(rng, cfg, &lengths)
    }

    /// Generate a batch whose sequence `i` has `lengths[i]` real tokens
    /// followed by PAD.
    ///
    /// # Panics
    ///
    /// Panics when `lengths` does not have `cfg.batch` entries or any length
    /// exceeds `cfg.seq_len`.
    pub fn generate_batch_with_lengths<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        cfg: &BertConfig,
        lengths: &[usize],
    ) -> PretrainBatch {
        assert_eq!(lengths.len(), cfg.batch, "one length per sequence");
        assert!(lengths.iter().all(|&l| 3 < l && l <= cfg.seq_len), "lengths must fit");
        let n = cfg.seq_len;
        let b = cfg.batch;
        let mut input_ids = Vec::with_capacity(b * n);
        let mut segment_ids = Vec::with_capacity(b * n);
        let mut position_ids = Vec::with_capacity(b * n);
        let mut mlm_targets = vec![IGNORE_INDEX; b * n];
        let mut nsp_labels = Vec::with_capacity(b);

        #[allow(clippy::needless_range_loop)]
        for seq in 0..b {
            let real_len = lengths[seq];
            let topic_a = rng.gen_range(0..2usize);
            let is_next = rng.gen_bool(0.5);
            let topic_b = if is_next { topic_a } else { 1 - topic_a };
            nsp_labels.push(usize::from(is_next));

            // Layout: [CLS] a... [SEP] b... [SEP] PAD...
            let body = real_len - 3;
            let len_a = body / 2;
            let len_b = body - len_a;
            let mut ids = Vec::with_capacity(n);
            ids.push(special::CLS);
            for _ in 0..len_a {
                ids.push(self.sample_word(rng, topic_a));
            }
            ids.push(special::SEP);
            for _ in 0..len_b {
                ids.push(self.sample_word(rng, topic_b));
            }
            ids.push(special::SEP);
            debug_assert_eq!(ids.len(), real_len);
            ids.resize(n, special::PAD);

            let seg_boundary = 1 + len_a + 1;
            for (pos, &id) in ids.iter().enumerate() {
                let maskable = id >= special::FIRST_WORD;
                let flat = seq * n + pos;
                let mut stored = id;
                if maskable && rng.gen_bool(self.mask_rate) {
                    mlm_targets[flat] = id;
                    let roll: f64 = rng.gen();
                    stored = if roll < 0.8 {
                        special::MASK
                    } else if roll < 0.9 {
                        special::FIRST_WORD + rng.gen_range(0..self.vocab - special::FIRST_WORD)
                    } else {
                        id
                    };
                }
                input_ids.push(stored);
                segment_ids.push(usize::from(pos >= seg_boundary));
                position_ids.push(pos);
            }
        }
        PretrainBatch {
            input_ids,
            segment_ids,
            position_ids,
            mlm_targets,
            nsp_labels,
            lengths: lengths.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> BertConfig {
        BertConfig::tiny()
    }

    #[test]
    fn batch_has_consistent_shapes() {
        let corpus = SyntheticCorpus::new(cfg().vocab);
        let mut rng = StdRng::seed_from_u64(1);
        let b = corpus.generate_batch(&mut rng, &cfg());
        let total = cfg().tokens();
        assert_eq!(b.input_ids.len(), total);
        assert_eq!(b.segment_ids.len(), total);
        assert_eq!(b.position_ids.len(), total);
        assert_eq!(b.mlm_targets.len(), total);
        assert_eq!(b.nsp_labels.len(), cfg().batch);
        assert!(b.input_ids.iter().all(|&id| id < cfg().vocab));
        assert!(b.position_ids.iter().all(|&p| p < cfg().seq_len));
    }

    #[test]
    fn sequences_have_bert_layout() {
        let corpus = SyntheticCorpus::new(cfg().vocab);
        let mut rng = StdRng::seed_from_u64(2);
        let b = corpus.generate_batch(&mut rng, &cfg());
        let n = cfg().seq_len;
        for s in 0..cfg().batch {
            let row = &b.input_ids[s * n..(s + 1) * n];
            // CLS may not be masked (specials are excluded from masking).
            assert_eq!(row[0], special::CLS);
            assert_eq!(*row.last().unwrap(), special::SEP);
            // Segment ids are 0 then 1, monotone.
            let segs = &b.segment_ids[s * n..(s + 1) * n];
            assert_eq!(segs[0], 0);
            assert_eq!(*segs.last().unwrap(), 1);
            assert!(segs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn masking_rate_is_roughly_15_percent() {
        let corpus = SyntheticCorpus::new(1000);
        let big = BertConfig { vocab: 1000, batch: 16, seq_len: 64, ..BertConfig::tiny() };
        let mut rng = StdRng::seed_from_u64(3);
        let b = corpus.generate_batch(&mut rng, &big);
        let masked = b.mlm_targets.iter().filter(|&&t| t != IGNORE_INDEX).count();
        let rate = masked as f64 / b.mlm_targets.len() as f64;
        assert!((0.09..0.20).contains(&rate), "masking rate {rate}");
        // Most masked positions show the MASK token (the 80% branch).
        let mask_token = b
            .input_ids
            .iter()
            .zip(&b.mlm_targets)
            .filter(|(&id, &t)| t != IGNORE_INDEX && id == special::MASK)
            .count();
        assert!(mask_token as f64 / masked as f64 > 0.6);
    }

    #[test]
    fn nsp_topics_correlate_with_labels() {
        let corpus = SyntheticCorpus::new(1000);
        let big = BertConfig { vocab: 1000, batch: 64, seq_len: 32, ..BertConfig::tiny() };
        let mut rng = StdRng::seed_from_u64(4);
        let b = corpus.generate_batch(&mut rng, &big);
        let n = big.seq_len;
        let mut agree = 0;
        for s in 0..big.batch {
            let row = &b.input_ids[s * n..(s + 1) * n];
            let segs = &b.segment_ids[s * n..(s + 1) * n];
            let parity = |filter_seg: usize| -> Option<usize> {
                let words: Vec<usize> = row
                    .iter()
                    .zip(segs)
                    .zip(&b.mlm_targets[s * n..(s + 1) * n])
                    .filter(|((&id, &sg), &t)| {
                        id >= special::FIRST_WORD && sg == filter_seg && t == IGNORE_INDEX
                    })
                    .map(|((&id, _), _)| id % 2)
                    .collect();
                if words.is_empty() {
                    None
                } else {
                    Some(usize::from(words.iter().sum::<usize>() * 2 > words.len()))
                }
            };
            if let (Some(pa), Some(pb)) = (parity(0), parity(1)) {
                let same_topic = pa == pb;
                if same_topic == (b.nsp_labels[s] == 1) {
                    agree += 1;
                }
            }
        }
        assert!(f64::from(agree) / big.batch as f64 > 0.85, "topic/label agreement {agree}/64");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let corpus = SyntheticCorpus::new(cfg().vocab);
        let b1 = corpus.generate_batch(&mut StdRng::seed_from_u64(7), &cfg());
        let b2 = corpus.generate_batch(&mut StdRng::seed_from_u64(7), &cfg());
        assert_eq!(b1.input_ids, b2.input_ids);
        assert_eq!(b1.mlm_targets, b2.mlm_targets);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_vocab_rejected() {
        let _ = SyntheticCorpus::new(4);
    }
}
