//! Checkpoint/resume integration tests: a full training-state checkpoint
//! (weights, optimizer moments, loss-scaler state, step counters), pushed
//! through its binary serialization, must continue *bit-exactly* — every
//! subsequent loss and every parameter identical to the uninterrupted run.

use bertscope_model::{BertConfig, Precision};
use bertscope_tensor::Tracer;
use bertscope_train::{
    Bert, Lamb, LossScaler, SyntheticCorpus, TrainCheckpoint, TrainOptions, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_cfg() -> BertConfig {
    BertConfig {
        layers: 2,
        d_model: 32,
        heads: 4,
        d_ff: 64,
        vocab: 101,
        max_position: 24,
        seq_len: 16,
        batch: 4,
    }
}

/// Run `steps` micro-steps, returning each step's loss.
fn drive(
    trainer: &mut Trainer<Lamb>,
    bert: &mut Bert,
    batches: &[bertscope_train::PretrainBatch],
    steps: usize,
    offset: usize,
) -> Vec<f32> {
    let mut tr = Tracer::disabled();
    (0..steps)
        .map(|i| {
            let batch = &batches[(offset + i) % batches.len()];
            let (out, _) = trainer.micro_step(&mut tr, bert, batch).expect("clean run");
            out.loss
        })
        .collect()
}

fn resume_is_bit_exact(precision: Precision, scaler: fn() -> LossScaler, seed: u64) {
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(seed);
    let batches: Vec<_> = (0..3).map(|_| corpus.generate_batch(&mut rng, &cfg)).collect();
    let opts = TrainOptions { precision, ..TrainOptions::default() };

    // Reference: 4 + 6 uninterrupted micro-steps (k=2 accumulation).
    let mut ref_bert = Bert::new(cfg, opts, 33);
    let mut ref_trainer = Trainer::new(Lamb::new(0.02), 2).with_scaler(scaler());
    drive(&mut ref_trainer, &mut ref_bert, &batches, 4, 0);
    let ref_losses = drive(&mut ref_trainer, &mut ref_bert, &batches, 6, 4);

    // Interrupted run: same 4 steps, checkpoint at the window boundary,
    // serialize through the binary format, restore into a *differently
    // seeded* model (proving every weight comes from the checkpoint).
    let mut bert = Bert::new(cfg, opts, 33);
    let mut trainer = Trainer::new(Lamb::new(0.02), 2).with_scaler(scaler());
    drive(&mut trainer, &mut bert, &batches, 4, 0);
    let ckpt = trainer.checkpoint(&mut bert).expect("window boundary");
    let bytes = ckpt.to_bytes();
    drop((trainer, bert, ckpt));

    let restored = TrainCheckpoint::read_from(&mut bytes.as_slice()).expect("well-formed bytes");
    let mut bert2 = Bert::new(cfg, opts, 777); // different init, fully overwritten
    let mut trainer2 = Trainer::new(Lamb::new(0.02), 2).with_scaler(scaler());
    trainer2.restore(&restored, &mut bert2).expect("restore");
    assert_eq!(trainer2.micro_steps(), 4);
    assert_eq!(trainer2.updates(), 2);

    let resumed_losses = drive(&mut trainer2, &mut bert2, &batches, 6, 4);
    assert_eq!(ref_losses, resumed_losses, "resumed losses must be bit-identical");

    // And the final parameters agree bit-for-bit as well.
    let ref_params = ref_bert.param_values_mut();
    let res_params = bert2.param_values_mut();
    assert_eq!(ref_params.len(), res_params.len());
    for ((name_a, a), (name_b, b)) in ref_params.iter().zip(&res_params) {
        assert_eq!(name_a, name_b);
        assert_eq!(a.as_slice(), b.as_slice(), "{name_a} diverged after resume");
    }
}

#[test]
fn fp32_resume_is_bit_exact() {
    resume_is_bit_exact(Precision::Fp32, LossScaler::none, 61);
}

#[test]
fn mixed_precision_resume_is_bit_exact() {
    resume_is_bit_exact(Precision::Mixed, || LossScaler::dynamic(512.0), 67);
}

#[test]
fn restore_rejects_a_mismatched_model() {
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(71);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let mut bert = Bert::new(cfg, TrainOptions::default(), 5);
    let mut trainer = Trainer::new(Lamb::new(0.02), 1);
    let mut tr = Tracer::disabled();
    trainer.micro_step(&mut tr, &mut bert, &batch).expect("clean step");
    let ckpt = trainer.checkpoint(&mut bert).expect("boundary");

    // A model with a different width has differently-shaped parameters.
    let other_cfg = BertConfig { d_model: 64, d_ff: 128, ..small_cfg() };
    let mut other = Bert::new(other_cfg, TrainOptions::default(), 5);
    let mut other_trainer = Trainer::new(Lamb::new(0.02), 1);
    let err = other_trainer.restore(&ckpt, &mut other).expect_err("shape mismatch");
    assert!(err.to_string().contains("checkpoint"), "{err}");
}

/// A trainer and model that have taken one step, and a checkpoint of a
/// *different* run of the same shape to restore into them.
fn restore_target() -> (Trainer<Lamb>, Bert, TrainCheckpoint) {
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(73);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let mut tr = Tracer::disabled();
    let mut source = Bert::new(cfg, TrainOptions::default(), 5);
    let mut source_trainer = Trainer::new(Lamb::new(0.02), 1);
    source_trainer.micro_step(&mut tr, &mut source, &batch).expect("clean step");
    let ckpt = source_trainer.checkpoint(&mut source).expect("boundary");
    let mut bert = Bert::new(cfg, TrainOptions::default(), 6);
    let mut trainer = Trainer::new(Lamb::new(0.02), 1);
    trainer.micro_step(&mut tr, &mut bert, &batch).expect("clean step");
    (trainer, bert, ckpt)
}

/// Restoring `bad` fails and leaves weights, optimizer state, scaler and
/// counters exactly as they were.
fn assert_rejected_untouched(bad: &TrainCheckpoint) -> String {
    let (mut trainer, mut bert, _) = restore_target();
    let before = trainer.checkpoint(&mut bert).expect("boundary");
    let err = trainer.restore(bad, &mut bert).expect_err("inconsistent checkpoint");
    let after = trainer.checkpoint(&mut bert).expect("boundary");
    assert_eq!(before, after, "a rejected restore changed the training state");
    err.to_string()
}

#[test]
fn restore_rejects_a_short_master_slot_and_changes_nothing() {
    let (_, _, mut ckpt) = restore_target();
    let slot = ckpt.optimizer.slots.last_mut().expect("LAMB keeps state");
    slot.master.pop();
    let err = assert_rejected_untouched(&ckpt);
    assert!(err.contains("master"), "{err}");
}

#[test]
fn restore_rejects_a_last_parameter_shape_mismatch_and_changes_nothing() {
    let (_, _, mut ckpt) = restore_target();
    let last = ckpt.params.last_mut().expect("parameters");
    let numel: usize = last.dims.iter().product();
    last.dims = vec![1, numel];
    let err = assert_rejected_untouched(&ckpt);
    assert!(err.contains("shape mismatch"), "{err}");
}
