//! Measured memory profile: cross-validation of the pooled allocator's
//! live-byte accounting against the analytical footprint model, the
//! paper-§4 checkpointing claim on *measured* bytes, and determinism of
//! the profile across worker-pool sizes.
//!
//! Every test here reads the allocator's process-global live-byte counter
//! through `Tracer` samples, so the tests serialize on one mutex — a
//! concurrently running test would perturb the measured peaks.

use bertscope::memory_profile_json;
use bertscope_check::check_memory;
use bertscope_model::{checkpoint_segments, parameter_count, BertConfig, GraphOptions, Precision};
use bertscope_sim::memory::{footprint, measured_to_model_ratio};
use bertscope_tensor::{alloc, pool, MemoryProfile, Tracer};
use bertscope_train::{Bert, Lamb, SyntheticCorpus, TrainOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An 8-layer miniature: big enough that `checkpoint_segments(8) = 3`
/// segment boundaries differ visibly from the full activation stash.
fn eight_layer() -> BertConfig {
    BertConfig {
        layers: 8,
        d_model: 64,
        heads: 4,
        d_ff: 256,
        vocab: 211,
        max_position: 48,
        seq_len: 32,
        batch: 4,
    }
}

/// Run one warmup step (so gradients, LAMB moments and master weights are
/// resident) and then one traced step + optimizer update from training
/// steady state. Returns the measured profile and the step's loss.
fn traced_steady_step(cfg: BertConfig, opts: TrainOptions) -> (MemoryProfile, f32) {
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(11);
    let mut bert = Bert::new(cfg, opts, 42);
    let mut opt = Lamb::new(0.01);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let mut quiet = Tracer::disabled();
    bert.train_step(&mut quiet, &batch).expect("warmup step");
    {
        let mut slots = bert.param_slots();
        opt.step(&mut quiet, &mut slots);
    }
    let mut tracer = Tracer::new();
    let out = bert.train_step(&mut tracer, &batch).expect("traced step");
    {
        let mut slots = bert.param_slots();
        opt.step(&mut tracer, &mut slots);
    }
    (tracer.memory_profile(), out.loss)
}

#[test]
fn checkpointing_reduces_the_measured_activation_peak() {
    let _g = lock();
    let cfg = eight_layer();
    let (plain, _) = traced_steady_step(cfg, TrainOptions::default());
    let (ck, _) =
        traced_steady_step(cfg, TrainOptions { checkpoint: true, ..TrainOptions::default() });

    // Paper §4 on measured bytes: recomputing from sqrt(N) segment
    // checkpoints must strictly lower the activation high-water mark.
    let plain_act = plain.peak_over_baseline();
    let ck_act = ck.peak_over_baseline();
    assert!(
        ck_act < plain_act,
        "checkpointing must lower the measured activation peak: {ck_act} vs {plain_act}"
    );

    // And the reduction must follow the sqrt(N)-segment curve: the
    // footprint model predicts the plain/checkpointed activation ratio
    // from `checkpoint_segments`; the measured ratio has to land within
    // 2x of it (the measured peak also carries transient GEMM pack
    // scratch and workspaces the closed form does not model).
    assert_eq!(checkpoint_segments(cfg.layers), 3);
    let modeled_plain = footprint(&cfg, &GraphOptions::default()).activations;
    let modeled_ck =
        footprint(&cfg, &GraphOptions { checkpoint: true, ..GraphOptions::default() }).activations;
    let modeled_ratio = modeled_plain as f64 / modeled_ck as f64;
    let measured_ratio = plain_act as f64 / ck_act as f64;
    assert!(modeled_ratio > 1.3, "model must predict a real reduction: {modeled_ratio}");
    assert!(
        measured_ratio > modeled_ratio / 2.0 && measured_ratio < modeled_ratio * 2.0,
        "measured activation ratio {measured_ratio:.2} vs modeled {modeled_ratio:.2}"
    );
}

#[test]
fn measured_peak_matches_the_footprint_model() {
    let _g = lock();
    // Two configurations, both f32 (the substrate stores every buffer as
    // f32, so Fp32 is the precision whose footprint the allocator can
    // reproduce byte-for-byte).
    for cfg in [BertConfig::tiny(), eight_layer()] {
        let (profile, _) = traced_steady_step(cfg, TrainOptions::default());
        let modeled = footprint(
            &cfg,
            &GraphOptions { precision: Precision::Fp32, ..GraphOptions::default() },
        );
        let ratio = measured_to_model_ratio(profile.peak_bytes, modeled.total());
        // Documented tolerance band [0.6, 1.8] (observed: 1.67 on the
        // 2-layer tiny config, 1.44 on the 8-layer miniature):
        //  * the substrate's LAMB keeps an f32 master copy even at Fp32
        //    (+4 bytes/param the model books only under mixed precision);
        //  * backward-pass transients (dx chains, per-head splits, GEMM
        //    pack scratch) are live at the peak but outside the model's
        //    saved-activation inventory — proportionally large on the
        //    miniature configurations this test can afford to execute;
        //  * conversely some of the modeled stash is already released
        //    before the measured peak.
        assert!(
            (0.6..=1.8).contains(&ratio),
            "cfg {} layers: measured {} vs modeled {} (ratio {ratio:.3})",
            cfg.layers,
            profile.peak_bytes,
            modeled.total()
        );
    }
}

#[test]
fn memory_profile_is_identical_across_thread_counts() {
    let _g = lock();
    let run = || traced_steady_step(BertConfig::tiny(), TrainOptions::default());
    let (base_profile, base_loss) = pool::with_threads(1, run);
    for threads in [2usize, 8] {
        let (profile, loss) = pool::with_threads(threads, run);
        assert_eq!(
            base_loss.to_bits(),
            loss.to_bits(),
            "loss differs between 1 and {threads} threads"
        );
        assert_eq!(base_profile, profile, "memory profile differs between 1 and {threads} threads");
    }
    assert!(base_profile.peak_bytes > base_profile.baseline_bytes);
}

#[test]
fn traced_step_passes_the_m001_memory_lint() {
    let _g = lock();
    let cfg = eight_layer();
    let (profile, _) = traced_steady_step(cfg, TrainOptions::default());
    // The peak of a steady-state training step must cover at least the
    // resident f32 weights + gradients.
    let resident_lower_bound = 2 * parameter_count(&cfg) * 4;
    let findings = check_memory(&profile, resident_lower_bound);
    assert!(findings.is_empty(), "M001 findings: {findings:?}");
    // Per-phase peaks must be present and exported alongside the trace.
    assert!(profile.peak_by_phase.len() >= 3, "phases: {:?}", profile.peak_by_phase);
    let json = memory_profile_json(&profile);
    assert!(json.contains("\"peak_by_phase\":{\"fwd\":"));
}

#[test]
fn a_step_does_not_keep_the_previous_steps_gradients_alive() {
    let _g = lock();
    let cfg = BertConfig::tiny();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(5);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let peaks: Vec<u64> = pool::with_threads(1, || {
        let mut bert = Bert::new(cfg, TrainOptions::default(), 42);
        let mut quiet = Tracer::disabled();
        (0..3)
            .map(|_| {
                alloc::reset_peak();
                bert.train_step(&mut quiet, &batch).expect("step");
                alloc::stats().peak_bytes
            })
            .collect()
    });
    // Every step peaks at the first step's bytes: the gradients a step
    // replaces are released before its forward pass, not after backward.
    assert_eq!(peaks[1], peaks[0], "step peaks {peaks:?}");
    assert_eq!(peaks[2], peaks[0], "step peaks {peaks:?}");
}
