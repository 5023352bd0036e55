//! End-to-end benchmarks of the executable training substrate: full
//! train-step iterations (FP32, mixed precision, checkpointed), optimizer
//! steps, and the loopback socket Ring AllReduce.

use bertscope_dist::ring_allreduce;
use bertscope_model::{BertConfig, Precision};
use bertscope_tensor::{Tensor, Tracer};
use bertscope_train::{Bert, Lamb, ParamSlot, SyntheticCorpus, TrainOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_cfg() -> BertConfig {
    // A 2-layer, d=64 model: large enough to exercise every code path,
    // small enough for a CPU bench iteration.
    BertConfig {
        layers: 2,
        d_model: 64,
        heads: 4,
        d_ff: 256,
        vocab: 211,
        max_position: 64,
        seq_len: 32,
        batch: 4,
    }
}

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    let cfg = bench_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(1);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let variants = [
        ("fp32", TrainOptions::default()),
        (
            "mixed",
            TrainOptions {
                precision: Precision::Mixed,
                loss_scale: 128.0,
                ..TrainOptions::default()
            },
        ),
        ("checkpointed", TrainOptions { checkpoint: true, ..TrainOptions::default() }),
        ("fused_qkv", TrainOptions { fused_qkv: true, ..TrainOptions::default() }),
    ];
    for (name, opts) in variants {
        group.bench_with_input(BenchmarkId::new("bert", name), &opts, |b, opts| {
            let mut bert = Bert::new(cfg, *opts, 3);
            b.iter(|| {
                let mut t = Tracer::disabled();
                bert.train_step(&mut t, &batch).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer");
    group.sample_size(10);
    // A LAMB step over a 1M-parameter synthetic model.
    let n = 1 << 20;
    group.bench_function("lamb_1m_params", |b| {
        let mut w = Tensor::ones(&[n]);
        let g = Tensor::full(&[n], 0.01);
        let mut opt = Lamb::new(0.001);
        b.iter(|| {
            let mut t = Tracer::disabled();
            opt.step(&mut t, &mut [ParamSlot { name: "l0.w", value: &mut w, grad: &g }]);
        })
    });
    group.finish();
}

fn bench_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_allreduce");
    group.sample_size(10);
    for devices in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("sum_1m_f32", devices), &devices, |b, &d| {
            b.iter(|| {
                let mut bufs: Vec<Vec<f32>> = (0..d).map(|i| vec![i as f32; 1 << 20]).collect();
                ring_allreduce(&mut bufs)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_train_step, bench_optimizer, bench_allreduce);
criterion_main!(benches);
