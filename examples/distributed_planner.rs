//! Distributed-training planner: compare data parallelism and tensor
//! slicing for BERT-Large across device counts and interconnects —
//! the paper's §5 analysis as a reusable tool.
//!
//! Also runs the real socket Ring AllReduce (over loopback, one thread per
//! worker) that grounds the communication model.
//!
//! Run with: `cargo run --release --example distributed_planner`

use bertscope::prelude::*;
use bertscope_dist::ring_allreduce;

fn main() {
    let gpu = GpuModel::mi100();
    let opts = GraphOptions::default();

    // The paper's Fig. 11 configuration set.
    println!("Per-device iteration breakdowns (paper Fig. 11):");
    let mut t = TextTable::new(["config", "description", "compute", "LAMB", "comm", "iteration"]);
    for pt in figure11_profiles(&gpu, &Link::pcie4()) {
        let p = &pt.profile;
        let comm = p.group_fraction(Group::Comm);
        t.row([
            pt.label.clone(),
            pt.description.clone(),
            pct(1.0 - comm - p.group_fraction(Group::Lamb)),
            pct(p.group_fraction(Group::Lamb)),
            pct(comm),
            format!("{:.0} ms", p.total_us() / 1000.0),
        ]);
    }
    println!("{}\n", t.render());

    // Tensor-slicing scaling: where does adding devices stop helping?
    println!("Tensor-slicing scaling on PCIe 4.0 vs a faster fabric (B=32):");
    let cfg = BertConfig::bert_large();
    let mut t =
        TextTable::new(["ways", "PCIe4 iteration", "PCIe4 comm", "xGMI iteration", "xGMI comm"]);
    for ways in [1usize, 2, 4, 8] {
        let pcie = tensor_slice_profile(&cfg, &opts, &gpu, &Link::pcie4(), ways);
        let xgmi = tensor_slice_profile(&cfg, &opts, &gpu, &Link::xgmi(), ways);
        t.row([
            format!("{ways}"),
            format!("{:.0} ms", pcie.total_us() / 1000.0),
            pct(pcie.group_fraction(Group::Comm)),
            format!("{:.0} ms", xgmi.total_us() / 1000.0),
            pct(xgmi.group_fraction(Group::Comm)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Communication share grows with slicing ways (Takeaway 13): slice within a node\n\
         on the fastest fabric available, data-parallel across nodes with overlap.\n"
    );

    // Ground the model: run the real socket Ring AllReduce on a
    // BERT-layer-sized gradient and compare measured traffic to the model.
    println!("Grounding the comm model with the real Ring AllReduce (4 workers, 12.6M floats):");
    let devices = 4;
    let len = 12_600_000; // one BERT-Large layer's parameters
    let mut buffers: Vec<Vec<f32>> = (0..devices).map(|i| vec![i as f32 + 1.0; len]).collect();
    let start = std::time::Instant::now();
    let stats = ring_allreduce(&mut buffers);
    let elapsed = start.elapsed();
    let expected = buffers[0][0];
    println!(
        "  reduced in {:?}; every element = {expected} (sum of 1..={devices}); \
         {} steps per bucket x {} buckets, {:.1} MB sent per worker",
        elapsed,
        stats.steps_per_bucket,
        stats.buckets,
        stats.bytes_sent as f64 / 1.0e6
    );
    let analytic = 2.0 * (devices as f64 - 1.0) / devices as f64 * (len * 4) as f64;
    println!(
        "  analytic volume 2(D-1)/D * bytes = {:.1} MB — matches the measured traffic",
        analytic / 1.0e6
    );
}
