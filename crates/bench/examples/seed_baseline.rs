//! Re-pins the `bench_sim` seed-baseline constants: times the five
//! `BENCH_sim` workloads and prints cycles-per-second for each. The loop
//! skips unless `NEUROCUBE_NO_SKIP` is set, so run it with
//! `NEUROCUBE_NO_SKIP=1` for the naive column.
//!
//! To regenerate `SEED_NAIVE_CPS` in `benches/bench_sim.rs` on new
//! reference hardware: check out the pinned seed commit in a worktree,
//! copy this file in (the workload table predates it there), replace the
//! `Knobs`/`run_inference_mode` call with the seed's `run_inference`
//! (the seed reads `NEUROCUBE_NO_SKIP` itself), build `--release`, run
//! with `NEUROCUBE_NO_SKIP=1`, and transcribe the `cps` column. Run it on
//! the current tree to sanity-check the naive column of `BENCH_sim.json`
//! instead.

use neurocube::SystemConfig;
use neurocube_bench::{run_inference_mode, Knobs};
use neurocube_fixed::Activation;
use neurocube_nn::{LayerSpec, NetworkSpec, Shape};
use std::time::Instant;

fn conv_net(input: usize, maps: usize, kernel: usize) -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, input, input),
        vec![LayerSpec::conv(maps, kernel, Activation::Tanh)],
    )
    .expect("geometry fits")
}

fn fc_net(inputs: usize, hidden: usize) -> NetworkSpec {
    NetworkSpec::new(
        Shape::flat(inputs),
        vec![LayerSpec::fc(hidden, Activation::Sigmoid)],
    )
    .expect("geometry fits")
}

fn main() {
    let skip = Knobs::from_env().skip;
    let workloads: Vec<(&str, SystemConfig, NetworkSpec, u64)> = vec![
        (
            "fig14_conv_k3_dup",
            SystemConfig::paper(true),
            conv_net(128, 16, 3),
            14,
        ),
        (
            "fig14_conv_k7_nodup",
            SystemConfig::paper(false),
            conv_net(128, 16, 7),
            14,
        ),
        (
            "fig14_fc_2048x1024_dup",
            SystemConfig::paper(true),
            fc_net(2048, 1024),
            14,
        ),
        (
            "fig15_conv96_hmc16",
            SystemConfig::hmc_with_channels(16),
            conv_net(96, 16, 7),
            15,
        ),
        (
            "fig15_conv96_ddr3",
            SystemConfig::ddr3(),
            conv_net(96, 16, 7),
            15,
        ),
    ];
    for (name, cfg, spec, seed) in workloads {
        let start = Instant::now();
        let (report, _, _) = run_inference_mode(cfg, &spec, seed, skip);
        let secs = start.elapsed().as_secs_f64();
        let cycles = report.total_cycles();
        println!(
            "{name} cycles={cycles} secs={secs:.3} cps={:.0}",
            cycles as f64 / secs
        );
    }
}
