//! Cluster scaling study — the paper's concluding future-work item
//! ("scaling this implementation across multiple cubes"), quantified on
//! the inter-cube SerDes fabric.
//!
//! Two questions, each over fabrics of 16, 32 and 64 cubes joined by
//! HMC-class external SerDes links (`NEUROCUBE_CLUSTER_*` knobs apply):
//!
//! * **Weak scaling** — the model grows with the fabric: a deep MLP
//!   whose 256×256 stages each exceed a shrunken vault region, so the
//!   certified planner must pipeline *and* band it across cubes. Per
//!   point: sharded pipeline throughput (measured, cycle-accurate, batch
//!   of 4) versus the single big cube and versus ideal replication.
//! * **Strong scaling** — the model is fixed (the 16-cube point's) while
//!   the fabric grows: the sharded plan is capacity-driven, so its
//!   latency stays put while replication keeps scaling — the quantified
//!   version of "pipeline parallelism buys model *size*, replication
//!   buys *throughput*".
//!
//! Determinism is asserted per point before any number is reported:
//! fresh-cluster reruns must be bitwise identical (outputs, cycles, and
//! the whole `cluster.*` registry), and the replicated arm must produce
//! bitwise-identical results serially and on `BatchRunner` threads.
//!
//! Results go to `BENCH_cluster.json` at the workspace root (override
//! with `NEUROCUBE_CLUSTER_BENCH_OUT`). Built-in sanity gate (the
//! `ci.sh --cluster` hook): on every multi-stage workload the pipelined
//! batch throughput must be *strictly* above the single-cube
//! throughput, and weak-scaling plans must occupy more cubes as the
//! fabric grows.

use neurocube::{Neurocube, SystemConfig};
use neurocube_bench::{header, Knobs};
use neurocube_cluster::{shard_graph, Cluster, ShardedGraph};
use neurocube_fixed::{Activation, Q88};
use neurocube_nn::{GraphBuilder, GraphSpec, LayerSpec, Shape, Tensor, INPUT};
use neurocube_sim::BatchRunner;
use std::path::PathBuf;

/// Fabric sizes under study.
const FABRICS: [usize; 3] = [16, 32, 64];
/// Pipelined batch size of the sharded throughput measurement.
const BATCH: usize = 4;
/// Vault region shrunk until one 256×256 stage (8 KiB/vault streamed
/// weights) no longer fits a single cube — the capacity pressure that
/// forces sharding.
const REGION_BYTES: u64 = 6 * 1024;

/// A depth-`d` chain of 256-wide fully connected stages plus a 16-way
/// head: every hidden stage exceeds the shrunken region on its own, so
/// the planner bands each across cubes and pipelines the chain.
fn deep_mlp(depth: usize) -> (GraphSpec, Vec<Vec<Q88>>) {
    let mut g = GraphBuilder::new(Shape::flat(256));
    let mut prev = INPUT.to_string();
    for i in 0..depth {
        let name = format!("fc{i}");
        g.layer(&name, &prev, LayerSpec::fc(256, Activation::Tanh));
        prev = name;
    }
    g.layer("head", &prev, LayerSpec::fc(16, Activation::Sigmoid));
    let graph = g.build().expect("the chain is a valid graph");
    let params = graph.init_params(31, 0.125);
    (graph, params)
}

fn ramp_input(len: usize) -> Tensor {
    let mut t = Tensor::zeros(len, 1, 1);
    for i in 0..len {
        t.set_at(i, Q88::from_f64(((i % 13) as f64 - 6.0) / 16.0));
    }
    t
}

struct Point {
    fabric: usize,
    depth: usize,
    cubes: usize,
    stages: usize,
    plan_lower: u64,
    link_lower: u64,
    latency_cycles: u64,
    batch_cycles: u64,
    sharded_thr: f64,
    single_cycles: u64,
    single_thr: f64,
    replicated_thr: f64,
    link_transfers: u64,
    link_bytes: u64,
    link_energy_j: f64,
    jumps: u64,
}

/// One replica of the whole model on a big-region cube: the building
/// block of both the single-cube baseline and the replicated arm.
fn replica_run(
    cfg: &SystemConfig,
    graph: &GraphSpec,
    params: &[Vec<Q88>],
    input: &Tensor,
) -> (Vec<u16>, u64) {
    let mut cube = Neurocube::new(cfg.clone());
    let loaded = cube
        .load_graph(graph, params.to_vec())
        .expect("the big cube holds the whole model");
    let (out, report) = cube.run_graph_inference(&loaded, input);
    let bits = out.as_slice().iter().map(|q| q.to_bits() as u16).collect();
    (bits, report.total_cycles())
}

/// Measures one sharded workload on one fabric, asserting every
/// determinism contract before reporting.
fn measure(fabric: usize, depth: usize, plan: ShardedGraph, cfg: &SystemConfig) -> Point {
    let input = ramp_input(plan.input_shape().len());
    let cubes = plan.cubes();
    let stages = plan.stages.len();
    let (plan_lower, link_lower) = (plan.lower, plan.link_lower);
    let envelope = plan.envelope;

    // Sharded arm: fresh-cluster latency, then a pipelined batch.
    let mut cluster = Cluster::new(cfg, plan.clone()).expect("certified plan loads");
    let (out, r1) = cluster.run(&input);
    envelope
        .check(r1.cycles)
        .expect("measured latency inside the certified envelope");
    let inputs: Vec<Tensor> = (0..BATCH).map(|_| input.clone()).collect();
    let (outs, rb) = cluster.run_batch(&inputs);
    for o in &outs {
        assert_eq!(o.as_slice(), out.as_slice(), "batch members diverge");
    }
    let stats = cluster.stats_registry();

    // Determinism: a fresh cluster rerun of the same batch is bitwise
    // identical — outputs, cycles, and the whole registry.
    let mut rerun = Cluster::new(cfg, plan).expect("certified plan loads");
    let (out2, r2) = rerun.run(&input);
    let (outs2, rb2) = rerun.run_batch(&inputs);
    assert_eq!(out2.as_slice(), out.as_slice(), "rerun output diverges");
    assert_eq!(r2.cycles, r1.cycles, "rerun latency diverges");
    assert_eq!(rb2.cycles, rb.cycles, "rerun batch cycles diverge");
    assert_eq!(outs2.len(), outs.len());
    if let Some(diff) = stats.first_difference(&rerun.stats_registry()) {
        panic!("fabric {fabric}: rerun registry diverges: {diff}");
    }

    // Replicated arm: the same model whole on big-region cubes, the same
    // BATCH inputs — serially and on BatchRunner threads, bitwise equal.
    let mut big_cfg = cfg.clone();
    big_cfg.memory.region_bytes = 256 << 20;
    let (graph, params) = (rerun.plan().graph.clone(), rerun.plan().params.clone());
    let serial: Vec<(Vec<u16>, u64)> = (0..BATCH)
        .map(|_| replica_run(&big_cfg, &graph, &params, &input))
        .collect();
    let threaded: Vec<(Vec<u16>, u64)> =
        BatchRunner::new().run(BATCH, |_| replica_run(&big_cfg, &graph, &params, &input));
    assert_eq!(serial, threaded, "replicated serial vs threaded diverge");
    let single_cycles = serial[0].1;
    assert_eq!(
        serial[0].0,
        out.as_slice()
            .iter()
            .map(|q| q.to_bits() as u16)
            .collect::<Vec<u16>>(),
        "sharded output diverges from the single-big-cube reference"
    );

    Point {
        fabric,
        depth,
        cubes,
        stages,
        plan_lower,
        link_lower,
        latency_cycles: r1.cycles,
        batch_cycles: rb.cycles,
        sharded_thr: BATCH as f64 * 1e6 / rb.cycles as f64,
        single_cycles,
        single_thr: 1e6 / single_cycles as f64,
        replicated_thr: fabric as f64 * 1e6 / single_cycles as f64,
        link_transfers: stats.counter("cluster.transfers"),
        link_bytes: stats.counter("cluster.bytes"),
        link_energy_j: stats.metric("cluster.energy_j"),
        jumps: r1.jumps + rb.jumps,
    }
}

fn print_point(kind: &str, p: &Point) {
    println!(
        "{:<7} {:<7} {:>6} {:>6} {:>7} {:>12} {:>12} {:>11.2} {:>11.2} {:>11.2} {:>10} {:>12.3e}",
        kind,
        p.fabric,
        p.depth,
        p.cubes,
        p.stages,
        p.latency_cycles,
        p.single_cycles,
        p.sharded_thr,
        p.single_thr,
        p.replicated_thr,
        p.link_transfers,
        p.link_energy_j,
    );
}

fn json_point(p: &Point) -> String {
    format!(
        "    {{\"fabric\": {}, \"depth\": {}, \"cubes\": {}, \"stages\": {}, \
         \"plan_lower\": {}, \"link_lower\": {}, \"latency_cycles\": {}, \
         \"batch\": {}, \"batch_cycles\": {}, \"sharded_jobs_per_mcycle\": {:.4}, \
         \"single_cycles\": {}, \"single_jobs_per_mcycle\": {:.4}, \
         \"replicated_jobs_per_mcycle\": {:.4}, \"link_transfers\": {}, \
         \"link_bytes\": {}, \"link_energy_j\": {:.6e}, \"jumps\": {}}}",
        p.fabric,
        p.depth,
        p.cubes,
        p.stages,
        p.plan_lower,
        p.link_lower,
        p.latency_cycles,
        BATCH,
        p.batch_cycles,
        p.sharded_thr,
        p.single_cycles,
        p.single_thr,
        p.replicated_thr,
        p.link_transfers,
        p.link_bytes,
        p.link_energy_j,
        p.jumps,
    )
}

fn write_json(weak: &[Point], strong: &[Point], path: &PathBuf) {
    let section = |pts: &[Point]| pts.iter().map(json_point).collect::<Vec<_>>().join(",\n");
    let out = format!(
        "{{\n  \"weak\": [\n{}\n  ],\n  \"strong\": [\n{}\n  ]\n}}\n",
        section(weak),
        section(strong)
    );
    std::fs::write(path, out).expect("write BENCH_cluster.json");
}

fn main() {
    header(
        "BENCH_cluster",
        "sharded vs replicated scaling over 16-64 cube SerDes fabrics",
    );
    let mut cfg = SystemConfig::paper(true);
    cfg.memory.region_bytes = REGION_BYTES;
    let knobs = Knobs::from_env();
    let link_for = |fabric: usize| {
        knobs.link(fabric).unwrap_or_else(|e| {
            eprintln!("scaling_multicube: NEUROCUBE_CLUSTER_*: {e}");
            std::process::exit(2);
        })
    };

    println!(
        "{:<7} {:<7} {:>6} {:>6} {:>7} {:>12} {:>12} {:>11} {:>11} {:>11} {:>10} {:>12}",
        "study",
        "fabric",
        "depth",
        "cubes",
        "stages",
        "latency",
        "1-cube lat",
        "shard thr",
        "1-cube thr",
        "repl thr",
        "transfers",
        "link J",
    );
    let mut weak: Vec<Point> = Vec::new();
    for fabric in FABRICS {
        let depth = fabric / 4;
        let (graph, params) = deep_mlp(depth);
        let link = link_for(fabric);
        let plan = shard_graph(&cfg, &graph, &params, &link).expect("the model shards");
        let p = measure(fabric, depth, plan, &cfg);
        print_point("weak", &p);
        weak.push(p);
    }

    // Strong scaling: the 16-cube point's model on every fabric.
    let depth = FABRICS[0] / 4;
    let (graph, params) = deep_mlp(depth);
    let mut strong: Vec<Point> = Vec::new();
    for fabric in FABRICS {
        let link = link_for(fabric);
        let plan = shard_graph(&cfg, &graph, &params, &link).expect("the model shards");
        let p = measure(fabric, depth, plan, &cfg);
        print_point("strong", &p);
        strong.push(p);
    }

    // Sanity gates. Every workload here is multi-stage by construction;
    // the pipelined batch must beat the single cube outright, and the
    // weak-scaling plans must actually grow into the fabric.
    for p in weak.iter().chain(&strong) {
        assert!(
            p.stages > 1,
            "fabric {}: expected a multi-stage plan",
            p.fabric
        );
        assert!(
            p.sharded_thr > p.single_thr,
            "fabric {}: pipelined throughput {:.3} jobs/Mcycle does not beat \
             the single cube's {:.3}",
            p.fabric,
            p.sharded_thr,
            p.single_thr
        );
    }
    for w in weak.windows(2) {
        assert!(
            w[1].cubes > w[0].cubes,
            "weak scaling must occupy more cubes as the fabric grows \
             ({} cubes at fabric {}, {} at {})",
            w[0].cubes,
            w[0].fabric,
            w[1].cubes,
            w[1].fabric
        );
    }
    println!(
        "\nsanity gates passed: pipelined batches beat the single cube on every \
         point, and weak-scaling plans grow {} -> {} cubes across fabrics {} -> {}.\n\
         reading: sharding buys model SIZE (a {}-layer MLP that fits no single \
         cube serves at full accuracy); replication buys THROUGHPUT (ideal n x \
         single-cube). The strong-scaling rows are flat in latency because the \
         plan is capacity-driven: extra fabric does not shrink a fixed model's \
         critical path.",
        weak.first().map_or(0, |p| p.cubes),
        weak.last().map_or(0, |p| p.cubes),
        FABRICS[0],
        FABRICS[2],
        weak.last().map_or(0, |p| p.depth) + 1,
    );

    let out = std::env::var_os("NEUROCUBE_CLUSTER_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_cluster.json")
        });
    write_json(&weak, &strong, &out);
    println!("wrote {}", out.display());
}
