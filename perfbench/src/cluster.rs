//! The 32-cube mesh workload: a deep MLP sharded across a SerDes-linked
//! cluster, one inference and then a pipelined batch per operation.

use crate::check::{equals, inside, same_stats};
use crate::layers::{self, GoldenRow};
use crate::metrics::{median, peak_rss_mb, Metrics};
use crate::{inputs, Ctx, Report, Workload};
use neurocube::SystemConfig;
use neurocube_cluster::{shard_graph, Cluster, LinkConfig, ShardedGraph};
use neurocube_fixed::{Activation, Q88};
use neurocube_golden::timing::{graph_bounds, CycleEnvelope};
use neurocube_golden::GoldenGraph;
use neurocube_nn::{GraphBuilder, GraphSpec, LayerSpec, Shape, Tensor, INPUT};
use neurocube_sim::StatsRegistry;

pub const NAME: &str = "cluster_mesh32";
/// The 32-cube weak-scaling point of `BENCH_cluster.json`.
const FABRIC: usize = 32;
const DEPTH: usize = 8;
const WIDTH: usize = 256;
/// A vault region too small for one 256×256 stage, so the planner must
/// band every stage across cubes as well as pipeline the chain.
const REGION_BYTES: u64 = 6 * 1024;
/// Inferences in the pipelined batch.
const BATCH: usize = 4;

/// The fabric-32 weak-scaling row of `BENCH_cluster.json`: cubes,
/// stages, plan lower bound, link lower bound, single-inference latency
/// and batch makespan.
const RECORDED: [(&str, u64); 6] = [
    ("cubes", 19),
    ("stages", 9),
    ("plan lower", 30_660),
    ("link lower", 12_740),
    ("latency", 54_336),
    ("batch makespan", 66_304),
];

/// The plan's figures, fixed by the first operation.
struct Plan {
    cubes: u64,
    stages: u64,
    lower: u64,
    link_lower: u64,
    envelope: CycleEnvelope,
    rows: Vec<GoldenRow>,
}

impl Plan {
    fn of(cfg: &SystemConfig, plan: &ShardedGraph) -> Plan {
        let rows = plan
            .stages
            .iter()
            .enumerate()
            .map(|(i, stage)| {
                // Parts of a stage run side by side; the slowest part's
                // bound is the stage's.
                let part = stage
                    .parts
                    .iter()
                    .map(|p| sum_bounds(cfg, &p.graph))
                    .max_by_key(|r| r.lower)
                    .expect("a stage has parts");
                GoldenRow {
                    label: format!("stage {i} ({} cubes)", stage.parts.len()),
                    lower: stage.lower,
                    ..part
                }
            })
            .collect();
        Plan {
            cubes: plan.cubes() as u64,
            stages: plan.stages.len() as u64,
            lower: plan.lower,
            link_lower: plan.link_lower,
            envelope: plan.envelope,
            rows,
        }
    }

    fn recorded(&self, latency: u64, makespan: u64) -> [u64; 6] {
        [
            self.cubes,
            self.stages,
            self.lower,
            self.link_lower,
            latency,
            makespan,
        ]
    }
}

/// A part's bound terms summed over its phases.
fn sum_bounds(cfg: &SystemConfig, graph: &GraphSpec) -> GoldenRow {
    let bounds = graph_bounds(cfg, graph);
    let sum = |f: fn(&neurocube_golden::LayerBound) -> u64| bounds.iter().map(f).sum();
    GoldenRow {
        label: String::new(),
        mac: sum(|b| b.mac_cycles),
        pe_packet: sum(|b| b.pe_packet_cycles),
        port: sum(|b| b.port_cycles),
        dram: sum(|b| b.dram_cycles),
        lower: sum(|b| b.lower()),
        measured: None,
    }
}

struct Observed {
    latency: u64,
    makespan: u64,
    skipped: u64,
    jumps: u64,
    stats: StatsRegistry,
}

pub struct ClusterWorkload {
    cfg: SystemConfig,
    graph: GraphSpec,
    params: Vec<Vec<Q88>>,
    link: LinkConfig,
    inputs: Vec<Tensor>,
    golden: GoldenGraph,
    plan: Option<Plan>,
    plan_rss_mb: f64,
    first: Option<Observed>,
    plan_s: Vec<f64>,
    new_s: Vec<f64>,
    run_s: Vec<f64>,
}

impl ClusterWorkload {
    pub fn new(ctx: &mut Ctx) -> ClusterWorkload {
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = REGION_BYTES;
        let mut g = GraphBuilder::new(Shape::flat(WIDTH));
        let mut prev = INPUT.to_string();
        for i in 0..DEPTH {
            let name = format!("fc{i}");
            g.layer(&name, &prev, LayerSpec::fc(WIDTH, Activation::Tanh));
            prev = name;
        }
        g.layer("head", &prev, LayerSpec::fc(16, Activation::Sigmoid));
        let graph = g.build().expect("the chain is a valid graph");
        let params = graph.init_params(ctx.seed, 0.125);
        let inputs = (0..BATCH as u64)
            .map(|k| inputs::tensor(graph.input_shape(), inputs::derive(ctx.seed, k)))
            .collect();
        let t = &mut ctx.tracer;
        let root = t.begin("prepare", 0);
        let (golden, _) = t.time("golden.GoldenGraph::from_quantized", 0, || {
            GoldenGraph::from_quantized(graph.clone(), params.clone())
        });
        t.end(root);
        ClusterWorkload {
            cfg,
            graph,
            params,
            link: LinkConfig::hmc_ext(FABRIC),
            inputs,
            golden,
            plan: None,
            plan_rss_mb: 0.0,
            first: None,
            plan_s: Vec::new(),
            new_s: Vec::new(),
            run_s: Vec::new(),
        }
    }
}

impl Workload for ClusterWorkload {
    fn iterate(&mut self, ctx: &mut Ctx, op: u64) {
        let t = &mut ctx.tracer;
        let root = t.begin(NAME, op);
        let (plan, plan_s) = t.time("cluster.shard_graph", op, || {
            shard_graph(&self.cfg, &self.graph, &self.params, &self.link)
        });
        if self.plan.is_none() {
            self.plan_rss_mb = peak_rss_mb();
        }
        let plan = match plan {
            Ok(p) => p,
            Err(e) => {
                t.end(root);
                let e = Err(format!("shard_graph: {e}"));
                return ctx.checks.operations(NAME, 1 + BATCH as u64, vec![e]);
            }
        };
        let summary = self.plan.get_or_insert_with(|| Plan::of(&self.cfg, &plan));
        let (cluster, new_s) = t.time("cluster.Cluster::new", op, || Cluster::new(&self.cfg, plan));
        let mut cluster = match cluster {
            Ok(c) => c,
            Err(e) => {
                t.end(root);
                let e = Err(format!("Cluster::new: {e}"));
                return ctx.checks.operations(NAME, 1 + BATCH as u64, vec![e]);
            }
        };
        let ((single, r1), s1) = t.time("cluster.run", op, || cluster.run(&self.inputs[0]));
        let ((outs, rb), s2) = t.time("cluster.run_batch", op, || cluster.run_batch(&self.inputs));
        let (stats, _) = t.time("cluster.stats_registry", op, || cluster.stats_registry());

        let mut shared = vec![
            inside(&summary.envelope, r1.cycles, "single-inference latency"),
            if rb.cycles >= summary.envelope.lower {
                Ok(())
            } else {
                Err(format!(
                    "batch makespan {} below one inference's lower bound {}",
                    rb.cycles, summary.envelope.lower
                ))
            },
        ];
        let got = summary.recorded(r1.cycles, rb.cycles);
        for ((what, want), got) in RECORDED.iter().zip(got) {
            shared.push(equals(what, got, *want));
        }
        let seen = Observed {
            latency: r1.cycles,
            makespan: rb.cycles,
            skipped: r1.skipped_cycles + rb.skipped_cycles,
            jumps: r1.jumps + rb.jumps,
            stats,
        };
        match &self.first {
            None => self.first = Some(seen),
            Some(first) => {
                shared.push(equals("latency", seen.latency, first.latency));
                shared.push(equals("batch makespan", seen.makespan, first.makespan));
                shared.push(equals("skipped cycles", seen.skipped, first.skipped));
                shared.push(equals("horizon jumps", seen.jumps, first.jumps));
                shared.push(same_stats(&first.stats, &seen.stats));
            }
        }
        let pairs =
            std::iter::once((&self.inputs[0], &single)).chain(self.inputs.iter().zip(&outs));
        let (golden_results, _) = t.time("golden.check_output", op, || {
            pairs
                .map(|(input, output)| {
                    self.golden
                        .check_output(input, output)
                        .map_err(|d| d.to_string())
                })
                .collect::<Vec<_>>()
        });
        t.end(root);
        for result in golden_results {
            let mut results = shared.clone();
            results.push(result);
            ctx.checks.operation(NAME, results);
        }
        if outs.len() != BATCH {
            let e = Err(format!("{} batch outputs for {BATCH} inputs", outs.len()));
            ctx.checks.operation(NAME, vec![e]);
        }
        self.plan_s.push(plan_s);
        self.new_s.push(new_s);
        self.run_s.push(s1 + s2);
    }

    fn report(&self) -> Report {
        let first = self.first.as_ref().expect("at least one operation ran");
        let plan = self.plan.as_ref().expect("the plan was built");
        let cycles = first.latency + first.makespan;
        let run_s = median(&self.run_s);
        let cps: Vec<f64> = self.run_s.iter().map(|s| cycles as f64 / s).collect();
        let rps: Vec<f64> = self.run_s.iter().map(|s| (1 + BATCH) as f64 / s).collect();
        let setup: Vec<f64> = self
            .plan_s
            .iter()
            .zip(&self.new_s)
            .map(|(p, n)| p + n)
            .collect();

        let mut end_to_end = Metrics::default();
        end_to_end.push("sim_cycles_per_s", median(&cps), "cycles/s");
        end_to_end.push("requests_per_s", median(&rps), "1/s");
        end_to_end.push("setup_s", median(&setup), "s");
        end_to_end.push("peak_rss_mb", peak_rss_mb(), "MiB");
        end_to_end.push("sim_cycles", first.makespan as f64, "cycles");
        end_to_end.push("latency_p50_cycles", first.latency as f64, "cycles");
        end_to_end.push("latency_p99_cycles", first.latency as f64, "cycles");
        end_to_end.push(
            "goodput_per_mcycle",
            BATCH as f64 * 1e6 / first.makespan as f64,
            "1/Mcycle",
        );

        let skipped = first.skipped as f64 / cycles as f64;
        let stat = |k: &str| first.stats.counter(k) as f64;
        let mut values = vec![
            ("sim.skipped_fraction", skipped),
            ("sim.horizon_jumps", first.jumps as f64),
            ("cluster.plan_s", median(&self.plan_s)),
            ("cluster.plan_rss_mb", self.plan_rss_mb),
            ("cluster.new_s", median(&self.new_s)),
            ("cluster.run_s", run_s),
            (
                "cluster.ns_per_cube_cycle",
                run_s * 1e9 / (plan.cubes * cycles) as f64,
            ),
            ("cluster.cubes", plan.cubes as f64),
            ("cluster.stages", plan.stages as f64),
            ("cluster.plan_lower_cycles", plan.lower as f64),
            ("cluster.link_lower_cycles", plan.link_lower as f64),
            (
                "cluster.cycles_over_plan_lower",
                first.latency as f64 / plan.lower as f64,
            ),
            ("cluster.transfers", stat("cluster.transfers")),
            ("cluster.bytes", stat("cluster.bytes")),
            ("cluster.link_busy_cycles", stat("cluster.link_busy_cycles")),
            ("cluster.skipped_fraction", skipped),
        ];
        values.extend(layers::hardware(&first.stats, cycles));
        values.extend(layers::golden(
            &plan.rows,
            first.latency,
            plan.envelope.lower,
        ));
        Report {
            end_to_end,
            per_layer: values,
            latency_samples: self.run_s.len() as u64,
            shed_rate: 0.0,
            golden_rows: plan.rows.clone(),
        }
    }
}
