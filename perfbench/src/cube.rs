//! The single-cube workloads: one convolution layer run layer by layer on
//! a fresh cube per operation.

use crate::check::{bit_exact, equals, inside, same_stats};
use crate::layers::{self, GoldenRow};
use crate::metrics::{median, peak_rss_mb, Metrics};
use crate::{inputs, Ctx, Report, Workload};
use neurocube::{Neurocube, SystemConfig};
use neurocube_fixed::{Activation, Q88};
use neurocube_golden::timing::{
    layer_bounds, service_envelope, CycleEnvelope, LayerBound, DEFAULT_SLACK,
};
use neurocube_nn::{Executor, LayerSpec, NetworkSpec, Shape, Tensor};
use neurocube_sim::StatsRegistry;

/// Cube set-ups per operation.
const SETUP_REPEATS: usize = 16;

/// A cube workload's fixed shape.
pub struct CubeShape {
    pub name: &'static str,
    pub cfg: SystemConfig,
    pub input: usize,
    pub maps: usize,
    pub kernel: usize,
    /// Simulated cycles recorded for this shape in `BENCH_sim.json`, when
    /// it keeps a recorded shape.
    pub recorded_cycles: Option<u64>,
}

/// `fig14_conv_k7_nodup` of `BENCH_sim.json`: paper HMC, no duplication,
/// every vault, router and PE busy every cycle.
pub fn dense() -> CubeShape {
    CubeShape {
        name: "cube_dense",
        cfg: SystemConfig::paper(false),
        input: 128,
        maps: 16,
        kernel: 7,
        recorded_cycles: Some(1_062_080),
    }
}

/// `fig15_conv96_ddr3` with the input plane shrunk from 96×96 to 48×48:
/// two DDR3 channels starve the 16 PEs, so most cycles are skippable.
pub fn ddr3_idle() -> CubeShape {
    CubeShape {
        name: "cube_ddr3_idle",
        cfg: SystemConfig::ddr3(),
        input: 48,
        maps: 16,
        kernel: 7,
        recorded_cycles: None,
    }
}

/// What one operation left behind that later operations must repeat.
struct Observed {
    cycles: u64,
    layer_cycles: Vec<u64>,
    skipped: u64,
    jumps: u64,
    stats: StatsRegistry,
}

pub struct CubeWorkload {
    shape: CubeShape,
    spec: NetworkSpec,
    params: Vec<Vec<Q88>>,
    input: Tensor,
    reference: Tensor,
    bounds: Vec<LayerBound>,
    envelope: CycleEnvelope,
    first: Option<Observed>,
    load_s: Vec<f64>,
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
}

impl CubeWorkload {
    /// Builds the inputs from the seed and the functional and timing
    /// references every operation is checked against.
    pub fn new(shape: CubeShape, ctx: &mut Ctx) -> CubeWorkload {
        let spec = NetworkSpec::new(
            Shape::new(1, shape.input, shape.input),
            vec![LayerSpec::conv(shape.maps, shape.kernel, Activation::Tanh)],
        )
        .expect("the benchmark shapes fit a cube");
        let params = spec.init_params(ctx.seed, 0.25);
        let input = inputs::tensor(spec.input_shape(), ctx.seed);
        let t = &mut ctx.tracer;
        let root = t.begin("prepare", 0);
        let (reference, _) = t.time("nn.predict", 0, || {
            Executor::new(spec.clone(), params.clone()).predict(&input)
        });
        let (bounds, _) = t.time("golden.layer_bounds", 0, || layer_bounds(&shape.cfg, &spec));
        let (envelope, _) = t.time("golden.service_envelope", 0, || {
            service_envelope(&shape.cfg, &spec, DEFAULT_SLACK)
        });
        t.end(root);
        CubeWorkload {
            shape,
            spec,
            params,
            input,
            reference,
            bounds,
            envelope,
            first: None,
            load_s: Vec::new(),
            setup_s: Vec::new(),
            run_s: Vec::new(),
        }
    }
}

impl Workload for CubeWorkload {
    fn iterate(&mut self, ctx: &mut Ctx, op: u64) {
        let t = &mut ctx.tracer;
        let root = t.begin(self.shape.name, op);
        // Set-up takes well under a millisecond, so it is repeated for a
        // steady median; the last cube built runs the inference.
        let mut built = None;
        for _ in 0..SETUP_REPEATS {
            let (mut cube, new_s) = t.time("core.Neurocube::new", op, || {
                Neurocube::new(self.shape.cfg.clone())
            });
            let (loaded, load_s) = t.time("core.load", op, || {
                cube.load(self.spec.clone(), self.params.clone())
            });
            self.load_s.push(load_s);
            self.setup_s.push(new_s + load_s);
            built = Some((cube, loaded));
        }
        let (mut cube, loaded) = built.expect("set up at least once");
        t.time("core.set_input", op, || {
            cube.set_input(&loaded, &self.input)
        });
        let mut layer_cycles = Vec::new();
        let mut run_s = 0.0;
        for i in 0..self.spec.depth() {
            let (report, secs) = t.time(&format!("core.run_layer[{i}]"), op, || {
                cube.run_layer(&loaded, i)
            });
            layer_cycles.push(report.cycles);
            run_s += secs;
        }
        let (output, _) = t.time("core.read_volume", op, || {
            cube.read_volume(&loaded, self.spec.depth())
        });
        let (stats, _) = t.time("core.stats_registry", op, || cube.stats_registry());
        t.end(root);

        let seen = Observed {
            cycles: layer_cycles.iter().sum(),
            layer_cycles,
            skipped: cube.skipped_cycles(),
            jumps: cube.horizon_jumps(),
            stats,
        };
        let mut results = vec![
            bit_exact(&self.reference, &output),
            inside(&self.envelope, seen.cycles, "inference cycles"),
        ];
        for (b, &c) in self.bounds.iter().zip(&seen.layer_cycles) {
            results.push(b.check(c, DEFAULT_SLACK).map_err(|v| v.to_string()));
        }
        if let Some(want) = self.shape.recorded_cycles {
            results.push(equals("inference cycles", seen.cycles, want));
        }
        match &self.first {
            None => self.first = Some(seen),
            Some(first) => {
                results.push(equals("cycles", seen.cycles, first.cycles));
                results.push(equals("skipped cycles", seen.skipped, first.skipped));
                results.push(equals("horizon jumps", seen.jumps, first.jumps));
                results.push(same_stats(&first.stats, &seen.stats));
            }
        }
        ctx.checks.operation(self.shape.name, results);
        self.run_s.push(run_s);
    }

    fn report(&self) -> Report {
        let first = self.first.as_ref().expect("at least one operation ran");
        let cycles = first.cycles;
        let run_s = median(&self.run_s);
        let cps: Vec<f64> = self.run_s.iter().map(|s| cycles as f64 / s).collect();
        let rps: Vec<f64> = self.run_s.iter().map(|s| 1.0 / s).collect();

        let mut end_to_end = Metrics::default();
        end_to_end.push("sim_cycles_per_s", median(&cps), "cycles/s");
        end_to_end.push("requests_per_s", median(&rps), "1/s");
        end_to_end.push("setup_s", median(&self.setup_s), "s");
        end_to_end.push("peak_rss_mb", peak_rss_mb(), "MiB");
        end_to_end.push("sim_cycles", cycles as f64, "cycles");
        end_to_end.push("latency_p50_cycles", cycles as f64, "cycles");
        end_to_end.push("latency_p99_cycles", cycles as f64, "cycles");
        end_to_end.push("goodput_per_mcycle", 1e6 / cycles as f64, "1/Mcycle");

        let rows: Vec<GoldenRow> = self
            .bounds
            .iter()
            .zip(&first.layer_cycles)
            .map(|(b, &c)| GoldenRow::from_bound(format!("layer {}", b.layer_index), b, Some(c)))
            .collect();
        let ticked = cycles - first.skipped;
        let mut values = vec![
            ("core.load_s", median(&self.load_s)),
            ("core.run_s", run_s),
            (
                "core.ns_per_ticked_cycle",
                run_s * 1e9 / ticked.max(1) as f64,
            ),
            ("sim.skipped_fraction", first.skipped as f64 / cycles as f64),
            ("sim.horizon_jumps", first.jumps as f64),
        ];
        values.extend(layers::hardware(&first.stats, cycles));
        values.extend(layers::golden(&rows, cycles, self.envelope.lower));
        Report {
            end_to_end,
            per_layer: values,
            latency_samples: self.run_s.len() as u64,
            shed_rate: 0.0,
            golden_rows: rows,
        }
    }
}
