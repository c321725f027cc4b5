//! The repository benchmark: one workload per run, chosen by name, timed
//! from this package's own calls into the crates' public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cube_dense --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every operation is repeated (set-up included) until `--seconds` is
//! spent, at least twice, and checked: outputs against the functional
//! references, cycles against the certified bounds, repeats against the
//! first run. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer ones with `--trace 1`. The process
//! exits non-zero when any check failed. Everything runs on one thread.

mod check;
mod cluster;
mod cube;
mod inputs;
mod layers;
mod metrics;
mod serve;
mod trace;

use check::Checks;
use layers::GoldenRow;
use metrics::{median, result_line, Metrics};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{self_times_ns, spans_json, Tracer};

const WORKLOADS: [&str; 4] = ["cube_dense", "cube_ddr3_idle", cluster::NAME, serve::NAME];

/// The end-to-end metrics every workload reports, in order.
const END_TO_END: [&str; 8] = [
    "sim_cycles_per_s",
    "requests_per_s",
    "setup_s",
    "peak_rss_mb",
    "sim_cycles",
    "latency_p50_cycles",
    "latency_p99_cycles",
    "goodput_per_mcycle",
];

/// Every run makes at least two operations, so the determinism check
/// always has a repeat to compare with the first.
const MIN_OPERATIONS: usize = 2;

/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

const USAGE: &str =
    "usage: perfbench --workload <cube_dense|cube_ddr3_idle|cluster_mesh32|serve_steady> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// What every workload operation shares: the seed, the tracer and the
/// correctness tally.
pub struct Ctx {
    pub seed: u64,
    pub tracer: Tracer,
    pub checks: Checks,
}

/// A workload's figures over all its operations.
pub struct Report {
    pub end_to_end: Metrics,
    /// Per-layer values this workload measures; the rest report 0.
    pub per_layer: Vec<(&'static str, f64)>,
    pub latency_samples: u64,
    pub shed_rate: f64,
    pub golden_rows: Vec<GoldenRow>,
}

pub trait Workload {
    /// Sets up, runs and checks one operation, numbered `op`.
    fn iterate(&mut self, ctx: &mut Ctx, op: u64);
    fn report(&self) -> Report;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|s| (1..=600).contains(s)),
            "--trace" => trace = Some(number()?).filter(|t| *t <= 1).map(|t| t == 1),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be 1..=600")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The simulator reads NEUROCUBE_* variables for its mode switches and
    // fault injection; the benchmark measures the defaults only.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("NEUROCUBE_"))
    {
        eprintln!(
            "{} is set; the benchmark measures the defaults, so unset it",
            k.to_string_lossy()
        );
        return ExitCode::from(2);
    }

    let mut ctx = Ctx {
        seed: args.seed,
        tracer: Tracer::new(),
        checks: Checks::default(),
    };
    ctx.tracer.set_recording(args.trace);
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "cube_dense" => Box::new(cube::CubeWorkload::new(cube::dense(), &mut ctx)),
        "cube_ddr3_idle" => Box::new(cube::CubeWorkload::new(cube::ddr3_idle(), &mut ctx)),
        cluster::NAME => Box::new(cluster::ClusterWorkload::new(&mut ctx)),
        serve::NAME => Box::new(serve::ServeWorkload::new(&mut ctx)),
        _ => unreachable!("workload names are checked when parsed"),
    };

    // In the traced run every other operation records spans, so the
    // unrecorded ones give the tracing overhead in the same process.
    let start = Instant::now();
    let mut walls: Vec<(bool, f64)> = Vec::new();
    for op in 0.. {
        let recording = args.trace && op % 2 == 0;
        ctx.tracer.set_recording(recording);
        let t = Instant::now();
        workload.iterate(&mut ctx, op);
        walls.push((recording, t.elapsed().as_secs_f64()));
        let typical = median(&walls.iter().map(|w| w.1).collect::<Vec<_>>());
        let spent = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_OPERATIONS && spent + typical > args.seconds as f64 {
            break;
        }
    }
    ctx.tracer.set_recording(false);
    let report = workload.report();
    let names: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, END_TO_END, "every workload reports the same metrics");

    println!(
        "perfbench {}: seed {}, {} operations in {:.2} s, one thread, tracing {}",
        args.workload,
        args.seed,
        walls.len(),
        start.elapsed().as_secs_f64(),
        if args.trace { "on" } else { "off" }
    );
    let metrics = if args.trace {
        match traced_metrics(&args, &ctx, &report, &walls) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print_metrics("end-to-end", &report.end_to_end);
        report.end_to_end.clone()
    };
    println!(
        "  {:<36} {} ({} of {} operations failed)",
        "error_rate",
        ctx.checks.error_rate(),
        ctx.checks.failed,
        ctx.checks.attempted
    );
    println!("  {:<36} {}", "shed_rate", report.shed_rate);
    println!("  {:<36} {}", "latency samples", report.latency_samples);
    let walls_s: Vec<String> = walls.iter().map(|w| format!("{:.3}", w.1)).collect();
    println!("  {:<36} {}", "operation wall times (s)", walls_s.join(" "));
    for f in &ctx.checks.failures {
        eprintln!("check failed: {f}");
    }
    println!(
        "{}",
        result_line(ctx.checks.attempted, ctx.checks.failed, &metrics)
    );
    if ctx.checks.failed == 0 && ctx.checks.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}:");
    for m in metrics.iter() {
        println!("  {:<36} {} {}", m.name, m.value, m.unit);
    }
}

/// The per-layer metrics of a traced run, with the span summary printed
/// and the spans written to [`TRACE_DIR`].
fn traced_metrics(
    args: &Args,
    ctx: &Ctx,
    report: &Report,
    walls: &[(bool, f64)],
) -> Result<Metrics, String> {
    let spans = ctx.tracer.spans();
    let selfs = self_times_ns(spans);
    let root_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_none() && s.name == args.workload)
        .map(|(_, &ns)| ns as f64 * 1e-9)
        .collect();
    let wall = |recorded: bool| {
        median(
            &walls
                .iter()
                .filter(|w| w.0 == recorded)
                .map(|w| w.1)
                .collect::<Vec<_>>(),
        )
    };
    let mut values = report.per_layer.clone();
    values.push(("trace.spans", spans.len() as f64));
    values.push(("trace.root_self_s", median(&root_self)));
    values.push(("trace.overhead_frac", wall(true) / wall(false) - 1.0));
    let metrics = layers::complete(&values);

    // Host time by span name: count, total and self seconds.
    let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += s.duration_ns() as f64 * 1e-9;
        e.2 += self_ns as f64 * 1e-9;
    }
    println!("spans (count, total s, self s):");
    for (name, (n, total, own)) in &by_name {
        println!("  {name:<40} {n:>4} {total:>12.6} {own:>12.6}");
    }
    println!("golden bounds (binding = largest term):");
    for row in &report.golden_rows {
        println!("  {}", row.describe());
    }
    print_metrics("per-layer", &metrics);

    let path = format!("{TRACE_DIR}/{}-seed{}.json", args.workload, args.seed);
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, spans_json(spans)))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("spans written to {path}");
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload serve_steady --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_steady", 7, 10, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload cube_dense --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload cube_dense --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload cube_dense --seed 7 --seconds 10").is_err());
        assert!(args("--workload cube_dense --seed x --seconds 10 --trace 0").is_err());
    }

    /// The metric names of one section of `BENCHMARK.json`, in order.
    fn manifest_names(section: &str) -> Vec<&'static str> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("name closes"))
            .collect()
    }

    #[test]
    fn the_manifest_lists_exactly_the_reported_metrics() {
        assert_eq!(manifest_names("end_to_end"), END_TO_END);
        let per_layer: Vec<&str> = layers::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(manifest_names("per_layer"), per_layer);
        assert_eq!(manifest_names("workloads"), WORKLOADS);
    }
}
