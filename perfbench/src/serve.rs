//! The serving workload: a two-tenant catalog under steady open-loop
//! traffic, scheduled, priced analytically and audited cycle-accurately.

use crate::check::{equals, same_stats};
use crate::layers::{self, GoldenRow};
use crate::metrics::{median, peak_rss_mb, Metrics};
use crate::{inputs, Ctx, Report, Workload};
use neurocube::SystemConfig;
use neurocube_fixed::Activation;
use neurocube_golden::timing::layer_bounds;
use neurocube_nn::{workloads, LayerSpec, NetworkSpec, Shape};
use neurocube_serve::{
    execute_two_speed, generate, serve_mode, AuditRecord, AuditViolation, ExecMode, ModelCatalog,
    Scenario, ServeConfig, TrafficSpec, TwoSpeedConfig,
};
use neurocube_sim::StatsRegistry;

pub const NAME: &str = "serve_steady";
const REQUESTS: u64 = 1_000_000;
const POOL: usize = 4;
/// Share of dispatches replayed cycle-accurately: enough that audits are
/// a visible share of the timed region.
const AUDIT_RATE: f64 = 2e-4;
/// The audit sampler's seed. Fixed rather than drawn from the workload
/// seed, so the audited dispatch indices, and with them the audit cost,
/// stay the same from seed to seed.
const AUDIT_SEED: u64 = 0xbead;

fn tenants() -> [(&'static str, NetworkSpec); 2] {
    let mlp = NetworkSpec::new(
        Shape::new(1, 8, 8),
        vec![
            LayerSpec::fc(8, Activation::ReLU),
            LayerSpec::fc(4, Activation::Identity),
        ],
    )
    .expect("geometry fits");
    [("conv", workloads::tiny_convnet()), ("mlp", mlp)]
}

/// The dispatch a violation names.
fn dispatch_of(v: &AuditViolation) -> u64 {
    match v {
        AuditViolation::AnalyticalOutsideEnvelope { dispatch, .. }
        | AuditViolation::ServiceCycleMismatch { dispatch, .. }
        | AuditViolation::MeasuredOutsideEnvelope { dispatch, .. }
        | AuditViolation::OutputDivergence { dispatch, .. } => *dispatch,
    }
}

struct Observed {
    serve: StatsRegistry,
    priced: StatsRegistry,
    audited: StatsRegistry,
    audits: Vec<AuditRecord>,
    service_cycles: Vec<u64>,
    makespan: u64,
}

#[derive(Default)]
struct Times {
    register: Vec<f64>,
    generate: Vec<f64>,
    schedule: Vec<f64>,
    price: Vec<f64>,
    audit: Vec<f64>,
}

pub struct ServeWorkload {
    seed: u64,
    cfg: SystemConfig,
    rows: Vec<GoldenRow>,
    lower: u64,
    first: Option<Observed>,
    times: Times,
}

impl ServeWorkload {
    pub fn new(ctx: &mut Ctx) -> ServeWorkload {
        let cfg = SystemConfig::paper(true);
        let t = &mut ctx.tracer;
        let root = t.begin("prepare", 0);
        let mut rows = Vec::new();
        for (name, spec) in tenants() {
            let (bounds, _) = t.time(&format!("golden.layer_bounds[{name}]"), 0, || {
                layer_bounds(&cfg, &spec)
            });
            rows.extend(bounds.iter().map(|b| {
                GoldenRow::from_bound(format!("{name} layer {}", b.layer_index), b, None)
            }));
        }
        t.end(root);
        ServeWorkload {
            seed: ctx.seed,
            lower: rows.iter().map(|r| r.lower).sum(),
            cfg,
            rows,
            first: None,
            times: Times::default(),
        }
    }
}

impl Workload for ServeWorkload {
    fn iterate(&mut self, ctx: &mut Ctx, op: u64) {
        let t = &mut ctx.tracer;
        let root = t.begin(NAME, op);
        let mut catalog = ModelCatalog::new(self.cfg.clone());
        let mut register_s = 0.0;
        for (i, (name, spec)) in tenants().into_iter().enumerate() {
            let seed = inputs::derive(self.seed, i as u64);
            let (_, secs) = t.time(&format!("serve.register[{name}]"), op, || {
                catalog.register(name, spec, seed)
            });
            register_s += secs;
        }
        let service: Vec<u64> = catalog.entries().map(|e| e.service_cycles).collect();
        let mean_service = service.iter().sum::<u64>() as f64 / service.len() as f64;
        let cfg = ServeConfig {
            pool: POOL,
            max_batch: 8,
            max_delay: mean_service as u64,
            queue_cap: 64,
        };
        // The saturating mean gap: one arrival per pool-share of the mean
        // service time.
        let mix = catalog.entries().map(|e| (e.name.clone(), 1)).collect();
        let steady = Scenario::parse("steady").expect("a preset scenario");
        let spec = TrafficSpec::poisson(self.seed, mean_service / POOL as f64, REQUESTS, mix)
            .with_scenario(steady);
        let (trace, generate_s) = t.time("serve.generate", op, || generate(&catalog, &spec));
        let (report, schedule_s) = t.time("serve.serve_mode", op, || {
            serve_mode(&catalog, &cfg, &trace, None)
        });
        let records = &report.records;
        let (priced, price_s) = t.time("serve.execute_two_speed[rate=0]", op, || {
            let two = TwoSpeedConfig::new(AUDIT_SEED, 0.0);
            execute_two_speed(&catalog, &trace, records, &two, ExecMode::Serial)
        });
        let (audited, audit_s) = t.time("serve.execute_two_speed[rate=audit]", op, || {
            let two = TwoSpeedConfig::new(AUDIT_SEED, AUDIT_RATE);
            execute_two_speed(&catalog, &trace, records, &two, ExecMode::Serial)
        });
        t.end(root);

        // A violation fails the requests of the dispatch it names; a
        // broken run-level invariant fails every request.
        let mut bad: Vec<u64> = priced
            .violations
            .iter()
            .chain(&audited.violations)
            .map(dispatch_of)
            .collect();
        bad.sort_unstable();
        bad.dedup();
        let mut failed: u64 = bad
            .iter()
            .map(|&d| records[d as usize].requests.len() as u64)
            .sum();
        let mut failures: Vec<String> = priced
            .violations
            .iter()
            .chain(&audited.violations)
            .map(ToString::to_string)
            .collect();
        let analytical = "serve.twospeed.cycles.analytical";
        let mut invariants = vec![
            equals("outcomes", report.outcomes.len() as u64, trace.len() as u64),
            equals(
                "analytical cycles at the audit rate",
                audited.stats.counter(analytical),
                priced.stats.counter(analytical),
            ),
        ];
        let seen = Observed {
            serve: report.stats,
            priced: priced.stats,
            audited: audited.stats,
            audits: audited.audits,
            service_cycles: service,
            makespan: report.makespan,
        };
        match &self.first {
            None => self.first = Some(seen),
            Some(first) => {
                invariants.push(same_stats(&first.serve, &seen.serve));
                invariants.push(same_stats(&first.priced, &seen.priced));
                invariants.push(same_stats(&first.audited, &seen.audited));
                if first.audits != seen.audits || first.service_cycles != seen.service_cycles {
                    invariants.push(Err("audits or profiles differ from the first run".into()));
                }
            }
        }
        let broken: Vec<String> = invariants.into_iter().filter_map(Result::err).collect();
        if !broken.is_empty() {
            failed = REQUESTS;
            failures.extend(broken);
        }
        ctx.checks.tally(NAME, REQUESTS, failed, failures);
        self.times.register.push(register_s);
        self.times.generate.push(generate_s);
        self.times.schedule.push(schedule_s);
        self.times.price.push(price_s);
        self.times.audit.push(audit_s);
    }

    fn report(&self) -> Report {
        let first = self.first.as_ref().expect("at least one operation ran");
        let stats = &first.serve;
        let times = &self.times;
        let op_s: Vec<f64> = (0..times.schedule.len())
            .map(|i| times.schedule[i] + times.price[i])
            .collect();
        let setup_s: Vec<f64> = times
            .register
            .iter()
            .zip(&times.generate)
            .map(|(r, g)| r + g)
            .collect();
        let makespan = first.makespan as f64;
        let latency = stats
            .histogram("serve.latency_cycles")
            .expect("serve runs export latency");
        let completed = stats.counter("serve.requests.completed");
        let offered = stats.counter("serve.requests.offered");
        let rejected: u64 = stats
            .counters()
            .filter(|(k, _)| k.starts_with("serve.rejected."))
            .map(|(_, v)| v)
            .sum();
        let shed_rate =
            (stats.counter("serve.requests.shed") + rejected) as f64 / offered.max(1) as f64;

        // Which requests the audit draws, and so its host time, changes
        // with the seed; that time follows the cycles it replays. The
        // audit's throughput is therefore reported in cycles and the fast
        // path's in requests.
        let audit_cycles = first.audited.counter("serve.twospeed.audit.cycles") as f64;
        let cps: Vec<f64> = times.audit.iter().map(|s| audit_cycles / s).collect();
        let rps: Vec<f64> = op_s.iter().map(|s| REQUESTS as f64 / s).collect();
        let mut end_to_end = Metrics::default();
        end_to_end.push("sim_cycles_per_s", median(&cps), "cycles/s");
        end_to_end.push("requests_per_s", median(&rps), "1/s");
        end_to_end.push("setup_s", median(&setup_s), "s");
        end_to_end.push("peak_rss_mb", peak_rss_mb(), "MiB");
        end_to_end.push("sim_cycles", makespan, "cycles");
        let pct = |q: f64| latency.percentile(q).unwrap_or(0) as f64;
        end_to_end.push("latency_p50_cycles", pct(0.50), "cycles");
        end_to_end.push("latency_p99_cycles", pct(0.99), "cycles");
        end_to_end.push(
            "goodput_per_mcycle",
            completed as f64 * 1e6 / makespan,
            "1/Mcycle",
        );

        let audited = &first.audited;
        let audited_requests = audited.counter("serve.twospeed.audit.requests");
        let audit_s = median(&times.audit);
        let slack_upper_min = audited
            .histogram("serve.twospeed.audit.slack_upper_cycles")
            .and_then(neurocube_sim::Histogram::min)
            .unwrap_or(0);
        let mean_batch = stats
            .histogram("serve.batch_size")
            .and_then(neurocube_sim::Histogram::mean)
            .unwrap_or(0.0);
        let service: u64 = first.service_cycles.iter().sum();
        let mut values = vec![
            ("serve.register_s", median(&times.register)),
            ("serve.generate_s", median(&times.generate)),
            ("serve.schedule_s", median(&times.schedule)),
            ("serve.price_s", median(&times.price)),
            ("serve.audit_s", audit_s),
            ("serve.audited_requests", audited_requests as f64),
            (
                "serve.audit_ms_per_request",
                audit_s * 1e3 / audited_requests.max(1) as f64,
            ),
            (
                "serve.audit_violations",
                audited.counter("serve.twospeed.audit.violations") as f64,
            ),
            ("serve.audit_slack_upper_min_cycles", slack_upper_min as f64),
            ("serve.mean_batch", mean_batch),
            (
                "serve.affinity_hit_rate",
                stats.gauge("serve.rate.affinity_hit"),
            ),
            (
                "serve.reprogram_cycles",
                stats.counter("serve.cycles.reprogram") as f64,
            ),
            ("serve.shed_rate", shed_rate),
            ("serve.latency_samples", latency.count() as f64),
        ];
        values.extend(layers::golden(&self.rows, service, self.lower));
        Report {
            end_to_end,
            per_layer: values,
            latency_samples: latency.count(),
            shed_rate,
            golden_rows: self.rows.clone(),
        }
    }
}
