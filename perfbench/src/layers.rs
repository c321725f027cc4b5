//! Per-layer metrics: the canonical list every traced run reports, the
//! hardware-layer counters read from a statistics registry, and the
//! golden bound rows.

use crate::metrics::Metrics;
use neurocube_golden::timing::LayerBound;
use neurocube_sim::StatsRegistry;
use std::collections::BTreeMap;

/// Every per-layer metric, in report order, with its unit. A workload
/// that does not exercise a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.load_s", "s"),
    ("core.run_s", "s"),
    ("core.ns_per_ticked_cycle", "ns"),
    ("sim.skipped_fraction", "fraction"),
    ("sim.horizon_jumps", "count"),
    ("png.operands_sent", "count"),
    ("png.reads_issued", "count"),
    ("png.writes_issued", "count"),
    ("png.gate_stalls", "cycles"),
    ("png.outq_stalls", "cycles"),
    ("dram.bits_transferred", "bit"),
    ("dram.row_misses", "count"),
    ("dram.energy_j", "J"),
    ("dram.bits_per_cycle", "bit/cycle"),
    ("noc.injected", "count"),
    ("noc.inject_stalls", "cycles"),
    ("noc.mean_latency_cycles", "cycles"),
    ("noc.lateral_fraction", "fraction"),
    ("pe.mac_ops", "count"),
    ("pe.mac_utilization", "fraction"),
    ("pe.starved_cycles", "cycles"),
    ("pe.lanes_gated", "count"),
    ("pe.cached_packets", "count"),
    ("golden.lower_cycles", "cycles"),
    ("golden.cycles_over_lower", "ratio"),
    ("golden.bound.mac_cycles", "cycles"),
    ("golden.bound.pe_packet_cycles", "cycles"),
    ("golden.bound.port_cycles", "cycles"),
    ("golden.bound.dram_cycles", "cycles"),
    ("cluster.plan_s", "s"),
    ("cluster.plan_rss_mb", "MiB"),
    ("cluster.new_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.ns_per_cube_cycle", "ns"),
    ("cluster.cubes", "count"),
    ("cluster.stages", "count"),
    ("cluster.plan_lower_cycles", "cycles"),
    ("cluster.link_lower_cycles", "cycles"),
    ("cluster.cycles_over_plan_lower", "ratio"),
    ("cluster.transfers", "count"),
    ("cluster.bytes", "B"),
    ("cluster.link_busy_cycles", "cycles"),
    ("cluster.skipped_fraction", "fraction"),
    ("serve.register_s", "s"),
    ("serve.generate_s", "s"),
    ("serve.schedule_s", "s"),
    ("serve.price_s", "s"),
    ("serve.audit_s", "s"),
    ("serve.audited_requests", "count"),
    ("serve.audit_ms_per_request", "ms"),
    ("serve.audit_violations", "count"),
    ("serve.audit_slack_upper_min_cycles", "cycles"),
    ("serve.mean_batch", "requests"),
    ("serve.affinity_hit_rate", "fraction"),
    ("serve.reprogram_cycles", "cycles"),
    ("serve.shed_rate", "fraction"),
    ("serve.latency_samples", "count"),
    ("trace.spans", "count"),
    ("trace.root_self_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// Builds per-layer metrics from `(name, value)` pairs, in [`PER_LAYER`]
/// order, reporting 0 for every metric the pairs leave out.
///
/// # Panics
///
/// Panics on a name missing from [`PER_LAYER`] or given twice.
pub fn complete(values: &[(&str, f64)]) -> Metrics {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        assert_eq!(
            values.iter().filter(|(n, _)| n == name).count(),
            1,
            "{name} given twice"
        );
    }
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        out.push(name, value, unit);
    }
    out
}

/// A registry key with any `cube<i>.` member prefix dropped and the
/// component index removed (`cube3.pe12.mac_ops` → `pe.mac_ops`,
/// `mem.row_misses` → `dram.row_misses`).
fn component_key(key: &str) -> String {
    let key = match key.split_once('.') {
        Some((head, rest)) if is_indexed(head, "cube") => rest,
        _ => key,
    };
    let (head, rest) = key.split_once('.').unwrap_or((key, ""));
    let head = if head == "mem" {
        "dram"
    } else {
        head.trim_end_matches(|c: char| c.is_ascii_digit())
    };
    format!("{head}.{rest}")
}

fn is_indexed(s: &str, prefix: &str) -> bool {
    s.strip_prefix(prefix)
        .is_some_and(|n| !n.is_empty() && n.chars().all(|c| c.is_ascii_digit()))
}

/// The `png`, `dram`, `noc` and `pe` metrics of a registry from one or
/// more cubes, summed over every component, over `cycles` simulated
/// cycles.
pub fn hardware(reg: &StatsRegistry, cycles: u64) -> Vec<(&'static str, f64)> {
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut pes = std::collections::BTreeSet::new();
    let counters = reg.counters().map(|(k, v)| (k, v as f64));
    for (key, value) in counters.chain(reg.metrics()) {
        if key.ends_with(".mac_ops") && !key.starts_with("sparsity") {
            pes.insert(key.to_string());
        }
        *sums.entry(component_key(key)).or_default() += value;
    }
    let get = |k: &str| sums.get(k).copied().unwrap_or(0.0);
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let cycles = cycles as f64;
    vec![
        ("png.operands_sent", get("png.operands_sent")),
        ("png.reads_issued", get("png.reads_issued")),
        ("png.writes_issued", get("png.writes_issued")),
        ("png.gate_stalls", get("png.gate_stalls")),
        ("png.outq_stalls", get("png.outq_stalls")),
        ("dram.bits_transferred", get("dram.bits_transferred")),
        ("dram.row_misses", get("dram.row_misses")),
        ("dram.energy_j", get("dram.energy_j")),
        (
            "dram.bits_per_cycle",
            ratio(get("dram.bits_transferred"), cycles),
        ),
        ("noc.injected", get("noc.injected")),
        ("noc.inject_stalls", get("noc.inject_stalls")),
        (
            "noc.mean_latency_cycles",
            ratio(get("noc.total_latency"), get("noc.delivered")),
        ),
        (
            "noc.lateral_fraction",
            ratio(get("noc.lateral"), get("noc.delivered")),
        ),
        ("pe.mac_ops", get("pe.mac_ops")),
        (
            "pe.mac_utilization",
            ratio(get("pe.mac_ops"), cycles * pes.len() as f64),
        ),
        ("pe.starved_cycles", get("pe.starved_cycles")),
        ("pe.lanes_gated", get("pe.lanes_gated")),
        ("pe.cached_packets", get("pe.cached_packets")),
    ]
}

/// One row of the golden bound table: a network layer or cluster stage,
/// its analytical bound terms and, where known, its measured cycles.
#[derive(Clone)]
pub struct GoldenRow {
    pub label: String,
    pub mac: u64,
    pub pe_packet: u64,
    pub port: u64,
    pub dram: u64,
    pub lower: u64,
    pub measured: Option<u64>,
}

impl GoldenRow {
    pub fn from_bound(label: String, b: &LayerBound, measured: Option<u64>) -> GoldenRow {
        GoldenRow {
            label,
            mac: b.mac_cycles,
            pe_packet: b.pe_packet_cycles,
            port: b.port_cycles,
            dram: b.dram_cycles,
            lower: b.lower(),
            measured,
        }
    }

    /// The largest bound term: the one that sets the lower bound.
    pub fn binding(&self) -> &'static str {
        [
            (self.mac, "mac"),
            (self.pe_packet, "pe_packet"),
            (self.port, "port"),
            (self.dram, "dram"),
        ]
        .into_iter()
        .max_by_key(|(v, _)| *v)
        .map(|(_, n)| n)
        .expect("four terms")
    }

    pub fn describe(&self) -> String {
        let measured = self.measured.map_or("-".to_string(), |m| m.to_string());
        let ratio = self
            .measured
            .filter(|_| self.lower > 0)
            .map_or("-".to_string(), |m| {
                format!("{:.3}", m as f64 / self.lower as f64)
            });
        format!(
            "{:<22} lower {:>9} measured {:>9} ratio {:>6}  mac {:>9} pe_packet {:>9} \
             port {:>9} dram {:>9}  binding {}",
            self.label,
            self.lower,
            measured,
            ratio,
            self.mac,
            self.pe_packet,
            self.port,
            self.dram,
            self.binding()
        )
    }
}

/// The `golden.*` metrics over a set of rows: bounds summed, and measured
/// `cycles` over the summed lower bound `lower`.
pub fn golden(rows: &[GoldenRow], cycles: u64, lower: u64) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&GoldenRow) -> u64| rows.iter().map(f).sum::<u64>() as f64;
    vec![
        ("golden.lower_cycles", lower as f64),
        (
            "golden.cycles_over_lower",
            cycles as f64 / lower.max(1) as f64,
        ),
        ("golden.bound.mac_cycles", sum(|r| r.mac)),
        ("golden.bound.pe_packet_cycles", sum(|r| r.pe_packet)),
        ("golden.bound.port_cycles", sum(|r| r.port)),
        ("golden.bound.dram_cycles", sum(|r| r.dram)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{valid_name, valid_unit};

    #[test]
    fn per_layer_names_and_units_are_valid_and_unique() {
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(PER_LAYER[..i].iter().all(|(n, _)| n != name), "{name}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn component_keys_fold_members_and_indices() {
        assert_eq!(component_key("cube3.pe12.mac_ops"), "pe.mac_ops");
        assert_eq!(component_key("png0.reads_issued"), "png.reads_issued");
        assert_eq!(component_key("mem.row_misses"), "dram.row_misses");
        assert_eq!(component_key("cluster.bytes"), "cluster.bytes");
        assert_eq!(component_key("cubes.x"), "cubes.x");
    }

    #[test]
    fn complete_fills_every_metric_in_order() {
        let m = complete(&[("noc.injected", 5.0)]);
        let names: Vec<&str> = m.iter().map(|x| x.name.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert_eq!(m.get("noc.injected"), Some(5.0));
        assert_eq!(m.get("pe.mac_ops"), Some(0.0));
    }
}
