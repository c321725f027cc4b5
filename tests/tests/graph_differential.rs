//! Differential verification for compiled layer DAGs: randomized graphs
//! driven through the cycle-level simulator and the independent golden
//! models of `neurocube-golden`, with shrinking on divergence.
//!
//! 1. Every node volume the simulator commits to DRAM lies inside the
//!    functional golden model's composed per-node error envelope
//!    (`GoldenGraph` folds envelopes along the DAG: residual adds sum
//!    branch envelopes, concats take the worst part).
//! 2. Every pipelined phase's cycle count lies inside the analytical
//!    timing envelope, with the programming charge on phase 0 only.
//! 3. The compiler's cost model ranks mappings consistently: both
//!    `plan_graph` alternatives are real lower bounds on real runs.

mod common;

use common::graph_case;
use neurocube::{Neurocube, SystemConfig};
use neurocube_golden::{check_graph_report, plan_graph, GoldenGraph, DEFAULT_SLACK};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(8)))]

    /// Property 1: every node volume stays inside the golden graph
    /// model's composed error envelope. Volumes are collected by the
    /// replay harness right after the phase that finalizes each node
    /// (the lifetime-based allocator recycles buffers afterwards).
    #[test]
    fn graph_volumes_within_golden_envelope(case in graph_case()) {
        let cfg = SystemConfig::paper(case.dup);
        let params = case.graph.init_params(case.seed, 0.25);
        let golden = GoldenGraph::from_quantized(case.graph.clone(), params.clone());
        let mut cube = Neurocube::new(cfg);
        let loaded = cube
            .load_graph(&case.graph, params)
            .expect("random graphs fit the paper cube");
        let input = neurocube_bench::graph_ramp_input(&case.graph);
        let (volumes, _) = cube.run_graph_replay_collect(&loaded, &input);
        golden
            .check(&input, &volumes)
            .map_err(|d| TestCaseError::fail(format!("{d} (dup={})", case.dup)))?;
    }

    /// Property 2: every pipelined phase's cycle count stays inside the
    /// analytical timing envelope (`graph_bounds` composed along the
    /// schedule, programming charged once on phase 0).
    #[test]
    fn graph_cycles_within_analytical_envelope(case in graph_case()) {
        let cfg = SystemConfig::paper(case.dup);
        let out = neurocube_bench::run_graph_mode(
            cfg.clone(), &case.graph, case.seed, true, true,
        );
        check_graph_report(&cfg, &case.graph, &out.report, DEFAULT_SLACK)
            .map_err(|v| TestCaseError::fail(format!("{v} (dup={})", case.dup)))?;
    }

    /// Property 3: both mapping alternatives the planner compares are
    /// genuine lower bounds — a real run under either mapping takes at
    /// least the planner's predicted cycle total.
    #[test]
    fn planner_totals_are_lower_bounds(case in graph_case()) {
        let plan = plan_graph(&SystemConfig::paper(true), &case.graph);
        for (dup, predicted) in [
            (true, plan.duplicated_cycles),
            (false, plan.partitioned_cycles),
        ] {
            let out = neurocube_bench::run_graph_mode(
                SystemConfig::paper(dup), &case.graph, case.seed, true, true,
            );
            prop_assert!(
                out.report.total_cycles() >= predicted,
                "dup={}: measured {} cycles below the planner's bound {} (seed={})",
                dup, out.report.total_cycles(), predicted, case.seed
            );
        }
    }
}

/// Deterministic anchor: the toy graphs sit inside the default envelope
/// under both mappings, and the report attributes phases to the graph's
/// execution order.
#[test]
fn toy_graphs_within_envelope_under_both_mappings() {
    for (name, graph) in [
        ("residual_toy", neurocube_nn::workloads::residual_toy()),
        ("concat_toy", neurocube_nn::workloads::concat_toy()),
    ] {
        for dup in [true, false] {
            let cfg = SystemConfig::paper(dup);
            let out = neurocube_bench::run_graph_mode(cfg.clone(), &graph, 7, true, true);
            check_graph_report(&cfg, &graph, &out.report, DEFAULT_SLACK)
                .unwrap_or_else(|v| panic!("{name} dup={dup}: {v}"));
            let labels: Vec<usize> = out.report.layers.iter().map(|l| l.layer_index).collect();
            assert_eq!(
                labels,
                graph.exec_nodes(),
                "{name}: phases must execute the graph's schedule in order"
            );
        }
    }
}
