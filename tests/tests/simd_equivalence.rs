//! Differential properties for the struct-of-arrays PE datapath.
//!
//! The zero-operand fast paths (on by default) must be *observationally
//! invisible*: for random multi-layer networks whose operand streams are
//! dense with real zeros, the full statistics registry, output tensor and
//! cycle counts are compared bitwise between sparsity on and off, with
//! and without fault injection. The mode is selected per cube through
//! [`Neurocube::set_sparsity`].
//!
//! The kernel-level half of the contract rides in the same binary: the
//! lane kernels are driven against [`MacUnit`] step-for-step across the
//! saturation and rounding boundaries pinned by `q88_boundary.rs`
//! (representable midpoints, `>> 8` truncation direction, both clamp
//! edges), and the `..active` lane masking the PE relies on is checked to
//! leave parked lanes untouched. Whole-cube values are checked against
//! the `MacUnit`-based `Executor` in `bit_exactness.rs`.

mod common;

use common::{diff_case, DiffCase};
use neurocube::{Neurocube, SystemConfig};
use neurocube_fault::FaultConfig;
use neurocube_fixed::{
    accumulate_narrow_lanes, accumulate_narrow_masked, accumulate_wide_lanes,
    accumulate_wide_masked, wide_result_bits, AccumulatorWidth, LaneSrc, MacUnit, Q88,
};
use neurocube_sim::StatsRegistry;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One observable world: everything two datapath modes must agree on.
struct Observables {
    layer_cycles: Vec<u64>,
    final_cycle: u64,
    output: Vec<Q88>,
    stats: StatsRegistry,
}

/// Asserts two runs agree on every observable, naming the first
/// diverging statistic on failure.
fn assert_identical(a: &Observables, b: &Observables, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &a.layer_cycles,
        &b.layer_cycles,
        "per-layer cycle counts diverge ({})",
        what
    );
    prop_assert_eq!(
        a.final_cycle,
        b.final_cycle,
        "final cycle counters diverge ({})",
        what
    );
    prop_assert_eq!(&a.output, &b.output, "output tensors diverge ({})", what);
    if let Some(delta) = a.stats.first_difference(&b.stats) {
        return Err(TestCaseError::fail(format!(
            "statistics diverge at {delta} ({what})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Sparsity fast paths: zero-operand skipping is observationally invisible.
// ---------------------------------------------------------------------------

/// Runs `case` with the PE zero-operand fast paths pinned and the operand
/// stream seeded with real zeros: every third weight and every other
/// input pixel are zeroed, so the zero-lane classification and skip paths
/// genuinely fire on every case. Skipping stays at its default (on) — the
/// skip/naive axis has its own suite (`skip_equivalence.rs`).
fn run_sparsity_variant(
    case: &DiffCase,
    sparsity: bool,
    fault: Option<FaultConfig>,
) -> Observables {
    let cfg = SystemConfig::paper(case.dup);
    let mut params = case.net.init_params(case.seed, 0.25);
    for layer in &mut params {
        for (i, w) in layer.iter_mut().enumerate() {
            if i % 3 == 0 {
                *w = Q88::ZERO;
            }
        }
    }
    let mut cube = Neurocube::new(cfg);
    cube.set_sparsity(sparsity);
    cube.set_fault_config(fault);
    let loaded = cube.load(case.net.clone(), params);
    let s = case.net.input_shape();
    let data = (0..s.len())
        .map(|i| {
            if i % 2 == 0 {
                Q88::ZERO
            } else {
                Q88::from_f64(((i % 64) as f64 - 32.0) / 32.0)
            }
        })
        .collect();
    let input = neurocube_nn::Tensor::from_vec(s.channels, s.height, s.width, data);
    let (output, report) = cube.run_inference(&loaded, &input);
    Observables {
        layer_cycles: report.layers.iter().map(|l| l.cycles).collect(),
        final_cycle: cube.now(),
        output: output.as_slice().to_vec(),
        stats: cube.stats_registry(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(12)))]

    /// Sparsity on vs off is bitwise identical in every observable —
    /// full registry included — on random nets whose operand streams are
    /// dense with real zeros. Zero-skipping is a host fast path, not a
    /// model change (DESIGN.md §13).
    #[test]
    fn sparsity_fast_paths_are_bitwise_invisible(case in diff_case()) {
        let on = run_sparsity_variant(&case, true, None);
        let off = run_sparsity_variant(&case, false, None);
        assert_identical(&on, &off, &format!(
            "sparsity on vs off, dup={}, seed={}", case.dup, case.seed
        ))?;
    }

    /// The invisibility survives fault injection: with a lens attached
    /// the fast paths stand down (per-lane upset order is part of the
    /// observable world), and classification still agrees bitwise.
    #[test]
    fn sparsity_fast_paths_survive_fault_injection(
        case in diff_case(),
        rate_exp in 4u32..7,
        fault_seed in 0u64..1 << 32,
    ) {
        let fcfg = FaultConfig::uniform(fault_seed, 10f64.powi(-(rate_exp as i32)));
        let on = run_sparsity_variant(&case, true, Some(fcfg.clone()));
        let off = run_sparsity_variant(&case, false, Some(fcfg));
        assert_identical(&on, &off, &format!(
            "sparsity on vs off under faults, dup={}, seeds={}/{}",
            case.dup, case.seed, fault_seed
        ))?;
    }
}

/// Deterministic anchor: the zeroed workload actually classifies gated
/// lanes (a sweep that never fires the skip paths would prove nothing),
/// and the classification is identical whether or not skipping is on.
#[test]
fn sparsity_classification_is_not_vacuous() {
    let case = DiffCase {
        net: neurocube_nn::workloads::mnist_mlp(64),
        dup: true,
        seed: 11,
    };
    let on = run_sparsity_variant(&case, true, None);
    let off = run_sparsity_variant(&case, false, None);
    let gated = on.stats.counter("sparsity.pe.lanes_gated");
    assert!(
        gated > 0,
        "zeroed weights/input fired no gated lanes; the sparsity suite is vacuous"
    );
    assert_eq!(
        off.stats.counter("sparsity.pe.lanes_gated"),
        gated,
        "classification differs between skip and dense modes"
    );
    let mac_ops: u64 = (0..16)
        .map(|i| on.stats.counter(&format!("pe{i}.mac_ops")))
        .sum();
    assert!(
        gated < mac_ops,
        "every MAC lane gated — the workload degenerated to all-zero"
    );
}

// ---------------------------------------------------------------------------
// Kernel-level boundary pinning: lane kernels vs MacUnit, step for step.
// ---------------------------------------------------------------------------

/// Raw `Q1.7.8` operands biased hard toward the boundaries the scalar
/// unit's clamps and shifts act on: both clamp edges, the values around
/// one LSB and one integer unit, and the representable midpoints pinned by
/// `q88_boundary.rs` (`k + 0.5` LSB inputs quantize to `k`/`k+1`, so raw
/// patterns adjacent to every `k` boundary appear here via `k ± 1`).
fn boundary_operand() -> impl Strategy<Value = i16> {
    const EDGES: [i16; 19] = [
        i16::MAX,
        i16::MIN,
        i16::MAX - 1,
        i16::MIN + 1,
        0,
        1,
        -1,
        127,
        -127,
        128,
        -128,
        129,
        -129,
        255,
        256,
        257,
        -255,
        -256,
        -257,
    ];
    // Three in four draws land on an edge value; the rest are raw i16s.
    (any::<i16>(), any::<u8>()).prop_map(|(raw, pick)| {
        if pick < 192 {
            EDGES[usize::from(pick) % EDGES.len()]
        } else {
            raw
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(64)))]

    /// `accumulate_wide_lanes` matches `MacUnit::accumulate` (Wide32) bit
    /// for bit after *every* step of a boundary-biased operand sequence —
    /// including deep in the i32 clamp and back out of it.
    #[test]
    fn wide_lanes_match_mac_unit_at_boundaries(
        pairs in proptest::collection::vec((boundary_operand(), boundary_operand()), 1..200)
    ) {
        let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
        let mut acc = [0i32; 1];
        for (step, &(w, x)) in pairs.iter().enumerate() {
            mac.accumulate(Q88::from_bits(w), Q88::from_bits(x));
            accumulate_wide_lanes(&mut acc, &[w], &[x]);
            prop_assert_eq!(
                mac.result().to_bits(), wide_result_bits(acc[0]),
                "wide lane diverged from MacUnit at step {} on ({}, {})", step, w, x
            );
        }
    }

    /// `accumulate_narrow_lanes` matches `MacUnit::accumulate` (Narrow16)
    /// bit for bit — the per-step renormalization (`>> 8` toward -inf,
    /// saturate) and the 16-bit saturating add both pinned.
    #[test]
    fn narrow_lanes_match_mac_unit_at_boundaries(
        pairs in proptest::collection::vec((boundary_operand(), boundary_operand()), 1..200)
    ) {
        let mut mac = MacUnit::new(AccumulatorWidth::Narrow16);
        let mut acc = [0i16; 1];
        for (step, &(w, x)) in pairs.iter().enumerate() {
            mac.accumulate(Q88::from_bits(w), Q88::from_bits(x));
            accumulate_narrow_lanes(&mut acc, &[w], &[x]);
            prop_assert_eq!(
                mac.result().to_bits(), acc[0],
                "narrow lane diverged from MacUnit at step {} on ({}, {})", step, w, x
            );
        }
    }

    /// Lane masking: accumulating into the `..active` prefix of a lane
    /// bank (exactly what the PE does when a layer parks trailing lanes)
    /// leaves the parked tail bitwise untouched and drives every active
    /// lane exactly as an independent scalar unit would.
    #[test]
    fn lane_masking_leaves_parked_lanes_untouched(
        weights in proptest::collection::vec(boundary_operand(), 16),
        states in proptest::collection::vec(boundary_operand(), 16),
        park in proptest::collection::vec(any::<i32>(), 16),
        active in 0usize..=16,
        steps in 1usize..8,
    ) {
        let mut acc: Vec<i32> = park.clone();
        acc[..active].fill(0);
        for _ in 0..steps {
            accumulate_wide_lanes(&mut acc[..active], &weights[..active], &states[..active]);
        }
        for lane in active..16 {
            prop_assert_eq!(
                acc[lane], park[lane],
                "parked lane {} was clobbered by a masked accumulate", lane
            );
        }
        for lane in 0..active {
            let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
            for _ in 0..steps {
                mac.accumulate(Q88::from_bits(weights[lane]), Q88::from_bits(states[lane]));
            }
            prop_assert_eq!(
                mac.result().to_bits(), wide_result_bits(acc[lane]),
                "active lane {} diverged from its scalar unit", lane
            );
        }
    }

    /// Zero-weight lane purity: a lane whose weight operand is zero never
    /// perturbs any accumulator bit, no matter what its state operand
    /// holds — so skipping such lanes (the masked kernels) is bitwise
    /// identical to grinding through them (the dense kernels), at both
    /// accumulator widths and from any starting accumulator value.
    #[test]
    fn zero_weight_lanes_never_perturb_accumulator_bits(
        weights in proptest::collection::vec(boundary_operand(), 16),
        states in proptest::collection::vec(boundary_operand(), 16),
        start in proptest::collection::vec(any::<i32>(), 16),
        zero_mask in any::<u16>(),
        steps in 1usize..6,
    ) {
        let mut w = weights.clone();
        for m in 0..16 {
            if zero_mask >> m & 1 == 1 {
                w[m] = 0;
            }
        }
        let live: u64 = u64::from(!zero_mask);
        let mut dense: Vec<i32> = start.clone();
        let mut masked: Vec<i32> = start.clone();
        for _ in 0..steps {
            accumulate_wide_lanes(&mut dense, &w, &states);
            accumulate_wide_masked(
                &mut masked,
                LaneSrc::Lanes(&w),
                LaneSrc::Lanes(&states),
                live,
            );
        }
        prop_assert_eq!(&dense, &masked, "wide: skipping zero-weight lanes changed bits");
        for m in (0..16).filter(|m| zero_mask >> m & 1 == 1) {
            prop_assert_eq!(
                dense[m], start[m],
                "wide: zero-weight lane {} perturbed its accumulator", m
            );
        }
        let start16: Vec<i16> = start.iter().map(|&v| v as i16).collect();
        let mut dense16 = start16.clone();
        let mut masked16 = start16.clone();
        for _ in 0..steps {
            accumulate_narrow_lanes(&mut dense16, &w, &states);
            accumulate_narrow_masked(
                &mut masked16,
                LaneSrc::Lanes(&w),
                LaneSrc::Lanes(&states),
                live,
            );
        }
        prop_assert_eq!(&dense16, &masked16, "narrow: skipping zero-weight lanes changed bits");
        for m in (0..16).filter(|m| zero_mask >> m & 1 == 1) {
            prop_assert_eq!(
                dense16[m], start16[m],
                "narrow: zero-weight lane {} perturbed its accumulator", m
            );
        }
    }
}
