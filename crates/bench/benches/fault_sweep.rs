//! Accuracy under faults: inference quality and fabric overhead across
//! injected fault rates.
//!
//! Two workloads — the MNIST-style MLP (Fig. 1 / Table III) and the
//! Fig. 14 conv shape — run across uniform per-bit/per-flit/per-MAC fault
//! rates {0, 1e-9 … 1e-4}. Every faulty output is compared element-wise
//! against the same seed's zero-fault output, so each row reports
//! *degradation caused by faults alone*: fraction of output neurons
//! changed, mean/max absolute error, the retransmit overhead the link
//! parity paid, and packets consumed as counted drops instead of panics.
//!
//! Each rate also runs with SECDED ECC on, reporting how many faulty DRAM
//! words the code corrected (single-bit) or only detected (multi-bit) and
//! the ECC energy bill from the power model (check-bit transfer + decode
//! logic, `power::hmc`).
//!
//! The zero-rate sweep point is asserted bitwise identical to a run with
//! no injector attached — the fault machinery is provably free when off.
//! Every point is seed-replayable: the same `FaultConfig` seed (pinned
//! per workload) reproduces the same faults bit for bit.

use neurocube::SystemConfig;
use neurocube_bench::{csv_f, header, run_inference_faulty, CsvSink, FaultRun};
use neurocube_fault::FaultConfig;
use neurocube_fixed::Activation;
use neurocube_nn::{workloads, LayerSpec, NetworkSpec, Shape};
use neurocube_power::hmc;

struct Workload {
    name: &'static str,
    cfg: SystemConfig,
    spec: NetworkSpec,
    seed: u64,
}

fn workload_table() -> Vec<Workload> {
    vec![
        Workload {
            name: "mnist_mlp100",
            cfg: SystemConfig::paper(true),
            spec: workloads::mnist_mlp(100),
            seed: 3,
        },
        Workload {
            name: "fig14_conv_k5",
            cfg: SystemConfig::paper(true),
            spec: NetworkSpec::new(
                Shape::new(1, 128, 128),
                vec![LayerSpec::conv(16, 5, Activation::Tanh)],
            )
            .expect("geometry fits"),
            seed: 14,
        },
    ]
}

const RATES: [f64; 7] = [0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4];

/// Element-wise output degradation vs the zero-fault reference.
struct Degradation {
    changed_frac: f64,
    mean_abs_err: f64,
    max_abs_err: f64,
}

fn degradation(reference: &FaultRun, faulty: &FaultRun) -> Degradation {
    let a = reference.output.as_slice();
    let b = faulty.output.as_slice();
    assert_eq!(a.len(), b.len(), "fault injection must not resize outputs");
    let mut changed = 0usize;
    let mut sum = 0.0;
    let mut max = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        if x != y {
            changed += 1;
        }
        let e = (x.to_f64() - y.to_f64()).abs();
        sum += e;
        max = max.max(e);
    }
    Degradation {
        changed_frac: changed as f64 / a.len() as f64,
        mean_abs_err: sum / a.len() as f64,
        max_abs_err: max,
    }
}

fn main() {
    header(
        "fault_sweep",
        "accuracy degradation and retransmit overhead vs injected fault rate",
    );
    let mut csv = CsvSink::create(
        "fault_sweep",
        &[
            "workload",
            "rate",
            "changed_frac",
            "mean_abs_err",
            "max_abs_err",
            "mac_faults",
            "dram_flips",
            "noc_retransmits",
            "retx_per_kpkt",
            "dropped_packets",
            "ecc_corrected",
            "ecc_detected",
            "ecc_energy_j",
        ],
    );
    for w in &workload_table() {
        println!("\n-- {} (seed {}) --", w.name, w.seed);
        println!(
            "{:>8} {:>9} {:>10} {:>10} {:>6} {:>6} {:>6} {:>10} {:>7} {:>8} {:>8} {:>11}",
            "rate",
            "changed%",
            "mean|e|",
            "max|e|",
            "mac",
            "dram",
            "retx",
            "retx/kpkt",
            "dropped",
            "ecc fix",
            "ecc det",
            "ecc J"
        );
        let reference = run_inference_faulty(w.cfg.clone(), &w.spec, w.seed, None);
        assert!(
            reference.report.fault.is_none(),
            "reference run must carry no injector"
        );
        for &rate in &RATES {
            let faulty = run_inference_faulty(
                w.cfg.clone(),
                &w.spec,
                w.seed,
                Some(FaultConfig::uniform(w.seed, rate)),
            );
            if rate == 0.0 {
                // The zero-rate point is the fault-free simulator, bit for
                // bit: same outputs, same report, same registry, no
                // `fault.*` counters.
                assert_eq!(faulty.output.as_slice(), reference.output.as_slice());
                assert_eq!(faulty.report, reference.report);
                assert_eq!(faulty.stats, reference.stats);
            }
            // Replayability: the same (seed, rate) reproduces the same run.
            let replay = run_inference_faulty(
                w.cfg.clone(),
                &w.spec,
                w.seed,
                Some(FaultConfig::uniform(w.seed, rate)),
            );
            assert_eq!(
                faulty.stats, replay.stats,
                "fault injection must be seed-replayable"
            );

            let mut ecc_cfg = FaultConfig::uniform(w.seed, rate);
            ecc_cfg.ecc = true;
            let ecc = run_inference_faulty(w.cfg.clone(), &w.spec, w.seed, Some(ecc_cfg));
            let ecc_sum = ecc.report.fault.expect("ECC run carries an injector");
            let ecc_energy = hmc::secded_overhead_j(ecc_sum.ecc_words, hmc::DRAM_PJ_PER_BIT);

            let d = degradation(&reference, &faulty);
            let f = faulty.report.fault.unwrap_or_default();
            let delivered = faulty.stats.counter("noc.delivered").max(1);
            let retx_per_kpkt = 1000.0 * f.noc_retransmits as f64 / delivered as f64;
            println!(
                "{:>8.0e} {:>8.3}% {:>10.2e} {:>10.2e} {:>6} {:>6} {:>6} {:>10.3} {:>7} {:>8} {:>8} {:>11.3e}",
                rate,
                100.0 * d.changed_frac,
                d.mean_abs_err,
                d.max_abs_err,
                f.pe_mac_faults,
                f.dram_read_flips + f.dram_stuck_bits + f.dram_upsets,
                f.noc_retransmits,
                retx_per_kpkt,
                f.dropped_packets,
                ecc_sum.ecc_corrected,
                ecc_sum.ecc_detected,
                ecc_energy,
            );
            csv.row(&[
                w.name.to_string(),
                format!("{rate:e}"),
                csv_f(d.changed_frac),
                format!("{:e}", d.mean_abs_err),
                format!("{:e}", d.max_abs_err),
                f.pe_mac_faults.to_string(),
                (f.dram_read_flips + f.dram_stuck_bits + f.dram_upsets).to_string(),
                f.noc_retransmits.to_string(),
                csv_f(retx_per_kpkt),
                f.dropped_packets.to_string(),
                ecc_sum.ecc_corrected.to_string(),
                ecc_sum.ecc_detected.to_string(),
                format!("{ecc_energy:e}"),
            ]);
        }
        println!("(zero-rate point verified bitwise-identical to the no-injector run)");
    }
    println!(
        "\nEvery row replayed bitwise-identically from its (seed, rate) pair; \
         set NEUROCUBE_CSV=<dir> for fault_sweep.csv"
    );
}
