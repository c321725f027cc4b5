//! Fig. 12 — Neurocube inference performance on scene labeling.
//!
//! Reproduces the four panels for the 7-layer ConvNN: (a) operations per
//! layer, (b) clock cycles per layer, (c) throughput with and without data
//! duplication, (d) memory requirement and duplication overhead. Also
//! prints the §VI-3 frames-per-second figures for both design nodes.
//!
//! Paper reference points (320×240 input): 132.4 GOPs/s with duplication,
//! 111.4 GOPs/s without; inference 17.52 frames/s at 28 nm and
//! 292.14 frames/s at 15 nm.

use neurocube::SystemConfig;
use neurocube_bench::{csv_f, header, print_layer_panels, run_inference, CsvSink, Knobs};
use neurocube_nn::workloads;

fn main() {
    let (h, w, label) = Knobs::from_env().scale.dims();
    header(
        "Fig. 12",
        &format!("scene-labeling inference, input {w}x{h} [{label}]"),
    );
    let spec = workloads::scene_labeling(h, w).expect("geometry fits");

    println!("\n--- with data duplication (black bars) ---");
    let dup = run_inference(SystemConfig::paper(true), &spec, 12);
    print_layer_panels(&dup);
    println!(
        "memory: {:.1} MiB stored, {:.1} MiB minimal, {:.1}% duplication overhead",
        dup.memory_bytes as f64 / (1 << 20) as f64,
        dup.memory_minimal_bytes as f64 / (1 << 20) as f64,
        100.0 * dup.memory_overhead()
    );

    println!("\n--- without data duplication (gray bars) ---");
    let nodup = run_inference(SystemConfig::paper(false), &spec, 12);
    print_layer_panels(&nodup);

    let mut csv = CsvSink::create(
        "fig12_layers",
        &[
            "mapping", "layer", "kind", "ops", "cycles", "gops", "lateral", "util",
        ],
    );
    for (mapping, rep) in [("dup", &dup), ("nodup", &nodup)] {
        for l in &rep.layers {
            csv.row(&[
                mapping.to_string(),
                (l.layer_index + 1).to_string(),
                l.kind.to_string(),
                l.ops().to_string(),
                l.cycles.to_string(),
                csv_f(l.throughput_gops()),
                csv_f(l.lateral_fraction()),
                csv_f(l.mac_utilization()),
            ]);
        }
    }

    println!("\n--- summary (paper: 132.4 GOPs/s dup, 111.4 GOPs/s no-dup) ---");
    println!(
        "throughput @5GHz: {:.1} GOPs/s (dup) vs {:.1} GOPs/s (no dup), ratio {:.2}",
        dup.throughput_gops(),
        nodup.throughput_gops(),
        nodup.throughput_gops() / dup.throughput_gops()
    );
    println!(
        "frames/s inference: {:.2} @300MHz 28nm (paper 17.52), {:.2} @5GHz 15nm (paper 292.14)",
        dup.frames_per_second_at(300.0e6),
        dup.frames_per_second_at(5.0e9),
    );
    println!(
        "DRAM energy per frame: {:.2} mJ (dup) vs {:.2} mJ (no dup)",
        dup.dram_energy_j() * 1e3,
        nodup.dram_energy_j() * 1e3
    );
}
