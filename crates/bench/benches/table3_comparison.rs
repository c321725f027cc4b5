//! Table III — recent hardware platforms for neuro-inspired algorithms,
//! with this reproduction's *measured* throughput inserted as the "This
//! work" rows.
//!
//! Paper's headline: ~4× computing power-efficiency (GOPs/s/W) over the
//! reported GPU implementation, with GPU-like programmability.

use neurocube::SystemConfig;
use neurocube_bench::{header, run_inference, Knobs};
use neurocube_nn::workloads;
use neurocube_power::efficiency::{
    gpu_efficiency_improvement, neurocube_rows, neurocube_system_power_w, PUBLISHED_PLATFORMS,
};
use neurocube_power::table2::ProcessNode;

fn main() {
    let (h, w, label) = Knobs::from_env().scale.dims();
    header(
        "Table III",
        &format!("platform comparison; measured on scene labeling {w}x{h} [{label}]"),
    );
    let spec = workloads::scene_labeling(h, w).expect("geometry fits");
    let report = run_inference(SystemConfig::paper(true), &spec, 3);
    let measured = report.throughput_gops();

    println!(
        "{:<22} {:>4} {:>5} {:>6} {:>10} {:>9} {:>9} {:>10}",
        "platform", "year", "prog", "bits", "GOPs/s", "DRAM", "power W", "GOPs/s/W"
    );
    let rows = neurocube_rows(measured);
    for r in PUBLISHED_PLATFORMS.iter().take(2) {
        println!("{r}");
    }
    for r in &rows {
        println!("{r}");
    }
    for r in PUBLISHED_PLATFORMS.iter().skip(2) {
        println!("{r}");
    }

    println!(
        "\nmeasured Neurocube throughput @5GHz: {:.1} GOPs/s (paper: 132.4)",
        measured
    );
    println!(
        "system power with memory: {:.2} W (28nm), {:.2} W (15nm) — paper: 1.86 / 21.50",
        neurocube_system_power_w(ProcessNode::Cmos28),
        neurocube_system_power_w(ProcessNode::FinFet15)
    );
    println!(
        "efficiency improvement over GTX 780: {:.1}x (paper projects ~4x)",
        gpu_efficiency_improvement(measured)
    );
    println!(
        "note: ASIC rows ([4][7][8][6]) exclude DRAM power/latency; the paper argues the\n\
         comparison should include it, which is what the Neurocube rows do."
    );
}
