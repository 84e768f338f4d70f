//! Quickstart: schedule one convolution layer with Flexer and compare
//! against the best static loop-order schedule.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use flexer::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // VGG-16's conv4_2 — the layer the paper dissects in Figure 10 —
    // on arch1: two NPU cores sharing a 256 KiB buffer over a
    // 32 B/cycle DRAM link (Table 1).
    let network = networks::vgg16();
    let layer = network
        .layer_by_name("conv4_2")
        .expect("vgg16 has conv4_2")
        .clone();
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    println!("layer : {layer}");
    println!("arch  : {arch}");

    // `quick()` trims the search budgets so this example finishes in
    // seconds; drop it for the paper-scale exhaustive search.
    let driver = Flexer::new(arch).with_options(SearchOptions::quick());

    let ooo = driver.schedule_layer(&layer)?;
    println!(
        "\nFlexer (out-of-order): {:>12} cycles  {:>12} B  [{} / {}]",
        ooo.schedule.latency(),
        ooo.schedule.transfer_bytes(),
        ooo.factors,
        ooo.dataflow,
    );

    let (baseline, _) = driver.search(
        std::slice::from_ref(&layer),
        SchedulerKind::Static,
        RunMode::Exact,
    );
    let baseline = baseline?.remove(0);
    println!(
        "best static order    : {:>12} cycles  {:>12} B  [{} / {}]",
        baseline.schedule.latency(),
        baseline.schedule.transfer_bytes(),
        baseline.factors,
        baseline.dataflow,
    );

    let speedup = baseline.schedule.latency() as f64 / ooo.schedule.latency() as f64;
    let reduction =
        baseline.schedule.transfer_bytes() as f64 / ooo.schedule.transfer_bytes() as f64;
    println!("\nspeedup {speedup:.2}x, data-transfer reduction {reduction:.2}x");
    println!(
        "searched {} (tiling, dataflow) pairs per scheduler",
        ooo.evaluated
    );

    // Lower the winning schedule into the NPU command stream a real
    // sequencer would execute (first few commands shown).
    let model = SystolicModel::new(driver.arch());
    let dfg = Dfg::build(&layer, ooo.factors, ooo.dataflow, &model, driver.arch())?;
    let (_, program) =
        flexer::sched::OooScheduler::new(&dfg, driver.arch(), &model).schedule_with_program()?;
    program.check(&dfg)?;
    println!("\nlowered program ({} commands, validated):", program.len());
    for line in program.render().lines().take(9) {
        println!("  {line}");
    }
    Ok(())
}
