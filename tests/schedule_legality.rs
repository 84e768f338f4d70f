//! Cross-crate legality tests: every schedule either scheduler
//! produces — across layers, tilings, dataflows and architectures —
//! must pass the structural validator.

use flexer::arch::SystolicModel;
use flexer::prelude::*;
use flexer::sched::{OooScheduler, StaticScheduler};

fn check_both(layer: &ConvLayer, arch: &ArchConfig, factors: TilingFactors, df: Dataflow) {
    let model = SystolicModel::new(arch);
    let dfg = Dfg::build(layer, factors, df, &model, arch).unwrap();
    let ooo = OooScheduler::new(&dfg, arch, &model).schedule().unwrap();
    validate_schedule(&dfg, &ooo).unwrap_or_else(|e| panic!("ooo {df} {factors}: {e}"));
    let st = StaticScheduler::new(&dfg, arch, &model).schedule().unwrap();
    validate_schedule(&dfg, &st).unwrap_or_else(|e| panic!("static {df} {factors}: {e}"));
}

#[test]
fn all_dataflows_legal_on_all_presets() {
    let layer = ConvLayer::new("l", 64, 16, 16, 64).unwrap();
    for preset in ArchPreset::all() {
        let arch = ArchConfig::preset(preset);
        let factors = TilingFactors::normalized(&layer, 4, 2, 2, 2);
        for df in Dataflow::all() {
            check_both(&layer, &arch, factors, df);
        }
    }
}

#[test]
fn assorted_layer_geometries_are_legal() {
    let arch = ArchConfig::preset(ArchPreset::Arch5);
    let layers = [
        // Pointwise.
        ConvLayerBuilder::new("pw", 256, 14, 14, 512)
            .build()
            .unwrap(),
        // Strided 3x3.
        ConvLayerBuilder::new("s2", 64, 56, 56, 128)
            .kernel(3, 3)
            .stride(2)
            .padding(1)
            .build()
            .unwrap(),
        // Large-kernel stem.
        ConvLayerBuilder::new("stem", 3, 112, 112, 64)
            .kernel(7, 7)
            .stride(2)
            .padding(3)
            .build()
            .unwrap(),
        // Asymmetric extents.
        ConvLayerBuilder::new("asym", 48, 20, 36, 24)
            .kernel(3, 3)
            .padding(1)
            .build()
            .unwrap(),
    ];
    for layer in &layers {
        let tilings = flexer::tiling::enumerate_tilings(
            layer,
            &arch,
            &TilingOptions {
                max_tilings: 4,
                ..Default::default()
            },
        );
        assert!(!tilings.is_empty(), "{}", layer.name());
        for &factors in &tilings {
            check_both(layer, &arch, factors, Dataflow::Kcs);
            check_both(layer, &arch, factors, Dataflow::Csk);
        }
    }
}

#[test]
fn single_op_dfg_is_legal() {
    // A layer that fits on-chip untiled.
    let arch = ArchConfig::preset(ArchPreset::Arch4);
    let layer = ConvLayer::new("tiny", 16, 8, 8, 16).unwrap();
    let factors = TilingFactors::normalized(&layer, 1, 1, 1, 1);
    check_both(&layer, &arch, factors, Dataflow::Kcs);
}

#[test]
fn deep_psum_chains_are_legal() {
    // Heavy channel tiling: long accumulation chains, little else.
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let layer = ConvLayer::new("chain", 512, 8, 8, 32).unwrap();
    let factors = TilingFactors::normalized(&layer, 1, 16, 1, 1);
    for df in [Dataflow::Kcs, Dataflow::Ksc, Dataflow::Sck] {
        check_both(&layer, &arch, factors, df);
    }
}

#[test]
fn search_winners_are_legal() {
    let arch = ArchConfig::preset(ArchPreset::Arch6);
    let model = SystolicModel::new(&arch);
    let layer = ConvLayer::new("w", 96, 28, 28, 96).unwrap();
    let opts = SearchOptions::quick();
    let ooo = flexer::sched::search_layer(&layer, &arch, &opts).unwrap();
    let dfg = Dfg::build(&layer, ooo.factors, ooo.dataflow, &model, &arch).unwrap();
    validate_schedule(&dfg, &ooo.schedule).unwrap();
    let request = flexer::sched::SearchRequest::new(SchedulerKind::Static);
    let (mut st, _) = flexer::sched::search(std::slice::from_ref(&layer), &arch, &opts, request);
    let st = st.remove(0).unwrap();
    let dfg = Dfg::build(&layer, st.factors, st.dataflow, &model, &arch).unwrap();
    validate_schedule(&dfg, &st.schedule).unwrap();
}

#[test]
fn every_op_of_real_layers_scheduled_exactly_once() {
    let arch = ArchConfig::preset(ArchPreset::Arch2);
    let model = SystolicModel::new(&arch);
    let net = scale_spatial(&networks::squeezenet(), 4);
    for layer in net.layers().iter().take(6) {
        let tilings = flexer::tiling::enumerate_tilings(
            layer,
            &arch,
            &TilingOptions {
                max_tilings: 2,
                ..Default::default()
            },
        );
        for &factors in &tilings {
            let dfg = Dfg::build(layer, factors, Dataflow::Csk, &model, &arch).unwrap();
            let sched = OooScheduler::new(&dfg, &arch, &model).schedule().unwrap();
            assert_eq!(sched.compute().len(), dfg.num_ops(), "{}", layer.name());
            validate_schedule(&dfg, &sched).unwrap();
        }
    }
}
