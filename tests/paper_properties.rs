//! Tests of the qualitative properties the paper reports — the claims
//! the reproduction must uphold regardless of absolute cycle counts.

use flexer::arch::SystolicModel;
use flexer::prelude::*;
use flexer::sched::{search, search_layer, OooScheduler, SearchRequest, StaticScheduler};
use flexer::sim::TrafficStats;

fn arch5() -> ArchConfig {
    ArchConfig::preset(ArchPreset::Arch5)
}

/// §5: "the regular structure of the loop dictates that all tiles of a
/// given type are reloaded the same number of times, i.e., there is no
/// reload variation for a given data type" — for loop-order schedules.
#[test]
fn static_schedules_have_uniform_reload_counts() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let model = SystolicModel::new(&arch);
    let layer = ConvLayer::new("u", 128, 28, 28, 128).unwrap();
    let factors = TilingFactors::normalized(&layer, 4, 4, 2, 2);
    for df in Dataflow::all() {
        let dfg = Dfg::build(&layer, factors, df, &model, &arch).unwrap();
        let st = StaticScheduler::new(&dfg, &arch, &model)
            .schedule()
            .unwrap();
        for kind in [TileKind::Input, TileKind::Weight] {
            assert!(
                !st.traffic().has_reload_variation(kind),
                "{df}: {kind} reloads vary in a loop-order schedule"
            );
        }
    }
}

/// §5: OoO schedules "contain different data flow patterns that result
/// in different reload counts for the same type of data".
#[test]
fn ooo_schedules_can_vary_reload_counts() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let model = SystolicModel::new(&arch);
    // conv4_2-class memory pressure so reloads actually happen; the
    // greedy OoO choices then produce irregular per-tile reload counts.
    let layer = ConvLayer::new("v", 512, 28, 28, 512).unwrap();
    let factors = TilingFactors::normalized(&layer, 8, 8, 2, 2);
    let variation = Dataflow::all().iter().any(|&df| {
        let dfg = Dfg::build(&layer, factors, df, &model, &arch).unwrap();
        let ooo = OooScheduler::new(&dfg, &arch, &model).schedule().unwrap();
        TileKind::all()
            .iter()
            .any(|&k| ooo.traffic().has_reload_variation(k))
    });
    assert!(variation, "no OoO schedule showed reload variation");
}

/// Figure 10: the "on-chip" reference (infinite buffer) lower-bounds
/// every real schedule's traffic, class by class where mandatory.
#[test]
fn onchip_reference_bounds_real_schedules() {
    let arch = arch5();
    let model = SystolicModel::new(&arch);
    let layer = ConvLayer::new("b", 128, 28, 28, 128).unwrap();
    let factors = TilingFactors::normalized(&layer, 4, 4, 2, 2);
    for df in [Dataflow::Kcs, Dataflow::Csk, Dataflow::Ksc] {
        let dfg = Dfg::build(&layer, factors, df, &model, &arch).unwrap();
        let reference = onchip_reference_traffic(&dfg);
        for sched in [
            OooScheduler::new(&dfg, &arch, &model).schedule().unwrap(),
            StaticScheduler::new(&dfg, &arch, &model)
                .schedule()
                .unwrap(),
        ] {
            let t: &TrafficStats = sched.traffic();
            assert!(t.total_bytes() >= reference.total_bytes());
            // Inputs and weights must each be brought in at least once;
            // outputs stored at least once.
            for class in [
                TrafficClass::Input,
                TrafficClass::Weight,
                TrafficClass::Output,
            ] {
                assert!(
                    t.class_bytes(class) >= reference.class_bytes(class),
                    "{df}: {class} below the mandatory minimum"
                );
            }
        }
    }
}

/// Figure 11: a stationary loop order shares exactly one data type
/// between NPUs; OoO schedules may share several during one layer.
#[test]
fn spatial_reuse_kind_diversity() {
    let arch = arch5();
    let model = SystolicModel::new(&arch);
    let layer = ConvLayer::new("s", 128, 28, 28, 128).unwrap();
    let factors = TilingFactors::normalized(&layer, 4, 4, 2, 2);
    // Input-stationary static order: only IN tiles shared.
    let dfg = Dfg::build(&layer, factors, Dataflow::Csk, &model, &arch).unwrap();
    let st = StaticScheduler::new(&dfg, &arch, &model)
        .schedule()
        .unwrap();
    assert!(st.spatial_reuse().events(TileKind::Input) > 0);
    assert_eq!(st.spatial_reuse().events(TileKind::Output), 0);
    // Weight-stationary static order: only WT tiles shared.
    let dfg = Dfg::build(&layer, factors, Dataflow::Kcs, &model, &arch).unwrap();
    let st = StaticScheduler::new(&dfg, &arch, &model)
        .schedule()
        .unwrap();
    assert!(st.spatial_reuse().events(TileKind::Weight) > 0);
    assert_eq!(st.spatial_reuse().events(TileKind::Input), 0);
    // The OoO schedule mixes patterns: at least two kinds shared.
    let ooo = OooScheduler::new(&dfg, &arch, &model).schedule().unwrap();
    assert!(
        ooo.spatial_reuse().kinds_shared() >= 2,
        "OoO shared only {} kind(s)",
        ooo.spatial_reuse().kinds_shared()
    );
}

/// The headline comparison on a layer the reproduction reliably wins:
/// Flexer beats the best static loop order on the paper's metric, with
/// a real latency speedup (cf. Figure 9, ResNet-50 1x1 layers).
#[test]
fn flexer_beats_baseline_on_bandwidth_bound_layer() {
    let resnet = networks::resnet50();
    let layer = resnet.layer_by_name("conv3_1_1").unwrap();
    let opts = SearchOptions::default();
    let ooo = search_layer(layer, &arch5(), &opts).unwrap();
    let request = SearchRequest::new(SchedulerKind::Static);
    let st = search(std::slice::from_ref(layer), &arch5(), &opts, request)
        .0
        .remove(0)
        .unwrap();
    assert!(
        ooo.score < st.score,
        "metric: ooo {} vs static {}",
        ooo.score,
        st.score
    );
    assert!(
        st.schedule.latency() as f64 / ooo.schedule.latency() as f64 > 1.1,
        "speedup only {:.3}",
        st.schedule.latency() as f64 / ooo.schedule.latency() as f64
    );
}

/// Figure 9 (b): weighting transfers higher trades latency for
/// traffic.
#[test]
fn transfer_weighted_metric_shifts_the_tradeoff() {
    let vgg = networks::vgg16();
    let layer = scale_spatial(&vgg, 2)
        .layer_by_name("conv4_2")
        .unwrap()
        .clone();
    let arch = arch5();
    let default = search_layer(&layer, &arch, &SearchOptions::quick()).unwrap();
    let weighted = search_layer(
        &layer,
        &arch,
        &SearchOptions {
            metric: Metric::TransferWeighted { weight: 3.0 },
            ..SearchOptions::quick()
        },
    )
    .unwrap();
    assert!(weighted.schedule.transfer_bytes() <= default.schedule.transfer_bytes());
}

/// Output-stationary loop orders never move partial sums off-chip;
/// input-stationary orders with several channel tiles must.
#[test]
fn psum_traffic_follows_stationarity() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let model = SystolicModel::new(&arch);
    let layer = ConvLayer::new("p", 128, 16, 16, 64).unwrap();
    let factors = TilingFactors::normalized(&layer, 4, 4, 2, 2);
    let ksc = Dfg::build(&layer, factors, Dataflow::Ksc, &model, &arch).unwrap();
    let st = StaticScheduler::new(&ksc, &arch, &model)
        .schedule()
        .unwrap();
    assert_eq!(st.traffic().class_bytes(TrafficClass::Psum), 0);
    let csk = Dfg::build(&layer, factors, Dataflow::Csk, &model, &arch).unwrap();
    let st = StaticScheduler::new(&csk, &arch, &model)
        .schedule()
        .unwrap();
    assert!(st.traffic().class_bytes(TrafficClass::Psum) > 0);
}

/// More cores never slow a layer down under the OoO scheduler
/// (same buffer, same bandwidth).
#[test]
fn more_cores_do_not_hurt() {
    let layer = ConvLayer::new("c", 64, 28, 28, 64).unwrap();
    let opts = SearchOptions::quick();
    let two = search_layer(&layer, &ArchConfig::preset(ArchPreset::Arch2), &opts).unwrap();
    let four = search_layer(&layer, &ArchConfig::preset(ArchPreset::Arch6), &opts).unwrap();
    assert!(four.schedule.latency() <= two.schedule.latency());
}

/// A larger buffer never increases the best schedule's traffic.
#[test]
fn larger_buffer_does_not_increase_traffic() {
    let layer = ConvLayer::new("m", 128, 28, 28, 128).unwrap();
    let opts = SearchOptions::quick();
    let small = search_layer(&layer, &ArchConfig::preset(ArchPreset::Arch1), &opts).unwrap();
    let large = search_layer(&layer, &ArchConfig::preset(ArchPreset::Arch3), &opts).unwrap();
    assert!(large.schedule.transfer_bytes() <= small.schedule.transfer_bytes());
}
