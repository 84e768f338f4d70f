//! End-to-end driver tests: whole (scaled) networks through the
//! [`Flexer`] driver, determinism, and memoization behaviour.

use flexer::prelude::*;

fn quick_driver(preset: ArchPreset) -> Flexer {
    Flexer::new(ArchConfig::preset(preset)).with_options(SearchOptions::quick())
}

#[test]
fn scaled_vgg16_schedules_end_to_end() {
    let net = scale_spatial(&networks::vgg16(), 8);
    let driver = quick_driver(ArchPreset::Arch1);
    let cmp = driver.compare_network(&net).unwrap();
    assert_eq!(cmp.flexer().layers().len(), 13);
    assert!(cmp.flexer().total_latency() > 0);
    assert!(cmp.flexer().total_transfer_bytes() > 0);
    // The OoO scheduler never loses the paper's metric end-to-end by
    // more than noise; typically it wins.
    let fm = cmp.flexer().total_latency() as f64 * cmp.flexer().total_transfer_bytes() as f64;
    let bm = cmp.baseline().total_latency() as f64 * cmp.baseline().total_transfer_bytes() as f64;
    assert!(
        fm <= bm * 1.15,
        "flexer metric {fm:.3e} vs baseline {bm:.3e}"
    );
}

#[test]
fn scaled_squeezenet_and_yolo_schedule_end_to_end() {
    for (net, scale) in [(networks::squeezenet(), 4), (networks::yolov2(), 16)] {
        let net = scale_spatial(&net, scale);
        let driver = quick_driver(ArchPreset::Arch5);
        let result = driver.schedule_network(&net).unwrap();
        assert_eq!(result.layers().len(), net.layers().len());
        for layer in result.layers() {
            assert!(layer.schedule.latency() > 0, "{}", layer.layer);
        }
    }
}

#[test]
fn scaled_resnet50_memoizes_repeated_blocks() {
    let net = scale_spatial(&networks::resnet50(), 8);
    let driver = quick_driver(ArchPreset::Arch2);
    let result = driver.schedule_network(&net).unwrap();
    // ResNet-50 has 53 conv layers but far fewer distinct shapes.
    assert_eq!(result.layers().len(), 53);
    assert!(driver.cached_shapes() < 53);
    let replays = result.layers().iter().filter(|l| l.evaluated == 1).count();
    assert!(replays >= 53 - driver.cached_shapes());
}

#[test]
fn scheduling_is_deterministic_across_runs_and_threads() {
    let net = scale_spatial(&networks::squeezenet(), 8);
    let slice = Network::new("slice", net.layers()[..5].to_vec()).unwrap();
    let mut serial = SearchOptions::quick();
    serial.threads = 1;
    let mut parallel = SearchOptions::quick();
    parallel.threads = 8;
    let a = Flexer::new(ArchConfig::preset(ArchPreset::Arch5))
        .with_options(serial)
        .schedule_network(&slice)
        .unwrap();
    let b = Flexer::new(ArchConfig::preset(ArchPreset::Arch5))
        .with_options(parallel.clone())
        .schedule_network(&slice)
        .unwrap();
    let c = Flexer::new(ArchConfig::preset(ArchPreset::Arch5))
        .with_options(parallel)
        .schedule_network(&slice)
        .unwrap();
    for ((x, y), z) in a.layers().iter().zip(b.layers()).zip(c.layers()) {
        assert_eq!(x.factors, y.factors);
        assert_eq!(x.dataflow, y.dataflow);
        assert_eq!(x.schedule.latency(), y.schedule.latency());
        assert_eq!(x.schedule.transfer_bytes(), y.schedule.transfer_bytes());
        assert_eq!(y.schedule.latency(), z.schedule.latency());
    }
}

#[test]
fn graph_memo_keeps_winners_across_threads_and_counters_across_runs() {
    // Full-size SqueezeNet, where most work items share a graph with
    // another dataflow. Winners never depend on the thread count. The
    // merged counters repeat exactly on one thread; on two, the
    // incumbent race decides which candidates complete, with or
    // without the memo.
    let run = |threads| {
        let opts = SearchOptions {
            threads,
            ..SearchOptions::quick()
        };
        Flexer::new(ArchConfig::preset(ArchPreset::Arch5))
            .with_options(opts)
            .schedule_network(&networks::squeezenet())
            .unwrap()
    };
    let (serial, again, parallel) = (run(1), run(1), run(2));
    for ((a, b), c) in serial
        .layers()
        .iter()
        .zip(again.layers())
        .zip(parallel.layers())
    {
        let winner =
            |l: &flexer_sched::LayerSearchResult| (l.factors, l.dataflow, l.schedule.clone());
        assert_eq!(winner(a), winner(b), "{}", a.layer);
        assert_eq!(winner(a), winner(c), "{}", a.layer);
    }
    assert_eq!(
        serial.total_stats().deterministic_fields(),
        again.total_stats().deterministic_fields()
    );
}

#[test]
fn comparison_reports_are_consistent() {
    let net = Network::new(
        "t",
        vec![
            ConvLayer::new("a", 32, 14, 14, 32).unwrap(),
            ConvLayer::new("b", 32, 14, 14, 64).unwrap(),
        ],
    )
    .unwrap();
    let driver = quick_driver(ArchPreset::Arch1);
    let cmp = driver.compare_network(&net).unwrap();
    // Per-layer latencies sum to the totals the ratios are built from.
    let f_sum: u64 = cmp.per_layer().map(|l| l.flexer_latency).sum();
    let b_sum: u64 = cmp.per_layer().map(|l| l.baseline_latency).sum();
    assert_eq!(f_sum, cmp.flexer().total_latency());
    assert_eq!(b_sum, cmp.baseline().total_latency());
    let expected = b_sum as f64 / f_sum as f64;
    assert!((cmp.speedup() - expected).abs() < 1e-12);
}

#[test]
fn class_traffic_sums_to_total() {
    let net = scale_spatial(&networks::vgg16(), 16);
    let slice = Network::new("s", net.layers()[..4].to_vec()).unwrap();
    let driver = quick_driver(ArchPreset::Arch1);
    let result = driver.schedule_network(&slice).unwrap();
    let by_class: u64 = TrafficClass::all()
        .iter()
        .map(|&c| result.class_transfer_bytes(c))
        .sum();
    assert_eq!(by_class, result.total_transfer_bytes());
}
