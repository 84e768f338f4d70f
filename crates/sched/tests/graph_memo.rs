//! The per-layer graph memo: `Dfg::graph_key` is an exact graph
//! identity, and runs answered from the memo equal fresh runs.

use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};
use flexer_model::{networks, ConvLayer, LayerKind};
use flexer_sched::{Cutoff, Incumbent, Metric, OooScheduler, SchedError, SearchOptions};
use flexer_tiling::{enumerate_tilings, Dataflow, Dfg, GraphKey, TilingFactors};
use std::collections::{HashMap, HashSet};

/// The layers a network search schedules: one per distinct shape, with
/// matmul folded onto the equivalent pointwise conv.
fn leaders(layers: &[ConvLayer]) -> Vec<&ConvLayer> {
    let mut seen = HashSet::new();
    layers
        .iter()
        .filter(|l| {
            let (tag, groups) = match l.kind() {
                LayerKind::Dense | LayerKind::Matmul => (0, 1),
                LayerKind::Grouped { groups } => (1, groups),
            };
            seen.insert((
                [
                    l.in_channels(),
                    l.in_height(),
                    l.in_width(),
                    l.out_channels(),
                ],
                [l.kernel_h(), l.kernel_w(), l.stride(), l.padding()],
                (tag, groups),
            ))
        })
        .collect()
}

/// Every field of two DFGs of one layer except their dataflow label.
fn assert_same_graph(a: &Dfg, b: &Dfg) {
    let what = format!("{a} vs {}", b.dataflow());
    assert_eq!(a.layer(), b.layer(), "{what}");
    assert_eq!(a.factors(), b.factors(), "{what}");
    assert_eq!(a.residency(), b.residency(), "{what}");
    assert_eq!(a.ops(), b.ops(), "{what}");
    for op in a.ops() {
        assert_eq!(a.pred(op.id()), b.pred(op.id()), "{what}");
        assert_eq!(a.succ(op.id()), b.succ(op.id()), "{what}");
    }
    assert!(a.tiles().eq(b.tiles()), "{what}");
    for tile in a.tiles() {
        assert_eq!(a.tile_bytes(tile), b.tile_bytes(tile), "{what}");
        assert_eq!(a.initial_uses(tile), b.initial_uses(tile), "{what}");
    }
}

/// Equal keys across the six dataflows mean equal graphs, on every
/// leader layer of the zoo.
#[test]
fn graph_key_is_exact_on_every_leader_layer() {
    let opts = SearchOptions::quick();
    for (arch_name, arch) in [
        ("arch5", ArchConfig::preset(ArchPreset::Arch5)),
        ("hetero1", ArchConfig::hetero1()),
    ] {
        let model = SystolicModel::new(&arch);
        for net in [
            "squeezenet",
            "resnet50",
            "mobilenet",
            "transformer",
            "firenet",
        ] {
            let network = networks::by_name(net).unwrap();
            let (mut items, mut keys) = (0, 0);
            for layer in leaders(network.layers()) {
                for factors in enumerate_tilings(layer, &arch, &opts.tiling) {
                    let mut by_key: HashMap<GraphKey, Dfg> = HashMap::new();
                    for &dataflow in &opts.dataflows {
                        let dfg = Dfg::build(layer, factors, dataflow, &model, &arch).unwrap();
                        items += 1;
                        match by_key.get(&dfg.graph_key()) {
                            Some(first) => assert_same_graph(first, &dfg),
                            None => {
                                by_key.insert(dfg.graph_key(), dfg);
                            }
                        }
                    }
                    keys += by_key.len();
                }
            }
            if (net, arch_name) == ("resnet50", "arch5") {
                // 1380 work items build 494 distinct graphs.
                assert_eq!((items, keys), (1380, 494));
            }
        }
    }
}

/// Schedules every dataflow of `factors` under one shared incumbent,
/// and each again as a fresh run against an incumbent at the value the
/// shared one had: the outcomes must be identical.
fn assert_memo_matches_fresh_runs(layer: &ConvLayer, factors: TilingFactors, seed: Option<f64>) {
    let arch = ArchConfig::preset(ArchPreset::Arch5);
    let model = SystolicModel::new(&arch);
    let metric = Metric::LatencyTimesTransfer;
    let shared = Incumbent::new();
    if let Some(seed) = seed {
        shared.observe(seed);
    }
    let mut outcomes = Vec::new();
    // Twice over: the second pass answers every graph from the memo.
    for dataflow in Dataflow::all().into_iter().chain(Dataflow::all()) {
        let dfg = Dfg::build(layer, factors, dataflow, &model, &arch).unwrap();
        let fresh = Incumbent::new();
        fresh.observe(shared.get());
        let run = |incumbent| {
            OooScheduler::new(&dfg, &arch, &model)
                .with_cutoff(Cutoff::new(incumbent, metric))
                .schedule_with_stats()
        };
        let (memo, fresh) = (run(&shared), run(&fresh));
        match (&memo, &fresh) {
            (Ok(a), Ok(b)) => {
                assert_eq!((&a.0, &a.1), (&b.0, &b.1), "{dataflow:?}");
                assert_eq!(
                    a.2.deterministic_fields(),
                    b.2.deterministic_fields(),
                    "{dataflow:?}"
                );
                shared.observe(metric.score(a.0.latency(), a.0.transfer_bytes()));
            }
            (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "{dataflow:?}"),
        }
        outcomes.push(memo.map(|_| ()));
    }
    assert!(outcomes.contains(&Ok(())), "nothing completed");
    if seed.is_some() {
        assert!(
            outcomes.contains(&Err(SchedError::Pruned)),
            "nothing pruned"
        );
    }
}

#[test]
fn memo_answers_equal_fresh_runs() {
    let layer = ConvLayer::new("c", 64, 28, 28, 64).unwrap();
    // All loops tiled (six graphs), and one input-channel tile (two
    // graphs, three dataflows each).
    for (k, c, h, w) in [(2, 2, 2, 2), (4, 1, 2, 2)] {
        let factors = TilingFactors::normalized(&layer, k, c, h, w);
        assert_memo_matches_fresh_runs(&layer, factors, None);
        // An incumbent at the best dataflow's score prunes the other
        // graphs and completes the best.
        let arch = ArchConfig::preset(ArchPreset::Arch5);
        let model = SystolicModel::new(&arch);
        let mut scores: Vec<f64> = Dataflow::all()
            .into_iter()
            .map(|d| {
                let dfg = Dfg::build(&layer, factors, d, &model, &arch).unwrap();
                let s = OooScheduler::new(&dfg, &arch, &model).schedule().unwrap();
                Metric::LatencyTimesTransfer.score(s.latency(), s.transfer_bytes())
            })
            .collect();
        scores.sort_by(f64::total_cmp);
        assert!(scores[0] < scores[5]);
        assert_memo_matches_fresh_runs(&layer, factors, Some(scores[0]));
    }
}
