//! Golden equivalence tests: the transactional SPM planning path must
//! be a pure performance optimization. Under [`SearchOptions::quick`]
//! the full Algorithm-1 search — OoO and static — produces
//! byte-identical winners whether candidate sets are trial-planned
//! with checkpoint/rollback on the live scratchpad (the default) or on
//! a clone per candidate (the pre-optimization baseline).

use flexer_arch::{ArchConfig, ArchPreset};
use flexer_model::ConvLayer;
use flexer_sched::{
    search, search_layer, search_network, EvalMode, LayerSearchResult, SchedError, SchedulerKind,
    SearchOptions, SearchRequest,
};

/// The best static loop-order schedule of one layer.
fn search_static(
    layer: &ConvLayer,
    arch: &ArchConfig,
    opts: &SearchOptions,
) -> Result<LayerSearchResult, SchedError> {
    let (mut results, _) = search(
        std::slice::from_ref(layer),
        arch,
        opts,
        SearchRequest::new(SchedulerKind::Static),
    );
    results.remove(0)
}

fn layers() -> Vec<ConvLayer> {
    vec![
        ConvLayer::new("small", 16, 14, 14, 32).unwrap(),
        ConvLayer::new("square", 32, 14, 14, 32).unwrap(),
        ConvLayer::new("wide", 64, 7, 7, 96).unwrap(),
    ]
}

fn modes() -> [SearchOptions; 2] {
    let tx = SearchOptions::quick();
    let mut clone = SearchOptions::quick();
    clone.eval_mode = EvalMode::CloneBaseline;
    [tx, clone]
}

fn assert_same_winner(a: &LayerSearchResult, b: &LayerSearchResult) {
    assert_eq!(a.schedule, b.schedule, "schedules must be byte-identical");
    assert_eq!(a.factors, b.factors);
    assert_eq!(a.dataflow, b.dataflow);
    assert_eq!(a.score, b.score);
    assert_eq!(a.evaluated, b.evaluated);
}

#[test]
fn ooo_search_is_identical_across_eval_modes() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let [tx, clone] = modes();
    for layer in layers() {
        let a = search_layer(&layer, &arch, &tx).unwrap();
        let b = search_layer(&layer, &arch, &clone).unwrap();
        assert_same_winner(&a, &b);
        // Only the cost accounting differs between the modes.
        assert!(a.stats.rollback_bytes > 0);
        assert_eq!(b.stats.rollback_bytes, 0);
        // With several threads, incumbent timing decides which runs the
        // cutoff aborts, so the work counters are compared on one.
        let [mut tx1, mut clone1] = modes();
        tx1.threads = 1;
        clone1.threads = 1;
        let a = search_layer(&layer, &arch, &tx1).unwrap();
        let b = search_layer(&layer, &arch, &clone1).unwrap();
        assert_eq!(a.stats.sets_evaluated, b.stats.sets_evaluated);
    }
}

#[test]
fn static_search_is_identical_across_eval_modes() {
    // The static baseline never trial-plans candidate sets; the eval
    // mode must not perturb it in any way.
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let [tx, clone] = modes();
    for layer in layers() {
        let a = search_static(&layer, &arch, &tx).unwrap();
        let b = search_static(&layer, &arch, &clone).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.factors, b.factors);
        assert_eq!(a.dataflow, b.dataflow);
        assert_eq!(a.score, b.score);
    }
}

#[test]
fn network_queue_is_identical_across_eval_modes_and_archs() {
    // The shared work queue must preserve the equivalence end to end,
    // on both a 2-core and a 4-core configuration.
    let [tx, clone] = modes();
    for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
        let arch = ArchConfig::preset(preset);
        let net = layers();
        let a = search_network(&net, &arch, &tx).unwrap();
        let b = search_network(&net, &arch, &clone).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_same_winner(x, y);
        }
    }
}
