//! Branch-and-bound exactness tests.
//!
//! Two families:
//!
//! 1. **Admissibility** (property-based): for random layers, every
//!    `(tiling, dataflow)` point the search explores must dominate its
//!    [`lower_bound`] — bound latency ≤ schedule latency, bound
//!    transfer ≤ transferred bytes — for the OoO scheduler *and* the
//!    static baseline. Admissibility is the entire soundness argument
//!    of the pruned search (DESIGN.md §10): a single violation could
//!    prune a winner.
//! 2. **Winner equality** (golden): on the four evaluation networks,
//!    both presets, both schedulers, the pruned search returns the
//!    same tiling, dataflow and score as the exhaustive one, with
//!    every winner differentially verified (`validate = true`).

use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};
use flexer_model::{networks, scale_spatial, ConvLayer};
use flexer_sched::{lower_bound, search, SchedulerKind, SearchOptions, SearchRequest};
use proptest::prelude::*;

/// The scheduler a test's `ooo` flag names.
fn kind(ooo: bool) -> SchedulerKind {
    if ooo {
        SchedulerKind::Ooo
    } else {
        SchedulerKind::Static
    }
}

/// Quick options that keep every explored point.
fn collecting_opts() -> SearchOptions {
    let mut opts = SearchOptions::quick();
    opts.threads = 1;
    opts.collect_points = true;
    opts
}

fn assert_points_dominate_bounds(layer: &ConvLayer, arch: &ArchConfig, ooo: bool) {
    let perf = SystolicModel::new(arch);
    let opts = collecting_opts();
    let (mut results, _) = search(
        std::slice::from_ref(layer),
        arch,
        &opts,
        SearchRequest::new(kind(ooo)),
    );
    let result = results
        .remove(0)
        .expect("search succeeds on generated layer");
    assert!(!result.points.is_empty());
    for p in &result.points {
        let b = lower_bound(layer, arch, &perf, &p.factors);
        assert!(
            b.latency <= p.latency,
            "latency bound {} exceeds schedule latency {} ({:?}, {})",
            b.latency,
            p.latency,
            p.factors,
            p.dataflow,
        );
        assert!(
            b.transfer_bytes <= p.transfer_bytes,
            "transfer bound {} exceeds transferred bytes {} ({:?}, {})",
            b.transfer_bytes,
            p.transfer_bytes,
            p.factors,
            p.dataflow,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bounds_are_admissible_for_every_explored_point(
        in_c in prop::sample::select(vec![8u32, 16, 24, 32]),
        out_c in prop::sample::select(vec![8u32, 16, 32, 48]),
        h in 7u32..=20,
        w in 7u32..=20,
        preset in prop::sample::select(vec![ArchPreset::Arch1, ArchPreset::Arch5]),
        ooo in any::<bool>(),
    ) {
        let layer = ConvLayer::new("prop", in_c, h, w, out_c).unwrap();
        let arch = ArchConfig::preset(preset);
        assert_points_dominate_bounds(&layer, &arch, ooo);
    }
}

#[test]
fn pruned_winners_match_exhaustive_on_the_evaluation_networks() {
    // Spatially scaled-down networks keep the test fast; the search
    // structure (tilings × dataflows per layer) is unchanged.
    let mut pruned_opts = SearchOptions::quick();
    pruned_opts.threads = 1;
    pruned_opts.validate = true;
    assert!(pruned_opts.prune, "pruning is on by default");
    let mut full_opts = pruned_opts.clone();
    full_opts.prune = false;

    for net in networks::all() {
        let net = scale_spatial(&net, 4);
        for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
            let arch = ArchConfig::preset(preset);
            for ooo in [true, false] {
                let run = |opts| -> Vec<_> {
                    let (results, _) =
                        search(net.layers(), &arch, opts, SearchRequest::new(kind(ooo)));
                    results.into_iter().map(Result::unwrap).collect()
                };
                let (pruned, full) = (run(&pruned_opts), run(&full_opts));
                assert_eq!(pruned.len(), full.len());
                let mut pruned_any = false;
                for (p, f) in pruned.iter().zip(&full) {
                    let ctx = format!("{}/{preset}/ooo={ooo}/{}", net.name(), p.layer);
                    assert_eq!(p.factors, f.factors, "{ctx}: tiling differs");
                    assert_eq!(p.dataflow, f.dataflow, "{ctx}: dataflow differs");
                    assert_eq!(p.score, f.score, "{ctx}: score differs");
                    assert_eq!(p.schedule, f.schedule, "{ctx}: schedule differs");
                    assert!(p.stats.schedules_verified > 0, "{ctx}: winner not verified");
                    pruned_any |= p.stats.candidates_pruned > 0 || p.stats.early_exits > 0;
                }
                assert!(
                    pruned_any,
                    "{}/{preset}/ooo={ooo}: pruning never fired",
                    net.name()
                );
            }
        }
    }
}
