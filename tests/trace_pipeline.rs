//! End-to-end trace validation: the search pipeline's trace output is
//! byte-stable, thread-count invariant (with pruning off), exports
//! valid Chrome JSON, and pins an exact golden span tree for a fixed
//! one-layer search.

use flexer::prelude::*;
use flexer::sched::{search, LayerSearchResult, SchedError, SearchRequest};
use flexer::trace::{chrome, text};

/// A traced out-of-order search of `layers`.
fn search_traced(
    layers: &[ConvLayer],
    arch: &ArchConfig,
    opts: &SearchOptions,
) -> (Result<Vec<LayerSearchResult>, SchedError>, Trace) {
    let request = SearchRequest {
        trace: true,
        ..SearchRequest::new(SchedulerKind::Ooo)
    };
    let (results, trace) = search(layers, arch, opts, request);
    (results.into_iter().collect(), trace)
}

/// The fixed search every test in this file agrees on: one small layer,
/// one dataflow, two tilings, serial — small enough that its span tree
/// can be pinned byte-for-byte.
fn golden_opts() -> SearchOptions {
    let mut opts = SearchOptions::quick();
    opts.threads = 1;
    opts.dataflows = vec![Dataflow::Csk];
    opts.tiling.max_tilings = 2;
    opts.seed.enabled = true;
    opts
}

fn golden_layer() -> ConvLayer {
    ConvLayer::new("g", 8, 8, 8, 8).unwrap()
}

/// The exact span tree of the golden search, span IDs and all. Any
/// change to span structure, naming, attribute order, lane assignment
/// or counter placement shows up here as a byte diff.
const GOLDEN_TREE: &str = "\
lane 0 \"search\"
  #0 search [0 +25] scheduler=ooo layers=1 prune=true
    #1 bound [1 +1] layer=g candidates=2
    #2 seed [3 +1] layer=g outcome=evaluated evaluated=2 score=1584000.0 gap_ppm=546875
    #3 layer [5 +19] name=g role=leader outcome=ok evaluated=2 score=1584000.0 latency=990 transfer_bytes=1600
      steps=1 @6
      sets_generated=1 @7
      sets_pruned=0 @8
      sets_evaluated=1 @9
      rollback_bytes=336 @10
      clone_bytes_avoided=40 @11
      evictions=0 @12
      compactions=0 @13
      schedules_verified=0 @14
      candidates_bounded=2 @15
      candidates_pruned=1 @16
      early_exits=0 @17
      store_hits=0 @18
      store_misses=0 @19
      store_evictions=0 @20
      store_corrupt=0 @21
      seed_gap_ppm=546875 @22
      seeded_cutoffs=1 @23
lane 1 \"g/0\"
  #4 candidate [0 +1] layer=g tiling=k1\u{b7}c2\u{b7}1x1 dataflow=Csk outcome=bounded bound=2048000.0
lane 2 \"g/1\"
  #5 candidate [0 +1] layer=g tiling=k1\u{b7}c1\u{b7}1x1 dataflow=Csk outcome=scheduled latency=990 transfer_bytes=1600 score=1584000.0
";

#[test]
fn golden_span_tree_is_pinned_byte_for_byte() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let (res, trace) = search_traced(&[golden_layer()], &arch, &golden_opts());
    res.unwrap();
    trace.check().unwrap();
    assert_eq!(text::render_tree(&trace), GOLDEN_TREE);
}

#[test]
fn chrome_export_is_byte_stable_across_runs() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let layer = golden_layer();
    let opts = golden_opts();
    let (ra, a) = search_traced(std::slice::from_ref(&layer), &arch, &opts);
    let (rb, b) = search_traced(std::slice::from_ref(&layer), &arch, &opts);
    let (ra, rb) = (ra.unwrap().remove(0), rb.unwrap().remove(0));
    assert_eq!(ra.schedule.latency(), rb.schedule.latency());
    let (ja, jb) = (chrome::to_chrome_json(&a), chrome::to_chrome_json(&b));
    assert_eq!(ja, jb);
    // Minimal schema sanity on the shared bytes: the JSON object
    // format with complete ("ph":"X") and counter ("ph":"C") events.
    assert!(ja.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(ja.ends_with("]}"));
    assert!(ja.contains("\"ph\":\"X\""));
    assert!(ja.contains("\"ph\":\"C\""));
}

#[test]
fn thread_count_does_not_change_the_trace_when_pruning_is_off() {
    // With branch-and-bound pruning off there is no cross-candidate
    // coupling through the shared incumbent, so the trace must be
    // byte-identical at any worker count: lane ids come from work-queue
    // order, timestamps from per-lane logical clocks.
    let arch = ArchConfig::preset(ArchPreset::Arch2);
    let layers = vec![
        ConvLayer::new("a", 16, 10, 10, 16).unwrap(),
        ConvLayer::new("b", 16, 10, 10, 24).unwrap(),
    ];
    let mut serial = SearchOptions::quick();
    serial.prune = false;
    serial.threads = 1;
    serial.tiling.max_tilings = 3;
    let mut wide = serial.clone();
    wide.threads = 4;

    let (rs, ts) = search_traced(&layers, &arch, &serial);
    let (rw, tw) = search_traced(&layers, &arch, &wide);
    let (rs, rw) = (rs.unwrap(), rw.unwrap());
    let lat = |v: &[flexer::sched::LayerSearchResult]| -> u64 {
        v.iter().map(|r| r.schedule.latency()).sum()
    };
    assert_eq!(lat(&rs), lat(&rw));
    assert_eq!(text::render_tree(&ts), text::render_tree(&tw));
    assert_eq!(chrome::to_chrome_json(&ts), chrome::to_chrome_json(&tw));
}

#[test]
fn gantt_trace_of_the_winner_covers_every_core() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let (res, _) = search_traced(&[golden_layer()], &arch, &golden_opts());
    let res = res.unwrap().remove(0);
    let gantt = schedule_trace(&res.schedule, "g");
    gantt.check().unwrap();
    // One lane per core that computed something, plus the DMA lane
    // (cores the schedule left idle contribute no events).
    let used: std::collections::BTreeSet<u32> =
        res.schedule.compute().iter().map(|o| o.core).collect();
    assert_eq!(gantt.lanes().len(), used.len() + 1);
    // Cycle timestamps are deterministic, so the timeline is too.
    let again = schedule_trace(&res.schedule, "g");
    assert_eq!(
        chrome::to_chrome_json(&gantt),
        chrome::to_chrome_json(&again)
    );
}

#[test]
fn traced_network_report_surfaces_the_trace_summary() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let net = Network::new("one", vec![golden_layer()]).unwrap();
    let driver = Flexer::new(arch).with_options(golden_opts());
    let (result, trace) = driver.search(net.layers(), SchedulerKind::Ooo, RunMode::Traced);
    result.unwrap();
    trace.check().unwrap();
    assert!(trace.summary().to_string().contains("spans"));
    assert!(chrome::to_chrome_json(&trace).contains("\"ph\":\"X\""));
    assert!(text::render_tree(&trace).contains("#0 search"));
}
