//! The `cold_*` workloads: whole-network searches on a fresh `Flexer`
//! per pass (no memo carried over, no store), one search thread.
//!
//! The untraced run times `Flexer::schedule_network`. The traced run
//! re-creates the same search from outside, one public call per layer
//! of the pipeline (`enumerate_tilings`, `lower_bound`, `Dfg::build`,
//! `OooScheduler::schedule_with_stats` under a `Cutoff`), and records a
//! wall-clock span around each call.

use crate::util::{
    calibrate, calibrated, median, percentile, runqueue_wait, span_ms, span_totals, Metrics,
    SpanTotals, SplitMix64, REFERENCE_MS,
};
use crate::{Expected, Outcome};
use flexer::arch::{ArchConfig, ArchPreset, SystolicModel};
use flexer::model::{networks, LayerKind, Network};
use flexer::sched::{
    lower_bound, verify_layer_result, Cutoff, Incumbent, OooScheduler, SchedError, SchedulerKind,
    SearchOptions, SearchStats, StatKind,
};
use flexer::sim::Schedule;
use flexer::tiling::{enumerate_tilings, Dataflow, Dfg, TilingFactors};
use flexer::trace::{ClockMode, Lane, Trace, TraceConfig, TraceDetail, Tracer};
use flexer::{Flexer, NetworkResult};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One network on one architecture.
pub struct Pair {
    label: String,
    net: Network,
    arch: ArchConfig,
}

impl Pair {
    /// A zoo network on `hetero1` or a Table-1 preset (`arch1`...).
    pub fn new(net: &str, arch: &str) -> Self {
        Self {
            label: format!("{net}@{arch}"),
            net: networks::by_name(net).expect("zoo network"),
            arch: match arch {
                "hetero1" => ArchConfig::hetero1(),
                preset => ArchConfig::preset(preset.parse::<ArchPreset>().expect("preset")),
            },
        }
    }
}

/// The workload's (network, architecture) pairs in a seeded order.
fn pairs(workload: &str, seed: u64) -> Vec<Pair> {
    let spec: Vec<(&str, &str)> = match workload {
        "cold_cnn" => vec![("squeezenet", "arch5"), ("resnet50", "arch5")],
        "cold_zoo" => ["transformer", "mobilenet", "firenet"]
            .into_iter()
            .flat_map(|n| [(n, "arch5"), (n, "hetero1")])
            .collect(),
        other => panic!("not a cold workload: {other}"),
    };
    let mut pairs: Vec<Pair> = spec.into_iter().map(|(n, a)| Pair::new(n, a)).collect();
    SplitMix64::fork(seed, 0xC01D).shuffle(&mut pairs);
    pairs
}

/// `SearchOptions::quick()` on one thread.
pub fn options() -> SearchOptions {
    SearchOptions {
        threads: 1,
        ..SearchOptions::quick()
    }
}

/// Calibration samples taken before each network search.
const CALIBRATIONS: usize = 3;

/// A cold pass's results, its summed search time and wall time, and
/// the calibration samples taken before each search, outside the timing.
pub type Pass = (
    Result<Vec<NetworkResult>, SchedError>,
    Duration,
    Duration,
    Vec<f64>,
);

/// One cold pass: a fresh `Flexer` per pair. The search runs on this
/// thread, so its search time is the wall time minus the time this
/// thread waited for a CPU that another process held.
pub fn cold_pass(pairs: &[Pair], opts: &SearchOptions) -> Pass {
    let (mut search, mut wall) = (Duration::ZERO, Duration::ZERO);
    let mut cal = Vec::new();
    let results = pairs
        .iter()
        .map(|p| {
            cal.extend((0..CALIBRATIONS).map(|_| calibrate()));
            let waited = runqueue_wait();
            let t = Instant::now();
            let r = Flexer::new(p.arch.clone())
                .with_options(opts.clone())
                .schedule_network(&p.net);
            let elapsed = t.elapsed();
            wall += elapsed;
            search += elapsed.saturating_sub(runqueue_wait().saturating_sub(waited));
            r
        })
        .collect();
    (results, search, wall, cal)
}

pub fn totals(results: &[NetworkResult]) -> (u64, u64) {
    results.iter().fold((0, 0), |(l, d), r| {
        (l + r.total_latency(), d + r.total_transfer_bytes())
    })
}

/// The winner of one layer: what must match byte for byte.
type Winner = (TilingFactors, Dataflow, Schedule);

fn winners_of(result: &NetworkResult) -> Vec<Winner> {
    result
        .layers()
        .iter()
        .map(|l| (l.factors, l.dataflow, l.schedule.clone()))
        .collect()
}

/// Deterministic counters of one outside-traced pass.
#[derive(Debug, Clone, Default)]
struct Counts {
    tilings: u64,
    dfg_ops: u64,
    runs: u64,
    cutoffs: u64,
    memo_replays: u64,
    /// Merged over completed scheduler runs, as the search merges them.
    stats: SearchStats,
    /// Wall time of the runs the cutoff aborted, whose counters are
    /// lost with the run (not an exact count).
    pruned_nanos: u64,
}

impl Counts {
    /// Every count that must repeat exactly (timers excluded).
    fn exact(&self) -> Vec<u64> {
        let mut v = vec![
            self.tilings,
            self.dfg_ops,
            self.runs,
            self.cutoffs,
            self.memo_replays,
        ];
        v.extend(
            self.stats
                .fields()
                .iter()
                .filter(|f| f.2 != StatKind::Nanos)
                .map(|f| f.1),
        );
        v
    }
}

/// The search's duplicate-detection key: the layer shape with matmul
/// folded onto the equivalent pointwise conv, as the memo key does.
fn shape_key(l: &flexer::model::ConvLayer) -> [u32; 10] {
    let (tag, groups) = match l.kind() {
        LayerKind::Dense | LayerKind::Matmul => (0, 1),
        LayerKind::Grouped { groups } => (1, groups),
    };
    [
        l.in_channels(),
        l.in_height(),
        l.in_width(),
        l.out_channels(),
        l.kernel_h(),
        l.kernel_w(),
        l.stride(),
        l.padding(),
        tag,
        groups,
    ]
}

/// The scheduler the search configures for `opts`.
pub fn scheduler<'a>(
    dfg: &'a Dfg,
    arch: &'a ArchConfig,
    model: &'a SystolicModel,
    opts: &'a SearchOptions,
) -> OooScheduler<'a> {
    OooScheduler::new(dfg, arch, model)
        .with_spill(opts.spill.policy())
        .with_priority(opts.priority)
        .with_combo(opts.combo)
        .with_eval_mode(opts.eval_mode)
}

/// One network searched from outside, as `schedule_network` does on one
/// thread: per new layer shape, enumerate tilings, bound each tiling,
/// run the (tiling, dataflow) candidates best bound first with the
/// layer's incumbent armed as a cutoff, and keep the first strict
/// minimum in enumeration order; repeated shapes replay the winner.
fn outside_search(
    pair: &Pair,
    opts: &SearchOptions,
    lane: &mut Lane,
    c: &mut Counts,
) -> Result<Vec<Winner>, String> {
    let arch = &pair.arch;
    let model = SystolicModel::new(arch);
    let layers = pair.net.layers();
    let mut leaders: HashMap<[u32; 10], usize> = HashMap::new();
    let mut winners: Vec<Option<Winner>> = vec![None; layers.len()];
    let mut duplicates = Vec::new();
    let run = |dfg: &Dfg, cutoff: Option<Cutoff<'_>>, lane: &mut Lane, c: &mut Counts| {
        c.runs += 1;
        c.dfg_ops += dfg.num_ops() as u64;
        let mut s = scheduler(dfg, arch, &model, opts);
        if let Some(cutoff) = cutoff {
            s = s.with_cutoff(cutoff);
        }
        let g = lane.enter("sched.schedule");
        let t = Instant::now();
        let r = s.schedule_with_stats();
        if matches!(r, Err(SchedError::Pruned)) {
            c.pruned_nanos += t.elapsed().as_nanos() as u64;
        }
        lane.exit(g);
        r.map(|(schedule, _, stats)| {
            c.stats.merge(&stats);
            schedule
        })
    };
    let build = |layer, f, d, lane: &mut Lane| {
        let g = lane.enter("tiling.dfg_build");
        let dfg = Dfg::build(layer, f, d, &model, arch);
        lane.exit(g);
        dfg.map_err(|e| format!("{}: {e}", pair.label))
    };
    for (li, layer) in layers.iter().enumerate() {
        if let Some(&leader) = leaders.get(&shape_key(layer)) {
            duplicates.push((li, leader));
            continue;
        }
        leaders.insert(shape_key(layer), li);

        let g = lane.enter("tiling.enumerate");
        let tilings = enumerate_tilings(layer, arch, &opts.tiling);
        lane.exit(g);
        c.tilings += tilings.len() as u64;
        let work: Vec<(TilingFactors, Dataflow)> = tilings
            .iter()
            .flat_map(|&f| opts.dataflows.iter().map(move |&d| (f, d)))
            .collect();

        let g = lane.enter("solve.bound");
        let per_tiling: Vec<f64> = tilings
            .iter()
            .map(|f| lower_bound(layer, arch, &model, f).score(opts.metric))
            .collect();
        lane.exit(g);
        let bounds: Vec<f64> = per_tiling
            .iter()
            .flat_map(|&b| opts.dataflows.iter().map(move |_| b))
            .collect();
        let mut order: Vec<usize> = (0..work.len()).collect();
        order.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));

        let incumbent = Incumbent::new();
        let mut done: Vec<Option<(Schedule, f64)>> = vec![None; work.len()];
        for i in order {
            if bounds[i] > incumbent.get() {
                c.cutoffs += 1;
                continue;
            }
            let (f, d) = work[i];
            let dfg = build(layer, f, d, lane)?;
            match run(&dfg, Some(Cutoff::new(&incumbent, opts.metric)), lane, c) {
                Ok(schedule) => {
                    let score = opts
                        .metric
                        .score(schedule.latency(), schedule.transfer_bytes());
                    incumbent.observe(score);
                    done[i] = Some((schedule, score));
                }
                Err(SchedError::Pruned) => c.cutoffs += 1,
                Err(_) => {}
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, d) in done.iter().enumerate() {
            if let Some((_, score)) = d {
                if best.is_none_or(|(_, s)| *score < s) {
                    best = Some((i, *score));
                }
            }
        }
        let (i, _) = best.ok_or_else(|| format!("{}: no viable tiling", layer.name()))?;
        let schedule = done[i].take().expect("best is done").0;
        winners[li] = Some((work[i].0, work[i].1, schedule));
    }
    for (li, leader) in duplicates {
        let (f, d, _) = winners[leader].clone().expect("leader resolved first");
        let dfg = build(&layers[li], f, d, lane)?;
        let schedule = run(&dfg, None, lane, c).map_err(|e| e.to_string())?;
        c.memo_replays += 1;
        winners[li] = Some((f, d, schedule));
    }
    Ok(winners.into_iter().map(|w| w.expect("resolved")).collect())
}

/// Sets up the workload `n` times (inputs plus one warm-up pass).
/// Returns the last set-up's inputs, and every set-up's seconds with
/// its pass's calibration samples.
fn set_up(
    workload: &str,
    seed: u64,
    opts: &SearchOptions,
    n: usize,
) -> (Vec<Pair>, Vec<f64>, Vec<Vec<f64>>) {
    let (mut times, mut cals) = (Vec::new(), Vec::new());
    let mut last = Vec::new();
    for _ in 0..n {
        let t = Instant::now();
        last = pairs(workload, seed);
        let inputs = t.elapsed();
        let (warm, search, _, cal) = cold_pass(&last, opts);
        times.push((inputs + search).as_secs_f64());
        cals.push(cal);
        if let Err(e) = warm {
            eprintln!("warm-up pass failed: {e}");
        }
    }
    (last, times, cals)
}

/// Checks one pass against the expected totals and the first pass's
/// winners.
fn check_pass(
    results: &[NetworkResult],
    first: &[NetworkResult],
    expected: Expected,
    out: &mut Outcome,
) {
    let (lat, dram) = totals(results);
    if (lat, dram) != (expected.sim_latency_cycles, expected.dram_bytes) {
        out.fail(format!(
            "pass totals {lat} cycles / {dram} bytes differ from the expected \
             {} / {}",
            expected.sim_latency_cycles, expected.dram_bytes
        ));
    }
    for (r, f) in results.iter().zip(first) {
        if winners_of(r) != winners_of(f) {
            out.fail(format!("{}: winners changed between passes", r.network()));
        }
    }
}

/// Differentially verifies every winner of one pass.
fn verify_winners(
    pairs: &[Pair],
    results: &[NetworkResult],
    opts: &SearchOptions,
    out: &mut Outcome,
) {
    for (p, r) in pairs.iter().zip(results) {
        for (layer, res) in p.net.layers().iter().zip(r.layers()) {
            let mut res = res.clone();
            if let Err(e) = verify_layer_result(layer, &p.arch, opts, SchedulerKind::Ooo, &mut res)
            {
                out.fail(format!(
                    "{} {}: verification failed: {e}",
                    p.label,
                    layer.name()
                ));
            }
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    expected: Expected,
    out: &mut Outcome,
) -> Metrics {
    let opts = options();
    let (pairs, setups, setup_cal) = set_up(workload, seed, &opts, crate::SETUPS);
    let mut raw_ms: Vec<f64> = Vec::new();
    let mut cal = Vec::new();
    let mut first: Option<Vec<NetworkResult>> = None;
    let end = Instant::now() + Duration::from_secs(seconds);
    while raw_ms.len() < 3 || Instant::now() < end {
        out.attempted += pairs.len() as u64;
        match cold_pass(&pairs, &opts) {
            (Ok(results), search, _, samples) => {
                raw_ms.push(search.as_secs_f64() * 1e3);
                cal.push(samples);
                check_pass(
                    &results,
                    first.as_deref().unwrap_or(&results),
                    expected,
                    out,
                );
                if first.is_none() {
                    verify_winners(&pairs, &results, &opts, out);
                    first = Some(results);
                }
            }
            (Err(e), ..) => {
                out.failed += pairs.len() as u64;
                out.fail(format!("cold pass failed: {e}"));
                break;
            }
        }
    }
    let (lat, dram) = first.as_deref().map_or((0, 0), totals);
    let passes = calibrated(&raw_ms, &cal);
    eprintln!(
        "median calibration {:.4} ms (reference {REFERENCE_MS} ms); uncalibrated \
         search_ms={:.4} serve_p90_ms={:.4} setup_s={:.4}",
        median(&cal.concat()),
        median(&raw_ms),
        percentile(&raw_ms, 90.0),
        median(&setups)
    );
    let mut m = Metrics::default();
    m.set("search_ms", median(&passes), "ms");
    m.set("sim_latency_cycles", lat as f64, "cycles");
    m.set("dram_bytes", dram as f64, "bytes");
    m.set("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
    m.set(
        "serve_rps",
        passes.len() as f64 / (passes.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.set("serve_p50_ms", median(&passes), "ms");
    m.set("serve_p90_ms", percentile(&passes, 90.0), "ms");
    m.set("ok_frac", out.ok_frac(), "ratio");
    m.set("setup_s", median(&calibrated(&setups, &setup_cal)), "s");
    m
}

/// Layer spans whose sum is the attributed part of a pass.
const LAYER_SPANS: [&str; 4] = [
    "tiling.enumerate",
    "solve.bound",
    "tiling.dfg_build",
    "sched.schedule",
];

/// Lanes per traced pass: lane id = pass * LANES + pair index.
const LANES: u32 = 64;

/// The traced run: per-layer metrics of the outside search, checked
/// against the untraced search it re-creates.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: u64,
    expected: Expected,
    out: &mut Outcome,
) -> (Metrics, Trace) {
    let opts = options();
    let (pairs, ..) = set_up(workload, seed, &opts, 1);
    let tracer = Tracer::new(TraceConfig {
        clock: ClockMode::Wall,
        detail: TraceDetail::Search,
    });
    let mut lanes: Vec<Lane> = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let mut reference: Option<Vec<NetworkResult>> = None;
    let end = Instant::now() + Duration::from_secs(seconds);
    let mut pass = 0u32;
    while pass < 2 || Instant::now() < end {
        out.attempted += 2 * pairs.len() as u64;
        // Wall time, as the traced spans are.
        let (results, _, wall, _) = cold_pass(&pairs, &opts);
        let results = match results {
            Ok(r) => r,
            Err(e) => {
                out.failed += 2 * pairs.len() as u64;
                out.fail(format!("cold pass failed: {e}"));
                break;
            }
        };
        untraced_ms.push(wall.as_secs_f64() * 1e3);
        check_pass(
            &results,
            reference.as_deref().unwrap_or(&results),
            expected,
            out,
        );
        let reference = reference.get_or_insert(results);

        let mut c = Counts::default();
        let t = Instant::now();
        let mut found = Vec::with_capacity(pairs.len());
        for (k, p) in pairs.iter().enumerate() {
            let mut lane = tracer.lane(pass * LANES + k as u32, p.label.clone());
            let g = lane.enter("network");
            let w = outside_search(p, &opts, &mut lane, &mut c);
            lane.exit(g);
            lanes.push(lane);
            found.push(w);
        }
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);

        // Outside the timed region: the outside search must pick the
        // search's winners and reproduce its counters exactly.
        let mut expected_stats = SearchStats::default();
        for ((p, w), r) in pairs.iter().zip(found).zip(reference.iter()) {
            expected_stats.merge(&r.total_stats());
            match w {
                Ok(w) if w == winners_of(r) => {}
                Ok(_) => out.fail(format!("{}: outside search picked other winners", p.label)),
                Err(e) => out.fail(format!("{}: outside search failed: {e}", p.label)),
            }
        }
        let same = |s: &SearchStats| {
            [
                s.steps,
                s.sets_generated,
                s.sets_evaluated,
                s.evictions,
                s.compactions,
                s.rollback_bytes,
            ]
        };
        if same(&c.stats) != same(&expected_stats)
            || c.cutoffs != expected_stats.candidates_pruned + expected_stats.early_exits
        {
            out.fail("outside search counters differ from schedule_network's".into());
        }
        if let Some(first) = counts.first() {
            if first.exact() != c.exact() {
                out.fail(format!(
                    "pass {pass}: counts differ from pass 0 (not deterministic)"
                ));
            }
        }
        counts.push(c);
        pass += 1;
    }

    let trace = Trace::from_lanes(tracer.config(), lanes);
    if let Err(e) = trace.check() {
        out.fail(format!("malformed trace: {e}"));
    }
    let spans: Vec<SpanTotals> = (0..pass)
        .map(|p| span_totals(&trace, |id| id / LANES == p))
        .collect();
    let per_pass = |f: &dyn Fn(&SpanTotals, &Counts) -> f64| -> f64 {
        let v: Vec<f64> = spans.iter().zip(&counts).map(|(t, c)| f(t, c)).collect();
        median(&v)
    };
    let nanos_ms = |n: u64| n as f64 / 1e6;
    let c = counts.first().cloned().unwrap_or_default();
    let s = c.stats;
    let untraced = median(&untraced_ms);
    let attributed = per_pass(&|t, _| LAYER_SPANS.iter().map(|n| span_ms(t, n)).sum());

    let mut m = Metrics::default();
    m.set(
        "tiling.enumerate_ms",
        per_pass(&|t, _| span_ms(t, "tiling.enumerate")),
        "ms",
    );
    m.set("tiling.tilings", c.tilings as f64, "count");
    m.set(
        "tiling.dfg_build_ms",
        per_pass(&|t, _| span_ms(t, "tiling.dfg_build")),
        "ms",
    );
    m.set("tiling.dfg_ops", c.dfg_ops as f64, "count");
    m.set(
        "solve.bound_ms",
        per_pass(&|t, _| span_ms(t, "solve.bound")),
        "ms",
    );
    m.set("sched.cutoffs", c.cutoffs as f64, "count");
    m.set(
        "sched.schedule_ms",
        per_pass(&|t, _| span_ms(t, "sched.schedule")),
        "ms",
    );
    m.set(
        "sched.gen_ms",
        per_pass(&|_, c| nanos_ms(c.stats.gen_nanos)),
        "ms",
    );
    m.set(
        "sched.eval_ms",
        per_pass(&|_, c| nanos_ms(c.stats.eval_nanos)),
        "ms",
    );
    m.set(
        "sched.commit_ms",
        per_pass(&|_, c| nanos_ms(c.stats.commit_nanos)),
        "ms",
    );
    m.set(
        "sched.other_ms",
        per_pass(&|t, c| {
            span_ms(t, "sched.schedule")
                - nanos_ms(c.stats.gen_nanos + c.stats.eval_nanos + c.stats.commit_nanos)
        }),
        "ms",
    );
    m.set(
        "sched.pruned_ms",
        per_pass(&|_, c| nanos_ms(c.pruned_nanos)),
        "ms",
    );
    m.set("sched.runs", c.runs as f64, "count");
    m.set("sched.steps", s.steps as f64, "count");
    m.set("sched.sets_generated", s.sets_generated as f64, "count");
    m.set("sched.sets_evaluated", s.sets_evaluated as f64, "count");
    m.set(
        "sched.set_yield",
        s.sets_evaluated as f64 / s.sets_generated.max(1) as f64,
        "ratio",
    );
    m.set("sched.memo_replays", c.memo_replays as f64, "count");
    m.set("spm.evictions", s.evictions as f64, "count");
    m.set("spm.compactions", s.compactions as f64, "count");
    m.set("spm.rollback_bytes", s.rollback_bytes as f64, "bytes");
    crate::serve::zero_serve_layers(&mut m);
    m.set(
        "core.unattributed_frac",
        1.0 - attributed / untraced,
        "ratio",
    );
    m.set(
        "core.trace_overhead_frac",
        median(&traced_ms) / untraced - 1.0,
        "ratio",
    );
    // The trace file keeps the first traced pass.
    let first: Vec<_> = trace
        .lanes()
        .iter()
        .filter(|l| l.id < LANES)
        .cloned()
        .collect();
    (m, Trace::from_raw_lanes(ClockMode::Wall, first))
}
