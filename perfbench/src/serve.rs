//! The `serve_*` workloads: a closed loop of `schedule` requests over
//! two persistent connections to a real `flexer-serve` server on
//! loopback, each connection on its own client thread.
//!
//! The traced run splits a request from outside: `parse_request` and an
//! in-process `Engine::run` on the same line (the rest of the round
//! trip is transport), and one level further down, the store's `get`
//! and `put` with the memo replay of each miss.

use crate::cold::{self, Pair};
use crate::util::{
    calibrate, calibrated, median, percentile, span_durations, Metrics, ProcessWaits, SplitMix64,
    REFERENCE_MS,
};
use crate::{Expected, Outcome};
use flexer::arch::{ArchConfig, ArchPreset, SystolicModel};
use flexer::model::networks;
use flexer::sched::{LayerSearchResult, SchedulerKind, SearchOptions, SearchOutcome, SearchStats};
use flexer::store::{fingerprint, Fingerprint, Lookup, ScheduleStore};
use flexer::tiling::Dfg;
use flexer::trace::json::{self, Json};
use flexer::trace::{ClockMode, Lane, Trace, TraceConfig, TraceDetail, Tracer};
use flexer::Flexer;
use flexer_serve::{
    mask_provenance, parse_request, request_shutdown, Client, Deadline, Engine, Server,
    ServerConfig,
};
use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections, one thread each.
const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Requests the traced run decomposes in process.
const DECOMPOSED: usize = 240;
/// Seconds of one closed-loop slice of an untraced run. A cold pass and
/// the put probes run before each slice.
const SLICE_SECONDS: f64 = 1.0;
/// [`PutProbe`] rounds taken before each slice.
const PUT_PROBE_ROUNDS: usize = 5;
/// Mean [`PutProbe`] time, in milliseconds, of the reference disk that
/// round trips are normalized to: about this host's when its disk is
/// quiet.
const REFERENCE_PUT_MS: f64 = 0.3;
/// How a response marks a layer that missed the store.
const MISS_MARKER: &str = r#""store":"miss""#;
/// Calibration samples taken before each set-up.
const SETUP_CALIBRATIONS: usize = 8;

/// The request pool of a workload, in a seeded order.
fn pool(workload: &str, seed: u64) -> Vec<(&'static str, &'static str)> {
    let arches: &[&str] = match workload {
        "serve_warm" => &["arch1", "arch5"],
        "serve_churn" => &["arch1", "arch3", "arch5"],
        other => panic!("not a serve workload: {other}"),
    };
    let mut pool: Vec<(&str, &str)> = ["squeezenet", "mobilenet", "firenet", "transformer"]
        .into_iter()
        .flat_map(|n| arches.iter().map(move |&a| (n, a)))
        .collect();
    SplitMix64::fork(seed, 0x9001).shuffle(&mut pool);
    pool
}

fn line_of((net, arch): (&str, &str)) -> String {
    format!(r#"{{"op":"schedule","network":"{net}","arch":"{arch}","options":"quick"}}"#)
}

/// A response with everything that records *how* it was produced
/// zeroed: store hit/miss markers, and the evaluated-candidate counts,
/// which read 1 for a layer replayed from the memo.
fn masked(line: &str) -> String {
    let mut s = mask_provenance(line);
    let key = "\"evaluated\":";
    let mut from = 0;
    while let Some(i) = s[from..].find(key) {
        let start = from + i + key.len();
        let end = s[start..]
            .find(|c: char| !c.is_ascii_digit())
            .map_or(s.len(), |d| start + d);
        s.replace_range(start..end, "0");
        from = start + 1;
    }
    s
}

fn num(j: &Json, path: &[&str]) -> u64 {
    let mut cur = j;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0,
        }
    }
    cur.as_num().unwrap_or(0.0) as u64
}

/// What the checks compare against: each pool line's masked response
/// from an in-process `Engine::run` on a fresh unbounded store, and the
/// store bytes of the pool.
struct Reference {
    lines: Vec<String>,
    masked: Vec<String>,
    totals: (u64, u64),
    entry_bytes: u64,
    mean_entry_bytes: u64,
}

fn reference(pool: &[(&'static str, &'static str)], dir: &Path) -> Result<Reference, String> {
    let engine = Engine::with_store(dir.to_path_buf(), Some(0));
    let lines: Vec<String> = pool.iter().map(|&p| line_of(p)).collect();
    let mut out = Vec::new();
    let (mut lat, mut dram) = (0, 0);
    for line in &lines {
        let req = parse_request(line).map_err(|e| e.1)?;
        let resp = engine.run(&req, &Deadline::unbounded()).map_err(|e| e.1)?;
        let j = json::parse(&resp).map_err(|e| e.message)?;
        lat += num(&j, &["latency"]);
        dram += num(&j, &["transfer_bytes"]);
        out.push(masked(&resp));
    }
    let manifest = ScheduleStore::open(dir)
        .and_then(|s| s.manifest())
        .map_err(|e| e.to_string())?;
    let entry_bytes = manifest.iter().map(|e| e.len).sum();
    Ok(Reference {
        lines,
        masked: out,
        totals: (lat, dram),
        entry_bytes,
        mean_entry_bytes: entry_bytes / manifest.len().max(1) as u64,
    })
}

/// Benchmark-owned disk work shaped like the server's store puts: one
/// writer per server worker, at once, each writing an entry-sized
/// temporary file, fsyncing it, renaming it into place, and deleting
/// the entry it wrote eight puts earlier, as eviction does. The shared
/// disk's latency drifts by several times over minutes, and this work
/// slows down with it.
struct PutProbe {
    /// One directory per writer.
    dirs: Vec<PathBuf>,
    bytes: Vec<u8>,
    next: u64,
}

impl PutProbe {
    fn new(dir: &Path, entry_bytes: u64) -> std::io::Result<Self> {
        let dirs: Vec<PathBuf> = (0..WORKERS).map(|w| dir.join(format!("w{w}"))).collect();
        for d in &dirs {
            std::fs::create_dir_all(d)?;
        }
        Ok(Self {
            dirs,
            bytes: vec![0xA5; entry_bytes as usize],
            next: 0,
        })
    }

    /// Times put `n` into `dir`, in milliseconds.
    fn put(dir: &Path, bytes: &[u8], n: u64) -> std::io::Result<f64> {
        let tmp = dir.join("entry.tmp");
        let t = Instant::now();
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, dir.join(format!("e{n}")))?;
        if let Some(old) = n.checked_sub(8) {
            std::fs::remove_file(dir.join(format!("e{old}")))?;
        }
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }

    /// Mean time of the puts of `rounds` rounds, in milliseconds.
    fn mean(&mut self, rounds: usize) -> std::io::Result<f64> {
        let mut times = Vec::new();
        for _ in 0..rounds {
            let (n, bytes) = (self.next, &self.bytes);
            self.next += 1;
            let round: Vec<std::io::Result<f64>> = std::thread::scope(|scope| {
                let writers: Vec<_> = self
                    .dirs
                    .iter()
                    .map(|d| scope.spawn(move || Self::put(d, bytes, n)))
                    .collect();
                writers
                    .into_iter()
                    .map(|w| w.join().expect("probe writer"))
                    .collect()
            });
            for t in round {
                times.push(t?);
            }
        }
        Ok(times.iter().sum::<f64>() / times.len() as f64)
    }
}

/// Store capacity of a workload: unbounded when warm, a third of the
/// pool's entry bytes under churn.
fn capacity(workload: &str, entry_bytes: u64) -> u64 {
    if workload == "serve_churn" {
        entry_bytes / 3
    } else {
        0
    }
}

struct Running {
    addr: SocketAddr,
    join: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn stop(self) {
        let _ = request_shutdown(self.addr);
        let _ = self.join.join();
    }

    /// `(hits, misses, evictions)` from the server's `stats` op.
    fn store_counters(&self) -> (u64, u64, u64) {
        flexer_serve::client::roundtrip(self.addr, r#"{"op":"stats"}"#)
            .ok()
            .and_then(|r| json::parse(&r).ok())
            .map_or((0, 0, 0), |j| {
                (
                    num(&j, &["store", "hits"]),
                    num(&j, &["store", "misses"]),
                    num(&j, &["store", "evictions"]),
                )
            })
    }
}

/// Starts a server on a fresh store and warms it with one pass over
/// the pool. Also returns how many layers the warm-up persisted.
fn start(
    dir: PathBuf,
    capacity: u64,
    refs: &Reference,
    out: &mut Outcome,
) -> Result<(Running, usize), String> {
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(ServerConfig {
        workers: WORKERS,
        store_dir: Some(dir),
        store_capacity: Some(capacity),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let running = Running {
        addr,
        join: std::thread::spawn(move || server.run()),
    };
    // Pipelined, so the fill pays the connection's per-request stall
    // once rather than once per request.
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for line in &refs.lines {
        client
            .send(line)
            .map_err(|e| format!("warm request: {e}"))?;
    }
    let mut persisted = 0;
    for want in &refs.masked {
        let resp = client.recv().map_err(|e| format!("warm response: {e}"))?;
        if masked(&resp) != *want {
            out.fail(format!("warm response differs from Engine::run: {resp}"));
        }
        persisted += resp.matches(MISS_MARKER).count();
    }
    Ok((running, persisted))
}

/// One client's share of a closed loop.
#[derive(Default)]
struct ClientRun {
    rtt_ms: Vec<f64>,
    /// The slice each round trip of `rtt_ms` ran in.
    slice: Vec<usize>,
    /// The layers of each round trip of `rtt_ms` that missed the store.
    misses: Vec<u32>,
    sent: Vec<usize>,
    attempted: u64,
    errors: Vec<String>,
}

/// Runs the closed loop on `CLIENTS` persistent connections, in
/// `slices` slices of `slice_s` seconds. `between(i)` runs before slice
/// `i` while the clients wait with their connections open. With a
/// tracer, each client records a `request` span per round trip.
fn closed_loop(
    addr: SocketAddr,
    refs: &Reference,
    seed: u64,
    (slices, slice_s): (usize, f64),
    tracer: Option<Tracer>,
    mut between: impl FnMut(usize),
) -> (Vec<ClientRun>, Vec<Lane>) {
    let barrier = &Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut run = ClientRun::default();
                    let mut lane = tracer
                        .map_or_else(Lane::off, |t| t.lane(1 + c as u32, format!("client{c}")));
                    let mut rng = SplitMix64::fork(seed, 1 + c as u64);
                    let mut client = match Client::connect(addr) {
                        Ok(client) => Some(client),
                        Err(e) => {
                            run.attempted += 1;
                            run.errors.push(format!("connect: {e}"));
                            None
                        }
                    };
                    // A client whose connection failed still meets every
                    // barrier, so the other threads never wait for it.
                    for slice in 0..slices {
                        barrier.wait();
                        let end = Instant::now() + Duration::from_secs_f64(slice_s);
                        while Instant::now() < end {
                            let Some(conn) = client.as_mut() else { break };
                            let k = rng.below(refs.lines.len());
                            run.attempted += 1;
                            let g = lane.enter("request");
                            let t = Instant::now();
                            let resp = conn.roundtrip(&refs.lines[k]);
                            let rtt = t.elapsed();
                            lane.exit(g);
                            // Checked outside the timed round trip.
                            match resp {
                                Ok(r)
                                    if r.starts_with(r#"{"ok":true"#)
                                        && masked(&r) == refs.masked[k] =>
                                {
                                    run.rtt_ms.push(rtt.as_secs_f64() * 1e3);
                                    run.slice.push(slice);
                                    run.misses.push(r.matches(MISS_MARKER).count() as u32);
                                    run.sent.push(k);
                                }
                                Ok(r) => run.errors.push(format!("bad response: {r}")),
                                Err(e) => {
                                    run.errors.push(format!("request: {e}"));
                                    client = None;
                                }
                            }
                        }
                        barrier.wait();
                    }
                    (run, lane)
                })
            })
            .collect();
        for slice in 0..slices {
            between(slice);
            barrier.wait();
            barrier.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .unzip()
    })
}

fn absorb(runs: &[ClientRun], out: &mut Outcome) -> Vec<f64> {
    let mut rtts = Vec::new();
    for r in runs {
        out.attempted += r.attempted;
        for e in &r.errors {
            out.fail(e.clone());
        }
        rtts.extend_from_slice(&r.rtt_ms);
    }
    rtts
}

struct Prepared {
    refs: Reference,
    capacity: u64,
}

/// Computes the reference responses, checks their totals against the
/// expected ones, and derives the workload's store capacity.
fn prepare(
    workload: &str,
    seed: u64,
    work: &Path,
    expected: Expected,
    out: &mut Outcome,
) -> Result<Prepared, String> {
    let refs = reference(&pool(workload, seed), &work.join("reference"))?;
    if refs.totals != (expected.sim_latency_cycles, expected.dram_bytes) {
        out.fail(format!(
            "pool totals {} cycles / {} bytes differ from the expected {} / {}",
            refs.totals.0, refs.totals.1, expected.sim_latency_cycles, expected.dram_bytes
        ));
    }
    let capacity = capacity(workload, refs.entry_bytes);
    Ok(Prepared { refs, capacity })
}

/// The untraced run: end-to-end metrics.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    expected: Expected,
    work: &Path,
    out: &mut Outcome,
) -> Result<Metrics, String> {
    let prep = prepare(workload, seed, work, expected, out)?;
    let (mut setups, mut setup_cal) = (Vec::new(), Vec::new());
    let mut server = None;
    let mut probe = PutProbe::new(&work.join("probe"), prep.refs.mean_entry_bytes)
        .map_err(|e| format!("put probe: {e}"))?;
    // A set-up binds a server on a fresh store and fills it through one
    // connection; the calibration samples and put probes are taken
    // before the timing. The fill mostly runs one thread at a time, so
    // the time the process's threads waited for a CPU is taken off its
    // wall time, and each layer it persisted is charged the reference
    // put time, as round trips are.
    for i in 0..crate::SETUPS {
        if let Some(s) = server.take() {
            Running::stop(s);
        }
        setup_cal.push((0..SETUP_CALIBRATIONS).map(|_| calibrate()).collect());
        let put_ms = probe
            .mean(PUT_PROBE_ROUNDS)
            .map_err(|e| format!("put probe: {e}"))?;
        let waits = ProcessWaits::now();
        let t = Instant::now();
        let dir = work.join(format!("store{i}"));
        let (running, persisted) = start(dir, prep.capacity, &prep.refs, out)?;
        server = Some(running);
        let elapsed = t.elapsed().saturating_sub(waits.since()).as_secs_f64();
        setups.push(elapsed - persisted as f64 * (put_ms - REFERENCE_PUT_MS) / 1e3);
    }
    let refs = prep.refs;
    let server = server.expect("started");

    // Before each slice of the loop, one single-thread cold pass over
    // the pool's networks, so the passes sample the whole run, and the
    // put probes that the slice's round trips are normalized by.
    let pairs: Vec<Pair> = pool(workload, seed)
        .into_iter()
        .map(|(net, arch)| Pair::new(net, arch))
        .collect();
    let opts = cold::options();
    let (mut searches, mut cal) = (Vec::new(), Vec::new());
    let mut put_ms = Vec::new();
    let mut pass_errors = Vec::new();
    let slices = ((seconds as f64 / SLICE_SECONDS).round() as usize).max(1);
    let (runs, _) = closed_loop(
        server.addr,
        &refs,
        seed,
        (slices, SLICE_SECONDS),
        None,
        |_| {
            let (results, search, _, samples) = cold::cold_pass(&pairs, &opts);
            match results {
                Ok(r) if cold::totals(&r) == refs.totals => {}
                Ok(_) => pass_errors.push("cold pass totals differ from the engine's".into()),
                Err(e) => pass_errors.push(format!("cold pass failed: {e}")),
            }
            searches.push(search.as_secs_f64() * 1e3);
            cal.push(samples);
            match probe.mean(PUT_PROBE_ROUNDS) {
                Ok(ms) => put_ms.push(ms),
                Err(e) => {
                    pass_errors.push(format!("put probe: {e}"));
                    put_ms.push(REFERENCE_PUT_MS);
                }
            }
        },
    );
    server.stop();
    out.attempted += (searches.len() * pairs.len()) as u64;
    for e in pass_errors {
        out.fail(e);
    }
    let raw = absorb(&runs, out);
    // Each missed layer persisted one entry. Charging it the reference
    // put time instead of its slice's probe mean gives the round trip on
    // the reference disk.
    let normalized: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| {
            (0..r.rtt_ms.len())
                .map(|i| {
                    r.rtt_ms[i] - f64::from(r.misses[i]) * (put_ms[r.slice[i]] - REFERENCE_PUT_MS)
                })
                .collect()
        })
        .collect();
    let rtts = normalized.concat();
    let rps: f64 = normalized
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| v.len() as f64 / (v.iter().sum::<f64>() / 1e3))
        .sum();
    eprintln!(
        "{} round trips, {} cold passes; median put probe {:.4} ms (reference \
         {REFERENCE_PUT_MS} ms); unnormalized serve_p50_ms={:.4} serve_p90_ms={:.4}",
        rtts.len(),
        searches.len(),
        median(&put_ms),
        median(&raw),
        percentile(&raw, 90.0)
    );
    eprintln!(
        "median calibration {:.4} ms (reference {REFERENCE_MS} ms); uncalibrated \
         search_ms={:.4} setup_s={:.4}",
        median(&[cal.concat(), setup_cal.concat()].concat()),
        median(&searches),
        median(&setups)
    );
    let mut m = Metrics::default();
    m.set("search_ms", median(&calibrated(&searches, &cal)), "ms");
    m.set("sim_latency_cycles", refs.totals.0 as f64, "cycles");
    m.set("dram_bytes", refs.totals.1 as f64, "bytes");
    m.set("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
    m.set("serve_rps", rps, "1/s");
    m.set("serve_p50_ms", median(&rtts), "ms");
    m.set("serve_p90_ms", percentile(&rtts, 90.0), "ms");
    m.set("ok_frac", out.ok_frac(), "ratio");
    m.set("setup_s", median(&calibrated(&setups, &setup_cal)), "s");
    Ok(m)
}

/// Per-layer entries that only the serve workloads exercise, zeroed.
pub fn zero_serve_layers(m: &mut Metrics) {
    for (name, unit) in [
        ("store.get_ms", "ms"),
        ("store.put_ms", "ms"),
        ("store.hit_ratio", "ratio"),
        ("store.evictions", "count"),
        ("serve.parse_us", "us"),
        ("serve.engine_ms", "ms"),
        ("serve.transport_ms", "ms"),
    ] {
        m.set(name, 0.0, unit);
    }
}

/// Counters of the in-process store replay.
#[derive(Default)]
struct StoreReplay {
    misses: u64,
    dfg_ops: u64,
    stats: SearchStats,
}

/// Replays `seq` against a store of the server's capacity from outside
/// the engine: `get` each layer's entry; on a miss, rebuild the DFG and
/// rerun the scheduler on the memoized winner, then `put` the result —
/// what `Flexer::schedule_layer` does inside the server.
fn store_replay(
    pool: &[(&'static str, &'static str)],
    seq: &[usize],
    capacity: u64,
    dir: &Path,
    lane: &mut Lane,
    out: &mut Outcome,
) -> Result<StoreReplay, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = ScheduleStore::with_capacity(dir, capacity).map_err(|e| e.to_string())?;
    let opts = SearchOptions::quick();
    let mut flexers: HashMap<&str, Flexer> = HashMap::new();
    let mut memo: HashMap<Fingerprint, LayerSearchResult> = HashMap::new();
    let arch_of = |a: &str| ArchConfig::preset(a.parse::<ArchPreset>().expect("preset"));
    // Warm-up in pool order, as the server was warmed.
    for &(net, arch_name) in pool {
        let arch = arch_of(arch_name);
        let flexer = flexers
            .entry(arch_name)
            .or_insert_with(|| Flexer::new(arch.clone()).with_options(opts.clone()));
        for layer in networks::by_name(net).expect("zoo network").layers() {
            let fp = fingerprint(layer, &arch, &opts, SchedulerKind::Ooo);
            if let Lookup::Hit(_) = store.get(fp) {
                continue;
            }
            let r = flexer.schedule_layer(layer).map_err(|e| e.to_string())?;
            let _ = store.put(fp, &r);
            memo.entry(fp).or_insert(r);
        }
    }
    let mut rep = StoreReplay::default();
    for &k in seq {
        let (net, arch_name) = pool[k];
        let arch = arch_of(arch_name);
        let model = SystolicModel::new(&arch);
        for layer in networks::by_name(net).expect("zoo network").layers() {
            let fp = fingerprint(layer, &arch, &opts, SchedulerKind::Ooo);
            let g = lane.enter("store.get");
            let hit = matches!(store.get(fp), Lookup::Hit(_));
            lane.exit(g);
            if hit {
                continue;
            }
            rep.misses += 1;
            let won = memo.get(&fp).ok_or("miss on a shape never searched")?;
            let g = lane.enter("tiling.dfg_build");
            let dfg = Dfg::build(layer, won.factors, won.dataflow, &model, &arch)
                .map_err(|e| e.to_string())?;
            lane.exit(g);
            rep.dfg_ops += dfg.num_ops() as u64;
            let g = lane.enter("sched.schedule");
            let run = cold::scheduler(&dfg, &arch, &model, &opts).schedule_with_stats();
            lane.exit(g);
            let (schedule, _, stats) = run.map_err(|e| e.to_string())?;
            if schedule != won.schedule {
                out.fail(format!("{net}/{}: memo replay diverged", layer.name()));
            }
            rep.stats.merge(&stats);
            let result = LayerSearchResult {
                layer: layer.name().to_owned(),
                score: won.score,
                schedule,
                factors: won.factors,
                dataflow: won.dataflow,
                evaluated: 1,
                points: Vec::new(),
                stats,
                outcome: SearchOutcome::Exact,
            };
            let g = lane.enter("store.put");
            let _ = store.put(fp, &result);
            lane.exit(g);
        }
    }
    Ok(rep)
}

/// The traced run: per-layer metrics of one request, split from outside.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: u64,
    expected: Expected,
    work: &Path,
    out: &mut Outcome,
) -> Result<(Metrics, Trace), String> {
    let prep = prepare(workload, seed, work, expected, out)?;
    let (server, _) = start(work.join("store"), prep.capacity, &prep.refs, out)?;
    let half = seconds as f64 / 2.0;

    // Untraced half, then traced half; store counters bracket the latter.
    let (runs, _) = closed_loop(server.addr, &prep.refs, seed, (1, half), None, |_| {});
    let untraced = absorb(&runs, out);
    let before = server.store_counters();
    let tracer = Tracer::new(TraceConfig {
        clock: ClockMode::Wall,
        detail: TraceDetail::Search,
    });
    let (runs, mut lanes) = closed_loop(
        server.addr,
        &prep.refs,
        seed ^ 0x7ACE,
        (1, half),
        Some(tracer),
        |_| {},
    );
    let traced = absorb(&runs, out);
    let after = server.store_counters();
    server.stop();
    let requests = traced.len().max(1) as f64;
    let (hits, misses, evictions) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);

    // The traced requests in send order, interleaved across clients.
    let longest = runs.iter().map(|r| r.sent.len()).max().unwrap_or(0);
    let seq: Vec<usize> = (0..longest)
        .flat_map(|i| runs.iter().filter_map(move |r| r.sent.get(i).copied()))
        .take(DECOMPOSED)
        .collect();

    // In-process engine in the server's state: same store capacity,
    // warmed by the same pass.
    let mut lane = tracer.lane(10, "engine");
    let engine_dir = work.join("engine");
    let engine = Engine::with_store(engine_dir, Some(prep.capacity));
    for line in &prep.refs.lines {
        let req = parse_request(line).map_err(|e| e.1)?;
        engine.run(&req, &Deadline::unbounded()).map_err(|e| e.1)?;
    }
    for &k in &seq {
        let line = &prep.refs.lines[k];
        let g = lane.enter("serve.parse");
        let req = parse_request(line);
        lane.exit(g);
        let req = req.map_err(|e| e.1)?;
        let g = lane.enter("serve.engine");
        let resp = engine.run(&req, &Deadline::unbounded());
        lane.exit(g);
        match resp {
            Ok(r) if masked(&r) == prep.refs.masked[k] => {}
            _ => out.fail("in-process engine response differs".into()),
        }
    }
    lanes.push(lane);
    drop(engine);

    let mut lane = tracer.lane(11, "store");
    let pool = pool(workload, seed);
    let rep = store_replay(
        &pool,
        &seq,
        prep.capacity,
        &work.join("layers"),
        &mut lane,
        out,
    )?;
    lanes.push(lane);

    let trace = Trace::from_lanes(tracer.config(), lanes);
    if let Err(e) = trace.check() {
        out.fail(format!("malformed trace: {e}"));
    }
    let ms = |name: &str| -> Vec<f64> {
        span_durations(&trace, name)
            .into_iter()
            .map(|n| n as f64 / 1e6)
            .collect()
    };
    let decomposed = seq.len().max(1) as f64;
    let per_req = |name: &str| ms(name).iter().sum::<f64>() / decomposed;
    let parse_ms = median(&ms("serve.parse"));
    let engine_ms = median(&ms("serve.engine"));
    let round_trip = median(&ms("request"));
    let layer_total: f64 = [
        "store.get",
        "store.put",
        "tiling.dfg_build",
        "sched.schedule",
    ]
    .iter()
    .map(|n| ms(n).iter().sum::<f64>())
    .sum();
    let engine_total: f64 = ms("serve.engine").iter().sum();
    let s = rep.stats;
    let nanos = |n: u64| n as f64 / 1e6 / decomposed;
    let per = |n: u64| n as f64 / decomposed;

    let mut m = Metrics::default();
    m.set("tiling.enumerate_ms", 0.0, "ms");
    m.set("tiling.tilings", 0.0, "count");
    m.set("tiling.dfg_build_ms", per_req("tiling.dfg_build"), "ms");
    m.set("tiling.dfg_ops", per(rep.dfg_ops), "count");
    m.set("solve.bound_ms", 0.0, "ms");
    m.set("sched.cutoffs", 0.0, "count");
    m.set("sched.schedule_ms", per_req("sched.schedule"), "ms");
    m.set("sched.gen_ms", nanos(s.gen_nanos), "ms");
    m.set("sched.eval_ms", nanos(s.eval_nanos), "ms");
    m.set("sched.commit_ms", nanos(s.commit_nanos), "ms");
    m.set(
        "sched.other_ms",
        per_req("sched.schedule") - nanos(s.gen_nanos + s.eval_nanos + s.commit_nanos),
        "ms",
    );
    m.set("sched.pruned_ms", 0.0, "ms");
    m.set("sched.runs", per(rep.misses), "count");
    m.set("sched.steps", per(s.steps), "count");
    m.set("sched.sets_generated", per(s.sets_generated), "count");
    m.set("sched.sets_evaluated", per(s.sets_evaluated), "count");
    m.set(
        "sched.set_yield",
        s.sets_evaluated as f64 / s.sets_generated.max(1) as f64,
        "ratio",
    );
    m.set("sched.memo_replays", per(rep.misses), "count");
    m.set("spm.evictions", per(s.evictions), "count");
    m.set("spm.compactions", per(s.compactions), "count");
    m.set("spm.rollback_bytes", per(s.rollback_bytes), "bytes");
    m.set("store.get_ms", per_req("store.get"), "ms");
    m.set("store.put_ms", per_req("store.put"), "ms");
    m.set(
        "store.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.set("store.evictions", evictions as f64 / requests, "count");
    m.set("serve.parse_us", parse_ms * 1e3, "us");
    m.set("serve.engine_ms", engine_ms, "ms");
    m.set(
        "serve.transport_ms",
        round_trip - engine_ms - parse_ms,
        "ms",
    );
    m.set(
        "core.unattributed_frac",
        1.0 - layer_total / engine_total.max(f64::MIN_POSITIVE),
        "ratio",
    );
    m.set(
        "core.trace_overhead_frac",
        round_trip / median(&untraced) - 1.0,
        "ratio",
    );
    Ok((m, trace))
}
