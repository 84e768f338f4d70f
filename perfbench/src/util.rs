//! Small shared pieces: the seeded generator, order statistics, the
//! metric record, span accounting over drained traces, and process
//! memory.

use flexer::trace::{EventKind, Trace};
use std::collections::{BTreeMap, HashMap};

/// SplitMix64: the seeded generator behind every random choice the
/// benchmark makes (request streams, pass and pool order).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for `salt` (one per client or purpose).
    pub fn fork(seed: u64, salt: u64) -> Self {
        let mut base = Self(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        Self(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Fixed, benchmark-owned CPU work in the scheduler's style (ordered
/// set churn, hashing, sorting, allocation). Returns its wall time,
/// less any [`runqueue_wait`], in milliseconds. The host's speed drifts
/// by tens of percent over minutes, and this work slows down with it;
/// see [`calibrated`].
pub fn calibrate() -> f64 {
    let waited = runqueue_wait();
    let t = std::time::Instant::now();
    let mut rng = SplitMix64::fork(0xCA1, 0);
    let mut acc = 0u64;
    let mut set = std::collections::BTreeSet::new();
    let mut hash = std::collections::HashMap::new();
    let mut v: Vec<u64> = Vec::new();
    for i in 0..6_000u64 {
        let x = rng.next_u64();
        set.insert(x % 4096);
        if i % 3 == 0 {
            set.pop_first();
        }
        *hash.entry(x % 2048).or_insert(0u64) += 1;
        v.push(x);
        if v.len() == 512 {
            v.sort_unstable();
            acc = acc.wrapping_add(v[256]);
            v.clear();
        }
    }
    std::hint::black_box((acc, set.len(), hash.len()));
    let elapsed = t.elapsed();
    elapsed
        .saturating_sub(runqueue_wait().saturating_sub(waited))
        .as_secs_f64()
        * 1e3
}

/// Nanoseconds a thread has spent runnable but waiting for a CPU: the
/// second field of its `schedstat` file.
fn schedstat_wait(path: &std::path::Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Time the calling thread has spent runnable but waiting for a CPU. It
/// grows while other processes hold the host's cores; 0 where the
/// kernel does not report it.
pub fn runqueue_wait() -> std::time::Duration {
    let ns = schedstat_wait("/proc/thread-self/schedstat".as_ref()).unwrap_or(0);
    std::time::Duration::from_nanos(ns)
}

/// [`runqueue_wait`] of every thread of this process, by thread id.
pub struct ProcessWaits(HashMap<u32, u64>);

impl ProcessWaits {
    pub fn now() -> Self {
        let mut waits = HashMap::new();
        for entry in std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
        {
            let tid = entry.file_name().to_string_lossy().parse().ok();
            let wait = schedstat_wait(&entry.path().join("schedstat"));
            if let (Some(tid), Some(wait)) = (tid, wait) {
                waits.insert(tid, wait);
            }
        }
        Self(waits)
    }

    /// The wait the threads alive now have added since `self`; a thread
    /// started since counts from 0. Threads that waited at the same
    /// time count twice, so this can exceed the wall-clock delay.
    pub fn since(&self) -> std::time::Duration {
        let ns = Self::now()
            .0
            .iter()
            .map(|(tid, &w)| w.saturating_sub(self.0.get(tid).copied().unwrap_or(0)))
            .sum();
        std::time::Duration::from_nanos(ns)
    }
}

/// Calibration time of the reference host, in milliseconds.
pub const REFERENCE_MS: f64 = 1.0;

/// Calibrates timed passes: `raw[i]` was timed next to the calibration
/// samples `cal[i]`, and becomes `raw[i] × REFERENCE_MS ÷` the median of
/// the samples of passes `i - 1..=i + 1`. The window follows the host's
/// speed as it drifts during a run, down to bursts of a few passes.
pub fn calibrated(raw: &[f64], cal: &[Vec<f64>]) -> Vec<f64> {
    (0..raw.len())
        .map(|i| {
            let near: Vec<f64> = cal[i.saturating_sub(1)..(i + 2).min(cal.len())].concat();
            raw[i] * REFERENCE_MS / median(&near)
        })
        .collect()
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics of one run, in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // `+ 0.0` turns the -0 of an empty float sum into 0.
                let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Calls `f(lane id, span name, duration)` for every span of `trace`.
fn for_each_span(trace: &Trace, mut f: impl FnMut(u32, &'static str, u64)) {
    for lane in trace.lanes() {
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        for event in &lane.events {
            match event.kind {
                EventKind::Enter { name } => open.push((name, event.ts)),
                EventKind::Exit => {
                    let (name, start) = open.pop().expect("checked trace");
                    f(lane.id, name, event.ts - start);
                }
                EventKind::Counter { .. } => {}
            }
        }
    }
}

/// Total nanoseconds in each span name.
pub type SpanTotals = BTreeMap<&'static str, u64>;

/// Sums span durations by name over the lanes whose id `pick` accepts.
/// Nested spans count toward their own name only; callers choose
/// non-overlapping names when they add totals together.
pub fn span_totals(trace: &Trace, pick: impl Fn(u32) -> bool) -> SpanTotals {
    let mut totals = SpanTotals::new();
    for_each_span(trace, |id, name, ns| {
        if pick(id) {
            *totals.entry(name).or_default() += ns;
        }
    });
    totals
}

/// Milliseconds spent in span `name` (0 when absent).
pub fn span_ms(totals: &SpanTotals, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |&ns| ns as f64 / 1e6)
}

/// Durations in nanoseconds of every span called `name`, in recording
/// order.
pub fn span_durations(trace: &Trace, name: &str) -> Vec<u64> {
    let mut out = Vec::new();
    for_each_span(trace, |_, n, ns| {
        if n == name {
            out.push(ns);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::fork(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = SplitMix64::fork(7, 1);
        let mut y = SplitMix64::fork(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
    }
}
