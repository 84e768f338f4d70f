//! The branch-and-bound machinery of the tiling × dataflow search.
//!
//! The admissible [`ScheduleBound`] and its constructor
//! [`lower_bound`] live in `flexer-solve` — the analytical solver and
//! the exact search share one definition of "no schedule can beat
//! this" — and are re-exported here. This module keeps the pieces that
//! only make sense inside a running search:
//!
//! * [`Incumbent`] — the best score found so far for one layer,
//!   shared lock-free across worker threads, plus the layer's graph
//!   memo;
//! * [`Cutoff`] — the strict comparison of a run's cost-to-go bound
//!   against the incumbent that aborts provably-losing candidates
//!   mid-schedule.
//!
//! Because the bounds are admissible and the cutoff strict, pruning is
//! exact: winners are byte-identical to the exhaustive search's (see
//! DESIGN.md §10).

use crate::error::SchedError;
use crate::memo::{GraphMemo, RunKey, RunResult};
use crate::metric::{decode_score, encode_score, Metric};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

pub use flexer_solve::{lower_bound, lower_bound_resident, ScheduleBound};

/// The best score found so far for one layer, shared across worker
/// threads.
///
/// Scores are stored monotone-encoded (see
/// [`crate::metric::encode_score`]) so [`Incumbent::observe`] is a
/// single `AtomicU64::fetch_min` — lock-free and only ever decreasing.
///
/// The incumbent also carries the layer's graph memo: scheduler runs
/// under a [`Cutoff`] on this incumbent record their outcomes, and a
/// run of a graph seen before is answered from the memo (see
/// [`crate::OooScheduler::schedule_traced`]). An incumbent therefore
/// serves one layer search — one layer, one architecture, one metric —
/// and its memo is freed with it.
#[derive(Debug)]
pub struct Incumbent {
    best: AtomicU64,
    memo: Mutex<GraphMemo>,
}

impl Incumbent {
    /// A fresh incumbent at `+inf` (nothing found yet).
    #[must_use]
    pub fn new() -> Self {
        Self {
            best: AtomicU64::new(encode_score(f64::INFINITY)),
            memo: Mutex::new(GraphMemo::default()),
        }
    }

    /// Records a completed candidate's score; keeps the minimum.
    pub fn observe(&self, score: f64) {
        self.best.fetch_min(encode_score(score), Ordering::Relaxed);
    }

    /// The best score observed so far (`+inf` if none).
    #[must_use]
    pub fn get(&self) -> f64 {
        decode_score(self.best.load(Ordering::Relaxed))
    }

    /// Frees the graph memo once no run under this incumbent follows.
    pub(crate) fn forget_graphs(&self) {
        *self.memo.lock() = GraphMemo::default();
    }
}

impl Default for Incumbent {
    fn default() -> Self {
        Self::new()
    }
}

/// A pruning cutoff handed to the OoO scheduler: the layer's shared
/// incumbent plus the metric scoring partial schedules against it.
///
/// After each committed step the scheduler scores a cost-to-go bound
/// of the partial schedule: a `(latency, transfer_bytes)` pair no
/// completion can beat in either component (the committed cost plus
/// the compulsory transfers and compute still ahead). For a monotone
/// metric its score never exceeds the final score — once it
/// *strictly* exceeds the incumbent the candidate provably cannot win
/// (nor tie), and the run aborts with [`crate::SchedError::Pruned`].
/// Strictness is what keeps pruning exact: a candidate tying the
/// incumbent is still scheduled to completion, preserving the
/// exhaustive search's first-in-work-order tie-break. The same strictness makes *seeding* the incumbent with
/// an analytically found schedule winner-neutral: a seeded cutoff can
/// only skip candidates that provably lose to a schedule the search
/// itself would also have found and preferred.
#[derive(Debug, Clone, Copy)]
pub struct Cutoff<'a> {
    incumbent: &'a Incumbent,
    metric: Metric,
}

impl<'a> Cutoff<'a> {
    /// Pairs a shared incumbent with the search metric.
    #[must_use]
    pub fn new(incumbent: &'a Incumbent, metric: Metric) -> Self {
        Self { incumbent, metric }
    }

    /// Whether a (partial) schedule at `latency` cycles and
    /// `transfer_bytes` bytes is already strictly worse than the
    /// incumbent.
    #[must_use]
    pub fn exceeded(&self, latency: u64, transfer_bytes: u64) -> bool {
        self.score(latency, transfer_bytes) > self.incumbent.get()
    }

    /// The metric's score of `(latency, transfer_bytes)`.
    pub(crate) fn score(&self, latency: u64, transfer_bytes: u64) -> f64 {
        self.metric.score(latency, transfer_bytes)
    }

    /// The outcome a fresh run of `key` would have now, if the
    /// incumbent's graph memo knows it.
    pub(crate) fn recall(&self, key: &RunKey) -> Option<Result<RunResult, SchedError>> {
        self.incumbent.memo.lock().recall(key, self)
    }

    /// Records how a run of `key` ended in the incumbent's graph memo.
    pub(crate) fn record(&self, key: RunKey, result: &Result<RunResult, SchedError>) {
        self.incumbent.memo.lock().record(key, result, self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incumbent_keeps_the_minimum() {
        let inc = Incumbent::new();
        assert_eq!(inc.get(), f64::INFINITY);
        inc.observe(100.0);
        assert_eq!(inc.get(), 100.0);
        inc.observe(250.0);
        assert_eq!(inc.get(), 100.0);
        inc.observe(25.0);
        assert_eq!(inc.get(), 25.0);
    }

    #[test]
    fn cutoff_is_strict() {
        let inc = Incumbent::new();
        inc.observe(Metric::Latency.score(100, 0));
        let cutoff = Cutoff::new(&inc, Metric::Latency);
        // Equal score ties the incumbent: NOT exceeded (strictness
        // preserves the first-in-work-order tie-break).
        assert!(!cutoff.exceeded(100, 0));
        assert!(!cutoff.exceeded(99, u64::MAX));
        assert!(cutoff.exceeded(101, 0));
    }

    #[test]
    fn fresh_incumbent_never_cuts() {
        let inc = Incumbent::new();
        let cutoff = Cutoff::new(&inc, Metric::LatencyTimesTransfer);
        assert!(!cutoff.exceeded(u64::MAX, u64::MAX));
    }
}
