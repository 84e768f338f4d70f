//! Memoization: search winners across layers ([`MemoCache`]) and
//! scheduler runs within one layer ([`GraphMemo`]).

use crate::bound::Cutoff;
use crate::combo::ComboOptions;
use crate::error::SchedError;
use crate::ooo::EvalMode;
use crate::priority::PriorityPolicy;
use crate::program::Program;
use crate::search::MemoKey;
use crate::stats::SearchStats;
use flexer_sim::Schedule;
use flexer_tiling::{Dataflow, GraphKey, TilingFactors};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Remembers the winning `(tiling, dataflow)` of previous layer
/// searches — the paper's suggested "memory function to remember the
/// best tiling" that "could significantly reduce the runtime of the
/// scheduler" (§3).
///
/// Keys are [`MemoKey`]s: the layer *shape* (not its name), the
/// hardware configuration and every search knob, hashed structurally,
/// so distinct searches never collide while repeated shapes —
/// ResNet-50 alone has its bottleneck geometry dozens of times — skip
/// the exhaustive search and only re-run the single winning schedule.
///
/// The cache is internally synchronized and can be shared across
/// threads by reference.
///
/// # Examples
///
/// ```
/// use flexer_sched::MemoCache;
///
/// let cache = MemoCache::new();
/// assert_eq!(cache.len(), 0);
/// assert!(cache.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct MemoCache {
    inner: Mutex<HashMap<MemoKey, (TilingFactors, Dataflow)>>,
}

impl MemoCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a search key.
    #[must_use]
    pub fn get(&self, key: &MemoKey) -> Option<(TilingFactors, Dataflow)> {
        self.inner.lock().get(key).copied()
    }

    /// Records a search winner.
    pub fn insert(&self, key: MemoKey, factors: TilingFactors, dataflow: Dataflow) {
        self.inner.lock().insert(key, (factors, dataflow));
    }

    /// Number of cached winners.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What one out-of-order scheduler run returns.
pub(crate) type RunResult = (Schedule, Program, SearchStats);

/// Identity of one scheduler run within a layer: the graph plus every
/// scheduler knob that shapes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    pub(crate) graph: GraphKey,
    /// The spill policy's name: the built-in policies' names differ.
    pub(crate) spill: &'static str,
    pub(crate) priority: PriorityPolicy,
    pub(crate) combo: ComboOptions,
    pub(crate) eval_mode: EvalMode,
}

/// How a run ended, as far as later runs of the same key care.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// Aborted by the cutoff. The incumbent never rises, so a rerun
    /// would abort too.
    Pruned,
    /// Completed with this cost.
    Done { latency: u64, transfer_bytes: u64 },
}

/// The outcomes of one layer's scheduler runs, kept inside the
/// layer's [`crate::Incumbent`] (DESIGN.md §10).
///
/// A run's outcome under a cutoff depends only on its graph, its knobs
/// and the incumbent: it completes exactly when its final score is at
/// most the incumbent. So a key seen before is answered without a run:
/// pruned stays pruned, and a completion scoring strictly above the
/// incumbent is now pruned. Otherwise the completion's result is
/// returned if it is still held: only completions at the best score
/// seen keep their results, a strictly better completion drops them
/// all, and a key whose result was dropped is scheduled again.
#[derive(Debug)]
pub(crate) struct GraphMemo {
    outcomes: HashMap<RunKey, Outcome>,
    /// The best completion score seen.
    best: f64,
    /// The results of the completions scoring `best`.
    held: Vec<(RunKey, RunResult)>,
}

impl Default for GraphMemo {
    fn default() -> Self {
        Self {
            outcomes: HashMap::new(),
            best: f64::INFINITY,
            held: Vec::new(),
        }
    }
}

impl GraphMemo {
    /// The outcome a fresh run of `key` under `cutoff` would have, if
    /// the memo knows it. A replayed result carries the run's counters
    /// but no timers: no time was spent on it.
    pub(crate) fn recall(
        &self,
        key: &RunKey,
        cutoff: &Cutoff<'_>,
    ) -> Option<Result<RunResult, SchedError>> {
        match *self.outcomes.get(key)? {
            Outcome::Pruned => Some(Err(SchedError::Pruned)),
            Outcome::Done {
                latency,
                transfer_bytes,
            } if cutoff.exceeded(latency, transfer_bytes) => Some(Err(SchedError::Pruned)),
            Outcome::Done { .. } => {
                let (_, result) = self.held.iter().find(|(held, _)| held == key)?;
                let (schedule, program, stats) = result;
                Some(Ok((
                    schedule.clone(),
                    program.clone(),
                    stats.without_timers(),
                )))
            }
        }
    }

    /// Records how a run of `key` under `cutoff` ended. Failures other
    /// than the cutoff are not recorded.
    pub(crate) fn record(
        &mut self,
        key: RunKey,
        result: &Result<RunResult, SchedError>,
        cutoff: &Cutoff<'_>,
    ) {
        match result {
            Ok(run) => {
                let (latency, transfer_bytes) = (run.0.latency(), run.0.transfer_bytes());
                self.outcomes.insert(
                    key,
                    Outcome::Done {
                        latency,
                        transfer_bytes,
                    },
                );
                let score = cutoff.score(latency, transfer_bytes);
                if score < self.best {
                    self.best = score;
                    self.held.clear();
                }
                if score == self.best && self.held.iter().all(|(held, _)| *held != key) {
                    self.held.push((key, run.clone()));
                }
            }
            Err(SchedError::Pruned) => {
                self.outcomes.entry(key).or_insert(Outcome::Pruned);
            }
            Err(_) => {}
        }
    }

    /// Results held, and keys completed at the best score seen.
    #[cfg(test)]
    fn held_and_tied(&self, cutoff: &Cutoff<'_>) -> (usize, usize) {
        let tied = self
            .outcomes
            .values()
            .filter(|o| match **o {
                Outcome::Done {
                    latency,
                    transfer_bytes,
                } => cutoff.score(latency, transfer_bytes) == self.best,
                Outcome::Pruned => false,
            })
            .count();
        (self.held.len(), tied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::Incumbent;
    use crate::metric::Metric;
    use crate::ooo::OooScheduler;
    use crate::search::{SchedulerKind, SearchOptions};
    use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};
    use flexer_model::ConvLayer;
    use flexer_spm::{FlexerSpill, SpillPolicy};
    use flexer_tiling::Dfg;

    fn key(layer: &ConvLayer, kind: SchedulerKind) -> MemoKey {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        SearchOptions::quick().memo_key(layer, &arch, kind)
    }

    #[test]
    fn round_trip() {
        let cache = MemoCache::new();
        let layer = ConvLayer::new("c", 8, 8, 8, 8).unwrap();
        let f = TilingFactors::normalized(&layer, 2, 2, 1, 1);
        let k = key(&layer, SchedulerKind::Ooo);
        cache.insert(k.clone(), f, Dataflow::Csk);
        assert_eq!(cache.get(&k), Some((f, Dataflow::Csk)));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        assert!(cache.get(&key(&layer, SchedulerKind::Static)).is_none());
    }

    #[test]
    fn insert_overwrites() {
        let cache = MemoCache::new();
        let layer = ConvLayer::new("c", 8, 8, 8, 8).unwrap();
        let f1 = TilingFactors::normalized(&layer, 2, 2, 1, 1);
        let f2 = TilingFactors::normalized(&layer, 4, 1, 1, 1);
        let k = key(&layer, SchedulerKind::Ooo);
        cache.insert(k.clone(), f1, Dataflow::Csk);
        cache.insert(k.clone(), f2, Dataflow::Kcs);
        assert_eq!(cache.get(&k), Some((f2, Dataflow::Kcs)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_across_threads() {
        let cache = MemoCache::new();
        let layer = ConvLayer::new("c", 8, 8, 8, 8).unwrap();
        let other = ConvLayer::new("c", 16, 8, 8, 8).unwrap();
        let f = TilingFactors::normalized(&layer, 2, 2, 1, 1);
        std::thread::scope(|s| {
            s.spawn(|| cache.insert(key(&layer, SchedulerKind::Ooo), f, Dataflow::Kcs));
            s.spawn(|| cache.insert(key(&other, SchedulerKind::Ooo), f, Dataflow::Sck));
        });
        assert_eq!(cache.len(), 2);
    }

    /// Every dataflow of a few tilings of one layer, run without a
    /// cutoff, keyed as a run under a cutoff would be.
    fn runs() -> Vec<(RunKey, RunResult)> {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let model = SystolicModel::new(&arch);
        let layer = ConvLayer::new("g", 32, 14, 14, 32).unwrap();
        let mut out = Vec::new();
        for (k, c, h, w) in [(2, 2, 2, 1), (1, 2, 2, 2), (2, 1, 1, 2), (4, 2, 1, 1)] {
            let factors = TilingFactors::normalized(&layer, k, c, h, w);
            for dataflow in Dataflow::all() {
                let dfg = Dfg::build(&layer, factors, dataflow, &model, &arch).unwrap();
                let key = RunKey {
                    graph: dfg.graph_key(),
                    spill: FlexerSpill.name(),
                    priority: PriorityPolicy::default(),
                    combo: ComboOptions::default(),
                    eval_mode: EvalMode::default(),
                };
                let run = OooScheduler::new(&dfg, &arch, &model)
                    .schedule_with_stats()
                    .unwrap();
                out.push((key, run));
            }
        }
        out
    }

    #[test]
    fn held_results_never_exceed_the_keys_tied_at_the_best_score() {
        let incumbent = Incumbent::new();
        let cutoff = Cutoff::new(&incumbent, Metric::LatencyTimesTransfer);
        let mut memo = GraphMemo::default();
        for (key, run) in runs() {
            memo.record(key, &Ok(run), &cutoff);
            let (held, tied) = memo.held_and_tied(&cutoff);
            assert!(held <= tied, "{held} results held, {tied} keys tied");
            assert!(held >= 1);
        }
    }

    #[test]
    fn recall_answers_as_a_fresh_run_would() {
        let incumbent = Incumbent::new();
        let cutoff = Cutoff::new(&incumbent, Metric::LatencyTimesTransfer);
        let score = |run: &RunResult| cutoff.score(run.0.latency(), run.0.transfer_bytes());
        let mut memo = GraphMemo::default();
        let runs = runs();
        for (key, run) in &runs {
            memo.record(*key, &Ok(run.clone()), &cutoff);
            incumbent.observe(score(run));
        }
        let best = incumbent.get();
        let (mut pruned, mut replayed) = (0, 0);
        for (key, run) in &runs {
            match memo.recall(key, &cutoff) {
                Some(Err(SchedError::Pruned)) => {
                    assert!(score(run) > best);
                    pruned += 1;
                }
                Some(Ok(replay)) => {
                    assert_eq!(score(run), best);
                    assert_eq!((&replay.0, &replay.1), (&run.0, &run.1));
                    assert_eq!(replay.2, run.2.without_timers());
                    replayed += 1;
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(pruned > 0 && replayed > 0);

        // A pruned graph stays pruned; an unseen one is not known.
        let fresh = Incumbent::new();
        let cutoff = Cutoff::new(&fresh, Metric::LatencyTimesTransfer);
        let mut memo = GraphMemo::default();
        memo.record(runs[0].0, &Err(SchedError::Pruned), &cutoff);
        assert_eq!(
            memo.recall(&runs[0].0, &cutoff),
            Some(Err(SchedError::Pruned))
        );
        let unseen = runs.iter().find(|(k, _)| *k != runs[0].0).unwrap().0;
        assert_eq!(memo.recall(&unseen, &cutoff), None);
    }
}
