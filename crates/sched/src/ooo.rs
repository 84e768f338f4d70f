//! The out-of-order list scheduler (`GetSchedule`, Algorithm 1).

use crate::bound::Cutoff;
use crate::combo::{generate_sets_baseline, generate_sets_into, ComboOptions, ComboScratch};
use crate::error::SchedError;
use crate::exec::ExecState;
use crate::memo::{RunKey, RunResult};
use crate::priority::{EvalScratch, PriorityPolicy, SetEvaluation};
use crate::program::Program;
use crate::stats::SearchStats;
use flexer_arch::{ArchConfig, PerfModel};
use flexer_sim::Schedule;
use flexer_spm::{FlexerSpill, SpillPolicy};
use flexer_tiling::{Dfg, OpId};
use flexer_trace::{Lane, TraceDetail};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::time::Instant;

/// How candidate operation sets are trial-planned against the shared
/// scratchpad each scheduling step.
///
/// Both modes produce byte-identical schedules; they differ only in
/// cost. Transactional planning journals the allocator's mutations and
/// undoes them (`O(mutations)` per candidate), while the baseline
/// deep-clones the whole block map per candidate — the behaviour of
/// the original implementation, kept as a reference and as the
/// benchmark baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvalMode {
    /// Checkpoint/rollback on the live scratchpad (default).
    #[default]
    Transactional,
    /// The pre-transactional reference path: clone-per-candidate
    /// evaluation and per-combination allocating set generation. Kept
    /// as the benchmark baseline; schedules are byte-identical.
    CloneBaseline,
}

/// Flexer's out-of-order scheduler for one data-flow graph — the
/// paper's `GetSchedule` (Algorithm 1 lines 12-27).
///
/// Operates like a list instruction scheduler for a multi-issue
/// machine where each NPU is a functional unit (§3): every step it
/// forms candidate sets of ready operations ([`generate_sets`], with
/// §4.2's dataflow-map pruning), evaluates their memory consequences
/// against the shared buffer, selects the highest-priority set
/// ([`PriorityPolicy`], §4.3) and issues it, inserting loads and
/// spills on the fly.
///
/// # Examples
///
/// ```
/// use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};
/// use flexer_model::ConvLayer;
/// use flexer_sched::OooScheduler;
/// use flexer_tiling::{Dataflow, Dfg, TilingFactors};
///
/// let arch = ArchConfig::preset(ArchPreset::Arch1);
/// let layer = ConvLayer::new("c", 32, 14, 14, 32)?;
/// let model = SystolicModel::new(&arch);
/// let factors = TilingFactors::normalized(&layer, 2, 2, 2, 2);
/// let dfg = Dfg::build(&layer, factors, Dataflow::Csk, &model, &arch)?;
///
/// let schedule = OooScheduler::new(&dfg, &arch, &model).schedule()?;
/// assert_eq!(schedule.compute().len(), dfg.num_ops());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy)]
pub struct OooScheduler<'a> {
    dfg: &'a Dfg,
    arch: &'a ArchConfig,
    perf: &'a dyn PerfModel,
    spill: &'a dyn SpillPolicy,
    priority: PriorityPolicy,
    combo: ComboOptions,
    eval_mode: EvalMode,
    cutoff: Option<Cutoff<'a>>,
}

impl std::fmt::Debug for OooScheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OooScheduler")
            .field("dfg", &self.dfg.to_string())
            .field("priority", &self.priority)
            .field("combo", &self.combo)
            .field("eval_mode", &self.eval_mode)
            .finish_non_exhaustive()
    }
}

impl<'a> OooScheduler<'a> {
    /// Creates a scheduler with the paper's defaults: Algorithm-2
    /// spilling, the §4.3 priority function and default combination
    /// budgets.
    #[must_use]
    pub fn new(dfg: &'a Dfg, arch: &'a ArchConfig, perf: &'a dyn PerfModel) -> Self {
        Self {
            dfg,
            arch,
            perf,
            spill: &FlexerSpill,
            priority: PriorityPolicy::FlexerDefault,
            combo: ComboOptions::default(),
            eval_mode: EvalMode::default(),
            cutoff: None,
        }
    }

    /// Replaces the spill-victim policy (Table 2's MemPolicy ablations).
    #[must_use]
    pub fn with_spill(mut self, spill: &'a dyn SpillPolicy) -> Self {
        self.spill = spill;
        self
    }

    /// Replaces the set-priority policy (Table 2's Priority ablations).
    #[must_use]
    pub fn with_priority(mut self, priority: PriorityPolicy) -> Self {
        self.priority = priority;
        self
    }

    /// Replaces the combination budgets.
    #[must_use]
    pub fn with_combo(mut self, combo: ComboOptions) -> Self {
        self.combo = combo;
        self
    }

    /// Replaces the candidate-evaluation mode (see [`EvalMode`]).
    #[must_use]
    pub fn with_eval_mode(mut self, eval_mode: EvalMode) -> Self {
        self.eval_mode = eval_mode;
        self
    }

    /// Installs a branch-and-bound cutoff: the run aborts with
    /// [`SchedError::Pruned`] as soon as the score of its cost-to-go
    /// bound strictly exceeds the cutoff's incumbent. The bound never
    /// exceeds the finished schedule's latency or transferred bytes,
    /// so an aborted candidate provably could not have produced a
    /// schedule scoring at or below the incumbent. The cutoff also
    /// arms the incumbent's graph memo (see
    /// [`OooScheduler::schedule_traced`]).
    #[must_use]
    pub fn with_cutoff(mut self, cutoff: Cutoff<'a>) -> Self {
        self.cutoff = Some(cutoff);
        self
    }

    /// Runs the scheduler to completion.
    ///
    /// # Errors
    ///
    /// * [`SchedError::Alloc`] when even a single operation's working
    ///   set cannot be placed in the on-chip buffer;
    /// * [`SchedError::Stalled`] if the ready queue empties while
    ///   operations remain (unreachable for well-formed DFGs).
    pub fn schedule(&self) -> Result<Schedule, SchedError> {
        self.schedule_with_program().map(|(schedule, _)| schedule)
    }

    /// Runs the scheduler to completion and also lowers the result to
    /// an executable NPU command [`Program`] with concrete buffer
    /// addresses.
    ///
    /// # Errors
    ///
    /// As [`OooScheduler::schedule`].
    pub fn schedule_with_program(&self) -> Result<(Schedule, Program), SchedError> {
        self.schedule_with_stats().map(|(s, p, _)| (s, p))
    }

    /// As [`OooScheduler::schedule_with_program`], additionally
    /// returning the run's [`SearchStats`] counters.
    ///
    /// # Errors
    ///
    /// As [`OooScheduler::schedule`].
    pub fn schedule_with_stats(&self) -> Result<(Schedule, Program, SearchStats), SchedError> {
        self.schedule_traced(&mut Lane::off())
    }

    /// As [`OooScheduler::schedule_with_stats`], recording the run into
    /// a trace lane: one `step` span per issue-loop iteration (at
    /// [`flexer_trace::TraceDetail::Steps`] and deeper) with the ready
    /// count, the issued width and the selected set size, plus per-step
    /// memory events from [`ExecState::commit_set`] at
    /// [`flexer_trace::TraceDetail::Memory`]. On a disabled lane this
    /// is exactly [`OooScheduler::schedule_with_stats`].
    ///
    /// Under a [`Cutoff`], and unless the lane records steps, the run
    /// goes through the incumbent's graph memo: a graph the incumbent
    /// saw before (same [`Dfg::graph_key`] and scheduler knobs) is
    /// answered as a fresh run would be now — `Pruned` if it was
    /// pruned or completed strictly above the incumbent, otherwise its
    /// stored result with the counters kept and the timers zeroed, or
    /// a real run if that result was dropped.
    ///
    /// # Errors
    ///
    /// As [`OooScheduler::schedule`].
    pub fn schedule_traced(
        &self,
        lane: &mut Lane,
    ) -> Result<(Schedule, Program, SearchStats), SchedError> {
        // Graph memo (DESIGN.md §10): under a cutoff, a run's outcome
        // is a function of its graph, its knobs and the incumbent, so a
        // graph the layer already scheduled is answered from the
        // incumbent's memo. A lane recording steps needs the real run.
        let Some(cutoff) = self.cutoff.filter(|_| !lane.records(TraceDetail::Steps)) else {
            return self.run(lane, &mut |_| {});
        };
        let key = RunKey {
            graph: self.dfg.graph_key(),
            spill: self.spill.name(),
            priority: self.priority,
            combo: self.combo,
            eval_mode: self.eval_mode,
        };
        if let Some(outcome) = cutoff.recall(&key) {
            return outcome;
        }
        let result = self.run(lane, &mut |_| {});
        cutoff.record(key, &result);
        result
    }

    /// One scheduler run; `on_commit` sees the state after every
    /// committed step.
    fn run(
        &self,
        lane: &mut Lane,
        on_commit: &mut dyn FnMut(&ExecState<'_>),
    ) -> Result<RunResult, SchedError> {
        let mut stats = SearchStats::default();
        let mut state = ExecState::new(self.dfg, self.arch, self.perf, self.spill);
        let mut ready: BTreeSet<OpId> = self.dfg.initial_ready().collect();
        let cores = self.arch.cores() as usize;
        let dma = |b: u64| self.perf.dma_cycles(b);

        // All step-loop buffers live across iterations: candidate
        // generation, classification and plan evaluation run without
        // per-candidate heap churn.
        let mut combo_scratch = ComboScratch::default();
        let mut eval_scratch = EvalScratch::default();
        let mut ready_vec: Vec<OpId> = Vec::new();
        let mut sets: Vec<Vec<OpId>> = Vec::new();

        while state.remaining() > 0 {
            stats.steps += 1;
            if ready.is_empty() {
                return Err(SchedError::Stalled {
                    remaining: state.remaining(),
                });
            }
            ready_vec.clear();
            ready_vec.extend(ready.iter().copied());
            let step_span = lane.records(TraceDetail::Steps).then(|| {
                let guard = lane.enter("step");
                lane.attr("ready", ready_vec.len());
                lane.attr("remaining", state.remaining());
                guard
            });

            // Try the widest sets first; shrink when memory pressure
            // makes every candidate of that width infeasible.
            let mut selected: Option<Vec<OpId>> = None;
            let mut width = cores.min(ready_vec.len());
            while width >= 1 {
                let gen_start = Instant::now();
                match self.eval_mode {
                    EvalMode::Transactional => generate_sets_into(
                        self.dfg,
                        state.spm(),
                        &ready_vec,
                        width,
                        &self.combo,
                        &mut combo_scratch,
                        &mut sets,
                        &mut stats,
                    ),
                    // The reference path regenerates every buffer from
                    // scratch, as the scheduler did before the
                    // transactional rewrite.
                    EvalMode::CloneBaseline => {
                        sets = generate_sets_baseline(
                            self.dfg,
                            state.spm(),
                            &ready_vec,
                            width,
                            &self.combo,
                            &mut stats,
                        );
                    }
                }
                stats.gen_nanos += gen_start.elapsed().as_nanos() as u64;

                // Incremental selection: the priority comparison is a
                // total order, so keeping the first strict minimum is
                // equivalent to collecting every evaluation and running
                // `PriorityPolicy::select`.
                let eval_start = Instant::now();
                let mut best: Option<SetEvaluation> = None;
                for set in &sets {
                    stats.sets_evaluated += 1;
                    let eval = match self.eval_mode {
                        EvalMode::Transactional => {
                            let (spm, uses) = state.spm_and_uses();
                            SetEvaluation::evaluate_transactional(
                                self.dfg,
                                spm,
                                uses,
                                self.spill,
                                self.arch.cores(),
                                &dma,
                                set,
                                &mut eval_scratch,
                                &mut stats,
                            )
                        }
                        EvalMode::CloneBaseline => SetEvaluation::evaluate(
                            self.dfg,
                            state.spm(),
                            state.uses(),
                            self.spill,
                            self.arch.cores(),
                            &dma,
                            set,
                        ),
                    };
                    if let Some(e) = eval {
                        let better = best
                            .as_ref()
                            .is_none_or(|b| self.priority.compare(&e, b) == Ordering::Less);
                        if better {
                            best = Some(e);
                        }
                    }
                }
                stats.eval_nanos += eval_start.elapsed().as_nanos() as u64;
                if let Some(best) = best {
                    selected = Some(best.ops);
                    break;
                }
                width -= 1;
            }
            let Some(set) = selected else {
                if let Some(guard) = step_span {
                    lane.attr("outcome", "infeasible");
                    lane.exit(guard);
                }
                // Surface the underlying allocation failure of the
                // cheapest single-op set.
                let (spm, uses) = state.spm_and_uses();
                let probe =
                    crate::priority::plan_probe(self.dfg, spm, uses, self.spill, &ready_vec[..1]);
                return Err(match probe {
                    Err(e) => SchedError::Alloc(e),
                    Ok(()) => SchedError::Stalled {
                        remaining: state.remaining(),
                    },
                });
            };
            if step_span.is_some() {
                lane.attr("width", width);
                lane.attr("issued", set.len());
            }

            let commit_start = Instant::now();
            let woken = match state.commit_set(&set, &mut eval_scratch, lane) {
                Ok(woken) => woken,
                Err(e) => {
                    if let Some(guard) = step_span {
                        lane.attr("outcome", "commit-failed");
                        lane.exit(guard);
                    }
                    return Err(e);
                }
            };
            stats.commit_nanos += commit_start.elapsed().as_nanos() as u64;
            on_commit(&state);
            // Branch-and-bound early exit: no completion of the partial
            // schedule beats its cost-to-go bound, so once the bound
            // strictly exceeds the incumbent this candidate cannot win
            // (nor tie).
            if let Some(cutoff) = &self.cutoff {
                let (latency, transfer) = state.running_cost();
                if cutoff.exceeded(latency, transfer) {
                    if let Some(guard) = step_span {
                        lane.attr("outcome", "cutoff");
                        lane.exit(guard);
                    }
                    return Err(SchedError::Pruned);
                }
            }
            for id in &set {
                ready.remove(id);
            }
            ready.extend(woken);
            if let Some(guard) = step_span {
                lane.exit(guard);
            }
        }
        stats.merge(state.stats());
        let (schedule, program) = state.finish();
        Ok((schedule, program, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_arch::{ArchConfigBuilder, ArchPreset, SystolicModel};
    use flexer_model::ConvLayer;
    use flexer_sim::{validate_schedule, MemOpKind, TrafficClass};
    use flexer_spm::SmallestFirstSpill;
    use flexer_tiling::{Dataflow, TilingFactors};

    fn dfg_for(layer: &ConvLayer, arch: &ArchConfig, k: u32, c: u32, s: u32) -> Dfg {
        let model = SystolicModel::new(arch);
        let factors = TilingFactors::normalized(layer, k, c, s, s);
        Dfg::build(layer, factors, Dataflow::Csk, &model, arch).unwrap()
    }

    #[test]
    fn fills_all_cores_when_memory_allows() {
        let arch = ArchConfig::preset(ArchPreset::Arch8);
        let model = SystolicModel::new(&arch);
        let layer = ConvLayer::new("w", 32, 16, 16, 64).unwrap();
        let dfg = dfg_for(&layer, &arch, 8, 1, 2);
        let sched = OooScheduler::new(&dfg, &arch, &model).schedule().unwrap();
        validate_schedule(&dfg, &sched).unwrap();
        // All four cores execute work.
        for core in 0..arch.cores() {
            assert!(sched.core_busy(core) > 0, "core {core} idle");
        }
    }

    #[test]
    fn degrades_to_narrow_sets_under_memory_pressure() {
        // The buffer holds one working set but never two.
        let layer = ConvLayer::new("n", 64, 8, 8, 64).unwrap();
        let arch = ArchConfigBuilder::new(4, 30 * 1024, 32).build().unwrap();
        let model = SystolicModel::new(&arch);
        let dfg = dfg_for(&layer, &arch, 2, 1, 1);
        let sched = OooScheduler::new(&dfg, &arch, &model).schedule().unwrap();
        validate_schedule(&dfg, &sched).unwrap();
        // Everything ran on one core at a time.
        let busy: Vec<u64> = (0..4).map(|c| sched.core_busy(c)).collect();
        assert!(busy.iter().filter(|&&b| b > 0).count() >= 1);
        assert!(sched.compute_utilization() <= 0.5);
    }

    #[test]
    fn spilled_partial_sums_reload_as_psum_traffic() {
        // Long accumulation chains across many output tiles with a
        // buffer too small to keep them all: psums must round-trip.
        let layer = ConvLayer::new("p", 128, 16, 16, 128).unwrap();
        let arch = ArchConfigBuilder::new(2, 24 * 1024, 32).build().unwrap();
        let model = SystolicModel::new(&arch);
        let dfg = dfg_for(&layer, &arch, 8, 4, 2);
        let sched = OooScheduler::new(&dfg, &arch, &model).schedule().unwrap();
        validate_schedule(&dfg, &sched).unwrap();
        let psum = sched.traffic().class_bytes(TrafficClass::Psum);
        if psum > 0 {
            // Write-backs and reloads both appear.
            let spills = sched
                .mem_ops()
                .iter()
                .any(|m| m.kind == MemOpKind::Spill && m.class == TrafficClass::Psum);
            let reloads = sched
                .mem_ops()
                .iter()
                .any(|m| m.kind == MemOpKind::Load && m.class == TrafficClass::Psum);
            assert!(spills, "psum traffic without write-backs");
            assert!(reloads == spills || psum > 0);
        }
        // Either way the schedule stays legal and stores everything.
        assert!(
            sched.traffic().class_bytes(TrafficClass::Output)
                >= layer.output_bytes(arch.element_size())
        );
    }

    #[test]
    fn builder_knobs_change_behaviour_not_legality() {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let model = SystolicModel::new(&arch);
        let layer = ConvLayer::new("k", 64, 16, 16, 64).unwrap();
        let dfg = dfg_for(&layer, &arch, 4, 2, 2);
        for priority in [
            PriorityPolicy::FlexerDefault,
            PriorityPolicy::MinTransfer,
            PriorityPolicy::MinSpill,
        ] {
            let sched = OooScheduler::new(&dfg, &arch, &model)
                .with_priority(priority)
                .with_spill(&SmallestFirstSpill)
                .with_combo(ComboOptions {
                    width_cap: 4,
                    max_combos: 64,
                    max_sets: 8,
                    prune: true,
                })
                .schedule()
                .unwrap();
            validate_schedule(&dfg, &sched).unwrap_or_else(|e| panic!("{priority}: {e}"));
        }
    }

    #[test]
    fn repeated_runs_are_identical() {
        let arch = ArchConfig::preset(ArchPreset::Arch5);
        let model = SystolicModel::new(&arch);
        let layer = ConvLayer::new("d", 96, 16, 16, 96).unwrap();
        let dfg = dfg_for(&layer, &arch, 4, 4, 2);
        let a = OooScheduler::new(&dfg, &arch, &model).schedule().unwrap();
        let b = OooScheduler::new(&dfg, &arch, &model).schedule().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn eval_modes_produce_identical_schedules() {
        let arch = ArchConfig::preset(ArchPreset::Arch5);
        let model = SystolicModel::new(&arch);
        let layer = ConvLayer::new("d", 96, 16, 16, 96).unwrap();
        let dfg = dfg_for(&layer, &arch, 4, 4, 2);
        let base = OooScheduler::new(&dfg, &arch, &model);
        let (s_tx, p_tx, st_tx) = base.schedule_with_stats().unwrap();
        let (s_cl, p_cl, st_cl) = base
            .with_eval_mode(EvalMode::CloneBaseline)
            .schedule_with_stats()
            .unwrap();
        // The transactional path must be a pure optimization: identical
        // schedule, identical command stream, identical search shape.
        assert_eq!(s_tx, s_cl);
        assert_eq!(p_tx, p_cl);
        assert_eq!(st_tx.steps, st_cl.steps);
        assert_eq!(st_tx.sets_generated, st_cl.sets_generated);
        assert_eq!(st_tx.sets_pruned, st_cl.sets_pruned);
        assert_eq!(st_tx.sets_evaluated, st_cl.sets_evaluated);
        // Rollback accounting only exists on the transactional path.
        assert!(st_tx.steps > 0);
        assert!(st_tx.rollback_bytes > 0);
        assert!(st_tx.clone_bytes_avoided > 0);
        assert_eq!(st_cl.rollback_bytes, 0);
        assert_eq!(st_cl.clone_bytes_avoided, 0);
    }

    #[test]
    fn stats_count_scheduler_work() {
        let arch = ArchConfig::preset(ArchPreset::Arch8);
        let model = SystolicModel::new(&arch);
        let layer = ConvLayer::new("w", 32, 16, 16, 64).unwrap();
        let dfg = dfg_for(&layer, &arch, 8, 1, 2);
        let (_, _, stats) = OooScheduler::new(&dfg, &arch, &model)
            .schedule_with_stats()
            .unwrap();
        assert!(stats.steps > 0);
        assert!(stats.sets_generated >= stats.sets_evaluated);
        assert!(stats.sets_evaluated > 0);
    }

    #[test]
    fn cutoff_aborts_hopeless_runs_and_spares_viable_ones() {
        use crate::bound::Incumbent;
        use crate::metric::Metric;
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let model = SystolicModel::new(&arch);
        let layer = ConvLayer::new("c", 64, 16, 16, 64).unwrap();
        let dfg = dfg_for(&layer, &arch, 4, 2, 2);
        let inc = Incumbent::new();
        let guarded = OooScheduler::new(&dfg, &arch, &model)
            .with_cutoff(Cutoff::new(&inc, Metric::LatencyTimesTransfer));
        // An infinite incumbent never cuts: identical to no cutoff.
        let a = guarded.schedule().unwrap();
        let b = OooScheduler::new(&dfg, &arch, &model).schedule().unwrap();
        assert_eq!(a, b);
        // An unbeatable incumbent aborts the run as Pruned.
        inc.observe(0.0);
        assert!(matches!(guarded.schedule(), Err(SchedError::Pruned)));
    }

    #[test]
    fn cost_to_go_bound_is_admissible_and_exact_at_the_end() {
        use crate::search::{SchedulerKind, SearchOptions};
        use flexer_tiling::enumerate_tilings;
        let opts = SearchOptions::quick();
        let mut tighter_at_step_one = 0;
        let mut reloads_tighten_mid_run = 0;
        for arch in [ArchConfig::preset(ArchPreset::Arch5), ArchConfig::hetero1()] {
            let model = SystolicModel::new(&arch);
            for net in [
                "squeezenet",
                "resnet50",
                "mobilenet",
                "transformer",
                "firenet",
            ] {
                let net = flexer_model::networks::by_name(net).unwrap();
                let mut leaders = std::collections::HashSet::new();
                for layer in net.layers() {
                    if !leaders.insert(opts.memo_key(layer, &arch, SchedulerKind::Ooo)) {
                        continue;
                    }
                    // The first viable tiling under every dataflow.
                    let factors = enumerate_tilings(layer, &arch, &opts.tiling)[0];
                    for dataflow in Dataflow::all() {
                        let dfg = Dfg::build(layer, factors, dataflow, &model, &arch).unwrap();
                        // Per committed step: (bound, bound without the
                        // owed reloads, committed cost).
                        let mut trail = Vec::new();
                        let (schedule, _, _) = OooScheduler::new(&dfg, &arch, &model)
                            .run(&mut Lane::off(), &mut |state| {
                                trail.push((
                                    state.running_cost(),
                                    state.running_cost_without_owed_reloads(),
                                    state.committed_cost(),
                                ));
                            })
                            .unwrap();
                        let done = (schedule.latency(), schedule.transfer_bytes());
                        for &(bound, without, _) in &trail {
                            assert!(
                                bound.0 <= done.0 && bound.1 <= done.1,
                                "{} {dataflow:?}: bound {bound:?} beats the schedule's {done:?}",
                                layer.name(),
                            );
                            assert!(
                                bound.0 >= without.0 && bound.1 >= without.1,
                                "{} {dataflow:?}: owed reloads loosened {without:?} to {bound:?}",
                                layer.name(),
                            );
                        }
                        let (last, last_without, _) = *trail.last().unwrap();
                        assert_eq!(last, done, "{}", layer.name());
                        assert_eq!(last_without, done, "{}", layer.name());
                        let mid = &trail[..trail.len() - 1];
                        if mid.iter().any(|(bound, without, _)| bound != without) {
                            reloads_tighten_mid_run += 1;
                        }
                        let (bound, _, committed) = trail[0];
                        assert!(bound.0 >= committed.0 && bound.1 >= committed.1);
                        if bound != committed {
                            tighter_at_step_one += 1;
                        }
                    }
                }
            }
        }
        assert!(tighter_at_step_one > 0);
        assert!(reloads_tighten_mid_run > 0);
    }

    #[test]
    fn debug_format_is_informative() {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let model = SystolicModel::new(&arch);
        let layer = ConvLayer::new("f", 16, 8, 8, 16).unwrap();
        let dfg = dfg_for(&layer, &arch, 1, 1, 1);
        let s = format!("{:?}", OooScheduler::new(&dfg, &arch, &model));
        assert!(s.contains("OooScheduler"));
        assert!(s.contains("priority"));
    }
}
