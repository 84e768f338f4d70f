//! Operation-set planning, evaluation and priority policies (§4.3).

use crate::stats::SearchStats;
use flexer_spm::{AllocError, AllocMethod, Eviction, SpillPolicy, SpmMemory, TileMove};
use flexer_tiling::{Dfg, OpId, TileId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// What must happen for one distinct tile of an operation set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TileAction {
    /// The tile was resident before the set; its data is reused.
    Reuse,
    /// The tile must be loaded from DRAM (inputs, weights, spilled
    /// partial sums).
    Load,
    /// A fresh output tile is allocated; no data moves.
    AllocOutput,
}

/// One step of a set plan's memory activity, in the exact order it
/// occurred — the trace a code generator lowers into commands.
#[derive(Debug, Clone)]
pub(crate) enum PlanEvent {
    /// A tile was evicted from its block.
    Evict(Eviction),
    /// Compaction relocated a tile.
    Move(TileMove),
    /// A tile was placed at an address (loaded or reserved).
    Place {
        /// The placed tile.
        tile: TileId,
        /// Its byte size.
        bytes: u64,
        /// Its block's start address.
        address: u64,
        /// Whether data must be fetched ([`TileAction::Load`]) or the
        /// block is a fresh accumulator.
        action: TileAction,
    },
}

/// The memory plan of one candidate operation set: per-tile actions
/// and the evictions they trigger, applied to (a clone of or the real)
/// scratchpad.
#[derive(Debug, Clone, Default)]
pub(crate) struct SetPlan {
    /// `(tile, bytes, action)` for every distinct tile, in plan order.
    pub tiles: Vec<(TileId, u64, TileAction)>,
    /// Evictions in the order they occurred.
    pub evictions: Vec<Eviction>,
    /// The precise event trace (evictions, compaction moves and
    /// placements interleaved in execution order).
    pub events: Vec<PlanEvent>,
    /// Sum over ops and their operands of pre-resident tile sizes
    /// (the paper's *reused data*, counted per operation reference).
    pub reused_bytes: u64,
    /// Bytes moved by on-chip compaction, when pinned residents
    /// fragmented the buffer so badly that spilling alone could not
    /// produce a sufficient hole.
    pub compaction_bytes: u64,
}

impl SetPlan {
    /// Empties the plan for reuse, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.tiles.clear();
        self.evictions.clear();
        self.events.clear();
        self.reused_bytes = 0;
        self.compaction_bytes = 0;
    }
}

/// Reusable buffers for candidate evaluation: one set of these lives
/// per scheduler run, so the inner candidate loop allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    pub(crate) plan: SetPlan,
    seen: Vec<TileId>,
    missing: Vec<(TileId, u64, TileAction)>,
}

/// Plans the memory operations of `ops` against `spm`, mutating it:
/// resident operands are pinned, missing tiles are allocated (evicting
/// victims chosen by `spill`), and every set operand ends up resident
/// and pinned. The caller unpins after issuing the set.
///
/// Missing tiles are placed largest-first, which minimizes the chance
/// that freshly pinned small tiles fragment the space a large tile
/// needs; if an allocation still fails, the buffer is compacted once
/// (cost reported in [`SetPlan::compaction_bytes`]) and retried.
///
/// `uses` holds every tile's remaining operand-reference count *before*
/// this set executes, indexed by [`Dfg::tile_slot`].
pub(crate) fn plan_set(
    dfg: &Dfg,
    spm: &mut SpmMemory,
    uses: &[u32],
    spill: &dyn SpillPolicy,
    ops: &[OpId],
) -> Result<SetPlan, AllocError> {
    let mut scratch = EvalScratch::default();
    plan_set_into(dfg, spm, uses, spill, ops, &mut scratch)?;
    Ok(std::mem::take(&mut scratch.plan))
}

/// [`plan_set`] writing into `scratch.plan` instead of allocating —
/// the hot-loop entry point of the transactional evaluation path.
pub(crate) fn plan_set_into(
    dfg: &Dfg,
    spm: &mut SpmMemory,
    uses: &[u32],
    spill: &dyn SpillPolicy,
    ops: &[OpId],
    scratch: &mut EvalScratch,
) -> Result<(), AllocError> {
    let plan = &mut scratch.plan;
    plan.clear();
    let seen = &mut scratch.seen;
    seen.clear();
    let missing = &mut scratch.missing;
    missing.clear();

    // Pin pass: protect everything the set touches that is already
    // on-chip, account per-reference reuse, and collect the missing
    // tiles in first-encounter order. A reference reuses data when the
    // tile was already resident *or* an earlier operation of the same
    // set brings it in — intra-set sharing is the spatial (inter-NPU)
    // reuse of the paper's Figure 11 and counts fully. `seen` stays
    // sorted so the first-reference check is a binary search rather
    // than a linear scan over every prior operand.
    for &id in ops {
        let op = dfg.op(id);
        for tile in op.operands() {
            let resident = spm.contains(tile);
            let seen_slot = seen.binary_search(&tile);
            let first_reference = seen_slot.is_err();
            if resident || !first_reference {
                plan.reused_bytes += dfg.tile_bytes(tile);
            }
            if resident {
                spm.pin(tile);
            }
            if let Err(slot) = seen_slot {
                seen.insert(slot, tile);
                let bytes = dfg.tile_bytes(tile);
                if resident {
                    plan.tiles.push((tile, bytes, TileAction::Reuse));
                } else {
                    let action = match tile {
                        // A fresh output that consumes no partial sum
                        // holds no data yet; everything else must be
                        // fetched.
                        TileId::Output { .. } if !op.needs_psum() => TileAction::AllocOutput,
                        _ => TileAction::Load,
                    };
                    missing.push((tile, bytes, action));
                }
            }
        }
    }

    // Allocation pass, largest tiles first (ties broken by tile id so
    // planning stays deterministic).
    missing.sort_by_key(|&(tile, bytes, _)| (std::cmp::Reverse(bytes), tile));
    for (tile, bytes, action) in missing.drain(..) {
        let remain = uses[dfg.tile_slot(tile)];
        let outcome = spm.allocate(tile, bytes, remain, spill)?;
        debug_assert_ne!(outcome.method, AllocMethod::AlreadyResident);
        // Compaction (if any) ran before the victims were evicted,
        // which in turn precede the placement.
        plan.events.extend(
            outcome
                .compaction_moves
                .iter()
                .copied()
                .map(PlanEvent::Move),
        );
        plan.events
            .extend(outcome.evictions.iter().copied().map(PlanEvent::Evict));
        plan.events.push(PlanEvent::Place {
            tile,
            bytes,
            address: outcome.address,
            action: action.clone(),
        });
        plan.evictions.extend(outcome.evictions);
        plan.compaction_bytes += outcome.compaction_bytes;
        spm.pin(tile);
        plan.tiles.push((tile, bytes, action));
    }
    Ok(())
}

/// Probes whether an operation set could be placed, returning the
/// underlying allocation error if not. Runs inside a checkpoint and
/// rolls back, so the memory is observably untouched.
pub(crate) fn plan_probe(
    dfg: &Dfg,
    spm: &mut SpmMemory,
    uses: &[u32],
    spill: &dyn SpillPolicy,
    ops: &[OpId],
) -> Result<(), AllocError> {
    let token = spm.checkpoint();
    let result = plan_set(dfg, spm, uses, spill, ops).map(|_| ());
    spm.rollback(token);
    result
}

/// The measurable consequences of issuing one candidate operation set,
/// used to rank sets (paper §4.3 and Figure 7's priority table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SetEvaluation {
    /// The operations of the set, in id order.
    pub ops: Vec<OpId>,
    /// `reused data - spilled data` (§4.3), where spilled data weighs
    /// each eviction by `min(cores, remaining uses)`.
    pub memory_benefit: i64,
    /// Scratchpad utilization after the set's allocations.
    pub utilization_after: f64,
    /// DMA cycles of the set's loads and dirty-eviction write-backs —
    /// the *memory overhead* column of Figure 7.
    pub mem_latency: u64,
    /// Bytes loaded from DRAM for the set.
    pub loaded_bytes: u64,
    /// Bytes of dirty evictions that must be written back.
    pub spill_writeback_bytes: u64,
    /// Total evicted bytes (dirty or clean).
    pub evicted_bytes: u64,
    /// The reuse-weighted spill cost used in the memory benefit.
    pub spilled_value: u64,
    /// Per-reference bytes of pre-resident data the set reuses.
    pub reused_bytes: u64,
}

impl SetEvaluation {
    /// Builds the evaluation of `ops` by planning it against a *clone*
    /// of `spm`; the real memory is untouched. Returns `None` when the
    /// set cannot be placed (infeasible under current pins/capacity).
    ///
    /// `uses` holds each tile's remaining operand references, indexed
    /// by [`Dfg::tile_slot`]; `dma_cycles` converts transfer bytes to
    /// DMA latency (from the architecture's performance model); `cores`
    /// bounds the reuse weight of spilled data (§4.3's `max ref
    /// count`).
    #[must_use]
    pub fn evaluate(
        dfg: &Dfg,
        spm: &SpmMemory,
        uses: &[u32],
        spill: &dyn SpillPolicy,
        cores: u32,
        dma_cycles: &dyn Fn(u64) -> u64,
        ops: &[OpId],
    ) -> Option<Self> {
        let mut scratch = spm.clone();
        let plan = plan_set(dfg, &mut scratch, uses, spill, ops).ok()?;
        Some(Self::from_plan(
            &plan,
            scratch.utilization(),
            cores,
            dma_cycles,
            ops,
        ))
    }

    /// As [`SetEvaluation::evaluate`], but plans against the *live*
    /// scratchpad inside a checkpoint and rolls back afterwards —
    /// `O(mutations)` per candidate instead of cloning the whole block
    /// map. Observable memory state is unchanged on return; the
    /// produced evaluation is bit-identical to the clone path's.
    ///
    /// `scratch` carries the reusable plan buffers; `stats` receives
    /// the rollback/clone-savings accounting.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn evaluate_transactional(
        dfg: &Dfg,
        spm: &mut SpmMemory,
        uses: &[u32],
        spill: &dyn SpillPolicy,
        cores: u32,
        dma_cycles: &dyn Fn(u64) -> u64,
        ops: &[OpId],
        scratch: &mut EvalScratch,
        stats: &mut SearchStats,
    ) -> Option<Self> {
        stats.clone_bytes_avoided += spm.footprint_bytes();
        let token = spm.checkpoint();
        let planned = plan_set_into(dfg, spm, uses, spill, ops, scratch);
        // Utilization must be read while the trial allocations are
        // still in place, before the rollback erases them.
        let eval = planned
            .ok()
            .map(|()| Self::from_plan(&scratch.plan, spm.utilization(), cores, dma_cycles, ops));
        stats.rollback_bytes += spm.rollback(token);
        eval
    }

    /// Derives the evaluation metrics from a completed plan and the
    /// post-plan scratchpad utilization.
    fn from_plan(
        plan: &SetPlan,
        utilization_after: f64,
        cores: u32,
        dma_cycles: &dyn Fn(u64) -> u64,
        ops: &[OpId],
    ) -> Self {
        // Saturating sums: a ranking value, not a timed quantity, so
        // adversarial DRAM latencies must not overflow here before the
        // timeline's checked arithmetic can report them.
        let mut loaded_bytes = 0;
        let mut mem_latency = 0u64;
        for (_, bytes, action) in &plan.tiles {
            if *action == TileAction::Load {
                loaded_bytes += bytes;
                mem_latency = mem_latency.saturating_add(dma_cycles(*bytes));
            }
        }
        let mut spill_writeback_bytes = 0;
        let mut evicted_bytes = 0;
        let mut spilled_value = 0;
        for ev in &plan.evictions {
            evicted_bytes += ev.bytes;
            if ev.dirty {
                spill_writeback_bytes += ev.bytes;
                mem_latency = mem_latency.saturating_add(dma_cycles(ev.bytes));
            }
            spilled_value += ev.bytes * u64::from(ev.remain_uses.min(cores));
        }
        if plan.compaction_bytes > 0 {
            mem_latency = mem_latency.saturating_add(dma_cycles(plan.compaction_bytes));
        }
        Self {
            ops: ops.to_vec(),
            memory_benefit: plan.reused_bytes as i64 - spilled_value as i64,
            utilization_after,
            mem_latency,
            loaded_bytes,
            spill_writeback_bytes,
            evicted_bytes,
            spilled_value,
            reused_bytes: plan.reused_bytes,
        }
    }
}

/// How candidate operation sets are ranked each scheduling step.
///
/// [`PriorityPolicy::FlexerDefault`] is the paper's §4.3 policy;
/// [`PriorityPolicy::MinTransfer`] and [`PriorityPolicy::MinSpill`]
/// are Table 2's Priority1/Priority2 ablations (Figure 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PriorityPolicy {
    /// Highest memory benefit, then highest utilization, then lowest
    /// memory-operation latency.
    #[default]
    FlexerDefault,
    /// Table 2 *Priority1*: the set causing the minimal amount of data
    /// movement (loads plus write-backs).
    MinTransfer,
    /// Table 2 *Priority2*: the set causing the lowest amount of
    /// spilled data.
    MinSpill,
}

impl PriorityPolicy {
    /// Compares two evaluations; `Ordering::Less` means `a` has the
    /// *higher* priority. Ties are broken by op-id order so ranking is
    /// total and deterministic.
    ///
    /// Utilization is compared at 1/32-of-capacity granularity:
    /// §4.3's third criterion (shorter memory operations) only matters
    /// if utilization can actually tie, and byte-exact comparison
    /// would make ties vanishingly rare.
    #[must_use]
    pub fn compare(&self, a: &SetEvaluation, b: &SetEvaluation) -> Ordering {
        let util_bucket = |u: f64| (u * 32.0).floor() as i64;
        let primary = match self {
            PriorityPolicy::FlexerDefault => b
                .memory_benefit
                .cmp(&a.memory_benefit)
                .then_with(|| {
                    util_bucket(b.utilization_after).cmp(&util_bucket(a.utilization_after))
                })
                .then_with(|| a.mem_latency.cmp(&b.mem_latency)),
            PriorityPolicy::MinTransfer => (a.loaded_bytes + a.spill_writeback_bytes)
                .cmp(&(b.loaded_bytes + b.spill_writeback_bytes))
                .then_with(|| a.mem_latency.cmp(&b.mem_latency)),
            PriorityPolicy::MinSpill => a
                .evicted_bytes
                .cmp(&b.evicted_bytes)
                .then_with(|| a.loaded_bytes.cmp(&b.loaded_bytes)),
        };
        primary.then_with(|| a.ops.cmp(&b.ops))
    }

    /// Selects the highest-priority evaluation, or `None` for an empty
    /// slice.
    #[must_use]
    pub fn select<'a>(&self, evals: &'a [SetEvaluation]) -> Option<&'a SetEvaluation> {
        evals.iter().min_by(|a, b| self.compare(a, b))
    }
}

impl fmt::Display for PriorityPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PriorityPolicy::FlexerDefault => "flexer-default",
            PriorityPolicy::MinTransfer => "min-transfer",
            PriorityPolicy::MinSpill => "min-spilling",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_arch::{ArchConfig, ArchPreset, PerfModel, SystolicModel};
    use flexer_model::ConvLayer;
    use flexer_spm::FlexerSpill;
    use flexer_tiling::{Dataflow, TilingFactors};

    fn fixture() -> (Dfg, SpmMemory, Vec<u32>, SystolicModel) {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let layer = ConvLayer::new("p", 16, 8, 8, 16).unwrap();
        let model = SystolicModel::new(&arch);
        let factors = TilingFactors::normalized(&layer, 2, 2, 2, 1);
        let dfg = Dfg::build(&layer, factors, Dataflow::Csk, &model, &arch).unwrap();
        let spm = SpmMemory::new(4096);
        let uses: Vec<u32> = dfg.tiles().map(|t| dfg.initial_uses(t)).collect();
        (dfg, spm, uses, model)
    }

    fn eval(
        dfg: &Dfg,
        spm: &SpmMemory,
        uses: &[u32],
        model: &SystolicModel,
        ops: &[OpId],
    ) -> Option<SetEvaluation> {
        SetEvaluation::evaluate(
            dfg,
            spm,
            uses,
            &FlexerSpill,
            2,
            &|b| model.dma_cycles(b),
            ops,
        )
    }

    #[test]
    fn cold_start_set_loads_everything() {
        let (dfg, spm, uses, model) = fixture();
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        // CSK: the first two ready ops share their input tile, which
        // counts as (intra-set, spatial) reuse; nothing else does.
        let e = eval(&dfg, &spm, &uses, &model, &ready[..2]).unwrap();
        let shared_input = dfg.tile_bytes(dfg.op(ready[0]).input());
        assert_eq!(e.reused_bytes, shared_input);
        assert_eq!(e.memory_benefit, shared_input as i64);
        assert!(e.loaded_bytes > 0);
        assert!(e.mem_latency > 0);
        assert!(e.evicted_bytes == 0);
        assert!(e.utilization_after > 0.0);
        // A single cold op shares nothing.
        let solo = eval(&dfg, &spm, &uses, &model, &ready[..1]).unwrap();
        assert_eq!(solo.reused_bytes, 0);
        assert_eq!(solo.memory_benefit, 0);
    }

    #[test]
    fn evaluation_does_not_mutate_memory() {
        let (dfg, spm, uses, model) = fixture();
        let before = spm.clone();
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let _ = eval(&dfg, &spm, &uses, &model, &ready[..2]);
        assert_eq!(spm, before);
    }

    #[test]
    fn resident_operands_raise_memory_benefit() {
        let (dfg, mut spm, uses, model) = fixture();
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let op = dfg.op(ready[0]);
        spm.allocate(op.input(), dfg.tile_bytes(op.input()), 2, &FlexerSpill)
            .unwrap();
        spm.allocate(op.weight(), dfg.tile_bytes(op.weight()), 1, &FlexerSpill)
            .unwrap();
        let warm = eval(&dfg, &spm, &uses, &model, &ready[..1]).unwrap();
        assert_eq!(
            warm.reused_bytes,
            dfg.tile_bytes(op.input()) + dfg.tile_bytes(op.weight())
        );
        assert!(warm.memory_benefit > 0);
        // The same set cold has no benefit.
        let cold = eval(&dfg, &SpmMemory::new(4096), &uses, &model, &ready[..1]).unwrap();
        assert!(warm.memory_benefit > cold.memory_benefit);
        assert!(warm.mem_latency < cold.mem_latency);
    }

    #[test]
    fn shared_tiles_are_loaded_once() {
        let (dfg, spm, uses, model) = fixture();
        // CSK order: the first two ready ops share the input tile
        // IN(0,0) (k=0 and k=1).
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let a = dfg.op(ready[0]);
        let b = dfg.op(ready[1]);
        assert_eq!(a.input(), b.input());
        let e = eval(&dfg, &spm, &uses, &model, &ready[..2]).unwrap();
        // loads: 1 shared input + 2 weights; outputs are fresh allocs.
        let expected =
            dfg.tile_bytes(a.input()) + dfg.tile_bytes(a.weight()) + dfg.tile_bytes(b.weight());
        assert_eq!(e.loaded_bytes, expected);
    }

    #[test]
    fn spilled_value_weighs_remaining_uses() {
        let (dfg, _, uses, model) = fixture();
        // Tiny memory: only one op's working set fits.
        let ws: u64 = {
            let op = dfg.op(dfg.initial_ready().next().unwrap());
            op.operands().map(|t| dfg.tile_bytes(t)).sum()
        };
        let mut spm = SpmMemory::new(ws);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        // Fill with the first op's tiles (hot: 5 remaining uses each).
        for t in dfg.op(ready[0]).operands() {
            spm.allocate(t, dfg.tile_bytes(t), 5, &FlexerSpill).unwrap();
        }
        // Evaluate an op sharing nothing: everything must be evicted.
        let other = ready
            .iter()
            .copied()
            .find(|&id| {
                let o = dfg.op(id);
                o.input() != dfg.op(ready[0]).input() && o.weight() != dfg.op(ready[0]).weight()
            })
            .unwrap();
        let e = eval(&dfg, &spm, &uses, &model, &[other]).unwrap();
        assert!(e.evicted_bytes > 0);
        // max ref count = min(cores=2, remain_uses=5) = 2.
        assert_eq!(e.spilled_value, e.evicted_bytes * 2);
        assert!(e.memory_benefit < 0);
    }

    #[test]
    fn infeasible_sets_evaluate_to_none() {
        let (dfg, _, uses, model) = fixture();
        let spm = SpmMemory::new(4); // absurdly small
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        assert!(eval(&dfg, &spm, &uses, &model, &ready[..1]).is_none());
    }

    #[test]
    fn default_policy_ranks_by_benefit_then_util_then_latency() {
        let base = SetEvaluation {
            ops: vec![OpId::new(0)],
            memory_benefit: 10,
            utilization_after: 0.5,
            mem_latency: 100,
            loaded_bytes: 0,
            spill_writeback_bytes: 0,
            evicted_bytes: 0,
            spilled_value: 0,
            reused_bytes: 0,
        };
        let better_benefit = SetEvaluation {
            memory_benefit: 20,
            ops: vec![OpId::new(1)],
            ..base.clone()
        };
        let better_util = SetEvaluation {
            utilization_after: 0.9,
            ops: vec![OpId::new(2)],
            ..base.clone()
        };
        let better_latency = SetEvaluation {
            mem_latency: 10,
            ops: vec![OpId::new(3)],
            ..base.clone()
        };
        let p = PriorityPolicy::FlexerDefault;
        assert_eq!(p.compare(&better_benefit, &base), Ordering::Less);
        assert_eq!(p.compare(&better_util, &base), Ordering::Less);
        assert_eq!(p.compare(&better_latency, &base), Ordering::Less);
        // Selection picks the benefit winner.
        let all = vec![base, better_latency, better_util, better_benefit.clone()];
        assert_eq!(p.select(&all).unwrap(), &better_benefit);
    }

    #[test]
    fn ablation_policies_use_their_own_keys() {
        let a = SetEvaluation {
            ops: vec![OpId::new(0)],
            memory_benefit: -5,
            utilization_after: 0.1,
            mem_latency: 500,
            loaded_bytes: 10,
            spill_writeback_bytes: 0,
            evicted_bytes: 90,
            spilled_value: 90,
            reused_bytes: 0,
        };
        let b = SetEvaluation {
            ops: vec![OpId::new(1)],
            memory_benefit: 50,
            utilization_after: 0.9,
            mem_latency: 5,
            loaded_bytes: 100,
            spill_writeback_bytes: 20,
            evicted_bytes: 10,
            spilled_value: 10,
            reused_bytes: 60,
        };
        // MinTransfer: a moves 10 bytes, b moves 120.
        assert_eq!(PriorityPolicy::MinTransfer.compare(&a, &b), Ordering::Less);
        // MinSpill: b evicts 10 < a's 90.
        assert_eq!(PriorityPolicy::MinSpill.compare(&b, &a), Ordering::Less);
        // Default: b's benefit wins.
        assert_eq!(
            PriorityPolicy::FlexerDefault.compare(&b, &a),
            Ordering::Less
        );
    }

    #[test]
    fn transactional_evaluation_matches_clone_path() {
        let (dfg, mut spm, uses, model) = fixture();
        // Warm the memory a little so reuse/eviction paths differ from
        // a cold start.
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let first = dfg.op(ready[0]);
        spm.allocate(
            first.input(),
            dfg.tile_bytes(first.input()),
            3,
            &FlexerSpill,
        )
        .unwrap();
        let mut scratch = EvalScratch::default();
        let mut stats = SearchStats::default();
        for width in 1..=2usize {
            let set = &ready[..width];
            let clone_based = eval(&dfg, &spm, &uses, &model, set);
            let before = spm.clone();
            let transactional = SetEvaluation::evaluate_transactional(
                &dfg,
                &mut spm,
                &uses,
                &FlexerSpill,
                2,
                &|b| model.dma_cycles(b),
                set,
                &mut scratch,
                &mut stats,
            );
            assert_eq!(clone_based, transactional);
            assert_eq!(spm, before, "rollback must restore the memory");
        }
        assert!(stats.rollback_bytes > 0);
        assert!(stats.clone_bytes_avoided > 0);
        assert!(!spm.in_transaction());
    }

    #[test]
    fn transactional_evaluation_handles_infeasible_sets() {
        let (dfg, _, uses, model) = fixture();
        let mut spm = SpmMemory::new(4); // absurdly small
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let mut scratch = EvalScratch::default();
        let mut stats = SearchStats::default();
        let e = SetEvaluation::evaluate_transactional(
            &dfg,
            &mut spm,
            &uses,
            &FlexerSpill,
            2,
            &|b| model.dma_cycles(b),
            &ready[..1],
            &mut scratch,
            &mut stats,
        );
        assert!(e.is_none());
        assert!(!spm.in_transaction());
        assert_eq!(spm, SpmMemory::new(4));
    }

    #[test]
    fn plan_probe_leaves_memory_untouched() {
        let (dfg, mut spm, uses, _) = fixture();
        let before = spm.clone();
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        plan_probe(&dfg, &mut spm, &uses, &FlexerSpill, &ready[..1]).unwrap();
        assert_eq!(spm, before);
        assert!(!spm.in_transaction());
    }

    #[test]
    fn tie_break_is_deterministic() {
        let a = SetEvaluation {
            ops: vec![OpId::new(0)],
            memory_benefit: 0,
            utilization_after: 0.5,
            mem_latency: 0,
            loaded_bytes: 0,
            spill_writeback_bytes: 0,
            evicted_bytes: 0,
            spilled_value: 0,
            reused_bytes: 0,
        };
        let b = SetEvaluation {
            ops: vec![OpId::new(1)],
            ..a.clone()
        };
        assert_eq!(
            PriorityPolicy::FlexerDefault.compare(&a, &b),
            Ordering::Less
        );
        assert_eq!(
            PriorityPolicy::FlexerDefault.compare(&b, &a),
            Ordering::Greater
        );
    }
}
