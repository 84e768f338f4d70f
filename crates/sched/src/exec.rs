//! Shared execution state: committing operation sets to the memory,
//! the timeline and the schedule record.
//!
//! Both the out-of-order scheduler and the static loop-order baseline
//! issue *operation sets* against the same machinery, so the
//! comparison between them is apples-to-apples (DESIGN.md §5).

use crate::error::SchedError;
use crate::priority::{plan_set_into, EvalScratch, PlanEvent, TileAction};
use crate::program::{Command, Program};
use crate::stats::SearchStats;
use flexer_arch::{ArchConfig, PerfModel};
use flexer_sim::{MemOpKind, Schedule, ScheduleBuilder, TrafficClass};
use flexer_spm::{SpillPolicy, SpmMemory};
use flexer_tiling::{Dfg, OpId, TileId, TileKind};
use flexer_trace::{Lane, TraceDetail};

/// Mutable state of one scheduling run.
pub(crate) struct ExecState<'a> {
    dfg: &'a Dfg,
    perf: &'a dyn PerfModel,
    spill: &'a dyn SpillPolicy,
    cores: u32,
    spm: SpmMemory,
    // Per-tile state below is indexed by `Dfg::tile_slot`.
    /// Remaining operand references per tile (before unscheduled ops).
    uses: Vec<u32>,
    /// End cycle of every scheduled op.
    op_end: Vec<u64>,
    /// Cycle at which a tile's current on-chip copy is valid (0 when
    /// it is not on-chip).
    tile_ready: Vec<u64>,
    /// Last cycle at which a tile is read or written by a scheduled op.
    tile_busy: Vec<u64>,
    builder: ScheduleBuilder,
    scheduled: Vec<bool>,
    remaining: usize,
    /// Compute cycles of the unscheduled ops.
    compute_left: u64,
    /// DMA cycles and DRAM bytes of the compulsory transfers not yet
    /// issued: each input and weight tile's first load and each output
    /// tile's final store.
    compulsory_dma_left: u64,
    compulsory_bytes_left: u64,
    /// DMA cycles and DRAM bytes of the owed reloads: tiles evicted
    /// while operations still use them, not yet loaded again.
    owed_dma: u64,
    owed_bytes: u64,
    commands: Vec<Command>,
    stats: SearchStats,
}

impl<'a> ExecState<'a> {
    pub(crate) fn new(
        dfg: &'a Dfg,
        arch: &'a ArchConfig,
        perf: &'a dyn PerfModel,
        spill: &'a dyn SpillPolicy,
    ) -> Self {
        // `tiles()` runs in slot order.
        let uses: Vec<u32> = dfg.tiles().map(|t| dfg.initial_uses(t)).collect();
        // Saturating: an adversarial DRAM latency must surface as the
        // timeline's typed overflow error, not as a panic here.
        let (mut compulsory_dma_left, mut compulsory_bytes_left) = (0u64, 0u64);
        for (tile, _) in dfg.tiles().zip(&uses).filter(|(_, &n)| n > 0) {
            let (cycles, dram) = compulsory_transfer(dfg, perf, tile);
            compulsory_dma_left = compulsory_dma_left.saturating_add(cycles);
            compulsory_bytes_left = compulsory_bytes_left.saturating_add(dram);
        }
        Self {
            dfg,
            perf,
            spill,
            cores: arch.cores(),
            spm: SpmMemory::new(arch.spm_bytes()),
            uses,
            op_end: vec![0; dfg.num_ops()],
            tile_ready: vec![0; dfg.num_tiles()],
            tile_busy: vec![0; dfg.num_tiles()],
            builder: ScheduleBuilder::new(arch.cores()),
            scheduled: vec![false; dfg.num_ops()],
            remaining: dfg.num_ops(),
            compute_left: dfg
                .ops()
                .iter()
                .fold(0, |sum, op| sum.saturating_add(op.latency())),
            compulsory_dma_left,
            compulsory_bytes_left,
            owed_dma: 0,
            owed_bytes: 0,
            commands: Vec::new(),
            stats: SearchStats::default(),
        }
    }

    pub(crate) fn spm(&self) -> &SpmMemory {
        &self.spm
    }

    /// Remaining operand references, indexed by [`Dfg::tile_slot`].
    pub(crate) fn uses(&self) -> &[u32] {
        &self.uses
    }

    /// Splits the borrow so the transactional evaluator can mutate the
    /// scratchpad while reading the use counts.
    pub(crate) fn spm_and_uses(&mut self) -> (&mut SpmMemory, &[u32]) {
        (&mut self.spm, &self.uses)
    }

    /// Counters accumulated by committed sets (evictions, compactions).
    pub(crate) fn stats(&self) -> &SearchStats {
        &self.stats
    }

    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// `(latency, transfer_bytes)` of the committed partial schedule.
    pub(crate) fn committed_cost(&self) -> (u64, u64) {
        (
            self.builder.timeline().horizon(),
            self.builder.transfer_bytes(),
        )
    }

    /// An admissible cost-to-go bound: a `(latency, transfer_bytes)`
    /// pair that no completion of the partial schedule can beat in
    /// either component — the basis of the branch-and-bound early exit.
    ///
    /// * Latency is at least the current horizon; at least the DMA
    ///   channel's free cycle plus the cycles of every compulsory
    ///   transfer not yet issued and every owed reload (the channel is
    ///   serial and appends); and at least the cores' summed free
    ///   cycles plus the remaining compute, spread evenly over the
    ///   cores (compute appends per core too).
    /// * Transfer is the bytes already moved plus the compulsory bytes
    ///   not yet moved and the owed reloads' bytes.
    ///
    /// A tile evicted while operations still use it owes a reload: each
    /// of those operations needs it on-chip, so it is loaded again
    /// before the next of them runs. After the last commit nothing
    /// remains or is owed, and the bound equals the finished schedule's
    /// cost. Arithmetic saturates.
    pub(crate) fn running_cost(&self) -> (u64, u64) {
        let (horizon, moved) = self.committed_cost();
        let timeline = self.builder.timeline();
        let dma = timeline
            .dma_free()
            .saturating_add(self.compulsory_dma_left)
            .saturating_add(self.owed_dma);
        let compute = (0..self.cores)
            .fold(self.compute_left, |sum, c| {
                sum.saturating_add(timeline.core_free(c))
            })
            .div_ceil(u64::from(self.cores));
        (
            horizon.max(dma).max(compute),
            moved
                .saturating_add(self.compulsory_bytes_left)
                .saturating_add(self.owed_bytes),
        )
    }

    /// Reference: the cost-to-go bound before the owed-reload term.
    #[cfg(test)]
    pub(crate) fn running_cost_without_owed_reloads(&self) -> (u64, u64) {
        let (horizon, moved) = self.committed_cost();
        let timeline = self.builder.timeline();
        let dma = timeline.dma_free().saturating_add(self.compulsory_dma_left);
        let compute = (0..self.cores)
            .fold(self.compute_left, |sum, c| {
                sum.saturating_add(timeline.core_free(c))
            })
            .div_ceil(u64::from(self.cores));
        (
            horizon.max(dma).max(compute),
            moved.saturating_add(self.compulsory_bytes_left),
        )
    }

    /// Commits one operation set: plans and pins its memory, records
    /// spills, loads, compute and final stores, updates use counts and
    /// returns the ids newly woken up (paper Algorithm 1 lines 21-24).
    /// The plan is built in `scratch`, the run's evaluation buffers.
    ///
    /// At [`TraceDetail::Memory`] the commit is recorded into `lane` as
    /// a `commit` span carrying the plan's eviction / compaction / load
    /// shape, followed by an SPM-occupancy gauge sample.
    pub(crate) fn commit_set(
        &mut self,
        ops: &[OpId],
        scratch: &mut EvalScratch,
        lane: &mut Lane,
    ) -> Result<Vec<OpId>, SchedError> {
        debug_assert!(!ops.is_empty() && ops.len() <= self.cores as usize);
        debug_assert!(ops.windows(2).all(|w| w[0] < w[1]));
        let commit_span = lane
            .records(TraceDetail::Memory)
            .then(|| lane.enter("commit"));
        let plan = match plan_set_into(
            self.dfg,
            &mut self.spm,
            &self.uses,
            self.spill,
            ops,
            scratch,
        ) {
            Ok(()) => &scratch.plan,
            Err(e) => {
                if let Some(guard) = commit_span {
                    lane.attr("outcome", "plan-failed");
                    lane.exit(guard);
                }
                return Err(SchedError::from(e));
            }
        };
        if commit_span.is_some() {
            lane.attr("ops", ops.len());
            lane.attr("evictions", plan.evictions.len());
            lane.attr(
                "dirty_evictions",
                plan.evictions.iter().filter(|ev| ev.dirty).count(),
            );
            lane.attr("compaction_bytes", plan.compaction_bytes);
            lane.attr(
                "loads",
                plan.tiles
                    .iter()
                    .filter(|(_, _, a)| *a == TileAction::Load)
                    .count(),
            );
        }
        self.stats.evictions += plan.evictions.len() as u64;
        if plan.compaction_bytes > 0 {
            self.stats.compactions += 1;
        }

        // The remaining work has several fallible timeline recordings;
        // running it in a closure lets the one exit path below close
        // the commit span whatever happens.
        let result = (|| -> Result<Vec<OpId>, SchedError> {
            // On-chip compaction keeps the DMA engine busy but moves no
            // off-chip data.
            if plan.compaction_bytes > 0 {
                self.builder.record_compaction(
                    plan.compaction_bytes,
                    self.perf.dma_cycles(plan.compaction_bytes),
                )?;
            }

            // Lower the plan's event trace into buffer commands, in the
            // exact order the allocator performed them.
            for event in &plan.events {
                self.commands.push(match *event {
                    PlanEvent::Move(m) => Command::Move {
                        tile: m.tile,
                        bytes: m.bytes,
                        from: m.from,
                        to: m.to,
                    },
                    PlanEvent::Evict(ev) if ev.dirty => Command::Spill {
                        tile: ev.tile,
                        address: ev.address,
                        bytes: ev.bytes,
                    },
                    PlanEvent::Evict(ev) => Command::Discard {
                        tile: ev.tile,
                        address: ev.address,
                        bytes: ev.bytes,
                    },
                    PlanEvent::Place {
                        tile,
                        bytes,
                        address,
                        ref action,
                    } => match action {
                        TileAction::AllocOutput => Command::Reserve {
                            tile,
                            address,
                            bytes,
                        },
                        _ if self.dfg.residency().input_resident
                            && tile.kind() == TileKind::Input =>
                        {
                            Command::GatherIn {
                                tile,
                                address,
                                bytes,
                            }
                        }
                        _ => Command::Load {
                            tile,
                            address,
                            bytes,
                        },
                    },
                });
            }

            // Spill write-backs for dirty evictions. Clean evictions cost
            // nothing (their data is still in DRAM).
            for ev in &plan.evictions {
                let slot = self.dfg.tile_slot(ev.tile);
                self.tile_ready[slot] = 0;
                if self.uses[slot] > 0 {
                    let (cycles, dram) = reload_transfer(self.dfg, self.perf, ev.tile);
                    self.owed_dma = self.owed_dma.saturating_add(cycles);
                    self.owed_bytes = self.owed_bytes.saturating_add(dram);
                }
                if ev.dirty {
                    debug_assert_eq!(ev.tile.kind(), TileKind::Output);
                    let earliest = self.tile_busy[slot];
                    self.builder.record_mem_op_after(
                        MemOpKind::Spill,
                        TrafficClass::Psum,
                        ev.tile,
                        ev.bytes,
                        self.perf.dma_cycles(ev.bytes),
                        earliest,
                        None,
                    )?;
                }
            }

            // Loads for missing inputs, weights and spilled partial sums.
            for (tile, bytes, action) in &plan.tiles {
                let slot = self.dfg.tile_slot(*tile);
                if *action != TileAction::Load {
                    if *action == TileAction::AllocOutput {
                        // Fresh accumulator: available immediately.
                        self.tile_ready[slot] = 0;
                    }
                    continue;
                }
                // A loaded tile is read by an op of this set, so a tile
                // no op has read yet loads for the first time: its
                // compulsory transfer. Any other load (a psum always)
                // reloads a tile evicted with uses left: an owed reload.
                if tile.kind() != TileKind::Output
                    && self.uses[slot] == self.dfg.initial_uses(*tile)
                {
                    self.issue_compulsory(*tile);
                } else {
                    let (cycles, dram) = reload_transfer(self.dfg, self.perf, *tile);
                    self.owed_dma = self.owed_dma.saturating_sub(cycles);
                    self.owed_bytes = self.owed_bytes.saturating_sub(dram);
                }
                let class = match tile.kind() {
                    TileKind::Input => TrafficClass::Input,
                    TileKind::Weight => TrafficClass::Weight,
                    TileKind::Output => TrafficClass::Psum,
                };
                // The tag names one representative consumer for
                // diagnostics; a tile shared by several ops of the set
                // has a single load. The validator checks every consumer
                // of the tile (`validate_schedule` check 5b), not just
                // the tagged one.
                let for_op = ops
                    .iter()
                    .copied()
                    .find(|&id| self.dfg.op(id).operands().any(|t| t == *tile));
                // A resident input tensor is gathered on-chip: the DMA
                // engine is busy for the same span but no DRAM bytes
                // move. Psum reloads of spilled accumulators still
                // round-trip through DRAM.
                let resident_gather =
                    self.dfg.residency().input_resident && tile.kind() == TileKind::Input;
                let (_, end) = if resident_gather {
                    self.builder.record_resident_mem_op_after(
                        MemOpKind::Load,
                        class,
                        *tile,
                        *bytes,
                        self.perf.dma_cycles(*bytes),
                        0,
                        for_op,
                    )?
                } else {
                    self.builder.record_mem_op(
                        MemOpKind::Load,
                        class,
                        *tile,
                        *bytes,
                        self.perf.dma_cycles(*bytes),
                        for_op,
                    )?
                };
                self.tile_ready[slot] = end;
            }

            // Spatial reuse: tiles consumed by several ops of this set
            // (paper Figure 11). The plan lists each distinct tile once.
            for &(tile, bytes, _) in &plan.tiles {
                let sharers = ops
                    .iter()
                    .filter(|&&id| self.dfg.op(id).operands().any(|t| t == tile))
                    .count() as u32;
                if sharers >= 2 {
                    self.builder.record_shared_tile(tile.kind(), bytes, sharers);
                }
            }

            // Issue the compute operations on distinct cores, earliest-free
            // cores first.
            let mut free_cores: Vec<u32> = (0..self.cores).collect();
            free_cores.sort_by_key(|&c| (self.builder.timeline().core_free(c), c));
            let mut woken = Vec::new();
            for (&id, &core) in ops.iter().zip(free_cores.iter()) {
                let op = self.dfg.op(id);
                let mut earliest = 0u64;
                for tile in op.operands() {
                    earliest = earliest.max(self.tile_ready[self.dfg.tile_slot(tile)]);
                }
                if let Some(pred) = self.dfg.pred(id) {
                    debug_assert!(self.scheduled[pred.index()]);
                    earliest = earliest.max(self.op_end[pred.index()]);
                }
                let (_, end) = self
                    .builder
                    .record_compute(id, core, earliest, op.latency())?;
                self.commands.push(Command::Exec {
                    op: id,
                    core,
                    input: self.spm.address_of(op.input()).expect("input resident"),
                    weight: self.spm.address_of(op.weight()).expect("weight resident"),
                    output: self.spm.address_of(op.output()).expect("output resident"),
                    accumulate: op.needs_psum(),
                });
                self.op_end[id.index()] = end;
                for tile in op.operands() {
                    let slot = self.dfg.tile_slot(tile);
                    self.tile_busy[slot] = self.tile_busy[slot].max(end);
                }
                // The op (re)writes its accumulator.
                self.tile_ready[self.dfg.tile_slot(op.output())] = end;
                self.spm.set_dirty(op.output(), true);

                // Bookkeeping: use counts and wakeup.
                for tile in op.operands() {
                    let u = &mut self.uses[self.dfg.tile_slot(tile)];
                    *u = u.saturating_sub(1);
                    self.spm.decrement_uses(tile);
                }
                self.scheduled[id.index()] = true;
                self.remaining -= 1;
                self.compute_left = self.compute_left.saturating_sub(op.latency());
                if let Some(succ) = self.dfg.succ(id) {
                    woken.push(succ);
                }

                // Mandatory eager store of finished outputs. A resident
                // output tensor is scattered into the reserved SPM
                // region instead — same DMA occupancy, zero DRAM bytes.
                if op.is_final() {
                    self.issue_compulsory(op.output());
                    let bytes = self.dfg.tile_bytes(op.output());
                    let address = self.spm.address_of(op.output()).expect("output resident");
                    if self.dfg.residency().output_resident {
                        self.builder.record_resident_mem_op_after(
                            MemOpKind::Store,
                            TrafficClass::Output,
                            op.output(),
                            bytes,
                            self.perf.dma_cycles(bytes),
                            end,
                            None,
                        )?;
                        self.commands.push(Command::ScatterOut {
                            tile: op.output(),
                            address,
                            bytes,
                        });
                    } else {
                        self.builder.record_mem_op_after(
                            MemOpKind::Store,
                            TrafficClass::Output,
                            op.output(),
                            bytes,
                            self.perf.dma_cycles(bytes),
                            end,
                            None,
                        )?;
                        self.commands.push(Command::Store {
                            tile: op.output(),
                            address,
                            bytes,
                        });
                    }
                    self.spm.set_dirty(op.output(), false);
                }
            }

            self.spm.unpin_all();
            self.builder.record_spm_utilization(self.spm.utilization());
            Ok(woken)
        })();
        if let Some(guard) = commit_span {
            if result.is_err() {
                lane.attr("outcome", "timeline-failed");
            }
            lane.exit(guard);
            lane.counter("spm_used_bytes", self.spm.used_bytes());
        }
        result
    }

    /// Takes `tile`'s compulsory transfer off the cost-to-go.
    fn issue_compulsory(&mut self, tile: TileId) {
        let (cycles, dram) = compulsory_transfer(self.dfg, self.perf, tile);
        self.compulsory_dma_left = self.compulsory_dma_left.saturating_sub(cycles);
        self.compulsory_bytes_left = self.compulsory_bytes_left.saturating_sub(dram);
    }

    /// Finalizes the schedule and its lowered command program.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if operations remain unscheduled.
    pub(crate) fn finish(self) -> (Schedule, Program) {
        debug_assert_eq!(self.remaining, 0, "unscheduled operations remain");
        debug_assert_eq!(self.running_cost(), self.committed_cost());
        let program = Program::new(self.spm.capacity(), self.cores, self.commands);
        (self.builder.finish(), program)
    }
}

/// DMA cycles and DRAM bytes of `tile`'s compulsory transfer: an input
/// or weight tile's first load, an output tile's final store. A
/// resident tensor's transfer occupies the DMA channel but moves no
/// DRAM bytes.
fn compulsory_transfer(dfg: &Dfg, perf: &dyn PerfModel, tile: TileId) -> (u64, u64) {
    let bytes = dfg.tile_bytes(tile);
    let resident = match tile.kind() {
        TileKind::Input => dfg.residency().input_resident,
        TileKind::Weight => false,
        TileKind::Output => dfg.residency().output_resident,
    };
    (perf.dma_cycles(bytes), if resident { 0 } else { bytes })
}

/// DMA cycles and DRAM bytes of reloading an evicted `tile`. A
/// resident input is gathered on-chip and moves no DRAM bytes; a psum
/// reload round-trips through DRAM even for a resident output.
fn reload_transfer(dfg: &Dfg, perf: &dyn PerfModel, tile: TileId) -> (u64, u64) {
    let bytes = dfg.tile_bytes(tile);
    let gathered = tile.kind() == TileKind::Input && dfg.residency().input_resident;
    (perf.dma_cycles(bytes), if gathered { 0 } else { bytes })
}
