//! Spill-victim selection policies.

use crate::memory::SpmMemory;
use std::fmt;

/// Chooses which blocks to evict when an allocation needs more room
/// than any free block offers.
///
/// Implementations return the indices (into [`SpmMemory::blocks`]) of
/// the blocks to evict, or `None` when no feasible selection exists.
/// After evicting the returned blocks and coalescing, the memory must
/// contain a contiguous free region of at least `required` bytes —
/// [`SpmMemory::allocate`] relies on this postcondition.
///
/// The trait is object-safe; schedulers hold policies as
/// `&dyn SpillPolicy` so they can be swapped per experiment (paper
/// Table 2 / Figure 12).
pub trait SpillPolicy: fmt::Debug + Send + Sync {
    /// Selects victim blocks for a `required`-byte allocation.
    fn select_victims(&self, memory: &SpmMemory, required: u64) -> Option<Vec<usize>>;

    /// Short name used in experiment output.
    fn name(&self) -> &'static str;
}

/// The paper's Algorithm 2: scan every contiguous candidate run of
/// blocks and keep the one that (1) causes the least fragmentation,
/// (2) on ties destroys the least remaining reuse
/// (`sum(size x remain_uses)`), and (3) on further ties spills the
/// fewest blocks.
///
/// Runs may include free blocks (they contribute space at zero
/// disadvantage) but never pinned blocks. For each start position only
/// the minimal-length feasible run is considered, exactly like the
/// `break` in Algorithm 2 line 33.
///
/// # Examples
///
/// ```
/// use flexer_spm::{FlexerSpill, SpillPolicy, SpmMemory};
/// use flexer_tiling::TileId;
///
/// let mut spm = SpmMemory::new(128);
/// spm.allocate(TileId::Input { c: 0, s: 0 }, 64, 5, &FlexerSpill)?;
/// spm.allocate(TileId::Input { c: 1, s: 0 }, 64, 0, &FlexerSpill)?;
/// // Both single-block runs fit with zero fragmentation; the dead
/// // tile (remain_uses = 0) has the lower disadvantage.
/// let victims = FlexerSpill.select_victims(&spm, 64).unwrap();
/// assert_eq!(victims, vec![1]);
/// # Ok::<(), flexer_spm::AllocError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlexerSpill;

impl SpillPolicy for FlexerSpill {
    fn select_victims(&self, memory: &SpmMemory, required: u64) -> Option<Vec<usize>> {
        let blocks = memory.blocks();
        // The best run so far as a block range: its victims (the
        // allocated blocks in it) are collected once, at the end.
        let mut best: Option<(usize, usize)> = None;
        let mut min_frag = u64::MAX;
        let mut min_disadv = u64::MAX;
        let mut min_len = usize::MAX;

        for start in 0..blocks.len() {
            let mut len = 0usize;
            let mut run_size = 0u64;
            let mut disadv = 0u64;
            for (offset, block) in blocks[start..].iter().enumerate() {
                if !block.is_spillable() {
                    break;
                }
                run_size += block.size();
                disadv += block.disadvantage();
                if !block.is_free() {
                    len += 1;
                }
                if run_size >= required {
                    let frag = run_size - required;
                    let better = frag < min_frag
                        || (frag == min_frag && disadv < min_disadv)
                        || (frag == min_frag && disadv == min_disadv && len < min_len);
                    if better {
                        min_frag = frag;
                        min_disadv = disadv;
                        min_len = len;
                        best = Some((start, start + offset));
                    }
                    // Minimal-length run for this start found; longer
                    // runs from here only add fragmentation/disadvantage.
                    break;
                }
            }
        }
        best.map(|(start, end)| (start..=end).filter(|&i| !blocks[i].is_free()).collect())
    }

    fn name(&self) -> &'static str {
        "flexer"
    }
}

/// Table 2's *MemPolicy1*: first-fit spilling — traverse the memory in
/// address order and spill the first spillable block (or, failing
/// that, the first contiguous run) large enough to hold the requested
/// data. The paper shows this policy fragments the buffer (Figure
/// 5 (c)-1) and degrades performance (Figure 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstFitSpill;

impl SpillPolicy for FirstFitSpill {
    fn select_victims(&self, memory: &SpmMemory, required: u64) -> Option<Vec<usize>> {
        let blocks = memory.blocks();
        // The literal policy: the first single allocated block that is
        // big enough.
        for (i, block) in blocks.iter().enumerate() {
            if !block.is_free() && block.is_spillable() && block.size() >= required {
                return Some(vec![i]);
            }
        }
        // Fallback so the policy stays live when tiles are smaller than
        // the request: the first contiguous spillable run that fits.
        for start in 0..blocks.len() {
            let mut run = Vec::new();
            let mut run_size = 0u64;
            for (offset, block) in blocks[start..].iter().enumerate() {
                if !block.is_spillable() {
                    break;
                }
                run_size += block.size();
                if !block.is_free() {
                    run.push(start + offset);
                }
                if run_size >= required {
                    return Some(run);
                }
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "first-fit"
    }
}

/// Table 2's *MemPolicy2*: small-first spilling — repeatedly spill the
/// smallest spillable data block until a sufficient contiguous free
/// region exists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmallestFirstSpill;

impl SpillPolicy for SmallestFirstSpill {
    fn select_victims(&self, memory: &SpmMemory, required: u64) -> Option<Vec<usize>> {
        let blocks = memory.blocks();
        // Simulated free-state of each block while we pick victims.
        let mut free: Vec<bool> = blocks.iter().map(|b| b.is_free()).collect();
        let mut victims = Vec::new();

        let feasible = |free: &[bool]| {
            let mut run = 0u64;
            for (i, b) in blocks.iter().enumerate() {
                if free[i] {
                    run += b.size();
                    if run >= required {
                        return true;
                    }
                } else {
                    run = 0;
                }
            }
            false
        };

        while !feasible(&free) {
            let smallest = blocks
                .iter()
                .enumerate()
                .filter(|(i, b)| !free[*i] && b.is_spillable())
                .min_by_key(|(i, b)| (b.size(), *i))
                .map(|(i, _)| i)?;
            free[smallest] = true;
            victims.push(smallest);
        }
        Some(victims)
    }

    fn name(&self) -> &'static str {
        "small-first"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_tiling::TileId;

    fn t(n: u32) -> TileId {
        TileId::Weight { k: n, c: 0 }
    }

    /// Builds a scratchpad with the given `(size, remain_uses)` tiles
    /// allocated in address order.
    fn spm_with(capacity: u64, tiles: &[(u64, u32)]) -> SpmMemory {
        let mut spm = SpmMemory::new(capacity);
        for (i, &(size, uses)) in tiles.iter().enumerate() {
            spm.allocate(t(i as u32), size, uses, &FlexerSpill).unwrap();
        }
        spm
    }

    #[test]
    fn flexer_minimizes_fragmentation_first() {
        // Blocks: 100 (1 use), 40 (0 uses). Request 100: the exact-fit
        // 100er wins over the 40er (which alone is infeasible anyway)
        // despite its higher disadvantage.
        let spm = spm_with(140, &[(100, 1), (40, 0)]);
        let v = FlexerSpill.select_victims(&spm, 100).unwrap();
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn flexer_breaks_frag_ties_by_reuse() {
        // Two 64-byte blocks; the second is dead. Equal fragmentation,
        // so the dead one is spilled.
        let spm = spm_with(128, &[(64, 3), (64, 0)]);
        let v = FlexerSpill.select_victims(&spm, 64).unwrap();
        assert_eq!(v, vec![1]);
    }

    #[test]
    fn flexer_breaks_remaining_ties_by_block_count() {
        // Request 60 from [30 (1use), 30 (1use), 60 (1use)]... runs:
        // {0,1} frag 0 disadv 60 len 2; {2} frag 0 disadv 60 len 1.
        let spm = spm_with(120, &[(30, 1), (30, 1), (60, 1)]);
        let v = FlexerSpill.select_victims(&spm, 60).unwrap();
        assert_eq!(v, vec![2]);
    }

    #[test]
    fn flexer_uses_free_space_in_runs() {
        // [64 alloc (2 uses), 64 free, 64 alloc (2 uses), 64 alloc (2 uses)]
        // Request 128: run {0 + free} has disadv 128, run {2,3} has 256.
        let mut spm = spm_with(256, &[(64, 2), (64, 2), (64, 2), (64, 2)]);
        spm.evict(t(1));
        let v = FlexerSpill.select_victims(&spm, 128).unwrap();
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn flexer_skips_pinned_runs() {
        let mut spm = spm_with(192, &[(64, 1), (64, 1), (64, 5)]);
        spm.pin(t(0));
        spm.pin(t(1));
        let v = FlexerSpill.select_victims(&spm, 64).unwrap();
        assert_eq!(v, vec![2]);
        spm.pin(t(2));
        assert!(FlexerSpill.select_victims(&spm, 64).is_none());
    }

    /// [`FlexerSpill::select_victims`] as first written: it clones the
    /// candidate run on every improvement.
    fn flexer_select_victims_reference(memory: &SpmMemory, required: u64) -> Option<Vec<usize>> {
        let blocks = memory.blocks();
        let mut best: Option<Vec<usize>> = None;
        let mut min_frag = u64::MAX;
        let mut min_disadv = u64::MAX;
        let mut min_len = usize::MAX;

        for start in 0..blocks.len() {
            let mut run = Vec::new();
            let mut run_size = 0u64;
            let mut disadv = 0u64;
            for (offset, block) in blocks[start..].iter().enumerate() {
                if !block.is_spillable() {
                    break;
                }
                let index = start + offset;
                run_size += block.size();
                disadv += block.disadvantage();
                if !block.is_free() {
                    run.push(index);
                }
                if run_size >= required {
                    let frag = run_size - required;
                    let len = run.len();
                    let better = frag < min_frag
                        || (frag == min_frag && disadv < min_disadv)
                        || (frag == min_frag && disadv == min_disadv && len < min_len);
                    if better {
                        min_frag = frag;
                        min_disadv = disadv;
                        min_len = len;
                        best = Some(run.clone());
                    }
                    break;
                }
            }
        }
        best
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn flexer_picks_the_reference_victims(
            tiles in proptest::collection::vec(
                // (size, remain_uses, fate): fate 0 frees the block,
                // 1 pins it, anything else leaves it allocated. Few
                // distinct sizes make ties between runs common.
                (
                    proptest::sample::select(vec![16u64, 32, 48, 64, 96]),
                    0u32..4,
                    0u8..5,
                ),
                1..24,
            ),
            requests in proptest::collection::vec(
                proptest::sample::select(vec![1u64, 16, 24, 32, 64, 100, 128, 200, 400]),
                1..8,
            ),
        ) {
            let capacity = tiles.iter().map(|&(size, _, _)| size).sum();
            let mut spm = spm_with(
                capacity,
                &tiles.iter().map(|&(size, uses, _)| (size, uses)).collect::<Vec<_>>(),
            );
            for (i, &(_, _, fate)) in tiles.iter().enumerate() {
                match fate {
                    0 => {
                        spm.evict(t(i as u32));
                    }
                    1 => {
                        spm.pin(t(i as u32));
                    }
                    _ => {}
                }
            }
            for required in requests {
                proptest::prop_assert_eq!(
                    FlexerSpill.select_victims(&spm, required),
                    flexer_select_victims_reference(&spm, required),
                    "required {}",
                    required
                );
            }
        }
    }

    #[test]
    fn first_fit_takes_first_big_enough_block() {
        // [32, 100, 100]: request 64 -> first big-enough is index 1,
        // even though index 2 would be identical — first fit does not
        // look further.
        let spm = spm_with(232, &[(32, 1), (100, 1), (100, 1)]);
        let v = FirstFitSpill.select_victims(&spm, 64).unwrap();
        assert_eq!(v, vec![1]);
    }

    #[test]
    fn first_fit_falls_back_to_runs() {
        let spm = spm_with(96, &[(32, 1), (32, 1), (32, 1)]);
        let v = FirstFitSpill.select_victims(&spm, 64).unwrap();
        assert_eq!(v, vec![0, 1]);
    }

    #[test]
    fn first_fit_ignores_reuse_counts() {
        // Unlike FlexerSpill, first-fit spills a hot block when it
        // comes first.
        let spm = spm_with(128, &[(64, 9), (64, 0)]);
        let v = FirstFitSpill.select_victims(&spm, 64).unwrap();
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn smallest_first_picks_small_victims() {
        // [16, 16, 96]: request 32 -> spilling the two 16s creates a
        // 32-byte contiguous hole (they are adjacent).
        let spm = spm_with(128, &[(16, 1), (16, 1), (96, 1)]);
        let v = SmallestFirstSpill.select_victims(&spm, 32).unwrap();
        assert_eq!(v, vec![0, 1]);
    }

    #[test]
    fn smallest_first_keeps_spilling_until_contiguous() {
        // [16, 96, 16]: the two 16s are NOT adjacent; after spilling
        // both, no 32-byte hole exists, so the 96er goes too.
        let spm = spm_with(128, &[(16, 1), (96, 1), (16, 1)]);
        let v = SmallestFirstSpill.select_victims(&spm, 32).unwrap();
        assert_eq!(v, vec![0, 2, 1]);
    }

    #[test]
    fn smallest_first_respects_pins() {
        let mut spm = spm_with(128, &[(64, 1), (64, 1)]);
        spm.pin(t(0));
        spm.pin(t(1));
        assert!(SmallestFirstSpill.select_victims(&spm, 64).is_none());
    }

    #[test]
    fn policies_satisfy_allocate_postcondition() {
        for policy in [
            &FlexerSpill as &dyn SpillPolicy,
            &FirstFitSpill,
            &SmallestFirstSpill,
        ] {
            let mut spm = spm_with(256, &[(64, 1), (32, 2), (96, 1), (64, 3)]);
            let outcome = spm.allocate(t(99), 120, 1, policy).unwrap();
            assert_eq!(outcome.method, crate::AllocMethod::AfterSpill, "{policy:?}");
            assert!(spm.contains(t(99)));
            spm.assert_invariants();
        }
    }

    #[test]
    fn policy_names() {
        assert_eq!(FlexerSpill.name(), "flexer");
        assert_eq!(FirstFitSpill.name(), "first-fit");
        assert_eq!(SmallestFirstSpill.name(), "small-first");
    }
}
