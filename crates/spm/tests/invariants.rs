//! Property-based tests of the scratchpad block map.
//!
//! Random operation sequences must preserve the structural invariants
//! (full coverage, no gaps/overlaps, coalesced frees, unique tiles)
//! and the allocation postconditions.

use flexer_spm::{
    AllocError, AllocMethod, FirstFitSpill, FlexerSpill, SmallestFirstSpill, SpillPolicy, SpmMemory,
};
use flexer_tiling::TileId;
use proptest::prelude::*;

/// An abstract scratchpad operation for random-sequence testing.
#[derive(Debug, Clone)]
enum Op {
    Alloc { tile: u32, size: u64, uses: u32 },
    Evict { tile: u32 },
    Pin { tile: u32 },
    UnpinAll,
    Decrement { tile: u32 },
    SetDirty { tile: u32, dirty: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..24, 1u64..200, 0u32..5).prop_map(|(tile, size, uses)| Op::Alloc {
            tile,
            size,
            uses
        }),
        (0u32..24).prop_map(|tile| Op::Evict { tile }),
        (0u32..24).prop_map(|tile| Op::Pin { tile }),
        Just(Op::UnpinAll),
        (0u32..24).prop_map(|tile| Op::Decrement { tile }),
        (0u32..24, any::<bool>()).prop_map(|(tile, dirty)| Op::SetDirty { tile, dirty }),
    ]
}

/// Maps `n` one-to-one onto tiles of all three kinds, cycling the kind
/// fastest, so every index pair `(n / 6, n / 3 % 2)` is drawn as an
/// input, a weight and an output tile: a lookup that confused kinds
/// would return another tile's block.
fn tile(n: u32) -> TileId {
    let (a, b) = (n / 6, n / 3 % 2);
    match n % 3 {
        0 => TileId::Input { c: a, s: b },
        1 => TileId::Weight { k: a, c: b },
        _ => TileId::Output { k: a, s: b },
    }
}

fn run_sequence(policy: &dyn SpillPolicy, capacity: u64, ops: &[Op]) {
    let mut spm = SpmMemory::new(capacity);
    let mut pinned_bytes = 0u64;
    for op in ops {
        match op {
            Op::Alloc {
                tile: t,
                size,
                uses,
            } => {
                let was_resident = spm.contains(tile(*t));
                match spm.allocate(tile(*t), *size, *uses, policy) {
                    Ok(outcome) => {
                        // The lookup finds the tile's own block, not
                        // another kind's with the same indices.
                        let found = spm.tile_data(tile(*t)).map(|d| d.tile);
                        assert_eq!(found, Some(tile(*t)));
                        assert_eq!(spm.address_of(tile(*t)), Some(outcome.address));
                        if was_resident {
                            assert_eq!(outcome.method, AllocMethod::AlreadyResident);
                            assert!(outcome.evictions.is_empty());
                        } else {
                            // Evicted tiles are gone; the new tile is
                            // clean and unpinned.
                            for ev in &outcome.evictions {
                                assert!(!spm.contains(ev.tile));
                            }
                            let data = spm.tile_data(tile(*t)).unwrap();
                            assert!(!data.dirty);
                            assert!(!data.pinned);
                            assert_eq!(data.remain_uses, *uses);
                        }
                    }
                    Err(AllocError::TileTooLarge { requested, .. }) => {
                        assert!(requested > capacity);
                    }
                    Err(AllocError::InsufficientMemory { .. }) => {
                        // Plausible whenever pins exist; never when the
                        // whole buffer is unpinned and big enough.
                        assert!(
                            pinned_bytes > 0,
                            "unpinned memory of {capacity} failed a {size}-byte request"
                        );
                    }
                    Err(AllocError::ZeroSize) => unreachable!("sizes start at 1"),
                }
            }
            Op::Evict { tile: t } => {
                if spm.tile_data(tile(*t)).is_some_and(|d| d.pinned) {
                    // Pinned tiles must not be evicted by callers.
                } else {
                    let was = spm.contains(tile(*t));
                    let ev = spm.evict(tile(*t));
                    assert_eq!(ev.map(|e| e.tile), was.then(|| tile(*t)));
                    assert!(!spm.contains(tile(*t)));
                }
            }
            Op::Pin { tile: t } => {
                if spm.pin(tile(*t)) {
                    pinned_bytes += 1;
                }
            }
            Op::UnpinAll => {
                spm.unpin_all();
                pinned_bytes = 0;
            }
            Op::Decrement { tile: t } => {
                spm.decrement_uses(tile(*t));
            }
            Op::SetDirty { tile: t, dirty } => {
                spm.set_dirty(tile(*t), *dirty);
            }
        }
        spm.assert_invariants();
        // Accounting is consistent.
        assert_eq!(spm.used_bytes() + spm.free_bytes(), spm.capacity());
    }
}

/// Applies `ops` without postcondition checks (shared by the
/// transactional differential tests). Mirrors the legality guards of
/// `run_sequence`: pinned tiles are never evicted by the caller.
fn apply_ops(policy: &dyn SpillPolicy, spm: &mut SpmMemory, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Alloc {
                tile: t,
                size,
                uses,
            } => {
                let _ = spm.allocate(tile(*t), *size, *uses, policy);
            }
            Op::Evict { tile: t } => {
                if !spm.tile_data(tile(*t)).is_some_and(|d| d.pinned) {
                    spm.evict(tile(*t));
                }
            }
            Op::Pin { tile: t } => {
                spm.pin(tile(*t));
            }
            Op::UnpinAll => spm.unpin_all(),
            Op::Decrement { tile: t } => {
                spm.decrement_uses(tile(*t));
            }
            Op::SetDirty { tile: t, dirty } => {
                spm.set_dirty(tile(*t), *dirty);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flexer_policy_preserves_invariants(
        capacity in 64u64..1024,
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        run_sequence(&FlexerSpill, capacity, &ops);
    }

    #[test]
    fn first_fit_policy_preserves_invariants(
        capacity in 64u64..1024,
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        run_sequence(&FirstFitSpill, capacity, &ops);
    }

    #[test]
    fn smallest_first_policy_preserves_invariants(
        capacity in 64u64..1024,
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        run_sequence(&SmallestFirstSpill, capacity, &ops);
    }

    /// Unpinned allocations of feasible sizes never fail, for every
    /// policy: the spill machinery can always produce a hole.
    #[test]
    fn feasible_unpinned_allocations_always_succeed(
        sizes in prop::collection::vec(1u64..128, 1..40),
    ) {
        for policy in [
            &FlexerSpill as &dyn SpillPolicy,
            &FirstFitSpill,
            &SmallestFirstSpill,
        ] {
            let mut spm = SpmMemory::new(256);
            for (i, &size) in sizes.iter().enumerate() {
                spm.allocate(tile(i as u32), size, 1, policy).unwrap();
                spm.assert_invariants();
            }
        }
    }

    /// Transactional-planning differential: arbitrary mutations made
    /// inside a checkpoint are fully reverted by rollback, leaving a
    /// state equal to a pre-mutation deep clone — under every spill
    /// policy. This is the oracle guaranteeing the scheduler's
    /// rollback-based candidate evaluation matches the old
    /// clone-per-candidate behaviour.
    #[test]
    fn rollback_matches_clone_oracle(
        capacity in 64u64..1024,
        setup in prop::collection::vec(op_strategy(), 0..25),
        txn in prop::collection::vec(op_strategy(), 1..40),
        policy_idx in 0usize..3,
    ) {
        let policies: [&dyn SpillPolicy; 3] =
            [&FlexerSpill, &FirstFitSpill, &SmallestFirstSpill];
        let policy = policies[policy_idx];
        let mut spm = SpmMemory::new(capacity);
        apply_ops(policy, &mut spm, &setup);
        spm.assert_invariants();

        let oracle = spm.clone();
        let token = spm.checkpoint();
        apply_ops(policy, &mut spm, &txn);
        spm.assert_invariants();
        let _ = spm.rollback(token);

        spm.assert_invariants();
        prop_assert_eq!(&spm, &oracle);
        prop_assert_eq!(spm.journal_len(), 0);
        prop_assert!(!spm.in_transaction());
    }

    /// Committing a transaction leaves exactly the state reached by
    /// applying the same operations with no transaction at all.
    #[test]
    fn commit_matches_untracked_execution(
        capacity in 64u64..1024,
        ops in prop::collection::vec(op_strategy(), 1..40),
        policy_idx in 0usize..3,
    ) {
        let policies: [&dyn SpillPolicy; 3] =
            [&FlexerSpill, &FirstFitSpill, &SmallestFirstSpill];
        let policy = policies[policy_idx];

        let mut tracked = SpmMemory::new(capacity);
        let token = tracked.checkpoint();
        apply_ops(policy, &mut tracked, &ops);
        tracked.commit(token);

        let mut plain = SpmMemory::new(capacity);
        apply_ops(policy, &mut plain, &ops);

        prop_assert_eq!(&tracked, &plain);
        prop_assert_eq!(tracked.journal_len(), 0);
    }

    /// The Flexer policy's fragmentation after a forced spill never
    /// exceeds first-fit's on the same state (its primary criterion is
    /// minimal fragmentation).
    #[test]
    fn flexer_spill_fragments_no_worse_than_first_fit(
        sizes in prop::collection::vec(8u64..96, 4..10),
        request in 64u64..200,
    ) {
        let build = || {
            let mut spm = SpmMemory::new(512);
            for (i, &size) in sizes.iter().enumerate() {
                spm.allocate(tile(i as u32), size, (i % 4) as u32, &FlexerSpill).unwrap();
            }
            spm
        };
        // Only compare when both policies actually have to spill.
        let mut a = build();
        let mut b = build();
        if a.free_bytes() >= request {
            return Ok(());
        }
        let ra = a.allocate(tile(100), request, 1, &FlexerSpill);
        let rb = b.allocate(tile(100), request, 1, &FirstFitSpill);
        if let (Ok(oa), Ok(ob)) = (ra, rb) {
            let spilled_a: u64 = oa.evictions.iter().map(|e| e.bytes).sum();
            let spilled_b: u64 = ob.evictions.iter().map(|e| e.bytes).sum();
            // Fragmentation caused = bytes freed beyond the request
            // (counting previously-free bytes in the hole for both).
            prop_assert!(spilled_a <= spilled_b + request,
                "flexer spilled {spilled_a} vs first-fit {spilled_b} for {request}");
        }
    }
}
