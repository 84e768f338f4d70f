//! Operation-set generation and dataflow-map pruning (§4.2).

use crate::stats::SearchStats;
use flexer_spm::SpmMemory;
use flexer_tiling::{Dfg, OpId, TileId, TileKind};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The dataflow classification of one operation set (paper Figure 7's
/// *dataflow map*): for each data type, the multiset of intra-set
/// sharing degrees of the *reused* (already on-chip) and *new* tiles
/// it touches.
///
/// Two sets with equal classes move the same number and type of tiles
/// with the same sharing structure, so they are duplicates for the
/// priority function; only one representative is evaluated.
///
/// # Examples
///
/// ```
/// use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};
/// use flexer_model::ConvLayer;
/// use flexer_sched::dataflow_class;
/// use flexer_spm::SpmMemory;
/// use flexer_tiling::{Dataflow, Dfg, OpId, TilingFactors};
///
/// let arch = ArchConfig::preset(ArchPreset::Arch1);
/// let layer = ConvLayer::new("c", 16, 8, 8, 16)?;
/// let factors = TilingFactors::normalized(&layer, 4, 1, 2, 1);
/// let dfg = Dfg::build(&layer, factors, Dataflow::Csk, &SystolicModel::new(&arch), &arch)?;
/// let spm = SpmMemory::new(arch.spm_bytes());
///
/// // (k=0,s=0) with (k=1,s=0) shares the input tile; so does
/// // (k=2,s=0) with (k=3,s=0): identical dataflow class.
/// let a = dataflow_class(&dfg, &spm, &[OpId::new(0), OpId::new(1)]);
/// let b = dataflow_class(&dfg, &spm, &[OpId::new(2), OpId::new(3)]);
/// assert_eq!(a, b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DataflowClass(Vec<u8>);

/// Reusable buffers for set generation and classification: one of
/// these lives per scheduler run, so the per-combination inner loop
/// allocates only while its recycled buffers grow.
#[derive(Debug, Default)]
pub(crate) struct ComboScratch {
    /// `(resident operand bytes, op)` ranking, computed once per call.
    ranked: Vec<(u64, OpId)>,
    /// Current combination's candidate indices.
    idx: Vec<usize>,
    /// Canonical encodings of the classes kept so far in this call: the
    /// first `produced` entries, one per kept set (at most
    /// `max_sets`, so a linear scan beats hashing). Recycled across
    /// calls.
    seen: Vec<Vec<u8>>,
    /// Operand codes (see [`tile_code`]) of the ranked candidates,
    /// prefetched once per call so the inner loop never touches the
    /// graph or re-answers a residency query.
    cands: Vec<[u64; 3]>,
    /// Sorted snapshot of every tile resident in the memory, taken
    /// once per call: `SpmMemory::contains` is a linear block scan,
    /// far too expensive to repeat for every tile of every candidate
    /// and combination. Residency cannot change mid-call (the memory
    /// is held by `&`), so one snapshot answers every query.
    resident: Vec<TileId>,
    /// Classification scratch: the current combination's operand codes.
    codes: Vec<u64>,
    /// Classification scratch: the canonical encoding.
    class_buf: Vec<u8>,
}

/// Bit position of the class bucket in a [`tile_code`]; the bits
/// below hold the tile's dense index, so no tile count overflows them.
const BUCKET_SHIFT: u32 = 61;

/// Packs one operand into an integer: its class bucket — `(kind,
/// reused/new)`, in [`DataflowClass`] order — in the top bits above
/// `dfg`'s dense index of the tile within its kind. Equal codes mean
/// the same tile, and sorting codes groups them by bucket.
fn tile_code(dfg: &Dfg, tile: TileId, resident: bool) -> u64 {
    let kind = match tile.kind() {
        TileKind::Input => 0u64,
        TileKind::Weight => 1,
        TileKind::Output => 2,
    };
    let bucket = kind * 2 + u64::from(!resident);
    (bucket << BUCKET_SHIFT) | dfg.tile_index(tile) as u64
}

/// Computes the canonical class encoding of the operand codes in
/// `codes` into `out`: per (kind, reused/new) bucket, the number of
/// distinct tiles followed by their sorted sharing degrees.
fn classify_codes(codes: &mut [u64], out: &mut Vec<u8>) {
    // Sorting groups the codes by bucket, and equal tiles into runs
    // whose lengths are the sharing degrees.
    codes.sort_unstable();
    out.clear();
    let mut i = 0;
    for bucket in 0..6 {
        let len_at = out.len();
        out.push(0);
        while i < codes.len() && codes[i] >> BUCKET_SHIFT == bucket {
            let code = codes[i];
            let mut degree = 0u8;
            while i < codes.len() && codes[i] == code {
                degree += 1;
                i += 1;
            }
            out.push(degree);
        }
        out[len_at] = (out.len() - len_at - 1) as u8;
        out[len_at + 1..].sort_unstable();
    }
}

/// Computes the [`DataflowClass`] of `ops` given the current residency
/// state of `spm`.
#[must_use]
pub fn dataflow_class(dfg: &Dfg, spm: &SpmMemory, ops: &[OpId]) -> DataflowClass {
    let mut codes: Vec<u64> = ops
        .iter()
        .flat_map(|&id| dfg.op(id).operands())
        .map(|t| tile_code(dfg, t, spm.contains(t)))
        .collect();
    let mut encoding = Vec::with_capacity(16);
    classify_codes(&mut codes, &mut encoding);
    DataflowClass(encoding)
}

/// Budgets for operation-set generation.
///
/// The paper enumerates every `C(ready, cores)` combination and prunes
/// duplicates afterwards (§4.2); with 100 ready operations and 4 cores
/// that is ~3.9M sets per step, which is why the authors' scheduler
/// needs ~20 hours per network. These budgets bound the enumeration
/// while preserving its structure; the defaults examine every
/// combination of the 16 most reuse-friendly ready operations.
///
/// # Examples
///
/// ```
/// let opts = flexer_sched::ComboOptions {
///     width_cap: 8,
///     ..Default::default()
/// };
/// assert_eq!(opts.width_cap, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ComboOptions {
    /// Ready operations considered for combination (most resident
    /// operand bytes first, op id on ties).
    pub width_cap: usize,
    /// Maximum combinations examined per scheduling step.
    pub max_combos: usize,
    /// Maximum distinct (post-pruning) sets returned per step.
    pub max_sets: usize,
    /// Whether dataflow-map pruning is applied (§4.2). Disabling it
    /// returns every examined combination — the ablation knob.
    pub prune: bool,
}

impl Default for ComboOptions {
    fn default() -> Self {
        Self {
            width_cap: 16,
            max_combos: 4096,
            max_sets: 64,
            prune: true,
        }
    }
}

/// Generates candidate operation sets of exactly `set_size` operations
/// from the ready queue (paper Algorithm 1, line 19 `MakeCombination`
/// plus the §4.2 pruning).
///
/// `ready` must be sorted by op id. Returned sets are sorted
/// internally and appear in deterministic order. When pruning is on,
/// at most one representative per [`DataflowClass`] is returned.
///
/// # Panics
///
/// Panics if `set_size` is zero or exceeds `ready.len()`.
#[must_use]
pub fn generate_sets(
    dfg: &Dfg,
    spm: &SpmMemory,
    ready: &[OpId],
    set_size: usize,
    options: &ComboOptions,
) -> Vec<Vec<OpId>> {
    let mut scratch = ComboScratch::default();
    let mut out = Vec::new();
    let mut stats = SearchStats::default();
    generate_sets_into(
        dfg,
        spm,
        ready,
        set_size,
        options,
        &mut scratch,
        &mut out,
        &mut stats,
    );
    out
}

/// [`generate_sets`] writing into `out` and reusing `scratch` — the
/// scheduler's per-step entry point. `out` is truncated to exactly the
/// kept sets; its inner vectors are recycled across calls.
///
/// `stats` accumulates the examined/pruned counts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate_sets_into(
    dfg: &Dfg,
    spm: &SpmMemory,
    ready: &[OpId],
    set_size: usize,
    options: &ComboOptions,
    scratch: &mut ComboScratch,
    out: &mut Vec<Vec<OpId>>,
    stats: &mut SearchStats,
) {
    assert!(set_size > 0, "set size must be positive");
    assert!(
        set_size <= ready.len(),
        "set size {set_size} exceeds ready count {}",
        ready.len()
    );
    debug_assert!(
        ready.windows(2).all(|w| w[0] < w[1]),
        "ready must be sorted"
    );

    // Snapshot the resident tile set in one pass over the block list:
    // every residency query below becomes a binary search instead of
    // an `SpmMemory::contains` linear block scan.
    let resident = &mut scratch.resident;
    resident.clear();
    resident.extend(
        spm.blocks()
            .iter()
            .filter_map(|b| b.state().tile_data().map(|d| d.tile)),
    );
    resident.sort_unstable();
    let resident = &scratch.resident;

    // Rank candidates: reuse-friendly first (most resident operand
    // bytes), op id as the deterministic tie-break. The residency key
    // is computed once per candidate up front, not re-derived inside
    // every comparison of the sort.
    let ranked = &mut scratch.ranked;
    ranked.clear();
    ranked.extend(ready.iter().map(|&id| {
        let bytes: u64 = dfg
            .op(id)
            .operands()
            .filter(|&t| resident.binary_search(&t).is_ok())
            .map(|t| dfg.tile_bytes(t))
            .sum();
        (bytes, id)
    }));
    ranked.sort_unstable_by_key(|&(bytes, id)| (std::cmp::Reverse(bytes), id));
    ranked.truncate(options.width_cap.max(set_size));

    // Prefetch each candidate's operand codes, so the inner loop
    // indexes a flat array instead of chasing into the graph or
    // binary-searching the snapshot per tile.
    let cands = &mut scratch.cands;
    cands.clear();
    cands.extend(ranked.iter().map(|&(_, id)| {
        let op = dfg.op(id);
        let code = |t: TileId| tile_code(dfg, t, resident.binary_search(&t).is_ok());
        [code(op.input()), code(op.weight()), code(op.output())]
    }));
    let ranked = &scratch.ranked;

    let mut produced = 0usize;
    // Appends the combination `idx` to `out` as a sorted operation
    // set, recycling a spare inner vector when one is available.
    let keep = |idx: &[usize], out: &mut Vec<Vec<OpId>>, produced: &mut usize| {
        if *produced == out.len() {
            out.push(Vec::with_capacity(set_size));
        }
        let slot = &mut out[*produced];
        slot.clear();
        slot.extend(idx.iter().map(|&i| ranked[i].1));
        slot.sort_unstable();
        *produced += 1;
    };
    let mut examined = 0usize;

    // Lexicographic k-combination enumeration over candidate indices.
    let n = ranked.len();
    scratch.idx.clear();
    scratch.idx.extend(0..set_size);
    loop {
        examined += 1;
        stats.sets_generated += 1;
        if options.prune {
            scratch.codes.clear();
            for &i in &scratch.idx {
                scratch.codes.extend_from_slice(&scratch.cands[i]);
            }
            classify_codes(&mut scratch.codes, &mut scratch.class_buf);
            // Every kept set added one class, so the classes seen are
            // exactly the first `produced` entries.
            if scratch.seen[..produced].contains(&scratch.class_buf) {
                stats.sets_pruned += 1;
            } else {
                if produced == scratch.seen.len() {
                    scratch.seen.push(Vec::new());
                }
                scratch.seen[produced].clone_from(&scratch.class_buf);
                keep(&scratch.idx, out, &mut produced);
            }
        } else {
            keep(&scratch.idx, out, &mut produced);
        }
        if produced >= options.max_sets || examined >= options.max_combos {
            break;
        }
        // Advance the combination.
        let mut i = set_size;
        loop {
            if i == 0 {
                out.truncate(produced);
                return;
            }
            i -= 1;
            if scratch.idx[i] != i + n - set_size {
                break;
            }
        }
        scratch.idx[i] += 1;
        for j in i + 1..set_size {
            scratch.idx[j] = scratch.idx[j - 1] + 1;
        }
    }
    out.truncate(produced);
}

/// The seed implementation of [`dataflow_class`], kept verbatim as
/// part of the `CloneBaseline` reference path: a freshly allocated
/// degree map per combination and a `contains` block scan per
/// distinct tile. Produces encodings identical to [`classify_codes`].
fn dataflow_class_reference(dfg: &Dfg, spm: &SpmMemory, ops: &[OpId]) -> DataflowClass {
    // Sharing degree of every distinct tile the set references.
    let mut degrees: std::collections::BTreeMap<TileId, u8> = std::collections::BTreeMap::new();
    for &id in ops {
        for tile in dfg.op(id).operands() {
            *degrees.entry(tile).or_default() += 1;
        }
    }
    // Bucket by (kind, reused/new), keeping degree multisets sorted.
    let kind_index = |k: TileKind| match k {
        TileKind::Input => 0usize,
        TileKind::Weight => 1,
        TileKind::Output => 2,
    };
    let mut buckets: [[Vec<u8>; 2]; 3] = Default::default();
    for (tile, degree) in degrees {
        let reused = usize::from(!spm.contains(tile));
        buckets[kind_index(tile.kind())][reused].push(degree);
    }
    // Canonical encoding: per bucket its sorted degrees behind a
    // length byte.
    let mut encoding = Vec::with_capacity(16);
    for kind in &mut buckets {
        for bucket in kind {
            bucket.sort_unstable();
            encoding.push(bucket.len() as u8);
            encoding.extend_from_slice(bucket);
        }
    }
    DataflowClass(encoding)
}

/// The pre-optimization reference twin of [`generate_sets_into`],
/// kept for the `CloneBaseline` benchmark mode: it re-derives the
/// residency ranking key inside every sort comparison and allocates
/// fresh classification state (degree map, degree buckets, encoding)
/// plus a fresh vector per combination — the per-combination
/// allocation storm the scratch path eliminates. Output and stats
/// counters are identical to the scratch path by construction.
pub(crate) fn generate_sets_baseline(
    dfg: &Dfg,
    spm: &SpmMemory,
    ready: &[OpId],
    set_size: usize,
    options: &ComboOptions,
    stats: &mut SearchStats,
) -> Vec<Vec<OpId>> {
    assert!(set_size > 0, "set size must be positive");
    assert!(
        set_size <= ready.len(),
        "set size {set_size} exceeds ready count {}",
        ready.len()
    );
    let resident_bytes = |id: OpId| -> u64 {
        dfg.op(id)
            .operands()
            .filter(|&t| spm.contains(t))
            .map(|t| dfg.tile_bytes(t))
            .sum()
    };
    let mut ranked: Vec<OpId> = ready.to_vec();
    ranked.sort_by_key(|&id| (std::cmp::Reverse(resident_bytes(id)), id));
    ranked.truncate(options.width_cap.max(set_size));

    let mut out: Vec<Vec<OpId>> = Vec::new();
    let mut seen: HashSet<DataflowClass> = HashSet::new();
    let mut examined = 0usize;
    let n = ranked.len();
    let mut idx: Vec<usize> = (0..set_size).collect();
    loop {
        examined += 1;
        stats.sets_generated += 1;
        let mut set: Vec<OpId> = idx.iter().map(|&i| ranked[i]).collect();
        set.sort_unstable();
        if options.prune {
            let class = dataflow_class_reference(dfg, spm, &set);
            if seen.contains(&class) {
                stats.sets_pruned += 1;
            } else {
                seen.insert(class);
                out.push(set);
            }
        } else {
            out.push(set);
        }
        if out.len() >= options.max_sets || examined >= options.max_combos {
            break;
        }
        let mut i = set_size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - set_size {
                break;
            }
        }
        idx[i] += 1;
        for j in i + 1..set_size {
            idx[j] = idx[j - 1] + 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};
    use flexer_model::ConvLayer;
    use flexer_spm::FlexerSpill;
    use flexer_tiling::{Dataflow, TilingFactors};

    fn fixture(k: u32, c: u32, h: u32) -> (Dfg, SpmMemory) {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let layer = ConvLayer::new("c", 16, 8, 8, 16).unwrap();
        let factors = TilingFactors::normalized(&layer, k, c, h, 1);
        let dfg = Dfg::build(
            &layer,
            factors,
            Dataflow::Csk,
            &SystolicModel::new(&arch),
            &arch,
        )
        .unwrap();
        (dfg, SpmMemory::new(arch.spm_bytes()))
    }

    #[test]
    fn class_distinguishes_sharing_structure() {
        let (dfg, spm) = fixture(4, 1, 2);
        // All ops ready (c=1). Ops (k,s): id order CSK = s middle, k inner.
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        assert_eq!(ready.len(), 8);
        // Two ops sharing an input (same s) vs two sharing nothing.
        let sharing = dataflow_class(&dfg, &spm, &[ready[0], ready[1]]);
        let disjoint = dataflow_class(&dfg, &spm, &[ready[0], ready[5]]);
        assert_ne!(sharing, disjoint);
    }

    #[test]
    fn class_depends_on_residency() {
        let (dfg, mut spm) = fixture(4, 1, 2);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let cold = dataflow_class(&dfg, &spm, &[ready[0], ready[1]]);
        let t = dfg.op(ready[0]).input();
        spm.allocate(t, dfg.tile_bytes(t), 1, &FlexerSpill).unwrap();
        let warm = dataflow_class(&dfg, &spm, &[ready[0], ready[1]]);
        assert_ne!(cold, warm);
    }

    #[test]
    fn class_ignores_operation_identity() {
        let (dfg, spm) = fixture(4, 1, 2);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        // (k0,s0)+(k1,s0) vs (k2,s1)+(k3,s1): same structure.
        let a = dataflow_class(&dfg, &spm, &[ready[0], ready[1]]);
        let ops_s1: Vec<OpId> = ready
            .iter()
            .copied()
            .filter(|&id| dfg.op(id).s() == 1)
            .take(2)
            .collect();
        let b = dataflow_class(&dfg, &spm, &ops_s1);
        assert_eq!(a, b);
    }

    #[test]
    fn pruning_collapses_duplicates() {
        let (dfg, spm) = fixture(4, 1, 2);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let pruned = generate_sets(&dfg, &spm, &ready, 2, &ComboOptions::default());
        let unpruned = generate_sets(
            &dfg,
            &spm,
            &ready,
            2,
            &ComboOptions {
                prune: false,
                ..Default::default()
            },
        );
        // C(8,2) = 28 total combos, far fewer distinct classes.
        assert_eq!(unpruned.len(), 28);
        assert!(pruned.len() < unpruned.len(), "{}", pruned.len());
        // Each kept set keeps a unique class.
        let classes: HashSet<_> = pruned
            .iter()
            .map(|s| dataflow_class(&dfg, &spm, s))
            .collect();
        assert_eq!(classes.len(), pruned.len());
    }

    #[test]
    fn budgets_are_respected() {
        let (dfg, spm) = fixture(4, 1, 2);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let opts = ComboOptions {
            max_sets: 3,
            prune: false,
            ..Default::default()
        };
        assert_eq!(generate_sets(&dfg, &spm, &ready, 2, &opts).len(), 3);
        let opts = ComboOptions {
            max_combos: 5,
            prune: false,
            ..Default::default()
        };
        assert_eq!(generate_sets(&dfg, &spm, &ready, 2, &opts).len(), 5);
    }

    #[test]
    fn width_cap_limits_candidates() {
        let (dfg, spm) = fixture(4, 1, 2);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let opts = ComboOptions {
            width_cap: 3,
            prune: false,
            max_combos: 10_000,
            max_sets: 10_000,
        };
        // C(3,2) = 3 combos.
        assert_eq!(generate_sets(&dfg, &spm, &ready, 2, &opts).len(), 3);
    }

    #[test]
    fn generation_is_deterministic() {
        let (dfg, spm) = fixture(4, 2, 2);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let a = generate_sets(&dfg, &spm, &ready, 2, &ComboOptions::default());
        let b = generate_sets(&dfg, &spm, &ready, 2, &ComboOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn single_op_sets() {
        let (dfg, spm) = fixture(2, 1, 1);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let sets = generate_sets(&dfg, &spm, &ready, 1, &ComboOptions::default());
        assert!(!sets.is_empty());
        for s in &sets {
            assert_eq!(s.len(), 1);
        }
    }

    #[test]
    fn resident_operands_rank_ops_first() {
        let (dfg, mut spm) = fixture(4, 1, 2);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        // Make the *last* op's weight resident; it should appear in the
        // first generated set.
        let last = *ready.last().unwrap();
        let t = dfg.op(last).weight();
        spm.allocate(t, dfg.tile_bytes(t), 1, &FlexerSpill).unwrap();
        let sets = generate_sets(&dfg, &spm, &ready, 2, &ComboOptions::default());
        assert!(sets[0].contains(&last), "{:?}", sets[0]);
    }

    #[test]
    fn scratch_generation_matches_allocating_path() {
        let (dfg, spm) = fixture(4, 1, 2);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let opts = ComboOptions::default();
        let baseline = generate_sets(&dfg, &spm, &ready, 2, &opts);
        let mut scratch = ComboScratch::default();
        // Pre-fill with stale sets: the call must overwrite/truncate.
        let mut out = vec![vec![OpId::new(99)]; 40];
        let mut stats = SearchStats::default();
        generate_sets_into(
            &dfg,
            &spm,
            &ready,
            2,
            &opts,
            &mut scratch,
            &mut out,
            &mut stats,
        );
        assert_eq!(out, baseline);
        // C(8,2) combinations examined; everything not kept was pruned.
        assert_eq!(stats.sets_generated, 28);
        assert_eq!(stats.sets_pruned as usize, 28 - baseline.len());
        // Reusing the same scratch reproduces the result exactly.
        generate_sets_into(
            &dfg,
            &spm,
            &ready,
            2,
            &opts,
            &mut scratch,
            &mut out,
            &mut stats,
        );
        assert_eq!(out, baseline);
    }

    /// Runs the scratch path twice on one scratch (the second run
    /// recycles its buffers) and the baseline once, and checks equal
    /// sets and counters, counting one evaluation per returned set as
    /// the scheduler does.
    fn assert_matches_baseline(
        dfg: &Dfg,
        spm: &SpmMemory,
        ready: &[OpId],
        set_size: usize,
        opts: &ComboOptions,
    ) {
        let mut slow_stats = SearchStats::default();
        let slow = generate_sets_baseline(dfg, spm, ready, set_size, opts, &mut slow_stats);
        slow_stats.sets_evaluated += slow.len() as u64;
        let mut scratch = ComboScratch::default();
        let mut out = vec![vec![OpId::new(0); 7]; 3];
        for _ in 0..2 {
            let mut fast_stats = SearchStats::default();
            generate_sets_into(
                dfg,
                spm,
                ready,
                set_size,
                opts,
                &mut scratch,
                &mut out,
                &mut fast_stats,
            );
            fast_stats.sets_evaluated += out.len() as u64;
            assert_eq!(out, slow, "set size {set_size}, {opts:?}");
            assert_eq!(fast_stats.sets_generated, slow_stats.sets_generated);
            assert_eq!(fast_stats.sets_pruned, slow_stats.sets_pruned);
            assert_eq!(fast_stats.sets_evaluated, slow_stats.sets_evaluated);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        #[test]
        fn scratch_generation_matches_baseline_on_random_states(
            factors in proptest::sample::select(vec![
                (4u32, 1u32, 2u32, 1u32),
                (4, 2, 2, 2),
                (2, 4, 4, 2),
                (8, 2, 2, 1),
            ]),
            dataflow in proptest::sample::select(Dataflow::all().to_vec()),
            ready_mask in proptest::arbitrary::any::<u64>(),
            resident_mask in proptest::arbitrary::any::<u64>(),
            set_size in 1usize..=5,
            width_cap in 1usize..=24,
            max_sets in 1usize..=64,
            max_combos in 1usize..=600,
            prune in proptest::arbitrary::any::<bool>(),
        ) {
            let arch = ArchConfig::preset(ArchPreset::Arch5);
            let layer = ConvLayer::new("p", 32, 8, 8, 32).unwrap();
            let (k, c, h, w) = factors;
            let dfg = Dfg::build(
                &layer,
                TilingFactors::normalized(&layer, k, c, h, w),
                dataflow,
                &SystolicModel::new(&arch),
                &arch,
            )
            .unwrap();
            // Any sorted subset of the ops stands in for a ready queue.
            let mut ready: Vec<OpId> = (0..dfg.num_ops().min(64) as u32)
                .filter(|&i| ready_mask >> i & 1 == 1)
                .map(OpId::new)
                .collect();
            if ready.is_empty() {
                ready.push(OpId::new(0));
            }
            // Any subset of the tiles stands in for the residency state;
            // the buffer holds them all, so nothing is spilled.
            let mut spm = SpmMemory::new(dfg.tiles().map(|t| dfg.tile_bytes(t)).sum());
            for (i, t) in dfg.tiles().enumerate() {
                if resident_mask >> (i % 64) & 1 == 1 {
                    spm.allocate(t, dfg.tile_bytes(t), 1, &FlexerSpill).unwrap();
                }
            }
            let opts = ComboOptions {
                width_cap,
                max_combos,
                max_sets,
                prune,
            };
            assert_matches_baseline(&dfg, &spm, &ready, set_size.min(ready.len()), &opts);
        }
    }

    #[test]
    fn scratch_generation_matches_baseline_at_extreme_widths() {
        // 512 ready ops whose tiles' dense indices run far past any
        // byte, in sets up to 300 wide where tiles are shared by up to
        // 32 ops: the packed codes set no limit on width or tile count.
        let arch = ArchConfig::preset(ArchPreset::Arch5);
        let layer = ConvLayer::new("w", 64, 32, 32, 256).unwrap();
        let dfg = Dfg::build(
            &layer,
            TilingFactors::normalized(&layer, 32, 1, 4, 4),
            Dataflow::Csk,
            &SystolicModel::new(&arch),
            &arch,
        )
        .unwrap();
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        assert_eq!(ready.len(), 512);
        let mut spm = SpmMemory::new(arch.spm_bytes() * 64);
        for t in dfg.tiles().step_by(3) {
            spm.allocate(t, dfg.tile_bytes(t), 1, &FlexerSpill).unwrap();
        }
        for set_size in [4, 24, 300] {
            for prune in [true, false] {
                let opts = ComboOptions {
                    width_cap: usize::MAX,
                    max_combos: 256,
                    max_sets: 64,
                    prune,
                };
                assert_matches_baseline(&dfg, &spm, &ready, set_size, &opts);
            }
        }
    }

    #[test]
    #[should_panic(expected = "set size must be positive")]
    fn zero_set_size_panics() {
        let (dfg, spm) = fixture(2, 1, 1);
        let ready: Vec<OpId> = dfg.initial_ready().collect();
        let _ = generate_sets(&dfg, &spm, &ready, 0, &ComboOptions::default());
    }
}
