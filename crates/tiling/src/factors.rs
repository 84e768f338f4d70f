//! Tiling factors and enumeration of viable tilings.

use flexer_arch::ArchConfig;
use flexer_model::ConvLayer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// How many tiles each tiled dimension is split into.
///
/// The output-channel dimension `K` splits into `k` tiles, the
/// input-channel dimension `C` into `c` tiles, and the output spatial
/// extents into `h x w` tiles. Edge tiles are smaller when the extent
/// does not divide evenly; factors are *normalized* so that every tile
/// index is non-empty (requesting 5 tiles of a 12-element dimension
/// yields 4 tiles of 3).
///
/// # Examples
///
/// ```
/// use flexer_model::ConvLayer;
/// use flexer_tiling::TilingFactors;
///
/// let layer = ConvLayer::new("c", 64, 28, 28, 96)?;
/// let f = TilingFactors::normalized(&layer, 3, 1, 2, 2);
/// assert_eq!((f.k(), f.c(), f.h(), f.w()), (3, 1, 2, 2));
/// assert_eq!(f.num_ops(), 12);
/// # Ok::<(), flexer_model::LayerSpecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TilingFactors {
    k: u32,
    c: u32,
    h: u32,
    w: u32,
}

/// Splits `extent` into at most `requested` tiles and returns the
/// normalized `(tile count, base tile size)`.
fn split(extent: u32, requested: u32) -> (u32, u32) {
    let requested = requested.clamp(1, extent);
    let base = extent.div_ceil(requested);
    (extent.div_ceil(base), base)
}

impl TilingFactors {
    /// Creates factors for `layer`, clamping each requested tile count
    /// to the dimension extent and normalizing away empty tiles.
    ///
    /// Grouped layers tile the *group* dimension: channel tiles must
    /// contain whole groups (a tile straddling a group boundary would
    /// couple unrelated channels), so both channel tile counts
    /// normalize to one shared count `t <= G` and tile `i` covers
    /// `group_extent(i)` whole groups.
    #[must_use]
    pub fn normalized(layer: &ConvLayer, k: u32, c: u32, h: u32, w: u32) -> Self {
        let (h, _) = split(layer.out_height(), h.max(1));
        let (w, _) = split(layer.out_width(), w.max(1));
        if layer.kind().is_grouped() {
            let (t, _) = split(layer.groups(), k.max(c).max(1));
            return Self { k: t, c: t, h, w };
        }
        let (k, _) = split(layer.out_channels(), k.max(1));
        let (c, _) = split(layer.in_channels(), c.max(1));
        Self { k, c, h, w }
    }

    /// Reconstructs factors from already-normalized raw counts, e.g.
    /// when decoding a persisted schedule record. The counts are taken
    /// verbatim (zeroes are clamped to 1); pair only with values that
    /// came out of [`TilingFactors::normalized`].
    #[must_use]
    pub fn from_raw(k: u32, c: u32, h: u32, w: u32) -> Self {
        Self {
            k: k.max(1),
            c: c.max(1),
            h: h.max(1),
            w: w.max(1),
        }
    }

    /// Number of output-channel tiles.
    #[must_use]
    pub const fn k(&self) -> u32 {
        self.k
    }

    /// Number of input-channel tiles.
    #[must_use]
    pub const fn c(&self) -> u32 {
        self.c
    }

    /// Number of spatial tiles along the output height.
    #[must_use]
    pub const fn h(&self) -> u32 {
        self.h
    }

    /// Number of spatial tiles along the output width.
    #[must_use]
    pub const fn w(&self) -> u32 {
        self.w
    }

    /// Number of linearized spatial tiles (`h * w`).
    #[must_use]
    pub const fn spatial(&self) -> u32 {
        self.h * self.w
    }

    /// Total number of tiled convolution operations over the *dense*
    /// iteration space (`k * c * h * w`). For grouped layers the DFG
    /// only materializes the diagonal `k == c` operations — use
    /// [`TilingFactors::num_ops_for`] for the actual operation count.
    #[must_use]
    pub const fn num_ops(&self) -> u64 {
        self.k as u64 * self.c as u64 * self.h as u64 * self.w as u64
    }

    /// Actual number of tiled operations the DFG builds for `layer`
    /// under these factors: `k * c * h * w` for dense/matmul layers,
    /// but only the diagonal `t * h * w` for grouped layers (an
    /// off-diagonal pair of channel tiles shares no group, so no
    /// operation exists for it).
    #[must_use]
    pub fn num_ops_for(&self, layer: &ConvLayer) -> u64 {
        if layer.kind().is_grouped() {
            self.k as u64 * self.h as u64 * self.w as u64
        } else {
            self.num_ops()
        }
    }

    /// Number of whole groups covered by channel tile `i` of a grouped
    /// layer (1 for dense/matmul layers, whose "group" is the whole
    /// channel space).
    #[must_use]
    pub fn group_extent(&self, layer: &ConvLayer, i: u32) -> u32 {
        if layer.kind().is_grouped() {
            dim_extent(layer.groups(), self.k, i)
        } else {
            1
        }
    }

    /// Extent of output-channel tile `i` for `layer`. Grouped layers
    /// scale whole-group tile extents by `K/G` so tiles never straddle
    /// a group boundary.
    #[must_use]
    pub fn k_extent(&self, layer: &ConvLayer, i: u32) -> u32 {
        if layer.kind().is_grouped() {
            dim_extent(layer.groups(), self.k, i) * layer.out_channels_per_group()
        } else {
            dim_extent(layer.out_channels(), self.k, i)
        }
    }

    /// Extent of input-channel tile `i` for `layer` (group-aligned for
    /// grouped layers, see [`TilingFactors::k_extent`]).
    #[must_use]
    pub fn c_extent(&self, layer: &ConvLayer, i: u32) -> u32 {
        if layer.kind().is_grouped() {
            dim_extent(layer.groups(), self.c, i) * layer.in_channels_per_group()
        } else {
            dim_extent(layer.in_channels(), self.c, i)
        }
    }

    /// Output rows covered by spatial-row tile `i` for `layer`:
    /// `(start, extent)`.
    #[must_use]
    pub fn h_range(&self, layer: &ConvLayer, i: u32) -> (u32, u32) {
        dim_range(layer.out_height(), self.h, i)
    }

    /// Output columns covered by spatial-column tile `i` for `layer`:
    /// `(start, extent)`.
    #[must_use]
    pub fn w_range(&self, layer: &ConvLayer, i: u32) -> (u32, u32) {
        dim_range(layer.out_width(), self.w, i)
    }
}

impl fmt::Display for TilingFactors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}·c{}·{}x{}", self.k, self.c, self.h, self.w)
    }
}

/// Extent of tile `i` when `extent` splits into `tiles` tiles.
fn dim_extent(extent: u32, tiles: u32, i: u32) -> u32 {
    dim_range(extent, tiles, i).1
}

/// `(start, extent)` of tile `i` when `extent` splits into `tiles`.
fn dim_range(extent: u32, tiles: u32, i: u32) -> (u32, u32) {
    debug_assert!(i < tiles, "tile index {i} out of {tiles}");
    let base = extent.div_ceil(tiles);
    let start = i * base;
    (start, base.min(extent - start))
}

/// Limits applied while enumerating tilings.
///
/// The paper explores "all viable tilings"; the defaults here cover the
/// same power-of-two-shaped space but bound the DFG size so full
/// networks finish in minutes instead of the paper's 20 hours (see
/// DESIGN.md §2). Enlarge the caps to widen the search.
///
/// # Examples
///
/// ```
/// let opts = flexer_tiling::TilingOptions {
///     max_ops: 512,
///     ..Default::default()
/// };
/// assert_eq!(opts.max_ops, 512);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TilingOptions {
    /// Candidate tile counts per channel dimension (clamped to the
    /// extent, deduplicated after normalization).
    pub channel_candidates: Vec<u32>,
    /// Candidate tile counts per spatial dimension.
    pub spatial_candidates: Vec<u32>,
    /// Upper bound on `k*c*h*w`; tilings with more operations are
    /// skipped.
    pub max_ops: u64,
    /// Upper bound on the number of tilings returned (smallest op
    /// counts first). `0` means unlimited.
    pub max_tilings: usize,
}

impl Default for TilingOptions {
    fn default() -> Self {
        Self {
            channel_candidates: vec![1, 2, 4, 8, 16, 32],
            spatial_candidates: vec![1, 2, 4, 8],
            max_ops: 1024,
            max_tilings: 48,
        }
    }
}

/// Enumerates all viable tilings of `layer` on `arch`.
///
/// A tiling is *viable* when one operation's working set — its input,
/// weight and output tile together — fits the shared on-chip buffer
/// (otherwise the operation could never execute) and its operation
/// count does not exceed [`TilingOptions::max_ops`].
///
/// Results are deduplicated after normalization and sorted by an
/// analytical quality estimate (see [`estimate_metric`]) so that, when
/// [`TilingOptions::max_tilings`] truncates the list, the survivors
/// are the likely winners of the `latency x transfer` search rather
/// than merely the coarsest tilings.
///
/// # Examples
///
/// ```
/// use flexer_arch::{ArchConfig, ArchPreset};
/// use flexer_model::ConvLayer;
/// use flexer_tiling::{enumerate_tilings, TilingOptions};
///
/// let layer = ConvLayer::new("c", 256, 28, 28, 256)?;
/// let arch = ArchConfig::preset(ArchPreset::Arch1);
/// let tilings = enumerate_tilings(&layer, &arch, &TilingOptions::default());
/// assert!(!tilings.is_empty());
/// // Every returned tiling's working set fits the 256 KiB buffer.
/// # Ok::<(), flexer_model::LayerSpecError>(())
/// ```
#[must_use]
pub fn enumerate_tilings(
    layer: &ConvLayer,
    arch: &ArchConfig,
    options: &TilingOptions,
) -> Vec<TilingFactors> {
    let mut seen = BTreeSet::new();
    // Each viable tiling carries its estimate, computed once: the sort
    // key is `(estimate, num_ops, factors)`.
    let mut viable: Vec<(f64, TilingFactors)> = Vec::new();

    for &k in &options.channel_candidates {
        for &c in &options.channel_candidates {
            for &h in &options.spatial_candidates {
                for &w in &options.spatial_candidates {
                    let f = TilingFactors::normalized(layer, k, c, h, w);
                    if !seen.insert(f) {
                        continue;
                    }
                    if f.num_ops_for(layer) > options.max_ops {
                        continue;
                    }
                    if working_set_bytes(layer, &f, arch) <= arch.spm_bytes() {
                        viable.push((estimate_metric(layer, &f, arch), f));
                    }
                }
            }
        }
    }

    let by_estimate = |(ea, a): &(f64, TilingFactors), (eb, b): &(f64, TilingFactors)| {
        ea.total_cmp(eb)
            .then_with(|| a.num_ops().cmp(&b.num_ops()))
            .then_with(|| a.cmp(b))
    };
    viable.sort_by(by_estimate);
    if options.max_tilings > 0 && viable.len() > options.max_tilings {
        // Keep half the budget for the best analytical estimates and
        // half for the coarsest tilings: the estimate cannot see
        // reloads, and coarse tilings — whose large tiles minimize
        // mandatory traffic — are reliable low-transfer candidates the
        // estimate tends to undervalue.
        let est_half = options.max_tilings - options.max_tilings / 2;
        let mut rest = viable.split_off(est_half);
        rest.sort_by_key(|&(_, f)| (f.num_ops_for(layer), f));
        rest.truncate(options.max_tilings - est_half);
        viable.extend(rest);
        viable.sort_by(by_estimate);
    }
    viable.into_iter().map(|(_, f)| f).collect()
}

/// Analytically estimates the `latency x transfer` quality of a tiling
/// (lower is better), used only to *rank* viable tilings before
/// truncation:
///
/// * latency ∝ `MACs / parallelism`, where the achievable parallelism
///   is bounded by how many per-operation working sets fit the shared
///   buffer concurrently — tilings whose working set monopolizes the
///   buffer serialize the cores;
/// * transfer is lower-bounded by the sum of all distinct tile bytes
///   (every tile moves at least once; finer spatial tilings pay more
///   halo overlap).
///
/// The estimate ignores reloads and spills — those depend on the
/// schedule — but separates serializing from parallelizable tilings
/// and heavily-overlapping from compact ones, which is what the
/// truncation decision needs.
#[must_use]
pub fn estimate_metric(layer: &ConvLayer, f: &TilingFactors, arch: &ArchConfig) -> f64 {
    let ws = working_set_bytes(layer, f, arch).max(1);
    let fit = (arch.spm_bytes() / ws).max(1);
    let parallelism = u64::from(arch.cores())
        .min(fit)
        .min(f.num_ops_for(layer).max(1));
    let latency = layer.macs() as f64 / parallelism as f64;

    let elem = arch.element_size().bytes();
    let mut in_bytes = 0u64;
    for sh in 0..f.h() {
        let (h0, he) = f.h_range(layer, sh);
        let ih = u64::from(input_extent(
            h0,
            he,
            layer.stride(),
            layer.kernel_h(),
            layer.padding(),
            layer.in_height(),
        ));
        for sw in 0..f.w() {
            let (w0, we) = f.w_range(layer, sw);
            let iw = u64::from(input_extent(
                w0,
                we,
                layer.stride(),
                layer.kernel_w(),
                layer.padding(),
                layer.in_width(),
            ));
            in_bytes += u64::from(layer.in_channels()) * ih * iw * elem;
        }
    }
    let traffic = in_bytes
        + layer.weight_bytes(arch.element_size())
        + layer.output_bytes(arch.element_size());
    latency * traffic as f64
}

/// Byte size of the largest single-operation working set under `f`:
/// first input tile + first weight tile + first output tile (tile 0 is
/// always the largest since later tiles only shrink at the edges).
#[must_use]
pub(crate) fn working_set_bytes(layer: &ConvLayer, f: &TilingFactors, arch: &ArchConfig) -> u64 {
    let elem = arch.element_size().bytes();
    let kc = u64::from(f.k_extent(layer, 0));
    let cc = u64::from(f.c_extent(layer, 0));
    let (h0, he) = f.h_range(layer, 0);
    let (w0, we) = f.w_range(layer, 0);
    let ih = u64::from(input_extent(
        h0,
        he,
        layer.stride(),
        layer.kernel_h(),
        layer.padding(),
        layer.in_height(),
    ));
    let iw = u64::from(input_extent(
        w0,
        we,
        layer.stride(),
        layer.kernel_w(),
        layer.padding(),
        layer.in_width(),
    ));
    let input = cc * ih * iw * elem;
    let taps = u64::from(layer.kernel_h()) * u64::from(layer.kernel_w());
    // A grouped weight tile holds one K/G x C/G block per covered
    // group, not the dense kc x cc cross product.
    let weight = if layer.kind().is_grouped() {
        u64::from(f.group_extent(layer, 0))
            * u64::from(layer.out_channels_per_group())
            * u64::from(layer.in_channels_per_group())
            * taps
            * elem
    } else {
        kc * cc * taps * elem
    };
    let output = kc * u64::from(he) * u64::from(we) * elem;
    input + weight + output
}

/// Number of input rows (or columns) a spatial output range needs:
/// the rows `[start*stride - pad, (start+len-1)*stride - pad + kernel - 1]`
/// clamped to the stored input `[0, in_extent)`. Padding rows are not
/// stored and cost nothing.
#[must_use]
pub(crate) fn input_extent(
    out_start: u32,
    out_len: u32,
    stride: u32,
    kernel: u32,
    pad: u32,
    in_extent: u32,
) -> u32 {
    debug_assert!(out_len > 0);
    let first = (out_start * stride) as i64 - i64::from(pad);
    let last = ((out_start + out_len - 1) * stride + kernel - 1) as i64 - i64::from(pad);
    let first = first.max(0);
    let last = last.min(i64::from(in_extent) - 1);
    if last < first {
        0
    } else {
        (last - first + 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_arch::ArchPreset;
    use flexer_model::ConvLayerBuilder;

    fn layer(c: u32, hw: u32, k: u32) -> ConvLayer {
        ConvLayer::new("t", c, hw, hw, k).unwrap()
    }

    #[test]
    fn normalization_removes_empty_tiles() {
        let l = layer(12, 12, 12);
        let f = TilingFactors::normalized(&l, 5, 5, 5, 5);
        // 12 split into 5 -> base 3 -> 4 non-empty tiles.
        assert_eq!((f.k(), f.c(), f.h(), f.w()), (4, 4, 4, 4));
    }

    #[test]
    fn requests_clamp_to_extent() {
        let l = layer(3, 8, 2);
        let f = TilingFactors::normalized(&l, 100, 100, 100, 100);
        assert_eq!((f.k(), f.c()), (2, 3));
        assert_eq!((f.h(), f.w()), (8, 8));
    }

    #[test]
    fn extents_sum_to_dimension() {
        let l = layer(13, 17, 7);
        let f = TilingFactors::normalized(&l, 3, 4, 5, 6);
        let ks: u32 = (0..f.k()).map(|i| f.k_extent(&l, i)).sum();
        let cs: u32 = (0..f.c()).map(|i| f.c_extent(&l, i)).sum();
        let hs: u32 = (0..f.h()).map(|i| f.h_range(&l, i).1).sum();
        let ws: u32 = (0..f.w()).map(|i| f.w_range(&l, i).1).sum();
        assert_eq!(ks, 7);
        assert_eq!(cs, 13);
        assert_eq!(hs, 17);
        assert_eq!(ws, 17);
    }

    #[test]
    fn ranges_are_contiguous() {
        let l = layer(8, 19, 8);
        let f = TilingFactors::normalized(&l, 1, 1, 4, 4);
        let mut next = 0;
        for i in 0..f.h() {
            let (start, len) = f.h_range(&l, i);
            assert_eq!(start, next);
            assert!(len > 0);
            next = start + len;
        }
        assert_eq!(next, 19);
    }

    #[test]
    fn input_extent_same_conv() {
        // 3x3 stride-1 pad-1 over 8 rows: a 4-row interior output tile
        // needs 4+2 input rows minus clamping at borders.
        assert_eq!(input_extent(0, 4, 1, 3, 1, 8), 5); // top: pad row free
        assert_eq!(input_extent(4, 4, 1, 3, 1, 8), 5); // bottom: pad row free
        assert_eq!(input_extent(0, 8, 1, 3, 1, 8), 8); // full extent
        assert_eq!(input_extent(2, 4, 1, 3, 1, 8), 6); // interior: both halos
    }

    #[test]
    fn input_extent_strided() {
        // 7x7 stride-2 pad-3 (ResNet stem), 224 input, 112 output.
        assert_eq!(input_extent(0, 112, 2, 7, 3, 224), 224);
        // First half of the output needs the first ~113 input rows.
        assert_eq!(input_extent(0, 56, 2, 7, 3, 224), 114);
    }

    #[test]
    fn input_extent_pointwise() {
        assert_eq!(input_extent(3, 4, 1, 1, 0, 16), 4);
    }

    #[test]
    fn enumeration_filters_oversized_working_sets() {
        let arch = ArchConfig::preset(ArchPreset::Arch1); // 256 KiB
        let l = layer(512, 28, 512);
        let tilings = enumerate_tilings(&l, &arch, &TilingOptions::default());
        assert!(!tilings.is_empty());
        for f in &tilings {
            assert!(working_set_bytes(&l, f, &arch) <= arch.spm_bytes());
        }
        // The untiled layer (1,1,1,1) must have been rejected: the full
        // working set is ~1 MiB.
        assert!(!tilings.contains(&TilingFactors::normalized(&l, 1, 1, 1, 1)));
    }

    #[test]
    fn enumeration_allows_untiled_small_layers() {
        let arch = ArchConfig::preset(ArchPreset::Arch4); // 512 KiB
        let l = layer(16, 14, 16);
        let tilings = enumerate_tilings(&l, &arch, &TilingOptions::default());
        assert!(tilings.contains(&TilingFactors::normalized(&l, 1, 1, 1, 1)));
    }

    #[test]
    fn estimate_prefers_parallelizable_tilings() {
        let arch = ArchConfig::preset(ArchPreset::Arch5); // 4 cores
        let l = layer(512, 28, 512);
        // A tiling whose working set monopolizes the buffer serializes
        // the four cores; a finer one that fits four working sets is
        // estimated ~4x faster at comparable traffic.
        let coarse = TilingFactors::normalized(&l, 4, 8, 1, 1);
        let fine = TilingFactors::normalized(&l, 8, 8, 2, 2);
        assert!(estimate_metric(&l, &fine, &arch) < estimate_metric(&l, &coarse, &arch));
    }

    #[test]
    fn estimate_penalizes_halo_overlap() {
        let arch = ArchConfig::preset(ArchPreset::Arch5);
        let l = layer(64, 56, 64);
        // Same parallelism, but 8x8 spatial tiles of a 3x3 conv pay
        // far more input halo than 2x2 tiles.
        let compact = TilingFactors::normalized(&l, 8, 1, 2, 2);
        let shredded = TilingFactors::normalized(&l, 8, 1, 8, 8);
        assert!(estimate_metric(&l, &compact, &arch) < estimate_metric(&l, &shredded, &arch));
    }

    #[test]
    fn truncation_keeps_best_estimates() {
        let arch = ArchConfig::preset(ArchPreset::Arch5);
        let l = layer(256, 28, 256);
        let all = enumerate_tilings(
            &l,
            &arch,
            &TilingOptions {
                max_tilings: 0,
                ..Default::default()
            },
        );
        let kept = enumerate_tilings(
            &l,
            &arch,
            &TilingOptions {
                max_tilings: 5,
                ..Default::default()
            },
        );
        assert_eq!(kept.len(), 5);
        // Half the budget keeps the best estimates...
        for f in &all[..3] {
            assert!(kept.contains(f), "{f} missing from truncation");
        }
        // ...and the rest keeps the coarsest tilings.
        let coarsest = all.iter().map(TilingFactors::num_ops).min().unwrap();
        assert!(kept.iter().any(|f| f.num_ops() == coarsest));
        // The full list is sorted by ascending estimate.
        for pair in all.windows(2) {
            assert!(estimate_metric(&l, &pair[0], &arch) <= estimate_metric(&l, &pair[1], &arch));
        }
    }

    #[test]
    fn enumeration_respects_max_ops() {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let l = layer(256, 56, 256);
        let opts = TilingOptions {
            max_ops: 64,
            ..Default::default()
        };
        for f in enumerate_tilings(&l, &arch, &opts) {
            assert!(f.num_ops() <= 64);
        }
    }

    #[test]
    fn enumeration_sorted_and_truncated() {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let l = layer(128, 28, 128);
        let opts = TilingOptions {
            max_tilings: 5,
            ..Default::default()
        };
        let tilings = enumerate_tilings(&l, &arch, &opts);
        assert!(tilings.len() <= 5);
        for pair in tilings.windows(2) {
            assert!(estimate_metric(&l, &pair[0], &arch) <= estimate_metric(&l, &pair[1], &arch));
        }
    }

    /// [`enumerate_tilings`] as it was before the estimate was cached:
    /// the sort re-estimates both tilings inside every comparison.
    fn enumerate_tilings_reference(
        layer: &ConvLayer,
        arch: &ArchConfig,
        options: &TilingOptions,
    ) -> Vec<TilingFactors> {
        let mut seen = BTreeSet::new();
        let mut viable = Vec::new();
        for &k in &options.channel_candidates {
            for &c in &options.channel_candidates {
                for &h in &options.spatial_candidates {
                    for &w in &options.spatial_candidates {
                        let f = TilingFactors::normalized(layer, k, c, h, w);
                        if seen.insert(f)
                            && f.num_ops_for(layer) <= options.max_ops
                            && working_set_bytes(layer, &f, arch) <= arch.spm_bytes()
                        {
                            viable.push(f);
                        }
                    }
                }
            }
        }
        let by_estimate = |a: &TilingFactors, b: &TilingFactors| {
            estimate_metric(layer, a, arch)
                .total_cmp(&estimate_metric(layer, b, arch))
                .then_with(|| a.num_ops().cmp(&b.num_ops()))
                .then_with(|| a.cmp(b))
        };
        viable.sort_by(by_estimate);
        if options.max_tilings > 0 && viable.len() > options.max_tilings {
            let est_half = options.max_tilings - options.max_tilings / 2;
            let mut rest = viable.split_off(est_half);
            rest.sort_by_key(|f| (f.num_ops_for(layer), *f));
            rest.truncate(options.max_tilings - est_half);
            viable.extend(rest);
            viable.sort_by(by_estimate);
        }
        viable
    }

    #[test]
    fn cached_estimates_sort_like_the_per_comparison_reference() {
        let option_sets = [
            TilingOptions::default(),
            TilingOptions {
                max_ops: 256,
                max_tilings: 10,
                ..Default::default()
            },
        ];
        let mut layers = Vec::new();
        for net in flexer_model::networks::all() {
            for l in net.layers() {
                if !layers.contains(l) {
                    layers.push(l.clone());
                }
            }
        }
        for arch in [
            ArchConfig::preset(ArchPreset::Arch1),
            ArchConfig::preset(ArchPreset::Arch5),
            ArchConfig::hetero1(),
        ] {
            for l in &layers {
                for opts in &option_sets {
                    assert_eq!(
                        enumerate_tilings(l, &arch, opts),
                        enumerate_tilings_reference(l, &arch, opts),
                        "{} max_tilings={}",
                        l.name(),
                        opts.max_tilings
                    );
                }
            }
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let arch = ArchConfig::preset(ArchPreset::Arch5);
        let l = layer(64, 56, 64);
        let a = enumerate_tilings(&l, &arch, &TilingOptions::default());
        let b = enumerate_tilings(&l, &arch, &TilingOptions::default());
        assert_eq!(a, b);
    }

    fn grouped(c: u32, hw: u32, k: u32, g: u32) -> ConvLayer {
        ConvLayerBuilder::new("g", c, hw, hw, k)
            .kernel(3, 3)
            .padding(1)
            .groups(g)
            .build()
            .unwrap()
    }

    #[test]
    fn grouped_factors_share_one_channel_tile_count() {
        let l = grouped(8, 8, 12, 4);
        // Asymmetric channel requests collapse to one group tiling.
        let f = TilingFactors::normalized(&l, 4, 2, 1, 1);
        assert_eq!(f.k(), f.c());
        assert!(f.k() <= 4, "at most one tile per group");
    }

    #[test]
    fn grouped_extents_are_group_aligned() {
        // Regression: computing dim_extent over K directly (12 into 2
        // tiles -> 6,6) happens to align here, but over C (8 into 2 ->
        // 4,4) vs groups-of-2 it must scale whole groups. Check every
        // tile's extent is a whole number of groups on both axes.
        let l = grouped(8, 8, 12, 4);
        let f = TilingFactors::normalized(&l, 3, 3, 1, 1);
        let kpg = l.out_channels_per_group();
        let cpg = l.in_channels_per_group();
        let mut k_sum = 0;
        let mut c_sum = 0;
        let mut g_sum = 0;
        for i in 0..f.k() {
            assert_eq!(f.k_extent(&l, i) % kpg, 0, "tile {i} straddles a group");
            assert_eq!(f.c_extent(&l, i) % cpg, 0, "tile {i} straddles a group");
            assert_eq!(f.k_extent(&l, i) / kpg, f.group_extent(&l, i));
            k_sum += f.k_extent(&l, i);
            c_sum += f.c_extent(&l, i);
            g_sum += f.group_extent(&l, i);
        }
        assert_eq!(k_sum, 12);
        assert_eq!(c_sum, 8);
        assert_eq!(g_sum, 4);
    }

    #[test]
    fn depthwise_tiles_clamp_to_group_count() {
        let l = grouped(16, 8, 16, 16);
        let f = TilingFactors::normalized(&l, 100, 100, 1, 1);
        assert_eq!((f.k(), f.c()), (16, 16));
        assert_eq!(f.k_extent(&l, 0), 1);
    }

    #[test]
    fn grouped_op_count_is_diagonal_only() {
        let l = grouped(8, 8, 8, 4);
        let f = TilingFactors::normalized(&l, 4, 4, 2, 2);
        assert_eq!(f.num_ops(), 4 * 4 * 2 * 2, "dense iteration space");
        assert_eq!(f.num_ops_for(&l), 4 * 2 * 2, "diagonal ops only");
        // Dense layers are unchanged.
        let d = layer(8, 8, 8);
        let fd = TilingFactors::normalized(&d, 4, 4, 2, 2);
        assert_eq!(fd.num_ops_for(&d), fd.num_ops());
    }

    #[test]
    fn grouped_working_set_counts_block_diagonal_weights() {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let g = grouped(32, 8, 32, 8);
        let f = TilingFactors::normalized(&g, 1, 1, 1, 1);
        // Equivalent dense geometry for comparison.
        let d = layer(32, 8, 32);
        let fd = TilingFactors::normalized(&d, 1, 1, 1, 1);
        let ws_g = working_set_bytes(&g, &f, &arch);
        let ws_d = working_set_bytes(&d, &fd, &arch);
        // Same activations; weights shrink by the group factor.
        let delta = d.weight_bytes(arch.element_size()) - g.weight_bytes(arch.element_size());
        assert_eq!(ws_d - ws_g, delta);
    }

    #[test]
    fn grouped_enumeration_respects_max_ops_on_actual_ops() {
        // Regression: filtering on the dense k*c*h*w count would
        // reject fine group tilings whose actual diagonal op count is
        // within budget.
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let l = grouped(64, 28, 64, 64);
        let opts = TilingOptions {
            max_ops: 64,
            ..Default::default()
        };
        let tilings = enumerate_tilings(&l, &arch, &opts);
        assert!(!tilings.is_empty());
        for f in &tilings {
            assert!(f.num_ops_for(&l) <= 64);
        }
        // At least one tiling with more than 8 group tiles survives
        // (its dense cross-product count would exceed the cap).
        assert!(
            tilings.iter().any(|f| f.k() >= 16 && f.num_ops() > 64),
            "diagonal-count filter should admit fine group tilings: {tilings:?}"
        );
    }

    #[test]
    fn strided_layer_working_set_uses_halo() {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let l = ConvLayerBuilder::new("s", 64, 56, 56, 64)
            .kernel(3, 3)
            .stride(2)
            .padding(1)
            .build()
            .unwrap();
        let f = TilingFactors::normalized(&l, 1, 1, 2, 2);
        // Output 28x28 -> 14-row tiles need (14-1)*2+3 = 29 input rows
        // (minus border clamping).
        let ws = working_set_bytes(&l, &f, &arch);
        assert!(ws > 0);
        let ih = input_extent(0, 14, 2, 3, 1, 56);
        assert_eq!(ih, 28);
    }
}
