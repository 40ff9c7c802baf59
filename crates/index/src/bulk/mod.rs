//! Bulk-loading (packing) algorithms for the rectangle trees.
//!
//! The paper's discussion (§VII) notes that when no index exists one must
//! be built, and cites bulk-loading as the fast path (\[22\]–\[24\]). We
//! implement three published loaders:
//!
//! * [`str_pack`] — Sort-Tile-Recursive (Leutenegger et al. / García et
//!   al., GIS 1998 lineage): recursive dimension-ordered tiling.
//! * [`hilbert_pack`] — Hilbert-sort packing (Kamel & Faloutsos style, the
//!   approach of Berchtold et al. 1998 for high-dimensional loads).
//! * [`omt_pack`] — Overlap-Minimizing Top-down loading (Lee & Lee,
//!   CAiSE 2003).
//!
//! All three produce a [`RectCore`] directly usable as an R-tree or
//! R*-tree, and are how the experiment harness builds the 1.5M-point
//! Pacific NW tree in seconds.

pub mod hilbert;
mod sort;

use std::ops::Range;

use crate::arena::NodeId;
use crate::rect::{RNode, RectCore};
use crate::traits::LeafEntry;
use crate::RTreeConfig;
use csj_geom::{Mbr, Point, RecordId};
use sort::{order_key, sort_all, threads_for, Sorter};

/// Inputs of at least this many items are sorted on all available
/// cores; smaller ones stay on the calling thread. Either way a loader
/// builds the same tree.
pub use sort::PARALLEL_MIN_ITEMS;

pub(crate) fn make_entries<const D: usize>(points: &[Point<D>]) -> Vec<LeafEntry<D>> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            debug_assert!(p.is_finite(), "non-finite point in bulk load");
            LeafEntry::new(i as RecordId, *p)
        })
        .collect()
}

/// Packs `points` into a tree with Sort-Tile-Recursive tiling. Record ids
/// are the indexes into `points`.
pub fn str_pack<const D: usize>(points: &[Point<D>], config: RTreeConfig) -> RectCore<D> {
    config.validate();
    let mut core = RectCore::new(config);
    if points.is_empty() {
        return core;
    }
    let cap = config.max_fanout;
    let mut entries = make_entries(points);
    let chunks = str_chunks::<_, D>(&mut entries, cap, |e, d| e.point[d]);
    let mut level_nodes = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        level_nodes.push(alloc_leaf(&mut core, &entries[chunk]));
    }
    core.num_records = points.len();
    pack_upper_levels_str(&mut core, level_nodes);
    core
}

/// Packs `points` in Hilbert-curve order. Record ids are the indexes into
/// `points`.
pub fn hilbert_pack<const D: usize>(points: &[Point<D>], config: RTreeConfig) -> RectCore<D> {
    config.validate();
    let mut core = RectCore::new(config);
    if points.is_empty() {
        return core;
    }
    // csj-lint: allow(panic-safety) — the empty case returned above, so
    // `from_points` always has at least one point.
    let bounds = Mbr::from_points(points).expect("non-empty");
    let bits = hilbert::DEFAULT_BITS;
    let mut entries = make_entries(points);
    sort_all(&mut entries, |e| {
        let mut q = [0u32; D];
        for (i, slot) in q.iter_mut().enumerate() {
            *slot = hilbert::quantize(e.point[i], bounds.lo[i], bounds.hi[i], bits);
        }
        hilbert::hilbert_key(q, bits)
    });
    let cap = config.max_fanout;
    let mut level_nodes = Vec::new();
    for chunk in balanced_chunks(0..entries.len(), cap) {
        level_nodes.push(alloc_leaf(&mut core, &entries[chunk]));
    }
    core.num_records = points.len();
    // The Hilbert order is already locality-preserving; chunk consecutive
    // runs at every level.
    pack_upper_levels_ordered(&mut core, level_nodes);
    core
}

/// Packs `points` with Overlap-Minimizing Top-down bulk loading. Record
/// ids are the indexes into `points`.
pub fn omt_pack<const D: usize>(points: &[Point<D>], config: RTreeConfig) -> RectCore<D> {
    config.validate();
    let mut core = RectCore::new(config);
    if points.is_empty() {
        return core;
    }
    let mut entries = make_entries(points);
    let cap = config.max_fanout;
    let height = height_for(entries.len(), cap);
    let root = omt_build(&mut core, &mut entries, cap, height);
    core.root = Some(root);
    core.num_records = points.len();
    core
}

/// Smallest `h` with `cap^h >= n` (tree height in levels).
fn height_for(n: usize, cap: usize) -> u32 {
    let mut h = 1u32;
    let mut reach = cap as u128;
    while (n as u128) > reach {
        h += 1;
        reach = reach.saturating_mul(cap as u128);
    }
    h
}

/// The bounding rectangle of a leaf's entries.
pub(crate) fn leaf_mbr<const D: usize>(entries: &[LeafEntry<D>]) -> Mbr<D> {
    let mut m = Mbr::empty();
    for e in entries {
        m.expand_to_point(&e.point);
    }
    m
}

fn alloc_leaf<const D: usize>(core: &mut RectCore<D>, entries: &[LeafEntry<D>]) -> NodeId {
    debug_assert!(!entries.is_empty());
    let mut leaf = RNode::new_leaf();
    leaf.mbr = leaf_mbr(entries);
    leaf.entries = entries.to_vec().into();
    core.arena.alloc(leaf)
}

/// Splits `range` into consecutive chunks of at most `cap` with all sizes
/// as equal as possible (never below `cap / 2`, so min-fanout holds for
/// `m <= M/2`).
fn balanced_chunks(range: Range<usize>, cap: usize) -> impl Iterator<Item = Range<usize>> {
    let n = range.len();
    let k = n.div_ceil(cap);
    let (base, extra) = n.checked_div(k).map_or((0, 0), |base| (base, n % k)); // first `extra` get one more
    let mut start = range.start;
    (0..k).map(move |i| {
        let end = start + base + usize::from(i < extra);
        let chunk = start..end;
        start = end;
        chunk
    })
}

/// Recursive STR tiling of `items`, in place: sort by the current
/// dimension, cut into slabs, tile each slab by the next dimension; the
/// last dimension chunks directly, and a slab of at most `cap` items is
/// a chunk as it stands. Returns the chunks as consecutive ranges of the
/// tiled `items`.
///
/// Each dimension is one level of independent slabs, sorted together by
/// one [`Sorter`], so the slabs of a large input are spread over cores.
pub(crate) fn str_chunks<T, const D: usize>(
    items: &mut [T],
    cap: usize,
    key: fn(&T, usize) -> f64,
) -> Vec<Range<usize>>
where
    T: Copy + Send + Sync,
{
    str_chunks_on::<T, D>(items, cap, key, threads_for(items.len()))
}

fn str_chunks_on<T, const D: usize>(
    items: &mut [T],
    cap: usize,
    key: fn(&T, usize) -> f64,
    threads: usize,
) -> Vec<Range<usize>>
where
    T: Copy + Send + Sync,
{
    let mut sorter = Sorter::new(threads);
    let mut chunks = Vec::new();
    let mut slabs: Vec<Range<usize>> = std::iter::once(0..items.len()).collect();
    for dim in 0..D {
        let (small, runs): (Vec<_>, Vec<_>) = slabs.into_iter().partition(|r| r.len() <= cap);
        chunks.extend(small.into_iter().filter(|r| !r.is_empty()));
        sorter.sort_runs(items, &runs, |t| order_key(key(t, dim)));
        slabs = Vec::new();
        for run in runs {
            if dim == D - 1 {
                chunks.extend(balanced_chunks(run, cap));
                continue;
            }
            // Number of leaves this slab will produce, tiled into
            // `slices` slabs along this dimension.
            let n = run.len();
            let leaves = n.div_ceil(cap);
            let remaining_dims = (D - dim) as f64;
            let slices = (leaves as f64).powf(1.0 / remaining_dims).ceil() as usize;
            let slices = slices.clamp(1, leaves);
            slabs.extend(balanced_chunks(run, n.div_ceil(slices)));
        }
    }
    // Every slab is tiled within its own range, so range order is the
    // order the recursive tiling emits its chunks in.
    chunks.sort_unstable_by_key(|r| r.start);
    chunks
}

/// Builds internal levels by STR-tiling node centers.
fn pack_upper_levels_str<const D: usize>(core: &mut RectCore<D>, mut level_nodes: Vec<NodeId>) {
    let cap = core.config.max_fanout;
    let mut level = 1u32;
    while level_nodes.len() > 1 {
        let mut items: Vec<(NodeId, Point<D>)> =
            level_nodes.iter().map(|&id| (id, core.node(id).mbr.center())).collect();
        let groups = str_chunks::<_, D>(&mut items, cap, |it, d| it.1[d]);
        let groups = groups.into_iter().map(|g| items[g].iter().map(|&(id, _)| id).collect());
        level_nodes = attach_groups(core, groups, level);
        level += 1;
    }
    core.root = level_nodes.pop();
    if let Some(root) = core.root {
        core.node_mut(root).parent = None;
    }
}

/// Builds internal levels by chunking consecutive runs (order preserved).
fn pack_upper_levels_ordered<const D: usize>(core: &mut RectCore<D>, mut level_nodes: Vec<NodeId>) {
    let cap = core.config.max_fanout;
    let mut level = 1u32;
    while level_nodes.len() > 1 {
        let groups = balanced_chunks(0..level_nodes.len(), cap).map(|g| level_nodes[g].to_vec());
        level_nodes = attach_groups(core, groups, level);
        level += 1;
    }
    core.root = level_nodes.pop();
    if let Some(root) = core.root {
        core.node_mut(root).parent = None;
    }
}

fn attach_groups<const D: usize>(
    core: &mut RectCore<D>,
    groups: impl Iterator<Item = Vec<NodeId>>,
    level: u32,
) -> Vec<NodeId> {
    let mut parents = Vec::new();
    for group in groups {
        debug_assert!(!group.is_empty());
        let parent = core.arena.alloc(RNode::new_internal(level));
        let mut mbr = Mbr::empty();
        for &child in &group {
            core.node_mut(child).parent = Some(parent);
            mbr.expand_to_mbr(&core.node(child).mbr);
        }
        let p = core.node_mut(parent);
        p.children = group;
        p.mbr = mbr;
        parents.push(parent);
    }
    parents
}

/// OMT recursion: builds a subtree of exactly `height` levels over
/// `entries` (`entries.len() <= cap^height`).
fn omt_build<const D: usize>(
    core: &mut RectCore<D>,
    entries: &mut [LeafEntry<D>],
    cap: usize,
    height: u32,
) -> NodeId {
    if height == 1 {
        debug_assert!(entries.len() <= cap);
        return alloc_leaf(core, entries);
    }
    let subtree_cap = (cap as u128).pow(height - 1);
    let k = ((entries.len() as u128).div_ceil(subtree_cap) as usize).clamp(2, cap);
    let groups = slice_groups::<D>(entries, k, 0);
    let children: Vec<NodeId> =
        groups.into_iter().map(|g| omt_build(core, &mut entries[g], cap, height - 1)).collect();
    let parent = core.arena.alloc(RNode::new_internal(height - 1));
    let mut mbr = Mbr::empty();
    for &c in &children {
        core.node_mut(c).parent = Some(parent);
        mbr.expand_to_mbr(&core.node(c).mbr);
    }
    let p = core.node_mut(parent);
    p.children = children;
    p.mbr = mbr;
    parent
}

/// Partitions `items`, in place, into exactly `k` consecutive groups of
/// near-equal size by recursive dimension-sorted slicing (the OMT
/// partition step); returns the groups' ranges.
fn slice_groups<const D: usize>(
    items: &mut [LeafEntry<D>],
    k: usize,
    dim: usize,
) -> Vec<Range<usize>> {
    debug_assert!(k >= 1);
    let n = items.len();
    if k == 1 {
        return std::iter::once(0..n).collect();
    }
    sort_all(items, |e| order_key(e.point[dim]));
    if dim == D - 1 {
        return equal_partition(n, k);
    }
    let remaining_dims = (D - dim) as f64;
    let slices = ((k as f64).powf(1.0 / remaining_dims).ceil() as usize).clamp(1, k);
    // Distribute the k groups over the slices, then the items over the
    // slices proportionally.
    let mut out = Vec::with_capacity(k);
    let mut assigned_items = 0usize;
    let mut assigned_groups = 0usize;
    for &gc in &spread(k, slices) {
        // Proportional share of items for gc of the k groups.
        let slab = assigned_items..(assigned_groups + gc) * n / k;
        assigned_items = slab.end;
        assigned_groups += gc;
        let groups = slice_groups::<D>(&mut items[slab.clone()], gc, dim + 1);
        out.extend(groups.into_iter().map(|g| slab.start + g.start..slab.start + g.end));
    }
    out
}

/// Distributes `k` units over `s` buckets as evenly as possible.
fn spread(k: usize, s: usize) -> Vec<usize> {
    let base = k / s;
    let extra = k % s;
    (0..s).map(|i| base + usize::from(i < extra)).collect()
}

/// Splits `0..n` into exactly `k` consecutive ranges, sizes equal ±1.
fn equal_partition(n: usize, k: usize) -> Vec<Range<usize>> {
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_rect_tree;
    use csj_geom::Metric;

    fn scatter(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let x = ((i * 2654435761) % 100_000) as f64 / 100_000.0;
                let y = ((i * 40503 + 17) % 100_000) as f64 / 100_000.0;
                Point::new([x, y])
            })
            .collect()
    }

    fn check_loader(name: &str, build: fn(&[Point<2>], RTreeConfig) -> RectCore<2>) {
        for n in [1usize, 7, 49, 50, 51, 500, 2500] {
            let pts = scatter(n);
            let core = build(&pts, RTreeConfig::with_max_fanout(10));
            assert_eq!(core.num_records, n, "{name} n={n}");
            validate_rect_tree(&core).unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
            // Every record present exactly once.
            let mut ids: Vec<u32> = core.iter_records().map(|e| e.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..n as u32).collect::<Vec<_>>(), "{name} n={n}");
        }
    }

    #[test]
    fn str_valid_at_many_sizes() {
        check_loader("str", str_pack);
    }

    #[test]
    fn hilbert_valid_at_many_sizes() {
        check_loader("hilbert", hilbert_pack);
    }

    #[test]
    fn omt_valid_at_many_sizes() {
        check_loader("omt", omt_pack);
    }

    #[test]
    fn empty_input_gives_empty_tree() {
        let none: [Point<2>; 0] = [];
        for build in [str_pack, hilbert_pack, omt_pack] {
            let core: RectCore<2> = build(&none, RTreeConfig::default());
            assert!(core.root.is_none());
            assert_eq!(core.num_records, 0);
        }
    }

    #[test]
    fn loaders_answer_queries_correctly() {
        let pts = scatter(1200);
        let center = Point::new([0.4, 0.6]);
        let eps = 0.15;
        let mut want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| center.euclidean(p) <= eps)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        for (name, build) in [
            ("str", str_pack as fn(&[Point<2>], RTreeConfig) -> RectCore<2>),
            ("hilbert", hilbert_pack),
            ("omt", omt_pack),
        ] {
            let core = build(&pts, RTreeConfig::with_max_fanout(16));
            let mut got = core.range_query_ball(&center, eps, Metric::Euclidean);
            got.sort_unstable();
            assert_eq!(got, want, "{name} query mismatch");
        }
    }

    #[test]
    fn packed_trees_are_denser_than_dynamic() {
        let pts = scatter(2000);
        let cfg = RTreeConfig::with_max_fanout(10);
        let packed = str_pack(&pts, cfg);
        let dynamic = crate::rstar::RStarTree::from_points(&pts, cfg);
        use crate::traits::JoinIndex;
        assert!(
            packed.node_count() < dynamic.core().node_count(),
            "packing should use fewer nodes ({} vs {})",
            packed.node_count(),
            dynamic.core().node_count()
        );
        assert_eq!(dynamic.num_records(), 2000);
    }

    #[test]
    fn height_for_values() {
        assert_eq!(height_for(1, 10), 1);
        assert_eq!(height_for(10, 10), 1);
        assert_eq!(height_for(11, 10), 2);
        assert_eq!(height_for(100, 10), 2);
        assert_eq!(height_for(101, 10), 3);
    }

    /// Points on a coarse grid, each repeated: nearly every coordinate
    /// is tied, so only an exactly stable order reproduces the chunks.
    fn tied_grid<const D: usize>(n: usize) -> Vec<Point<D>> {
        (0..n)
            .map(|i| {
                let h = (i / 3).wrapping_mul(2654435761);
                Point::new(std::array::from_fn(|d| ((h >> (5 * d)) % 13) as f64 / 13.0))
            })
            .collect()
    }

    /// The tiling of `points` on `threads` threads: the tiled entry ids
    /// and the chunk ranges.
    fn tiling<const D: usize>(
        points: &[Point<D>],
        cap: usize,
        threads: usize,
    ) -> (Vec<u32>, Vec<Range<usize>>) {
        let mut entries = make_entries(points);
        let chunks = str_chunks_on::<_, D>(&mut entries, cap, |e, d| e.point[d], threads);
        (entries.iter().map(|e| e.id).collect(), chunks)
    }

    #[test]
    fn threaded_str_tiling_matches_one_thread() {
        for n in [1usize, 9, 10, 11, 600, 1500] {
            let (p2, p3) = (tied_grid::<2>(n), tied_grid::<3>(n));
            for threads in [2, 3, 5] {
                assert_eq!(tiling(&p2, 10, threads), tiling(&p2, 10, 1), "2-d n={n}");
                assert_eq!(tiling(&p3, 6, threads), tiling(&p3, 6, 1), "3-d n={n}");
            }
        }
    }

    #[test]
    fn str_chunks_cover_the_input_in_order() {
        let pts = tied_grid::<2>(2345);
        let (ids, chunks) = tiling(&pts, 10, 1);
        assert_eq!(chunks.first().map(|c| c.start), Some(0));
        assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(chunks.last().map(|c| c.end), Some(2345));
        assert!(chunks.iter().all(|c| (5..=10).contains(&c.len())));
        let mut sorted = ids;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..2345).collect::<Vec<u32>>());
    }

    #[test]
    fn balanced_chunks_sizes() {
        let chunks: Vec<Range<usize>> = balanced_chunks(5..28, 10).collect();
        assert_eq!(chunks.len(), 3);
        let sizes: Vec<usize> = chunks.iter().map(Range::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 23);
        assert!(sizes.iter().all(|&s| s == 7 || s == 8));
        // Consecutive and covering.
        assert_eq!(chunks[0].start, 5);
        assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(chunks[2].end, 28);
        assert_eq!(balanced_chunks(3..3, 5).count(), 0);
    }

    #[test]
    fn equal_partition_exact() {
        let parts = equal_partition(10, 3);
        assert_eq!(parts.len(), 3);
        let sizes: Vec<usize> = parts.iter().map(Range::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
        // Order preserved: the ranges are consecutive from 0 to n.
        let flat: Vec<usize> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::validate::validate_rect_tree;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// All three loaders produce valid trees over arbitrary inputs
        /// (2-D and 3-D) and arbitrary small fanouts.
        #[test]
        fn loaders_valid_2d(
            pts in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 1..600),
            fanout in 4usize..20,
        ) {
            let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
            let cfg = RTreeConfig::with_max_fanout(fanout);
            for (name, core) in [
                ("str", str_pack(&points, cfg)),
                ("hilbert", hilbert_pack(&points, cfg)),
                ("omt", omt_pack(&points, cfg)),
            ] {
                prop_assert!(validate_rect_tree(&core).is_ok(), "{}", name);
                prop_assert_eq!(core.num_records, points.len(), "{}", name);
            }
        }

        #[test]
        fn loaders_valid_3d(
            pts in prop::collection::vec(prop::array::uniform3(0.0f64..1.0), 1..400),
            fanout in 4usize..16,
        ) {
            let points: Vec<Point<3>> = pts.into_iter().map(Point::new).collect();
            let cfg = RTreeConfig::with_max_fanout(fanout);
            for (name, core) in [
                ("str", str_pack(&points, cfg)),
                ("hilbert", hilbert_pack(&points, cfg)),
                ("omt", omt_pack(&points, cfg)),
            ] {
                prop_assert!(validate_rect_tree(&core).is_ok(), "{}", name);
                prop_assert_eq!(core.num_records, points.len(), "{}", name);
            }
        }
    }
}
