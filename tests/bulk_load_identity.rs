//! The bulk loaders against a reference copy of the stable-sort loaders
//! they replaced: on tie-heavy inputs (grid-snapped coordinates and exact
//! duplicate points, in 2-D and 3-D, below and above the size at which
//! the sort spreads over threads), STR and OMT must lay out the same
//! leaves in the same order with the same node MBRs, and the paged STR
//! build must write `str_pack`'s tree node for node.

use csj_geom::{Mbr, Point, RecordId};
use csj_index::bulk::PARALLEL_MIN_ITEMS;
use csj_index::paged::PagedTree;
use csj_index::rect::RectCore;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{PageId, RetryPolicy, SimulatedDisk};

/// One node in pre-order: level, MBR, and its record ids if a leaf.
#[derive(Debug, PartialEq)]
struct Shape<const D: usize> {
    level: u32,
    mbr: Mbr<D>,
    ids: Vec<RecordId>,
}

/// A node of the reference loaders' trees.
struct RefNode<const D: usize> {
    level: u32,
    mbr: Mbr<D>,
    ids: Vec<RecordId>,
    children: Vec<RefNode<D>>,
}

type Entry<const D: usize> = (RecordId, Point<D>);

fn ref_leaf<const D: usize>(entries: Vec<Entry<D>>) -> RefNode<D> {
    let mut mbr = Mbr::empty();
    for (_, p) in &entries {
        mbr.expand_to_point(p);
    }
    RefNode { level: 0, mbr, ids: entries.iter().map(|e| e.0).collect(), children: Vec::new() }
}

fn ref_internal<const D: usize>(level: u32, children: Vec<RefNode<D>>) -> RefNode<D> {
    let mut mbr = Mbr::empty();
    for c in &children {
        mbr.expand_to_mbr(&c.mbr);
    }
    RefNode { level, mbr, ids: Vec::new(), children }
}

fn flatten_ref<const D: usize>(node: &RefNode<D>, out: &mut Vec<Shape<D>>) {
    out.push(Shape { level: node.level, mbr: node.mbr, ids: node.ids.clone() });
    for c in &node.children {
        flatten_ref(c, out);
    }
}

fn flatten_core<const D: usize>(core: &RectCore<D>) -> Vec<Shape<D>> {
    let mut out = Vec::new();
    let mut stack: Vec<_> = core.root.into_iter().collect();
    while let Some(id) = stack.pop() {
        let n = core.node(id);
        let ids = n.entries.entries().iter().map(|e| e.id).collect();
        out.push(Shape { level: n.level, mbr: n.mbr, ids });
        stack.extend(n.children.iter().rev());
    }
    out
}

fn flatten_paged<const D: usize>(tree: &PagedTree<D, SimulatedDisk>) -> Vec<Shape<D>> {
    let mut out = Vec::new();
    let mut stack: Vec<(PageId, Option<Mbr<D>>)> =
        tree.root().map(|p| (p, None)).into_iter().collect();
    while let Some((page, stored)) = stack.pop() {
        let n = tree.node(page).expect("page reads from the simulated disk");
        if let Some(stored) = stored {
            assert_eq!(stored, n.mbr, "parent-stored child MBR on page {}", page.0);
        }
        let ids = n.entries.entries().iter().map(|e| e.id).collect();
        out.push(Shape { level: n.level, mbr: n.mbr, ids });
        stack.extend(n.children.iter().rev().map(|&(p, m)| (p, Some(m))));
    }
    out
}

// ---- Reference: the stable-sort loaders, as they were -------------------

fn ref_balanced_chunks<T>(items: Vec<T>, cap: usize) -> Vec<Vec<T>> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let k = n.div_ceil(cap);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut iter = items.into_iter();
    for i in 0..k {
        let take = base + usize::from(i < extra);
        out.push(iter.by_ref().take(take).collect());
    }
    out
}

fn ref_str_chunks<T, const D: usize>(
    items: Vec<T>,
    cap: usize,
    key: fn(&T, usize) -> f64,
) -> Vec<Vec<T>> {
    fn rec<T, const D: usize>(
        mut items: Vec<T>,
        dim: usize,
        cap: usize,
        key: fn(&T, usize) -> f64,
        out: &mut Vec<Vec<T>>,
    ) {
        let n = items.len();
        if n <= cap {
            if n > 0 {
                out.push(items);
            }
            return;
        }
        items.sort_by(|a, b| key(a, dim).total_cmp(&key(b, dim)));
        if dim == D - 1 {
            out.extend(ref_balanced_chunks(items, cap));
            return;
        }
        let leaves = n.div_ceil(cap);
        let remaining_dims = (D - dim) as f64;
        let slices = (leaves as f64).powf(1.0 / remaining_dims).ceil() as usize;
        let slices = slices.clamp(1, leaves);
        for slab in ref_balanced_chunks(items, n.div_ceil(slices)) {
            rec::<T, D>(slab, dim + 1, cap, key, out);
        }
    }
    let mut out = Vec::new();
    rec::<T, D>(items, 0, cap, key, &mut out);
    out
}

fn entries<const D: usize>(points: &[Point<D>]) -> Vec<Entry<D>> {
    points.iter().enumerate().map(|(i, p)| (i as RecordId, *p)).collect()
}

fn ref_str_pack<const D: usize>(points: &[Point<D>], cap: usize) -> Vec<Shape<D>> {
    let chunks = ref_str_chunks::<_, D>(entries(points), cap, |e, d| e.1[d]);
    let mut level_nodes: Vec<RefNode<D>> = chunks.into_iter().map(ref_leaf).collect();
    let mut level = 1;
    while level_nodes.len() > 1 {
        let items: Vec<(RefNode<D>, Point<D>)> = level_nodes
            .into_iter()
            .map(|n| {
                let c = n.mbr.center();
                (n, c)
            })
            .collect();
        let groups = ref_str_chunks::<_, D>(items, cap, |it, d| it.1[d]);
        level_nodes = groups
            .into_iter()
            .map(|g| ref_internal(level, g.into_iter().map(|(n, _)| n).collect()))
            .collect();
        level += 1;
    }
    let mut out = Vec::new();
    flatten_ref(&level_nodes[0], &mut out);
    out
}

fn ref_slice_groups<const D: usize>(
    mut items: Vec<Entry<D>>,
    k: usize,
    dim: usize,
) -> Vec<Vec<Entry<D>>> {
    if k == 1 {
        return vec![items];
    }
    items.sort_by(|a, b| a.1[dim].total_cmp(&b.1[dim]));
    let n = items.len();
    let mut iter = items.into_iter();
    if dim == D - 1 {
        let mut taken = 0;
        return (0..k)
            .map(|i| {
                let end = (i + 1) * n / k;
                let take = end - taken;
                taken = end;
                iter.by_ref().take(take).collect()
            })
            .collect();
    }
    let remaining_dims = (D - dim) as f64;
    let slices = ((k as f64).powf(1.0 / remaining_dims).ceil() as usize).clamp(1, k);
    let mut out = Vec::with_capacity(k);
    let (mut assigned_items, mut assigned_groups) = (0, 0);
    for i in 0..slices {
        let gc = k / slices + usize::from(i < k % slices);
        let take = ((assigned_groups + gc) * n / k) - assigned_items;
        assigned_items += take;
        assigned_groups += gc;
        let slab: Vec<Entry<D>> = iter.by_ref().take(take).collect();
        out.extend(ref_slice_groups::<D>(slab, gc, dim + 1));
    }
    out
}

fn ref_omt_build<const D: usize>(items: Vec<Entry<D>>, cap: usize, height: u32) -> RefNode<D> {
    if height == 1 {
        return ref_leaf(items);
    }
    let subtree_cap = (cap as u128).pow(height - 1);
    let k = ((items.len() as u128).div_ceil(subtree_cap) as usize).clamp(2, cap);
    let children = ref_slice_groups::<D>(items, k, 0)
        .into_iter()
        .map(|g| ref_omt_build(g, cap, height - 1))
        .collect();
    ref_internal(height - 1, children)
}

fn ref_omt_pack<const D: usize>(points: &[Point<D>], cap: usize) -> Vec<Shape<D>> {
    let mut height = 1u32;
    let mut reach = cap as u128;
    while points.len() as u128 > reach {
        height += 1;
        reach *= cap as u128;
    }
    let mut out = Vec::new();
    flatten_ref(&ref_omt_build(entries(points), cap, height), &mut out);
    out
}

// ---- Inputs and checks ---------------------------------------------------

/// `n` points snapped to a 64-cell grid per axis, each point appearing
/// three times in a row: nearly every coordinate is tied, so only an
/// exactly stable order reproduces the reference trees.
fn tied<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    (0..n)
        .map(|i| {
            let mut h = (i as u64 / 3).wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Point::new(std::array::from_fn(|_| {
                h ^= h >> 29;
                h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((h >> 40) % 64) as f64 / 64.0
            }))
        })
        .collect()
}

/// Sizes on both sides of the threading constant.
fn sizes() -> [usize; 3] {
    [1_000, 5_003, PARALLEL_MIN_ITEMS + 4_500]
}

fn check_loaders<const D: usize>(seed: u64) {
    for n in sizes() {
        let pts = tied::<D>(n, seed);
        for cap in [8, 50] {
            let cfg = RTreeConfig::with_max_fanout(cap);
            let str_tree = RStarTree::bulk_load_str(&pts, cfg);
            assert!(
                flatten_core(str_tree.core()) == ref_str_pack(&pts, cap),
                "{D}-d STR differs from the stable-sort reference (n={n}, fanout {cap})"
            );
            let omt_tree = RStarTree::bulk_load_omt(&pts, cfg);
            assert!(
                flatten_core(omt_tree.core()) == ref_omt_pack(&pts, cap),
                "{D}-d OMT differs from the stable-sort reference (n={n}, fanout {cap})"
            );
        }
    }
}

fn check_paged<const D: usize>(seed: u64) {
    for n in sizes() {
        let pts = tied::<D>(n, seed);
        let cfg = RTreeConfig::default();
        let core = RStarTree::bulk_load_str(&pts, cfg);
        let tree = PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 16)
            .expect("build onto the simulated disk");
        assert_eq!(tree.meta().node_pages as usize, core.core().node_count(), "n={n}");
        assert_eq!(tree.height(), core.core().height(), "n={n}");
        assert!(
            flatten_paged(&tree) == flatten_core(core.core()),
            "{D}-d paged STR build differs from str_pack (n={n})"
        );
    }
}

#[test]
fn str_and_omt_match_the_stable_sort_reference_2d() {
    check_loaders::<2>(1);
}

#[test]
fn str_and_omt_match_the_stable_sort_reference_3d() {
    check_loaders::<3>(2);
}

#[test]
fn paged_str_build_matches_str_pack_2d() {
    check_paged::<2>(3);
}

#[test]
fn paged_str_build_matches_str_pack_3d() {
    check_paged::<3>(4);
}
