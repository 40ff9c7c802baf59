//! External-memory joins over page-resident trees.
//!
//! There is no second join engine here. [`OutOfCoreJoin`] runs the one
//! Figure-3 recursion, [`Engine`], over a page-backed node source: nodes
//! live in disk pages behind a pinned LRU buffer pool instead of an
//! in-memory arena. A node handle carries the MBR and level its parent
//! page recorded, and every pruning and early-stopping decision
//! (`min_dist`, `pair_diameter`, `max_diameter`) is a pure function of
//! those MBRs. The engine therefore makes the exact decisions it makes
//! in memory, in the exact order, and only faults a child page in when
//! the traversal actually descends into it. The output (links, groups,
//! member order) is **bit-identical** to the in-memory sequential join,
//! plane sweep included; only the I/O counters differ.
//!
//! Memory is bounded by two knobs:
//!
//! * the buffer pool (`pool_pages × PAGE_SIZE` bytes of resident
//!   nodes; in-use pages are pinned, at most two at once — a
//!   leaf-pair probe);
//! * the optional [`Prefetcher`] staging budget (bytes of read-ahead
//!   admitted to the frontier).
//!
//! The prefetcher is a dedicated I/O thread with its own
//! [`FileDisk`] handle. The engine enqueues the child pages it is
//! about to visit; the thread reads them while the compute thread
//! probes leaves, and finished pages are handed to the store as staged
//! bytes ([`csj_index::paged::PagedStore::stage_raw`]) so the next
//! miss skips its synchronous disk read. Staging only changes *who reads the bytes*,
//! never what the traversal does — prefetch failures are silently
//! dropped and the page is simply read synchronously when needed.

use std::cell::RefCell;
use std::collections::VecDeque;

use csj_geom::{Mbr, Metric, RecordId, SoaView};
use csj_index::paged::PagedTree;
use csj_index::LeafEntry;
use csj_storage::disk::Disk;
use csj_storage::{FileDisk, OutputSink, OutputWriter, PageId, PAGE_SIZE};

use crate::budget::CancelToken;
use crate::engine::{
    CollectSink, DirectEmit, Engine, LinkHandler, NodeSource, RowSink, StreamSink, WindowedEmit,
};
use crate::error::CsjError;
use crate::group::{BallShape, MbrShape};
use crate::output::JoinOutput;
use crate::stats::JoinStats;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{yield_now, Arc, Mutex};
use crate::JoinConfig;

/// Re-export of the CSJ group-shape selector for out-of-core runs.
pub use crate::csj::GroupShapeKind;

/// Locks a facade mutex, recovering from poisoning (the holder can only
/// be the prefetch thread, whose state is a plain byte queue — always
/// consistent).
fn lock<T>(m: &Mutex<T>) -> crate::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Shared state between the engine thread and the prefetch I/O thread.
struct PrefetchShared {
    /// Pages the engine wants read, oldest first.
    queue: Mutex<VecDeque<u64>>,
    /// Pages read and awaiting hand-off to the store.
    ready: Mutex<Vec<(u64, Vec<u8>)>>,
    /// Bytes held in `ready` — the admission gate.
    ready_bytes: AtomicUsize,
    /// Max bytes of read-ahead admitted to `ready`.
    budget: usize,
}

/// Asynchronous page read-ahead on a dedicated I/O thread.
///
/// The thread owns a private [`FileDisk`] handle onto the same page
/// file, so its reads never contend with the engine's pager state. New
/// frontier pages are admitted only while the staged bytes are under
/// the construction-time budget; beyond it the thread idles until the
/// engine drains.
pub struct Prefetcher {
    shared: Arc<PrefetchShared>,
    cancel: CancelToken,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Pages handed to the store over the run (telemetry).
    staged_total: u64,
}

impl std::fmt::Debug for Prefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefetcher")
            .field("budget_bytes", &self.shared.budget)
            .field("staged_total", &self.staged_total)
            .finish()
    }
}

impl Prefetcher {
    /// Spawns the I/O thread over its own handle to the page file at
    /// `path`, staging at most `budget_bytes` of read-ahead.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the page file cannot be
    /// opened.
    pub fn spawn(path: &std::path::Path, budget_bytes: usize) -> Result<Self, CsjError> {
        let mut disk = FileDisk::open(path)?;
        let shared = Arc::new(PrefetchShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Mutex::new(Vec::new()),
            ready_bytes: AtomicUsize::new(0),
            budget: budget_bytes.max(PAGE_SIZE),
        });
        let cancel = CancelToken::new();
        let thread_shared = Arc::clone(&shared);
        let thread_cancel = cancel.clone();
        let handle = std::thread::spawn(move || {
            while !thread_cancel.is_canceled() {
                // ORDERING: Acquire pairs with the engine's AcqRel
                // fetch_sub in drain_into — the gate must observe a
                // drain before treating budget as free again.
                if thread_shared.ready_bytes.load(Ordering::Acquire) + PAGE_SIZE
                    > thread_shared.budget
                {
                    yield_now(); // frontier full: wait for the engine to drain
                    continue;
                }
                let next = lock(&thread_shared.queue).pop_front();
                let Some(page) = next else {
                    yield_now();
                    continue;
                };
                // A failed read-ahead is not an error: the engine will
                // read the page synchronously and surface the failure
                // (with retries) itself.
                if let Ok(p) = disk.read(PageId(page)) {
                    // ORDERING: AcqRel makes the byte-count increment a
                    // synchronization point with the gate's Acquire load
                    // and the engine's fetch_sub on drain.
                    thread_shared.ready_bytes.fetch_add(p.data.len(), Ordering::AcqRel);
                    lock(&thread_shared.ready).push((page, p.data));
                }
            }
        });
        Ok(Prefetcher { shared, cancel, handle: Some(handle), staged_total: 0 })
    }

    /// Requests read-ahead of `pages` (frontier children about to be
    /// visited).
    fn enqueue(&self, pages: impl IntoIterator<Item = PageId>) {
        lock(&self.shared.queue).extend(pages.into_iter().map(|p| p.0));
    }

    /// Moves every completed read into the store's staging area.
    fn drain_into<const D: usize, Dk: Disk>(
        &mut self,
        store: &csj_index::paged::PagedStore<D, Dk>,
    ) {
        let done: Vec<(u64, Vec<u8>)> = std::mem::take(&mut *lock(&self.shared.ready));
        for (page, bytes) in done {
            // ORDERING: AcqRel pairs with the prefetch thread's Acquire
            // gate load, publishing the freed budget before the next
            // read-ahead is admitted.
            self.shared.ready_bytes.fetch_sub(bytes.len(), Ordering::AcqRel);
            if store.stage_raw(PageId(page), bytes) {
                self.staged_total += 1;
            }
        }
    }

    /// Pages handed to the store over the run.
    pub fn staged_total(&self) -> u64 {
        self.staged_total
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.cancel.cancel();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A node as the traversal sees it *before* reading its page: identity
/// plus the MBR and level its parent recorded. Everything the pruning
/// rules need, no I/O.
#[derive(Clone, Copy, Debug)]
struct NodeRef<const D: usize> {
    page: PageId,
    mbr: Mbr<D>,
    level: u32,
}

/// A [`PagedTree`] as the engine's [`NodeSource`]: bounds come from the
/// [`NodeRef`]s, contents through the pinned buffer pool, and every
/// expanded node's child pages go to the prefetcher.
struct PagedSource<'t, const D: usize, Dk: Disk> {
    tree: &'t PagedTree<D, Dk>,
    prefetch: Option<RefCell<Prefetcher>>,
}

impl<const D: usize, Dk: Disk> NodeSource<D> for PagedSource<'_, D, Dk> {
    type Node = NodeRef<D>;

    fn root(&self) -> Result<Option<NodeRef<D>>, CsjError> {
        let Some(page) = self.tree.root() else { return Ok(None) };
        // One page read up front for the root's own MBR and level — its
        // parent-side summary does not exist.
        let guard = self.tree.node(page)?;
        Ok(Some(NodeRef { page, mbr: guard.mbr, level: guard.level }))
    }
    fn is_leaf(&self, n: NodeRef<D>) -> bool {
        n.level == 0
    }
    fn node_mbr(&self, n: NodeRef<D>) -> Mbr<D> {
        n.mbr
    }
    fn max_diameter(&self, n: NodeRef<D>, metric: Metric) -> f64 {
        metric.mbr_diameter(&n.mbr)
    }
    fn pair_diameter(&self, a: NodeRef<D>, b: NodeRef<D>, metric: Metric) -> f64 {
        metric.max_dist_mbr(&a.mbr, &b.mbr)
    }
    fn min_dist(&self, a: NodeRef<D>, b: NodeRef<D>, metric: Metric) -> f64 {
        metric.min_dist_mbr(&a.mbr, &b.mbr)
    }

    /// Clones the child summaries out of the (pinned) parent page,
    /// releasing the pin before any recursion, and lets the prefetcher
    /// start on them.
    fn children(&self, n: NodeRef<D>) -> Result<Vec<NodeRef<D>>, CsjError> {
        let children: Vec<NodeRef<D>> = {
            let guard = self.tree.node(n.page)?;
            guard
                .children
                .iter()
                .map(|&(page, mbr)| NodeRef { page, mbr, level: n.level - 1 })
                .collect()
        };
        if let Some(pf) = &self.prefetch {
            let mut pf = pf.borrow_mut();
            pf.enqueue(children.iter().map(|c| c.page));
            pf.drain_into(self.tree.store());
        }
        Ok(children)
    }

    fn with_leaf<X>(
        &self,
        n: NodeRef<D>,
        probe: impl FnOnce(&[LeafEntry<D>], SoaView<'_, D>) -> Result<X, CsjError>,
    ) -> Result<X, CsjError> {
        let guard = self.tree.node(n.page)?;
        probe(guard.entries.entries(), guard.entries.soa())
    }

    fn collect_record_ids(&self, n: NodeRef<D>, out: &mut Vec<RecordId>) -> Result<(), CsjError> {
        Ok(self.tree.collect_record_ids(n.page, out)?)
    }
    fn collect_entries(&self, n: NodeRef<D>, out: &mut Vec<LeafEntry<D>>) -> Result<(), CsjError> {
        Ok(self.tree.collect_entries(n.page, out)?)
    }
    fn log_id(&self, n: NodeRef<D>) -> u32 {
        n.page.0 as u32
    }
}

/// Which join variant an [`OutOfCoreJoin`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinVariant {
    /// Plain similarity self-join: every link individually.
    Ssj,
    /// Non-windowed compact join: early stopping, no merge window.
    Ncsj,
    /// Compact join with a window of `g` recent groups.
    Csj {
        /// The window size `g`.
        window: usize,
    },
}

/// Configuration for a complete out-of-core join run: variant, join
/// parameters, and an optional prefetch budget.
#[derive(Debug)]
pub struct OutOfCoreJoin {
    cfg: JoinConfig,
    variant: JoinVariant,
    shape: GroupShapeKind,
    prefetch_budget: Option<usize>,
}

impl OutOfCoreJoin {
    /// An out-of-core run of `variant` with range `epsilon`.
    pub fn new(variant: JoinVariant, epsilon: f64) -> Self {
        OutOfCoreJoin {
            cfg: JoinConfig::new(epsilon),
            variant,
            shape: GroupShapeKind::Mbr,
            prefetch_budget: None,
        }
    }

    /// Replaces the full join configuration.
    pub fn with_config(mut self, cfg: JoinConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Selects the CSJ group bounding shape.
    pub fn with_shape(mut self, shape: GroupShapeKind) -> Self {
        self.shape = shape;
        self
    }

    /// Enables async prefetch with the given staging budget in bytes
    /// (effective only on [`FileDisk`]-backed trees).
    pub fn with_prefetch_budget(mut self, bytes: usize) -> Self {
        self.prefetch_budget = Some(bytes);
        self
    }

    /// The configuration this join runs with.
    pub fn config(&self) -> &JoinConfig {
        &self.cfg
    }

    fn early_stop(&self) -> bool {
        !matches!(self.variant, JoinVariant::Ssj)
    }

    fn spawn_prefetcher(
        &self,
        path: Option<&std::path::Path>,
    ) -> Result<Option<Prefetcher>, CsjError> {
        match (self.prefetch_budget, path) {
            (Some(budget), Some(path)) => Ok(Some(Prefetcher::spawn(path, budget)?)),
            _ => Ok(None),
        }
    }

    fn run_engine<H, R, const D: usize, Dk>(
        &self,
        tree: &PagedTree<D, Dk>,
        handler: H,
        sink: R,
        path: Option<&std::path::Path>,
    ) -> Result<(R, JoinStats), CsjError>
    where
        H: LinkHandler<D>,
        R: RowSink,
        Dk: Disk,
    {
        let source = PagedSource { tree, prefetch: self.spawn_prefetcher(path)?.map(RefCell::new) };
        let mut engine = Engine::new(&source, self.cfg, self.early_stop(), handler, sink);
        engine.run()?;
        Ok((engine.sink, engine.stats))
    }

    fn dispatch<R, const D: usize, Dk>(
        &self,
        tree: &PagedTree<D, Dk>,
        sink: R,
        path: Option<&std::path::Path>,
    ) -> Result<(R, JoinStats), CsjError>
    where
        R: RowSink,
        Dk: Disk,
    {
        let eps = self.cfg.epsilon;
        let metric = self.cfg.metric;
        match (self.variant, self.shape) {
            (JoinVariant::Ssj | JoinVariant::Ncsj, _) => {
                self.run_engine(tree, DirectEmit, sink, path)
            }
            (JoinVariant::Csj { window }, GroupShapeKind::Mbr) => self.run_engine(
                tree,
                WindowedEmit::<MbrShape<D>, D>::new(window, eps, metric),
                sink,
                path,
            ),
            (JoinVariant::Csj { window }, GroupShapeKind::Ball) => self.run_engine(
                tree,
                WindowedEmit::<BallShape<D>, D>::new(window, eps, metric),
                sink,
                path,
            ),
        }
    }

    /// Runs the join, collecting rows in memory. Pass the page-file
    /// path as `prefetch_path` (for [`FileDisk`] trees) to activate the
    /// configured prefetch budget.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a page read fails beyond the
    /// retry policy, the pool cannot pin the pages a probe needs, or the
    /// prefetcher cannot open the page file.
    pub fn run<const D: usize, Dk: Disk>(
        &self,
        tree: &PagedTree<D, Dk>,
        prefetch_path: Option<&std::path::Path>,
    ) -> Result<JoinOutput, CsjError> {
        let (sink, stats) = self.dispatch(tree, CollectSink::default(), prefetch_path)?;
        Ok(JoinOutput { items: sink.items, stats, ..Default::default() })
    }

    /// Runs the join, streaming rows into `writer`.
    ///
    /// # Errors
    /// As [`OutOfCoreJoin::run`], plus sink write failures.
    pub fn run_streaming<S: OutputSink, const D: usize, Dk: Disk>(
        &self,
        tree: &PagedTree<D, Dk>,
        writer: &mut OutputWriter<S>,
        prefetch_path: Option<&std::path::Path>,
    ) -> Result<JoinStats, CsjError> {
        let (_, stats) = self.dispatch(tree, StreamSink::new(writer), prefetch_path)?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csj::CsjJoin;
    use crate::engine::{run_collecting, Engine};
    use crate::group::MbrShape;
    use crate::ncsj::NcsjJoin;
    use crate::ssj::SsjJoin;
    use csj_geom::Point;
    use csj_index::{rstar::RStarTree, RTreeConfig};
    use csj_storage::{RetryPolicy, SimulatedDisk, VecSink};
    use proptest::prelude::*;

    fn scatter(n: usize, salt: u64) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(salt)
                    .rotate_left(17);
                let x = (h % 100_000) as f64 / 100_000.0;
                let y = ((h >> 20) % 100_000) as f64 / 100_000.0;
                Point::new([x, y])
            })
            .collect()
    }

    fn temp_pages(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("csj_ooc_{tag}_{}.pages", std::process::id()))
    }

    /// Rows bit-identical and every counter equal, except the access
    /// log (arena ids vs page ids) and absorbed I/O retries.
    fn assert_same_run(mem: &JoinOutput, ooc: &JoinOutput, label: &str) {
        assert_eq!(mem.items, ooc.items, "{label}: rows must be bit-identical");
        let comparable = |s: &JoinStats| JoinStats { access_log: None, io_retries: 0, ..s.clone() };
        assert_eq!(comparable(&mem.stats), comparable(&ooc.stats), "{label}: stats");
    }

    fn variants() -> [(JoinVariant, &'static str); 3] {
        [
            (JoinVariant::Ssj, "ssj"),
            (JoinVariant::Ncsj, "ncsj"),
            (JoinVariant::Csj { window: 10 }, "csj10"),
        ]
    }

    fn in_memory(variant: JoinVariant, eps: f64, tree: &RStarTree<2>) -> JoinOutput {
        match variant {
            JoinVariant::Ssj => SsjJoin::new(eps).run(tree),
            JoinVariant::Ncsj => NcsjJoin::new(eps).run(tree),
            JoinVariant::Csj { window } => CsjJoin::new(eps).with_window(window).run(tree),
        }
    }

    #[test]
    fn bit_identical_to_in_memory_on_simulated_disk() {
        let pts = scatter(1500, 7);
        let eps = 0.02;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        for (variant, name) in variants() {
            let mem = in_memory(variant, eps, &rtree);
            for pool in [2usize, 3, 4, 64] {
                let tree = PagedTree::from_core(
                    rtree.core(),
                    SimulatedDisk::new(),
                    RetryPolicy::none(),
                    pool,
                )
                .unwrap();
                let ooc = OutOfCoreJoin::new(variant, eps).run(&tree, None).unwrap();
                assert_same_run(&mem, &ooc, &format!("{name} pool={pool}"));
            }
        }
    }

    #[test]
    fn bit_identical_with_scalar_leaf_probes() {
        // The no-batch-kernel path takes the nested scalar loops.
        let pts = scatter(800, 3);
        let eps = 0.03;
        let cfg = JoinConfig::new(eps).with_scalar_leaf_probe();
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let mem = run_collecting(&rtree, cfg, true, DirectEmit);
        let tree = PagedTree::from_core(rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), 3)
            .unwrap();
        let ooc =
            OutOfCoreJoin::new(JoinVariant::Ncsj, eps).with_config(cfg).run(&tree, None).unwrap();
        assert_same_run(&mem, &ooc, "scalar ncsj");
    }

    #[test]
    fn bit_identical_on_a_real_page_file() {
        let pts = scatter(1200, 11);
        let eps = 0.025;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let path = temp_pages("identity");
        for (variant, name) in variants() {
            let mem = in_memory(variant, eps, &rtree);
            let disk = csj_storage::FileDisk::create(&path).unwrap();
            let tree =
                PagedTree::from_core(rtree.core(), disk, RetryPolicy::no_backoff(2), 8).unwrap();
            let ooc = OutOfCoreJoin::new(variant, eps).run(&tree, None).unwrap();
            assert_same_run(&mem, &ooc, &format!("filedisk {name}"));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streamed_output_bytes_identical() {
        let pts = scatter(900, 5);
        let eps = 0.03;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let width = OutputWriter::<VecSink>::id_width_for(pts.len());
        let mut mem_writer = OutputWriter::new(VecSink::new(), width);
        let mut engine = Engine::new(
            &rtree,
            JoinConfig::new(eps),
            true,
            DirectEmit,
            StreamSink::new(&mut mem_writer),
        );
        engine.run().unwrap();
        let tree = PagedTree::from_core(rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), 4)
            .unwrap();
        let mut ooc_writer = OutputWriter::new(VecSink::new(), width);
        OutOfCoreJoin::new(JoinVariant::Ncsj, eps)
            .run_streaming(&tree, &mut ooc_writer, None)
            .unwrap();
        assert_eq!(
            mem_writer.sink().as_str(),
            ooc_writer.sink().as_str(),
            "the on-disk output file must be byte-identical"
        );
    }

    #[test]
    fn prefetch_preserves_output_on_file_disk() {
        let pts = scatter(2000, 23);
        let eps = 0.02;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let mem = in_memory(JoinVariant::Csj { window: 10 }, eps, &rtree);
        let path = temp_pages("prefetch");
        let disk = csj_storage::FileDisk::create(&path).unwrap();
        let tree = PagedTree::from_core(rtree.core(), disk, RetryPolicy::no_backoff(2), 6).unwrap();
        let ooc = OutOfCoreJoin::new(JoinVariant::Csj { window: 10 }, eps)
            .with_prefetch_budget(64 * PAGE_SIZE)
            .run(&tree, Some(&path))
            .unwrap();
        assert_same_run(&mem, &ooc, "prefetched csj10");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pool_of_one_cannot_pin_a_leaf_pair() {
        let pts = scatter(600, 2);
        let eps = 0.05; // wide enough to force cross-leaf probes
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let tree = PagedTree::from_core(rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), 1)
            .unwrap();
        let err = OutOfCoreJoin::new(JoinVariant::Ssj, eps).run(&tree, None).unwrap_err();
        match err {
            CsjError::Storage(csj_storage::StorageError::AllPagesPinned { capacity }) => {
                assert_eq!(capacity, 1);
            }
            other => panic!("expected AllPagesPinned, got {other}"),
        }
    }

    #[test]
    fn plane_sweep_bit_identical_to_in_memory_sweep() {
        let pts = scatter(1200, 9);
        let eps = 0.03;
        let cfg = JoinConfig::new(eps).with_plane_sweep();
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        for (variant, name) in variants() {
            let mem = match variant {
                JoinVariant::Ssj => run_collecting(&rtree, cfg, false, DirectEmit),
                JoinVariant::Ncsj => run_collecting(&rtree, cfg, true, DirectEmit),
                JoinVariant::Csj { window } => run_collecting(
                    &rtree,
                    cfg,
                    true,
                    WindowedEmit::<MbrShape<2>, 2>::new(window, eps, cfg.metric),
                ),
            };
            for pool in [2usize, 64] {
                let tree = PagedTree::from_core(
                    rtree.core(),
                    SimulatedDisk::new(),
                    RetryPolicy::none(),
                    pool,
                )
                .unwrap();
                let ooc =
                    OutOfCoreJoin::new(variant, eps).with_config(cfg).run(&tree, None).unwrap();
                assert_same_run(&mem, &ooc, &format!("sweep {name} pool={pool}"));
            }
        }
    }

    /// Builds `rtree`'s page file on a simulated disk, for reopening
    /// with cold pools of any size.
    fn simulated_page_file(rtree: &RStarTree<2>) -> (SimulatedDisk, u64) {
        let built =
            PagedTree::from_core(rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), 8)
                .unwrap();
        let node_pages = built.meta().node_pages;
        (built.into_disk(), node_pages)
    }

    /// Runs `variant` over the page file with a cold pool of `pool`
    /// frames, returning the output, the pool's misses and the disk.
    fn cold_run(
        disk: SimulatedDisk,
        pool: usize,
        variant: JoinVariant,
        eps: f64,
    ) -> (JoinOutput, u64, SimulatedDisk) {
        let tree = PagedTree::<2, _>::open(disk, RetryPolicy::none(), pool).unwrap();
        let out = OutOfCoreJoin::new(variant, eps).run(&tree, None).unwrap();
        let stats = tree.stats();
        assert_eq!(stats.pool.misses, stats.nodes_decoded, "one decode per miss");
        (out, stats.pool.misses, tree.into_disk())
    }

    #[test]
    fn join_through_the_pool_is_lossless() {
        let pts = scatter(2000, 31);
        let eps = 0.03;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(16));
        let (disk, _) = simulated_page_file(&rtree);
        let (out, misses, _) = cold_run(disk, 4, JoinVariant::Csj { window: 10 }, eps);
        assert!(misses > 0);
        assert_eq!(out.expanded_link_set(), crate::brute::brute_force_links(&pts, eps));
        crate::verify::verify_lossless(&out, &pts, eps, csj_geom::Metric::Euclidean).unwrap();
    }

    #[test]
    fn larger_pools_never_miss_more() {
        let pts = scatter(2000, 37);
        let eps = 0.03;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(16));
        let (mut disk, node_pages) = simulated_page_file(&rtree);
        let mut misses = Vec::new();
        let pools = [2, 4, 16, 64, node_pages as usize, 2 * node_pages as usize];
        for pool in pools {
            let (_, m, back) = cold_run(disk, pool, JoinVariant::Ssj, eps);
            misses.push(m);
            disk = back;
        }
        for (w, pool) in misses.windows(2).zip(&pools[1..]) {
            assert!(w[0] >= w[1], "pool {pool} missed more: {misses:?}");
        }
        // A pool holding the whole tree misses once per page: SSJ reads
        // every node, and nothing is ever evicted.
        assert_eq!(misses[4], node_pages, "{misses:?}");
        assert_eq!(misses[5], node_pages, "{misses:?}");
    }

    #[test]
    fn page_reads_similar_across_algorithms() {
        // Experiment 3: page access counts do not differ significantly
        // between the algorithms. The compact joins may read slightly
        // fewer pages (an early stop reads each subtree node once instead
        // of revisiting) but never dramatically more.
        let pts = scatter(3000, 41);
        let eps = 0.06;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(16));
        let (mut disk, _) = simulated_page_file(&rtree);
        let mut misses = Vec::new();
        for (variant, _) in variants() {
            let (_, m, back) = cold_run(disk, 32, variant, eps);
            misses.push(m);
            disk = back;
        }
        let ssj = misses[0] as f64;
        for (m, name) in misses[1..].iter().zip(["ncsj", "csj10"]) {
            assert!((*m as f64) <= ssj * 1.25, "{name}: {m} vs ssj {ssj}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The tentpole invariant: out-of-core joins are bit-identical
        /// to the in-memory engine for every variant, across pool sizes
        /// down to the pathological minimum of two frames, on both disk
        /// backends.
        #[test]
        fn outofcore_matches_in_memory(
            n in 64usize..400,
            salt in 0u64..1000,
            eps in 0.005f64..0.08,
            pool in 2usize..6,
            fanout in 4usize..16,
            use_file in any::<bool>(),
        ) {
            let pts = scatter(n, salt);
            let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(fanout));
            for (variant, name) in variants() {
                let mem = in_memory(variant, eps, &rtree);
                let ooc = if use_file {
                    let path = temp_pages(&format!("prop_{salt}_{n}_{name}"));
                    let disk = csj_storage::FileDisk::create(&path).unwrap();
                    let tree = PagedTree::from_core(
                        rtree.core(), disk, RetryPolicy::no_backoff(2), pool).unwrap();
                    let out = OutOfCoreJoin::new(variant, eps).run(&tree, None).unwrap();
                    let _ = std::fs::remove_file(&path);
                    out
                } else {
                    let tree = PagedTree::from_core(
                        rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), pool).unwrap();
                    OutOfCoreJoin::new(variant, eps).run(&tree, None).unwrap()
                };
                assert_same_run(&mem, &ooc, &format!("prop {name} pool={pool}"));
            }
        }
    }
}
