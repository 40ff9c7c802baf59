//! The shared recursive join engine.
//!
//! Figure 3 of the paper gives one pseudo-code skeleton for all three
//! algorithms — `simJoin(n)` / `simJoin(n1, n2)` — with the compact
//! variants differing only in the italicized early-stopping lines and in
//! what happens to a qualifying link. [`Engine`] is that skeleton:
//!
//! * `early_stop = false`, [`DirectEmit`] → **SSJ**;
//! * `early_stop = true`, [`DirectEmit`] → **N-CSJ**;
//! * `early_stop = true`, [`WindowedEmit`] → **CSJ(g)**.
//!
//! Output rows go to a [`RowSink`] — collected in memory or streamed
//! straight into a `csj-storage` writer — so the same engine serves both
//! verification (structured output) and the experiment harness (byte
//! counting at full speed).
//!
//! The engine reads the tree through a [`NodeSource`]: every in-memory
//! [`JoinIndex`] is one, and so is the out-of-core join's page-backed
//! tree ([`crate::outofcore`]). The child-expansion rule itself lives in
//! one function, `expand`; the parallel and resilient runners take
//! their task splits from it too, so every executor walks the same
//! recursion.

use csj_geom::{Mbr, Metric, Point, RecordId, SoaView};
use csj_index::{JoinIndex, LeafEntry, NodeId};
use csj_storage::{OutputSink, OutputWriter};

use crate::budget::{CancelToken, StopReason};
use crate::error::CsjError;
use crate::group::{GroupShape, GroupWindow, LinkProbe, OpenGroup};
use crate::output::{JoinOutput, OutputItem};
use crate::stats::JoinStats;
use crate::JoinConfig;

/// Receives finished output rows. Row delivery is fallible: a sink
/// backed by real storage can fail, and the engine stops cleanly at the
/// row boundary instead of panicking.
pub trait RowSink {
    /// An individual link row.
    fn link_row(&mut self, a: RecordId, b: RecordId) -> Result<(), CsjError>;
    /// A group row (at least two members).
    fn group_row(&mut self, ids: &[RecordId]) -> Result<(), CsjError>;
    /// A group row, by value. Sinks that retain rows take ownership and
    /// return `None`; serializing sinks return the vector so the caller
    /// can recycle its allocation. The default delegates to
    /// [`RowSink::group_row`].
    fn group_row_vec(&mut self, ids: Vec<RecordId>) -> Result<Option<Vec<RecordId>>, CsjError> {
        self.group_row(&ids)?;
        Ok(Some(ids))
    }
}

/// Collects rows into a [`JoinOutput`].
#[derive(Debug, Default)]
pub struct CollectSink {
    /// Rows collected so far.
    pub items: Vec<OutputItem>,
}

impl RowSink for CollectSink {
    fn link_row(&mut self, a: RecordId, b: RecordId) -> Result<(), CsjError> {
        self.items.push(OutputItem::Link(a, b));
        Ok(())
    }
    fn group_row(&mut self, ids: &[RecordId]) -> Result<(), CsjError> {
        self.items.push(OutputItem::Group(ids.to_vec()));
        Ok(())
    }
    fn group_row_vec(&mut self, ids: Vec<RecordId>) -> Result<Option<Vec<RecordId>>, CsjError> {
        self.items.push(OutputItem::Group(ids));
        Ok(None)
    }
}

/// Streams rows into an [`OutputWriter`] without retaining them.
pub struct StreamSink<'w, S> {
    writer: &'w mut OutputWriter<S>,
}

impl<'w, S: OutputSink> StreamSink<'w, S> {
    /// Wraps a writer.
    pub fn new(writer: &'w mut OutputWriter<S>) -> Self {
        StreamSink { writer }
    }
}

impl<S: OutputSink> RowSink for StreamSink<'_, S> {
    fn link_row(&mut self, a: RecordId, b: RecordId) -> Result<(), CsjError> {
        self.writer.write_link(a, b).map_err(CsjError::from)
    }
    fn group_row(&mut self, ids: &[RecordId]) -> Result<(), CsjError> {
        self.writer.write_group(ids).map_err(CsjError::from)
    }
}

/// What to do with a qualifying link / an early-stopped subtree.
pub trait LinkHandler<const D: usize> {
    /// Handles one qualifying link.
    fn on_link<R: RowSink>(
        &mut self,
        a: RecordId,
        pa: &Point<D>,
        b: RecordId,
        pb: &Point<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError>;

    /// Handles a subtree (or pair of subtrees) whose bounding shape fits
    /// within ε: `ids` are all records below, `mbr` the covering shape.
    fn on_subtree<R: RowSink>(
        &mut self,
        ids: Vec<RecordId>,
        mbr: &Mbr<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError>;

    /// Flushes any buffered state at the end of the join.
    fn finish<R: RowSink>(&mut self, sink: &mut R, stats: &mut JoinStats) -> Result<(), CsjError>;
}

/// Emits a finalized group row, taking the member vector by value:
/// retaining sinks keep it without a copy, and any returned (unretained)
/// vector comes back to the caller for recycling.
fn emit_group_row_vec<R: RowSink>(
    sink: &mut R,
    stats: &mut JoinStats,
    members: Vec<RecordId>,
) -> Result<Option<Vec<RecordId>>, CsjError> {
    // Single-member groups encode no links; suppress them.
    if members.len() < 2 {
        return Ok(Some(members));
    }
    let k = members.len() as u64;
    let returned = sink.group_row_vec(members)?;
    stats.groups_emitted += 1;
    stats.group_members_emitted += k;
    stats.links_in_groups += k * (k - 1) / 2;
    Ok(returned)
}

/// [`emit_group_row_vec`] for a member slice that stays owned by the
/// group window's ring (the steady-state CSJ open path): same
/// suppression of single-member rows, same tallies, no vector handoff.
#[inline]
fn emit_group_row_slice<R: RowSink>(
    sink: &mut R,
    stats: &mut JoinStats,
    ids: &[RecordId],
) -> Result<(), CsjError> {
    if ids.len() < 2 {
        return Ok(());
    }
    let k = ids.len() as u64;
    sink.group_row(ids)?;
    stats.groups_emitted += 1;
    stats.group_members_emitted += k;
    stats.links_in_groups += k * (k - 1) / 2;
    Ok(())
}

/// SSJ / N-CSJ behaviour: links go out individually, subtrees as one
/// group row each.
#[derive(Debug, Default)]
pub struct DirectEmit;

impl<const D: usize> LinkHandler<D> for DirectEmit {
    fn on_link<R: RowSink>(
        &mut self,
        a: RecordId,
        _pa: &Point<D>,
        b: RecordId,
        _pb: &Point<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        sink.link_row(a, b)?;
        stats.links_emitted += 1;
        Ok(())
    }

    fn on_subtree<R: RowSink>(
        &mut self,
        ids: Vec<RecordId>,
        _mbr: &Mbr<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        emit_group_row_vec(sink, stats, ids).map(drop)
    }

    fn finish<R: RowSink>(
        &mut self,
        _sink: &mut R,
        _stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        Ok(())
    }
}

/// CSJ(g) behaviour: links are merged into the `g` most recent groups
/// (opening a new group on failure); subtree groups also enter the
/// window. Groups leave the window — and reach the sink — oldest first.
#[derive(Debug)]
pub struct WindowedEmit<S, const D: usize> {
    window: GroupWindow<S, D>,
    eps: f64,
    metric: Metric,
    /// Member vectors recovered from emitted groups, recycled into
    /// freshly opened groups so the steady state allocates nothing.
    spare: Vec<Vec<RecordId>>,
}

/// Cap on the [`WindowedEmit`] recycling pool; beyond this, emitted
/// member vectors are simply dropped.
const SPARE_POOL_CAP: usize = 32;

impl<S: GroupShape<D>, const D: usize> WindowedEmit<S, D> {
    /// A window of `g` recent groups under the join parameters.
    pub fn new(g: usize, eps: f64, metric: Metric) -> Self {
        WindowedEmit { window: GroupWindow::new(g), eps, metric, spare: Vec::new() }
    }

    /// Emits an evicted group and reclaims its member vector when the
    /// sink hands it back.
    fn emit_recycling<R: RowSink>(
        &mut self,
        evicted: OpenGroup<S, D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        let members = evicted.into_sorted_members();
        if let Some(mut v) = emit_group_row_vec(sink, stats, members)? {
            if self.spare.len() < SPARE_POOL_CAP {
                v.clear();
                self.spare.push(v);
            }
        }
        Ok(())
    }
}

impl<S: GroupShape<D>, const D: usize> LinkHandler<D> for WindowedEmit<S, D> {
    fn on_link<R: RowSink>(
        &mut self,
        a: RecordId,
        pa: &Point<D>,
        b: RecordId,
        pb: &Point<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        let link = LinkProbe::new(a, pa, b, pb);
        if self.window.try_merge_link(&link, self.eps, self.metric, &mut stats.merge_attempts) {
            stats.merges_succeeded += 1;
            return Ok(());
        }
        // Probe missed: open a group for the link in place; the displaced
        // oldest group (if any) is emitted straight from its ring slot.
        self.window.open_link(&link, self.metric, |ids| emit_group_row_slice(sink, stats, ids))
    }

    fn on_subtree<R: RowSink>(
        &mut self,
        ids: Vec<RecordId>,
        mbr: &Mbr<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        let group = OpenGroup::from_subtree(ids, mbr, self.metric);
        if let Some(evicted) = self.window.push(group) {
            self.emit_recycling(evicted, sink, stats)?;
        }
        Ok(())
    }

    fn finish<R: RowSink>(&mut self, sink: &mut R, stats: &mut JoinStats) -> Result<(), CsjError> {
        for group in self.window.drain() {
            emit_group_row_vec(sink, stats, group.into_sorted_members())?;
        }
        Ok(())
    }
}

/// Node access for the Figure-3 recursion.
///
/// The recursion needs two kinds of access to a tree. Node *bounds*
/// decide pruning and early stops and must cost no I/O. Node *contents*
/// (children, leaf records) may have to be read. An in-memory
/// [`JoinIndex`] serves both directly (the blanket impl below, with
/// `Node = NodeId`). The out-of-core join serves them from disk pages,
/// with nodes that carry the bounds their parent page recorded
/// ([`crate::outofcore`]). The one [`Engine`] runs over either.
pub trait NodeSource<const D: usize> {
    /// A node handle: cheap to copy, and enough to evaluate every bound.
    type Node: Copy;

    /// The root node, `None` for an empty tree.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the root cannot be read.
    fn root(&self) -> Result<Option<Self::Node>, CsjError>;

    /// `true` if `n` stores records directly.
    fn is_leaf(&self, n: Self::Node) -> bool;

    /// A rectangle covering `n`: seeds group shapes, picks sweep axes.
    fn node_mbr(&self, n: Self::Node) -> Mbr<D>;

    /// Upper bound on the distance between two points below `n`.
    fn max_diameter(&self, n: Self::Node, metric: Metric) -> f64;

    /// Upper bound on the distance between two points below `a` or `b`.
    fn pair_diameter(&self, a: Self::Node, b: Self::Node, metric: Metric) -> f64;

    /// Lower bound on the distance between a point below `a` and a
    /// point below `b` (MINDIST).
    fn min_dist(&self, a: Self::Node, b: Self::Node, metric: Metric) -> f64;

    /// The children of internal node `n`, in storage order.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when `n` cannot be read.
    fn children(&self, n: Self::Node) -> Result<Vec<Self::Node>, CsjError>;

    /// Runs `probe` over leaf `n`'s records and their struct-of-arrays
    /// coordinate slabs. The leaf stays readable (pinned, for a paged
    /// source) only for the duration of the call.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when `n` cannot be read, and passes
    /// on any error of `probe`.
    fn with_leaf<X>(
        &self,
        n: Self::Node,
        probe: impl FnOnce(&[LeafEntry<D>], SoaView<'_, D>) -> Result<X, CsjError>,
    ) -> Result<X, CsjError>;

    /// Appends every record id below `n` to `out`, in the order of
    /// [`JoinIndex::collect_record_ids`].
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a node below `n` cannot be read.
    fn collect_record_ids(&self, n: Self::Node, out: &mut Vec<RecordId>) -> Result<(), CsjError>;

    /// Appends every record below `n` to `out`, in the order of
    /// [`JoinIndex::collect_entries`].
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a node below `n` cannot be read.
    fn collect_entries(&self, n: Self::Node, out: &mut Vec<LeafEntry<D>>) -> Result<(), CsjError>;

    /// The id the access log records for `n`.
    fn log_id(&self, n: Self::Node) -> u32;
}

impl<T: JoinIndex<D> + ?Sized, const D: usize> NodeSource<D> for T {
    type Node = NodeId;

    fn root(&self) -> Result<Option<NodeId>, CsjError> {
        Ok(JoinIndex::root(self))
    }
    fn is_leaf(&self, n: NodeId) -> bool {
        JoinIndex::is_leaf(self, n)
    }
    fn node_mbr(&self, n: NodeId) -> Mbr<D> {
        JoinIndex::node_mbr(self, n)
    }
    fn max_diameter(&self, n: NodeId, metric: Metric) -> f64 {
        JoinIndex::max_diameter(self, n, metric)
    }
    fn pair_diameter(&self, a: NodeId, b: NodeId, metric: Metric) -> f64 {
        JoinIndex::pair_diameter(self, a, b, metric)
    }
    fn min_dist(&self, a: NodeId, b: NodeId, metric: Metric) -> f64 {
        JoinIndex::min_dist(self, a, b, metric)
    }
    fn children(&self, n: NodeId) -> Result<Vec<NodeId>, CsjError> {
        Ok(JoinIndex::children(self, n).to_vec())
    }
    fn with_leaf<X>(
        &self,
        n: NodeId,
        probe: impl FnOnce(&[LeafEntry<D>], SoaView<'_, D>) -> Result<X, CsjError>,
    ) -> Result<X, CsjError> {
        let entries = self.leaf_entries(n);
        let soa = self.leaf_soa(n);
        debug_assert_eq!(entries.len(), soa.len(), "leaf_soa must mirror leaf_entries");
        probe(entries, soa)
    }
    fn collect_record_ids(&self, n: NodeId, out: &mut Vec<RecordId>) -> Result<(), CsjError> {
        JoinIndex::collect_record_ids(self, n, out);
        Ok(())
    }
    fn collect_entries(&self, n: NodeId, out: &mut Vec<LeafEntry<D>>) -> Result<(), CsjError> {
        JoinIndex::collect_entries(self, n, out);
        Ok(())
    }
    fn log_id(&self, n: NodeId) -> u32 {
        n.0
    }
}

/// One unit of Figure-3 work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Task<N> {
    /// `simJoin(n)`: the self-join of one subtree.
    SelfJoin(N),
    /// `simJoin(n1, n2)`: the join across two subtrees.
    PairJoin(N, N),
}

/// What the recursion does with a task, decided by [`expand`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// The compact-join early stop: everything below is one group.
    Group,
    /// Leaf-level work: probe the leaf, or the pair of leaves.
    Leaf,
    /// The child tasks went to the caller, in recursion order; `pruned`
    /// candidate pairs failed the MINDIST test.
    Split {
        /// Child pairs MINDIST pruned.
        pruned: u64,
    },
}

/// The Figure-3 expansion rule, the one copy of it: decides from node
/// bounds whether `task` stops early, probes leaves, or splits, and in
/// the last case hands each child task to `child` in the order the
/// recursion visits them. The engine recurses from `child`; the parallel
/// and resilient runners collect the children as tasks of their own
/// ([`child_tasks`]), so running those in order is the same traversal.
///
/// # Errors
/// Returns [`CsjError::Storage`] when a node's children cannot be read,
/// and passes on any error of `child`.
fn expand<S, const D: usize>(
    tree: &S,
    cfg: &JoinConfig,
    early_stop: bool,
    task: Task<S::Node>,
    mut child: impl FnMut(Task<S::Node>) -> Result<(), CsjError>,
) -> Result<Step, CsjError>
where
    S: NodeSource<D> + ?Sized,
{
    let (eps, metric) = (cfg.epsilon, cfg.metric);
    let mut pruned = 0u64;
    let mut pair = |a, b, child: &mut dyn FnMut(Task<S::Node>) -> Result<(), CsjError>| {
        if tree.min_dist(a, b, metric) <= eps {
            child(Task::PairJoin(a, b))
        } else {
            pruned += 1;
            Ok(())
        }
    };
    match task {
        Task::SelfJoin(n) => {
            if early_stop && tree.max_diameter(n, metric) <= eps {
                return Ok(Step::Group);
            }
            if tree.is_leaf(n) {
                return Ok(Step::Leaf);
            }
            let children = tree.children(n)?;
            if cfg.plane_sweep {
                // Children sorted by their lower bound on the sweep
                // axis: a pair is skipped once the axis gap exceeds ε.
                let spans = sweep_spans(tree, widest_axis(&tree.node_mbr(n)), &children);
                for (i, &(_, hi, a)) in spans.iter().enumerate() {
                    child(Task::SelfJoin(a))?;
                    for &(lo, _, b) in &spans[(i + 1)..] {
                        if lo - hi > eps {
                            break; // sorted by lo: every later child is farther
                        }
                        pair(a, b, &mut child)?;
                    }
                }
            } else {
                for (i, &a) in children.iter().enumerate() {
                    child(Task::SelfJoin(a))?;
                    for &b in &children[(i + 1)..] {
                        pair(a, b, &mut child)?;
                    }
                }
            }
        }
        Task::PairJoin(a, b) => {
            if early_stop && tree.pair_diameter(a, b, metric) <= eps {
                return Ok(Step::Group);
            }
            match (tree.is_leaf(a), tree.is_leaf(b)) {
                (true, true) => return Ok(Step::Leaf),
                (true, false) => {
                    for c in tree.children(b)? {
                        pair(a, c, &mut child)?;
                    }
                }
                (false, true) => {
                    for c in tree.children(a)? {
                        pair(c, b, &mut child)?;
                    }
                }
                (false, false) => {
                    let (ca, cb) = (tree.children(a)?, tree.children(b)?);
                    if cfg.plane_sweep {
                        // `b`'s children sorted by their lower bound; for
                        // each child of `a` the scan stops once the axis
                        // gap exceeds ε.
                        let axis = widest_axis(&tree.node_mbr(a).union(&tree.node_mbr(b)));
                        let sa = sweep_spans(tree, axis, &ca);
                        let sb = sweep_spans(tree, axis, &cb);
                        for &(_, x_hi, x) in &sa {
                            for &(y_lo, _, y) in &sb {
                                if y_lo - x_hi > eps {
                                    break; // sorted by lo: all later children are farther
                                }
                                pair(x, y, &mut child)?;
                            }
                        }
                    } else {
                        for &x in &ca {
                            for &y in &cb {
                                pair(x, y, &mut child)?;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(Step::Split { pruned })
}

/// The child tasks [`expand`] splits an in-memory `task` into, in
/// recursion order; `None` when the recursion would not split it (an
/// early stop, or leaf-level work).
pub(crate) fn child_tasks<T, const D: usize>(
    tree: &T,
    cfg: &JoinConfig,
    early_stop: bool,
    task: Task<NodeId>,
) -> Option<Vec<Task<NodeId>>>
where
    T: JoinIndex<D> + ?Sized,
{
    let mut children = Vec::new();
    let step = infallible(expand(tree, cfg, early_stop, task, |child| {
        children.push(child);
        Ok(())
    }));
    matches!(step, Step::Split { .. }).then_some(children)
}

/// Sweep axis for a box: its widest side, where axis separation prunes
/// the most pairs.
fn widest_axis<const D: usize>(mbr: &Mbr<D>) -> usize {
    let mut best = 0;
    let mut best_extent = f64::NEG_INFINITY;
    for d in 0..D {
        let e = mbr.extent(d);
        if e > best_extent {
            best_extent = e;
            best = d;
        }
    }
    best
}

/// `(lo, hi, node)` on the sweep axis for each node, sorted by `lo`.
fn sweep_spans<S, const D: usize>(
    tree: &S,
    axis: usize,
    nodes: &[S::Node],
) -> Vec<(f64, f64, S::Node)>
where
    S: NodeSource<D> + ?Sized,
{
    let mut spans: Vec<_> = nodes
        .iter()
        .map(|&c| {
            let m = tree.node_mbr(c);
            (m.lo[axis], m.hi[axis], c)
        })
        .collect();
    spans.sort_by(|x, y| x.0.total_cmp(&y.0));
    spans
}

/// The leaf entries sorted along a sweep axis.
fn sorted_on<const D: usize>(entries: &[LeafEntry<D>], axis: usize) -> Vec<LeafEntry<D>> {
    let mut sorted = entries.to_vec();
    sorted.sort_by(|x, y| x.point[axis].total_cmp(&y.point[axis]));
    sorted
}

/// The Figure-3 recursion, generic over node source, link handling and
/// row sink.
pub struct Engine<'t, T, H, R, const D: usize> {
    tree: &'t T,
    cfg: JoinConfig,
    early_stop: bool,
    handler: H,
    cancel: Option<CancelToken>,
    stopped: Option<StopReason>,
    /// The row sink (public so callers can recover collected rows).
    pub sink: R,
    /// Accumulated counters.
    pub stats: JoinStats,
}

impl<'t, T, H, R, const D: usize> Engine<'t, T, H, R, D>
where
    T: NodeSource<D>,
    H: LinkHandler<D>,
    R: RowSink,
{
    /// Builds an engine; `early_stop` enables the compact-join group
    /// rules (italic lines of Figure 3).
    pub fn new(tree: &'t T, cfg: JoinConfig, early_stop: bool, handler: H, sink: R) -> Self {
        // One engine is one thread of execution; the parallel runner
        // overwrites this with the real worker count after merging.
        let stats = JoinStats { threads_used: 1, ..JoinStats::new(cfg.record_access_log) };
        Engine { tree, cfg, early_stop, handler, cancel: None, stopped: None, sink, stats }
    }

    /// Arms a cooperative cancellation token: the recursion checks it on
    /// every node visit and unwinds promptly (keeping all rows emitted so
    /// far) once it is triggered.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Why the traversal stopped early, if it did.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stopped
    }

    /// `true` once the traversal has been stopped (it then unwinds
    /// without visiting further nodes).
    fn check_stopped(&mut self) -> bool {
        if self.stopped.is_some() {
            return true;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_canceled) {
            self.stopped = Some(StopReason::Canceled);
            return true;
        }
        false
    }

    /// Runs the full self-join.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a node cannot be read or the
    /// handler's sink rejects a write; traversal stops at the failure.
    pub fn run(&mut self) -> Result<(), CsjError> {
        if let Some(root) = self.tree.root()? {
            self.join_node(root)?;
        }
        self.finish_only()
    }

    /// Runs only the finish step (used by the budgeted runner after an
    /// aborted traversal; drains the CSJ window so the output stays
    /// lossless over the processed region).
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when draining the window into the
    /// sink fails.
    pub fn finish_only(&mut self) -> Result<(), CsjError> {
        self.handler.finish(&mut self.sink, &mut self.stats)
    }

    /// Runs one task: [`Self::join_node`] or [`Self::join_pair`].
    ///
    /// # Errors
    /// As [`Self::join_node`].
    pub(crate) fn join_task(&mut self, task: Task<T::Node>) -> Result<(), CsjError> {
        match task {
            Task::SelfJoin(n) => self.join_node(n),
            Task::PairJoin(a, b) => self.join_pair(a, b),
        }
    }

    /// `simJoin(n)`: self-join of one subtree.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a node read, leaf probe or emit
    /// hits a storage failure the retry policy could not absorb.
    pub fn join_node(&mut self, n: T::Node) -> Result<(), CsjError> {
        if self.check_stopped() {
            return Ok(());
        }
        self.stats.node_visits += 1;
        self.stats.touch_node(self.tree.log_id(n));
        self.descend(Task::SelfJoin(n))
    }

    /// `simJoin(n1, n2)`: join across two subtrees.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] as in [`Self::join_node`].
    pub fn join_pair(&mut self, a: T::Node, b: T::Node) -> Result<(), CsjError> {
        if self.check_stopped() {
            return Ok(());
        }
        self.stats.pair_visits += 1;
        self.stats.touch_node(self.tree.log_id(a));
        self.stats.touch_node(self.tree.log_id(b));
        self.descend(Task::PairJoin(a, b))
    }

    /// One recursion step below a visited task.
    fn descend(&mut self, task: Task<T::Node>) -> Result<(), CsjError> {
        let (tree, cfg) = (self.tree, self.cfg);
        match expand(tree, &cfg, self.early_stop, task, |child| self.join_task(child))? {
            Step::Group => self.emit_subtree(task),
            Step::Leaf => match task {
                Task::SelfJoin(n) => self.leaf_self(n),
                Task::PairJoin(a, b) => self.leaf_cross(a, b),
            },
            Step::Split { pruned } => {
                self.stats.pairs_pruned += pruned;
                Ok(())
            }
        }
    }

    /// The early stop: every record below the task as one group.
    fn emit_subtree(&mut self, task: Task<T::Node>) -> Result<(), CsjError> {
        let mut ids = Vec::new();
        let mbr = match task {
            Task::SelfJoin(n) => {
                self.stats.early_stops_node += 1;
                self.tree.collect_record_ids(n, &mut ids)?;
                self.subtree_mbr(n)?
            }
            Task::PairJoin(a, b) => {
                self.stats.early_stops_pair += 1;
                self.tree.collect_record_ids(a, &mut ids)?;
                self.tree.collect_record_ids(b, &mut ids)?;
                self.subtree_mbr(a)?.union(&self.subtree_mbr(b)?)
            }
        };
        self.handler.on_subtree(ids, &mbr, &mut self.sink, &mut self.stats)
    }

    /// The subtree group MBR: the node's bounding shape by default, or
    /// recomputed from the member points when configured.
    fn subtree_mbr(&self, n: T::Node) -> Result<Mbr<D>, CsjError> {
        if !self.cfg.tighten_group_mbr {
            return Ok(self.tree.node_mbr(n));
        }
        let mut entries = Vec::new();
        self.tree.collect_entries(n, &mut entries)?;
        let mut mbr = Mbr::empty();
        for e in &entries {
            mbr.expand_to_point(&e.point);
        }
        Ok(mbr)
    }

    /// Leaf self-join. Three probes, one link order per probe:
    ///
    /// * plane sweep: entries sorted along the sweep axis; the inner
    ///   scan stops once the axis gap alone exceeds ε (valid for every
    ///   `Lp` metric, where per-axis deltas lower-bound the distance);
    /// * batched: the leaf's struct-of-arrays slabs through
    ///   [`csj_geom::DistKernel`] (SIMD when the host has it, chunked
    ///   scalar otherwise), with hit order and comparison counts
    ///   identical to the scalar nested loop;
    /// * scalar: the nested loop over entry pairs.
    fn leaf_self(&mut self, n: T::Node) -> Result<(), CsjError> {
        let (tree, cfg) = (self.tree, self.cfg);
        let (eps, metric) = (cfg.epsilon, cfg.metric);
        let Engine { handler, sink, stats, .. } = self;
        let sweep = cfg.plane_sweep.then(|| widest_axis(&tree.node_mbr(n)));
        let mut comps = 0u64;
        let mut link = |x: &LeafEntry<D>, y: &LeafEntry<D>| {
            handler.on_link(x.id, &x.point, y.id, &y.point, &mut *sink, &mut *stats)
        };
        let res = tree.with_leaf(n, |entries, soa| {
            if let Some(axis) = sweep {
                let e = sorted_on(entries, axis);
                for i in 0..e.len() {
                    for j in (i + 1)..e.len() {
                        if e[j].point[axis] - e[i].point[axis] > eps {
                            break;
                        }
                        comps += 1;
                        if metric.within(&e[i].point, &e[j].point, eps) {
                            link(&e[i], &e[j])?;
                        }
                    }
                }
                Ok(())
            } else if cfg.batch_kernel {
                csj_geom::DistKernel::new(metric, eps)
                    .self_join(soa, &mut comps, |i, j| link(&entries[i], &entries[j]))
            } else {
                for i in 0..entries.len() {
                    for j in (i + 1)..entries.len() {
                        comps += 1;
                        if metric.within(&entries[i].point, &entries[j].point, eps) {
                            link(&entries[i], &entries[j])?;
                        }
                    }
                }
                Ok(())
            }
        });
        self.stats.distance_computations += comps;
        res
    }

    /// Leaf cross-join, with the same three probes as
    /// [`Self::leaf_self`]; the sweep runs a sliding window over both
    /// leaves sorted on the widest axis of their combined box. Both
    /// leaves stay readable for the probe (a paged source's two-pin
    /// high-water mark).
    fn leaf_cross(&mut self, a: T::Node, b: T::Node) -> Result<(), CsjError> {
        let (tree, cfg) = (self.tree, self.cfg);
        let (eps, metric) = (cfg.epsilon, cfg.metric);
        let Engine { handler, sink, stats, .. } = self;
        let sweep =
            cfg.plane_sweep.then(|| widest_axis(&tree.node_mbr(a).union(&tree.node_mbr(b))));
        let mut comps = 0u64;
        let mut link = |x: &LeafEntry<D>, y: &LeafEntry<D>| {
            handler.on_link(x.id, &x.point, y.id, &y.point, &mut *sink, &mut *stats)
        };
        let res = tree.with_leaf(a, |ea, sa| {
            tree.with_leaf(b, |eb, sb| {
                if let Some(axis) = sweep {
                    let (ea, eb) = (sorted_on(ea, axis), sorted_on(eb, axis));
                    let mut start = 0usize;
                    for x in &ea {
                        while start < eb.len() && eb[start].point[axis] < x.point[axis] - eps {
                            start += 1;
                        }
                        for y in &eb[start..] {
                            if y.point[axis] - x.point[axis] > eps {
                                break;
                            }
                            comps += 1;
                            if metric.within(&x.point, &y.point, eps) {
                                link(x, y)?;
                            }
                        }
                    }
                    Ok(())
                } else if cfg.batch_kernel {
                    csj_geom::DistKernel::new(metric, eps)
                        .cross_join(sa, sb, &mut comps, |i, j| link(&ea[i], &eb[j]))
                } else {
                    for x in ea {
                        for y in eb {
                            comps += 1;
                            if metric.within(&x.point, &y.point, eps) {
                                link(x, y)?;
                            }
                        }
                    }
                    Ok(())
                }
            })
        });
        self.stats.distance_computations += comps;
        res
    }
}

/// Unwraps a result that cannot be `Err` because every sink involved is
/// in-memory (infallible). Kept as a function so the reasoning is in one
/// place rather than scattered `unwrap`s.
pub(crate) fn infallible<T>(res: Result<T, CsjError>) -> T {
    match res {
        Ok(v) => v,
        Err(e) => unreachable!("in-memory join cannot fail, yet got: {e}"),
    }
}

/// Runs an engine that collects rows, packaging the result.
pub fn run_collecting<T, H, const D: usize>(
    tree: &T,
    cfg: JoinConfig,
    early_stop: bool,
    handler: H,
) -> JoinOutput
where
    T: JoinIndex<D>,
    H: LinkHandler<D>,
{
    let mut engine = Engine::new(tree, cfg, early_stop, handler, CollectSink::default());
    infallible(engine.run());
    JoinOutput {
        items: std::mem::take(&mut engine.sink.items),
        stats: engine.stats,
        ..Default::default()
    }
}

/// Runs an engine that streams rows into `writer`, returning the stats.
/// Sink failures (full disk, injected faults) surface as `Err`; rows
/// already written remain valid join output.
///
/// # Errors
/// Returns [`CsjError::Storage`] when the sink rejects a write; a
/// budget or cancel stop ends the run early but still returns `Ok`
/// with the stats accumulated so far.
pub fn run_streaming<T, H, S, const D: usize>(
    tree: &T,
    cfg: JoinConfig,
    early_stop: bool,
    handler: H,
    writer: &mut OutputWriter<S>,
) -> Result<JoinStats, CsjError>
where
    T: JoinIndex<D>,
    H: LinkHandler<D>,
    S: OutputSink,
{
    let mut engine = Engine::new(tree, cfg, early_stop, handler, StreamSink::new(writer));
    engine.run()?;
    Ok(engine.stats)
}

#[cfg(test)]
mod sweep_tests {
    use crate::brute::brute_force_links;
    use crate::csj::CsjJoin;
    use crate::ncsj::NcsjJoin;
    use crate::ssj::SsjJoin;
    use csj_geom::{Metric, Point};
    use csj_index::{rstar::RStarTree, RTreeConfig};

    fn stripe(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Point::new([t, (t * 29.0).sin() * 0.04])
            })
            .collect()
    }

    #[test]
    fn sweep_reports_the_same_link_set() {
        let pts = stripe(800);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        for eps in [0.004, 0.02, 0.1] {
            let truth = brute_force_links(&pts, eps);
            let plain = SsjJoin::new(eps).run(&tree);
            let swept = SsjJoin::new(eps).with_plane_sweep().run(&tree);
            assert_eq!(plain.expanded_link_set(), truth, "plain eps={eps}");
            assert_eq!(swept.expanded_link_set(), truth, "swept eps={eps}");
            let nc = NcsjJoin::new(eps).with_plane_sweep().run(&tree);
            assert_eq!(nc.expanded_link_set(), truth, "ncsj swept eps={eps}");
            let cs = CsjJoin::new(eps).with_window(10).with_plane_sweep().run(&tree);
            assert_eq!(cs.expanded_link_set(), truth, "csj swept eps={eps}");
        }
    }

    #[test]
    fn sweep_reduces_distance_computations_at_small_eps() {
        // A long thin stripe with small eps: most leaf pairs are far
        // apart along x, exactly what the sweep skips without a distance
        // computation.
        let pts = stripe(2000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(32));
        let eps = 0.002;
        let plain = SsjJoin::new(eps).run(&tree);
        let swept = SsjJoin::new(eps).with_plane_sweep().run(&tree);
        assert!(
            swept.stats.distance_computations < plain.stats.distance_computations / 2,
            "sweep {} vs plain {}",
            swept.stats.distance_computations,
            plain.stats.distance_computations
        );
        assert_eq!(swept.expanded_link_set(), plain.expanded_link_set());
    }

    #[test]
    fn sweep_correct_under_non_euclidean_metrics() {
        // The sweep prune (axis gap > eps implies distance > eps) must
        // hold for L1 and Linf too.
        let pts = stripe(500);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        for metric in [Metric::Manhattan, Metric::Chebyshev] {
            let eps = 0.01;
            let plain = SsjJoin::new(eps).with_metric(metric).run(&tree);
            let swept = SsjJoin::new(eps).with_metric(metric).with_plane_sweep().run(&tree);
            assert_eq!(plain.expanded_link_set(), swept.expanded_link_set(), "{metric:?}");
        }
    }

    #[test]
    fn sweep_on_3d_data() {
        let pts: Vec<Point<3>> = (0..600)
            .map(|i| {
                let t = i as f64 / 600.0;
                Point::new([t, (t * 13.0).cos() * 0.05, (t * 7.0).sin() * 0.05])
            })
            .collect();
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let eps = 0.01;
        let mut truth = std::collections::BTreeSet::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if pts[i].euclidean(&pts[j]) <= eps {
                    truth.insert((i as u32, j as u32));
                }
            }
        }
        let swept = SsjJoin::new(eps).with_plane_sweep().run(&tree);
        assert_eq!(swept.expanded_link_set(), truth);
    }
}
