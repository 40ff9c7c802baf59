//! Forwarding wrappers around the program's public seams.
//!
//! Each wrapper implements the seam's trait by calling the wrapped
//! value — *every* method, provided ones included, so a wrapped run
//! executes the same code as an unwrapped one — and counts or times the
//! calls on the way through:
//!
//! * [`CountingIndex`] around [`JoinIndex`]: bound evaluations, leaf
//!   reads and ids collected for early-stop groups. Counted, not
//!   timed: a clock read costs as much as one bound evaluation.
//! * [`TimedDisk`] around [`Disk`]: page reads and writes with the time
//!   the calling thread waited for them.
//! * [`TimedSink`] around [`OutputSink`]: rows, bytes and write time,
//!   plus the enumeration delay (time to the first row, largest gap
//!   between rows), timing one row in [`SINK_SAMPLE`].

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use csj_geom::{Mbr, Metric, RecordId, SoaView};
use csj_index::{JoinIndex, LeafEntry, NodeId};
use csj_storage::{Disk, OutputSink, Page, PageId, StorageError};

use crate::trace::Timing;

/// Totals of the index calls a [`CountingIndex`] saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexCounts {
    /// `min_dist` + `pair_diameter` + `max_diameter` calls.
    pub bound_calls: u64,
    /// `leaf_soa` + `leaf_entries` calls.
    pub leaf_reads: u64,
    /// Record ids appended by `collect_record_ids`.
    pub collected_ids: u64,
}

const BOUND: usize = 0;
const LEAF: usize = 1;
const COLLECTED: usize = 2;
const SLOTS: usize = 16;
/// The slot every thread after the first `SLOTS - 1` shares.
const SHARED: usize = SLOTS - 1;

/// Counters of one thread, on a cache line of their own so two join
/// workers never write the same line.
#[repr(align(128))]
#[derive(Default)]
struct Slot([AtomicU64; 3]);

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The wrapper this thread last counted for, and its slot there.
    static CLAIM: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// A [`JoinIndex`] that forwards to `inner` and counts index calls.
///
/// Safe to share between the parallel join's workers. A thread's first
/// call claims a slot of its own, which only that thread writes, so a
/// count is a plain load and store rather than a locked add (a locked
/// add per bound evaluation slowed `road-mem` passes by a fifth).
/// Threads beyond the first `SLOTS - 1` share the last slot and add to
/// it atomically.
pub struct CountingIndex<'t, T> {
    inner: &'t T,
    id: u64,
    claimed: AtomicUsize,
    slots: Box<[Slot]>,
}

impl<'t, T> CountingIndex<'t, T> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'t T) -> Self {
        CountingIndex {
            inner,
            // ORDERING: hands out distinct ids; publishes no other data.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            claimed: AtomicUsize::new(0),
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }
    }

    #[inline]
    fn bump(&self, counter: usize, by: u64) {
        let slot = CLAIM.with(|claim| match claim.get() {
            (id, slot) if id == self.id => slot,
            _ => {
                // ORDERING: hands out distinct slots; publishes no
                // other data.
                let slot = self.claimed.fetch_add(1, Ordering::Relaxed).min(SHARED);
                claim.set((self.id, slot));
                slot
            }
        });
        let cell = &self.slots[slot].0[counter];
        // ORDERING: statistics, read only after the join's threads are
        // joined (which orders every write before the read).
        if slot == SHARED {
            cell.fetch_add(by, Ordering::Relaxed);
        } else {
            cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
        }
    }

    /// Totals over all threads.
    pub fn counts(&self) -> IndexCounts {
        let total =
            |c: usize| -> u64 { self.slots.iter().map(|s| s.0[c].load(Ordering::Relaxed)).sum() };
        IndexCounts {
            bound_calls: total(BOUND),
            leaf_reads: total(LEAF),
            collected_ids: total(COLLECTED),
        }
    }
}

impl<T: JoinIndex<D>, const D: usize> JoinIndex<D> for CountingIndex<'_, T> {
    fn root(&self) -> Option<NodeId> {
        self.inner.root()
    }
    fn is_leaf(&self, n: NodeId) -> bool {
        self.inner.is_leaf(n)
    }
    fn children(&self, n: NodeId) -> &[NodeId] {
        self.inner.children(n)
    }
    fn leaf_entries(&self, n: NodeId) -> &[LeafEntry<D>] {
        self.bump(LEAF, 1);
        self.inner.leaf_entries(n)
    }
    fn leaf_soa(&self, n: NodeId) -> SoaView<'_, D> {
        self.bump(LEAF, 1);
        self.inner.leaf_soa(n)
    }
    fn node_mbr(&self, n: NodeId) -> Mbr<D> {
        self.inner.node_mbr(n)
    }
    fn max_diameter(&self, n: NodeId, metric: Metric) -> f64 {
        self.bump(BOUND, 1);
        self.inner.max_diameter(n, metric)
    }
    fn pair_diameter(&self, a: NodeId, b: NodeId, metric: Metric) -> f64 {
        self.bump(BOUND, 1);
        self.inner.pair_diameter(a, b, metric)
    }
    fn min_dist(&self, a: NodeId, b: NodeId, metric: Metric) -> f64 {
        self.bump(BOUND, 1);
        self.inner.min_dist(a, b, metric)
    }
    fn num_records(&self) -> usize {
        self.inner.num_records()
    }
    fn height(&self) -> usize {
        self.inner.height()
    }
    fn collect_record_ids(&self, n: NodeId, out: &mut Vec<RecordId>) {
        let before = out.len();
        self.inner.collect_record_ids(n, out);
        self.bump(COLLECTED, (out.len() - before) as u64);
    }
    fn collect_entries(&self, n: NodeId, out: &mut Vec<LeafEntry<D>>) {
        self.inner.collect_entries(n, out);
    }
    fn subtree_node_count(&self, n: NodeId) -> usize {
        self.inner.subtree_node_count(n)
    }
}

/// Read and write timings of a [`TimedDisk`], shared with its owner.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskTiming {
    /// `read` calls.
    pub reads: Timing,
    /// `write` calls; `sync` time is added as busy time.
    pub writes: Timing,
}

/// A [`Disk`] that forwards to `inner` and times reads and writes.
///
/// The timings live behind a shared handle ([`TimedDisk::timing`])
/// because the paged tree takes ownership of its disk.
#[derive(Debug)]
pub struct TimedDisk<Dk> {
    inner: Dk,
    timing: Rc<Cell<DiskTiming>>,
}

impl<Dk> TimedDisk<Dk> {
    /// Wraps `inner` with zeroed timings.
    pub fn new(inner: Dk) -> Self {
        TimedDisk { inner, timing: Rc::default() }
    }

    /// A handle to the timings that outlives the move into a tree.
    pub fn timing(&self) -> Rc<Cell<DiskTiming>> {
        Rc::clone(&self.timing)
    }

    fn record(&self, start: Instant, write: bool, call: bool) {
        let end = Instant::now();
        let mut t = self.timing.get();
        let seam = if write { &mut t.writes } else { &mut t.reads };
        if call {
            seam.add(start, end);
        } else {
            seam.add_busy(start, end);
        }
        self.timing.set(t);
    }
}

impl<Dk: Disk> Disk for TimedDisk<Dk> {
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.inner.alloc()
    }
    fn alloc_through(&mut self, id: PageId) -> Result<(), StorageError> {
        self.inner.alloc_through(id)
    }
    fn read(&mut self, id: PageId) -> Result<Page, StorageError> {
        let start = Instant::now();
        let page = self.inner.read(id);
        self.record(start, false, true);
        page
    }
    fn write(&mut self, page: &Page) -> Result<(), StorageError> {
        let start = Instant::now();
        let res = self.inner.write(page);
        self.record(start, true, true);
        res
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        let start = Instant::now();
        let res = self.inner.sync();
        self.record(start, true, false);
        res
    }
    fn reads(&self) -> u64 {
        self.inner.reads()
    }
    fn writes(&self) -> u64 {
        self.inner.writes()
    }
    fn faults_injected(&self) -> u64 {
        self.inner.faults_injected()
    }
}

/// Rows between two timed rows of a [`TimedSink`]. A clock read costs
/// about as much as writing a short row, so timing every row would
/// double the cost of the seam it measures.
pub const SINK_SAMPLE: u64 = 16;

/// An [`OutputSink`] that forwards to `inner` and times every
/// [`SINK_SAMPLE`]-th row, starting with the first.
///
/// The join writers hand the sink one formatted row per call. Write
/// time is estimated from the timed rows; the largest gap between rows
/// is measured between consecutive timed rows, so its resolution is
/// [`SINK_SAMPLE`] rows.
#[derive(Debug)]
pub struct TimedSink<S> {
    inner: S,
    rows: u64,
    sampled: Timing,
    flush: Duration,
}

impl<S> TimedSink<S> {
    /// Wraps `inner` with zeroed timings.
    pub fn new(inner: S) -> Self {
        TimedSink { inner, rows: 0, sampled: Timing::default(), flush: Duration::ZERO }
    }

    /// Rows written, with the write time scaled up from the timed rows
    /// and the final flush added.
    pub fn timing(&self) -> Timing {
        let mut t = self.sampled;
        if t.count > 0 {
            t.busy = t.busy.mul_f64(self.rows as f64 / t.count as f64);
        }
        t.busy += self.flush;
        t.count = self.rows;
        t
    }
}

impl<S: OutputSink> OutputSink for TimedSink<S> {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.rows += 1;
        if !(self.rows - 1).is_multiple_of(SINK_SAMPLE) {
            return self.inner.write_bytes(bytes);
        }
        let start = Instant::now();
        let res = self.inner.write_bytes(bytes);
        self.sampled.add(start, Instant::now());
        res
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        let start = Instant::now();
        let res = self.inner.flush();
        let end = Instant::now();
        self.flush += end.duration_since(start);
        self.sampled.end = Some(end);
        res
    }
}
