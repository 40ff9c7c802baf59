//! Page-serialized R*-tree nodes behind a live buffer pool.
//!
//! The in-memory trees keep nodes in an arena; this module stores them
//! in fixed-size disk pages (one node per page, the granularity the
//! paper's Experiment 3 simulates), giving the join engines a real
//! external-memory index: resident nodes are bounded by a
//! [`BufferPool`], in-use pages are pinned, and everything else lives
//! on a [`Disk`] — the counting simulation or a real page file.
//!
//! # Page format (version 1, little-endian)
//!
//! Page 0 is the superblock:
//!
//! ```text
//! magic "CSJPAGE1" | version u32 | dims u32 | max_fanout u32 |
//! height u32 | num_records u64 | node_pages u64 | root_page u64
//! ```
//!
//! (`root_page == 0` encodes an empty tree — page 0 is the superblock,
//! so no node can live there.) Every other page is one node:
//!
//! ```text
//! level u32 | count u32 | node MBR (2·D f64) | payload
//! ```
//!
//! where the payload is `count` leaf entries (`id u32`, `point D·f64`)
//! at level 0 and `count` child slots (`child page u64`, `child MBR
//! 2·D f64`) above. **Parents store their children's MBRs**: every
//! pruning and early-stopping decision the join engines make
//! (`min_dist`, `pair_diameter`, `max_diameter`) is a pure function of
//! node MBRs, so child pages are only faulted in when a pair actually
//! survives pruning — and the out-of-core traversal makes bit-identical
//! decisions to the in-memory one.
//!
//! Trees reach disk two ways: [`PagedTree::from_core`] serializes any
//! built [`RectCore`] (so all three bulk loaders — STR, Hilbert, OMT —
//! write to pages), and [`PagedTree::build_str`] runs an STR build
//! bottom-up without one. Its STR tiling sorts all leaf entries in one
//! buffer first; then it encodes each leaf and writes it straight through
//! the retry pager, bypassing the buffer pool, and keeps only
//! `(page, MBR)` per node of the level under construction. Resident
//! during the build are the entries (with the sort's scratch while the
//! tiling runs), one level's summaries and the page being encoded — the
//! node arena for a multi-million-point tree never materializes, and the
//! finished tree starts with a cold pool.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::rc::Rc;

use crate::bulk::{leaf_mbr, make_entries, str_chunks};
use crate::rect::RectCore;
use crate::store::LeafStore;
use crate::traits::LeafEntry;
use crate::RTreeConfig;
use csj_geom::{Mbr, Point, RecordId};
use csj_storage::buffer::{BufferPool, BufferStats};
use csj_storage::disk::Disk;
use csj_storage::{IoOp, Page, PageId, RetryPager, RetryPolicy, StorageError, PAGE_SIZE};

/// Superblock magic: identifies a CSJ page file, version 1.
const MAGIC: &[u8; 8] = b"CSJPAGE1";
/// On-disk format version.
const VERSION: u32 = 1;
/// Fixed superblock length (magic + 4 u32 + 3 u64).
const SUPERBLOCK_LEN: usize = 8 + 4 * 4 + 3 * 8;
/// Node page header length before the payload: level, count, node MBR.
const fn node_header_len(dims: usize) -> usize {
    8 + 16 * dims
}
/// Bytes per leaf entry: record id + point.
const fn leaf_entry_len(dims: usize) -> usize {
    4 + 8 * dims
}
/// Bytes per internal child slot: child page + child MBR.
const fn child_slot_len(dims: usize) -> usize {
    8 + 16 * dims
}

/// Tree-level metadata stored in the superblock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagedMeta {
    /// Spatial dimensionality of the stored tree.
    pub dims: u32,
    /// Maximum node fanout the tree was built with.
    pub max_fanout: u32,
    /// Tree height (1 = single leaf root, 0 = empty).
    pub height: u32,
    /// Number of data records.
    pub num_records: u64,
    /// Node pages written (excluding the superblock).
    pub node_pages: u64,
    /// The root node's page, `None` for an empty tree.
    pub root: Option<PageId>,
}

/// One decoded tree node, as read from (or about to be written to) a
/// page.
#[derive(Clone, Debug)]
pub struct PagedNode<const D: usize> {
    /// Distance from the leaf level (0 = leaf).
    pub level: u32,
    /// Bounding rectangle of everything below this node.
    pub mbr: Mbr<D>,
    /// Child pages with their MBRs (internal nodes only).
    pub children: Vec<(PageId, Mbr<D>)>,
    /// Data records (leaves only), with the struct-of-arrays mirror the
    /// batched distance kernels probe.
    pub entries: LeafStore<D>,
}

impl<const D: usize> PagedNode<D> {
    /// A leaf over `entries` (MBR computed from the points).
    pub fn leaf(entries: Vec<LeafEntry<D>>) -> Self {
        PagedNode {
            level: 0,
            mbr: leaf_mbr(&entries),
            children: Vec::new(),
            entries: entries.into(),
        }
    }

    /// An internal node over `children` (MBR = union of child MBRs).
    pub fn internal(level: u32, children: Vec<(PageId, Mbr<D>)>) -> Self {
        debug_assert!(level >= 1);
        PagedNode { level, mbr: children_mbr(&children), children, entries: LeafStore::new() }
    }

    /// `true` if the node stores data records directly.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Serialized size in bytes.
    fn encoded_len(&self) -> usize {
        node_header_len(D)
            + if self.is_leaf() {
                self.entries.len() * leaf_entry_len(D)
            } else {
                self.children.len() * child_slot_len(D)
            }
    }
}

/// The union of child MBRs: an internal node's MBR.
fn children_mbr<const D: usize>(children: &[(PageId, Mbr<D>)]) -> Mbr<D> {
    let mut mbr = Mbr::empty();
    for (_, m) in children {
        mbr.expand_to_mbr(m);
    }
    mbr
}

fn corrupt(page: PageId, msg: impl std::fmt::Display) -> StorageError {
    StorageError::Io { op: IoOp::Read, detail: format!("corrupt page {}: {msg}", page.0) }
}

/// Largest fanout whose nodes (leaf *and* internal — child slots are
/// the wider of the two) are guaranteed to fit one page.
const fn max_page_fanout(dims: usize) -> usize {
    let leaf = (PAGE_SIZE - node_header_len(dims)) / leaf_entry_len(dims);
    let child = (PAGE_SIZE - node_header_len(dims)) / child_slot_len(dims);
    if child < leaf {
        child
    } else {
        leaf
    }
}

/// Rejects a fanout whose full nodes cannot be paged. Checked up front
/// by [`PagedTree::from_core`] / [`PagedTree::build_str`] so an
/// impossible configuration fails before any page is allocated,
/// instead of mid-build with orphan pages already on disk.
fn check_fanout(dims: usize, fanout: usize) -> Result<(), StorageError> {
    let cap = max_page_fanout(dims);
    if fanout > cap {
        return Err(StorageError::Io {
            op: IoOp::Write,
            detail: format!(
                "fanout {fanout} cannot be paged: a full {dims}-d node needs more than the \
                 {PAGE_SIZE}-byte page (max pageable fanout is {cap})"
            ),
        });
    }
    Ok(())
}

/// Little-endian reader over one page's bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    page: PageId,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(corrupt(self.page, format!("truncated at byte {}", self.pos)));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn mbr<const D: usize>(&mut self) -> Result<Mbr<D>, StorageError> {
        let mut lo = [0.0f64; D];
        let mut hi = [0.0f64; D];
        for slot in &mut lo {
            *slot = self.f64()?;
        }
        for slot in &mut hi {
            *slot = self.f64()?;
        }
        // Construct directly: `Mbr::new` debug-asserts ordered corners,
        // which decoding must not do on (possibly corrupt) disk bytes.
        Ok(Mbr { lo: Point::new(lo), hi: Point::new(hi) })
    }
}

fn put_mbr<const D: usize>(buf: &mut Vec<u8>, mbr: &Mbr<D>) {
    for d in 0..D {
        buf.extend_from_slice(&mbr.lo[d].to_bits().to_le_bytes());
    }
    for d in 0..D {
        buf.extend_from_slice(&mbr.hi[d].to_bits().to_le_bytes());
    }
}

/// Serializes a node into page bytes (zero-padded to [`PAGE_SIZE`]).
fn encode_node<const D: usize>(node: &PagedNode<D>) -> Vec<u8> {
    if node.is_leaf() {
        encode_leaf(&node.mbr, node.entries.entries())
    } else {
        encode_internal(node.level, &node.mbr, &node.children)
    }
}

/// Serializes a leaf over `entries` with bounding rectangle `mbr`.
fn encode_leaf<const D: usize>(mbr: &Mbr<D>, entries: &[LeafEntry<D>]) -> Vec<u8> {
    let mut buf = node_header(0, entries.len(), mbr, entries.len() * leaf_entry_len(D));
    for e in entries {
        buf.extend_from_slice(&e.id.to_le_bytes());
        for d in 0..D {
            buf.extend_from_slice(&e.point[d].to_bits().to_le_bytes());
        }
    }
    checked_page(buf)
}

/// Serializes an internal node at `level` over `children`.
fn encode_internal<const D: usize>(
    level: u32,
    mbr: &Mbr<D>,
    children: &[(PageId, Mbr<D>)],
) -> Vec<u8> {
    let mut buf = node_header(level, children.len(), mbr, children.len() * child_slot_len(D));
    for (page, child) in children {
        buf.extend_from_slice(&page.0.to_le_bytes());
        put_mbr(&mut buf, child);
    }
    checked_page(buf)
}

/// A node page's header, in a buffer with room for `payload` more bytes.
fn node_header<const D: usize>(level: u32, count: usize, mbr: &Mbr<D>, payload: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(node_header_len(D) + payload);
    buf.extend_from_slice(&level.to_le_bytes());
    buf.extend_from_slice(&(count as u32).to_le_bytes());
    put_mbr(&mut buf, mbr);
    buf
}

fn checked_page(buf: Vec<u8>) -> Vec<u8> {
    debug_assert!(
        buf.len() <= PAGE_SIZE,
        "encoded node ({} bytes) exceeds the page — fanout validation let an oversized \
         node through",
        buf.len(),
    );
    buf
}

/// Decodes one node page.
///
/// # Errors
/// Returns [`StorageError::Io`] when the page bytes are truncated or
/// internally inconsistent (corruption).
pub fn decode_node<const D: usize>(
    bytes: &[u8],
    page: PageId,
) -> Result<PagedNode<D>, StorageError> {
    let mut c = Cursor { buf: bytes, pos: 0, page };
    let level = c.u32()?;
    let count = c.u32()? as usize;
    let mbr = c.mbr::<D>()?;
    if level == 0 {
        if count > (PAGE_SIZE - node_header_len(D)) / leaf_entry_len(D) {
            return Err(corrupt(page, format!("leaf count {count} exceeds page capacity")));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let id = c.u32()? as RecordId;
            let mut coords = [0.0f64; D];
            for slot in &mut coords {
                *slot = c.f64()?;
            }
            entries.push(LeafEntry::new(id, Point::new(coords)));
        }
        Ok(PagedNode { level, mbr, children: Vec::new(), entries: entries.into() })
    } else {
        if count > (PAGE_SIZE - node_header_len(D)) / child_slot_len(D) {
            return Err(corrupt(page, format!("child count {count} exceeds page capacity")));
        }
        let mut children = Vec::with_capacity(count);
        for _ in 0..count {
            let child = PageId(c.u64()?);
            if child.0 == 0 {
                return Err(corrupt(page, "child pointer into the superblock"));
            }
            let child_mbr = c.mbr::<D>()?;
            children.push((child, child_mbr));
        }
        Ok(PagedNode { level, mbr, children, entries: LeafStore::new() })
    }
}

fn encode_superblock(meta: &PagedMeta) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SUPERBLOCK_LEN);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&meta.dims.to_le_bytes());
    buf.extend_from_slice(&meta.max_fanout.to_le_bytes());
    buf.extend_from_slice(&meta.height.to_le_bytes());
    buf.extend_from_slice(&meta.num_records.to_le_bytes());
    buf.extend_from_slice(&meta.node_pages.to_le_bytes());
    buf.extend_from_slice(&meta.root.map_or(0, |p| p.0).to_le_bytes());
    buf
}

fn decode_superblock(bytes: &[u8]) -> Result<PagedMeta, StorageError> {
    let page = PageId(0);
    let mut c = Cursor { buf: bytes, pos: 0, page };
    if c.take(8)? != MAGIC {
        return Err(corrupt(page, "bad magic (not a CSJ page file)"));
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(corrupt(page, format!("unsupported format version {version}")));
    }
    let dims = c.u32()?;
    let max_fanout = c.u32()?;
    let height = c.u32()?;
    let num_records = c.u64()?;
    let node_pages = c.u64()?;
    let root_raw = c.u64()?;
    Ok(PagedMeta {
        dims,
        max_fanout,
        height,
        num_records,
        node_pages,
        root: (root_raw != 0).then_some(PageId(root_raw)),
    })
}

/// Cumulative counters of a [`PagedStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagedStats {
    /// Buffer-pool hits / misses / evictions.
    pub pool: BufferStats,
    /// Physical page read attempts on the backing disk.
    pub disk_reads: u64,
    /// Physical page write attempts on the backing disk.
    pub disk_writes: u64,
    /// Transient-fault retries absorbed by the pager.
    pub io_retries: u64,
    /// Faults the disk's injector produced.
    pub faults_injected: u64,
    /// Page misses served from prefetch-staged bytes instead of a
    /// synchronous disk read.
    pub prefetch_supplied: u64,
    /// Node pages decoded (equals pool misses for a read-only join).
    pub nodes_decoded: u64,
}

/// In-memory page state: the pool, the decoded-node cache, dirty
/// tracking, and the prefetch staging area. Never touches the disk —
/// write-back work leaves as [`PoolState::detach`] results the caller
/// performs *after* releasing the borrow.
struct PoolState<const D: usize> {
    pool: BufferPool,
    cache: HashMap<PageId, Rc<PagedNode<D>>>,
    dirty: HashSet<PageId>,
    staged: HashMap<PageId, Vec<u8>>,
    prefetch_supplied: u64,
    nodes_decoded: u64,
}

impl<const D: usize> PoolState<D> {
    /// Detaches an evicted `victim` from the cache, returning its
    /// encoded bytes when it was dirty and must reach the disk. The
    /// write itself is the caller's job, outside this borrow.
    fn detach(&mut self, victim: PageId) -> Option<(PageId, Vec<u8>)> {
        let node = self.cache.remove(&victim);
        if self.dirty.remove(&victim) {
            // csj-lint: allow(panic-safety) — a dirty page is by
            // construction cached; the pool never evicts what the cache
            // does not hold.
            let node = node.expect("dirty page must be cached");
            Some((victim, encode_node(node.as_ref())))
        } else {
            None
        }
    }
}

/// Node store over a [`Disk`]: decoded nodes cached under a pinned LRU
/// [`BufferPool`], dirty pages written back on eviction, reads retried
/// per the pager's policy.
///
/// Single-threaded by design (interior mutability via `RefCell`); the
/// async prefetcher runs in `csj-core` and hands raw page bytes in
/// through [`PagedStore::stage_raw`].
///
/// Pool state and the pager live in *separate* cells so that no disk
/// access ever happens while the state borrow is held: each operation
/// runs as short state-only critical sections with the I/O between
/// them. Beyond keeping the borrow windows tiny, this fixes a failure
/// -atomicity bug the single-cell layout had: a page used to be
/// admitted to the pool *before* its disk read, so a failed read left
/// the pool claiming a residency the cache never got.
pub struct PagedStore<const D: usize, Dk: Disk> {
    state: RefCell<PoolState<D>>,
    io: RefCell<RetryPager<Dk>>,
}

impl<const D: usize, Dk: Disk> std::fmt::Debug for PagedStore<D, Dk> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.borrow();
        f.debug_struct("PagedStore")
            .field("pool_capacity", &state.pool.capacity())
            .field("cached", &state.cache.len())
            .field("dirty", &state.dirty.len())
            .field("staged", &state.staged.len())
            .finish()
    }
}

/// A pinned, decoded node. The underlying page stays resident (and the
/// pool slot pinned) until the guard drops, so the node data a caller
/// holds can never be evicted underneath it.
pub struct NodeGuard<'s, const D: usize, Dk: Disk> {
    store: &'s PagedStore<D, Dk>,
    page: PageId,
    node: Rc<PagedNode<D>>,
}

impl<const D: usize, Dk: Disk> Deref for NodeGuard<'_, D, Dk> {
    type Target = PagedNode<D>;
    fn deref(&self) -> &PagedNode<D> {
        &self.node
    }
}

impl<const D: usize, Dk: Disk> NodeGuard<'_, D, Dk> {
    /// The page this guard pins.
    pub fn page(&self) -> PageId {
        self.page
    }
}

impl<const D: usize, Dk: Disk> Drop for NodeGuard<'_, D, Dk> {
    fn drop(&mut self) {
        self.store.state.borrow_mut().pool.unpin(self.page);
    }
}

impl<const D: usize, Dk: Disk> PagedStore<D, Dk> {
    /// A store over `disk` with an LRU pool of `pool_pages` frames.
    pub fn new(disk: Dk, policy: RetryPolicy, pool_pages: usize) -> Self {
        PagedStore {
            state: RefCell::new(PoolState {
                pool: BufferPool::new(pool_pages),
                cache: HashMap::new(),
                dirty: HashSet::new(),
                staged: HashMap::new(),
                prefetch_supplied: 0,
                nodes_decoded: 0,
            }),
            io: RefCell::new(RetryPager::new(disk, policy)),
        }
    }

    /// Reads (or finds cached) the node on `page`, pinning it for the
    /// lifetime of the returned guard.
    ///
    /// The page is admitted to the pool only *after* its bytes have
    /// been read and decoded: a failed read leaves the pool, cache and
    /// staging exactly as they were, so the call can simply be retried.
    ///
    /// # Errors
    /// Returns [`StorageError::AllPagesPinned`] when the pool cannot
    /// admit the page, [`StorageError::Io`] for disk failures or a
    /// corrupt page, and whatever the retry pager could not absorb.
    pub fn node(&self, page: PageId) -> Result<NodeGuard<'_, D, Dk>, StorageError> {
        // Fast path: resident. One short state borrow, no I/O.
        let staged = {
            let mut state = self.state.borrow_mut();
            if state.pool.contains(page) {
                let adm = state.pool.try_access(page)?;
                debug_assert!(adm.hit && adm.evicted.is_none());
                let node = match state.cache.get(&page) {
                    Some(n) => n.clone(),
                    None => {
                        return Err(corrupt(page, "pool/cache desync (resident but not cached)"))
                    }
                };
                state.pool.pin(page);
                return Ok(NodeGuard { store: self, page, node });
            }
            state.staged.remove(&page)
        };

        // Miss: fetch and decode with no borrow across the I/O.
        let from_prefetch = staged.is_some();
        let bytes = match staged {
            Some(b) => b,
            None => self.io.borrow_mut().read(page)?.data,
        };
        let node = Rc::new(decode_node::<D>(&bytes, page)?);

        // Admit, pin, and collect any eviction write-back to perform
        // after the borrow ends.
        let writeback = {
            let mut state = self.state.borrow_mut();
            let adm = match state.pool.try_access(page) {
                Ok(adm) => adm,
                Err(e) => {
                    if from_prefetch {
                        // Keep the prefetched copy for a later retry.
                        state.staged.insert(page, bytes);
                    }
                    return Err(e);
                }
            };
            let writeback = adm.evicted.and_then(|victim| state.detach(victim));
            if from_prefetch {
                state.prefetch_supplied += 1;
            }
            state.nodes_decoded += 1;
            state.cache.insert(page, node.clone());
            state.pool.pin(page);
            writeback
        };
        if let Some((victim, data)) = writeback {
            // Bound `let` so the io borrow ends before the error path
            // re-borrows state (an `if let` scrutinee temporary would
            // outlive the whole branch) — state before io, always.
            let written = self.io.borrow_mut().write(&Page::with_data(victim, data));
            if let Err(e) = written {
                // Keep the pin count balanced on the error path; the
                // page itself stays resident and cached.
                self.state.borrow_mut().pool.unpin(page);
                return Err(e);
            }
        }
        Ok(NodeGuard { store: self, page, node })
    }

    /// Writes `node` to a freshly allocated page through the pool
    /// (page 0 is reserved for the superblock on first use). The page
    /// is cached dirty; it reaches the disk on eviction or at
    /// [`PagedStore::checkpoint`].
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the node does not fit a page
    /// or allocation fails, and [`StorageError::AllPagesPinned`] when
    /// the pool cannot admit it.
    pub fn put_node(&self, node: PagedNode<D>) -> Result<PageId, StorageError> {
        let need = node.encoded_len();
        if need > PAGE_SIZE {
            return Err(StorageError::Io {
                op: IoOp::Write,
                detail: format!(
                    "node ({} bytes, fanout {}) exceeds the {PAGE_SIZE}-byte page — lower the \
                     tree fanout",
                    need,
                    if node.is_leaf() { node.entries.len() } else { node.children.len() },
                ),
            });
        }
        let page = self.alloc_page()?;
        let writeback = {
            let mut state = self.state.borrow_mut();
            let adm = state.pool.try_access(page)?;
            let writeback = adm.evicted.and_then(|victim| state.detach(victim));
            state.cache.insert(page, Rc::new(node));
            state.dirty.insert(page);
            writeback
        };
        if let Some((victim, data)) = writeback {
            self.io.borrow_mut().write(&Page::with_data(victim, data))?;
        }
        Ok(page)
    }

    /// Allocates the next node page (page 0 is reserved for the
    /// superblock on first use).
    fn alloc_page(&self) -> Result<PageId, StorageError> {
        let mut io = self.io.borrow_mut();
        if io.disk().num_pages() == 0 {
            io.disk_mut().alloc_through(PageId(0))?; // superblock
        }
        io.disk_mut().alloc()
    }

    /// Writes an encoded node to a freshly allocated page straight
    /// through the retry pager. The pool never sees the page: it is not
    /// resident afterwards, and the write is already done.
    fn write_new_page(&self, bytes: Vec<u8>) -> Result<PageId, StorageError> {
        if bytes.len() > PAGE_SIZE {
            return Err(StorageError::Io {
                op: IoOp::Write,
                detail: format!(
                    "encoded node ({} bytes) exceeds the {PAGE_SIZE}-byte page — lower the tree \
                     fanout",
                    bytes.len()
                ),
            });
        }
        let page = self.alloc_page()?;
        self.io.borrow_mut().write(&Page::with_data(page, bytes))?;
        Ok(page)
    }

    /// Writes the superblock (page 0) directly.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when allocation or the write fails.
    pub fn write_superblock(&self, meta: &PagedMeta) -> Result<(), StorageError> {
        let mut io = self.io.borrow_mut();
        io.disk_mut().alloc_through(PageId(0))?;
        io.write(&Page::with_data(PageId(0), encode_superblock(meta)))
    }

    /// Reads and decodes the superblock.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the read fails, the file is not
    /// a CSJ page file, or its dimensionality differs from `D`.
    pub fn read_superblock(&self) -> Result<PagedMeta, StorageError> {
        let page = self.io.borrow_mut().read(PageId(0))?;
        let meta = decode_superblock(&page.data)?;
        if meta.dims as usize != D {
            return Err(corrupt(
                PageId(0),
                format!("dimensionality mismatch: file stores {}-d, caller wants {D}-d", meta.dims),
            ));
        }
        Ok(meta)
    }

    /// Flushes every dirty page and fsyncs the disk, making the tree
    /// durable.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] (or an exhausted-retries error) when
    /// a write-back or the final sync fails.
    pub fn checkpoint(&self) -> Result<(), StorageError> {
        // Snapshot the dirty set (sorted: deterministic write order)
        // and encode under the state borrow; write with only the pager
        // borrowed. The dirty set is cleared only after a successful
        // sync, so a failed checkpoint can be retried.
        let batch: Vec<(PageId, Vec<u8>)> = {
            let state = self.state.borrow();
            let mut dirty: Vec<PageId> = state.dirty.iter().copied().collect();
            dirty.sort_unstable();
            dirty
                .into_iter()
                .map(|page| {
                    // csj-lint: allow(panic-safety) — dirty pages are cached
                    // by construction (see detach); absence is a logic bug.
                    let node = state.cache.get(&page).expect("dirty page must be cached");
                    (page, encode_node(node.as_ref()))
                })
                .collect()
        };
        {
            let mut io = self.io.borrow_mut();
            for (page, data) in batch {
                io.write(&Page::with_data(page, data))?;
            }
            io.sync()?;
        }
        self.state.borrow_mut().dirty.clear();
        Ok(())
    }

    /// Offers raw prefetched page bytes. Accepted (and later consumed by
    /// the next miss on that page) unless the page is already resident
    /// or already staged; returns whether the bytes were kept.
    pub fn stage_raw(&self, page: PageId, bytes: Vec<u8>) -> bool {
        let mut state = self.state.borrow_mut();
        if state.pool.contains(page) || state.staged.contains_key(&page) {
            return false;
        }
        state.staged.insert(page, bytes);
        true
    }

    /// `true` when `page` is resident in the pool (its node is cached).
    pub fn is_resident(&self, page: PageId) -> bool {
        self.state.borrow().pool.contains(page)
    }

    /// Bytes currently held in the prefetch staging area.
    pub fn staged_bytes(&self) -> usize {
        self.state.borrow().staged.values().map(Vec::len).sum()
    }

    /// Pool capacity in pages.
    pub fn pool_capacity(&self) -> usize {
        self.state.borrow().pool.capacity()
    }

    /// Cumulative counters (pool, disk, retries, prefetch).
    pub fn stats(&self) -> PagedStats {
        let state = self.state.borrow();
        let io = self.io.borrow();
        PagedStats {
            pool: state.pool.stats(),
            disk_reads: io.disk().reads(),
            disk_writes: io.disk().writes(),
            io_retries: io.retries(),
            faults_injected: io.disk().faults_injected(),
            prefetch_supplied: state.prefetch_supplied,
            nodes_decoded: state.nodes_decoded,
        }
    }

    /// Consumes the store, returning the backing disk.
    pub fn into_disk(self) -> Dk {
        self.io.into_inner().into_disk()
    }
}

/// A page-resident rectangle tree: metadata plus a [`PagedStore`].
///
/// This is the out-of-core counterpart of [`RectCore`]: same node
/// structure, same child order, same MBRs — so the join engine, run over
/// the pages, visits nodes in the in-memory order and reproduces its
/// output byte for byte (see `csj_core::outofcore`).
#[derive(Debug)]
pub struct PagedTree<const D: usize, Dk: Disk> {
    store: PagedStore<D, Dk>,
    meta: PagedMeta,
}

impl<const D: usize, Dk: Disk> PagedTree<D, Dk> {
    /// Serializes a built [`RectCore`] (from any loader or dynamic
    /// inserts) to `disk`, depth-first, children before parents.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the tree's fanout cannot fit a
    /// page (checked up front, before any page is written) or the disk
    /// fails beyond retry.
    pub fn from_core(
        core: &RectCore<D>,
        disk: Dk,
        policy: RetryPolicy,
        pool_pages: usize,
    ) -> Result<Self, StorageError> {
        check_fanout(D, core.config.max_fanout)?;
        let store = PagedStore::new(disk, policy, pool_pages);
        let root = match core.root {
            Some(root) => Some(write_subtree(core, root, &store)?.0),
            None => None,
        };
        let meta = PagedMeta {
            dims: D as u32,
            max_fanout: core.config.max_fanout as u32,
            height: core.height() as u32,
            num_records: core.num_records as u64,
            node_pages: core.node_count() as u64,
            root,
        };
        store.write_superblock(&meta)?;
        store.checkpoint()?;
        Ok(PagedTree { store, meta })
    }

    /// Runs a Sort-Tile-Recursive bulk load straight to pages: the
    /// entries are tiled in one buffer, then every node is encoded and
    /// written through the retry pager as it is finished — leaves in
    /// chunk order, then each upper level, STR-tiled over the `(page,
    /// MBR)` summaries of the level below. The full node arena never
    /// exists in memory, and the buffer pool starts cold. The resulting
    /// tree is structurally identical to `bulk::str_pack` (same
    /// chunking, same child order).
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the configured fanout cannot
    /// fit a page (checked up front, before any page is written) or the
    /// disk fails beyond retry.
    pub fn build_str(
        points: &[Point<D>],
        config: RTreeConfig,
        disk: Dk,
        policy: RetryPolicy,
        pool_pages: usize,
    ) -> Result<Self, StorageError> {
        config.validate();
        check_fanout(D, config.max_fanout)?;
        let store = PagedStore::new(disk, policy, pool_pages);
        let cap = config.max_fanout;
        let mut node_pages = 0u64;
        let mut height = 0u32;
        let mut root = None;
        if !points.is_empty() {
            // Leaf level: identical chunking to bulk::str_pack.
            let mut entries = make_entries(points);
            let chunks = str_chunks::<_, D>(&mut entries, cap, |e, d| e.point[d]);
            let mut level_nodes: Vec<(PageId, Mbr<D>)> = Vec::with_capacity(chunks.len());
            for chunk in chunks {
                let leaf = &entries[chunk];
                let mbr = leaf_mbr(leaf);
                level_nodes.push((store.write_new_page(encode_leaf(&mbr, leaf))?, mbr));
                node_pages += 1;
            }
            drop(entries);
            // Upper levels: STR-tiling of node MBR centers, exactly as
            // bulk::pack_upper_levels_str.
            height = 1;
            let mut level = 1u32;
            while level_nodes.len() > 1 {
                let groups = str_chunks::<_, D>(&mut level_nodes, cap, |it, d| it.1.center()[d]);
                let mut parents = Vec::with_capacity(groups.len());
                for group in groups {
                    let children = &level_nodes[group];
                    let mbr = children_mbr(children);
                    let page = store.write_new_page(encode_internal(level, &mbr, children))?;
                    parents.push((page, mbr));
                    node_pages += 1;
                }
                level_nodes = parents;
                level += 1;
                height += 1;
            }
            root = level_nodes.pop().map(|(p, _)| p);
        }
        let meta = PagedMeta {
            dims: D as u32,
            max_fanout: cap as u32,
            height,
            num_records: points.len() as u64,
            node_pages,
            root,
        };
        store.write_superblock(&meta)?;
        store.checkpoint()?;
        Ok(PagedTree { store, meta })
    }

    /// Opens a tree previously written to `disk`.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the superblock is unreadable,
    /// not a CSJ page file, or of a different dimensionality.
    pub fn open(disk: Dk, policy: RetryPolicy, pool_pages: usize) -> Result<Self, StorageError> {
        let store = PagedStore::new(disk, policy, pool_pages);
        let meta = store.read_superblock()?;
        Ok(PagedTree { store, meta })
    }

    /// The root node's page, `None` for an empty tree.
    pub fn root(&self) -> Option<PageId> {
        self.meta.root
    }

    /// Tree metadata from the superblock.
    pub fn meta(&self) -> &PagedMeta {
        &self.meta
    }

    /// Number of data records.
    pub fn num_records(&self) -> usize {
        self.meta.num_records as usize
    }

    /// Tree height (1 = single leaf root, 0 = empty).
    pub fn height(&self) -> usize {
        self.meta.height as usize
    }

    /// Reads (pinning) the node on `page`.
    ///
    /// # Errors
    /// As [`PagedStore::node`].
    pub fn node(&self, page: PageId) -> Result<NodeGuard<'_, D, Dk>, StorageError> {
        self.store.node(page)
    }

    /// The underlying store (for staging prefetched pages, stats).
    pub fn store(&self) -> &PagedStore<D, Dk> {
        &self.store
    }

    /// Cumulative I/O and pool counters.
    pub fn stats(&self) -> PagedStats {
        self.store.stats()
    }

    /// Consumes the tree, returning the backing disk (to reopen the
    /// page file with a cold pool).
    pub fn into_disk(self) -> Dk {
        self.store.into_disk()
    }

    /// Appends every record id below `page` to `out`, in **exactly** the
    /// order of [`crate::JoinIndex::collect_record_ids`]'s default
    /// implementation (stack-based, children revisited last-first) — the
    /// group-member order of the in-memory engines.
    ///
    /// # Errors
    /// As [`PagedStore::node`].
    pub fn collect_record_ids(
        &self,
        page: PageId,
        out: &mut Vec<RecordId>,
    ) -> Result<(), StorageError> {
        let mut stack = vec![page];
        while let Some(cur) = stack.pop() {
            let node = self.node(cur)?;
            if node.is_leaf() {
                out.extend(node.entries.iter().map(|e| e.id));
            } else {
                stack.extend(node.children.iter().map(|&(p, _)| p));
            }
        }
        Ok(())
    }

    /// Appends every `(id, point)` below `page` to `out`, in the order
    /// of [`crate::JoinIndex::collect_entries`]'s default.
    ///
    /// # Errors
    /// As [`PagedStore::node`].
    pub fn collect_entries(
        &self,
        page: PageId,
        out: &mut Vec<LeafEntry<D>>,
    ) -> Result<(), StorageError> {
        let mut stack = vec![page];
        while let Some(cur) = stack.pop() {
            let node = self.node(cur)?;
            if node.is_leaf() {
                out.extend_from_slice(&node.entries);
            } else {
                stack.extend(node.children.iter().map(|&(p, _)| p));
            }
        }
        Ok(())
    }
}

/// Writes the subtree under `node_id` (children first), returning the
/// root's page and MBR.
fn write_subtree<const D: usize, Dk: Disk>(
    core: &RectCore<D>,
    node_id: crate::arena::NodeId,
    store: &PagedStore<D, Dk>,
) -> Result<(PageId, Mbr<D>), StorageError> {
    let n = core.node(node_id);
    let paged = if n.is_leaf() {
        PagedNode {
            level: 0,
            mbr: n.mbr,
            children: Vec::new(),
            entries: n.entries.entries().to_vec().into(),
        }
    } else {
        let mut children = Vec::with_capacity(n.children.len());
        for &c in &n.children {
            children.push(write_subtree(core, c, store)?);
        }
        PagedNode { level: n.level, mbr: n.mbr, children, entries: LeafStore::new() }
    };
    let mbr = paged.mbr;
    Ok((store.put_node(paged)?, mbr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::{hilbert_pack, omt_pack, str_pack};
    use csj_storage::{FaultPolicy, SimulatedDisk};

    fn scatter(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let x = ((i * 2654435761) % 100_000) as f64 / 100_000.0;
                let y = ((i * 40503 + 17) % 100_000) as f64 / 100_000.0;
                Point::new([x, y])
            })
            .collect()
    }

    fn entry(id: u32, x: f64, y: f64) -> LeafEntry<2> {
        LeafEntry::new(id, Point::new([x, y]))
    }

    #[test]
    fn node_codec_roundtrip_leaf_and_internal() {
        let leaf = PagedNode::leaf(vec![entry(7, 0.25, -1.5), entry(9, 3.0, 4.0)]);
        let bytes = encode_node(&leaf);
        let back = decode_node::<2>(&bytes, PageId(1)).unwrap();
        assert_eq!(back.level, 0);
        assert_eq!(back.mbr, leaf.mbr);
        assert_eq!(back.entries.entries(), leaf.entries.entries());
        assert_eq!(back.entries.soa().point(1), Point::new([3.0, 4.0]), "soa mirror rebuilt");

        let internal = PagedNode::internal(
            2,
            vec![
                (PageId(1), Mbr::from_corners(&Point::new([0.0, 0.0]), &Point::new([1.0, 1.0]))),
                (PageId(4), Mbr::from_corners(&Point::new([2.0, 2.0]), &Point::new([3.0, 5.0]))),
            ],
        );
        let bytes = encode_node(&internal);
        let back = decode_node::<2>(&bytes, PageId(2)).unwrap();
        assert_eq!(back.level, 2);
        assert_eq!(back.children, internal.children);
        assert_eq!(back.mbr, internal.mbr);
    }

    #[test]
    fn decode_rejects_corruption() {
        let leaf = PagedNode::<2>::leaf(vec![entry(1, 0.0, 0.0)]);
        let bytes = encode_node(&leaf);
        assert!(decode_node::<2>(&bytes[..bytes.len() - 1], PageId(3)).is_err(), "truncated");
        let mut huge = bytes.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_node::<2>(&huge, PageId(3)).is_err(), "absurd count");
        assert!(decode_superblock(&bytes).is_err(), "node page is not a superblock");
    }

    #[test]
    fn superblock_roundtrip() {
        let meta = PagedMeta {
            dims: 2,
            max_fanout: 50,
            height: 3,
            num_records: 123_456,
            node_pages: 2_600,
            root: Some(PageId(2_600)),
        };
        assert_eq!(decode_superblock(&encode_superblock(&meta)).unwrap(), meta);
        let empty = PagedMeta { root: None, height: 0, num_records: 0, node_pages: 0, ..meta };
        assert_eq!(decode_superblock(&encode_superblock(&empty)).unwrap(), empty);
    }

    /// Recursively compares a paged tree against an in-memory core:
    /// level, MBR, child order and leaf entries must all agree.
    fn assert_same_structure(
        core: &RectCore<2>,
        node: crate::arena::NodeId,
        tree: &PagedTree<2, SimulatedDisk>,
        page: PageId,
    ) {
        let mem = core.node(node);
        let disk = tree.node(page).unwrap();
        assert_eq!(disk.level, mem.level);
        assert_eq!(disk.mbr, mem.mbr);
        if mem.is_leaf() {
            assert_eq!(disk.entries.entries(), mem.entries.entries());
        } else {
            assert_eq!(disk.children.len(), mem.children.len());
            let pairs: Vec<(crate::arena::NodeId, PageId, Mbr<2>)> = mem
                .children
                .iter()
                .zip(disk.children.iter())
                .map(|(&m, &(p, pm))| (m, p, pm))
                .collect();
            drop(disk);
            for (m, p, pm) in pairs {
                assert_eq!(pm, core.node(m).mbr, "parent-stored child MBR");
                assert_same_structure(core, m, tree, p);
            }
        }
    }

    #[test]
    fn unpageable_fanout_is_rejected_up_front() {
        // Child slots are the wider encoding, so they bound the fanout:
        // (8192 - 40) / 40 = 203 for 2-d trees.
        assert_eq!(max_page_fanout(2), 203);
        let pts = scatter(50);
        let cfg = RTreeConfig::with_max_fanout(204);
        let err = PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 8);
        assert!(err.is_err(), "build_str must reject an unpageable fanout before writing");
        let core = str_pack(&pts, cfg);
        let err = PagedTree::from_core(&core, SimulatedDisk::new(), RetryPolicy::none(), 8);
        assert!(err.is_err(), "from_core must reject an unpageable fanout before writing");
        // The boundary fanout still builds and reloads.
        let cfg = RTreeConfig::with_max_fanout(203);
        let tree =
            PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 8).unwrap();
        assert_eq!(tree.meta().num_records, 50);
    }

    #[test]
    fn from_core_preserves_structure_for_all_loaders() {
        let pts = scatter(700);
        let cfg = RTreeConfig::with_max_fanout(10);
        for (name, core) in [
            ("str", str_pack(&pts, cfg)),
            ("hilbert", hilbert_pack(&pts, cfg)),
            ("omt", omt_pack(&pts, cfg)),
        ] {
            let tree =
                PagedTree::from_core(&core, SimulatedDisk::new(), RetryPolicy::none(), 64).unwrap();
            assert_eq!(tree.num_records(), 700, "{name}");
            assert_eq!(tree.height(), core.height(), "{name}");
            assert_eq!(tree.meta().node_pages as usize, core.node_count(), "{name}");
            let (root_mem, root_page) = (core.root.unwrap(), tree.root().unwrap());
            assert_same_structure(&core, root_mem, &tree, root_page);
        }
    }

    #[test]
    fn streaming_str_build_matches_in_memory_str_pack() {
        for n in [1usize, 9, 10, 11, 250, 2500] {
            let pts = scatter(n);
            let cfg = RTreeConfig::with_max_fanout(10);
            let core = str_pack(&pts, cfg);
            let tree =
                PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 8)
                    .unwrap();
            assert_eq!(tree.num_records(), n);
            assert_eq!(tree.height(), core.height(), "n={n}");
            assert_eq!(tree.meta().node_pages as usize, core.node_count(), "n={n}");
            assert_same_structure(&core, core.root.unwrap(), &tree, tree.root().unwrap());
        }
    }

    #[test]
    fn reopen_after_checkpoint() {
        let pts = scatter(300);
        let cfg = RTreeConfig::with_max_fanout(8);
        let tree =
            PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 16).unwrap();
        let meta = *tree.meta();
        let disk = tree.store.into_disk();
        let reopened = PagedTree::<2, _>::open(disk, RetryPolicy::none(), 16).unwrap();
        assert_eq!(*reopened.meta(), meta);
        let mut ids = Vec::new();
        reopened.collect_record_ids(reopened.root().unwrap(), &mut ids).unwrap();
        ids.sort_unstable();
        assert_eq!(ids, (0..300).collect::<Vec<u32>>());
    }

    #[test]
    fn collect_matches_join_index_default_order() {
        use crate::traits::JoinIndex;
        let pts = scatter(400);
        let cfg = RTreeConfig::with_max_fanout(7);
        let core = str_pack(&pts, cfg);
        let rtree = crate::rstar::RStarTree { core: core.clone() };
        let mut mem_ids = Vec::new();
        rtree.collect_record_ids(core.root.unwrap(), &mut mem_ids);
        let tree =
            PagedTree::from_core(&core, SimulatedDisk::new(), RetryPolicy::none(), 4).unwrap();
        let mut disk_ids = Vec::new();
        tree.collect_record_ids(tree.root().unwrap(), &mut disk_ids).unwrap();
        assert_eq!(mem_ids, disk_ids, "member order must match the in-memory default exactly");
    }

    #[test]
    fn pool_bounds_resident_pages_under_traversal() {
        let pts = scatter(2000);
        let cfg = RTreeConfig::with_max_fanout(10);
        let tree =
            PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 3).unwrap();
        // Full scan through a 3-frame pool: lots of evictions, bounded
        // residency, every record still reachable.
        let mut ids = Vec::new();
        tree.collect_record_ids(tree.root().unwrap(), &mut ids).unwrap();
        assert_eq!(ids.len(), 2000);
        let stats = tree.stats();
        assert!(stats.pool.evictions > 0, "a 3-frame pool must evict during a full scan");
        // Every node page must be decoded except the few still resident
        // from the build itself.
        assert!(stats.nodes_decoded as usize >= tree.meta().node_pages as usize - 3);
    }

    #[test]
    fn staged_bytes_satisfy_misses_without_disk_reads() {
        let pts = scatter(120);
        let cfg = RTreeConfig::with_max_fanout(8);
        let tree =
            PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 2).unwrap();
        let root = tree.root().unwrap();
        // Evict everything by touching other pages, then stage the root
        // page's bytes as a prefetcher would.
        let raw = {
            let guard = tree.node(root).unwrap();
            encode_node(guard.deref())
        };
        let before = tree.stats();
        // Fill the 2-frame pool with other pages so the root is evicted.
        let child_pages: Vec<PageId> = {
            let g = tree.node(root).unwrap();
            g.children.iter().map(|&(p, _)| p).collect()
        };
        for &p in &child_pages {
            let _ = tree.node(p).unwrap();
        }
        assert!(!tree.store().is_resident(root));
        assert!(tree.store().stage_raw(root, raw));
        let reads_before = tree.stats().disk_reads;
        let g = tree.node(root).unwrap();
        assert_eq!(g.level as usize + 1, tree.height());
        let after = tree.stats();
        assert_eq!(after.disk_reads, reads_before, "miss served from staged bytes");
        assert_eq!(after.prefetch_supplied, before.prefetch_supplied + 1);
    }

    /// Delegates to a populated [`SimulatedDisk`] but fails the next
    /// `fail_reads` read attempts — fault injection for a disk that
    /// already holds pages (the built-in policy only wraps new disks).
    struct FlakyDisk {
        inner: SimulatedDisk,
        fail_reads: u64,
        injected: u64,
    }

    impl Disk for FlakyDisk {
        fn num_pages(&self) -> u64 {
            self.inner.num_pages() as u64
        }
        fn alloc(&mut self) -> Result<PageId, StorageError> {
            Ok(self.inner.alloc())
        }
        fn alloc_through(&mut self, id: PageId) -> Result<(), StorageError> {
            self.inner.alloc_through(id);
            Ok(())
        }
        fn read(&mut self, id: PageId) -> Result<Page, StorageError> {
            if self.fail_reads > 0 {
                self.fail_reads -= 1;
                self.injected += 1;
                return Err(StorageError::FaultInjected { op: IoOp::Read, seq: self.injected });
            }
            self.inner.read(id)
        }
        fn write(&mut self, page: &Page) -> Result<(), StorageError> {
            self.inner.write(page)
        }
        fn sync(&mut self) -> Result<(), StorageError> {
            Ok(())
        }
        fn reads(&self) -> u64 {
            Disk::reads(&self.inner)
        }
        fn writes(&self) -> u64 {
            Disk::writes(&self.inner)
        }
        fn faults_injected(&self) -> u64 {
            self.injected + self.inner.faults_injected()
        }
    }

    /// Regression: a page used to be admitted to the pool *before* its
    /// disk read, so a failed read left the pool claiming a residency
    /// the cache never got — every later access to that page then died
    /// with a pool/cache-desync error. The read must leave no trace.
    #[test]
    fn failed_read_leaves_pool_and_cache_consistent() {
        let store = PagedStore::<2, _>::new(SimulatedDisk::new(), RetryPolicy::none(), 4);
        let page = store.put_node(PagedNode::leaf(vec![entry(1, 0.1, 0.2)])).unwrap();
        store.checkpoint().unwrap();
        let disk = store.into_disk();

        let flaky = FlakyDisk { inner: disk, fail_reads: 1, injected: 0 };
        let store = PagedStore::<2, _>::new(flaky, RetryPolicy::none(), 4);
        assert!(store.node(page).is_err(), "the injected read fault must surface");
        assert!(!store.is_resident(page), "a failed read must not admit the page");

        let guard = store.node(page).expect("the retry reads the intact page");
        assert_eq!(guard.entries.entries().len(), 1);
        assert_eq!(store.stats().nodes_decoded, 1, "only the successful read decodes");
    }

    /// A checkpoint that faults keeps its dirty set, so the caller can
    /// simply checkpoint again; nothing is marked clean prematurely.
    #[test]
    fn failed_checkpoint_keeps_dirty_pages_for_retry() {
        let disk = SimulatedDisk::with_faults(FaultPolicy::fail_once());
        let store = PagedStore::<2, _>::new(disk, RetryPolicy::none(), 4);
        let page = store.put_node(PagedNode::leaf(vec![entry(3, 0.5, 0.5)])).unwrap();
        assert!(store.checkpoint().is_err(), "the first write attempt faults");
        store.checkpoint().expect("the retry rewrites the still-dirty page");

        let store = PagedStore::<2, _>::new(store.into_disk(), RetryPolicy::none(), 4);
        let guard = store.node(page).expect("the page reached the disk");
        assert_eq!(guard.entries.entries().len(), 1);
    }
}
