//! Fault-injected node reads for the resilient runner.
//!
//! [`FaultPagedTree`] wraps any [`JoinIndex`] and reads a node's page
//! from a fault-injecting simulated disk every time the node's contents
//! are read; [`StorageProbe`] lets [`crate::ResilientJoin`] escalate an
//! unrecoverable read at the next task boundary. Joins over real pages
//! behind a live buffer pool are [`crate::outofcore`]'s business.

use std::cell::RefCell;

use csj_geom::{Mbr, Metric, RecordId};
use csj_index::{JoinIndex, NodeId};
use csj_storage::{FaultPolicy, PageId, RetryPager, RetryPolicy, SimulatedDisk, StorageError};

/// Observes storage-layer health while a join runs over a tree wrapper.
///
/// [`JoinIndex`] methods return slices, so a page-read failure cannot be
/// surfaced through the trait itself; fault-backed wrappers record the
/// first unrecoverable error internally and the resilient runner polls
/// this probe at task boundaries to escalate it.
pub trait StorageProbe {
    /// The first unrecoverable storage error seen so far, if any.
    fn storage_error(&self) -> Option<StorageError>;
    /// Transient faults absorbed by retry so far.
    fn io_retries(&self) -> u64;
}

/// A probe for plain in-memory trees: nothing ever fails.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl StorageProbe for NoProbe {
    fn storage_error(&self) -> Option<StorageError> {
        None
    }
    fn io_retries(&self) -> u64 {
        0
    }
}

/// A [`JoinIndex`] adapter whose node reads go through a fault-injecting
/// simulated disk behind a retrying pager.
///
/// Each node-content access reads the node's page from a
/// [`SimulatedDisk`] configured with a [`FaultPolicy`]; transient faults
/// are absorbed by the [`RetryPager`] (counted, visible via
/// [`StorageProbe::io_retries`]). If retries are exhausted the error is
/// recorded — the join keeps traversing the in-memory tree (the data is
/// still there; only the simulated storage failed) and the resilient
/// runner escalates the recorded error at the next task boundary.
pub struct FaultPagedTree<'t, T> {
    inner: &'t T,
    pager: RefCell<RetryPager>,
    first_error: RefCell<Option<StorageError>>,
}

impl<'t, T> FaultPagedTree<'t, T> {
    /// Wraps `inner`; node reads hit a fresh simulated disk with the
    /// given fault policy, behind a retrying pager.
    pub fn new(inner: &'t T, faults: FaultPolicy, retry: RetryPolicy) -> Self {
        FaultPagedTree {
            inner,
            pager: RefCell::new(RetryPager::new(SimulatedDisk::with_faults(faults), retry)),
            first_error: RefCell::new(None),
        }
    }

    /// Total faults the simulated disk injected (absorbed or not).
    pub fn faults_injected(&self) -> u64 {
        self.pager.borrow().disk().faults_injected()
    }

    fn touch(&self, n: NodeId) {
        let mut pager = self.pager.borrow_mut();
        let id = PageId(n.0 as u64);
        pager.disk_mut().alloc_through(id);
        if let Err(e) = pager.read(id) {
            self.first_error.borrow_mut().get_or_insert(e);
        }
    }
}

impl<T> StorageProbe for FaultPagedTree<'_, T> {
    fn storage_error(&self) -> Option<StorageError> {
        self.first_error.borrow().clone()
    }
    fn io_retries(&self) -> u64 {
        self.pager.borrow().retries()
    }
}

impl<T: JoinIndex<D>, const D: usize> JoinIndex<D> for FaultPagedTree<'_, T> {
    fn root(&self) -> Option<NodeId> {
        self.inner.root()
    }
    fn is_leaf(&self, n: NodeId) -> bool {
        self.inner.is_leaf(n)
    }
    fn children(&self, n: NodeId) -> &[NodeId] {
        self.touch(n);
        self.inner.children(n)
    }
    fn leaf_entries(&self, n: NodeId) -> &[csj_index::LeafEntry<D>] {
        self.touch(n);
        self.inner.leaf_entries(n)
    }
    fn leaf_soa(&self, n: NodeId) -> csj_geom::SoaView<'_, D> {
        self.touch(n);
        self.inner.leaf_soa(n)
    }
    fn node_mbr(&self, n: NodeId) -> Mbr<D> {
        self.inner.node_mbr(n)
    }
    fn max_diameter(&self, n: NodeId, metric: Metric) -> f64 {
        self.inner.max_diameter(n, metric)
    }
    fn pair_diameter(&self, a: NodeId, b: NodeId, metric: Metric) -> f64 {
        self.inner.pair_diameter(a, b, metric)
    }
    fn min_dist(&self, a: NodeId, b: NodeId, metric: Metric) -> f64 {
        self.inner.min_dist(a, b, metric)
    }
    fn num_records(&self) -> usize {
        self.inner.num_records()
    }
    fn height(&self) -> usize {
        self.inner.height()
    }
    fn collect_record_ids(&self, n: NodeId, out: &mut Vec<RecordId>) {
        let mut stack = vec![n];
        while let Some(cur) = stack.pop() {
            self.touch(cur);
            if self.inner.is_leaf(cur) {
                out.extend(self.inner.leaf_entries(cur).iter().map(|e| e.id));
            } else {
                stack.extend_from_slice(self.inner.children(cur));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssj::SsjJoin;
    use csj_geom::Point;
    use csj_index::{rstar::RStarTree, RTreeConfig};

    fn dataset() -> Vec<Point<2>> {
        csj_data::roads::road_network(&csj_data::roads::RoadConfig {
            n_points: 4_000,
            cores: 3,
            core_sigma: 0.07,
            rural_fraction: 0.3,
            grid_snap_prob: 0.8,
            step: 0.003,
            mean_road_len: 0.05,
            seed: 0xCAFE,
        })
    }

    #[test]
    fn fault_paged_tree_absorbs_periodic_faults() {
        let pts = dataset();
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(16));
        let eps = 0.05;
        let faulty =
            FaultPagedTree::new(&tree, FaultPolicy::fail_every_read(3), RetryPolicy::no_backoff(4));
        let through = SsjJoin::new(eps).run(&faulty);
        let direct = SsjJoin::new(eps).run(&tree);
        assert_eq!(through.expanded_link_set(), direct.expanded_link_set());
        assert!(faulty.io_retries() > 0, "every 3rd read faults; retries absorb them");
        assert_eq!(faulty.storage_error(), None);
    }

    #[test]
    fn fault_paged_tree_records_unrecoverable_error() {
        let pts = dataset();
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(16));
        let faulty =
            FaultPagedTree::new(&tree, FaultPolicy::fail_every_read(1), RetryPolicy::none());
        let _ = SsjJoin::new(0.05).run(&faulty);
        assert!(faulty.storage_error().is_some(), "no retries: the first fault sticks");
    }
}
