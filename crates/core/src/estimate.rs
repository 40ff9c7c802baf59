//! Budgeted SSJ runs with extrapolated estimates.
//!
//! In the paper's Figures 5 and 7, several SSJ points are *estimates*
//! (filled markers): the run crashed after exceeding free disk space. Our
//! harness reproduces those points with a link budget: the traversal is
//! split into root-level tasks, aborted once the budget is exceeded, and
//! the totals are extrapolated linearly from the completed fraction.

use csj_index::JoinIndex;
use csj_storage::{CountingSink, OutputWriter};

use crate::engine::{child_tasks, infallible, DirectEmit, Engine, StreamSink, Task};
use crate::stats::JoinStats;
use crate::JoinConfig;

/// Result of a budgeted SSJ run.
#[derive(Clone, Debug)]
pub struct SsjEstimate {
    /// `true` if the run finished within budget (values are then exact).
    pub completed: bool,
    /// Links actually emitted before the stop.
    pub measured_links: u64,
    /// Bytes actually emitted before the stop.
    pub measured_bytes: u64,
    /// Fraction of root-level tasks completed, in `(0, 1]`.
    pub fraction_done: f64,
    /// Counters accumulated up to the stop.
    pub stats: JoinStats,
}

impl SsjEstimate {
    /// Estimated total link count (exact when `completed`).
    pub fn estimated_links(&self) -> f64 {
        self.measured_links as f64 / self.fraction_done
    }

    /// Estimated total output bytes (exact when `completed`).
    pub fn estimated_bytes(&self) -> f64 {
        self.measured_bytes as f64 / self.fraction_done
    }
}

/// An SSJ runner that stops once `max_links` links have been emitted.
#[derive(Clone, Copy, Debug)]
pub struct BudgetedSsj {
    cfg: JoinConfig,
    max_links: u64,
}

impl BudgetedSsj {
    /// A budgeted SSJ with range `epsilon` and the given link budget.
    pub fn new(epsilon: f64, max_links: u64) -> Self {
        assert!(max_links > 0, "budget must be positive");
        BudgetedSsj { cfg: JoinConfig::new(epsilon), max_links }
    }

    /// A budgeted SSJ from an explicit configuration.
    pub fn with_config(cfg: JoinConfig, max_links: u64) -> Self {
        BudgetedSsj { cfg, max_links }
    }

    /// Runs SSJ (output counted, not stored) until completion or budget
    /// exhaustion. `id_width` is the zero-padding width used for byte
    /// accounting.
    pub fn run<T: JoinIndex<D>, const D: usize>(&self, tree: &T, id_width: usize) -> SsjEstimate {
        let mut writer = OutputWriter::new(CountingSink::new(), id_width);
        let mut engine =
            Engine::new(tree, self.cfg, false, DirectEmit, StreamSink::new(&mut writer));

        let Some(root) = JoinIndex::root(tree) else {
            return SsjEstimate {
                completed: true,
                measured_links: 0,
                measured_bytes: 0,
                fraction_done: 1.0,
                stats: engine.stats,
            };
        };

        // Root-level task list: the root's child tasks from the engine's
        // own expansion rule. A leaf root is a single task.
        let tasks = child_tasks(tree, &self.cfg, false, Task::SelfJoin(root))
            .unwrap_or_else(|| vec![Task::SelfJoin(root)]);

        let total = tasks.len().max(1);
        let mut done = 0usize;
        let mut completed = true;
        for task in tasks {
            // A counting sink cannot fail, so the engine results are
            // infallible here.
            infallible(engine.join_task(task));
            done += 1;
            if engine.stats.links_emitted >= self.max_links && done < total {
                completed = false;
                break;
            }
        }
        infallible(engine.finish_only());

        let stats = std::mem::take(&mut engine.stats);
        drop(engine);
        SsjEstimate {
            completed,
            measured_links: stats.links_emitted,
            measured_bytes: writer.bytes_written(),
            fraction_done: done as f64 / total as f64,
            stats,
        }
    }
}

/// Convenience: exact SSJ link count and byte size without storing output
/// (a [`BudgetedSsj`] with an unlimited budget).
pub fn ssj_exact_size<T: JoinIndex<D>, const D: usize>(
    tree: &T,
    epsilon: f64,
    id_width: usize,
) -> (u64, u64) {
    let est = BudgetedSsj::new(epsilon, u64::MAX).run(tree, id_width);
    debug_assert!(est.completed);
    (est.measured_links, est.measured_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssj::SsjJoin;
    use csj_geom::Point;
    use csj_index::{rstar::RStarTree, RTreeConfig};

    fn pts(n: usize) -> Vec<Point<2>> {
        (0..n).map(|i| Point::new([(i % 17) as f64 / 17.0, (i % 23) as f64 / 23.0])).collect()
    }

    #[test]
    fn unlimited_budget_is_exact() {
        let points = pts(400);
        let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(8));
        let eps = 0.2;
        let exact = SsjJoin::new(eps).run(&tree);
        let est = BudgetedSsj::new(eps, u64::MAX).run(&tree, 3);
        assert!(est.completed);
        assert_eq!(est.fraction_done, 1.0);
        assert_eq!(est.measured_links, exact.num_links() as u64);
        assert_eq!(est.measured_bytes, exact.total_bytes(3));
        assert_eq!(est.estimated_links(), exact.num_links() as f64);
    }

    #[test]
    fn tight_budget_stops_early_and_extrapolates() {
        let points = pts(600);
        let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(8));
        let eps = 0.3;
        let exact_links = SsjJoin::new(eps).run(&tree).num_links() as f64;
        let est = BudgetedSsj::new(eps, 50).run(&tree, 3);
        assert!(!est.completed);
        assert!(est.fraction_done > 0.0 && est.fraction_done < 1.0);
        assert!(est.measured_links >= 50);
        // The extrapolation is crude but must be the right order of
        // magnitude on roughly uniform data.
        let ratio = est.estimated_links() / exact_links;
        assert!(
            (0.1..10.0).contains(&ratio),
            "estimate {} vs exact {exact_links} (ratio {ratio})",
            est.estimated_links()
        );
    }

    #[test]
    fn empty_tree_completes() {
        let tree = RStarTree::<2>::new(RTreeConfig::default());
        let est = BudgetedSsj::new(0.1, 100).run(&tree, 3);
        assert!(est.completed);
        assert_eq!(est.measured_links, 0);
    }

    #[test]
    fn exact_size_helper_matches_run() {
        let points = pts(200);
        let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(6));
        let out = SsjJoin::new(0.15).run(&tree);
        let (links, bytes) = ssj_exact_size(&tree, 0.15, 3);
        assert_eq!(links, out.num_links() as u64);
        assert_eq!(bytes, out.total_bytes(3));
    }
}
