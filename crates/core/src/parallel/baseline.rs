//! The static-split parallel runner, kept as a benchmark baseline.
//!
//! This is the original parallel join: a fixed breadth-first task
//! expansion, a shared atomic task index, and a `Mutex`-guarded result
//! vector. It has two scaling problems the work-stealing runner in the
//! parent module fixes — the task-claim and result-write paths serialize
//! on shared state, and a skewed task (one dense subtree) pins a single
//! worker while the others idle.
//!
//! It is retained (not exported from the crate root) solely so
//! `perf_baseline` can measure the work-stealing scheduler against it.
//! New code should use [`super::ParallelJoin`].

use std::time::Instant;

use csj_index::{JoinIndex, NodeId};

use super::ParallelAlgo;
use crate::budget::{BudgetUsage, CancelToken, Completion, RunBudget, StopReason};
use crate::engine::{
    child_tasks, infallible, CollectSink, DirectEmit, Engine, LinkHandler, Task, WindowedEmit,
};
use crate::group::MbrShape;
use crate::output::{JoinOutput, OutputItem};
use crate::stats::JoinStats;
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::Mutex;
use crate::JoinConfig;

/// The pre-work-stealing parallel join: static task split, shared task
/// index, mutexed result collection.
///
/// ```
/// use csj_core::parallel::baseline::StaticParallelJoin;
/// use csj_core::parallel::ParallelAlgo;
/// use csj_core::ssj::SsjJoin;
/// use csj_geom::Point;
/// use csj_index::{rstar::RStarTree, RTreeConfig};
///
/// let pts: Vec<Point<2>> = (0..2000)
///     .map(|i| Point::new([(i % 50) as f64 / 50.0, (i / 50) as f64 / 40.0]))
///     .collect();
/// let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
/// let par = StaticParallelJoin::new(0.05, ParallelAlgo::Ssj).with_threads(4).run(&tree);
/// let seq = SsjJoin::new(0.05).run(&tree);
/// assert_eq!(par.expanded_link_set(), seq.expanded_link_set());
/// ```
#[derive(Clone, Debug)]
pub struct StaticParallelJoin {
    cfg: JoinConfig,
    algo: ParallelAlgo,
    threads: usize,
    budget: RunBudget,
    cancel: Option<CancelToken>,
    id_width: usize,
}

impl StaticParallelJoin {
    /// A parallel join with range `epsilon`.
    pub fn new(epsilon: f64, algo: ParallelAlgo) -> Self {
        Self::with_config(JoinConfig::new(epsilon), algo)
    }

    /// A parallel join from an explicit configuration.
    pub fn with_config(cfg: JoinConfig, algo: ParallelAlgo) -> Self {
        StaticParallelJoin {
            cfg,
            algo,
            threads: 4,
            budget: RunBudget::unlimited(),
            cancel: None,
            id_width: 6,
        }
    }

    /// Sets the worker count (default 4; clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Replaces the metric.
    pub fn with_metric(mut self, metric: csj_geom::Metric) -> Self {
        self.cfg.metric = metric;
        self
    }

    /// Applies a resource budget, checked at task boundaries: when a limit
    /// trips, in-flight tasks finish (lossless over the processed region)
    /// and the result comes back [`Completion::Partial`].
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cancellation token. Cancel takes effect *inside* a
    /// running task (the engine checks between recursion steps), so the
    /// join stops within one task's worth of work.
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Sets the id width used for byte-budget accounting (default 6).
    pub fn with_id_width(mut self, width: usize) -> Self {
        self.id_width = width;
        self
    }

    /// Runs the join. Output rows appear in deterministic (task) order.
    ///
    /// With a budget or cancel token attached, the run may stop early; the
    /// returned [`JoinOutput::completion`] says so, and the rows produced
    /// remain lossless over the processed region.
    pub fn run<T: JoinIndex<D> + Sync, const D: usize>(&self, tree: &T) -> JoinOutput {
        let tasks = self.expand_tasks(tree);
        if tasks.is_empty() {
            return JoinOutput::default();
        }
        // `completed` is true when the engine ran the task to the end
        // (false only under a mid-task cancel).
        type TaskResult = (Vec<OutputItem>, JoinStats, bool);
        // csj-lint: allow(determinism) — wall-clock feeds RunBudget
        // deadline accounting only; completed runs never consult it.
        let start = Instant::now();
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let stop_reason: Mutex<Option<StopReason>> = Mutex::new(None);
        let (links, groups, bytes) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let results: Mutex<Vec<Option<TaskResult>>> =
            Mutex::new((0..tasks.len()).map(|_| None).collect());
        let record_stop = |reason: StopReason| {
            // ORDERING: advisory early-exit flag; a worker that misses the
            // store runs at most one extra task, and the scope join below
            // is the real synchronization point for results. Unlike the
            // work-stealing scheduler's `stop` (SeqCst — it gates a
            // `pending`-based termination protocol, DESIGN.md §9), no
            // other state hangs off this flag: workers exit when the
            // shared task index runs out regardless.
            stop.store(true, Ordering::Relaxed);
            // csj-lint: allow(panic-safety) — a poisoned lock means a
            // worker already panicked; propagating is the only sound exit.
            let mut guard = stop_reason.lock().expect("stop reason lock poisoned");
            guard.get_or_insert(reason);
        };

        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(tasks.len()) {
                scope.spawn(|| loop {
                    // ORDERING: advisory; see the matching store above.
                    // Stale-read worst case (one extra task) is bounded
                    // because the task index below, not this flag, is
                    // what terminates the loop.
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Task-boundary checks: cancel and budget.
                    if self.cancel.as_ref().is_some_and(CancelToken::is_canceled) {
                        record_stop(StopReason::Canceled);
                        break;
                    }
                    if !self.budget.is_unlimited() {
                        let usage = BudgetUsage {
                            // ORDERING: monotone stat counters — a budget
                            // check reading slightly stale totals only
                            // delays the stop by at most one task.
                            links: links.load(Ordering::Relaxed),
                            groups: groups.load(Ordering::Relaxed), // ORDERING: as `links`
                            bytes: bytes.load(Ordering::Relaxed),   // ORDERING: as `links`
                        };
                        if let Some(r) = self.budget.exceeded_by(&usage, start.elapsed()) {
                            record_stop(r);
                            break;
                        }
                    }
                    // ORDERING: fetch_add is atomic regardless of ordering,
                    // so indices are unique; nothing is published through
                    // `next`, results flow through the mutexed vector.
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(idx) else { break };
                    let (items, stats, completed) = self.run_task(tree, task);
                    if !completed {
                        record_stop(StopReason::Canceled);
                    }
                    // ORDERING: monotone counters feeding the advisory
                    // budget check; final totals are read after the scope
                    // join, which orders them.
                    links.fetch_add(stats.links_emitted + stats.links_in_groups, Ordering::Relaxed);
                    groups.fetch_add(stats.groups_emitted, Ordering::Relaxed); // ORDERING: as `links`
                    let task_bytes = stats.output_bytes(self.id_width);
                    bytes.fetch_add(task_bytes, Ordering::Relaxed); // ORDERING: as `links`
                                                                    // csj-lint: allow(panic-safety) — poisoning means a peer
                                                                    // panicked with the results lock held; propagate it.
                    results.lock().expect("worker panicked holding results")[idx] =
                        Some((items, stats, completed));
                });
            }
        });

        let mut output =
            JoinOutput { stats: JoinStats::new(self.cfg.record_access_log), ..Default::default() };
        let total = tasks.len();
        let mut done = 0usize;
        // csj-lint: allow(panic-safety) — workers joined cleanly at scope
        // exit, so the results lock cannot be poisoned here.
        for slot in results.into_inner().expect("poisoned results") {
            let Some((items, stats, completed)) = slot else { continue };
            output.items.extend(items);
            output.stats.absorb(&stats);
            if completed {
                done += 1;
            }
        }
        // csj-lint: allow(panic-safety) — same: no live workers, no poison.
        let reason = stop_reason.into_inner().expect("stop reason lock poisoned");
        output.completion = match reason {
            None if done == total => Completion::Complete,
            // A worker stopping leaves unclaimed tasks; attribute the
            // partial result to the recorded reason (cancel if a task was
            // interrupted mid-flight).
            maybe => Completion::partial(
                maybe.unwrap_or(StopReason::Canceled),
                done as f64 / total as f64,
                // ORDERING: read after the scope join, which already
                // synchronized every worker's writes.
                links.load(Ordering::Relaxed),
                bytes.load(Ordering::Relaxed), // ORDERING: as `links`
            ),
        };
        output
    }

    fn run_task<T: JoinIndex<D>, const D: usize>(
        &self,
        tree: &T,
        task: &Task<NodeId>,
    ) -> (Vec<OutputItem>, JoinStats, bool) {
        match self.algo {
            ParallelAlgo::Ssj => self.run_task_with(tree, task, false, DirectEmit),
            ParallelAlgo::Ncsj => self.run_task_with(tree, task, true, DirectEmit),
            ParallelAlgo::Csj(g) => self.run_task_with(
                tree,
                task,
                true,
                WindowedEmit::<MbrShape<D>, D>::new(g, self.cfg.epsilon, self.cfg.metric),
            ),
        }
    }

    fn run_task_with<T: JoinIndex<D>, H: LinkHandler<D>, const D: usize>(
        &self,
        tree: &T,
        task: &Task<NodeId>,
        early_stop: bool,
        handler: H,
    ) -> (Vec<OutputItem>, JoinStats, bool) {
        let mut engine = Engine::new(tree, self.cfg, early_stop, handler, CollectSink::default());
        if let Some(token) = &self.cancel {
            engine.set_cancel(token.clone());
        }
        infallible(engine.join_task(*task));
        infallible(engine.finish_only());
        let completed = engine.stop_reason().is_none();
        (std::mem::take(&mut engine.sink.items), engine.stats, completed)
    }

    /// Breadth-first task expansion until there are comfortably more
    /// tasks than workers (or nothing left to split). Only subtree
    /// self-joins are split, by the engine's own expansion rule; one a
    /// compact join would early-stop stays whole.
    fn expand_tasks<T: JoinIndex<D>, const D: usize>(&self, tree: &T) -> Vec<Task<NodeId>> {
        let Some(root) = JoinIndex::root(tree) else { return Vec::new() };
        let target = self.threads * 8;
        let early_stop = self.algo != ParallelAlgo::Ssj;
        let mut queue = std::collections::VecDeque::from([Task::SelfJoin(root)]);
        let mut done: Vec<Task<NodeId>> = Vec::new();
        while done.len() + queue.len() < target {
            let Some(task) = queue.pop_front() else { break };
            if let Task::PairJoin(..) = task {
                done.push(task);
                continue;
            }
            match child_tasks(tree, &self.cfg, early_stop, task) {
                Some(children) => queue.extend(children),
                None => done.push(task),
            }
        }
        done.extend(queue);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_links;
    use crate::ssj::SsjJoin;
    use csj_geom::Point;
    use csj_index::{rstar::RStarTree, RTreeConfig};

    fn clustered(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let c = (i % 7) as f64 * 0.13;
                Point::new([c + ((i * 31) % 97) as f64 * 2e-4, c + ((i * 57) % 89) as f64 * 2e-4])
            })
            .collect()
    }

    #[test]
    fn baseline_is_lossless_for_all_algorithms() {
        let pts = clustered(2_000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let eps = 0.05;
        let truth = brute_force_links(&pts, eps);
        let seq = SsjJoin::new(eps).run(&tree);
        for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
            let out = StaticParallelJoin::new(eps, algo).with_threads(4).run(&tree);
            assert_eq!(out.expanded_link_set(), truth, "{algo:?}");
        }
        let ssj = StaticParallelJoin::new(eps, ParallelAlgo::Ssj).with_threads(4).run(&tree);
        assert_eq!(ssj.stats.distance_computations, seq.stats.distance_computations);
    }
}
