//! The metrics the benchmark reports, and how a traced pass's spans and
//! counters turn into per-layer metrics.
//!
//! Units mark how far a number can be trusted between runs: `count`,
//! `ratio` and `B` repeat exactly on the same input and build;
//! `count-varies` and `ratio-varies` depend on thread or I/O timing;
//! `s`, `ms`, `us` and `frac` are timings.

use std::time::Instant;

use csj_core::JoinStats;
use csj_index::PagedStats;

use crate::trace::{Timing, Tracer};
use crate::wrap::IndexCounts;

/// How a per-layer metric behaves from run to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A count that repeats exactly.
    Exact,
    /// A count that depends on thread or I/O timing.
    Varies,
    /// A duration (or a ratio of durations).
    Timing,
}

/// One metric's name, unit, direction and class.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name (per-pass metrics get an `ncsj.` / `csj10.` prefix).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Run-to-run behaviour.
    pub class: Class,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, class: Class) -> Metric {
    Metric { name, unit, better, class }
}

use Class::{Exact, Timing as Time, Varies};

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", Time),
    m("ncsj_s", "s", "lower", Time),
    m("csj10_s", "s", "lower", Time),
    m("ncsj_bytes_per_link", "B/link", "lower", Exact),
    m("csj10_bytes_per_link", "B/link", "lower", Exact),
    m("peak_rss_mb", "MB", "lower", Varies),
    m("ops_ok_frac", "frac", "higher", Exact),
];

/// Per-layer metrics of set-up, reported once per traced run.
pub const SETUP: &[Metric] = &[
    m("index.page_file_bytes", "B", "lower", Exact),
    m("storage.disk.writes", "count", "lower", Exact),
    m("data.gen_s", "s", "lower", Time),
    m("index.build_s", "s", "lower", Time),
    m("storage.disk.write_s", "s", "lower", Time),
];

/// Per-layer metrics of one pass, reported per algorithm.
pub const PASS: &[Metric] = &[
    m("index.bound_calls", "count", "lower", Exact),
    m("index.leaf_reads", "count", "lower", Exact),
    m("index.collected_ids", "count", "lower", Exact),
    m("core.early_stops", "count", "higher", Exact),
    m("core.distance_computations", "count", "lower", Exact),
    m("core.window.merge_attempts", "count", "lower", Exact),
    m("core.window.merges_succeeded", "count", "higher", Exact),
    m("core.window.merge_hit_ratio", "ratio", "higher", Exact),
    m("storage.sink.rows", "count", "lower", Exact),
    m("storage.sink.bytes", "B", "lower", Exact),
    m("index.paged.pool_hits", "count", "higher", Exact),
    m("index.paged.pool_misses", "count", "lower", Exact),
    m("index.paged.pool_hit_ratio", "ratio", "higher", Exact),
    m("index.paged.evictions", "count", "lower", Exact),
    m("index.paged.nodes_decoded", "count", "lower", Exact),
    m("index.paged.misses_per_node_page", "ratio", "lower", Exact),
    m("core.node_visits", "count-varies", "lower", Varies),
    m("core.pair_visits", "count-varies", "lower", Varies),
    m("core.pairs_pruned", "count-varies", "higher", Varies),
    m("core.parallel.tasks_executed", "count-varies", "lower", Varies),
    m("core.parallel.tasks_stolen", "count-varies", "lower", Varies),
    m("core.parallel.tasks_split", "count-varies", "lower", Varies),
    m("storage.disk.reads", "count-varies", "lower", Varies),
    m("index.paged.prefetch_supplied", "count-varies", "higher", Varies),
    m("index.paged.prefetch_share", "ratio-varies", "higher", Varies),
    m("core.self_s", "s", "lower", Time),
    m("core.parallel.run_s", "s", "lower", Time),
    m("core.parallel.drain_s", "s", "lower", Time),
    m("storage.sink.write_s", "s", "lower", Time),
    m("storage.sink.first_row_ms", "ms", "lower", Time),
    m("storage.sink.max_row_gap_ms", "ms", "lower", Time),
    m("storage.disk.read_wait_s", "s", "lower", Time),
    m("storage.disk.read_us_per_read", "us", "lower", Time),
    m("trace.overhead_frac", "frac", "lower", Time),
];

/// Span names.
pub mod span {
    /// One timed pass, from the join call to the flushed output.
    pub const PASS: &str = "pass";
    /// One set-up repetition.
    pub const SETUP: &str = "setup";
    /// Input generation (`csj-data`).
    pub const GEN: &str = "data.gen";
    /// Tree build (`bulk_load_str` / `build_str`).
    pub const BUILD: &str = "index.build";
    /// `ParallelJoin::run`.
    pub const RUN: &str = "core.parallel.run";
    /// `JoinOutput::write_to` after a parallel run.
    pub const DRAIN: &str = "core.parallel.drain";
    /// `OutputSink::write_bytes` + `flush`.
    pub const SINK: &str = "storage.sink.write";
    /// `Disk::read` on the join thread.
    pub const DISK_READ: &str = "storage.disk.read";
    /// `Disk::write` + `sync`.
    pub const DISK_WRITE: &str = "storage.disk.write";
}

/// Spans whose self time is not the join core's.
const NOT_CORE: &[&str] = &[span::SINK, span::DISK_READ, span::DRAIN];

/// Everything one traced pass observed.
pub struct PassObservation<'a> {
    /// The run's spans.
    pub tracer: &'a Tracer,
    /// The pass's root span.
    pub pass_span: usize,
    /// When the join was called.
    pub start: Instant,
    /// The join's own counters.
    pub stats: &'a JoinStats,
    /// The output sink's timings.
    pub sink: &'a Timing,
    /// Bytes the output sink received.
    pub sink_bytes: u64,
    /// Synchronous page reads (paged tree only).
    pub disk: Option<&'a Timing>,
    /// Index calls (in-memory tree only).
    pub index: Option<IndexCounts>,
    /// Pool counters of this pass and the tree's node pages (paged only).
    pub paged: Option<(PagedStats, u64)>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every [`PASS`] metric except `trace.overhead_frac`, which compares
/// passes; a layer the workload does not use reads 0.
pub fn pass_metrics(o: &PassObservation) -> Vec<(&'static str, f64)> {
    let t = o.tracer;
    let spans = t.spans();
    let below = t.descendants(o.pass_span);
    let busy_of = |name: &str| -> f64 {
        below.iter().filter(|&&i| spans[i].name == name).map(|&i| spans[i].busy_ns).sum::<u64>()
            as f64
            / 1e9
    };
    let not_core: u64 =
        below.iter().filter(|&&i| NOT_CORE.contains(&spans[i].name)).map(|&i| t.self_ns(i)).sum();
    let core_self = spans[o.pass_span].busy_ns.saturating_sub(not_core) as f64 / 1e9;

    let s = o.stats;
    let idx = o.index.unwrap_or_default();
    let (pg, node_pages) = o.paged.unwrap_or_default();
    let disk = o.disk.copied().unwrap_or_default();
    let first_row_ms = o.sink.first.map_or(0.0, |f| f.duration_since(o.start).as_secs_f64() * 1e3);
    let read_wait = disk.busy.as_secs_f64();
    vec![
        ("index.bound_calls", idx.bound_calls as f64),
        ("index.leaf_reads", idx.leaf_reads as f64),
        ("index.collected_ids", idx.collected_ids as f64),
        ("core.node_visits", s.node_visits as f64),
        ("core.pair_visits", s.pair_visits as f64),
        ("core.pairs_pruned", s.pairs_pruned as f64),
        ("core.early_stops", (s.early_stops_node + s.early_stops_pair) as f64),
        ("core.distance_computations", s.distance_computations as f64),
        ("core.window.merge_attempts", s.merge_attempts as f64),
        ("core.window.merges_succeeded", s.merges_succeeded as f64),
        ("core.window.merge_hit_ratio", ratio(s.merges_succeeded, s.merge_attempts)),
        ("storage.sink.rows", o.sink.count as f64),
        ("storage.sink.bytes", o.sink_bytes as f64),
        ("index.paged.pool_hits", pg.pool.hits as f64),
        ("index.paged.pool_misses", pg.pool.misses as f64),
        ("index.paged.pool_hit_ratio", ratio(pg.pool.hits, pg.pool.hits + pg.pool.misses)),
        ("index.paged.evictions", pg.pool.evictions as f64),
        ("index.paged.nodes_decoded", pg.nodes_decoded as f64),
        ("index.paged.misses_per_node_page", ratio(pg.pool.misses, node_pages)),
        ("core.parallel.tasks_executed", s.tasks_executed as f64),
        ("core.parallel.tasks_stolen", s.tasks_stolen as f64),
        ("core.parallel.tasks_split", s.tasks_split as f64),
        ("storage.disk.reads", disk.count as f64),
        ("index.paged.prefetch_supplied", pg.prefetch_supplied as f64),
        ("index.paged.prefetch_share", ratio(pg.prefetch_supplied, pg.pool.misses)),
        ("core.self_s", core_self),
        ("core.parallel.run_s", busy_of(span::RUN)),
        ("core.parallel.drain_s", busy_of(span::DRAIN)),
        ("storage.sink.write_s", o.sink.busy.as_secs_f64()),
        ("storage.sink.first_row_ms", first_row_ms),
        ("storage.sink.max_row_gap_ms", o.sink.max_gap.as_secs_f64() * 1e3),
        ("storage.disk.read_wait_s", read_wait),
        ("storage.disk.read_us_per_read", ratio(disk.busy.as_nanos() as u64, disk.count) / 1e3),
    ]
}
