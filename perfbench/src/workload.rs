//! The three workloads: their seeded inputs, set-up, reference proof
//! and timed passes.
//!
//! | workload        | input                               | execution                                   |
//! |-----------------|-------------------------------------|---------------------------------------------|
//! | `road-mem`      | Pacific-NW roads, 1.5M 2-D, ε 5e-4  | in-memory R*-tree, `ResilientJoin` streaming |
//! | `road-paged`    | the same points and ε               | in-memory `FileDisk` file, 1/64 pool, prefetch |
//! | `fractal-dense` | Sierpinski pyramid, 25k 3-D, ε .125 | `ParallelJoin` (2 threads), then `write_to`  |
//!
//! Every pass alternates N-CSJ and CSJ(10) and writes the paper's text
//! format to a file; a pass starts after the previous one finishes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use csj_core::outofcore::{JoinVariant, OutOfCoreJoin};
use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_core::verify::verify_lossless;
use csj_core::{CsjError, JoinConfig, JoinOutput, JoinStats, ResilientJoin};
use csj_data::roads::{road_network, RoadConfig};
use csj_geom::{Metric, Point};
use csj_index::{JoinIndex, PagedStats, PagedTree, RStarTree, RTreeConfig};
use csj_storage::{Disk, FileDisk, FileSink, OutputSink, OutputWriter, RetryPolicy, PAGE_SIZE};

use crate::check::{fingerprint, hash_file, Fingerprint, LinkSet, Reference};
use crate::metrics::{pass_metrics, span, PassObservation};
use crate::trace::{Timing, Tracer};
use crate::wrap::{CountingIndex, DiskTiming, TimedDisk, TimedSink};

/// The two algorithms every workload alternates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Non-windowed compact join.
    Ncsj,
    /// Compact join with a window of 10 groups.
    Csj10,
}

impl Algo {
    /// Both algorithms, in pass order.
    pub const ALL: [Algo; 2] = [Algo::Ncsj, Algo::Csj10];

    /// Metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Ncsj => "ncsj",
            Algo::Csj10 => "csj10",
        }
    }

    fn parallel(self) -> ParallelAlgo {
        match self {
            Algo::Ncsj => ParallelAlgo::Ncsj,
            Algo::Csj10 => ParallelAlgo::Csj(10),
        }
    }

    fn variant(self) -> JoinVariant {
        match self {
            Algo::Ncsj => JoinVariant::Ncsj,
            Algo::Csj10 => JoinVariant::Csj { window: 10 },
        }
    }
}

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Roads on an in-memory tree.
    RoadMem,
    /// Roads on an in-memory page file behind a small buffer pool.
    RoadPaged,
    /// Dense 3-D fractal on the work-stealing scheduler.
    FractalDense,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::RoadMem, Kind::RoadPaged, Kind::FractalDense];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RoadMem => "road-mem",
            Kind::RoadPaged => "road-paged",
            Kind::FractalDense => "fractal-dense",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Largest input checked a second time by brute force.
pub const VERIFY_MAX_POINTS: usize = 5_000;

/// Fixed size and shape of a workload's input and execution.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Points generated.
    pub n: usize,
    /// Join range ε.
    pub eps: f64,
    /// `road-paged`: the pool holds 1/`pool_frac` of the node pages.
    pub pool_frac: u64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// `fractal-dense`: worker threads.
    pub threads: usize,
}

impl Params {
    /// The full-size workload, or the small one the tests run (`smoke`).
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Params {
        let (n, eps, setup_reps) = match (kind, smoke) {
            (Kind::RoadMem, false) => (csj_data::roads::PACIFIC_NW_SIZE, 0.0005, 5),
            (Kind::RoadPaged, false) => (csj_data::roads::PACIFIC_NW_SIZE, 0.0005, 3),
            (Kind::FractalDense, false) => (25_000, 0.125, 25),
            (Kind::RoadMem | Kind::RoadPaged, true) => (4_000, 0.004, 2),
            (Kind::FractalDense, true) => (1_500, 0.125, 2),
        };
        Params { kind, seed, n, eps, pool_frac: 64, setup_reps, threads: 2 }
    }

    /// Zero-padded id width of the output text.
    pub fn id_width(&self) -> usize {
        OutputWriter::<FileSink>::id_width_for(self.n)
    }
}

/// Pacific-NW road profile (`csj_data::roads::pacific_nw`'s settings)
/// drawn with `seed`.
pub fn road_points(n: usize, seed: u64) -> Vec<Point<2>> {
    road_network(&RoadConfig {
        n_points: n,
        cores: 8,
        core_sigma: 0.05,
        rural_fraction: 0.3,
        grid_snap_prob: 0.8,
        step: 0.0012,
        mean_road_len: 0.03,
        seed,
    })
}

/// Sierpinski pyramid points drawn with `seed`.
pub fn fractal_points(n: usize, seed: u64) -> Vec<Point<3>> {
    csj_data::sierpinski::pyramid_3d(n, seed)
}

/// A traced call: where to record spans, and the pass id to give them.
pub struct Traced<'a> {
    /// Span store.
    pub tracer: &'a mut Tracer,
    /// Pass id shared by this call's spans.
    pub pass: u32,
}

/// One set-up repetition.
#[derive(Clone, Debug)]
pub struct SetupSample {
    /// Input generation plus index build, seconds.
    pub total_s: f64,
    /// The set-up per-layer metrics.
    pub layers: Vec<(&'static str, f64)>,
}

/// One timed pass.
#[derive(Clone, Debug)]
pub struct PassOutcome {
    /// From the join call to the flushed output file.
    pub secs: f64,
    /// The join's counters.
    pub stats: JoinStats,
    /// What the pass wrote.
    pub out: Fingerprint,
    /// Pool counters of this pass (`road-paged` only).
    pub paged: Option<PagedStats>,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Proven references, or the reasons the proof failed.
pub struct Proof {
    /// One reference per [`Algo::ALL`] entry.
    pub references: Vec<Reference>,
    /// Proof failures (empty when every reference is lossless).
    pub errors: Vec<String>,
}

/// What the run loop needs from a workload.
pub trait Workload {
    /// Generates the inputs and builds the index (again).
    ///
    /// # Errors
    /// Returns a message when the index cannot be built.
    fn setup(&mut self, trace: Option<Traced>) -> Result<SetupSample, String>;

    /// Computes and proves each algorithm's reference output.
    fn prove(&mut self) -> Proof;

    /// Runs one timed pass of `algo`.
    ///
    /// # Errors
    /// Returns a message when the join or its output file fails.
    fn pass(&mut self, algo: Algo, trace: Option<Traced>) -> Result<PassOutcome, String>;

    /// Facts about the execution to record with the run.
    fn describe(&self) -> Vec<(&'static str, String)>;
}

/// Builds the workload `params` describes, keeping its files in `dir`.
pub fn make(params: Params, dir: &Path, keep_outputs: bool) -> Box<dyn Workload> {
    let files = Files { dir: dir.to_path_buf(), keep_outputs };
    match params.kind {
        Kind::RoadMem => Box::new(RoadMem { p: params, files, points: Vec::new(), tree: None }),
        Kind::RoadPaged => Box::new(RoadPaged {
            p: params,
            page_file: None,
            files,
            points: Vec::new(),
            node_pages: 0,
        }),
        Kind::FractalDense => {
            Box::new(Fractal { p: params, files, points: Vec::new(), tree: None })
        }
    }
}

/// Where a workload writes its pass outputs.
struct Files {
    dir: PathBuf,
    keep_outputs: bool,
}

impl Files {
    fn output(&self, algo: Algo, traced: bool) -> PathBuf {
        let mode = if traced { "traced" } else { "plain" };
        self.dir.join(format!("{}-{mode}.out", algo.name()))
    }

    /// Fingerprints a pass's output file, then removes it unless kept.
    fn finish(&self, path: &Path, stats: &JoinStats, rows: u64) -> Result<Fingerprint, String> {
        let (bytes, hash) = hash_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        if !self.keep_outputs {
            let _ = std::fs::remove_file(path);
        }
        Ok(Fingerprint {
            encoded_links: stats.links_emitted + stats.links_in_groups,
            rows,
            bytes,
            hash,
        })
    }
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Records a set-up repetition's spans and returns its sample.
fn setup_sample(
    trace: Option<Traced>,
    times: [Instant; 3],
    writes: Option<&Timing>,
    page_file_bytes: u64,
) -> SetupSample {
    let [t0, t1, t2] = times;
    if let Some(Traced { tracer, pass }) = trace {
        let root = tracer.span(span::SETUP, pass, None, t0, t2);
        tracer.span(span::GEN, pass, Some(root), t0, t1);
        let build = tracer.span(span::BUILD, pass, Some(root), t1, t2);
        if let Some(w) = writes {
            tracer.aggregate(span::DISK_WRITE, pass, Some(build), w);
        }
    }
    let w = writes.copied().unwrap_or_default();
    SetupSample {
        total_s: secs(t0, t2),
        layers: vec![
            ("index.page_file_bytes", page_file_bytes as f64),
            ("storage.disk.writes", w.count as f64),
            ("data.gen_s", secs(t0, t1)),
            ("index.build_s", secs(t1, t2)),
            ("storage.disk.write_s", w.busy.as_secs_f64()),
        ],
    }
}

/// Proves `run`'s output of each algorithm against the sequential SSJ.
pub fn prove_all<T: JoinIndex<D>, const D: usize>(
    tree: &T,
    points: &[Point<D>],
    p: &Params,
    run: impl Fn(Algo) -> Result<JoinOutput, CsjError>,
) -> Proof {
    let truth = LinkSet::from_ssj(tree, JoinConfig::new(p.eps));
    let mut proof = Proof { references: Vec::new(), errors: Vec::new() };
    for algo in Algo::ALL {
        let out = match run(algo) {
            Ok(out) => out,
            Err(e) => {
                proof.errors.push(format!("{} reference: {e}", algo.name()));
                proof.references.push(Reference {
                    fingerprint: Fingerprint::default(),
                    distinct_links: 0,
                    proven: false,
                });
                continue;
            }
        };
        let errors = proof.errors.len();
        if let Err(e) = truth.prove(&out) {
            proof.errors.push(format!("{} reference vs SSJ: {e}", algo.name()));
        }
        if points.len() <= VERIFY_MAX_POINTS {
            if let Err(e) = verify_lossless(&out, points, p.eps, Metric::Euclidean) {
                proof.errors.push(format!("{} reference vs brute force: {e}", algo.name()));
            }
        }
        proof.references.push(Reference {
            fingerprint: fingerprint(&out, p.id_width()),
            distinct_links: truth.len(),
            proven: proof.errors.len() == errors,
        });
    }
    proof
}

/// A streaming pass: the join writes rows straight into `sink`.
struct Streamed<S> {
    start: Instant,
    end: Instant,
    stats: JoinStats,
    rows: u64,
    sink: S,
}

fn stream<S: OutputSink>(
    sink: S,
    width: usize,
    join: impl FnOnce(&mut OutputWriter<S>) -> Result<JoinStats, CsjError>,
) -> Result<Streamed<S>, String> {
    let mut writer = OutputWriter::new(sink, width);
    let start = Instant::now();
    let stats = join(&mut writer).map_err(msg)?;
    let rows = writer.links_written() + writer.groups_written();
    let sink = writer.finish().map_err(msg)?;
    Ok(Streamed { start, end: Instant::now(), stats, rows, sink })
}

/// Records a streamed traced pass's spans and derives its metrics.
fn streamed_layers(
    tracer: &mut Tracer,
    pass: u32,
    s: &Streamed<TimedSink<FileSink>>,
    disk: Option<&Timing>,
    index: Option<crate::wrap::IndexCounts>,
    paged: Option<(PagedStats, u64)>,
) -> Vec<(&'static str, f64)> {
    let root = tracer.span(span::PASS, pass, None, s.start, s.end);
    let sink = s.sink.timing();
    tracer.aggregate(span::SINK, pass, Some(root), &sink);
    if let Some(d) = disk {
        tracer.aggregate(span::DISK_READ, pass, Some(root), d);
    }
    pass_metrics(&PassObservation {
        tracer,
        pass_span: root,
        start: s.start,
        stats: &s.stats,
        sink: &sink,
        sink_bytes: s.sink.bytes_written(),
        disk,
        index,
        paged,
    })
}

fn file_sink(path: &Path) -> Result<FileSink, String> {
    FileSink::create(path).map_err(msg)
}

struct RoadMem {
    p: Params,
    files: Files,
    points: Vec<Point<2>>,
    tree: Option<RStarTree<2>>,
}

/// The CLI's default join path, as both road workloads' references and
/// `road-mem`'s passes run it.
fn road_join(p: &Params, algo: Algo) -> ResilientJoin {
    ResilientJoin::new(p.eps, algo.parallel()).with_id_width(p.id_width())
}

impl Workload for RoadMem {
    fn setup(&mut self, trace: Option<Traced>) -> Result<SetupSample, String> {
        self.tree = None;
        let t0 = Instant::now();
        self.points = road_points(self.p.n, self.p.seed);
        let t1 = Instant::now();
        self.tree = Some(RStarTree::bulk_load_str(&self.points, RTreeConfig::default()));
        Ok(setup_sample(trace, [t0, t1, Instant::now()], None, 0))
    }

    fn prove(&mut self) -> Proof {
        let tree = self.tree.as_ref().expect("set up before proving");
        prove_all(tree, &self.points, &self.p, |algo| road_join(&self.p, algo).run(tree))
    }

    fn pass(&mut self, algo: Algo, trace: Option<Traced>) -> Result<PassOutcome, String> {
        let tree = self.tree.as_ref().expect("set up before passes");
        let join = road_join(&self.p, algo);
        let path = self.files.output(algo, trace.is_some());
        let width = self.p.id_width();
        let Some(Traced { tracer, pass }) = trace else {
            let s = stream(file_sink(&path)?, width, |w| Ok(join.run_streaming(tree, w)?.stats))?;
            let out = self.files.finish(&path, &s.stats, s.rows)?;
            return Ok(PassOutcome {
                secs: secs(s.start, s.end),
                stats: s.stats,
                out,
                paged: None,
                layers: Vec::new(),
            });
        };
        let index = CountingIndex::new(tree);
        let sink = TimedSink::new(file_sink(&path)?);
        let s = stream(sink, width, |w| Ok(join.run_streaming(&index, w)?.stats))?;
        let layers = streamed_layers(tracer, pass, &s, None, Some(index.counts()), None);
        let out = self.files.finish(&path, &s.stats, s.rows)?;
        Ok(PassOutcome { secs: secs(s.start, s.end), stats: s.stats, out, paged: None, layers })
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![("executor", "ResilientJoin::run_streaming (sequential)".into())]
    }
}

/// `road-paged` keeps its page file in memory: on a shared virtual
/// host the latency of a direct read from the virtual disk drifts two-
/// to threefold within minutes, which spread pass times between runs
/// by more than a quarter. In memory, every pool miss still makes a
/// `FileDisk` read system call, so the pool, decode, prefetch and read
/// path are measured without the host's device.
struct RoadPaged {
    p: Params,
    files: Files,
    /// The in-memory page file and the path it is opened by.
    page_file: Option<(std::fs::File, PathBuf)>,
    points: Vec<Point<2>>,
    node_pages: u64,
}

impl RoadPaged {
    fn page_path(&self) -> &Path {
        &self.page_file.as_ref().expect("set up before use").1
    }

    fn pool_pages(&self) -> usize {
        (self.node_pages / self.p.pool_frac).max(4) as usize
    }

    /// The prefetch staging budget `perf_outofcore` uses for this pool.
    fn prefetch_pages(&self) -> usize {
        (self.pool_pages() / 4).max(8)
    }

    fn build<Dk: Disk>(&self, disk: Dk) -> Result<u64, String> {
        let tree = PagedTree::build_str(
            &self.points,
            RTreeConfig::default(),
            disk,
            RetryPolicy::default(),
            4096,
        )
        .map_err(msg)?;
        Ok(tree.meta().node_pages)
    }

    /// Opens the page file with a cold pool and runs one streaming pass.
    fn run_pass<Dk: Disk, S: OutputSink>(
        &self,
        algo: Algo,
        disk: Dk,
        sink: S,
        reset: impl FnOnce(),
    ) -> Result<(Streamed<S>, PagedStats), String> {
        let tree = PagedTree::<2, _>::open(disk, RetryPolicy::default(), self.pool_pages())
            .map_err(msg)?;
        let join = OutOfCoreJoin::new(algo.variant(), self.p.eps)
            .with_prefetch_budget(self.prefetch_pages() * PAGE_SIZE);
        let before = tree.stats();
        reset();
        let s = stream(sink, self.p.id_width(), |w| {
            join.run_streaming(&tree, w, Some(self.page_path()))
        })?;
        Ok((s, paged_delta(&tree.stats(), &before)))
    }
}

/// Pool counters accumulated between two snapshots.
fn paged_delta(after: &PagedStats, before: &PagedStats) -> PagedStats {
    let mut d = *after;
    d.pool.hits -= before.pool.hits;
    d.pool.misses -= before.pool.misses;
    d.pool.evictions -= before.pool.evictions;
    d.disk_reads -= before.disk_reads;
    d.disk_writes -= before.disk_writes;
    d.io_retries -= before.io_retries;
    d.faults_injected -= before.faults_injected;
    d.prefetch_supplied -= before.prefetch_supplied;
    d.nodes_decoded -= before.nodes_decoded;
    d
}

impl Workload for RoadPaged {
    fn setup(&mut self, trace: Option<Traced>) -> Result<SetupSample, String> {
        let t0 = Instant::now();
        self.points = road_points(self.p.n, self.p.seed);
        let t1 = Instant::now();
        if self.page_file.is_none() {
            self.page_file = Some(crate::host::memory_file(c"csj-road-paged.pages")?);
        }
        let create = || FileDisk::create(self.page_path()).map_err(msg);
        let timing = if trace.is_some() {
            let disk = TimedDisk::new(create()?);
            let timing = disk.timing();
            self.node_pages = self.build(disk)?;
            Some(timing.get().writes)
        } else {
            self.node_pages = self.build(create()?)?;
            None
        };
        let t2 = Instant::now();
        let bytes = std::fs::metadata(self.page_path()).map_err(msg)?.len();
        Ok(setup_sample(trace, [t0, t1, t2], timing.as_ref(), bytes))
    }

    fn prove(&mut self) -> Proof {
        // The page file is `str_pack`'s tree page by page, so the
        // in-memory tree's output is the paged passes' reference.
        let tree = RStarTree::bulk_load_str(&self.points, RTreeConfig::default());
        prove_all(&tree, &self.points, &self.p, |algo| road_join(&self.p, algo).run(&tree))
    }

    fn pass(&mut self, algo: Algo, trace: Option<Traced>) -> Result<PassOutcome, String> {
        let path = self.files.output(algo, trace.is_some());
        let disk = FileDisk::open(self.page_path()).map_err(msg)?;
        let Some(Traced { tracer, pass }) = trace else {
            let (s, paged) = self.run_pass(algo, disk, file_sink(&path)?, || ())?;
            let out = self.files.finish(&path, &s.stats, s.rows)?;
            return Ok(PassOutcome {
                secs: secs(s.start, s.end),
                stats: s.stats,
                out,
                paged: Some(paged),
                layers: Vec::new(),
            });
        };
        let disk = TimedDisk::new(disk);
        let timing = disk.timing();
        let sink = TimedSink::new(file_sink(&path)?);
        let reset = || timing.set(DiskTiming::default());
        let (s, paged) = self.run_pass(algo, disk, sink, reset)?;
        let reads = timing.get().reads;
        let layers =
            streamed_layers(tracer, pass, &s, Some(&reads), None, Some((paged, self.node_pages)));
        let out = self.files.finish(&path, &s.stats, s.rows)?;
        Ok(PassOutcome {
            secs: secs(s.start, s.end),
            stats: s.stats,
            out,
            paged: Some(paged),
            layers,
        })
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        // tmpfs accepts O_DIRECT, and serves it from memory.
        let direct = match &self.page_file {
            Some((_, path)) => {
                FileDisk::open(path).map_or_else(|e| e.to_string(), |d| d.is_direct().to_string())
            }
            None => "not set up".into(),
        };
        vec![
            ("executor", "OutOfCoreJoin::run_streaming (sequential)".into()),
            ("page_file", "in memory (memfd_create)".into()),
            ("direct_io", direct),
            ("node_pages", self.node_pages.to_string()),
            ("pool_pages", self.pool_pages().to_string()),
            ("pool_frac", format!("1/{}", self.p.pool_frac)),
            ("prefetch_pages", self.prefetch_pages().to_string()),
        ]
    }
}

struct Fractal {
    p: Params,
    files: Files,
    points: Vec<Point<3>>,
    tree: Option<RStarTree<3>>,
}

impl Fractal {
    fn join(&self, algo: Algo) -> ParallelJoin {
        ParallelJoin::new(self.p.eps, algo.parallel()).with_threads(self.p.threads)
    }
}

impl Workload for Fractal {
    fn setup(&mut self, trace: Option<Traced>) -> Result<SetupSample, String> {
        self.tree = None;
        let t0 = Instant::now();
        self.points = fractal_points(self.p.n, self.p.seed);
        let t1 = Instant::now();
        self.tree = Some(RStarTree::bulk_load_str(&self.points, RTreeConfig::default()));
        Ok(setup_sample(trace, [t0, t1, Instant::now()], None, 0))
    }

    fn prove(&mut self) -> Proof {
        let tree = self.tree.as_ref().expect("set up before proving");
        prove_all(tree, &self.points, &self.p, |algo| Ok(self.join(algo).run(tree)))
    }

    fn pass(&mut self, algo: Algo, trace: Option<Traced>) -> Result<PassOutcome, String> {
        let tree = self.tree.as_ref().expect("set up before passes");
        let join = self.join(algo);
        let path = self.files.output(algo, trace.is_some());
        let width = self.p.id_width();
        let Some(Traced { tracer, pass }) = trace else {
            let mut writer = OutputWriter::new(file_sink(&path)?, width);
            let start = Instant::now();
            let out = join.run(tree);
            out.write_to(&mut writer).map_err(msg)?;
            let rows = writer.links_written() + writer.groups_written();
            writer.finish().map_err(msg)?;
            let secs = start.elapsed().as_secs_f64();
            let fp = self.files.finish(&path, &out.stats, rows)?;
            return Ok(PassOutcome {
                secs,
                stats: out.stats,
                out: fp,
                paged: None,
                layers: Vec::new(),
            });
        };
        let index = CountingIndex::new(tree);
        let mut writer = OutputWriter::new(TimedSink::new(file_sink(&path)?), width);
        let t0 = Instant::now();
        let out = join.run(&index);
        let t1 = Instant::now();
        out.write_to(&mut writer).map_err(msg)?;
        let rows = writer.links_written() + writer.groups_written();
        let sink = writer.finish().map_err(msg)?;
        let t2 = Instant::now();
        let root = tracer.span(span::PASS, pass, None, t0, t2);
        tracer.span(span::RUN, pass, Some(root), t0, t1);
        let drain = tracer.span(span::DRAIN, pass, Some(root), t1, t2);
        let timing = sink.timing();
        tracer.aggregate(span::SINK, pass, Some(drain), &timing);
        let layers = pass_metrics(&PassObservation {
            tracer,
            pass_span: root,
            start: t0,
            stats: &out.stats,
            sink: &timing,
            sink_bytes: sink.bytes_written(),
            disk: None,
            index: Some(index.counts()),
            paged: None,
        });
        let fp = self.files.finish(&path, &out.stats, rows)?;
        Ok(PassOutcome { secs: secs(t0, t2), stats: out.stats, out: fp, paged: None, layers })
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("executor", "ParallelJoin::run + JoinOutput::write_to".into()),
            ("threads", self.p.threads.to_string()),
        ]
    }
}
