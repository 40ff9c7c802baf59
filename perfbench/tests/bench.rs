//! The benchmark's own checks, on the small (smoke) inputs: the
//! wrappers measure the same program, the gate catches wrong output,
//! the inputs follow the seed, and the reported metrics match
//! `BENCHMARK.json`.

use std::path::{Path, PathBuf};

use csj_core::{JoinConfig, JoinStats, NcsjJoin, OutputItem};
use csj_geom::{Mbr, Metric, Point, RecordId, SoaView};
use csj_index::{JoinIndex, LeafEntry, NodeId, RStarTree, RTreeConfig};
use csj_perfbench::check::{fingerprint, LinkSet};
use csj_perfbench::metrics::{END_TO_END, PASS, SETUP};
use csj_perfbench::run::{gate, ops_ok_frac, run, Options, PassRecord};
use csj_perfbench::trace::Tracer;
use csj_perfbench::workload::{
    self, fractal_points, prove_all, road_points, Algo, Kind, Params, PassOutcome, Traced,
};
use csj_perfbench::wrap::CountingIndex;

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The counters that must not depend on the wrappers.
fn exact(s: &JoinStats) -> [u64; 8] {
    [
        s.distance_computations,
        s.links_emitted,
        s.groups_emitted,
        s.links_in_groups,
        s.early_stops_node + s.early_stops_pair,
        s.merge_attempts,
        s.merges_succeeded,
        s.group_members_emitted,
    ]
}

#[test]
fn traced_pass_is_the_untraced_program() {
    for kind in Kind::ALL {
        let dir = scratch(kind.name());
        let mut w = workload::make(Params::new(kind, 7, true), &dir, true);
        w.setup(None).expect("setup");
        let proof = w.prove();
        assert!(proof.errors.is_empty(), "{}: {:?}", kind.name(), proof.errors);
        let mut tracer = Tracer::default();
        for (i, algo) in Algo::ALL.into_iter().enumerate() {
            let label = format!("{} {}", kind.name(), algo.name());
            let plain = w.pass(algo, None).expect("plain pass");
            let traced =
                w.pass(algo, Some(Traced { tracer: &mut tracer, pass: 1 })).expect("traced pass");
            let read = |mode: &str| {
                std::fs::read(dir.join(format!("{}-{mode}.out", algo.name()))).expect("output")
            };
            let bytes = read("plain");
            assert!(!bytes.is_empty(), "{label}: empty output");
            assert!(bytes == read("traced"), "{label}: traced output differs");
            assert_eq!(plain.out, traced.out, "{label}");
            assert_eq!(plain.out, proof.references[i].fingerprint, "{label}");
            assert_eq!(exact(&plain.stats), exact(&traced.stats), "{label}");
            if kind != Kind::FractalDense {
                // Sequential executors: the traversal counters repeat too.
                let walk = |s: &JoinStats| [s.node_visits, s.pair_visits, s.pairs_pruned];
                assert_eq!(walk(&plain.stats), walk(&traced.stats), "{label}");
            }
            if let (Some(a), Some(b)) = (plain.paged, traced.paged) {
                assert_eq!(
                    (a.pool, a.nodes_decoded),
                    (b.pool, b.nodes_decoded),
                    "{label}: pool counters"
                );
                assert!(a.pool.misses > 0 && a.pool.evictions > 0, "{label}: pool not exercised");
            }
            let layer = |name: &str| {
                traced.layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).expect(name)
            };
            assert_eq!(
                layer("core.distance_computations"),
                traced.stats.distance_computations as f64
            );
            assert_eq!(layer("storage.sink.bytes"), traced.out.bytes as f64, "{label}");
            assert_eq!(layer("storage.sink.rows"), traced.out.rows as f64, "{label}");
            match kind {
                Kind::RoadPaged => assert!(layer("storage.disk.reads") > 0.0, "{label}"),
                _ => assert!(layer("index.bound_calls") > 0.0, "{label}"),
            }
        }
    }
}

#[test]
fn wrong_reference_fails_the_pass() {
    let dir = scratch("gate");
    let mut w = workload::make(Params::new(Kind::RoadMem, 3, true), &dir, false);
    w.setup(None).expect("setup");
    let proof = w.prove();
    let outcome = w.pass(Algo::Ncsj, None);
    let mut recs = vec![PassRecord {
        algo: Algo::Ncsj,
        traced: false,
        warmup: false,
        outcome,
        mismatch: None,
        peak_rss_mb: 0.0,
    }];
    gate(&mut recs, &proof.references);
    assert!(recs[0].ok(), "{:?}", recs[0].mismatch);
    let mut wrong = proof.references.clone();
    wrong[0].fingerprint.hash ^= 1;
    gate(&mut recs, &wrong);
    assert!(!recs[0].ok());
    assert!(recs[0].mismatch.as_deref().unwrap_or("").contains("content hash"));
    assert_eq!(ops_ok_frac(&recs), 0.0);
}

#[test]
fn lossy_reference_fails_every_pass() {
    // A lossy program writes the same lossy output in the reference run
    // and in every pass, so the fingerprints agree; the proof must fail
    // the passes on its own.
    let p = Params::new(Kind::RoadMem, 3, true);
    let points = road_points(p.n, p.seed);
    let tree = RStarTree::bulk_load_str(&points, RTreeConfig::default());
    let lossy = || {
        let mut out = NcsjJoin::new(p.eps).run(&tree);
        let at = out.items.iter().position(|i| matches!(i, OutputItem::Link(..))).expect("link");
        out.items.remove(at);
        out
    };
    let proof = prove_all(&tree, &points, &p, |_| Ok(lossy()));
    assert!(!proof.errors.is_empty());
    assert!(proof.references.iter().all(|r| !r.proven));
    let mut recs: Vec<PassRecord> = Algo::ALL
        .into_iter()
        .map(|algo| PassRecord {
            algo,
            traced: false,
            warmup: false,
            outcome: Ok(PassOutcome {
                secs: 0.1,
                stats: JoinStats::default(),
                out: fingerprint(&lossy(), p.id_width()),
                paged: None,
                layers: Vec::new(),
            }),
            mismatch: None,
            peak_rss_mb: 0.0,
        })
        .collect();
    for (rec, rf) in recs.iter().zip(&proof.references) {
        let out = &rec.outcome.as_ref().expect("ran").out;
        assert_eq!(out.diff(&rf.fingerprint), None, "the pass reproduces the reference");
    }
    gate(&mut recs, &proof.references);
    assert!(recs.iter().all(|r| !r.ok()));
    assert!(ops_ok_frac(&recs) < 1.0);
}

#[test]
fn proof_catches_missing_and_extra_links() {
    let points = fractal_points(600, 5);
    let tree = RStarTree::bulk_load_str(&points, RTreeConfig::default());
    let truth = LinkSet::from_ssj(&tree, JoinConfig::new(0.125));
    let out = NcsjJoin::new(0.125).run(&tree);
    truth.prove(&out).expect("N-CSJ is lossless");

    let mut missing = out.clone();
    let at = missing.items.iter().position(|i| matches!(i, OutputItem::Link(..))).expect("link");
    missing.items.remove(at);
    assert!(truth.prove(&missing).expect_err("missing").contains("missing"));

    let (far_a, far_b) = (0..points.len() as RecordId)
        .flat_map(|a| (a + 1..points.len() as RecordId).map(move |b| (a, b)))
        .find(|&(a, b)| Metric::Euclidean.distance(&points[a as usize], &points[b as usize]) > 0.5)
        .expect("a far pair");
    let mut extra = out.clone();
    extra.items.push(OutputItem::Link(far_a, far_b));
    assert!(truth.prove(&extra).expect_err("extra").contains("not an ε-link"));
}

/// An index whose provided methods return markers: a wrapper that fell
/// back to the trait's default bodies would call the (panicking)
/// required methods instead.
struct Marked;

impl JoinIndex<2> for Marked {
    fn root(&self) -> Option<NodeId> {
        Some(NodeId(0))
    }
    fn is_leaf(&self, _: NodeId) -> bool {
        panic!("default body used")
    }
    fn children(&self, _: NodeId) -> &[NodeId] {
        panic!("default body used")
    }
    fn leaf_entries(&self, _: NodeId) -> &[LeafEntry<2>] {
        panic!("default body used")
    }
    fn leaf_soa(&self, _: NodeId) -> SoaView<'_, 2> {
        SoaView::empty()
    }
    fn node_mbr(&self, _: NodeId) -> Mbr<2> {
        panic!("not called")
    }
    fn max_diameter(&self, _: NodeId, _: Metric) -> f64 {
        1.0
    }
    fn pair_diameter(&self, _: NodeId, _: NodeId, _: Metric) -> f64 {
        2.0
    }
    fn min_dist(&self, _: NodeId, _: NodeId, _: Metric) -> f64 {
        3.0
    }
    fn num_records(&self) -> usize {
        9
    }
    fn height(&self) -> usize {
        1
    }
    fn collect_record_ids(&self, _: NodeId, out: &mut Vec<RecordId>) {
        out.extend([7, 8, 9]);
    }
    fn collect_entries(&self, _: NodeId, out: &mut Vec<LeafEntry<2>>) {
        out.push(LeafEntry::new(42, Point::new([0.5, 0.5])));
    }
    fn subtree_node_count(&self, _: NodeId) -> usize {
        42
    }
}

#[test]
fn counting_index_forwards_every_method() {
    let inner = Marked;
    let idx = CountingIndex::new(&inner);
    let n = NodeId(0);
    let mut ids = vec![1];
    idx.collect_record_ids(n, &mut ids);
    assert_eq!(ids, [1, 7, 8, 9]);
    let mut entries = Vec::new();
    idx.collect_entries(n, &mut entries);
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].id, 42);
    assert_eq!(idx.subtree_node_count(n), 42);
    let m = Metric::Euclidean;
    assert_eq!(
        [idx.max_diameter(n, m), idx.pair_diameter(n, n, m), idx.min_dist(n, n, m)],
        [1.0, 2.0, 3.0]
    );
    assert!(idx.leaf_soa(n).is_empty());
    assert_eq!((idx.num_records(), idx.height(), idx.root()), (9, 1, Some(n)));
    let c = idx.counts();
    assert_eq!((c.bound_calls, c.leaf_reads, c.collected_ids), (3, 1, 3));
}

#[test]
fn inputs_follow_the_seed() {
    assert_eq!(road_points(2_000, 1), road_points(2_000, 1));
    assert_ne!(road_points(2_000, 1), road_points(2_000, 2));
    assert_eq!(fractal_points(2_000, 1), fractal_points(2_000, 1));
    assert_ne!(fractal_points(2_000, 1), fractal_points(2_000, 2));
}

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let spec: String = benchmark_json().split_whitespace().collect();
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md");
    for trace in [false, true] {
        let opts = Options {
            params: Params::new(Kind::RoadPaged, 4, true),
            seconds: 0.0,
            trace,
            work_dir: scratch(&format!("run-{trace}")),
        };
        let r = run(&opts).expect("smoke run");
        assert!(r.correct && r.failed == 0 && r.attempted >= 4);
        let expected: Vec<String> = if trace {
            SETUP
                .iter()
                .map(|m| m.name.to_string())
                .chain(
                    Algo::ALL
                        .iter()
                        .flat_map(|a| PASS.iter().map(move |m| format!("{}.{}", a.name(), m.name))),
                )
                .collect()
        } else {
            END_TO_END.iter().map(|m| m.name.to_string()).collect()
        };
        let got: Vec<&String> = r.metrics.iter().map(|(n, _, _)| n).collect();
        assert_eq!(got, expected.iter().collect::<Vec<_>>());
        for (name, value, unit) in &r.metrics {
            assert!(value.is_finite(), "{name}");
            assert!(
                spec.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "{name} ({unit}) is not in BENCHMARK.json"
            );
        }
    }
    for m in SETUP.iter().chain(PASS) {
        assert!(readme.contains(&format!("`{}`", m.name)), "README lacks {}", m.name);
    }
}
