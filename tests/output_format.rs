//! Byte-exact output format through the full stack: join → text file →
//! parse back → expand → compare against brute force; and the writer's
//! rows, one sink call each, against `format!`'s zero padding.

use std::collections::BTreeSet;

use csj_core::brute::brute_force_links;
use csj_core::csj::CsjJoin;
use csj_core::ncsj::NcsjJoin;
use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_core::ssj::SsjJoin;
use csj_core::{JoinOutput, OutputItem};
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{FileSink, OutputSink, OutputWriter, StorageError, VecSink};
use proptest::prelude::*;

fn sample_points() -> Vec<csj_geom::Point<2>> {
    csj_data::clusters::gaussian_mixture(
        600,
        csj_data::clusters::ClusterConfig { clusters: 5, sigma: 0.02 },
        3,
    )
}

/// Parses the paper's text format back into a link set: each line is a
/// row; a 2-id line could be a link or a 2-group (identical bytes — the
/// formats coincide by design), longer lines are groups.
fn parse_link_set(text: &str) -> BTreeSet<(u32, u32)> {
    let mut set = BTreeSet::new();
    for line in text.lines() {
        let ids: Vec<u32> = line.split(' ').map(|t| t.parse().unwrap()).collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let (a, b) = (ids[i].min(ids[j]), ids[i].max(ids[j]));
                if a != b {
                    set.insert((a, b));
                }
            }
        }
    }
    set
}

#[test]
fn text_roundtrip_all_algorithms() {
    let pts = sample_points();
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    let eps = 0.05;
    let truth = brute_force_links(&pts, eps);
    let width = 3;

    let mut w = OutputWriter::new(VecSink::new(), width);
    SsjJoin::new(eps).run_streaming(&tree, &mut w).expect("vec sink cannot fail");
    assert_eq!(parse_link_set(w.sink().as_str()), truth, "ssj");

    let mut w = OutputWriter::new(VecSink::new(), width);
    NcsjJoin::new(eps).run_streaming(&tree, &mut w).expect("vec sink cannot fail");
    assert_eq!(parse_link_set(w.sink().as_str()), truth, "ncsj");

    let mut w = OutputWriter::new(VecSink::new(), width);
    CsjJoin::new(eps).with_window(10).run_streaming(&tree, &mut w).expect("vec sink cannot fail");
    assert_eq!(parse_link_set(w.sink().as_str()), truth, "csj");
}

#[test]
fn file_bytes_equal_counted_bytes() {
    let pts = sample_points();
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    let eps = 0.04;
    let width = 3;
    let join = CsjJoin::new(eps).with_window(10);

    // Collected accounting.
    let collected = join.run(&tree);
    let expected_bytes = collected.total_bytes(width);

    // Real file.
    let path = std::env::temp_dir().join(format!("csj_fmt_{}.txt", std::process::id()));
    let mut w = OutputWriter::new(FileSink::create(&path).unwrap(), width);
    join.run_streaming(&tree, &mut w).expect("file sink write failed");
    let sink = w.finish().expect("flush failed");
    assert_eq!(sink.bytes_written(), expected_bytes);
    let on_disk = std::fs::metadata(&path).unwrap().len();
    assert_eq!(on_disk, expected_bytes, "file size equals the byte accounting");
    std::fs::remove_file(&path).ok();
}

#[test]
fn streamed_and_collected_rows_are_identical() {
    let pts = sample_points();
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    let eps = 0.06;
    let width = 3;
    let join = CsjJoin::new(eps).with_window(7);

    let collected = join.run(&tree);
    let mut from_collected = OutputWriter::new(VecSink::new(), width);
    collected.write_to(&mut from_collected).expect("vec sink cannot fail");

    let mut streamed = OutputWriter::new(VecSink::new(), width);
    join.run_streaming(&tree, &mut streamed).expect("vec sink cannot fail");

    assert_eq!(
        from_collected.sink().as_str(),
        streamed.sink().as_str(),
        "stream and collect must produce byte-identical output"
    );
}

#[test]
fn dataset_export_import_roundtrip() {
    let pts = sample_points();
    let path = std::env::temp_dir().join(format!("csj_pts_{}.txt", std::process::id()));
    csj_data::io::write_points(&path, &pts).unwrap();
    let back: Vec<csj_geom::Point<2>> = csj_data::io::read_points(&path).unwrap();
    assert_eq!(back, pts);
    std::fs::remove_file(&path).ok();

    // Joins over the re-imported data give identical results.
    let t1 = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
    let t2 = RStarTree::bulk_load_str(&back, RTreeConfig::default());
    let o1 = CsjJoin::new(0.03).run(&t1);
    let o2 = CsjJoin::new(0.03).run(&t2);
    assert_eq!(o1.expanded_link_set(), o2.expanded_link_set());
}

/// Keeps each `write_bytes` call's bytes apart, so a test sees both the
/// rows and how many calls carried them.
#[derive(Debug, Default)]
struct CallSink {
    calls: Vec<Vec<u8>>,
    bytes: u64,
}

impl OutputSink for CallSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.calls.push(bytes.to_vec());
        self.bytes += bytes.len() as u64;
        Ok(())
    }
    fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// The reference row: every id through `format!`'s zero padding, space
/// separated, newline terminated.
fn reference_row(ids: &[u32], width: usize) -> Vec<u8> {
    let ids: Vec<String> = ids.iter().map(|id| format!("{id:0width$}")).collect();
    format!("{}\n", ids.join(" ")).into_bytes()
}

/// Checks `out` written at `width` row for row against the reference,
/// one sink call per row; returns the bytes written.
fn assert_rows_match_reference(out: &JoinOutput, width: usize, what: &str) -> u64 {
    let mut w = OutputWriter::new(CallSink::default(), width);
    out.write_to(&mut w).expect("call sink cannot fail");
    let calls = &w.sink().calls;
    assert_eq!(calls.len(), out.items.len(), "{what}: one sink call per row");
    for (call, item) in calls.iter().zip(&out.items) {
        let want = match item {
            OutputItem::Link(a, b) => reference_row(&[*a, *b], width),
            OutputItem::Group(ids) => reference_row(ids, width),
        };
        assert_eq!(call, &want, "{what}");
    }
    w.bytes_written()
}

/// Ids that stress the encoder: 0, `u32::MAX`, every power of ten a
/// `u32` holds and the id just below it (so each width from 1 to 9
/// sees ids at, just below and above `10^width`), small ids, and any id.
fn edge_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(u32::MAX),
        (0u32..10).prop_map(|k| 10u32.pow(k)),
        (1u32..10).prop_map(|k| 10u32.pow(k) - 1),
        0u32..1_000,
        any::<u32>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn writer_rows_equal_format_reference(
        width in 1usize..=20,
        links in prop::collection::vec((edge_id(), edge_id()), 0..12),
        groups in prop::collection::vec(prop::collection::vec(edge_id(), 1..12), 0..6),
    ) {
        let mut w = OutputWriter::new(CallSink::default(), width);
        let mut want = Vec::new();
        for &(a, b) in &links {
            w.write_link(a, b).expect("call sink cannot fail");
            want.push(reference_row(&[a, b], width));
        }
        for g in &groups {
            w.write_group(g).expect("call sink cannot fail");
            want.push(reference_row(g, width));
        }
        prop_assert_eq!(&w.sink().calls, &want, "width {}", width);
        prop_assert_eq!(w.links_written() as usize, links.len());
        prop_assert_eq!(w.groups_written() as usize, groups.len());
    }
}

#[test]
fn parallel_fractal_rows_equal_format_reference() {
    let pts = csj_data::sierpinski::pyramid_3d(1_500, 0x53);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    let width = OutputWriter::<VecSink>::id_width_for(pts.len());
    for algo in [ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
        let out = ParallelJoin::new(0.125, algo).with_threads(2).run(&tree);
        assert!(out.num_groups() > 0, "{algo:?}: the dense input forms groups");
        let bytes = assert_rows_match_reference(&out, width, &format!("{algo:?}"));
        assert_eq!(bytes, out.total_bytes(width), "{algo:?}: byte accounting");
        // Wider and narrower fields than the data needs: padded to the
        // field, or unpadded where an id outgrows it.
        assert_rows_match_reference(&out, 9, &format!("{algo:?} width 9"));
        let unpadded = assert_rows_match_reference(&out, 2, &format!("{algo:?} width 2"));
        assert!(unpadded > out.total_bytes(2), "{algo:?}: ids wider than the field");
    }
}
