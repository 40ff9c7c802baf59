//! The out-of-core join against the in-memory sequential join: the same
//! engine over page-resident nodes must emit the same rows, for every
//! algorithm, group shape, metric and probe order, at pool sizes down
//! to the two frames a leaf-pair probe pins.

use csj_core::csj::{CsjJoin, GroupShapeKind};
use csj_core::ncsj::NcsjJoin;
use csj_core::outofcore::{JoinVariant, OutOfCoreJoin};
use csj_core::ssj::SsjJoin;
use csj_core::verify::verify_lossless;
use csj_core::{JoinConfig, JoinOutput};
use csj_geom::{Metric, Point};
use csj_index::paged::PagedTree;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{RetryPolicy, SimulatedDisk};
use proptest::prelude::*;

fn in_memory(
    variant: JoinVariant,
    shape: GroupShapeKind,
    cfg: JoinConfig,
    tree: &RStarTree<2>,
) -> JoinOutput {
    match variant {
        JoinVariant::Ssj => SsjJoin::with_config(cfg).run(tree),
        JoinVariant::Ncsj => NcsjJoin::with_config(cfg).run(tree),
        JoinVariant::Csj { window } => {
            CsjJoin::with_config(cfg).with_window(window).with_shape(shape).run(tree)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn outofcore_rows_match_in_memory_on_every_path(
        pts in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..220),
        eps in 0.0f64..0.3,
        pool in 2usize..7,
        fanout in 4usize..12,
        variant_idx in 0usize..3,
        window in 1usize..12,
        ball in any::<bool>(),
        metric_idx in 0usize..3,
        sweep in any::<bool>(),
        bulk in any::<bool>(),
    ) {
        let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
        let metric = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev][metric_idx];
        let variant = [JoinVariant::Ssj, JoinVariant::Ncsj, JoinVariant::Csj { window }][variant_idx];
        let shape = if ball { GroupShapeKind::Ball } else { GroupShapeKind::Mbr };
        let mut cfg = JoinConfig::new(eps).with_metric(metric);
        if sweep {
            cfg = cfg.with_plane_sweep();
        }
        let tree_cfg = RTreeConfig::with_max_fanout(fanout);
        let tree = if bulk {
            RStarTree::bulk_load_str(&points, tree_cfg)
        } else {
            RStarTree::from_points(&points, tree_cfg)
        };
        let paged =
            PagedTree::from_core(tree.core(), SimulatedDisk::new(), RetryPolicy::none(), pool)
                .unwrap();

        let mem = in_memory(variant, shape, cfg, &tree);
        let ooc = OutOfCoreJoin::new(variant, eps)
            .with_config(cfg)
            .with_shape(shape)
            .run(&paged, None)
            .unwrap();
        let label = format!("{variant:?} {shape:?} {metric:?} sweep={sweep} pool={pool}");
        prop_assert_eq!(&mem.items, &ooc.items, "{}", label);
        prop_assert!(
            verify_lossless(&ooc, &points, eps, metric).is_ok(),
            "{}: not lossless",
            label
        );
    }
}
