//! Abstraction over search indexes.
//!
//! The paper's §4.1 observes that the framework works with *any* tree
//! ("while any tree can be used, BVH has been shown to be very efficient
//! for low-dimensional data"). [`SpatialIndex`] captures exactly the
//! three capabilities FDBSCAN needs — batched radius queries with
//! callbacks, early termination, and the index mask — so the one fused
//! main kernel ([`crate::fdbscan_impl::main_fused`]) runs over the BVH
//! (default) or the k-d tree (`fdbscan-kdtree`) and the choice can be
//! measured (the `ablations` bench).

use std::ops::ControlFlow;

use fdbscan_bvh::Bvh;
use fdbscan_device::{Counters, Device, DeviceError};
use fdbscan_geom::{Aabb, Point};
use fdbscan_kdtree::KdTree;

/// Work performed by one radius query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Tree nodes visited.
    pub nodes_visited: u64,
    /// Wide (8-lane) nodes classified; zero for binary trees.
    pub wide_nodes_visited: u64,
    /// 8-wide lane batches spent scanning leaf runs; zero for binary
    /// trees.
    pub wide_leaf_lanes: u64,
    /// Exact point-distance tests performed.
    pub distance_tests: u64,
    /// Callback invocations (points reported within `eps`).
    pub leaf_hits: u64,
}

impl IndexStats {
    /// Charges this query's traversal work (nodes, wide nodes, wide leaf
    /// lanes, distance tests) to `counters`. Reported neighbors are the
    /// caller's to charge: only pair-resolving traversals count them as
    /// `neighbors_found`.
    #[inline]
    pub(crate) fn charge(&self, counters: &Counters) {
        counters.add_nodes_visited(self.nodes_visited);
        counters.add_wide_nodes_visited(self.wide_nodes_visited);
        counters.add_wide_leaf_lanes(self.wide_leaf_lanes);
        counters.add_distances(self.distance_tests);
    }
}

/// A search index over a point set, as required by the FDBSCAN framework.
///
/// Contract: `query_radius` invokes the callback **exactly once per point
/// within `eps` of `center`** whose index position is `>= cutoff`, passing
/// `(index_position, original_id)`. The callback may return `Break` to
/// stop this query.
pub trait SpatialIndex<const D: usize>: Sync {
    /// Number of indexed points.
    fn size(&self) -> usize;

    /// Index position (traversal order) of original point `id`; positions
    /// order the masked traversal's pair deduplication.
    fn position_of(&self, id: u32) -> u32;

    /// Radius query; see the trait-level contract.
    fn query_radius<F>(&self, center: &Point<D>, eps: f32, cutoff: u32, callback: F) -> IndexStats
    where
        F: FnMut(u32, u32) -> ControlFlow<()>;

    /// Approximate device-memory footprint in bytes.
    fn memory_bytes(&self) -> usize;
}

/// Counts the points within `eps` of `center` (the center included when
/// indexed), stopping at `limit` (`usize::MAX` counts the full
/// neighborhood), and charges the traversal to `counters`.
///
/// The one neighbor-count traversal: FDBSCAN's lazy core decision, the
/// `minpts` sweep's full counts and the distributed ranks' core pass.
pub fn count_neighbors<const D: usize, I: SpatialIndex<D>>(
    index: &I,
    counters: &Counters,
    center: &Point<D>,
    eps: f32,
    limit: usize,
) -> usize {
    let mut count = 0usize;
    let stats = index.query_radius(center, eps, 0, |_, _| {
        count += 1;
        if count >= limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    stats.charge(counters);
    count
}

/// A point-only BVH (leaves are degenerate boxes), so every leaf-bounds
/// hit is an exact within-eps point.
impl<const D: usize> SpatialIndex<D> for Bvh<D> {
    fn size(&self) -> usize {
        self.len()
    }

    fn position_of(&self, id: u32) -> u32 {
        self.leaf_pos_of(id)
    }

    fn query_radius<F>(&self, center: &Point<D>, eps: f32, cutoff: u32, callback: F) -> IndexStats
    where
        F: FnMut(u32, u32) -> ControlFlow<()>,
    {
        let stats = self.for_each_in_radius(center, eps, cutoff, callback);
        IndexStats {
            nodes_visited: stats.nodes_visited,
            wide_nodes_visited: stats.wide_nodes_visited,
            wide_leaf_lanes: stats.wide_leaf_lanes,
            distance_tests: stats.distance_tests(),
            leaf_hits: stats.leaf_hits,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

impl<const D: usize> SpatialIndex<D> for KdTree<D> {
    fn size(&self) -> usize {
        self.len()
    }

    fn position_of(&self, id: u32) -> u32 {
        self.leaf_pos_of(id)
    }

    fn query_radius<F>(
        &self,
        center: &Point<D>,
        eps: f32,
        cutoff: u32,
        mut callback: F,
    ) -> IndexStats
    where
        F: FnMut(u32, u32) -> ControlFlow<()>,
    {
        let mut leaf_hits = 0;
        let stats = self.for_each_in_radius(center, eps, cutoff, |pos, id| {
            leaf_hits += 1;
            callback(pos, id)
        });
        IndexStats {
            nodes_visited: stats.nodes_visited,
            distance_tests: stats.points_tested,
            leaf_hits,
            ..IndexStats::default()
        }
    }

    fn memory_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

/// Builds a point-only BVH index (the paper's default).
///
/// # Errors
/// Propagates [`DeviceError`] from the build's scratch reservations
/// (budget exhaustion or injected faults) and its launches.
pub fn build_bvh_index<const D: usize>(
    device: &Device,
    points: &[Point<D>],
) -> Result<Bvh<D>, DeviceError> {
    let bounds: Vec<Aabb<D>> = points.iter().map(|p| Aabb::from_point(*p)).collect();
    Bvh::build_in(device, device.arena(), &bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_geom::Point2;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Point2::new([rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])).collect()
    }

    fn collect<I: SpatialIndex<2>>(index: &I, center: &Point2, eps: f32, cutoff: u32) -> Vec<u32> {
        let mut out = Vec::new();
        index.query_radius(center, eps, cutoff, |_, id| {
            out.push(id);
            ControlFlow::Continue(())
        });
        out.sort_unstable();
        out
    }

    #[test]
    fn bvh_and_kdtree_agree_through_the_trait() {
        let device = Device::with_defaults();
        let points = random_points(800, 5);
        let bvh = build_bvh_index(&device, &points).unwrap();
        let kd = KdTree::build(&points);
        assert_eq!(SpatialIndex::<2>::size(&bvh), kd.size());
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let center = Point2::new([rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]);
            let eps = rng.gen_range(0.05..2.0);
            assert_eq!(collect(&bvh, &center, eps, 0), collect(&kd, &center, eps, 0));
        }
    }

    #[test]
    fn positions_are_bijective_for_both() {
        let device = Device::with_defaults();
        let points = random_points(300, 7);
        let bvh = build_bvh_index(&device, &points).unwrap();
        let kd = KdTree::build(&points);
        for id in 0..300u32 {
            let _ = SpatialIndex::<2>::position_of(&bvh, id);
            let _ = kd.position_of(id);
        }
        let mut bvh_positions: Vec<u32> =
            (0..300).map(|id| SpatialIndex::<2>::position_of(&bvh, id)).collect();
        bvh_positions.sort_unstable();
        assert!(bvh_positions.iter().enumerate().all(|(i, &p)| p == i as u32));
        let mut kd_positions: Vec<u32> = (0..300).map(|id| kd.position_of(id)).collect();
        kd_positions.sort_unstable();
        assert!(kd_positions.iter().enumerate().all(|(i, &p)| p == i as u32));
    }

    #[test]
    fn stats_are_populated() {
        let device = Device::with_defaults();
        let points = random_points(500, 8);
        let bvh = build_bvh_index(&device, &points).unwrap();
        let stats = bvh.query_radius(&points[0], 1.0, 0, |_, _| ControlFlow::Continue(()));
        assert!(stats.nodes_visited > 0);
        assert!(stats.distance_tests > 0); // at least itself
    }
}
