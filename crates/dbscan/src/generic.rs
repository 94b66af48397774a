//! FDBSCAN over any [`SpatialIndex`].
//!
//! [`fdbscan_on_index`] runs the FDBSCAN pipeline — the same
//! preprocessing, fused main kernel
//! ([`crate::fdbscan_impl::main_fused`]) and finalization as
//! [`crate::fdbscan()`] — over a prebuilt index; only the index phase
//! differs. [`fdbscan_kdtree()`] instantiates it with the k-d tree,
//! realizing the paper's "any tree can be used" remark. Checkpointing
//! stays with the BVH entry points.

use std::time::{Duration, Instant};

use fdbscan_device::{Device, DeviceError};
use fdbscan_geom::Point;
use fdbscan_kdtree::KdTree;

use crate::fdbscan_impl::fdbscan_pipeline;
use crate::framework::Phase;
use crate::index::SpatialIndex;
use crate::labels::Clustering;
use crate::stats::RunStats;
use crate::{FdbscanOptions, Params};

/// Runs the FDBSCAN phases over a prebuilt index.
///
/// `index_time` is folded into the returned stats so callers that build
/// their own index report comparable totals.
pub fn fdbscan_on_index<const D: usize, I: SpatialIndex<D>>(
    device: &Device,
    points: &[Point<D>],
    index: &I,
    params: Params,
    options: FdbscanOptions,
    index_time: Duration,
) -> Result<(Clustering, RunStats), DeviceError> {
    assert_eq!(index.size(), points.len(), "index does not cover the point set");
    fdbscan_pipeline::<D, I, _>(device, "fdbscan-generic", points, params, options, None, |p| {
        let index_mem = device.memory().reserve(index.memory_bytes())?;
        p.untraced(Phase::Index, index_time);
        Ok((index, index_mem))
    })
}

/// FDBSCAN over a k-d tree index.
///
/// The tree is built host-side (median splits do not parallelize the way
/// the Karras construction does — the GPU-unfriendliness the paper
/// alludes to in §4.2); queries still run as batched kernels.
pub fn fdbscan_kdtree<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
) -> Result<(Clustering, RunStats), DeviceError> {
    let build_start = Instant::now();
    let tree = KdTree::build(points);
    let index_time = build_start.elapsed();
    fdbscan_on_index(device, points, &tree, params, FdbscanOptions::default(), index_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_bvh_index;
    use crate::labels::assert_core_equivalent;
    use crate::seq::dbscan_classic;
    use crate::verify::assert_valid_clustering;
    use fdbscan_device::DeviceConfig;
    use fdbscan_geom::Point2;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(DeviceConfig::default().with_workers(2).with_block_size(64))
    }

    fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    #[test]
    fn kdtree_variant_matches_oracle() {
        for (seed, eps, minpts) in [(41u64, 0.3f32, 4usize), (42, 0.5, 2), (43, 0.2, 7)] {
            let points = random_points(400, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = fdbscan_kdtree(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }

    #[test]
    fn generic_over_bvh_equals_specialized_fdbscan() -> Result<(), DeviceError> {
        let points = random_points(600, 4.0, 44);
        let params = Params::new(0.25, 5);
        let d = device();
        let (specialized, _) = crate::fdbscan(&d, &points, params)?;
        let bvh = build_bvh_index(&d, &points)?;
        let (generic, _) =
            fdbscan_on_index(&d, &points, &bvh, params, FdbscanOptions::default(), Duration::ZERO)?;
        assert_core_equivalent(&specialized, &generic);
        Ok(())
    }

    #[test]
    fn kdtree_and_bvh_agree() {
        let points = random_points(800, 6.0, 45);
        let params = Params::new(0.3, 6);
        let d = device();
        let (a, _) = crate::fdbscan(&d, &points, params).unwrap();
        let (b, _) = fdbscan_kdtree(&d, &points, params).unwrap();
        assert_core_equivalent(&a, &b);
    }

    #[test]
    fn kdtree_empty_and_tiny() {
        let d = device();
        let (c, _) = fdbscan_kdtree::<2>(&d, &[], Params::new(1.0, 2)).unwrap();
        assert!(c.is_empty());
        let (c, _) = fdbscan_kdtree(&d, &[Point2::new([0.0, 0.0])], Params::new(1.0, 1)).unwrap();
        assert_eq!(c.num_clusters, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn kdtree_variant_always_matches_oracle(
            seed in any::<u64>(),
            n in 1usize..200,
            eps in 0.05f32..1.5,
            minpts in 1usize..8,
        ) {
            let points = random_points(n, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = fdbscan_kdtree(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
        }
    }
}
