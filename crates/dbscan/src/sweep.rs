//! Amortized multi-`minpts` sweeps.
//!
//! §3.2 of the paper: early-terminated core counting is the fast path
//! for a single run, but "it may be preferable to compute the full set
//! `|N_eps(x)|`, since that cost will be amortized for multiple minpts
//! values". [`MinptsSweep`] is that mode: it builds the index and the
//! *full* neighbor counts once, then answers any `minpts` with just the
//! fused main kernel ([`crate::fdbscan_impl::main_fused`]) and
//! finalization: the core flags are read off the counts, so the kernel
//! gets every point pre-decided and never counts.
//!
//! This is how practitioners actually tune `minpts` (see the
//! `param_sweep` example), and it is the regime Figs. 4(a)(b)(c) and 6
//! sweep over.

use std::time::{Duration, Instant};

use fdbscan_bvh::Bvh;
use fdbscan_device::shared::SharedMut;
use fdbscan_device::{Device, DeviceError, MemoryReservation};
use fdbscan_geom::Point;
use fdbscan_unionfind::AtomicLabels;

use crate::fdbscan_impl::main_fused;
use crate::framework::{finalize, run_pipeline, CoreFlags, LazyCore, Phase};
use crate::index::{build_bvh_index, count_neighbors};
use crate::labels::Clustering;
use crate::stats::RunStats;
use crate::{FdbscanOptions, Params};

/// Precomputed state for sweeping `minpts` at a fixed `eps`.
pub struct MinptsSweep<'a, const D: usize> {
    device: &'a Device,
    points: &'a [Point<D>],
    eps: f32,
    bvh: Bvh<D>,
    counts: Vec<u32>,
    setup_time: Duration,
    _memory: Vec<MemoryReservation>,
}

impl<'a, const D: usize> MinptsSweep<'a, D> {
    /// Builds the index and the full neighbor counts (one unmasked,
    /// non-terminating traversal per point).
    pub fn new(device: &'a Device, points: &'a [Point<D>], eps: f32) -> Result<Self, DeviceError> {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive and finite");
        crate::validate_finite(points)?;
        let start = Instant::now();
        let n = points.len();
        let mut memory = Vec::new();
        memory.push(device.memory().reserve_array::<Point<D>>(n)?);
        memory.push(device.memory().reserve_array::<u32>(n)?); // counts

        let bvh = build_bvh_index(device, points)?;
        memory.push(device.memory().reserve(bvh.memory_bytes())?);

        let mut counts = vec![0u32; n];
        {
            let counts_view = SharedMut::new(&mut counts);
            let bvh_ref = &bvh;
            let counters = device.counters();
            device.try_launch_named("sweep.full_count", n, |i| {
                let count = count_neighbors(bvh_ref, counters, &points[i], eps, usize::MAX);
                // SAFETY: one writer per index.
                unsafe { counts_view.write(i, count as u32) };
            })?;
        }
        Ok(Self { device, points, eps, bvh, counts, setup_time: start.elapsed(), _memory: memory })
    }

    /// Full `|N_eps(x)|` per point (including the point itself). This is
    /// also the "k-neighbor count" practitioners histogram when picking
    /// `minpts`.
    pub fn neighbor_counts(&self) -> &[u32] {
        &self.counts
    }

    /// The fixed search radius of this sweep.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// One-time setup cost (index build + full counting).
    pub fn setup_time(&self) -> Duration {
        self.setup_time
    }

    /// Clusters with the precomputed counts for one `minpts` value.
    /// Only the main phase and finalization run.
    pub fn run(&self, minpts: usize) -> Result<(Clustering, RunStats), DeviceError> {
        self.run_with(minpts, FdbscanOptions::default())
    }

    /// [`MinptsSweep::run`] with explicit options (e.g. DBSCAN*).
    pub fn run_with(
        &self,
        minpts: usize,
        options: FdbscanOptions,
    ) -> Result<(Clustering, RunStats), DeviceError> {
        assert!(minpts >= 1, "minpts must be at least 1");
        let device = self.device;
        let n = self.points.len();
        run_pipeline(device, "fdbscan-sweep", self.points, None, |p| {
            let _labels_mem = device.memory().reserve_array::<u32>(n)?;
            let labels = AtomicLabels::with_counters(n, device.counters_arc());

            // Definitive core flags straight from the precomputed counts —
            // the amortized replacement for core counting. Every point is
            // decided, so the fused kernel never runs a counting traversal.
            let (core, lazy) = p.phase(Phase::Preprocess, |_| {
                let flags: Vec<bool> = self.counts.iter().map(|&c| c as usize >= minpts).collect();
                Ok((CoreFlags::from_flags(&flags), LazyCore::from_decided(&flags)))
            })?;

            p.phase(Phase::Main, |_| {
                let params = Params::new(self.eps, minpts);
                main_fused(device, self.points, &self.bvh, params, options, &labels, &core, &lazy)
            })?;

            p.phase(Phase::Finalize, |_| Ok(finalize(device, &labels, &core)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::assert_core_equivalent;
    use crate::seq::dbscan_classic;
    use fdbscan_device::DeviceConfig;
    use fdbscan_geom::Point2;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(DeviceConfig::default().with_workers(2))
    }

    fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    #[test]
    fn sweep_matches_fdbscan_at_every_minpts() {
        // Both paths run the same fused kernel over the same BVH with the
        // same definitive core flags, so on the in-order engine they
        // resolve the same pairs in the same order: bit-identical.
        let d = Device::new(DeviceConfig::sequential());
        let points = random_points(500, 4.0, 61);
        let eps = 0.3;
        let sweep = MinptsSweep::new(&d, &points, eps).unwrap();
        for minpts in [1usize, 2, 3, 5, 10, 50] {
            let (from_sweep, _) = sweep.run(minpts).unwrap();
            let (direct, _) = crate::fdbscan(&d, &points, Params::new(eps, minpts)).unwrap();
            assert_eq!(direct, from_sweep, "minpts {minpts}");
        }
    }

    #[test]
    fn sweep_matches_oracle() {
        let d = device();
        let points = random_points(300, 5.0, 62);
        let eps = 0.4;
        let sweep = MinptsSweep::new(&d, &points, eps).unwrap();
        for minpts in [2usize, 4, 8] {
            let oracle = dbscan_classic(&points, Params::new(eps, minpts));
            let (got, _) = sweep.run(minpts).unwrap();
            assert_core_equivalent(&oracle, &got);
        }
    }

    #[test]
    fn neighbor_counts_are_exact() {
        let d = device();
        let points = random_points(200, 3.0, 63);
        let eps = 0.5;
        let sweep = MinptsSweep::new(&d, &points, eps).unwrap();
        let eps_sq = eps * eps;
        for (i, &count) in sweep.neighbor_counts().iter().enumerate() {
            let expected = points.iter().filter(|p| p.dist_sq(&points[i]) <= eps_sq).count() as u32;
            assert_eq!(count, expected, "count mismatch at point {i}");
        }
    }

    #[test]
    fn sweep_amortizes_counting_work() {
        // Per-minpts runs after setup must not perform any preprocessing
        // traversal: their distance counts stay at main-phase level,
        // independent of minpts.
        let d = device();
        let points = random_points(800, 2.0, 64);
        let sweep = MinptsSweep::new(&d, &points, 0.2).unwrap();
        let (_, stats_small) = sweep.run(3).unwrap();
        let (_, stats_large) = sweep.run(100).unwrap();
        // Same main-phase work regardless of minpts.
        assert_eq!(
            stats_small.counters.distance_computations,
            stats_large.counters.distance_computations
        );
    }

    #[test]
    fn sweep_star_variant() {
        let d = device();
        let points = random_points(300, 4.0, 65);
        let eps = 0.35;
        let sweep = MinptsSweep::new(&d, &points, eps).unwrap();
        let options = FdbscanOptions { star: true, ..Default::default() };
        let (star_sweep, _) = sweep.run_with(6, options).unwrap();
        let (star_direct, _) = crate::fdbscan_star(&d, &points, Params::new(eps, 6)).unwrap();
        assert_core_equivalent(&star_direct, &star_sweep);
        assert_eq!(star_sweep.num_border(), 0);
    }

    #[test]
    fn empty_sweep() {
        let d = device();
        let sweep = MinptsSweep::<2>::new(&d, &[], 1.0).unwrap();
        let (c, _) = sweep.run(3).unwrap();
        assert!(c.is_empty());
    }
}
