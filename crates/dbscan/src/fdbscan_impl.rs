//! FDBSCAN: fused tree traversal + union-find (paper §4.1).
//!
//! Phases (each a batched device kernel, no host round-trips between
//! them):
//!
//! 1. **index** — build a linear BVH over the points,
//! 2. **main** — one kernel, [`main_fused`], fusing core determination
//!    with pair resolution. Each thread first decides its own point's
//!    core status via [`LazyCore`] (an early-terminating counting
//!    traversal, run exactly once per point no matter how many pairs
//!    touch it), then runs the *index-masked* traversal (cutoff = its own
//!    sorted-leaf position + 1, Fig. 1) so each close pair is discovered
//!    exactly once, resolving it per Algorithm 3 (union for core–core,
//!    CAS border claim otherwise) after lazily deciding the partner's
//!    core status. `minpts <= 2` needs no counting at all (Algorithm 3
//!    line 2): with `minpts == 2` any matched pair proves both endpoints
//!    core, and with `minpts == 1` every point is core.
//! 3. **finalization** — flatten the union-find and relabel.
//!
//! The separate preprocessing kernel of the unfused formulation is gone —
//! one traversal launch instead of two — but the `preprocess` phase span
//! is still emitted (empty) so traces and phase counters keep their
//! shape; its counters are zero and the counting work is attributed to
//! the main phase where it now happens.
//!
//! [`main_fused`] is generic over [`SpatialIndex`] and is the only main
//! kernel of Algorithm 3 outside FDBSCAN-DenseBox: the k-d tree path
//! ([`crate::fdbscan_kdtree()`]) runs the same pipeline over another
//! index, while the `minpts` sweep ([`crate::sweep`]) and the
//! distributed ranks (`fdbscan-dist`) hand it a [`LazyCore`] whose
//! points are all decided already, so it never counts.

use std::borrow::Borrow;
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;

use fdbscan_bvh::Bvh;
use fdbscan_device::{Device, DeviceError, MemoryReservation, PipelineCheckpoint};
use fdbscan_geom::Point;
use fdbscan_unionfind::AtomicLabels;

use crate::checkpoint::{self, LabelState, PHASE_MAIN};
use crate::framework::{
    finalize, resolve_pair, resolve_pair_star, resumed_labels, run_pipeline, seed_lazy_core,
    CoreFlags, LazyCore, Phase, Pipeline,
};
use crate::index::{build_bvh_index, count_neighbors, SpatialIndex};
use crate::labels::Clustering;
use crate::stats::RunStats;
use crate::Params;

/// Checkpoint algorithm tag of [`fdbscan`] runs.
pub const FDBSCAN_ALGORITHM: &str = "fdbscan";

/// Ablation switches for [`fdbscan_with`] — each disables one of the
/// paper's traversal optimizations so its contribution can be measured
/// (the `ablations` bench).
#[derive(Clone, Copy, Debug)]
pub struct FdbscanOptions {
    /// §4.1's index-masked traversal: process each close pair once. When
    /// disabled, the main phase runs unmasked traversals (each pair seen
    /// from both endpoints) and relies on the idempotence of the
    /// resolution rule.
    pub masked_traversal: bool,
    /// §3.2's early-terminated core counting: stop at `minpts`. When
    /// disabled, preprocessing counts the full neighborhood (the paper
    /// notes this is preferable only when sweeping several `minpts`
    /// values over one dataset).
    pub early_termination: bool,
    /// DBSCAN* semantics (see [`crate::star`]): drop border claims, so
    /// every non-core point is noise.
    pub star: bool,
}

impl Default for FdbscanOptions {
    fn default() -> Self {
        Self { masked_traversal: true, early_termination: true, star: false }
    }
}

/// Runs FDBSCAN over `points`.
///
/// Fails only if the device memory budget cannot hold the search index
/// and label arrays (both linear in `n` — the memory guarantee of the
/// two-phase framework, §3.2).
pub fn fdbscan<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
) -> Result<(Clustering, RunStats), DeviceError> {
    fdbscan_with(device, points, params, FdbscanOptions::default())
}

/// [`fdbscan`] with explicit ablation options.
pub fn fdbscan_with<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    options: FdbscanOptions,
) -> Result<(Clustering, RunStats), DeviceError> {
    fdbscan_core(device, points, params, options, None)
}

/// [`fdbscan_with`], resuming from (and recording into) a checkpoint.
///
/// Phases already recorded in `ckpt` are restored instead of
/// re-executed; each phase that does run records its output into `ckpt`
/// the moment it completes, so on a kernel fault the caller's
/// checkpoint retains every phase finished before the fault. A
/// checkpoint whose algorithm or input fingerprint does not match this
/// run is reset to empty first.
pub fn fdbscan_run_from<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    options: FdbscanOptions,
    ckpt: &mut PipelineCheckpoint,
) -> Result<(Clustering, RunStats), DeviceError> {
    checkpoint::prepare(ckpt, FDBSCAN_ALGORITHM, points, params);
    fdbscan_core(device, points, params, options, Some(ckpt))
}

fn fdbscan_core<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    options: FdbscanOptions,
    ckpt: Option<&mut PipelineCheckpoint>,
) -> Result<(Clustering, RunStats), DeviceError> {
    fdbscan_pipeline::<D, Bvh<D>, _>(device, "fdbscan", points, params, options, ckpt, |p| {
        p.phase(Phase::Index, |p| {
            let bvh = p.resume(Phase::Index, |_| build_bvh_index(device, points))?;
            let bvh_mem = device.memory().reserve(bvh.memory_bytes())?;
            Ok((bvh, bvh_mem))
        })
    })
}

/// The FDBSCAN pipeline over any index, under the run span `label`:
/// `index_phase` builds the index (or accounts for a prebuilt one) and
/// returns it with its memory reservation; preprocessing, the fused main
/// kernel and finalization are the same for every index.
pub(crate) fn fdbscan_pipeline<const D: usize, I, R>(
    device: &Device,
    label: &'static str,
    points: &[Point<D>],
    params: Params,
    options: FdbscanOptions,
    ckpt: Option<&mut PipelineCheckpoint>,
    index_phase: impl FnOnce(&mut Pipeline<'_>) -> Result<(R, MemoryReservation), DeviceError>,
) -> Result<(Clustering, RunStats), DeviceError>
where
    I: SpatialIndex<D>,
    R: Borrow<I>,
{
    let n = points.len();
    run_pipeline(device, label, points, ckpt, |p| {
        // Device-resident data: the points themselves + label + flag arrays.
        let _points_mem = device.memory().reserve_array::<Point<D>>(n)?;
        let _labels_mem = device.memory().reserve_array::<u32>(n)?;
        let _flags_mem = device.memory().reserve(n.div_ceil(8))?;

        // Phase 1: search index.
        let (index, _index_mem) = index_phase(p)?;
        let index = index.borrow();

        // A completed main phase supersedes preprocessing: its label state
        // carries the (possibly lazily extended) core flags as well.
        let restored_main = p.peek::<LabelState>(Phase::Main);

        // Phase 2: preprocessing. Core counting is fused into the main
        // kernel, so nothing launches here; the phase only seeds the fused
        // kernel's lazy core state from restored checkpoints (a salvaged
        // core-flag snapshot from the resilient ladder, or a completed main
        // phase) and keeps the trace/phase-counter shape stable.
        let (core, lazy) =
            p.phase(Phase::Preprocess, |p| Ok(seed_lazy_core(p, restored_main.as_ref(), n)))?;

        // Phase 3: main (core counting + masked traversal fused with
        // union-find, one launch).
        let labels = p.phase(Phase::Main, |p| {
            if let Some(state) = restored_main {
                p.restored(Phase::Main);
                return Ok(resumed_labels(device, state.labels));
            }
            let labels = AtomicLabels::with_counters(n, device.counters_arc());
            main_fused(device, points, index, params, options, &labels, &core, &lazy)?;
            p.record(PHASE_MAIN, || LabelState { labels: labels.snapshot(), core: core.to_vec() });
            Ok(labels)
        })?;

        // Phase 4: finalization.
        p.phase(Phase::Finalize, |p| {
            p.resume(Phase::Finalize, |_| Ok(finalize(device, &labels, &core)))
        })
    })
}

/// The main kernel of Algorithm 3 over any index (`fdbscan.main_fused`):
/// one masked (or unmasked) radius query per point, fused with the core
/// decision and the union-find resolution of each discovered pair.
///
/// Core status comes from `lazy`: a point nobody has decided yet is
/// counted on first demand (early-terminated at `minpts` unless
/// `options.early_termination` is off), exactly once per point. Callers
/// with definitive flags (the `minpts` sweep, the distributed ranks)
/// pass [`LazyCore::from_decided`] with the same flags in `core`, so
/// the kernel never counts. With `minpts == 2` any matched pair proves
/// both endpoints core, so no decision is consulted at all.
#[allow(clippy::too_many_arguments)]
pub fn main_fused<const D: usize, I: SpatialIndex<D>>(
    device: &Device,
    points: &[Point<D>],
    index: &I,
    params: Params,
    options: FdbscanOptions,
    labels: &AtomicLabels,
    core: &CoreFlags,
    lazy: &LazyCore,
) -> Result<(), DeviceError> {
    let n = points.len();
    let Params { eps, minpts } = params;
    let counters = device.counters();
    let masked = options.masked_traversal;
    let limit = if options.early_termination { minpts } else { usize::MAX };
    // Decides a point's core status on first demand (exactly once per
    // point, whichever thread asks first).
    let ensure_core = |p: u32| -> bool {
        lazy.ensure(core, p, || match minpts {
            0 => unreachable!("Params::new validates minpts >= 1"),
            // Every point is trivially core (its neighborhood contains
            // itself).
            1 => true,
            2 => unreachable!("minpts == 2 marks cores inline, never lazily"),
            _ => count_neighbors(index, counters, &points[p as usize], eps, limit) >= minpts,
        })
    };
    device.try_launch_named("fdbscan.main_fused", n, |i| {
        let i = i as u32;
        if minpts != 2 {
            ensure_core(i);
        }
        let cutoff = if masked { index.position_of(i) + 1 } else { 0 };
        let stats = index.query_radius(&points[i as usize], eps, cutoff, |_, j| {
            if !masked && j == i {
                return ControlFlow::Continue(());
            }
            if minpts == 2 {
                // Any matched pair proves both endpoints core.
                core.set(i);
                core.set(j);
                labels.union(i, j);
            } else {
                ensure_core(j);
                if options.star {
                    resolve_pair_star(labels, core, i, j);
                } else {
                    resolve_pair(labels, core, i, j);
                }
            }
            ControlFlow::Continue(())
        });
        stats.charge(counters);
        counters.neighbors_found.fetch_add(stats.leaf_hits, Ordering::Relaxed);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{assert_core_equivalent, PointClass, NOISE};
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
    fn repeated_runs_recycle_index_scratch() {
        // After the first run has populated the arena pools, further
        // runs on the same device reserve only the per-run buffers the
        // algorithm hands back to the caller or frees on exit (points,
        // labels, core flags, BVH nodes); all index-phase scratch —
        // morton codes, sort passes, build atomics — is recycled.
        let device = device();
        let points = random_points(3000, 5.0, 77);
        let params = Params::new(0.2, 4);
        let mut fresh_per_run = Vec::new();
        for _ in 0..3 {
            let before = device.memory().reservations_made();
            fdbscan(&device, &points, params).unwrap();
            fresh_per_run.push(device.memory().reservations_made() - before);
        }
        assert!(
            fresh_per_run[0] > fresh_per_run[1],
            "first run should pay for arena scratch the rest reuse: {fresh_per_run:?}"
        );
        assert_eq!(fresh_per_run[1], fresh_per_run[2], "warm runs must be steady-state");
        assert!(
            fresh_per_run[1] <= 4,
            "warm run reserved {} buffers; index scratch is leaking from the arena",
            fresh_per_run[1]
        );
    }

    #[test]
    fn empty_input() {
        let (c, _) = fdbscan::<2>(&device(), &[], Params::new(1.0, 3)).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.num_clusters, 0);
    }

    #[test]
    fn single_point_is_noise_unless_minpts_1() {
        let points = [Point2::new([1.0, 1.0])];
        let (c, _) = fdbscan(&device(), &points, Params::new(1.0, 2)).unwrap();
        assert_eq!(c.assignments, vec![NOISE]);
        let (c, _) = fdbscan(&device(), &points, Params::new(1.0, 1)).unwrap();
        assert_eq!(c.assignments, vec![0]);
        assert_eq!(c.classes[0], PointClass::Core);
    }

    #[test]
    fn two_blobs_and_outlier() {
        let mut points = Vec::new();
        for i in 0..12 {
            points.push(Point2::new([0.05 * (i % 4) as f32, 0.05 * (i / 4) as f32]));
            points.push(Point2::new([3.0 + 0.05 * (i % 4) as f32, 0.05 * (i / 4) as f32]));
        }
        points.push(Point2::new([50.0, 50.0]));
        let params = Params::new(0.2, 4);
        let (c, stats) = fdbscan(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.num_noise(), 1);
        assert_valid_clustering(&points, &c, params);
        assert!(stats.counters.unions > 0);
        assert!(stats.peak_memory_bytes > 0);
    }

    #[test]
    fn matches_oracle_on_random_data() {
        for (seed, eps, minpts) in
            [(1u64, 0.3f32, 4usize), (2, 0.5, 3), (3, 0.2, 6), (4, 1.0, 10), (5, 0.15, 2)]
        {
            let points = random_points(400, 6.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = fdbscan(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }

    #[test]
    fn minpts_2_is_connected_components() {
        let points: Vec<Point2> = (0..30).map(|i| Point2::new([i as f32 * 0.9, 0.0])).collect();
        let params = Params::new(1.0, 2);
        let (c, _) = fdbscan(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 1);
        assert!(c.classes.iter().all(|cl| *cl == PointClass::Core));
        assert_valid_clustering(&points, &c, params);
    }

    #[test]
    fn fused_main_adds_no_preprocessing_launches() {
        // Core counting rides inside the main kernel, so every minpts
        // value launches the same kernels: index-build + main + flatten.
        let d = device();
        let points = random_points(200, 3.0, 9);
        let (_, stats1) = fdbscan(&d, &points, Params::new(0.3, 1)).unwrap();
        let (_, stats2) = fdbscan(&d, &points, Params::new(0.3, 2)).unwrap();
        let (_, stats3) = fdbscan(&d, &points, Params::new(0.3, 3)).unwrap();
        assert_eq!(stats3.counters.kernel_launches, stats2.counters.kernel_launches);
        assert_eq!(stats3.counters.kernel_launches, stats1.counters.kernel_launches);
        assert_eq!(
            stats3.phase_counters.preprocess.kernel_launches, 0,
            "preprocess phase must launch nothing"
        );
        assert!(
            stats3.phase_counters.main.distance_computations > 0,
            "fused core counting charges the main phase"
        );
    }

    #[test]
    fn all_duplicates() {
        let points = vec![Point2::new([2.0, 2.0]); 64];
        let params = Params::new(0.5, 10);
        let (c, _) = fdbscan(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.num_core(), 64);
        assert_valid_clustering(&points, &c, params);
    }

    #[test]
    fn minpts_exceeding_n_yields_all_noise() {
        let points = random_points(20, 1.0, 7);
        let (c, _) = fdbscan(&device(), &points, Params::new(0.5, 100)).unwrap();
        assert_eq!(c.num_clusters, 0);
        assert_eq!(c.num_noise(), 20);
    }

    #[test]
    fn oom_when_budget_too_small() {
        let tiny = Device::new(DeviceConfig::default().with_memory_budget(64));
        let points = random_points(1000, 5.0, 3);
        let err = fdbscan(&tiny, &points, Params::new(0.3, 4)).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfMemory { .. }));
    }

    #[test]
    fn deterministic_clustering_across_runs() {
        // Cluster *membership* must be identical across runs even though
        // internal union order varies with thread scheduling.
        let points = random_points(600, 5.0, 12);
        let params = Params::new(0.25, 4);
        let (first, _) = fdbscan(&device(), &points, params).unwrap();
        for _ in 0..3 {
            let (again, _) = fdbscan(&device(), &points, params).unwrap();
            assert_core_equivalent(&first, &again);
        }
    }

    #[test]
    fn sequential_device_gives_same_result() {
        let points = random_points(300, 4.0, 15);
        let params = Params::new(0.3, 5);
        let seq_device = Device::new(DeviceConfig::sequential());
        let (a, _) = fdbscan(&seq_device, &points, params).unwrap();
        let (b, _) = fdbscan(&device(), &points, params).unwrap();
        assert_core_equivalent(&a, &b);
    }

    #[test]
    fn ablation_variants_match_default() {
        let points = random_points(500, 5.0, 33);
        let params = Params::new(0.3, 6);
        let d = device();
        let (reference, ref_stats) = fdbscan(&d, &points, params).unwrap();
        for (masked, early) in [(false, true), (true, false), (false, false)] {
            let options = FdbscanOptions {
                masked_traversal: masked,
                early_termination: early,
                ..Default::default()
            };
            let (c, stats) = fdbscan_with(&d, &points, params, options).unwrap();
            assert_core_equivalent(&reference, &c);
            if !masked {
                // Unmasked traversal must do strictly more distance work.
                assert!(
                    stats.counters.distance_computations > ref_stats.counters.distance_computations,
                    "mask ablation should increase work"
                );
            }
        }
    }

    #[test]
    fn early_termination_reduces_core_counting_work() {
        // Dense data with |N| >> minpts: the counting traversal stopping
        // at minpts must save a lot of node visits and distance tests.
        // (Spread-out random points rather than pure duplicates: the
        // containment fast path answers a duplicate pile with zero
        // distance tests in both variants, which would hide the effect.)
        let points = random_points(2000, 4.0, 31);
        let params = Params::new(1.0, 4);
        let d = device();
        let (_, with_et) = fdbscan(&d, &points, params).unwrap();
        let (_, without_et) = fdbscan_with(
            &d,
            &points,
            params,
            FdbscanOptions {
                masked_traversal: true,
                early_termination: false,
                ..Default::default()
            },
        )
        .unwrap();
        // Both runs share the index build and the masked pair traversal;
        // the counting difference (stop after 4 hits vs. enumerate the
        // full ~390-point neighborhood) must still show clearly in the
        // totals.
        let work = |s: &RunStats| s.counters.bvh_nodes_visited + s.counters.distance_computations;
        assert!(
            work(&with_et) * 5 < work(&without_et) * 4,
            "early termination must cut core-counting work ({} vs {})",
            work(&with_et),
            work(&without_et)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn fdbscan_always_matches_oracle(
            seed in any::<u64>(),
            n in 1usize..250,
            eps in 0.05f32..1.5,
            minpts in 1usize..10,
        ) {
            let points = random_points(n, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = fdbscan(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }
}
