//! Device-memory behaviour (paper §5.1, Fig. 4(h)): G-DBSCAN's adjacency
//! graph scales with edges and runs out of memory; the two-phase
//! framework's memory stays linear in n and survives the same budget.

use fdbscan::baselines::gdbscan;
use fdbscan::{fdbscan, fdbscan_densebox, kdist_curve, MinptsSweep, Params};
use fdbscan_data::Dataset2;
use fdbscan_device::{Device, DeviceConfig, DeviceError};

/// A deliberately small "device" (scaled-down V100) for OOM testing.
fn budgeted(bytes: usize) -> Device {
    Device::new(DeviceConfig::default().with_workers(2).with_memory_budget(bytes))
}

#[test]
fn gdbscan_ooms_on_dense_data_where_tree_algorithms_survive() {
    // Porto-like data at a radius that creates huge neighborhoods: the
    // adjacency graph explodes quadratically in the dense center.
    let points = Dataset2::PortoTaxi.generate(4000, 1);
    let params = Params::new(0.05, 20);
    let budget = 4 << 20; // 4 MiB
    let device = budgeted(budget);

    let err = gdbscan(&device, &points, params).unwrap_err();
    assert!(matches!(err, DeviceError::OutOfMemory { .. }), "expected OOM, got {err:?}");

    let (a, stats_a) = fdbscan(&device, &points, params).unwrap();
    let (b, stats_b) = fdbscan_densebox(&device, &points, params).unwrap();
    assert!(a.num_clusters > 0);
    assert!(b.num_clusters > 0);
    assert!(stats_a.peak_memory_bytes <= budget);
    assert!(stats_b.peak_memory_bytes <= budget);
}

#[test]
fn tree_algorithm_memory_scales_linearly() {
    // Doubling n must roughly double peak memory for FDBSCAN — not
    // quadruple it (quadratic would be the G-DBSCAN failure mode).
    let device = Device::new(DeviceConfig::default().with_workers(2));
    let params = Params::new(0.05, 10);
    let small = Dataset2::PortoTaxi.generate(2000, 2);
    let large = Dataset2::PortoTaxi.generate(8000, 2);
    let (_, stats_small) = fdbscan(&device, &small, params).unwrap();
    let (_, stats_large) = fdbscan(&device, &large, params).unwrap();
    let ratio = stats_large.peak_memory_bytes as f64 / stats_small.peak_memory_bytes as f64;
    assert!((3.0..6.0).contains(&ratio), "4x points should mean ~4x memory, got {ratio:.2}x");
}

#[test]
fn gdbscan_memory_scales_with_neighborhood_size() {
    // With n fixed, growing eps grows G-DBSCAN's graph but not the tree
    // algorithms' memory (the paper's explanation for Fig. 4(f)).
    let device = Device::new(DeviceConfig::default().with_workers(2));
    let points = Dataset2::PortoTaxi.generate(2000, 3);
    let (_, g_small) = gdbscan(&device, &points, Params::new(0.005, 10)).unwrap();
    let (_, g_large) = gdbscan(&device, &points, Params::new(0.08, 10)).unwrap();
    assert!(
        g_large.peak_memory_bytes > 2 * g_small.peak_memory_bytes,
        "graph memory must grow with eps: {} vs {}",
        g_large.peak_memory_bytes,
        g_small.peak_memory_bytes
    );

    let (_, f_small) = fdbscan(&device, &points, Params::new(0.005, 10)).unwrap();
    let (_, f_large) = fdbscan(&device, &points, Params::new(0.08, 10)).unwrap();
    let ratio = f_large.peak_memory_bytes as f64 / f_small.peak_memory_bytes.max(1) as f64;
    assert!(ratio < 1.2, "tree-algorithm memory must be insensitive to eps, got {ratio:.2}x");
}

#[test]
fn oom_error_reports_accounting() {
    let device = budgeted(1024);
    let points = Dataset2::Ngsim.generate(1000, 4);
    match fdbscan(&device, &points, Params::new(0.01, 5)) {
        Err(DeviceError::OutOfMemory { requested, budget, .. }) => {
            assert!(requested > 0);
            assert_eq!(budget, 1024);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

#[test]
fn failed_run_releases_all_memory() {
    // After an OOM the reservations must be rolled back so the device
    // remains usable.
    let device = budgeted(6 << 20);
    let points = Dataset2::PortoTaxi.generate(4000, 5);
    let _ = gdbscan(&device, &points, Params::new(0.05, 20)).unwrap_err();
    assert_eq!(device.memory().in_use(), 0, "leaked reservations after OOM");
    // And a tree algorithm still fits.
    let (c, _) = fdbscan(&device, &points, Params::new(0.05, 20)).unwrap();
    assert!(c.num_clusters > 0);
}

#[test]
fn bvh_index_helpers_report_oom_instead_of_panicking() {
    // 4000 2-D points: the budget holds the points (32 000 B) and the
    // sweep's neighbor counts (16 000 B) but not the BVH build scratch
    // on top, so both helpers must fail with a typed error.
    let points = Dataset2::Ngsim.generate(4000, 6);
    let device = budgeted(56_000);
    match MinptsSweep::new(&device, &points, 0.01) {
        Err(DeviceError::OutOfMemory { budget, .. }) => assert_eq!(budget, 56_000),
        Err(other) => panic!("sweep setup: expected OOM, got {other:?}"),
        Ok(_) => panic!("sweep setup fit a budget too small for its BVH"),
    }
    assert_eq!(device.memory().in_use(), 0, "sweep setup leaked reservations");
    match kdist_curve(&device, &points, 5, 256) {
        Err(DeviceError::OutOfMemory { budget, .. }) => assert_eq!(budget, 56_000),
        other => panic!("k-dist curve: expected OOM, got {other:?}"),
    }
    assert_eq!(device.memory().in_use(), 0, "k-dist curve leaked reservations");
}
