//! Cross-checks the grid verifier against the library's brute-force
//! validator plus core equivalence to the canonical sequential oracle:
//! both must accept every real clustering and reject every corrupted one.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fdbscan::labels::assert_core_equivalent;
use fdbscan::seq::dbscan_canonical;
use fdbscan::verify::assert_valid_clustering;
use fdbscan::{fdbscan, fdbscan_densebox, Clustering, Params, PointClass, NOISE};
use fdbscan_data::{cosmology, Dataset2};
use fdbscan_device::{Device, DeviceConfig};
use fdbscan_geom::Point;
use fdbscan_perfbench::verify::verify;

/// Whether the brute-force validator or the oracle comparison rejects.
fn reference_rejects<const D: usize>(
    points: &[Point<D>],
    clustering: &Clustering,
    oracle: &Clustering,
    params: Params,
) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        assert_valid_clustering(points, clustering, params);
        assert_core_equivalent(clustering, oracle);
    }))
    .is_err()
}

/// Corruptions of a valid clustering, each named for the failure message.
fn corruptions<const D: usize>(
    points: &[Point<D>],
    c: &Clustering,
    eps: f32,
) -> Vec<(&'static str, Clustering)> {
    let mut out = Vec::new();
    let core = |i: usize| c.classes[i] == PointClass::Core;
    if let Some(i) = (0..c.len()).find(|&i| core(i)) {
        let mut bad = c.clone();
        bad.classes[i] = PointClass::Border;
        out.push(("core demoted to border", bad));
    }
    if let Some(i) = (0..c.len()).find(|&i| c.classes[i] == PointClass::Border) {
        let mut bad = c.clone();
        bad.classes[i] = PointClass::Noise;
        bad.assignments[i] = NOISE;
        out.push(("border dropped to noise", bad));
    }
    if let Some(i) = (0..c.len()).find(|&i| c.classes[i] == PointClass::Noise) {
        let mut bad = c.clone();
        bad.classes[i] = PointClass::Core;
        bad.assignments[i] = 0;
        out.push(("noise promoted to core", bad));
    }
    if c.num_clusters >= 2 {
        // Two clusters merged under one id: adjacency still holds, but
        // the merged cluster is two disconnected components.
        let mut bad = c.clone();
        for a in &mut bad.assignments {
            if *a == 1 {
                *a = 0;
            } else if *a > 1 {
                *a -= 1;
            }
        }
        bad.num_clusters -= 1;
        out.push(("two clusters merged", bad));
    }
    // One core point moved to a fresh cluster while adjacent to its old
    // cluster's cores.
    let eps_sq = eps * eps;
    let split = (0..c.len()).find(|&i| {
        core(i)
            && (0..c.len()).any(|j| j != i && core(j) && points[i].dist_sq(&points[j]) <= eps_sq)
    });
    if let Some(i) = split {
        let mut bad = c.clone();
        bad.assignments[i] = c.num_clusters as i64;
        bad.num_clusters += 1;
        out.push(("core split off its cluster", bad));
    }
    out
}

fn cross_check<const D: usize>(name: &str, points: &[Point<D>], params: Params) {
    assert!(points.len() <= 2000, "{name}: keep cross-check inputs small");
    let oracle = dbscan_canonical(points, params);
    let device = Device::new(DeviceConfig::sequential());
    let outputs = [
        ("oracle", oracle.clone()),
        ("fdbscan", fdbscan(&device, points, params).expect("fdbscan").0),
        ("densebox", fdbscan_densebox(&device, points, params).expect("densebox").0),
    ];
    for (algo, clustering) in &outputs {
        assert!(
            !reference_rejects(points, clustering, &oracle, params),
            "{name}/{algo}: reference rejects"
        );
        if let Err(why) = verify(points, clustering, params) {
            panic!("{name}/{algo}: grid verifier rejects a valid clustering: {why}");
        }
        for (what, bad) in corruptions(points, clustering, params.eps) {
            assert!(
                reference_rejects(points, &bad, &oracle, params),
                "{name}/{algo}: reference accepts {what}"
            );
            assert!(
                verify(points, &bad, params).is_err(),
                "{name}/{algo}: grid verifier accepts {what}"
            );
        }
    }
}

#[test]
fn agrees_with_the_reference_on_the_2d_families() {
    for family in Dataset2::ALL {
        let points = family.generate(1500, 3);
        let params = match family {
            Dataset2::RoadNetwork => Params::new(0.08, 10),
            Dataset2::PortoTaxi => Params::new(0.01, 10),
            Dataset2::Ngsim => Params::new(0.005, 20),
        };
        cross_check(family.name(), &points, params);
    }
}

#[test]
fn agrees_with_the_reference_on_cosmology() {
    let points = cosmology::default_snapshot(2000, 5);
    cross_check("cosmology", &points, Params::new(3.0, 5));
}

#[test]
fn agrees_with_the_reference_on_all_duplicates() {
    let points = vec![Point::new([0.25f32, -1.5]); 700];
    cross_check("duplicates", &points, Params::new(0.01, 5));
    // Too few duplicates to be core: everything is noise.
    let few = vec![Point::new([1.0f32, 2.0, 3.0]); 4];
    cross_check("few-duplicates", &few, Params::new(0.5, 5));
}

#[test]
fn rejects_structural_corruption() {
    let points = Dataset2::RoadNetwork.generate(500, 9);
    let params = Params::new(0.08, 10);
    let good = dbscan_canonical(&points, params);
    assert!(verify(&points, &good, params).is_ok());
    let mut short = good.clone();
    short.assignments.pop();
    short.classes.pop();
    assert!(verify(&points, &short, params).is_err());
    let mut empty_cluster = good.clone();
    empty_cluster.num_clusters += 1;
    assert!(verify(&points, &empty_cluster, params).unwrap_err().contains("no core point"));
}
