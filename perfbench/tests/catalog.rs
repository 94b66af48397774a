//! The metric catalog, `BENCHMARK.json` and the workloads agree: names
//! are well formed, the file declares exactly the catalog, and every
//! workload emits every metric of the catalog it reports.

use fdbscan_device::json::{parse, Json};
use fdbscan_perfbench::metrics::{valid_name, Better, END_TO_END, PER_LAYER};
use fdbscan_perfbench::workloads::{run, RunConfig, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn metric_names_are_well_formed() {
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(m.name.len() <= 64, "metric name too long: {}", m.name);
    }
    assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
}

#[test]
fn benchmark_json_declares_the_catalog() {
    let doc = benchmark_json();
    for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = doc.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(declared.len(), catalog.len(), "{key}: declared count");
        for (entry, m) in declared.iter().zip(catalog) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name), "{key} order");
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit), "{}: unit", m.name);
            let better = if m.better == Better::Lower { "lower" } else { "higher" };
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(better),
                "{}: better",
                m.name
            );
        }
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_emits_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let config = RunConfig { workload, seed: 3, seconds: 0.05, trace, scale: 0.004 };
            let outcome = run(&config);
            let catalog = if trace { PER_LAYER } else { END_TO_END };
            let names: Vec<&str> = outcome.metrics.iter().map(|(name, _)| *name).collect();
            let expected: Vec<&str> = catalog.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{}: trace {trace}", workload.name());
            for (name, value) in &outcome.metrics {
                assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
            }
            assert!(outcome.attempted > 0);
            assert_eq!(outcome.failed, 0, "{}: {:?}", workload.name(), outcome.notes);
        }
    }
}
