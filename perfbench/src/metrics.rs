//! The benchmark's metric catalog and the statistics it reports.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a
//! test keeps the two in step. Every workload emits every metric, so a
//! name means one thing on each workload (see `perfbench/README.md` for
//! the per-workload definitions and the layer → end-to-end predictions).

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are improvements.
    Lower,
    /// Larger values are improvements.
    Higher,
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    def("cluster_s", "s", Lower),
    def("peak_bytes_per_point", "B", Lower),
    def("rps", "1/s", Higher),
    def("latency_p50_ms", "ms", Lower),
    def("latency_p99_ms", "ms", Lower),
    def("setup_s", "s", Lower),
];

/// Metrics of single layers; reported by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    def("dbscan.index_s", "s", Lower),
    def("dbscan.main_s", "s", Lower),
    def("dbscan.finalize_s", "s", Lower),
    def("dbscan.main_ns_per_node_visit", "ns", Lower),
    def("dbscan.distance_tests", "count", Lower),
    def("dbscan.nodes_visited", "count", Lower),
    def("dbscan.unions", "count", Lower),
    def("dbscan.finds", "count", Lower),
    def("dbscan.kernel_launches", "count", Lower),
    def("geom.morton_s", "s", Lower),
    def("psort.sort_s", "s", Lower),
    def("psort.ns_per_key", "ns", Lower),
    def("bvh.build_s", "s", Lower),
    def("bvh.query_s", "s", Lower),
    def("bvh.nodes_visited", "count", Lower),
    def("bvh.ns_per_node_visit", "ns", Lower),
    def("bvh.hit_ratio", "ratio", Higher),
    def("bvh.bytes_per_point", "B", Lower),
    def("grid.build_s", "s", Lower),
    def("grid.dense_fraction", "ratio", Higher),
    def("grid.dense_cells", "count", Higher),
    def("grid.bytes_per_point", "B", Lower),
    def("unionfind.union_s", "s", Lower),
    def("unionfind.ns_per_union", "ns", Lower),
    def("unionfind.merge_ratio", "ratio", Higher),
    def("unionfind.flatten_s", "s", Lower),
    def("geom.ns_per_distance", "ns", Lower),
    def("device.workers", "count", Higher),
    def("device.speedup_vs_sequential", "ratio", Higher),
    def("device.launch_us", "us", Lower),
    def("device.arena_recycled_ratio", "ratio", Higher),
    def("service.queue_wait_ms", "ms", Lower),
    def("service.run_ms", "ms", Lower),
    def("service.overhead_ms", "ms", Lower),
    def("service.attempts_per_request", "count", Lower),
    def("service.gdbscan_share", "ratio", Lower),
    def("service.launches_per_request", "count", Lower),
    def("service.distance_tests_per_request", "count", Lower),
    def("trace.overhead", "ratio", Lower),
];

/// The catalog a run reports: per-layer when traced, end-to-end otherwise.
pub fn catalog(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Whether `name` is a valid metric name (`[A-Za-z0-9_.-]+`).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `values` (the
/// method of `numpy.quantile`'s default). `NaN` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; `0` when `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.99) - 3.97).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }
}
