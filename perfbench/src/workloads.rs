//! The three workloads, their timed loops and their traced runs.
//!
//! Inputs are generated from the seed before anything is timed. Every
//! clustering a run produces, warm-ups included, goes through the grid
//! verifier outside the timed interval; a rejected output or an error
//! counts as failed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fdbscan::{
    fdbscan, fdbscan_densebox, run_resilient, Clustering, LadderLevel, Params, PointClass,
    ResiliencePolicy, RunStats,
};
use fdbscan_bvh::Bvh;
use fdbscan_data::{cosmology, Dataset2};
use fdbscan_device::json::Json;
use fdbscan_device::{Device, DeviceConfig, DeviceError};
use fdbscan_geom::morton::morton_codes_soa;
use fdbscan_geom::{simd, Aabb, Point, SoaPoints};
use fdbscan_grid::DenseGrid;
use fdbscan_psort::sort_pairs;
use fdbscan_service::{ClusterRequest, ClusterResponse, ClusterService, ServiceConfig};
use fdbscan_unionfind::AtomicLabels;

use crate::metrics::{catalog, mean, median, quantile};
use crate::trace::{self_times, Recorder, SpanId};
use crate::verify::{verify_on, EpsGrid};

/// Environment variables that silently change the measured code path.
/// A run refuses to start while any of them is set.
pub const GUARDED_ENV: [&str; 6] = [
    "FDBSCAN_BACKEND",
    "FDBSCAN_BVH_WIDTH",
    "FDBSCAN_POOL_CHUNK",
    "FDBSCAN_TRACE",
    "FDBSCAN_METRICS_DUMP",
    "FDBSCAN_CKPT_DIR",
];

/// Points of the cosmology snapshot at scale 1.
pub const COSMO_POINTS: usize = 500_000;
/// Points of the taxi trajectories at scale 1.
pub const TAXI_POINTS: usize = 1_000_000;
/// Closed-loop clients of the service workload.
pub const SERVICE_CLIENTS: usize = 2;
/// Seeded instances of each service input shape at scale 1.
pub const SERVICE_INSTANCES: usize = 32;
/// Set-ups per untraced batch run; `setup_s` is their median.
const BATCH_SETUPS: usize = 5;
/// Set-ups per untraced service run, four per seeded instance.
const SERVICE_SETUPS: usize = 4 * SERVICE_INSTANCES;
/// Windows of the service's client loop; set-ups run between them.
const LOOP_WINDOWS: usize = 16;
/// Input shapes of the service workload; a set-up sends one of each.
const SERVICE_SHAPES: usize = 9;
/// Requests a traced batch run sends through the service.
const SERVICE_PROBES: usize = 2;
/// Spans opened per round when pricing one span.
const SPAN_CALIBRATION: usize = 20_000;
/// Clustering calls a batch run makes at least, however long they take.
const MIN_CALLS: usize = 3;
/// Empty launches timed for `device.launch_us`.
const EMPTY_LAUNCHES: usize = 500;
/// Distance tests timed for `geom.ns_per_distance`.
const DISTANCE_SAMPLE: usize = 1 << 26;
/// Core–core edges replayed through the union-find, and the chunk size.
const REPLAY_EDGES: usize = 1 << 25;
const REPLAY_CHUNK: usize = 1 << 18;
/// Repetitions of each cheap layer call in a traced run.
const LAYER_REPS: usize = 3;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// FDBSCAN on a 3-D cosmology snapshot: traversal-bound.
    Cosmo3d,
    /// FDBSCAN-DenseBox on 2-D taxi trajectories: grid and union-find
    /// bound.
    Taxi2d,
    /// A closed loop of small requests through `ClusterService`.
    Service,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Cosmo3d, Workload::Taxi2d, Workload::Service];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cosmo3d => "cosmo3d-fdbscan",
            Workload::Taxi2d => "taxi2d-densebox",
            Workload::Service => "service-small2d",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time: clustering time for batch workloads, wall time of
    /// the client loop for the service.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input-size multiplier; 1 for the benchmark, smaller in tests.
    pub scale: f64,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (clustering calls or requests).
    pub attempted: u64,
    /// Operations that failed, were shed, or were rejected by the verifier.
    pub failed: u64,
    /// Every metric of the run's catalog, in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Seed, hardware, device and environment the run measured.
    pub provenance: Json,
    /// Recorded spans (traced runs only).
    pub spans: Option<Json>,
    /// Human-readable notes: sample counts and failures.
    pub notes: Vec<String>,
}

/// Runs one workload.
pub fn run(config: &RunConfig) -> Outcome {
    let rec = Recorder::new(config.trace, config.workload.name());
    let mut run =
        Run { config: *config, rec: &rec, tally: Tally::default(), metrics: BTreeMap::new() };
    let inputs = match config.workload {
        Workload::Cosmo3d => {
            let n = scaled(COSMO_POINTS, config.scale);
            let points = cosmology::default_snapshot(n, config.seed);
            let params = Params::new(cosmo_eps(n), 5);
            run.batch(Algo::Fdbscan, &points, params);
            describe("cosmology::default_snapshot", n, params)
        }
        Workload::Taxi2d => {
            let n = scaled(TAXI_POINTS, config.scale);
            let points = Dataset2::PortoTaxi.generate(n, config.seed);
            let params = Params::new(0.002, 50);
            run.batch(Algo::DenseBox, &points, params);
            describe("Dataset2::PortoTaxi", n, params)
        }
        Workload::Service => {
            let instances = ((SERVICE_INSTANCES as f64 * config.scale).round() as usize).max(1);
            let inputs = service_inputs(config.seed, instances);
            run.service(&inputs);
            Json::Arr(
                inputs
                    .iter()
                    .map(|(p, params, family)| describe(family, p.len(), *params))
                    .collect(),
            )
        }
    };
    let Run { tally, metrics, .. } = run;
    let metrics = catalog(config.trace)
        .iter()
        .map(|m| {
            (
                m.name,
                *metrics.get(m.name).unwrap_or_else(|| panic!("metric {} not measured", m.name)),
            )
        })
        .collect();
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        provenance: provenance(config, inputs),
        spans: config.trace.then(|| rec.to_json()),
        notes: tally.notes,
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(64)
}

/// The cosmology radius rule: the paper's 0.042 at 36.9 M particles,
/// scaled to keep the expected neighbour count fixed.
pub fn cosmo_eps(n: usize) -> f32 {
    0.042 * (36.9e6 / n as f64).cbrt() as f32
}

/// The service's inputs: `instances` seeded instances of each of nine
/// shapes (three 2-D families × three sizes), shapes interleaved so
/// consecutive requests cycle through them.
pub fn service_inputs(seed: u64, instances: usize) -> Vec<(Vec<Point<2>>, Params, &'static str)> {
    let families = [
        (Dataset2::RoadNetwork, Params::new(0.08, 10)),
        (Dataset2::PortoTaxi, Params::new(0.01, 10)),
        (Dataset2::Ngsim, Params::new(0.005, 20)),
    ];
    let mut inputs = Vec::new();
    for _ in 0..instances {
        for (family, params) in families {
            for n in [300, 600, 1200] {
                let input_seed = seed.wrapping_mul(1 << 20).wrapping_add(inputs.len() as u64);
                inputs.push((family.generate(n, input_seed), params, family.name()));
            }
        }
    }
    inputs
}

fn describe(generator: &str, n: usize, params: Params) -> Json {
    Json::obj([
        ("generator", Json::str(generator)),
        ("points", Json::U64(n as u64)),
        ("eps", Json::f32(params.eps)),
        ("minpts", Json::U64(params.minpts as u64)),
    ])
}

fn provenance(config: &RunConfig, inputs: Json) -> Json {
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let device = Device::new(DeviceConfig::default());
    let env = GUARDED_ENV
        .iter()
        .map(|&name| {
            let value =
                std::env::var_os(name).map_or(Json::Null, |v| Json::str(v.to_string_lossy()));
            (name.to_string(), value)
        })
        .collect();
    Json::obj([
        ("workload", Json::str(config.workload.name())),
        ("seed", Json::U64(config.seed)),
        ("seconds", Json::F64(config.seconds)),
        ("trace", Json::Bool(config.trace)),
        ("hardware_threads", Json::U64(hardware_threads as u64)),
        ("backend", Json::str(device.backend().name())),
        ("backend_spec", Json::str(format!("{:?}", device.backend()))),
        ("device_workers", Json::U64(device.workers() as u64)),
        ("env", Json::Obj(env)),
        ("inputs", inputs),
    ])
}

/// Attempt and failure counts; failures include verifier rejections.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; verifies its clustering when it produced one.
    fn check<const D: usize, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<&Clustering, E>,
        grid: &EpsGrid<D>,
        minpts: usize,
    ) -> bool {
        self.attempted += 1;
        let problem = match result {
            Err(err) => format!("{what} failed: {err}"),
            Ok(clustering) => match verify_on(grid, clustering, minpts) {
                Ok(_) => return true,
                Err(why) => format!("{what} rejected by the verifier: {why}"),
            },
        };
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(problem);
        }
        false
    }
}

#[derive(Clone, Copy)]
enum Algo {
    Fdbscan,
    DenseBox,
}

impl Algo {
    fn call<const D: usize>(
        self,
        device: &Device,
        points: &[Point<D>],
        params: Params,
    ) -> Result<(Clustering, RunStats), DeviceError> {
        match self {
            Algo::Fdbscan => fdbscan(device, points, params),
            Algo::DenseBox => fdbscan_densebox(device, points, params),
        }
    }

    fn span(self) -> &'static str {
        match self {
            Algo::Fdbscan => "dbscan.fdbscan",
            Algo::DenseBox => "dbscan.fdbscan_densebox",
        }
    }

    /// The resilience-ladder rung that runs this algorithm.
    fn rung(self) -> LadderLevel {
        match self {
            Algo::Fdbscan => LadderLevel::Fdbscan,
            Algo::DenseBox => LadderLevel::DenseBox,
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Nanoseconds per unit of work; 0 when there was no work.
fn per_unit_ns(seconds: f64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        seconds * 1e9 / units as f64
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

struct Run<'r> {
    config: RunConfig,
    rec: &'r Recorder,
    tally: Tally,
    metrics: BTreeMap<&'static str, f64>,
}

impl Run<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn batch<const D: usize>(&mut self, algo: Algo, points: &[Point<D>], params: Params) {
        let rec = self.rec;
        let grid = EpsGrid::new(points, params.eps);
        let n = points.len() as f64;

        // Set-up: device construction through the discarded warm-up call.
        // The first set-up's device serves the timed calls; the others are
        // spread over the timed loop, so that their median sees the machine
        // over the same stretch of time as the calls do.
        let setups = if self.config.trace { 1 } else { BATCH_SETUPS };
        let (mut setup, mut fresh_peak) = (Vec::new(), Vec::new());
        let mut set_up = |run: &mut Self| {
            let started = Instant::now();
            let fresh = Device::new(DeviceConfig::default());
            let warm = algo.call(&fresh, points, params);
            setup.push(secs(started.elapsed()));
            if run.tally.check("warm-up call", warm.as_ref().map(|r| &r.0), &grid, params.minpts) {
                // A fresh device holds no pooled buffers from earlier calls.
                let peak = warm.as_ref().map_or(0, |r| r.1.peak_memory_bytes);
                fresh_peak.push(peak as f64 / n);
            }
            fresh
        };
        let device = set_up(self);

        // Timed calls, each inside one span in a traced run.
        let root = rec.span("workload.batch", None);
        let (mut walls, mut stats) = (Vec::new(), Vec::new());
        let mut last = None;
        let mut measured = 0.0;
        let min_calls = if self.config.trace { 2 } else { MIN_CALLS };
        let mut calls = 0;
        let mut done = 1;
        while calls < min_calls || measured < self.config.seconds {
            let share = (measured / self.config.seconds).min(1.0);
            while done < 1 + (share * (setups - 1) as f64) as usize {
                drop(set_up(self));
                done += 1;
            }
            calls += 1;
            let span = rec.span(algo.span(), root.id());
            let started = Instant::now();
            let result = black_box(algo.call(&device, black_box(points), params));
            let wall = secs(started.elapsed());
            drop(span);
            measured += wall;
            if self.tally.check(
                "clustering call",
                result.as_ref().map(|r| &r.0),
                &grid,
                params.minpts,
            ) {
                let (clustering, run_stats) = result.expect("checked above");
                walls.push(wall);
                stats.push(run_stats);
                last = Some(clustering);
            }
        }
        drop(root);
        while done < setups {
            drop(set_up(self));
            done += 1;
        }
        let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        self.tally.notes.push(format!(
            "{} timed calls, seconds: {}",
            walls.len(),
            listed.join(" ")
        ));
        if walls.is_empty() {
            // Every call failed; the failure count already says so.
            walls.push(f64::NAN);
        }

        if !self.config.trace {
            // A run reports every end-to-end metric. On a batch workload
            // `rps` and the latencies are the same timed calls as
            // `cluster_s`, not separate measurements.
            self.tally
                .notes
                .push("rps, latency_p50_ms and latency_p99_ms restate the cluster_s calls".into());
            let total: f64 = walls.iter().sum();
            self.set("cluster_s", median(&walls));
            self.set("peak_bytes_per_point", median(&fresh_peak));
            self.set("rps", walls.len() as f64 / total);
            self.set("latency_p50_ms", median(&walls) * 1e3);
            self.set("latency_p99_ms", quantile(&walls, 0.99) * 1e3);
            self.set("setup_s", median(&setup));
            return;
        }

        self.dbscan_layer(&stats);
        // One span per call plus the enclosing one.
        self.trace_overhead(calls + 1, walls.iter().sum());

        // The workload's input as requests through the service on the
        // same device, the ladder starting at the workload's own rung
        // (G-DBSCAN's edge lists would not fit at this size).
        let layers = rec.span("workload.layers", None);
        let service =
            ClusterService::new(device.clone(), ServiceConfig::default().with_metrics(true));
        let mut responses = Vec::new();
        for _ in 0..SERVICE_PROBES {
            let policy = ResiliencePolicy { start: algo.rung(), ..ResiliencePolicy::default() };
            let request = ClusterRequest::new(points.to_vec(), params).with_policy(policy);
            let result = rec.time("service.execute", layers.id(), || service.execute(request));
            let result = result.map_err(|e| e.to_string());
            if self.tally.check(
                "service request",
                result.as_ref().map(|r| &r.clustering),
                &grid,
                params.minpts,
            ) {
                responses.push(result.expect("checked above"));
            }
        }
        self.service_layer(&responses.iter().collect::<Vec<_>>());

        // One warm call on the sequential engine against the default device.
        let sequential = Device::new(DeviceConfig::sequential());
        let warm = algo.call(&sequential, points, params);
        self.tally.check(
            "sequential warm-up call",
            warm.as_ref().map(|r| &r.0),
            &grid,
            params.minpts,
        );
        let span = rec.span("dbscan.sequential_call", layers.id());
        let started = Instant::now();
        let result = algo.call(&sequential, points, params);
        let sequential_s = secs(started.elapsed());
        drop(span);
        self.tally.check("sequential call", result.as_ref().map(|r| &r.0), &grid, params.minpts);
        self.set("device.speedup_vs_sequential", sequential_s / median(&walls));

        let core = last.map(|c| core_flags(&c)).unwrap_or_else(|| vec![false; points.len()]);
        let input = LayerInput { points, params, grid: &grid, core };
        self.device_layer(&device, layers.id());
        self.replay_layers(&device, layers.id(), &[input]);
    }

    fn service(&mut self, inputs: &[(Vec<Point<2>>, Params, &'static str)]) {
        let rec = self.rec;
        let grids: Vec<EpsGrid<2>> =
            inputs.iter().map(|(p, params, _)| EpsGrid::new(p, params.eps)).collect();

        // The first set-up's service serves the client loop. The loop runs
        // in windows with the other set-ups between them, so that their
        // median sees the machine over the same stretch of time as the
        // loop's own figures do.
        let setups = if self.config.trace { 1 } else { SERVICE_SETUPS };
        let mut peak = Vec::new();
        let (seconds, service) = self.service_setup(inputs, &grids, 0, &mut peak);
        let mut setup = vec![seconds];
        let mut replies = Vec::new();
        let mut elapsed = 0.0;
        for window in 1..=LOOP_WINDOWS {
            let (batch, window_s) = closed_loop(
                &service,
                inputs,
                replies.len(),
                self.config.seconds / LOOP_WINDOWS as f64,
                self.config.trace.then_some(rec),
            );
            replies.extend(batch);
            elapsed += window_s;
            while setup.len() < 1 + (setups - 1) * window / LOOP_WINDOWS {
                setup.push(self.service_setup(inputs, &grids, setup.len(), &mut peak).0);
            }
        }
        let completed = replies.iter().filter(|r| r.result.is_ok()).count();
        // One span per request plus one per client and window.
        let spans = replies.len() + SERVICE_CLIENTS * LOOP_WINDOWS;
        let mut busy = 0.0;
        let mut latency = Vec::new();
        let mut responses = Vec::new();
        for reply in replies {
            busy += secs(reply.latency);
            let params = inputs[reply.input].1;
            let result = reply.result.map_err(|e| e.to_string());
            if self.tally.check(
                "request",
                result.as_ref().map(|r| &r.clustering),
                &grids[reply.input],
                params.minpts,
            ) {
                latency.push(secs(reply.latency) * 1e3);
                responses.push((reply.input, result.expect("checked above")));
            }
        }
        self.tally.notes.push(format!("{} latency samples", latency.len()));
        if latency.is_empty() {
            latency.push(f64::NAN);
        }

        if !self.config.trace {
            let run_s: Vec<f64> = responses.iter().map(|(_, r)| secs(r.stats.total_time)).collect();
            self.set("cluster_s", median(&run_s));
            self.set("peak_bytes_per_point", median(&peak));
            self.set("rps", completed as f64 / elapsed);
            self.set("latency_p50_ms", median(&latency));
            self.set("latency_p99_ms", quantile(&latency, 0.99));
            self.set("setup_s", median(&setup));
            return;
        }

        self.trace_overhead(spans, busy);
        self.service_layer(&responses.iter().map(|(_, r)| r).collect::<Vec<_>>());

        // The service's winning rung builds no tree, so `dbscan.*` comes
        // from direct FDBSCAN calls on the same inputs.
        let layers = rec.span("workload.layers", None);
        let mut direct = Vec::new();
        for ((points, params, _), grid) in inputs.iter().zip(&grids) {
            let result = rec
                .time("dbscan.fdbscan", layers.id(), || fdbscan(service.device(), points, *params));
            if self.tally.check("direct call", result.as_ref().map(|r| &r.0), grid, params.minpts) {
                direct.push(result.expect("checked above").1);
            }
        }
        self.dbscan_layer(&direct);

        // The inputs through the ladder on the sequential engine against
        // the service's default device, alternating.
        let sequential = Device::new(DeviceConfig::sequential());
        let mut speedups = Vec::new();
        for rep in 0..=LAYER_REPS {
            let mut times = [0.0; 2];
            for (k, device) in [&sequential, service.device()].into_iter().enumerate() {
                let span = (rep > 0).then(|| rec.span("service.ladder_pass", layers.id()));
                let started = Instant::now();
                for ((points, params, _), grid) in inputs.iter().zip(&grids) {
                    let result =
                        run_resilient(device, points, *params, ResiliencePolicy::default());
                    self.tally.check(
                        "ladder call",
                        result.as_ref().map(|r| &r.0),
                        grid,
                        params.minpts,
                    );
                }
                times[k] = secs(started.elapsed());
                drop(span);
            }
            // Pass 0 warms the sequential device's arena.
            if rep > 0 {
                speedups.push(times[0] / times[1]);
            }
        }
        self.set("device.speedup_vs_sequential", median(&speedups));

        let mut layer_inputs = Vec::new();
        for (k, ((points, params, _), grid)) in inputs.iter().zip(&grids).enumerate() {
            let core = responses
                .iter()
                .find(|(input, _)| *input == k)
                .map(|(_, r)| core_flags(&r.clustering))
                .unwrap_or_else(|| vec![false; points.len()]);
            layer_inputs.push(LayerInput { points, params: *params, grid, core });
        }
        self.device_layer(service.device(), layers.id());
        self.replay_layers(service.device(), layers.id(), &layer_inputs);
    }

    /// One set-up of the service workload: device and service
    /// construction through one discarded request per input shape, set-up
    /// `k` on instance `k` (cycling). Returns its time and the service, and
    /// adds each request's peak bytes per point to `peak`: the requests run
    /// one at a time, so no other request's buffers are in that peak.
    fn service_setup(
        &mut self,
        inputs: &[(Vec<Point<2>>, Params, &'static str)],
        grids: &[EpsGrid<2>],
        k: usize,
        peak: &mut Vec<f64>,
    ) -> (f64, ClusterService) {
        let first = k % inputs.len().div_ceil(SERVICE_SHAPES) * SERVICE_SHAPES;
        let shapes = first..(first + SERVICE_SHAPES).min(inputs.len());
        let started = Instant::now();
        let service = ClusterService::new(
            Device::new(DeviceConfig::default()),
            ServiceConfig::default().with_metrics(true),
        );
        let warm: Vec<_> = inputs[shapes.clone()]
            .iter()
            .map(|(points, params, _)| {
                service.execute(ClusterRequest::new(points.clone(), *params))
            })
            .collect();
        let seconds = secs(started.elapsed());
        for (i, result) in shapes.zip(&warm) {
            if self.tally.check(
                "warm-up request",
                result.as_ref().map(|r| &r.clustering),
                &grids[i],
                inputs[i].1.minpts,
            ) {
                let bytes = result.as_ref().map_or(0, |r| r.stats.peak_memory_bytes);
                peak.push(bytes as f64 / inputs[i].0.len() as f64);
            }
        }
        (seconds, service)
    }

    /// `service.*` from the service's responses: queue wait as p99,
    /// run and overhead times as medians, the rest as means per request.
    fn service_layer(&mut self, responses: &[&ClusterResponse]) {
        let ms = |d: Duration| secs(d) * 1e3;
        let queue: Vec<f64> = responses.iter().map(|r| ms(r.queue_wait)).collect();
        let run_ms: Vec<f64> = responses.iter().map(|r| ms(r.stats.total_time)).collect();
        let overhead: Vec<f64> = responses
            .iter()
            .map(|r| ms(r.total) - ms(r.stats.total_time) - ms(r.queue_wait))
            .collect();
        let attempts: Vec<f64> = responses.iter().map(|r| r.stats.attempts as f64).collect();
        let gdbscan =
            responses.iter().filter(|r| r.report.completed == Some(LadderLevel::GDbscan)).count();
        let stats: Vec<RunStats> = responses.iter().map(|r| r.stats.clone()).collect();
        self.set("service.queue_wait_ms", quantile(&queue, 0.99));
        self.set("service.run_ms", median(&run_ms));
        self.set("service.overhead_ms", median(&overhead));
        self.set("service.attempts_per_request", mean(&attempts));
        self.set("service.gdbscan_share", ratio(gdbscan as u64, responses.len() as u64));
        self.set("service.launches_per_request", mean_of(&stats, |s| s.counters.kernel_launches));
        self.set(
            "service.distance_tests_per_request",
            mean_of(&stats, |s| s.counters.distance_computations),
        );
    }

    /// `trace.overhead`: what recording `spans` spans cost, at the
    /// calibrated price of one span, as a share of the `busy` seconds the
    /// traced operations took.
    fn trace_overhead(&mut self, spans: usize, busy: f64) {
        self.set("trace.overhead", span_cost_s() * spans as f64 / busy);
    }

    /// `dbscan.*` from the returned `RunStats`: phase times as medians
    /// over calls, work counters as means per call.
    fn dbscan_layer(&mut self, stats: &[RunStats]) {
        self.set("dbscan.distance_tests", mean_of(stats, |s| s.counters.distance_computations));
        self.set("dbscan.nodes_visited", mean_of(stats, |s| s.counters.bvh_nodes_visited));
        self.set("dbscan.unions", mean_of(stats, |s| s.counters.unions));
        self.set("dbscan.finds", mean_of(stats, |s| s.counters.finds));
        self.set("dbscan.kernel_launches", mean_of(stats, |s| s.counters.kernel_launches));
        let phase = |f: fn(&RunStats) -> Duration| {
            median(&stats.iter().map(|s| secs(f(s))).collect::<Vec<_>>())
        };
        self.set("dbscan.index_s", phase(|s| s.index_time));
        self.set("dbscan.main_s", phase(|s| s.main_time));
        self.set("dbscan.finalize_s", phase(|s| s.finalize_time));
        let per_visit: Vec<f64> = stats
            .iter()
            .map(|s| per_unit_ns(secs(s.main_time), s.phase_counters.main.bvh_nodes_visited))
            .collect();
        self.set("dbscan.main_ns_per_node_visit", median(&per_visit));
    }

    /// `device.*`: worker count, empty-launch cost, arena reuse.
    fn device_layer(&mut self, device: &Device, parent: Option<SpanId>) {
        let rec = self.rec;
        self.set("device.workers", device.workers() as f64);
        for _ in 0..EMPTY_LAUNCHES {
            let _span = rec.span("device.launch", parent);
            device.launch_named("perfbench.empty", 1, |i| {
                black_box(i);
            });
        }
        let launch = median(&self_times(&rec.spans()).remove("device.launch").unwrap_or_default());
        self.set("device.launch_us", launch * 1e6);
        let arena = device.arena().stats();
        self.set(
            "device.arena_recycled_ratio",
            ratio(arena.recycled_takes, arena.fresh_takes + arena.recycled_takes),
        );
    }

    /// Calls each layer's public functions on the workload's inputs and
    /// reduces the spans to per-layer self time.
    fn replay_layers<const D: usize>(
        &mut self,
        device: &Device,
        parent: Option<SpanId>,
        inputs: &[LayerInput<'_, D>],
    ) {
        let rec = self.rec;
        let mut work = LayerWork::default();
        for input in inputs {
            let points = input.points;
            let n = points.len();
            let soa = SoaPoints::from_points(points);
            let scene = Aabb::from_points(points);
            let bounds: Vec<Aabb<D>> = points.iter().map(|p| Aabb::from_point(*p)).collect();
            let mut codes = vec![0u64; n];
            work.points += n as u64;
            for rep in 0..LAYER_REPS {
                rec.time("geom.morton", parent, || {
                    morton_codes_soa(&soa, &scene, 0..n, &mut codes)
                });
                let (mut keys, mut values) = (codes.clone(), (0..n as u32).collect::<Vec<_>>());
                rec.time("psort.sort", parent, || sort_pairs(device, &mut keys, &mut values));
                black_box((keys, values));
                let grid = rec.time("grid.build", parent, || {
                    DenseGrid::build(device, points, input.params.eps, input.params.minpts)
                });
                if rep == 0 {
                    work.dense_points += grid.points_in_dense_cells() as u64;
                    work.dense_cells += grid.num_dense_cells() as u64;
                    work.grid_bytes += grid.memory_bytes() as u64;
                }
            }
            let mut bvh = None;
            for _ in 0..LAYER_REPS {
                bvh = Some(rec.time("bvh.build", parent, || Bvh::build(device, &bounds)));
            }
            let bvh = bvh.expect("at least one build");
            work.bvh_bytes += bvh.memory_bytes() as u64;

            // One radius query per point, counting neighbours and
            // stopping at minpts like the core test.
            let span = rec.span("bvh.query", parent);
            for p in points {
                let mut found = 0usize;
                let q = bvh.for_each_in_radius(p, input.params.eps, 0, |_, _| {
                    found += 1;
                    if found >= input.params.minpts {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                work.bvh_nodes += q.nodes_visited;
                work.bvh_hits += q.leaf_hits;
            }
            drop(span);

            // The verifier's core–core edges through the union-find.
            let labels = AtomicLabels::new(n);
            input.grid.for_each_core_edge_chunk(&input.core, REPLAY_CHUNK, REPLAY_EDGES, |edges| {
                let _span = rec.span("unionfind.union", parent);
                work.unions += edges.len() as u64;
                work.merges += edges.iter().filter(|&&(a, b)| labels.union(a, b)).count() as u64;
            });
            rec.time("unionfind.flatten", parent, || labels.flatten(device));

            // Distance kernel on a fixed query sample.
            let queries = DISTANCE_SAMPLE.div_ceil(n * inputs.len()).clamp(1, n);
            let span = rec.span("geom.count_within", parent);
            let eps_sq = input.params.eps * input.params.eps;
            for q in 0..queries {
                black_box(simd::count_within(&soa, &points[q * n / queries], eps_sq));
            }
            drop(span);
            work.distances += (queries * n) as u64;
        }

        let times = self_times(&rec.spans());
        let total = |name: &str| times.get(name).map_or(0.0, |t| t.iter().sum::<f64>());
        let per_rep = |name: &str| total(name) / LAYER_REPS as f64;
        let points = work.points;
        self.set("geom.morton_s", per_rep("geom.morton"));
        self.set("psort.sort_s", per_rep("psort.sort"));
        self.set("psort.ns_per_key", per_unit_ns(per_rep("psort.sort"), points));
        self.set("bvh.build_s", per_rep("bvh.build"));
        self.set("bvh.query_s", total("bvh.query"));
        self.set("bvh.nodes_visited", work.bvh_nodes as f64);
        self.set("bvh.ns_per_node_visit", per_unit_ns(total("bvh.query"), work.bvh_nodes));
        self.set("bvh.hit_ratio", ratio(work.bvh_hits, work.bvh_nodes));
        self.set("bvh.bytes_per_point", ratio(work.bvh_bytes, points));
        self.set("grid.build_s", per_rep("grid.build"));
        self.set("grid.dense_fraction", ratio(work.dense_points, points));
        self.set("grid.dense_cells", work.dense_cells as f64);
        self.set("grid.bytes_per_point", ratio(work.grid_bytes, points));
        self.set("unionfind.union_s", total("unionfind.union"));
        self.set("unionfind.ns_per_union", per_unit_ns(total("unionfind.union"), work.unions));
        self.set("unionfind.merge_ratio", ratio(work.merges, work.unions));
        self.set("unionfind.flatten_s", total("unionfind.flatten"));
        self.set("geom.ns_per_distance", per_unit_ns(total("geom.count_within"), work.distances));
    }
}

/// One input of the layer replay, with its verified core flags.
struct LayerInput<'a, const D: usize> {
    points: &'a [Point<D>],
    params: Params,
    grid: &'a EpsGrid<D>,
    core: Vec<bool>,
}

#[derive(Default)]
struct LayerWork {
    points: u64,
    bvh_nodes: u64,
    bvh_hits: u64,
    bvh_bytes: u64,
    dense_points: u64,
    dense_cells: u64,
    grid_bytes: u64,
    unions: u64,
    merges: u64,
    distances: u64,
}

/// Mean of one work counter per call.
fn mean_of(stats: &[RunStats], counter: fn(&RunStats) -> u64) -> f64 {
    mean(&stats.iter().map(|s| counter(s) as f64).collect::<Vec<_>>())
}

/// Seconds to open and close one span on a recorder that is on: the
/// median over five rounds.
fn span_cost_s() -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let rec = Recorder::new(true, "calibration");
            let started = Instant::now();
            for _ in 0..SPAN_CALIBRATION {
                drop(black_box(rec.span("calibration", None)));
            }
            secs(started.elapsed()) / SPAN_CALIBRATION as f64
        })
        .collect();
    median(&rounds)
}

fn core_flags(clustering: &Clustering) -> Vec<bool> {
    clustering.classes.iter().map(|&c| c == PointClass::Core).collect()
}

struct Reply {
    input: usize,
    latency: Duration,
    result: Result<fdbscan_service::ClusterResponse, fdbscan_service::ServiceError>,
}

/// Runs the closed loop for `seconds`: each client sends its next request
/// only after the previous reply, the requests cycling through the inputs
/// from input `first` on. Returns the replies and the time from the
/// common start to the last reply.
fn closed_loop(
    service: &ClusterService,
    inputs: &[(Vec<Point<2>>, Params, &'static str)],
    first: usize,
    seconds: f64,
    rec: Option<&Recorder>,
) -> (Vec<Reply>, f64) {
    let barrier = Barrier::new(SERVICE_CLIENTS);
    let window = Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Reply>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVICE_CLIENTS)
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let client_span = rec.map(|r| r.span("service.client", None));
                    let mut replies = Vec::new();
                    let mut k = first + client;
                    while start.elapsed() < window {
                        let input = k % inputs.len();
                        k += SERVICE_CLIENTS;
                        let (points, params, _) = &inputs[input];
                        let request = ClusterRequest::new(points.clone(), *params);
                        let mut span = rec.map(|r| {
                            r.span("service.execute", client_span.as_ref().and_then(|s| s.id()))
                        });
                        let started = Instant::now();
                        let result = service.execute(request);
                        let latency = started.elapsed();
                        if let (Some(span), Ok(response)) = (span.as_mut(), &result) {
                            span.set_request_id(response.request_id);
                        }
                        drop(span);
                        replies.push(Reply { input, latency, result });
                    }
                    drop(client_span);
                    (replies, start)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let end = Instant::now();
    let start = per_client.iter().map(|(_, s)| *s).min().unwrap_or(end);
    let replies = per_client.into_iter().flat_map(|(r, _)| r).collect();
    (replies, secs(end - start))
}
