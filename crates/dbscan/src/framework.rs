//! Shared pieces of the parallel disjoint-set framework (paper §3.2).
//!
//! Both tree-based algorithms — and any future instantiation of
//! Algorithm 3 — share three ingredients: a concurrent core-point flag
//! array, the per-pair resolution rule (union vs. atomic border claim),
//! and the finalization step (flatten + relabel).
//!
//! Every clustering driver (FDBSCAN, FDBSCAN-DenseBox, the generic
//! index path, the `minpts` sweep and both baselines) also runs through
//! one phase driver, `run_pipeline`: it is the single place a phase is
//! traced, timed, counted and checkpointed, so the drivers keep only
//! their kernels and their checkpoint artifacts.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use fdbscan_device::json::Json;
use fdbscan_device::{Checkpointable, CountersSnapshot, Device, DeviceError, PipelineCheckpoint};
use fdbscan_geom::Point;
use fdbscan_unionfind::AtomicLabels;

use crate::checkpoint::{
    self, CoreSnapshot, LabelState, PHASE_FINALIZE, PHASE_INDEX, PHASE_MAIN, PHASE_PREPROCESS,
};
use crate::labels::Clustering;
use crate::stats::{DenseStats, RunStats};

/// The four phases of Algorithm 3. A phase's span label and its
/// checkpoint entry share one name.
#[derive(Clone, Copy)]
pub(crate) enum Phase {
    /// Search-index construction.
    Index,
    /// Core determination.
    Preprocess,
    /// Core clustering.
    Main,
    /// Flatten + relabel / border attachment.
    Finalize,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Index => PHASE_INDEX,
            Phase::Preprocess => PHASE_PREPROCESS,
            Phase::Main => PHASE_MAIN,
            Phase::Finalize => PHASE_FINALIZE,
        }
    }

    fn restore_instant(self) -> &'static str {
        match self {
            Phase::Index => "checkpoint.restore: index",
            Phase::Preprocess => "checkpoint.restore: preprocess",
            Phase::Main => "checkpoint.restore: main",
            Phase::Finalize => "checkpoint.restore: finalize",
        }
    }
}

/// Runs one clustering pipeline under the run span `label`.
///
/// Validates the input, resets the memory high-water mark and returns
/// an empty clustering for an empty input without opening any span.
/// Otherwise `body` runs the algorithm's phases through
/// [`Pipeline::phase`]; the returned [`RunStats`] carries their times
/// and counter deltas, leaving phases the algorithm never ran at their
/// defaults. Reservations made before the first phase are charged to
/// it. `ckpt` (already [`checkpoint::prepare`]d) makes the phases
/// resumable.
pub(crate) fn run_pipeline<const D: usize>(
    device: &Device,
    label: &'static str,
    points: &[Point<D>],
    ckpt: Option<&mut PipelineCheckpoint>,
    body: impl FnOnce(&mut Pipeline<'_>) -> Result<Clustering, DeviceError>,
) -> Result<(Clustering, RunStats), DeviceError> {
    crate::validate_finite(points)?;
    let start = Instant::now();
    let before = device.counters().snapshot();
    device.memory().reset_peak();
    if points.is_empty() {
        let stats = RunStats { total_time: start.elapsed(), ..Default::default() };
        return Ok((Clustering::from_union_find(&[], &[]), stats));
    }
    let _run_span = device.tracer().phase(label);
    let mut pipeline = Pipeline { device, ckpt, last: before, stats: RunStats::default() };
    let clustering = body(&mut pipeline)?;
    let mut stats = pipeline.stats;
    stats.total_time += start.elapsed();
    stats.counters = pipeline.last.since(&before);
    stats.peak_memory_bytes = device.memory().peak();
    Ok((clustering, stats))
}

/// The state of one [`run_pipeline`] run, handed to its body.
pub(crate) struct Pipeline<'a> {
    device: &'a Device,
    ckpt: Option<&'a mut PipelineCheckpoint>,
    /// Counters at the last phase boundary.
    last: CountersSnapshot,
    stats: RunStats,
}

impl Pipeline<'_> {
    /// Runs `body` as `phase`: inside its span, timed, with the counter
    /// delta since the previous boundary charged to it.
    pub(crate) fn phase<T>(
        &mut self,
        phase: Phase,
        body: impl FnOnce(&mut Self) -> Result<T, DeviceError>,
    ) -> Result<T, DeviceError> {
        let start = Instant::now();
        let span = self.device.tracer().phase(phase.name());
        let out = body(self)?;
        drop(span);
        *self.time(phase) += start.elapsed();
        self.close(phase);
        Ok(out)
    }

    /// Closes `phase` without a span: it is charged the counter delta
    /// since the previous boundary and `elapsed`, time spent before the
    /// run (a caller-built index).
    pub(crate) fn untraced(&mut self, phase: Phase, elapsed: Duration) {
        self.close(phase);
        self.credit(phase, elapsed);
    }

    /// Adds `elapsed`, spent on `phase` before the run started (a
    /// prebuilt grid), to that phase's time and to the run's total.
    pub(crate) fn credit(&mut self, phase: Phase, elapsed: Duration) {
        *self.time(phase) += elapsed;
        self.stats.total_time += elapsed;
    }

    /// Sets the dense-grid statistics of the run.
    pub(crate) fn dense(&mut self, dense: DenseStats) {
        self.stats.dense = Some(dense);
    }

    /// Charges `phase` the counter delta since the previous boundary.
    fn close(&mut self, phase: Phase) {
        let now = self.device.counters().snapshot();
        let counters = &mut self.stats.phase_counters;
        let slot = match phase {
            Phase::Index => &mut counters.index,
            Phase::Preprocess => &mut counters.preprocess,
            Phase::Main => &mut counters.main,
            Phase::Finalize => &mut counters.finalize,
        };
        *slot = now.since(&self.last);
        self.last = now;
    }

    fn time(&mut self, phase: Phase) -> &mut Duration {
        match phase {
            Phase::Index => &mut self.stats.index_time,
            Phase::Preprocess => &mut self.stats.preprocess_time,
            Phase::Main => &mut self.stats.main_time,
            Phase::Finalize => &mut self.stats.finalize_time,
        }
    }

    /// `phase`'s artifact from the checkpoint, if it holds a usable one,
    /// without announcing it: a look-ahead that [`Pipeline::restored`]
    /// confirms once the phase actually resumes from it.
    pub(crate) fn peek<T: Checkpointable>(&self, phase: Phase) -> Option<T> {
        self.ckpt.as_deref()?.restore(phase.name())
    }

    /// Emits the `checkpoint.restore: <phase>` instant.
    pub(crate) fn restored(&self, phase: Phase) {
        self.device.tracer().instant(phase.restore_instant());
    }

    /// [`Pipeline::peek`], announced with [`Pipeline::restored`].
    pub(crate) fn restore<T: Checkpointable>(&self, phase: Phase) -> Option<T> {
        let value = self.peek(phase)?;
        self.restored(phase);
        Some(value)
    }

    /// Restores `phase`'s artifact, or computes and records it.
    pub(crate) fn resume<T: Checkpointable>(
        &mut self,
        phase: Phase,
        compute: impl FnOnce(&mut Self) -> Result<T, DeviceError>,
    ) -> Result<T, DeviceError> {
        if let Some(value) = self.restore(phase) {
            return Ok(value);
        }
        let value = compute(self)?;
        self.record_raw(phase.name(), T::KIND, || value.to_snapshot());
        Ok(value)
    }

    /// Records the checkpoint entry `name` and persists the checkpoint.
    /// `artifact` is only built when the run checkpoints.
    pub(crate) fn record<T: Checkpointable>(&mut self, name: &str, artifact: impl FnOnce() -> T) {
        self.record_raw(name, T::KIND, || artifact().to_snapshot());
    }

    /// [`Pipeline::record`] of an entry given as raw snapshot data.
    pub(crate) fn record_raw(&mut self, name: &str, kind: &str, data: impl FnOnce() -> Json) {
        if let Some(ckpt) = self.ckpt.as_deref_mut() {
            ckpt.record_raw(name, kind, data());
            checkpoint::persist(ckpt, self.device);
        }
    }
}

/// A concurrent bitset of core-point flags.
///
/// Kernels set flags with relaxed atomic OR — idempotent, so racing
/// setters are fine — and read them with relaxed loads. Cross-phase
/// visibility comes from the launch barrier.
pub struct CoreFlags {
    words: Vec<AtomicU32>,
    len: usize,
}

impl CoreFlags {
    /// Creates `n` cleared flags.
    pub fn new(n: usize) -> Self {
        Self { words: (0..n.div_ceil(32)).map(|_| AtomicU32::new(0)).collect(), len: n }
    }

    /// Rebuilds a flag set from a restored snapshot (see
    /// [`crate::checkpoint::CoreSnapshot`]).
    pub fn from_flags(flags: &[bool]) -> Self {
        let set = Self::new(flags.len());
        for (i, &f) in flags.iter().enumerate() {
            if f {
                set.set(i as u32);
            }
        }
        set
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks point `i` as a core point.
    #[inline]
    pub fn set(&self, i: u32) {
        let i = i as usize;
        debug_assert!(i < self.len);
        self.words[i / 32].fetch_or(1 << (i % 32), Ordering::Relaxed);
    }

    /// Whether point `i` is marked core.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        let i = i as usize;
        debug_assert!(i < self.len);
        self.words[i / 32].load(Ordering::Relaxed) & (1 << (i % 32)) != 0
    }

    /// Number of set flags.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum()
    }

    /// Copies the flags into a `Vec<bool>`.
    pub fn to_vec(&self) -> Vec<bool> {
        (0..self.len as u32).map(|i| self.get(i)).collect()
    }
}

/// Lazy, exactly-once core-point determination for the fused
/// neighbor-count + pair-resolution kernel.
///
/// The fused main phase no longer has a completed preprocessing phase to
/// read definitive core flags from, and racing half-written flags would
/// be incorrect: [`resolve_pair`] drops a pair when *neither* endpoint
/// looks core yet. Instead every point carries a tri-state — unknown,
/// claimed, decided — and [`LazyCore::ensure`] resolves it on first
/// demand:
///
/// * the CAS winner runs the (early-terminated) neighbor count exactly
///   once, publishes the [`CoreFlags`] bit, then the decision,
/// * losers spin until the decision lands — the claimant is an active
///   worker inside the same launch, and on a sequential device a claim
///   is always decided within the same kernel item, so the wait is
///   bounded,
/// * later calls are a single atomic load.
///
/// Exactly-once evaluation keeps the work counters deterministic: each
/// point's counting traversal contributes once, regardless of how many
/// pairs touch the point or which thread gets there first.
pub struct LazyCore {
    state: Vec<AtomicU8>,
}

const CORE_UNKNOWN: u8 = 0;
const CORE_CLAIMED: u8 = 1;
const CORE_DECIDED_NO: u8 = 2;
const CORE_DECIDED_YES: u8 = 3;

impl LazyCore {
    /// `n` undecided points.
    pub fn new(n: usize) -> Self {
        Self { state: (0..n).map(|_| AtomicU8::new(CORE_UNKNOWN)).collect() }
    }

    /// All points pre-decided from restored flags (checkpoint resume or
    /// the resilient ladder's salvaged-core-flag handoff): `ensure` then
    /// never runs a counting traversal.
    pub fn from_decided(flags: &[bool]) -> Self {
        Self {
            state: flags
                .iter()
                .map(|&f| AtomicU8::new(if f { CORE_DECIDED_YES } else { CORE_DECIDED_NO }))
                .collect(),
        }
    }

    /// Returns whether point `i` is core, computing it via `count` (which
    /// must return the definitive core decision for `i`) if no thread has
    /// yet. Publishes positive decisions to `core` *before* the decision
    /// state, so any thread that observes "decided" also observes the
    /// flag [`resolve_pair`] reads.
    #[inline]
    pub fn ensure<F>(&self, core: &CoreFlags, i: u32, count: F) -> bool
    where
        F: FnOnce() -> bool,
    {
        let slot = &self.state[i as usize];
        let s = slot.load(Ordering::Acquire);
        if s >= CORE_DECIDED_NO {
            return s == CORE_DECIDED_YES;
        }
        match slot.compare_exchange(
            CORE_UNKNOWN,
            CORE_CLAIMED,
            Ordering::Acquire,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                let is_core = count();
                if is_core {
                    core.set(i);
                }
                slot.store(
                    if is_core { CORE_DECIDED_YES } else { CORE_DECIDED_NO },
                    Ordering::Release,
                );
                is_core
            }
            Err(_) => loop {
                let s = slot.load(Ordering::Acquire);
                if s >= CORE_DECIDED_NO {
                    return s == CORE_DECIDED_YES;
                }
                std::hint::spin_loop();
            },
        }
    }
}

/// The preprocess phase of the fused kernels, which launches nothing:
/// seeds the lazy core state from a resumed main phase's label state
/// (its core flags supersede preprocessing) or from a restored
/// core-flag snapshot (a checkpoint, or the resilient ladder's salvaged
/// flags), else leaves every point undecided.
pub(crate) fn seed_lazy_core(
    p: &Pipeline<'_>,
    restored_main: Option<&LabelState>,
    n: usize,
) -> (CoreFlags, LazyCore) {
    let snapshot;
    let flags = match restored_main {
        Some(state) => Some(&state.core),
        None => {
            snapshot = p.restore::<CoreSnapshot>(Phase::Preprocess);
            snapshot.as_ref().map(|flags| &flags.0)
        }
    };
    match flags {
        Some(flags) => (CoreFlags::from_flags(flags), LazyCore::from_decided(flags)),
        None => (CoreFlags::new(n), LazyCore::new(n)),
    }
}

/// Resolves one discovered close pair `(x, y)` according to Algorithm 3
/// (lines 6–12):
///
/// * both core → `Union(x, y)`,
/// * one core → the non-core point is claimed for the core point's
///   cluster by a single CAS (first cluster wins; no bridging),
/// * neither core → nothing.
///
/// Symmetric and idempotent: processing `(x, y)` once, twice, or as
/// `(y, x)` yields the same clustering.
#[inline]
pub fn resolve_pair(labels: &AtomicLabels, core: &CoreFlags, x: u32, y: u32) {
    match (core.get(x), core.get(y)) {
        (true, true) => {
            labels.union(x, y);
        }
        (true, false) => {
            let root = labels.find(x);
            labels.try_claim(y, root);
        }
        (false, true) => {
            let root = labels.find(y);
            labels.try_claim(x, root);
        }
        (false, false) => {}
    }
}

/// [`resolve_pair`] under DBSCAN* semantics (see [`crate::star`]): only
/// core–core pairs act; there are no border claims.
#[inline]
pub fn resolve_pair_star(labels: &AtomicLabels, core: &CoreFlags, x: u32, y: u32) {
    if core.get(x) && core.get(y) {
        labels.union(x, y);
    }
}

/// Union-find labels resumed from a checkpointed
/// [`crate::checkpoint::LabelState`], counting into the device's work
/// counters.
pub(crate) fn resumed_labels(device: &Device, parents: Vec<u32>) -> AtomicLabels {
    let mut labels = AtomicLabels::from_labels(parents);
    labels.attach_counters(device.counters_arc());
    labels
}

/// Finalization (paper §4): flatten all union-find paths with a batched
/// kernel, then relabel into compact cluster ids.
pub fn finalize(device: &Device, labels: &AtomicLabels, core: &CoreFlags) -> Clustering {
    labels.flatten(device);
    let flat = labels.snapshot();
    let core_vec = core.to_vec();
    Clustering::from_union_find(&flat, &core_vec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{cuda_dclust, gdbscan};
    use crate::labels::PointClass;
    use crate::stats::PhaseCounters;
    use crate::{fdbscan, fdbscan_densebox, fdbscan_kdtree, MinptsSweep, Params};
    use fdbscan_device::DeviceConfig;
    use fdbscan_geom::Point2;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    type Driver = fn(&Device, &[Point2], Params) -> Result<(Clustering, RunStats), DeviceError>;
    /// Checks where one driver's work lands in its phase counters.
    type Attribution = fn(&RunStats);
    type Counter = fn(&CountersSnapshot) -> u64;

    fn sweep(
        device: &Device,
        points: &[Point2],
        params: Params,
    ) -> Result<(Clustering, RunStats), DeviceError> {
        MinptsSweep::new(device, points, params.eps)?.run(params.minpts)
    }

    /// Where the fused FDBSCAN pipeline's work lands, whatever the index:
    /// preprocessing launches nothing, the fused main phase counts and
    /// unions, finalize flattens.
    fn fused_main_attribution(stats: &RunStats) {
        let pc = &stats.phase_counters;
        assert_eq!(pc.preprocess.kernel_launches, 0, "preprocessing is fused into main");
        assert_eq!(pc.preprocess.distance_computations, 0, "preprocessing is fused into main");
        assert!(pc.main.distance_computations > 0, "fused core counting measures distances");
        assert!(pc.main.unions > 0, "unions happen in the main phase");
        assert_eq!(pc.main.unions, stats.counters.unions);
        assert!(pc.finalize.kernel_launches > 0, "finalize launches the flatten kernel");
    }

    /// [`fused_main_attribution`], plus FDBSCAN's own index phase: the BVH
    /// build launches kernels and computes no distances.
    fn fdbscan_attribution(stats: &RunStats) {
        let pc = &stats.phase_counters;
        assert!(pc.index.kernel_launches > 0, "BVH build launches kernels");
        assert_eq!(pc.index.distance_computations, 0, "index phase computes no distances");
        fused_main_attribution(stats);
    }

    #[test]
    fn every_driver_keeps_the_pipeline_contract() {
        let drivers: [(&str, Driver, Attribution); 6] = [
            ("fdbscan", fdbscan, fdbscan_attribution),
            ("fdbscan-densebox", fdbscan_densebox, |_| {}),
            ("fdbscan-kdtree", fdbscan_kdtree, fused_main_attribution),
            ("g-dbscan", gdbscan, |stats| {
                assert_eq!(stats.phase_counters.preprocess, CountersSnapshot::default());
            }),
            ("cuda-dclust", cuda_dclust, |_| {}),
            ("sweep", sweep, |stats| {
                assert_eq!(stats.phase_counters.index, CountersSnapshot::default());
            }),
        ];
        let device = Device::new(DeviceConfig::default().with_workers(2).with_block_size(64));
        let mut rng = StdRng::seed_from_u64(21);
        let points: Vec<Point2> = (0..400)
            .map(|_| Point2::new([rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)]))
            .collect();
        let params = Params::new(0.3, 5);
        let fields: [(&str, Counter); 7] = [
            ("kernel_launches", |c| c.kernel_launches),
            ("distance_computations", |c| c.distance_computations),
            ("bvh_nodes_visited", |c| c.bvh_nodes_visited),
            ("unions", |c| c.unions),
            ("finds", |c| c.finds),
            ("label_cas", |c| c.label_cas),
            ("reservations", |c| c.reservations),
        ];
        for (name, run, attribution) in drivers {
            let (clustering, stats) = run(&device, &points, params).unwrap();
            assert_eq!(clustering.len(), points.len(), "{name}");
            // Per-phase counter deltas sum to the run-inclusive delta.
            let PhaseCounters { index, preprocess, main, finalize } = &stats.phase_counters;
            for (field, get) in fields {
                let phases = get(index) + get(preprocess) + get(main) + get(finalize);
                assert_eq!(phases, get(&stats.counters), "{name}: {field}");
            }
            // Phase times fit inside the run's total.
            let phases =
                stats.index_time + stats.preprocess_time + stats.main_time + stats.finalize_time;
            assert!(phases <= stats.total_time, "{name}: {phases:?} > {:?}", stats.total_time);
            attribution(&stats);

            let (empty, _) = run(&device, &[], params).unwrap();
            assert!(empty.is_empty(), "{name}: empty input");
            assert_eq!(empty.num_clusters, 0, "{name}: empty input");
        }
    }

    #[test]
    fn core_flags_set_get() {
        let flags = CoreFlags::new(100);
        assert_eq!(flags.count(), 0);
        flags.set(0);
        flags.set(31);
        flags.set(32);
        flags.set(99);
        assert!(flags.get(0) && flags.get(31) && flags.get(32) && flags.get(99));
        assert!(!flags.get(1) && !flags.get(98));
        assert_eq!(flags.count(), 4);
    }

    #[test]
    fn core_flags_idempotent() {
        let flags = CoreFlags::new(8);
        flags.set(3);
        flags.set(3);
        assert_eq!(flags.count(), 1);
    }

    #[test]
    fn core_flags_concurrent_sets() {
        let flags = CoreFlags::new(1024);
        std::thread::scope(|s| {
            for t in 0..4 {
                let flags = &flags;
                s.spawn(move || {
                    for i in (t..1024).step_by(4) {
                        flags.set(i as u32);
                    }
                });
            }
        });
        assert_eq!(flags.count(), 1024);
    }

    #[test]
    fn lazy_core_counts_exactly_once_and_publishes_flag() {
        let lazy = LazyCore::new(4);
        let core = CoreFlags::new(4);
        let mut calls = 0;
        assert!(lazy.ensure(&core, 2, || {
            calls += 1;
            true
        }));
        // Second ask must reuse the decision, not recount.
        assert!(lazy.ensure(&core, 2, || {
            calls += 1;
            false
        }));
        assert_eq!(calls, 1);
        assert!(core.get(2));
        assert!(!lazy.ensure(&core, 0, || false));
        assert!(!core.get(0));
    }

    #[test]
    fn lazy_core_from_decided_never_counts() {
        let lazy = LazyCore::from_decided(&[true, false]);
        let core = CoreFlags::from_flags(&[true, false]);
        assert!(lazy.ensure(&core, 0, || unreachable!("pre-decided point recounted")));
        assert!(!lazy.ensure(&core, 1, || unreachable!("pre-decided point recounted")));
    }

    #[test]
    fn lazy_core_concurrent_single_winner() {
        use std::sync::atomic::AtomicUsize;
        let lazy = LazyCore::new(1);
        let core = CoreFlags::new(1);
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    assert!(lazy.ensure(&core, 0, || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        true
                    }));
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(core.get(0));
    }

    #[test]
    fn resolve_pair_union_of_cores() {
        let labels = AtomicLabels::new(4);
        let core = CoreFlags::new(4);
        core.set(0);
        core.set(1);
        resolve_pair(&labels, &core, 0, 1);
        assert!(labels.same_set(0, 1));
    }

    #[test]
    fn resolve_pair_border_claim_is_single() {
        let labels = AtomicLabels::new(3);
        let core = CoreFlags::new(3);
        core.set(0);
        core.set(1);
        // 2 is non-core; claimed by 0's cluster first, then 1 tries.
        resolve_pair(&labels, &core, 0, 2);
        resolve_pair(&labels, &core, 1, 2);
        // 2 belongs to 0's cluster; 0 and 1 stay separate (no bridging).
        assert_eq!(labels.find(2), labels.find(0));
        assert!(!labels.same_set(0, 1));
    }

    #[test]
    fn resolve_pair_neither_core_is_noop() {
        let labels = AtomicLabels::new(2);
        let core = CoreFlags::new(2);
        resolve_pair(&labels, &core, 0, 1);
        assert!(!labels.same_set(0, 1));
        assert_eq!(labels.find(0), 0);
        assert_eq!(labels.find(1), 1);
    }

    #[test]
    fn resolve_pair_symmetric() {
        let labels = AtomicLabels::new(2);
        let core = CoreFlags::new(2);
        core.set(1);
        resolve_pair(&labels, &core, 0, 1); // non-core first argument
        assert_eq!(labels.find(0), 1);
    }

    #[test]
    fn finalize_produces_clustering() {
        let device = Device::with_defaults();
        let labels = AtomicLabels::new(5);
        let core = CoreFlags::new(5);
        core.set(0);
        core.set(1);
        labels.union(0, 1);
        // 2 is a border of the cluster; 3, 4 noise.
        labels.try_claim(2, labels.find(0));
        let clustering = finalize(&device, &labels, &core);
        assert_eq!(clustering.num_clusters, 1);
        assert_eq!(clustering.assignments[0], clustering.assignments[1]);
        assert_eq!(clustering.assignments[2], clustering.assignments[0]);
        assert_eq!(clustering.classes[2], PointClass::Border);
        assert_eq!(clustering.assignments[3], crate::NOISE);
        assert_eq!(clustering.assignments[4], crate::NOISE);
    }
}
