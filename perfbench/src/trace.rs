//! In-memory span recorder for the benchmark's own calls into each
//! layer, reduced to per-layer self time.
//!
//! A span is opened around one call into a crate's public function and
//! closed when the guard drops. Spans carry their parent span, the
//! workload, and the service request id where there is one. They stay in
//! memory until the run ends and are written out in one piece. The
//! device's own tracer is a different mechanism and stays off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fdbscan_device::json::Json;

/// Identifier of a recorded span (its start order).
pub type SpanId = u32;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Start order, unique within the recorder.
    pub id: SpanId,
    /// Layer operation, e.g. `bvh.build`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Service request id, when the span covers one request.
    pub request_id: Option<u64>,
}

/// Collects spans when enabled; every call is a no-op otherwise.
pub struct Recorder {
    enabled: bool,
    workload: String,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Open span; records itself when dropped.
pub struct SpanGuard<'r> {
    recorder: &'r Recorder,
    open: Option<(SpanId, &'static str, u64, Option<SpanId>)>,
    request_id: Option<u64>,
}

impl SpanGuard<'_> {
    /// This span's id (`None` when recording is off).
    pub fn id(&self) -> Option<SpanId> {
        self.open.map(|(id, ..)| id)
    }

    /// Tags the span with a service request id.
    pub fn set_request_id(&mut self, id: u64) {
        self.request_id = Some(id);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((id, name, start_ns, parent)) = self.open.take() {
            let end_ns = self.recorder.now_ns();
            let span = Span { id, name, start_ns, end_ns, parent, request_id: self.request_id };
            // A poisoned lock only means another span writer panicked;
            // the vector itself is always whole.
            match self.recorder.spans.lock() {
                Ok(mut spans) => spans.push(span),
                Err(poisoned) => poisoned.into_inner().push(span),
            }
        }
    }
}

impl Recorder {
    /// A recorder for `workload`; `enabled = false` records nothing.
    pub fn new(enabled: bool, workload: &str) -> Self {
        Self {
            enabled,
            workload: workload.to_string(),
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent`.
    pub fn span(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard<'_> {
        let open = self.enabled.then(|| {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            (id, name, self.now_ns(), parent)
        });
        SpanGuard { recorder: self, open, request_id: None }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, parent);
        f()
    }

    /// All closed spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = match self.spans.lock() {
            Ok(spans) => spans.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        Json::Arr(
            self.spans()
                .into_iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::U64(s.id.into())),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        ("parent", opt(s.parent.map(u64::from))),
                        ("workload", Json::str(&self.workload)),
                        ("request_id", opt(s.request_id)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span in seconds, grouped by span name: the span's
/// duration minus the part of its interval its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        out.entry(s.name).or_default().push(own as f64 * 1e-9);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            id,
            name: if parent.is_some() { "child" } else { "parent" },
            start_ns,
            end_ns,
            parent,
            request_id: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..30 and 20..50 and
        // one child reaching past the parent's end.
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),
            span(2, 20, 50, Some(0)),
            span(3, 90, 120, Some(0)),
        ];
        let times = self_times(&spans);
        assert!((times["parent"][0] - 50e-9).abs() < 1e-15);
        assert_eq!(times["child"].len(), 3);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let off = Recorder::new(false, "w");
        assert_eq!(off.span("x", None).id(), None);
        assert!(off.spans().is_empty());
        let on = Recorder::new(true, "w");
        let parent = on.span("a", None);
        let child = on.span("b", parent.id());
        drop(child);
        drop(parent);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
    }
}
