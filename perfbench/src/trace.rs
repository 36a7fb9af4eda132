//! In-memory span recording and self-time attribution for the traced run.
//!
//! The [`Recorder`] is a `Collector` the benchmark attaches to every library
//! entry point that takes one. It keeps span open/close events (stamped
//! with a host clock and the emitting thread), sums the integer fields of
//! the `account.*` counters and of `sim.replication` events, and counts
//! every other event by name. The benchmark opens its own spans around each
//! layer call with [`Recorder::open`]; library root spans opened while a
//! benchmark span is open become its children.
//!
//! Self time: a span's time not covered by a child. Where spans on
//! several threads run at once, each instant is shared equally among the
//! innermost spans of the busy threads, skipping a span that is only
//! waiting for a child on another thread. Self times therefore add up to
//! the time covered by the benchmark's spans, not to thread time.

use lb_telemetry::{Collector, Field, FieldValue};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Benchmark span ids live above every id the library allocates.
const BENCH_ID_BASE: u64 = 1 << 62;

#[derive(Debug, Clone)]
enum Kind {
    Open { parent: Option<u64>, name: String },
    Close,
}

#[derive(Debug, Clone)]
struct SpanEvent {
    t_ns: u64,
    thread: usize,
    id: u64,
    kind: Kind,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanEvent>,
    threads: HashMap<ThreadId, usize>,
    bench_stack: Vec<u64>,
    next_bench: u64,
    counts: BTreeMap<String, u64>,
    sums: BTreeMap<String, u64>,
}

impl Inner {
    fn thread_index(&mut self) -> usize {
        let next = self.threads.len();
        *self
            .threads
            .entry(std::thread::current().id())
            .or_insert(next)
    }
}

/// The benchmark's collector: spans in memory, counters summed.
pub struct Recorder {
    start: Instant,
    inner: Mutex<Inner>,
}

/// A benchmark span; closes when dropped.
pub struct BenchSpan<'a> {
    recorder: &'a Recorder,
    id: u64,
}

impl Drop for BenchSpan<'_> {
    fn drop(&mut self) {
        self.recorder.close_bench(self.id);
    }
}

impl Recorder {
    /// An empty recorder, shared with the library as a collector.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            start: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("recorder lock poisoned by a panicking task")
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Opens a benchmark span named after the layer it calls into.
    pub fn open(&self, name: &str) -> BenchSpan<'_> {
        let mut inner = self.lock();
        inner.next_bench += 1;
        let id = BENCH_ID_BASE + inner.next_bench;
        let parent = inner.bench_stack.last().copied();
        inner.bench_stack.push(id);
        let thread = inner.thread_index();
        let t_ns = self.now_ns();
        inner.spans.push(SpanEvent {
            t_ns,
            thread,
            id,
            kind: Kind::Open {
                parent,
                name: name.to_string(),
            },
        });
        BenchSpan { recorder: self, id }
    }

    fn close_bench(&self, id: u64) {
        let mut inner = self.lock();
        inner.bench_stack.retain(|&d| d != id);
        let thread = inner.thread_index();
        let t_ns = self.now_ns();
        inner.spans.push(SpanEvent {
            t_ns,
            thread,
            id,
            kind: Kind::Close,
        });
    }

    /// Event counts by name (span events excluded).
    pub fn counts(&self) -> BTreeMap<String, u64> {
        self.lock().counts.clone()
    }

    /// Summed integer fields, keyed `event.field`.
    pub fn sums(&self) -> BTreeMap<String, u64> {
        self.lock().sums.clone()
    }

    /// Number of spans opened.
    pub fn span_count(&self) -> u64 {
        self.lock()
            .spans
            .iter()
            .filter(|e| matches!(e.kind, Kind::Open { .. }))
            .count() as u64
    }

    /// Self-time attribution over everything recorded so far.
    pub fn attribute(&self) -> Attribution {
        attribute(&self.lock().spans)
    }
}

fn field_u64(fields: &[Field], key: &str) -> Option<u64> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            FieldValue::U64(n) => Some(*n),
            _ => None,
        })
}

fn field_str(fields: &[Field], key: &str) -> Option<String> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            FieldValue::Str(s) => Some(s.to_string()),
            _ => None,
        })
}

impl Collector for Recorder {
    fn emit(&self, name: &'static str, fields: &[Field]) {
        match name {
            lb_telemetry::SPAN_OPEN | lb_telemetry::SPAN_CLOSE => {
                let Some(id) = field_u64(fields, "span") else {
                    return;
                };
                let mut inner = self.lock();
                let thread = inner.thread_index();
                let kind = if name == lb_telemetry::SPAN_OPEN {
                    let parent =
                        field_u64(fields, "parent").or_else(|| inner.bench_stack.last().copied());
                    let name = field_str(fields, "name").unwrap_or_default();
                    Kind::Open { parent, name }
                } else {
                    Kind::Close
                };
                let t_ns = self.now_ns();
                inner.spans.push(SpanEvent {
                    t_ns,
                    thread,
                    id,
                    kind,
                });
            }
            _ => {
                let mut inner = self.lock();
                *inner.counts.entry(name.to_string()).or_default() += 1;
                let summed = name.starts_with("account.") || name == "sim.replication";
                if summed {
                    for (key, value) in fields {
                        if let FieldValue::U64(v) = value {
                            if name == "sim.replication" && *key != "jobs" {
                                continue;
                            }
                            *inner.sums.entry(format!("{name}.{key}")).or_default() += v;
                        }
                    }
                }
            }
        }
    }
}

/// Maps a span name (library or benchmark) to the layer it measures.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "sim.harness" | "sim.run" => "sim.harness",
        "runner.pool" | "runner.worker" => "sim.parallel",
        "sim.replication" => "sim.shard",
        "des.shard" | "des.batch" => "des.shard",
        "sim.batch" => "des.arrivals",
        "game.schemes" => "game.schemes",
        "game.nash" | "solver.solve" | "solver.sweep" | "solver.jacobi" => "game.nash",
        "solver.best_reply" => "game.best_reply",
        "game.sampled" => "game.sampled",
        "distributed.async" => "distributed.async",
        "distributed.ring" | "ring.run" | "ring.round" | "ring.hold" => "distributed.ring",
        "sim.policies" => "sim.policies",
        _ => "other",
    }
}

/// Every layer [`layer_of`] can name, in report order.
pub const LAYERS: [&str; 13] = [
    "sim.harness",
    "sim.parallel",
    "sim.shard",
    "des.shard",
    "des.arrivals",
    "game.schemes",
    "game.nash",
    "game.best_reply",
    "game.sampled",
    "distributed.async",
    "distributed.ring",
    "sim.policies",
    "other",
];

/// Per-span and per-layer time totals.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Self time per layer, ns.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Closed spans per span name: (count, summed duration in ns).
    pub spans: BTreeMap<String, (u64, u64)>,
    /// Time covered by at least one span, ns.
    pub covered_ns: f64,
}

impl Attribution {
    /// Mean duration of the spans called `name`, in ms (0 when none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.spans.get(name) {
            Some(&(n, total)) if n > 0 => total as f64 / n as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// Summed duration of the spans called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |&(_, t)| t as f64)
    }

    /// Self time of `layer`, in ns.
    pub fn layer_ns(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0.0)
    }
}

struct OpenSpan {
    name: String,
    parent: Option<u64>,
    thread: usize,
    t_open: u64,
    open_children: u32,
}

fn attribute(events: &[SpanEvent]) -> Attribution {
    let mut out = Attribution::default();
    let mut open: HashMap<u64, OpenSpan> = HashMap::new();
    let mut stacks: Vec<Vec<u64>> = Vec::new();
    let mut prev = events.first().map_or(0, |e| e.t_ns);
    for ev in events {
        if ev.t_ns > prev {
            let active: Vec<u64> = stacks
                .iter()
                .filter_map(|s| s.last().copied())
                .filter(|id| open.get(id).is_some_and(|s| s.open_children == 0))
                .collect();
            let dt = (ev.t_ns - prev) as f64;
            if !active.is_empty() {
                out.covered_ns += dt;
                let share = dt / active.len() as f64;
                for id in active {
                    let layer = layer_of(&open[&id].name);
                    *out.self_ns.entry(layer).or_default() += share;
                }
            }
            prev = ev.t_ns;
        }
        match &ev.kind {
            Kind::Open { parent, name } => {
                if stacks.len() <= ev.thread {
                    stacks.resize_with(ev.thread + 1, Vec::new);
                }
                stacks[ev.thread].push(ev.id);
                let parent = parent.filter(|p| open.contains_key(p));
                if let Some(p) = parent {
                    open.get_mut(&p).expect("parent is open").open_children += 1;
                }
                open.insert(
                    ev.id,
                    OpenSpan {
                        name: name.clone(),
                        parent,
                        thread: ev.thread,
                        t_open: ev.t_ns,
                        open_children: 0,
                    },
                );
            }
            Kind::Close => {
                let Some(span) = open.remove(&ev.id) else {
                    continue;
                };
                let stack = &mut stacks[span.thread];
                if let Some(pos) = stack.iter().rposition(|&id| id == ev.id) {
                    stack.remove(pos);
                }
                if let Some(p) = span.parent.and_then(|p| open.get_mut(&p)) {
                    p.open_children -= 1;
                }
                let entry = out.spans.entry(span.name).or_default();
                entry.0 += 1;
                entry.1 += ev.t_ns - span.t_open;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, thread: usize, id: u64, open: Option<(&str, Option<u64>)>) -> SpanEvent {
        SpanEvent {
            t_ns,
            thread,
            id,
            kind: match open {
                Some((name, parent)) => Kind::Open {
                    parent,
                    name: name.into(),
                },
                None => Kind::Close,
            },
        }
    }

    #[test]
    fn nested_spans_split_time_into_self_times() {
        // sim.harness [0,100) ⊃ des.shard [10,70) ⊃ sim.batch [20,30).
        let a = attribute(&[
            ev(0, 0, 1, Some(("sim.harness", None))),
            ev(10, 0, 2, Some(("des.shard", Some(1)))),
            ev(20, 0, 3, Some(("sim.batch", Some(2)))),
            ev(30, 0, 3, None),
            ev(70, 0, 2, None),
            ev(100, 0, 1, None),
        ]);
        assert_eq!(a.layer_ns("sim.harness"), 40.0);
        assert_eq!(a.layer_ns("des.shard"), 50.0);
        assert_eq!(a.layer_ns("des.arrivals"), 10.0);
        assert_eq!(a.covered_ns, 100.0);
        assert_eq!(a.total_ns("des.shard"), 60.0);
    }

    #[test]
    fn parallel_children_share_wall_time_and_waiting_parents_get_none() {
        // runner.pool on thread 0 waits while two workers run; worker 0
        // on thread 0 ends early, after which only worker 1 is busy.
        let a = attribute(&[
            ev(0, 0, 1, Some(("runner.pool", None))),
            ev(0, 0, 2, Some(("des.shard", Some(1)))),
            ev(0, 1, 3, Some(("des.shard", Some(1)))),
            ev(40, 0, 2, None),
            ev(100, 1, 3, None),
            ev(100, 0, 1, None),
        ]);
        assert_eq!(a.covered_ns, 100.0);
        assert_eq!(a.layer_ns("des.shard"), 100.0);
        assert_eq!(a.layer_ns("sim.parallel"), 0.0);
    }
}
