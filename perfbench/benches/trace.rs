//! Span recording for the traced run.
//!
//! Workload code is generic over [`Probe`]. The timed runs use [`Off`],
//! whose methods are empty and compile away, so tracing costs them
//! nothing. The traced run uses [`Tracer`], which keeps every span in
//! memory (name, start, end, parent, request id) and writes them out once
//! the run has ended. Scheduler calls are too many and too short for one
//! span each: [`TimedScheduler`] forwards every call to the real
//! scheduler and adds the time into per-method totals instead.

use dd_platform::sched::{PhaseObservation, RunInfo, SchedulerEvent, StorageHints};
use dd_platform::{InstanceView, Placement, PoolRequest, ServerlessScheduler, SimTime};
use dd_wfdag::Phase;
use std::collections::BTreeMap;
use std::time::Instant;

/// Records spans at layer boundaries, or nothing at all.
pub trait Probe: Send + Sync + Sized {
    /// Whether this probe records (a constant, so `if P::ON` compiles away).
    const ON: bool;
    /// Opens a span under the innermost open one; returns its handle.
    fn open(&mut self, name: &'static str, req: Option<u64>) -> usize;
    /// Closes the span `id` (must be the innermost open one).
    fn close(&mut self, id: usize);
    /// Adds `v` to the named total (busy seconds or a count).
    fn add(&mut self, key: &'static str, v: f64);
    /// A probe for work done on another thread: same clock, its root spans
    /// parented under `parent`. Merge it back with [`Probe::join`].
    fn fork(&self, parent: usize) -> Self;
    /// Merges a forked probe's spans and totals.
    fn join(&mut self, child: Self);
}

/// The probe of the timed runs: records nothing.
pub struct Off;

impl Probe for Off {
    const ON: bool = false;
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: Option<u64>) -> usize {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: usize) {}
    #[inline(always)]
    fn add(&mut self, _: &'static str, _: f64) {}
    #[inline(always)]
    fn fork(&self, _: usize) -> Self {
        Off
    }
    #[inline(always)]
    fn join(&mut self, _: Self) {}
}

/// One recorded span; times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
    /// Run or arrival index the span belongs to.
    pub req: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The probe of the traced run.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    totals: BTreeMap<&'static str, f64>,
    /// For a forked tracer: the parent (in the joining tracer) of its
    /// root spans.
    fork_parent: Option<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            fork_parent: None,
        }
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`.
    pub fn span_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// A total added with [`Probe::add`] (0 if never added).
    pub fn total(&self, key: &str) -> f64 {
        self.totals.get(key).copied().unwrap_or(0.0)
    }

    /// Summed duration of the top-level spans that start at or after
    /// `from` — the part of a timed region the layers account for.
    pub fn top_level_secs(&self, from: f64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start >= from)
            .map(Span::secs)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{},\"req\":{}}}\n",
                s.name,
                crate::util::json_num(s.start),
                crate::util::json_num(s.end),
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            ));
        }
        out
    }
}

impl Probe for Tracer {
    const ON: bool = true;

    fn open(&mut self, name: &'static str, req: Option<u64>) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.stack.pop(), Some(id), "span {id} closed out of order");
        self.spans[id].end = end;
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.totals.entry(key).or_insert(0.0) += v;
    }

    fn fork(&self, parent: usize) -> Self {
        Self {
            t0: self.t0,
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            fork_parent: Some(parent),
        }
    }

    fn join(&mut self, child: Self) {
        let offset = self.spans.len();
        let root_parent = child.fork_parent;
        self.spans.extend(child.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset).or(root_parent),
            ..s
        }));
        for (k, v) in child.totals {
            self.add(k, v);
        }
    }
}

/// Busy seconds and call count per [`ServerlessScheduler`] method.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedTimes {
    pub initial_pool: f64,
    pub pool_next: f64,
    pub place: f64,
    pub observe: f64,
    pub calls: u64,
}

impl SchedTimes {
    pub fn total(&self) -> f64 {
        self.initial_pool + self.pool_next + self.place + self.observe
    }

    /// Adds these times into `probe`'s `sched.*` totals.
    pub fn add_to<P: Probe>(&self, probe: &mut P) {
        probe.add("sched.initial_pool_s", self.initial_pool);
        probe.add("sched.pool_next_s", self.pool_next);
        probe.add("sched.place_s", self.place);
        probe.add("sched.observe_s", self.observe);
        probe.add("sched.calls", self.calls as f64);
    }
}

/// Forwards every call, default trait methods included, to the wrapped
/// scheduler, timing the four decision methods.
pub struct TimedScheduler<'a> {
    inner: &'a mut dyn ServerlessScheduler,
    pub times: SchedTimes,
}

impl<'a> TimedScheduler<'a> {
    pub fn new(inner: &'a mut dyn ServerlessScheduler) -> Self {
        Self {
            inner,
            times: SchedTimes::default(),
        }
    }
}

fn timed<T>(slot: &mut f64, calls: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    *calls += 1;
    out
}

impl ServerlessScheduler for TimedScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_pool(&mut self, info: &RunInfo) -> PoolRequest {
        let inner = &mut *self.inner;
        timed(&mut self.times.initial_pool, &mut self.times.calls, || {
            inner.initial_pool(info)
        })
    }

    fn pool_for_next_phase(&mut self, half_of: usize, observed: &PhaseObservation) -> PoolRequest {
        let inner = &mut *self.inner;
        timed(&mut self.times.pool_next, &mut self.times.calls, || {
            inner.pool_for_next_phase(half_of, observed)
        })
    }

    fn place(&mut self, phase: &Phase, available: &[InstanceView], now: SimTime) -> Vec<Placement> {
        let inner = &mut *self.inner;
        timed(&mut self.times.place, &mut self.times.calls, || {
            inner.place(phase, available, now)
        })
    }

    fn overhead_secs(&self) -> f64 {
        self.inner.overhead_secs()
    }

    fn observe_phase(&mut self, observation: &PhaseObservation) {
        let inner = &mut *self.inner;
        timed(&mut self.times.observe, &mut self.times.calls, || {
            inner.observe_phase(observation)
        });
    }

    fn set_event_recording(&mut self, enabled: bool) {
        self.inner.set_event_recording(enabled);
    }

    fn drain_events(&mut self) -> Vec<SchedulerEvent> {
        self.inner.drain_events()
    }

    fn storage_hints(&self) -> StorageHints {
        self.inner.storage_hints()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_forks_rejoin() {
        let mut t = Tracer::new();
        let top = t.open("top", None);
        let inner = t.open("inner", Some(3));
        t.close(inner);
        let mut child = t.fork(top);
        let c = child.open("cell", Some(1));
        let cc = child.open("cell.part", Some(1));
        child.close(cc);
        child.close(c);
        child.add("n", 2.0);
        t.join(child);
        t.close(top);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            s[2].parent,
            Some(0),
            "forked root hangs under the fork point"
        );
        assert_eq!(s[3].parent, Some(2), "forked child keeps its own parent");
        assert!((t.total("n") - 2.0).abs() < 1e-12);
        assert!(t.top_level_secs(0.0) >= s[1].secs());
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }
}
