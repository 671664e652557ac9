//! dd-obs — deterministic observability for the DayDream simulators.
//!
//! A zero-dependency tracing + metrics layer. Executors emit *spans*
//! (scheduler decisions, pool pre-boots, per-component execution, whole
//! phases), *instants* (fault attempts, Weibull re-fits, tier splits,
//! pool requests) and *metrics* (start-kind counters, pre-load hit/miss,
//! retries, keep-alive seconds) through the [`Recorder`] trait.
//!
//! Design rules, in decreasing order of importance:
//!
//! 1. **Determinism.** Every timestamp is virtual (`SimTime` seconds from
//!    the analytic or DES clock), never wall clock; every container is a
//!    `Vec` in emission/registration order. Two runs of the same seed —
//!    on any `--jobs` value, on either executor — produce byte-identical
//!    exports.
//! 2. **Zero cost when disabled.** [`NoopRecorder`] methods are empty
//!    defaults; callers guard argument construction behind
//!    [`Recorder::enabled`], so a disabled recorder adds only a branch.
//!    No test asserts the cost; perfbench shows it end to end.
//! 3. **No side channels.** Recording never feeds back into simulation
//!    decisions; a recorded run and an unrecorded run of the same seed
//!    produce identical outcomes.
//!
//! Exporters live in [`export`]: JSONL event streams
//! ([`export::to_jsonl`]), chrome://tracing JSON
//! ([`export::to_chrome_trace`]) and a human per-phase timing table
//! ([`export::summary`]).

pub mod export;

/// A typed argument value attached to spans and instants.
///
/// Names are `&'static str` throughout the crate: every emission site is
/// in simulator code with literal names, and static names keep the layer
/// allocation-free except for genuinely dynamic text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Finite float (seconds, fractions).
    F64(f64),
    /// Static string (tier/kind names).
    Str(&'static str),
    /// Owned string for dynamic text (fault kinds rendered via Debug).
    Text(String),
}

/// Span vs point event, chrome-trace style.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An interval: `[ts_secs, ts_secs + dur_secs]`.
    Span {
        /// Duration in virtual seconds (>= 0).
        dur_secs: f64,
    },
    /// A point in virtual time.
    Instant,
}

/// One recorded trace event. Events are stored in emission order, which
/// both executors produce identically (the canonical order is documented
/// in `dd-platform`'s executor module).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (e.g. `"phase"`, `"component"`, `"weibull_refit"`).
    pub name: &'static str,
    /// Category for grouping in trace viewers (`"scheduler"`, `"pool"`,
    /// `"exec"`, `"fault"`, `"phase"`).
    pub cat: &'static str,
    /// Virtual-clock timestamp in seconds.
    pub ts_secs: f64,
    /// Span-or-instant plus span duration.
    pub kind: EventKind,
    /// Typed key/value arguments, in emission order.
    pub args: Vec<(&'static str, Value)>,
}

/// The sink executors emit into. All methods default to no-ops so that
/// [`NoopRecorder`] is literally `impl Recorder for NoopRecorder {}` and
/// the disabled path costs one `enabled()` branch per emission site.
///
/// Metric methods are name-addressed; implementations with a
/// [`MetricsRegistry`] resolve names to slots on first touch. Executors
/// call the `declare_*` methods once up front in a fixed order, so the
/// registry's iteration order is identical across executors and runs.
pub trait Recorder {
    /// Whether emission sites should bother building arguments.
    fn enabled(&self) -> bool {
        false
    }

    /// Record an interval event.
    fn span(
        &mut self,
        _name: &'static str,
        _cat: &'static str,
        _ts_secs: f64,
        _dur_secs: f64,
        _args: Vec<(&'static str, Value)>,
    ) {
    }

    /// Record a point event.
    fn instant(
        &mut self,
        _name: &'static str,
        _cat: &'static str,
        _ts_secs: f64,
        _args: Vec<(&'static str, Value)>,
    ) {
    }

    /// Pre-register a counter so registry order is emission-independent.
    fn declare_counter(&mut self, _name: &'static str) {}

    /// Pre-register a gauge.
    fn declare_gauge(&mut self, _name: &'static str) {}

    /// Pre-register a histogram.
    fn declare_histogram(&mut self, _name: &'static str) {}

    /// Add `delta` to a counter.
    fn add(&mut self, _name: &'static str, _delta: u64) {}

    /// Set a gauge to `value`.
    fn set(&mut self, _name: &'static str, _value: f64) {}

    /// Record one histogram sample.
    fn record(&mut self, _name: &'static str, _value: f64) {}
}

/// The zero-cost disabled recorder; every method is the trait default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// In-memory recorder backing the exporters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryRecorder {
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
    /// Metrics in declaration order.
    pub metrics: MetricsRegistry,
}

impl MemoryRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts_secs: f64,
        dur_secs: f64,
        args: Vec<(&'static str, Value)>,
    ) {
        self.events.push(TraceEvent {
            name,
            cat,
            ts_secs,
            kind: EventKind::Span { dur_secs },
            args,
        });
    }

    fn instant(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts_secs: f64,
        args: Vec<(&'static str, Value)>,
    ) {
        self.events.push(TraceEvent {
            name,
            cat,
            ts_secs,
            kind: EventKind::Instant,
            args,
        });
    }

    fn declare_counter(&mut self, name: &'static str) {
        self.metrics.declare_counter(name);
    }

    fn declare_gauge(&mut self, name: &'static str) {
        self.metrics.declare_gauge(name);
    }

    fn declare_histogram(&mut self, name: &'static str) {
        self.metrics.declare_histogram(name);
    }

    fn add(&mut self, name: &'static str, delta: u64) {
        self.metrics.add(name, delta);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.set(name, value);
    }

    fn record(&mut self, name: &'static str, value: f64) {
        self.metrics.record(name, value);
    }
}

/// A metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic u64 counter.
    Counter(u64),
    /// Last-set float; merges by accumulation (use a histogram when the
    /// distribution matters).
    Gauge(f64),
    /// Sample distribution with fixed log buckets.
    Histogram(Histogram),
}

/// One named metric slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Static metric name.
    pub name: &'static str,
    /// Current value.
    pub value: MetricValue,
}

/// Fixed-registration metric store. Slots are a `Vec` in declaration
/// order (first-touch order when not pre-declared), so iteration — and
/// therefore every export — is deterministic. Lookup is a linear scan:
/// the simulators register ~a dozen metrics, far below the crossover
/// where a map would win, and a map would drag in ordering hazards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, name: &'static str, fresh: MetricValue) -> &mut MetricValue {
        if let Some(idx) = self.entries.iter().position(|m| m.name == name) {
            return &mut self.entries[idx].value;
        }
        self.entries.push(Metric { name, value: fresh });
        let last = self.entries.len() - 1;
        &mut self.entries[last].value
    }

    /// Registers `name` as a counter if absent.
    pub fn declare_counter(&mut self, name: &'static str) {
        self.slot(name, MetricValue::Counter(0));
    }

    /// Registers `name` as a gauge if absent.
    pub fn declare_gauge(&mut self, name: &'static str) {
        self.slot(name, MetricValue::Gauge(0.0));
    }

    /// Registers `name` as a histogram if absent.
    pub fn declare_histogram(&mut self, name: &'static str) {
        self.slot(name, MetricValue::Histogram(Histogram::new()));
    }

    /// Adds `delta` to the counter `name`, declaring it if needed.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        match self.slot(name, MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += delta,
            other => unreachable_kind(name, "counter", other),
        }
    }

    /// Sets the gauge `name`, declaring it if needed.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.slot(name, MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(g) => *g = value,
            other => unreachable_kind(name, "gauge", other),
        }
    }

    /// Records a sample into the histogram `name`, declaring it if
    /// needed.
    pub fn record(&mut self, name: &'static str, value: f64) {
        match self.slot(name, MetricValue::Histogram(Histogram::new())) {
            MetricValue::Histogram(h) => h.record(value),
            other => unreachable_kind(name, "histogram", other),
        }
    }

    /// Metrics in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.entries.iter()
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metric has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a metric up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|m| m.name == name)
    }

    /// Convenience: current value of the counter `name` (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Metric {
                value: MetricValue::Counter(c),
                ..
            }) => *c,
            _ => 0,
        }
    }

    /// Merges `other` into `self`. Counters and gauges accumulate,
    /// histograms combine sample-wise; names absent from `self` append
    /// in `other`'s order, so merging per-run snapshots in run-index
    /// order is deterministic regardless of which runs touched which
    /// metrics.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for m in &other.entries {
            match (&m.value, self.slot(m.name, m.value.clone_empty())) {
                (MetricValue::Counter(c), MetricValue::Counter(mine)) => *mine += c,
                (MetricValue::Gauge(g), MetricValue::Gauge(mine)) => *mine += g,
                (MetricValue::Histogram(h), MetricValue::Histogram(mine)) => mine.merge(h),
                (theirs, mine) => unreachable_kind(m.name, kind_name(theirs), mine),
            }
        }
    }
}

fn kind_name(v: &MetricValue) -> &'static str {
    match v {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    }
}

fn unreachable_kind(name: &str, wanted: &str, got: &MetricValue) -> ! {
    panic!(
        "metric {name:?} used as {wanted} but registered as {}",
        kind_name(got)
    )
}

impl MetricValue {
    fn clone_empty(&self) -> MetricValue {
        match self {
            MetricValue::Counter(_) => MetricValue::Counter(0),
            MetricValue::Gauge(_) => MetricValue::Gauge(0.0),
            MetricValue::Histogram(_) => MetricValue::Histogram(Histogram::new()),
        }
    }
}

/// Upper bucket bounds (inclusive) for [`Histogram`], in seconds. The
/// final implicit bucket is overflow. Bucketing is by comparison against
/// this table — no `log`, whose libm implementations vary by platform.
pub const BUCKET_BOUNDS: [f64; 13] = [
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
];

/// Fixed-bucket histogram over non-negative seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (`+inf` when empty).
    pub min: f64,
    /// Largest sample (`-inf` when empty).
    pub max: f64,
    buckets: [u64; BUCKET_BOUNDS.len() + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKET_BOUNDS.len() + 1],
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "histogram sample must be finite");
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[idx] += 1;
    }

    /// Mean sample, 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Per-bucket counts (last slot is overflow past [`BUCKET_BOUNDS`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Combines another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.span("s", "c", 0.0, 1.0, vec![]);
        r.instant("i", "c", 0.0, vec![]);
        r.add("n", 1);
        r.set("g", 1.0);
        r.record("h", 1.0);
    }

    #[test]
    fn memory_recorder_preserves_emission_order() {
        let mut r = MemoryRecorder::new();
        r.span("a", "c", 0.0, 1.0, vec![("k", Value::U64(1))]);
        r.instant("b", "c", 0.5, vec![]);
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[0].name, "a");
        assert_eq!(r.events[1].kind, EventKind::Instant);
    }

    #[test]
    fn registry_iterates_in_declaration_order() {
        let mut m = MetricsRegistry::new();
        m.declare_counter("z");
        m.declare_gauge("a");
        m.declare_histogram("m");
        m.add("z", 3);
        let names: Vec<&str> = m.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["z", "a", "m"]);
        assert_eq!(m.counter("z"), 3);
    }

    #[test]
    fn undeclared_touch_registers_in_first_touch_order() {
        let mut m = MetricsRegistry::new();
        m.record("h", 0.5);
        m.add("c", 1);
        let names: Vec<&str> = m.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["h", "c"]);
    }

    #[test]
    fn merge_accumulates_and_appends_missing_names() {
        let mut a = MetricsRegistry::new();
        a.add("shared", 1);
        let mut b = MetricsRegistry::new();
        b.add("shared", 2);
        b.set("only_b", 4.0);
        b.record("h", 2.0);
        a.merge(&b);
        assert_eq!(a.counter("shared"), 3);
        let names: Vec<&str> = a.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["shared", "only_b", "h"]);
        match &a.get("h").expect("merged histogram").value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
    fn histogram_buckets_by_comparison() {
        let mut h = Histogram::new();
        h.record(0.0); // <= 1e-6 → bucket 0
        h.record(0.5); // <= 1.0 → bucket 6
        h.record(2e6); // overflow
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[6], 1);
        assert_eq!(h.buckets()[BUCKET_BOUNDS.len()], 1);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 2e6);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_mismatch_panics() {
        let mut m = MetricsRegistry::new();
        m.add("x", 1);
        m.set("x", 1.0);
    }
}
