//! The process-wide metrics registry: monotonic counters, gauges, and
//! fixed log₂-bucket histograms, rendered as Prometheus text
//! exposition or single-line JSON.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are thin `Arc`s
//! around shared atomics: look one up once (the registry lock), cache
//! it, and every subsequent update is lock-free with no allocation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Histogram bucket count: bucket `i ≥ 1` holds values of bit length
/// `i` (the range `[2^(i−1), 2^i − 1]`); bucket 0 holds exactly 0.
const BUCKETS: usize = 65;

/// Canonical identity of one metric: name plus sorted label pairs,
/// ordered by name, then labels.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// The Prometheus-style rendering: `name` or `name{k="v",...}`.
    fn render(&self) -> String {
        render_labeled(&self.name, &self.labels, None)
    }
}

/// Renders `name{labels...}`, optionally with an extra trailing label
/// (the histogram `le` bound).
fn render_labeled(name: &str, labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Escapes a label value / JSON string (the shared subset: backslash,
/// quote, newline — metric names and labels are ASCII identifiers in
/// practice).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One registered metric of whichever kind.
#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The name → metric map behind the free functions.
struct Registry(Mutex<BTreeMap<MetricId, Metric>>);

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry(Mutex::new(BTreeMap::new())))
}

impl Registry {
    fn get_or_insert(&self, id: MetricId, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.0.lock().unwrap_or_else(|p| p.into_inner());
        map.entry(id).or_insert_with(make).clone()
    }

    /// Every registered metric, in [`MetricId`] order.
    fn snapshot(&self) -> Vec<(MetricId, Metric)> {
        let map = self.0.lock().unwrap_or_else(|p| p.into_inner());
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic; updates are lock-free.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways. Cloning shares the
/// underlying atomic.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Interior of a histogram: one atomic per log₂ bucket plus count and
/// sum.
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// The bucket a value lands in: its bit length (0 for 0).
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed log₂-bucket histogram of `u64` samples (typically
/// nanoseconds). [`Histogram::observe`] is three relaxed atomic adds —
/// no locks, no allocation — so it is safe on the trial hot path.
/// Percentiles read out as nearest-rank bucket upper bounds, accurate
/// to within a factor of two (ample for latency trajectories).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The nearest-rank `p`-th percentile (0–100) as the matching
    /// bucket's upper bound; 0 when the histogram is empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.0.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bound(i) as f64;
            }
        }
        bucket_bound(BUCKETS - 1) as f64
    }

    /// Starts a timer that records its elapsed nanoseconds into this
    /// histogram when dropped.
    pub fn start_timer(&self) -> HistogramTimer {
        HistogramTimer {
            histogram: self.clone(),
            started: Instant::now(),
        }
    }

    /// Per-bucket `(inclusive upper bound, count)` pairs for the
    /// non-empty buckets, in ascending bound order.
    fn nonempty_buckets(&self) -> Vec<(u64, u64)> {
        (0..BUCKETS)
            .filter_map(|i| {
                let n = self.0.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_bound(i), n))
            })
            .collect()
    }
}

/// RAII timer from [`Histogram::start_timer`]: observes the elapsed
/// wall time in nanoseconds on drop.
pub struct HistogramTimer {
    histogram: Histogram,
    started: Instant,
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.histogram
            .observe(self.started.elapsed().as_nanos() as u64);
    }
}

fn mismatch(id: &MetricId, want: &str, got: &Metric) -> ! {
    panic!(
        "metric {:?} is already registered as a {}, not a {want}",
        id.render(),
        got.kind()
    )
}

/// The counter named `name`, registering it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Counter {
    counter_labeled(name, &[])
}

/// The counter named `name` with the given label pairs.
///
/// # Panics
///
/// Panics if the identity is already registered as a different kind.
pub fn counter_labeled(name: &str, labels: &[(&str, &str)]) -> Counter {
    let id = MetricId::new(name, labels);
    match registry().get_or_insert(id.clone(), || {
        Metric::Counter(Counter(Arc::new(AtomicU64::new(0))))
    }) {
        Metric::Counter(c) => c,
        other => mismatch(&id, "counter", &other),
    }
}

/// The gauge named `name`, registering it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Gauge {
    gauge_labeled(name, &[])
}

/// The gauge named `name` with the given label pairs.
///
/// # Panics
///
/// Panics if the identity is already registered as a different kind.
pub fn gauge_labeled(name: &str, labels: &[(&str, &str)]) -> Gauge {
    let id = MetricId::new(name, labels);
    match registry().get_or_insert(id.clone(), || {
        Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0))))
    }) {
        Metric::Gauge(g) => g,
        other => mismatch(&id, "gauge", &other),
    }
}

/// The histogram named `name`, registering it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> Histogram {
    histogram_labeled(name, &[])
}

/// The histogram named `name` with the given label pairs.
///
/// # Panics
///
/// Panics if the identity is already registered as a different kind.
pub fn histogram_labeled(name: &str, labels: &[(&str, &str)]) -> Histogram {
    let id = MetricId::new(name, labels);
    match registry().get_or_insert(id.clone(), || {
        Metric::Histogram(Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        })))
    }) {
        Metric::Histogram(h) => h,
        other => mismatch(&id, "histogram", &other),
    }
}

/// Renders the whole registry in Prometheus text exposition format
/// (version 0.0.4): one `# TYPE` line per family, counters and gauges
/// as single samples, histograms as cumulative `_bucket{le=...}`
/// series plus `_sum` and `_count`. This is the body the daemon's
/// `GET /metrics` endpoint serves.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    let mut last_family: Option<String> = None;
    for (id, metric) in registry().snapshot() {
        if last_family.as_deref() != Some(id.name.as_str()) {
            out.push_str("# TYPE ");
            out.push_str(&id.name);
            out.push(' ');
            out.push_str(metric.kind());
            out.push('\n');
            last_family = Some(id.name.clone());
        }
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("{} {}\n", id.render(), c.get()));
            }
            Metric::Gauge(g) => {
                out.push_str(&format!("{} {}\n", id.render(), g.get()));
            }
            Metric::Histogram(h) => {
                let mut cumulative = 0u64;
                for (bound, n) in h.nonempty_buckets() {
                    cumulative += n;
                    let le = bound.to_string();
                    let series = render_labeled(
                        &format!("{}_bucket", id.name),
                        &id.labels,
                        Some(("le", &le)),
                    );
                    out.push_str(&format!("{series} {cumulative}\n"));
                }
                let inf = render_labeled(
                    &format!("{}_bucket", id.name),
                    &id.labels,
                    Some(("le", "+Inf")),
                );
                out.push_str(&format!("{inf} {}\n", h.count()));
                out.push_str(&format!(
                    "{} {}\n",
                    render_labeled(&format!("{}_sum", id.name), &id.labels, None),
                    h.sum()
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    render_labeled(&format!("{}_count", id.name), &id.labels, None),
                    h.count()
                ));
            }
        }
    }
    out
}

/// Renders the whole registry as one single-line JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{...}}`, histograms
/// as `{count, sum, p50, p95, p99}`. This is the payload of the
/// daemon's `metrics` socket verb — the same registry `GET /metrics`
/// exposes, in machine-readable form.
pub fn render_json() -> String {
    use std::fmt::Write as _;
    let snapshot = registry().snapshot();
    let mut counters = String::new();
    let mut gauges = String::new();
    let mut histograms = String::new();
    for (id, metric) in &snapshot {
        let key = escape(&id.render());
        match metric {
            Metric::Counter(c) => {
                if !counters.is_empty() {
                    counters.push(',');
                }
                write!(counters, "\"{key}\":{}", c.get()).expect("string write");
            }
            Metric::Gauge(g) => {
                if !gauges.is_empty() {
                    gauges.push(',');
                }
                write!(gauges, "\"{key}\":{}", g.get()).expect("string write");
            }
            Metric::Histogram(h) => {
                if !histograms.is_empty() {
                    histograms.push(',');
                }
                write!(
                    histograms,
                    "\"{key}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                    h.count(),
                    h.sum(),
                    h.percentile(50.0),
                    h.percentile(95.0),
                    h.percentile(99.0),
                )
                .expect("string write");
            }
        }
    }
    format!(
        "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let c = counter("test_registry_counter_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // A second lookup shares the same atomic.
        assert_eq!(counter("test_registry_counter_total").get(), 5);

        let g = gauge("test_registry_gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        assert_eq!(gauge("test_registry_gauge").get(), 4);
    }

    #[test]
    fn labeled_metrics_are_distinct_and_order_insensitive() {
        let a = counter_labeled("test_registry_labeled_total", &[("verb", "submit")]);
        let b = counter_labeled("test_registry_labeled_total", &[("verb", "status")]);
        a.inc();
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 1);
        // Label order does not change identity.
        let two = counter_labeled("test_registry_two_labels", &[("a", "1"), ("b", "2")]);
        let same = counter_labeled("test_registry_two_labels", &[("b", "2"), ("a", "1")]);
        two.inc();
        assert_eq!(same.get(), 1);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);

        let h = histogram("test_registry_hist_nanos");
        for v in [0u64, 1, 2, 3, 1000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_001_006);
        // p50: rank 3 of 6 → the bucket holding 2 and 3 (bound 3).
        assert_eq!(h.percentile(50.0), 3.0);
        // p99: rank 6 → the bucket holding 1_000_000.
        assert!(h.percentile(99.0) >= 1_000_000.0);
        assert_eq!(histogram("test_registry_hist_empty").percentile(95.0), 0.0);
    }

    #[test]
    fn timer_records_elapsed_nanos() {
        let h = histogram("test_registry_timer_nanos");
        {
            let _t = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1_000_000, "at least the 1ms sleep");
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        counter("test_registry_kind_clash");
        let _ = histogram("test_registry_kind_clash");
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        counter("test_prom_counter_total").add(3);
        gauge_labeled("test_prom_gauge", &[("site", "a")]).set(-2);
        let h = histogram("test_prom_hist_nanos");
        h.observe(5);
        h.observe(900);
        let text = render_prometheus();
        assert!(text.contains("# TYPE test_prom_counter_total counter"));
        assert!(text.contains("test_prom_counter_total 3"));
        assert!(text.contains("# TYPE test_prom_gauge gauge"));
        assert!(text.contains("test_prom_gauge{site=\"a\"} -2"));
        assert!(text.contains("# TYPE test_prom_hist_nanos histogram"));
        assert!(text.contains("test_prom_hist_nanos_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("test_prom_hist_nanos_sum 905"));
        assert!(text.contains("test_prom_hist_nanos_count 2"));
        // Cumulative bucket counts are non-decreasing.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("test_prom_hist_nanos_bucket{le=\"") {
                let n: u64 = rest
                    .rsplit(' ')
                    .next()
                    .expect("count field")
                    .parse()
                    .expect("count parses");
                assert!(n >= last, "cumulative histogram must not decrease");
                last = n;
            }
        }
    }

    #[test]
    fn json_rendering_is_single_line_and_covers_all_kinds() {
        counter("test_json_counter_total").inc();
        gauge("test_json_gauge").set(9);
        histogram("test_json_hist_nanos").observe(42);
        let json = render_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"test_json_counter_total\":1"));
        assert!(json.contains("\"test_json_gauge\":9"));
        assert!(json.contains("\"test_json_hist_nanos\":{\"count\":1"));
        assert!(json.contains("\"p95\":"));
    }

    #[test]
    fn eight_thread_hammer_keeps_exact_totals() {
        // The concurrency contract: N threads × M increments lose
        // nothing — counter totals, histogram counts, and histogram
        // sums are all exact.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                std::thread::spawn(move || {
                    let c = counter("test_hammer_total");
                    let h = histogram("test_hammer_nanos");
                    let g = gauge("test_hammer_gauge");
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.observe(t * PER_THREAD + i);
                        g.add(1);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("hammer thread");
        }
        assert_eq!(counter("test_hammer_total").get(), THREADS * PER_THREAD);
        let h = histogram("test_hammer_nanos");
        assert_eq!(h.count(), THREADS * PER_THREAD);
        // Sum of 0..80_000.
        let n = THREADS * PER_THREAD;
        assert_eq!(h.sum(), n * (n - 1) / 2);
        assert_eq!(
            gauge("test_hammer_gauge").get(),
            (THREADS * PER_THREAD) as i64
        );
    }
}
