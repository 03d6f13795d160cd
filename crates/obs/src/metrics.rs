//! Lock-light metrics: atomic counters, gauges, and log2-bucket histograms
//! behind a [`Registry`] keyed by metric name + label set.
//!
//! # Design
//!
//! The hot path (`inc`, `add`, `set`, `record`) touches only atomics — no
//! locks. The registry's `Mutex` is taken once per *instrument lookup*, so
//! callers that care about throughput resolve their instruments up front and
//! hold the returned `Arc`s. Snapshots read the atomics with relaxed
//! ordering: they are statistically consistent (every recorded event is
//! eventually visible; `count`/`sum` are conserved) but not a point-in-time
//! cut across instruments.
//!
//! # Histogram error bound
//!
//! [`Histogram`] buckets values by their binary magnitude: value `0` lands
//! in bucket 0 and a value `v >= 1` lands in bucket `64 - v.leading_zeros()`,
//! i.e. bucket `i >= 1` covers the octave `[2^(i-1), 2^i - 1]`. Quantile
//! estimates ([`HistogramSnapshot::quantile`]) report the inclusive upper
//! bound of the bucket holding the requested rank, so a reported percentile
//! is **never an underestimate and overestimates by strictly less than 2x**
//! (one octave). `count`, `sum`, and `max` are exact (sums saturate at
//! `u64::MAX` instead of wrapping).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 for value 0, buckets `1..=64` for
/// each binary octave of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, otherwise the value's bit length.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the last one).
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // lint: relaxed-ok(pure statistic; fetch_add atomicity alone keeps the count exact)
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // lint: relaxed-ok(monitoring read; a slightly stale count is acceptable)
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that can move both ways (queue depth, cache
/// entries, session-table occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        // lint: relaxed-ok(gauge publishes no other data; last-writer-wins is the contract)
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        // lint: relaxed-ok(pure statistic; fetch_add atomicity alone keeps the sum exact)
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // lint: relaxed-ok(monitoring read; a slightly stale value is acceptable)
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed log2-bucket histogram with lock-free recording.
///
/// See the [module docs](self) for the bucketing scheme and the one-octave
/// error bound on quantile estimates.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation. Lock-free: three atomic RMW ops plus a
    /// saturating CAS loop for the sum.
    pub fn record(&self, value: u64) {
        // Each field is an independent statistic: RMW atomicity alone keeps
        // it exact, and no reader orders across fields — snapshot() tolerates
        // tearing by design.
        // lint: relaxed-ok(independent statistic; RMW atomicity alone keeps it exact)
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(independent statistic)
        self.max.fetch_max(value, Ordering::Relaxed); // lint: relaxed-ok(independent statistic)
                                                      // Saturating add: `fetch_update` loops only under contention *and*
                                                      // near-overflow, which real workloads never hit.
        let _ = self
            .sum
            // lint: relaxed-ok(statistic; CAS atomicity alone keeps the sum exact)
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            });
    }

    /// Takes a statistically consistent snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // The snapshot may tear across fields under concurrent recording;
        // each field is individually exact and the conservation property
        // tests bound the tear.
        HistogramSnapshot {
            // lint: relaxed-ok(field may tear vs others; individually exact)
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed), // lint: relaxed-ok(field may tear; exact alone)
            max: self.max.load(Ordering::Relaxed), // lint: relaxed-ok(field may tear; exact alone)
            // lint: relaxed-ok(field may tear vs others; individually exact)
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state, mergeable across instruments.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact).
    pub max: u64,
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one (counts add, sums saturate,
    /// maxes take the larger).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Mean of the observed values (exact up to sum saturation).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate for `q` in `[0, 1]`: the inclusive upper bound of
    /// the bucket containing the ranked observation. Overestimates by less
    /// than 2x, never underestimates (see module docs).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                // The global max caps the last occupied bucket's bound: it
                // is both tighter and exact when the bucket holds the max.
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// Identity of an instrument: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus-style: `[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders `name{label="value",...}` (bare `name` without labels).
    pub fn render(&self) -> String {
        let mut out = self.name.clone();
        out.push_str(&render_labels(&self.labels));
        out
    }
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named instruments.
///
/// Registration (`counter`/`gauge`/`histogram` and their `_with` label
/// variants) takes a `Mutex` and returns an `Arc` to the instrument —
/// repeated lookups of the same `(name, labels)` return the same instrument.
/// Hold the `Arc` on hot paths; the instruments themselves are lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<MetricKey, Instrument>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter `name` (no labels), creating it if absent.
    ///
    /// # Panics
    /// If `name` with these labels is already registered as a different
    /// instrument kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Returns the counter `name` with `labels`, creating it if absent.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        // lint: panic-ok(a poisoned registry mutex means a panic mid-registration; unrecoverable)
        let mut map = self.instruments.lock().expect("metrics registry poisoned");
        let entry = map
            .entry(key.clone())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::new())));
        match entry {
            Instrument::Counter(c) => Arc::clone(c),
            // lint: panic-ok(kind conflict is a programmer error; documented # Panics contract)
            other => panic!("{} already registered as {}", key.render(), other.kind()),
        }
    }

    /// Returns the gauge `name` (no labels), creating it if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Returns the gauge `name` with `labels`, creating it if absent.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        // lint: panic-ok(a poisoned registry mutex means a panic mid-registration; unrecoverable)
        let mut map = self.instruments.lock().expect("metrics registry poisoned");
        let entry = map
            .entry(key.clone())
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::new())));
        match entry {
            Instrument::Gauge(g) => Arc::clone(g),
            // lint: panic-ok(kind conflict is a programmer error; documented # Panics contract)
            other => panic!("{} already registered as {}", key.render(), other.kind()),
        }
    }

    /// Returns the histogram `name` (no labels), creating it if absent.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Returns the histogram `name` with `labels`, creating it if absent.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        // lint: panic-ok(a poisoned registry mutex means a panic mid-registration; unrecoverable)
        let mut map = self.instruments.lock().expect("metrics registry poisoned");
        let entry = map
            .entry(key.clone())
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new())));
        match entry {
            Instrument::Histogram(h) => Arc::clone(h),
            // lint: panic-ok(kind conflict is a programmer error; documented # Panics contract)
            other => panic!("{} already registered as {}", key.render(), other.kind()),
        }
    }

    /// Takes a snapshot of every registered instrument, sorted by key.
    pub fn snapshot(&self) -> RegistrySnapshot {
        // lint: panic-ok(a poisoned registry mutex means a panic mid-registration; unrecoverable)
        let map = self.instruments.lock().expect("metrics registry poisoned");
        let mut snap = RegistrySnapshot::default();
        for (key, instrument) in map.iter() {
            match instrument {
                Instrument::Counter(c) => snap.counters.push((key.clone(), c.get())),
                Instrument::Gauge(g) => snap.gauges.push((key.clone(), g.get())),
                Instrument::Histogram(h) => snap.histograms.push((key.clone(), h.snapshot())),
            }
        }
        snap
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Histograms emit cumulative `_bucket{le="..."}` series (up to the
    /// highest occupied bucket, then `le="+Inf"`), `_sum`, and `_count`.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// An owned, sorted snapshot of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(key, value)` for every counter.
    pub counters: Vec<(MetricKey, u64)>,
    /// `(key, value)` for every gauge.
    pub gauges: Vec<(MetricKey, i64)>,
    /// `(key, snapshot)` for every histogram.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Looks up a counter value by name + labels; 0 if absent.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = MetricKey::new(name, labels);
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sums every counter series sharing `name` regardless of labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Looks up a gauge value by name + labels; 0 if absent.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        let key = MetricKey::new(name, labels);
        self.gauges
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Looks up one histogram series by name + labels; empty if absent.
    pub fn histogram_value(&self, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
        let key = MetricKey::new(name, labels);
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    }

    /// Merges every histogram series sharing `name` into one snapshot.
    pub fn histogram_total(&self, name: &str) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::default();
        for (k, h) in &self.histograms {
            if k.name == name {
                total.merge(h);
            }
        }
        total
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: BTreeMap<&str, &'static str> = BTreeMap::new();
        for (key, _) in &self.counters {
            typed.entry(&key.name).or_insert("counter");
        }
        for (key, _) in &self.gauges {
            typed.entry(&key.name).or_insert("gauge");
        }
        for (key, _) in &self.histograms {
            typed.entry(&key.name).or_insert("histogram");
        }
        for (name, kind) in &typed {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            match *kind {
                "counter" => {
                    for (key, v) in self.counters.iter().filter(|(k, _)| k.name == *name) {
                        let _ = writeln!(out, "{} {v}", key.render());
                    }
                }
                "gauge" => {
                    for (key, v) in self.gauges.iter().filter(|(k, _)| k.name == *name) {
                        let _ = writeln!(out, "{} {v}", key.render());
                    }
                }
                _ => {
                    for (key, h) in self.histograms.iter().filter(|(k, _)| k.name == *name) {
                        render_prometheus_histogram(&mut out, key, h);
                    }
                }
            }
        }
        out
    }
}

fn render_prometheus_histogram(out: &mut String, key: &MetricKey, h: &HistogramSnapshot) {
    let last_occupied = h
        .buckets
        .iter()
        .rposition(|&n| n > 0)
        .unwrap_or(0)
        .min(HISTOGRAM_BUCKETS - 2);
    let mut cumulative = 0u64;
    for i in 0..=last_occupied {
        cumulative = cumulative.saturating_add(h.buckets[i]);
        let mut labels = key.labels.clone();
        labels.push(("le".to_string(), bucket_upper_bound(i).to_string()));
        labels.sort();
        let _ = writeln!(
            out,
            "{}_bucket{} {cumulative}",
            key.name,
            render_labels(&labels)
        );
    }
    let mut labels = key.labels.clone();
    labels.push(("le".to_string(), "+Inf".to_string()));
    labels.sort();
    let _ = writeln!(
        out,
        "{}_bucket{} {}",
        key.name,
        render_labels(&labels),
        h.count
    );
    let suffix = render_labels(&key.labels);
    let _ = writeln!(out, "{}_sum{suffix} {}", key.name, h.sum);
    let _ = writeln!(out, "{}_count{suffix} {}", key.name, h.count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(63), (1u64 << 63) - 1);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_records_zero_one_max_saturating() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.max, u64::MAX);
        // Sum saturates instead of wrapping.
        assert_eq!(s.sum, u64::MAX);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[64], 2);
    }

    #[test]
    fn quantile_upper_bounds_within_one_octave() {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 400, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        // p50 rank 3 => value 300, bucket [256,511] -> reported 511.
        let p50 = s.quantile(0.5);
        assert!((300..600).contains(&p50), "p50={p50}");
        // p100 is capped by the exact max.
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn quantile_never_underestimates() {
        let h = Histogram::new();
        let mut values: Vec<u64> = (0..200).map(|i| i * i + 1).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let s = h.snapshot();
        for q in [0.1, 0.25, 0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let est = s.quantile(q);
            assert!(est >= truth, "q={q}: est {est} < truth {truth}");
            assert!(est < truth * 2, "q={q}: est {est} >= 2x truth {truth}");
        }
    }

    #[test]
    fn snapshot_merge_conserves() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        a.record(9);
        b.record(1_000_000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 1_000_014);
        assert_eq!(merged.max, 1_000_000);
    }

    #[test]
    fn registry_returns_same_instrument_per_key() {
        let r = Registry::new();
        let c1 = r.counter_with("hits", &[("shard", "0")]);
        let c2 = r.counter_with("hits", &[("shard", "0")]);
        let c3 = r.counter_with("hits", &[("shard", "1")]);
        c1.inc();
        c2.inc();
        c3.inc();
        assert_eq!(c1.get(), 2);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("hits", &[("shard", "0")]), 2);
        assert_eq!(snap.counter_total("hits"), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_panics_on_kind_mismatch() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn concurrent_records_conserve_count_and_sum() {
        let h = Arc::new(Histogram::new());
        let threads = 4;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let s = h.snapshot();
        let n = threads * per_thread;
        assert_eq!(s.count, n);
        assert_eq!(s.sum, n * (n - 1) / 2);
        assert_eq!(s.buckets.iter().sum::<u64>(), n);
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let r = Registry::new();
        r.counter("requests_total").add(3);
        r.gauge_with("depth", &[("queue", "verify")]).set(-2);
        let h = r.histogram_with("latency_micros", &[("stage", "plan")]);
        h.record(0);
        h.record(5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 3"));
        assert!(text.contains("depth{queue=\"verify\"} -2"));
        assert!(text.contains("# TYPE latency_micros histogram"));
        assert!(text.contains("latency_micros_bucket{le=\"0\",stage=\"plan\"} 1"));
        assert!(text.contains("latency_micros_bucket{le=\"7\",stage=\"plan\"} 2"));
        assert!(text.contains("latency_micros_bucket{le=\"+Inf\",stage=\"plan\"} 2"));
        assert!(text.contains("latency_micros_sum{stage=\"plan\"} 5"));
        assert!(text.contains("latency_micros_count{stage=\"plan\"} 2"));
    }
}
