//! Named counters, gauges, and log-bucketed latency histograms.
//!
//! Shared by the JSONL sink (instruction counts per kernel, HBM bytes
//! per phase, stall totals), by the scheme-level crates for op-count
//! instrumentation (`ufc-workloads` counts trace ops as its builders
//! emit them), and by the host-tracing aggregation (`crate::host`)
//! which folds recorded span durations into per-operation histograms.
//! Everything is keyed by `namespace/name` strings and reads out
//! deterministically (sorted by key), so registry snapshots diff
//! cleanly and can be pinned by golden tests.

use std::collections::BTreeMap;

/// A log-bucketed (power-of-two) histogram of `u64` samples,
/// typically span durations in nanoseconds.
///
/// Bucket `b` holds samples whose bit-length is `b` — i.e. values in
/// `[2^(b-1), 2^b)` — with 0 landing in bucket 0. 64 buckets cover
/// the full `u64` range, so nothing is ever clamped; `count`, `sum`,
/// and `max` are exact, while quantiles are bucket-resolution
/// (reported as the inclusive upper bound of the bucket the quantile
/// falls in — at most 2x the true value, which is plenty to separate
/// a 400 ns butterfly from a 40 µs keyswitch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    max: u64,
}

fn bucket_of(value: u64) -> u32 {
    64 - value.leading_zeros()
}

/// Inclusive upper bound of a bucket index (`2^b - 1`).
fn bucket_upper(bucket: u32) -> u64 {
    if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        *self.buckets.entry(bucket_of(value)).or_insert(0) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-resolution quantile: the inclusive upper bound of the
    /// bucket the `q`-quantile sample falls in. `q` is clamped to
    /// `[0, 1]`; returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(*bucket).min(self.max);
            }
        }
        self.max
    }

    /// Occupied buckets as `(inclusive_upper_bound, count)`, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .map(|(b, n)| (bucket_upper(*b), *n))
            .collect()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in &other.buckets {
            *self.buckets.entry(*b).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

impl serde::Serialize for Histogram {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("count".into(), serde::Value::U64(self.count)),
            ("sum".into(), serde::Value::U64(self.sum)),
            ("max".into(), serde::Value::U64(self.max)),
            ("mean".into(), serde::Value::F64(self.mean())),
            ("p50".into(), serde::Value::U64(self.quantile(0.5))),
            ("p99".into(), serde::Value::U64(self.quantile(0.99))),
            (
                "buckets".into(),
                serde::Value::Array(
                    self.buckets()
                        .into_iter()
                        .map(|(le, n)| {
                            serde::Value::Object(vec![
                                ("le".into(), serde::Value::U64(le)),
                                ("n".into(), serde::Value::U64(n)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Monotonic named counters plus gauges and latency histograms, all
/// deterministic on read-out (every map is a `BTreeMap`, so snapshots
/// and serialization come out sorted by key).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (creating it at 0),
    /// saturating at `u64::MAX`.
    pub fn add(&mut self, name: &str, delta: u64) {
        let c = self.counters.entry(name.to_owned()).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Increments the counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Records one sample into the histogram `name` (creating it).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value);
    }

    /// The histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(&str, &Histogram)> {
        self.histograms
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect()
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether nothing (counter, gauge, or histogram) has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// All counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Counters under a `prefix/` namespace, prefix stripped.
    pub fn namespace(&self, prefix: &str) -> Vec<(String, u64)> {
        let full = format!("{prefix}/");
        self.counters
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(&full).map(|rest| (rest.to_owned(), *v)))
            .collect()
    }

    /// Folds another registry into this one: counters and histogram
    /// buckets sum, gauges take the other side's value (last write
    /// wins, matching `set_gauge`).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

impl serde::Serialize for MetricsRegistry {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "counters".into(),
                serde::Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), serde::Value::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                serde::Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), serde::Value::F64(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                serde::Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), serde::Serialize::to_value(v)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let mut m = MetricsRegistry::new();
        m.inc("kernel/Ntt");
        m.add("kernel/Ntt", 2);
        m.inc("kernel/Ewma");
        assert_eq!(m.get("kernel/Ntt"), 3);
        assert_eq!(m.get("missing"), 0);
        let snap = m.snapshot();
        assert_eq!(
            snap,
            vec![
                ("kernel/Ewma".to_string(), 1),
                ("kernel/Ntt".to_string(), 3)
            ]
        );
    }

    #[test]
    fn counters_saturate() {
        // Byte counters summed over max-field stream lines reach the
        // top of the range; they pin there instead of overflowing.
        let mut m = MetricsRegistry::new();
        m.add("hbm", u64::MAX);
        m.add("hbm", 1);
        assert_eq!(m.get("hbm"), u64::MAX);
        let other = m.clone();
        m.merge(&other);
        assert_eq!(m.get("hbm"), u64::MAX);
    }

    #[test]
    fn namespaces_strip_prefix() {
        let mut m = MetricsRegistry::new();
        m.add("phase/CkksEval/hbm_bytes", 64);
        m.inc("kernel/Ntt");
        assert_eq!(
            m.namespace("phase"),
            vec![("CkksEval/hbm_bytes".to_string(), 64)]
        );
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.inc("x");
        a.observe("lat", 10);
        a.set_gauge("g", 1.0);
        let mut b = MetricsRegistry::new();
        b.add("x", 4);
        b.inc("y");
        b.observe("lat", 1000);
        b.set_gauge("g", 2.0);
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
        assert_eq!(a.gauge("g"), Some(2.0));
        let h = a.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.observe(v);
        }
        // 0 → bucket 0 (le 0); 1 → le 1; 2,3 → le 3; 4..=7 → le 7;
        // 8 → le 15; 1000 → le 1023.
        assert_eq!(
            h.buckets(),
            vec![(0, 1), (1, 1), (3, 2), (7, 2), (15, 1), (1023, 1)]
        );
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 1025.0 / 8.0);
    }

    #[test]
    fn histogram_quantiles_hit_bucket_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(100); // bucket le 127
        }
        h.observe(10_000); // bucket le 16383
        assert_eq!(h.quantile(0.5), 127);
        // The p100 sample is the outlier; quantile is capped at max.
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.quantile(0.0), 127);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn serializes_structured_and_sorted() {
        let mut m = MetricsRegistry::new();
        m.add("b", 2);
        m.add("a", 1);
        m.set_gauge("g", 0.5);
        let v = serde_json::to_string(&m).unwrap();
        assert_eq!(
            v,
            r#"{"counters":{"a":1,"b":2},"gauges":{"g":0.5},"histograms":{}}"#
        );
    }

    #[test]
    fn histogram_serializes_with_summary_stats() {
        let mut m = MetricsRegistry::new();
        m.observe("lat", 5);
        m.observe("lat", 6);
        let v = serde::Serialize::to_value(&m);
        let h = v
            .get("histograms")
            .and_then(|hs| hs.get("lat"))
            .expect("histogram serialized");
        assert_eq!(h.get("count").and_then(serde::Value::as_u64), Some(2));
        assert_eq!(h.get("sum").and_then(serde::Value::as_u64), Some(11));
        assert_eq!(h.get("max").and_then(serde::Value::as_u64), Some(6));
        assert!(h.get("buckets").and_then(serde::Value::as_array).is_some());
    }
}
