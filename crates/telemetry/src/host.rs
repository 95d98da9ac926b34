//! Aggregation and export for host-recorded span traces.
//!
//! `ufc-trace` collects raw [`HostSpan`]s from the instrumented
//! evaluator stack; this module turns a finished [`HostTrace`] into
//! the things people actually read:
//!
//! * [`report`] — per-operation aggregates (count / total / mean /
//!   p50 / p99 / max) sorted by total time, plus the per-NTT-kernel
//!   view and basic run facts (thread count, wall span);
//! * [`fold_into_registry`] — counters + log-bucketed latency
//!   histograms + gauges folded into a [`MetricsRegistry`], the same
//!   registry type the simulator profiles use, so host and sim metrics
//!   serialize through one deterministic path;
//! * [`to_jsonl`] — one JSON line per span/gauge for offline
//!   processing (`jq`, pandas).

use crate::metrics::{Histogram, MetricsRegistry};
use serde::Value;
use std::collections::BTreeMap;
use ufc_trace::{HostSpan, HostTrace};

/// Latency aggregate for one span key (`cat/name` or
/// `cat/name[tag]`).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAgg {
    /// The span key the aggregate covers.
    pub key: String,
    /// Number of spans recorded under the key.
    pub count: u64,
    /// Exact sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Exact mean duration, nanoseconds.
    pub mean_ns: f64,
    /// Bucket-resolution median, nanoseconds.
    pub p50_ns: u64,
    /// Bucket-resolution 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Largest single duration, nanoseconds.
    pub max_ns: u64,
}

impl SpanAgg {
    fn from_histogram(key: String, h: &Histogram) -> Self {
        SpanAgg {
            key,
            count: h.count(),
            total_ns: h.sum(),
            mean_ns: h.mean(),
            p50_ns: h.quantile(0.5),
            p99_ns: h.quantile(0.99),
            max_ns: h.max(),
        }
    }
}

/// Everything `ufc-profile --host` prints about one recording.
#[derive(Debug, Clone, Default)]
pub struct HostReport {
    /// Aggregates per span key, heaviest total first (key tie-break).
    pub spans: Vec<SpanAgg>,
    /// Aggregates for tagged spans only (NTT ops tagged with the
    /// active kernel generation), same ordering — the "per-kernel
    /// histogram summary" view.
    pub kernels: Vec<SpanAgg>,
    /// Final value per gauge name (last sample wins), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Number of distinct threads that recorded at least one span.
    pub threads: u64,
    /// Wall-clock extent of the recording: last span end minus first
    /// span start, nanoseconds.
    pub wall_ns: u64,
}

fn histograms_by_key(spans: &[HostSpan]) -> BTreeMap<String, Histogram> {
    let mut by_key: BTreeMap<String, Histogram> = BTreeMap::new();
    for s in spans {
        by_key.entry(s.key()).or_default().observe(s.dur_ns);
    }
    by_key
}

fn sorted_aggs(by_key: BTreeMap<String, Histogram>) -> Vec<SpanAgg> {
    let mut aggs: Vec<SpanAgg> = by_key
        .into_iter()
        .map(|(k, h)| SpanAgg::from_histogram(k, &h))
        .collect();
    // Heaviest first; the BTreeMap already yields keys sorted, and
    // the sort is stable, so equal totals keep key order.
    aggs.sort_by_key(|a| std::cmp::Reverse(a.total_ns));
    aggs
}

/// Builds the aggregate report for a finished recording.
pub fn report(host: &HostTrace) -> HostReport {
    let spans = sorted_aggs(histograms_by_key(&host.spans));
    let kernels = sorted_aggs(histograms_by_key(
        &host
            .spans
            .iter()
            .filter(|s| !s.tag.is_empty())
            .cloned()
            .collect::<Vec<_>>(),
    ));
    let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
    for g in &host.gauges {
        // `HostTrace.gauges` is sorted by sample time: last wins.
        gauges.insert(g.name.to_owned(), g.value);
    }
    let mut threads: Vec<u32> = host.spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let wall_ns = match (
        host.spans.iter().map(|s| s.start_ns).min(),
        host.spans.iter().map(|s| s.start_ns + s.dur_ns).max(),
    ) {
        (Some(lo), Some(hi)) => hi.saturating_sub(lo),
        _ => 0,
    };
    HostReport {
        spans,
        kernels,
        gauges: gauges.into_iter().collect(),
        threads: threads.len() as u64,
        wall_ns,
    }
}

/// Folds a recording into a [`MetricsRegistry`]:
/// `host/span/<key>/count` counters, `host/span/<key>/ns` latency
/// histograms, and one gauge per recorded gauge name (last sample
/// wins). The registry serializes sorted, so two identical runs
/// produce byte-identical metric dumps.
pub fn fold_into_registry(host: &HostTrace, registry: &mut MetricsRegistry) {
    for s in &host.spans {
        let key = s.key();
        registry.inc(&format!("host/span/{key}/count"));
        registry.observe(&format!("host/span/{key}/ns"), s.dur_ns);
    }
    for g in &host.gauges {
        registry.set_gauge(g.name, g.value);
    }
}

/// Renders a recording as JSON lines: one `span` line per span, one
/// `gauge` line per sample, in the trace's deterministic order.
pub fn to_jsonl(host: &HostTrace) -> String {
    let mut out = String::new();
    for s in &host.spans {
        let mut fields = vec![
            ("event".into(), Value::Str("span".into())),
            ("key".into(), Value::Str(s.key())),
            ("cat".into(), Value::Str(s.cat.into())),
            ("name".into(), Value::Str(s.name.into())),
        ];
        if !s.tag.is_empty() {
            fields.push(("tag".into(), Value::Str(s.tag.into())));
        }
        if s.detail != 0 {
            fields.push(("detail".into(), Value::U64(s.detail)));
        }
        fields.extend([
            ("start_ns".into(), Value::U64(s.start_ns)),
            ("dur_ns".into(), Value::U64(s.dur_ns)),
            ("thread".into(), Value::U64(s.thread as u64)),
        ]);
        out.push_str(&Value::Object(fields).to_json());
        out.push('\n');
    }
    for g in &host.gauges {
        out.push_str(
            &Value::Object(vec![
                ("event".into(), Value::Str("gauge".into())),
                ("name".into(), Value::Str(g.name.into())),
                ("value".into(), Value::F64(g.value)),
                ("at_ns".into(), Value::U64(g.at_ns)),
                ("thread".into(), Value::U64(g.thread as u64)),
            ])
            .to_json(),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_trace::GaugeSample;

    fn span(name: &'static str, tag: &'static str, start: u64, dur: u64, thread: u32) -> HostSpan {
        HostSpan {
            cat: "math",
            name,
            tag,
            detail: 0,
            start_ns: start,
            dur_ns: dur,
            thread,
        }
    }

    fn sample() -> HostTrace {
        HostTrace {
            spans: vec![
                span("ntt_forward", "radix4", 0, 100, 1),
                span("ntt_forward", "radix4", 200, 300, 2),
                span("mul_assign", "", 600, 50, 1),
            ],
            gauges: vec![
                GaugeSample {
                    name: "ckks/measured_precision_bits",
                    value: 20.0,
                    at_ns: 10,
                    thread: 1,
                },
                GaugeSample {
                    name: "ckks/measured_precision_bits",
                    value: 21.0,
                    at_ns: 700,
                    thread: 1,
                },
            ],
        }
    }

    #[test]
    fn report_aggregates_and_orders_by_total() {
        let r = report(&sample());
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0].key, "math/ntt_forward[radix4]");
        assert_eq!(r.spans[0].count, 2);
        assert_eq!(r.spans[0].total_ns, 400);
        assert_eq!(r.spans[0].max_ns, 300);
        assert_eq!(r.spans[1].key, "math/mul_assign");
        // Kernel view keeps only tagged spans.
        assert_eq!(r.kernels.len(), 1);
        assert_eq!(r.kernels[0].key, "math/ntt_forward[radix4]");
        // Last gauge sample wins.
        assert_eq!(
            r.gauges,
            vec![("ckks/measured_precision_bits".to_string(), 21.0)]
        );
        assert_eq!(r.threads, 2);
        assert_eq!(r.wall_ns, 650);
    }

    #[test]
    fn fold_populates_counters_histograms_gauges() {
        let mut reg = MetricsRegistry::new();
        fold_into_registry(&sample(), &mut reg);
        assert_eq!(reg.get("host/span/math/ntt_forward[radix4]/count"), 2);
        assert_eq!(reg.get("host/span/math/mul_assign/count"), 1);
        let h = reg
            .histogram("host/span/math/ntt_forward[radix4]/ns")
            .unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 400);
        assert_eq!(reg.gauge("ckks/measured_precision_bits"), Some(21.0));
    }

    #[test]
    fn jsonl_lines_parse_and_cover_all_events() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let mut spans = 0;
        let mut gauges = 0;
        for line in &lines {
            let v = serde_json::from_str(line).unwrap();
            match v.get("event").and_then(Value::as_str) {
                Some("span") => {
                    spans += 1;
                    assert!(v.get("dur_ns").and_then(Value::as_u64).is_some());
                }
                Some("gauge") => {
                    gauges += 1;
                    assert!(v.get("value").and_then(Value::as_f64).is_some());
                }
                other => panic!("unexpected event {other:?} in {line}"),
            }
        }
        assert_eq!((spans, gauges), (3, 2));
    }
}
