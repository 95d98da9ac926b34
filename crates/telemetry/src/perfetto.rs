//! Chrome-trace-event export for `ui.perfetto.dev`.
//!
//! Two sources feed the exporter, each rendered as its own labelled
//! process so one merged trace shows compile → verify → simulate →
//! real run side by side:
//!
//! * the **simulator** [`Timeline`] — process `pid` 1 named after the
//!   machine, one track (`tid`) per [`ufc_sim::ResKind`], one `"X"`
//!   complete event per busy slice. Timestamps are simulator cycles
//!   reported as microseconds; Perfetto only needs a consistent unit,
//!   and cycles keep the view aligned with the summary tables.
//! * the **host recording** ([`ufc_trace::HostTrace`]) — process
//!   `pid` 2 named `ufc-host`, one track per recorded thread, one
//!   `"X"` event per span (wall-clock nanoseconds reported as
//!   fractional microseconds) and one `"C"` counter event per gauge
//!   sample.
//!
//! Every process and thread gets `"M"` metadata events
//! (`process_name` / `process_sort_index` / `thread_name`), so merged
//! traces label their tracks instead of showing bare ids.

use crate::timeline::Timeline;
use serde::Value;
use ufc_trace::HostTrace;

/// Process id used for the simulator timeline.
pub const SIM_PID: u64 = 1;
/// Process id used for host-recorded spans and gauges.
pub const HOST_PID: u64 = 2;

/// Builds the Chrome-trace JSON value for a recorded simulator run.
pub fn to_value(timeline: &Timeline) -> Value {
    let mut events: Vec<Value> = Vec::new();
    push_sim_events(&mut events, timeline);
    wrap(events)
}

/// Builds one Chrome-trace JSON value holding the simulator timeline
/// (if any) and the host recording as two labelled processes.
pub fn merged_to_value(timeline: Option<&Timeline>, host: &HostTrace) -> Value {
    let mut events: Vec<Value> = Vec::new();
    if let Some(tl) = timeline {
        push_sim_events(&mut events, tl);
    }
    push_host_events(&mut events, host);
    wrap(events)
}

/// The simulator trace as a JSON string, ready for `ui.perfetto.dev`.
pub fn to_string(timeline: &Timeline) -> String {
    to_value(timeline).to_json()
}

/// The merged sim+host trace as a JSON string.
pub fn merged_to_string(timeline: Option<&Timeline>, host: &HostTrace) -> String {
    merged_to_value(timeline, host).to_json()
}

fn wrap(events: Vec<Value>) -> Value {
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::Str("ns".into())),
    ])
}

fn push_sim_events(events: &mut Vec<Value>, timeline: &Timeline) {
    // Process metadata: name the simulator process after the machine
    // and pin it above the host process in the UI.
    events.push(meta(
        "process_name",
        SIM_PID,
        0,
        vec![("name".into(), Value::Str(timeline.machine().to_owned()))],
    ));
    events.push(meta(
        "process_sort_index",
        SIM_PID,
        0,
        vec![("sort_index".into(), Value::U64(0))],
    ));
    // One named thread (track) per resource that appears in the run.
    let active = timeline.resources();
    for res in &active {
        events.push(meta(
            "thread_name",
            SIM_PID,
            tid_of(*res),
            vec![("name".into(), Value::Str(res.name().to_owned()))],
        ));
    }
    // One complete event per busy slice.
    for rec in timeline.records() {
        for &(res, cycles) in &rec.demands {
            if cycles == 0 {
                continue;
            }
            let args: Vec<(String, Value)> = vec![
                ("id".into(), Value::U64(rec.sched.id as u64)),
                ("kernel".into(), Value::Str(rec.kernel.to_owned())),
                ("phase".into(), Value::Str(rec.phase.to_owned())),
                (
                    "shape".into(),
                    Value::Str(format!("2^{} x{}", rec.log_n, rec.count)),
                ),
                ("hbm_bytes".into(), Value::U64(rec.hbm_bytes)),
                ("dep_stall".into(), Value::U64(rec.sched.dep_stall)),
                ("res_stall".into(), Value::U64(rec.sched.res_stall)),
            ];
            events.push(Value::Object(vec![
                (
                    "name".into(),
                    Value::Str(format!("{}#{}", rec.kernel, rec.sched.id)),
                ),
                ("cat".into(), Value::Str(rec.phase.to_owned())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::U64(rec.sched.start)),
                ("dur".into(), Value::U64(cycles)),
                ("pid".into(), Value::U64(SIM_PID)),
                ("tid".into(), Value::U64(tid_of(res))),
                ("args".into(), Value::Object(args)),
            ]));
        }
    }
}

fn push_host_events(events: &mut Vec<Value>, host: &HostTrace) {
    events.push(meta(
        "process_name",
        HOST_PID,
        0,
        vec![("name".into(), Value::Str("ufc-host".into()))],
    ));
    events.push(meta(
        "process_sort_index",
        HOST_PID,
        0,
        vec![("sort_index".into(), Value::U64(1))],
    ));
    // One named track per thread seen in the recording, ascending.
    let mut threads: Vec<u32> = host.spans.iter().map(|s| s.thread).collect();
    threads.extend(host.gauges.iter().map(|g| g.thread));
    threads.sort_unstable();
    threads.dedup();
    for t in &threads {
        events.push(meta(
            "thread_name",
            HOST_PID,
            *t as u64,
            vec![("name".into(), Value::Str(format!("host-t{t}")))],
        ));
    }
    // Host spans are wall-clock nanoseconds; Chrome-trace ts/dur are
    // microseconds, so export fractional µs to keep ns precision.
    for span in &host.spans {
        let mut args: Vec<(String, Value)> = vec![("cat".into(), Value::Str(span.cat.into()))];
        if !span.tag.is_empty() {
            args.push(("tag".into(), Value::Str(span.tag.into())));
        }
        if span.detail != 0 {
            args.push(("detail".into(), Value::U64(span.detail)));
        }
        events.push(Value::Object(vec![
            ("name".into(), Value::Str(span.key())),
            ("cat".into(), Value::Str(span.cat.into())),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), Value::F64(span.start_ns as f64 / 1000.0)),
            ("dur".into(), Value::F64(span.dur_ns.max(1) as f64 / 1000.0)),
            ("pid".into(), Value::U64(HOST_PID)),
            ("tid".into(), Value::U64(span.thread as u64)),
            ("args".into(), Value::Object(args)),
        ]));
    }
    // Gauge samples render as counter tracks.
    for g in &host.gauges {
        events.push(Value::Object(vec![
            ("name".into(), Value::Str(g.name.into())),
            ("ph".into(), Value::Str("C".into())),
            ("ts".into(), Value::F64(g.at_ns as f64 / 1000.0)),
            ("pid".into(), Value::U64(HOST_PID)),
            ("tid".into(), Value::U64(0)),
            (
                "args".into(),
                Value::Object(vec![("value".into(), Value::F64(g.value))]),
            ),
        ]));
    }
}

/// Stable track id for a resource: its index in
/// [`ALL_RESOURCES`](ufc_sim::engine::ALL_RESOURCES),
/// offset by 1 so tid 0 stays free for metadata.
fn tid_of(res: ufc_sim::ResKind) -> u64 {
    res as u64 + 1
}

fn meta(name: &str, pid: u64, tid: u64, args: Vec<(String, Value)>) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(name.into())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), Value::U64(pid)),
        ("tid".into(), Value::U64(tid)),
        ("args".into(), Value::Object(args)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_isa::instr::{InstrStream, Kernel, Phase, PolyShape};
    use ufc_sim::{simulate_with, UfcMachine};
    use ufc_trace::{GaugeSample, HostSpan};

    #[test]
    fn slice_count_matches_nonzero_demands() {
        let shape = PolyShape::new(12, 4);
        let mut s = InstrStream::new();
        s.push(Kernel::Ntt, shape, 36, vec![], 1 << 14, Phase::CkksEval);
        s.push(Kernel::Ewma, shape, 36, vec![0], 0, Phase::CkksEval);
        let machine = UfcMachine::paper_default();
        let mut tl = Timeline::new();
        simulate_with(&machine, &s, &mut tl);

        let expect: usize = tl
            .records()
            .iter()
            .map(|r| r.demands.iter().filter(|&&(_, c)| c > 0).count())
            .sum();
        let v = to_value(&tl);
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let slices = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .count();
        assert_eq!(slices, expect);
        assert!(slices > 0);

        // Round-trips through the JSON parser.
        let parsed = serde_json::from_str(&to_string(&tl)).unwrap();
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            events.len()
        );
    }

    fn sample_host() -> HostTrace {
        HostTrace {
            spans: vec![
                HostSpan {
                    cat: "math",
                    name: "ntt_forward",
                    tag: "radix4",
                    detail: 64,
                    start_ns: 100,
                    dur_ns: 2_500,
                    thread: 1,
                },
                HostSpan {
                    cat: "ckks",
                    name: "rescale",
                    tag: "",
                    detail: 0,
                    start_ns: 3_000,
                    dur_ns: 900,
                    thread: 2,
                },
            ],
            gauges: vec![GaugeSample {
                name: "ckks/measured_precision_bits",
                value: 21.5,
                at_ns: 4_000,
                thread: 1,
            }],
        }
    }

    #[test]
    fn merged_trace_labels_both_processes() {
        let shape = PolyShape::new(12, 1);
        let mut s = InstrStream::new();
        s.push(Kernel::Ntt, shape, 36, vec![], 0, Phase::CkksEval);
        let mut tl = Timeline::new();
        simulate_with(&UfcMachine::paper_default(), &s, &mut tl);

        let host = sample_host();
        let v = merged_to_value(Some(&tl), &host);
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();

        let process_names: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .map(|e| {
                (
                    e.get("pid").and_then(Value::as_u64).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        .unwrap(),
                )
            })
            .collect();
        assert!(process_names.iter().any(|(pid, _)| *pid == SIM_PID));
        assert!(process_names.contains(&(HOST_PID, "ufc-host")));

        // Host thread tracks are named, one per distinct recorded thread.
        let host_threads: Vec<&str> = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some("thread_name")
                    && e.get("pid").and_then(Value::as_u64) == Some(HOST_PID)
            })
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(host_threads, vec!["host-t1", "host-t2"]);

        // Both host spans land under pid 2 with fractional-µs stamps,
        // and the gauge shows up as one counter event.
        let host_slices: Vec<&Value> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some("X")
                    && e.get("pid").and_then(Value::as_u64) == Some(HOST_PID)
            })
            .collect();
        assert_eq!(host_slices.len(), 2);
        assert_eq!(
            host_slices[0].get("name").and_then(Value::as_str),
            Some("math/ntt_forward[radix4]")
        );
        assert_eq!(host_slices[0].get("dur").and_then(Value::as_f64), Some(2.5));
        let counters = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .count();
        assert_eq!(counters, 1);

        // The whole merged document survives a JSON round-trip.
        let parsed = serde_json::from_str(&merged_to_string(Some(&tl), &host)).unwrap();
        assert!(parsed
            .get("traceEvents")
            .and_then(Value::as_array)
            .is_some());
    }

    #[test]
    fn host_only_merge_needs_no_timeline() {
        let host = sample_host();
        let v = merged_to_value(None, &host);
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        assert!(!events
            .iter()
            .any(|e| e.get("pid").and_then(Value::as_u64) == Some(SIM_PID)));
        assert!(events
            .iter()
            .any(|e| e.get("pid").and_then(Value::as_u64) == Some(HOST_PID)));
    }
}
