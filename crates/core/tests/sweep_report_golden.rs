//! Golden pins for the whole [`SimReport`] of every design-sweep
//! trace: the 24 Fig. 10(a)/(b) traces (the CKKS workloads on C1–C3,
//! the TFHE workloads on T1–T4) compiled with the barrier-aware
//! compiler and simulated on `Ufc::paper_default()`.
//!
//! Two pins, both on deterministic output:
//! - each trace's makespan against `benchmark/sim_golden.json`, the
//!   same file the benchmark's `sim_sweep` request checks;
//! - one digest over all 24 serialized reports, so energy bits,
//!   utilization shares and their order, and phase totals are pinned
//!   too, not just cycles.
//!
//! The digest is a 64-bit FNV-1a written out below (not
//! `DefaultHasher`, whose output may change between Rust releases)
//! over each report's pretty JSON followed by the raw bits of its
//! floating-point fields. Rust prints `f64` shortest-round-trip, so
//! the JSON alone already pins every bit; the raw bits make that
//! explicit.

use ufc_core::runner::{try_compile_with_barriers_stats, Ufc};
use ufc_isa::trace::Trace;
use ufc_sim::{simulate, SimReport};
use ufc_workloads::{all_ckks_workloads, all_tfhe_workloads};

/// Pinned cycle counts, one `"<set>/<trace name>": cycles` entry per
/// trace.
const GOLDEN: &str = include_str!("../../../benchmark/sim_golden.json");

/// FNV-1a over every report, in sweep order.
const REPORT_DIGEST: u64 = 0x3ec3_5e14_1357_b4b4;

/// The 24 sweep traces, keyed `"<set>/<trace name>"` in the golden
/// file's order.
fn sweep_traces() -> Vec<(String, Trace)> {
    let ckks = ["C1", "C2", "C3"]
        .into_iter()
        .flat_map(|p| all_ckks_workloads(p).into_iter().map(move |t| (p, t)));
    let tfhe = ["T1", "T2", "T3", "T4"]
        .into_iter()
        .flat_map(|p| all_tfhe_workloads(p).into_iter().map(move |t| (p, t)));
    ckks.chain(tfhe)
        .map(|(p, t)| (format!("{p}/{}", t.name), t))
        .collect()
}

fn golden_cycles() -> Vec<(String, u64)> {
    match serde_json::from_str(GOLDEN).expect("sim_golden.json parses") {
        serde::Value::Object(entries) => entries
            .into_iter()
            .map(|(k, v)| (k, v.as_u64().expect("cycle counts are integers")))
            .collect(),
        other => panic!("sim_golden.json must be an object, found {other:?}"),
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn report_digest(reports: &[SimReport]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in reports {
        h = fnv1a(h, serde::Serialize::to_value(r).to_json_pretty().as_bytes());
        let floats = [r.seconds, r.energy_j, r.dynamic_j, r.static_j, r.area_mm2];
        for x in floats
            .into_iter()
            .chain(r.utilization.iter().map(|&(_, u)| u))
        {
            h = fnv1a(h, &x.to_bits().to_le_bytes());
        }
    }
    h
}

#[test]
fn every_sweep_report_matches_golden() {
    let ufc = Ufc::paper_default();
    let traces = sweep_traces();
    let golden = golden_cycles();
    assert_eq!(
        traces.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        golden.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        "the golden file pins every sweep trace once, in order"
    );

    let mut reports = Vec::with_capacity(traces.len());
    for ((key, trace), (_, want)) in traces.iter().zip(&golden) {
        let (stream, _stats) =
            try_compile_with_barriers_stats(trace, *ufc.options()).expect("sweep traces compile");
        let machine = ufc
            .try_machine_for(trace)
            .expect("sweep parameter sets exist");
        let report = simulate(&machine, &stream);
        assert_eq!(report.cycles, *want, "{key}: makespan drifted");
        assert!(!report.phase_cycles.is_empty(), "{key}: no phase listed");
        reports.push(report);
    }
    assert_eq!(
        report_digest(&reports),
        REPORT_DIGEST,
        "a sweep report drifted (energy, utilization or phase totals)"
    );
}
