//! Golden pin for the whole [`SimReport`] of every Fig. 11 hybrid
//! kNN trace (the default query on C1–C3 × T1–T4), compiled by the
//! one compile driver and simulated on `Ufc::paper_default()` and on
//! the composed SHARP+Strix baseline.
//!
//! One digest covers all 24 reports, so cycles, energy bits,
//! utilization shares and their order, phase totals and HBM bytes
//! are pinned on both machines. It uses the same 64-bit FNV-1a over
//! each report's pretty JSON followed by the raw bits of its
//! floating-point fields as `sweep_report_golden.rs`.

use ufc_core::Ufc;
use ufc_sim::machines::ComposedMachine;
use ufc_sim::SimReport;
use ufc_workloads::knn;

/// FNV-1a over every report: for each trace, UFC then SHARP+Strix.
const REPORT_DIGEST: u64 = 0x6c80_4c77_d840_625d;

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
fn every_knn_report_matches_golden() {
    let ufc = Ufc::paper_default();
    let composed = ComposedMachine::new();
    let mut reports = Vec::new();
    for c in ["C1", "C2", "C3"] {
        for t in ["T1", "T2", "T3", "T4"] {
            let trace = knn::generate(c, t, knn::KnnConfig::default());
            let on_ufc = ufc.run(&trace);
            let on_composed = ufc.run_on(&composed, &trace);
            assert!(
                on_ufc.cycles < on_composed.cycles,
                "{c}/{t}: UFC must beat the composed baseline"
            );
            reports.push(on_ufc);
            reports.push(on_composed);
        }
    }
    assert_eq!(
        report_digest(&reports),
        REPORT_DIGEST,
        "a kNN report drifted (cycles, energy, utilization, phases or HBM bytes): {:#018x}",
        report_digest(&reports)
    );
}
