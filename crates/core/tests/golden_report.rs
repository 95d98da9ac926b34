//! Golden-file test pinning the full [`SimReport`] of the committed
//! hybrid-kNN fixture under `Ufc::paper_default()`.
//!
//! The simulator is deterministic, so the report is pinned
//! byte-for-byte as pretty JSON. This is the cross-layer canary for
//! the data-plane refactor: any numerical drift in the math kernels
//! that leaks into compilation or scheduling shows up here as a cycle
//! or energy delta. Regenerate after an intentional model change with
//! `UFC_REGEN_FIXTURES=1 cargo test -p ufc-core --test golden_report`.

use std::path::PathBuf;
use ufc_core::Ufc;
use ufc_isa::serial::trace_from_text;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hybrid_knn_small.trace")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hybrid_knn_small.report.json")
}

#[test]
fn hybrid_knn_sim_report_matches_golden() {
    let text = std::fs::read_to_string(fixture_path()).expect("committed trace fixture");
    let trace = trace_from_text(&text).expect("fixture parses");
    let ufc = Ufc::paper_default();
    let profiled = ufc.try_run_profiled(&trace).expect("fixture compiles");

    // The instrumented and plain paths must agree before pinning.
    assert_eq!(profiled.report, ufc.run(&trace));

    let actual = serde::Serialize::to_value(&profiled.report).to_json_pretty();
    let path = golden_path();
    if std::env::var_os("UFC_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, &actual).expect("write golden report");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with UFC_REGEN_FIXTURES=1)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "SimReport drifted; regenerate with UFC_REGEN_FIXTURES=1 if intended"
    );

    // And the golden file itself keeps the agreed shape.
    let v: serde::Value = serde_json::from_str(&expected).expect("golden JSON parses");
    assert_eq!(
        v.get("machine").and_then(serde::Value::as_str),
        Some(profiled.report.machine.as_str())
    );
    assert!(v.get("cycles").and_then(serde::Value::as_u64).unwrap() > 0);
    assert!(!v
        .get("phase_cycles")
        .and_then(serde::Value::as_array)
        .unwrap()
        .is_empty());
}
