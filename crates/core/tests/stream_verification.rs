//! Every paper trace, lowered by the one compile driver
//! (`Compiler::try_compile`), passes the static stream verifier, and
//! the verifier's scratchpad verdict is the stream's own liveness
//! high-water mark (`InstrStream::scratchpad_high_water`), the one
//! scratchpad model.
//!
//! Verification is not a cost on every compile; this test is where the
//! lowering rules answer for their output. It covers the Fig. 10
//! traces on C1, C3 and T1 and the Fig. 11 hybrid kNN traces on
//! C1–C3 × T1:
//!
//! * the only error finding allowed is `stream/scratchpad-overflow`,
//!   and it appears exactly when the high-water mark exceeds the
//!   256 MiB scratchpad;
//! * on Fig. 10 that is C3/HELR and C3/Sorting only;
//! * every scheme crossing carries a dependency edge (no
//!   `stream/unsynchronized-scheme-crossing`);
//! * the kNN crossings are ordered by barriers, which keep nothing
//!   live: C1/T1 and C2/T1 fit and `Ufc::run_verified` runs them at
//!   `Ufc::run`'s cycles, while C3/T1 overflows at the same 272 MiB
//!   as C3/HELR.

use ufc_compiler::{CompileOptions, Compiler};
use ufc_core::{RunError, Ufc};
use ufc_isa::instr::InstrStream;
use ufc_isa::trace::Trace;
use ufc_verify::{verify_stream, Report, Severity, VerifyOptions};
use ufc_workloads::knn;

const OVERFLOW: &str = "stream/scratchpad-overflow";

fn compile_and_verify(trace: &Trace) -> (InstrStream, Report) {
    let (stream, _) = Compiler::try_for_trace(trace, CompileOptions::default())
        .and_then(|c| c.try_compile(trace))
        .unwrap_or_else(|e| panic!("{}: {e}", trace.name));
    let report = verify_stream(&stream, &VerifyOptions::default());
    (stream, report)
}

/// Asserts the findings every compiled stream must satisfy; returns
/// the stream's high-water mark in MiB when the liveness sweep
/// overflowed the scratchpad.
fn check(trace: &Trace, stream: &InstrStream, report: &Report) -> Option<u64> {
    let name = &trace.name;
    for d in report.diagnostics() {
        assert!(
            d.severity != Severity::Error || d.code == OVERFLOW,
            "{name}: {d}"
        );
    }
    assert!(
        !report.has_code("stream/unsynchronized-scheme-crossing"),
        "{name}:\n{report}"
    );
    let peak = stream.scratchpad_high_water().bytes;
    let capacity = VerifyOptions::default().scratchpad_capacity();
    assert_eq!(
        report.has_code(OVERFLOW),
        peak > capacity,
        "{name}: the overflow finding must be the high-water mark ({peak} bytes) against \
         the {capacity}-byte scratchpad:\n{report}"
    );
    report.has_code(OVERFLOW).then_some(peak >> 20)
}

#[test]
fn fig10_streams_verify_and_overflow_only_on_c3_helr_and_sorting() {
    let mut traces = Vec::new();
    for set in ["C1", "C3"] {
        traces.extend(
            ufc_workloads::all_ckks_workloads(set)
                .into_iter()
                .map(|t| (set, t)),
        );
    }
    traces.extend(
        ufc_workloads::all_tfhe_workloads("T1")
            .into_iter()
            .map(|t| ("T1", t)),
    );
    let mut overflowing = Vec::new();
    for (set, trace) in &traces {
        let (stream, report) = compile_and_verify(trace);
        if let Some(mib) = check(trace, &stream, &report) {
            overflowing.push((format!("{set}/{}", trace.name), mib));
        }
    }
    // The two largest C3 working sets exceed the 256 MiB scratchpad;
    // the machine model costs them through its spill fraction.
    assert_eq!(
        overflowing,
        [("C3/HELR".to_owned(), 272), ("C3/Sorting".to_owned(), 272)]
    );
}

#[test]
fn hybrid_knn_stream_verifies_up_to_scratchpad_overflow() {
    let ufc = Ufc::paper_default();
    for (set, high_water_mib) in [("C1", 183), ("C2", 228), ("C3", 272)] {
        let trace = knn::generate(set, "T1", knn::KnnConfig::default());
        let (stream, report) = compile_and_verify(&trace);
        assert_eq!(
            stream.scratchpad_high_water().bytes >> 20,
            high_water_mib,
            "{set}/T1"
        );
        let overflows = check(&trace, &stream, &report).is_some();
        assert_eq!(overflows, high_water_mib > 256, "{set}/T1:\n{report}");
        match ufc.run_verified(&trace) {
            Ok(verified) if !overflows => assert_eq!(verified, ufc.run(&trace), "{set}/T1"),
            Err(RunError::Verify(refused)) if overflows => {
                assert!(refused.has_code(OVERFLOW), "{set}/T1:\n{refused}");
                assert!(
                    refused
                        .diagnostics()
                        .iter()
                        .all(|d| d.severity != Severity::Error || d.code == OVERFLOW),
                    "{set}/T1:\n{refused}"
                );
            }
            other => panic!("{set}/T1: unexpected verified run {other:?}"),
        }
    }
}
