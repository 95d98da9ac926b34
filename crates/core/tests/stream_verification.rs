//! Every paper trace, lowered by the one compile driver
//! (`Compiler::try_compile`), passes the static stream verifier.
//!
//! Verification is not a cost on every compile; this test is where the
//! lowering rules answer for their output. It covers the Fig. 10
//! traces on C1, C3 and T1 and the Fig. 11 hybrid kNN trace:
//!
//! * the only error finding allowed is `stream/scratchpad-overflow`;
//! * on the Fig. 10 traces that finding appears only where the
//!   compiler's own working-set model reported spill events: the
//!   liveness sweep never overflows a trace the spill model (which is
//!   the more conservative of the two) calls resident;
//! * every scheme crossing carries a dependency edge (no
//!   `stream/unsynchronized-scheme-crossing`).
//!
//! The kNN stream is exempt from the spill-event agreement: its
//! barrier instructions carry one ordering edge per earlier exit, and
//! the liveness sweep counts each as a data use (see ROADMAP.md).

use ufc_compiler::{CompileOptions, CompileStats, Compiler};
use ufc_isa::instr::InstrStream;
use ufc_isa::trace::Trace;
use ufc_verify::{verify_stream, Report, Severity, VerifyOptions};
use ufc_workloads::knn;

const OVERFLOW: &str = "stream/scratchpad-overflow";

fn compile_and_verify(trace: &Trace) -> (CompileStats, Report) {
    let (stream, stats): (InstrStream, CompileStats) =
        Compiler::try_for_trace(trace, CompileOptions::default())
            .and_then(|c| c.try_compile(trace))
            .unwrap_or_else(|e| panic!("{}: {e}", trace.name));
    (stats, verify_stream(&stream, &VerifyOptions::default()))
}

/// Asserts the findings every compiled stream must satisfy; returns
/// whether the liveness sweep overflowed the scratchpad.
fn check(trace: &Trace, report: &Report) -> bool {
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
    report.has_code(OVERFLOW)
}

#[test]
fn fig10_streams_verify_and_overflow_only_where_the_compiler_spills() {
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
        let (stats, report) = compile_and_verify(trace);
        let overflows = check(trace, &report);
        assert!(
            !overflows || !stats.spills.is_empty(),
            "{set}/{}: the liveness sweep overflows but the compiler reports no spill events:\n{report}",
            trace.name
        );
        if overflows {
            overflowing.push(format!("{set}/{}", trace.name));
        }
    }
    // The two largest C3 working sets exceed the 256 MiB scratchpad;
    // the machine model costs them through its spill fraction.
    assert_eq!(overflowing, ["C3/HELR", "C3/Sorting"]);
}

#[test]
fn hybrid_knn_stream_verifies_up_to_scratchpad_overflow() {
    let trace = knn::generate("C2", "T1", knn::KnnConfig::default());
    let (_, report) = compile_and_verify(&trace);
    check(&trace, &report);
}
