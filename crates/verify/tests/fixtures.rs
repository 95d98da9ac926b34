//! Fixture-driven acceptance tests for the verifier.
//!
//! Every check ships with a seeded-violation fixture under
//! `tests/fixtures/` plus a clean counterpart; this test proves each
//! fixture triggers exactly its intended code at the intended
//! severity, that the clean fixtures stay clean, and that the
//! `ufc-lint` binary agrees end-to-end.

use std::path::PathBuf;
use ufc_verify::{verify_text, Severity, Target, VerifyOptions};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(fixture file, expected code, expected top severity, target)`.
const SEEDED: &[(&str, &str, Severity, Target)] = &[
    // ------------------------------------------------------- traces
    (
        "params_unknown.trace",
        "trace/params-unknown",
        Severity::Error,
        Target::Any,
    ),
    (
        "params_missing.trace",
        "trace/params-missing",
        Severity::Error,
        Target::Any,
    ),
    (
        "level_exceeds_max.trace",
        "trace/level-exceeds-max",
        Severity::Error,
        Target::Any,
    ),
    (
        "rescale_at_zero.trace",
        "trace/rescale-at-zero",
        Severity::Error,
        Target::Any,
    ),
    (
        "batch_zero.trace",
        "trace/batch-zero",
        Severity::Warning,
        Target::Any,
    ),
    (
        "transfer_zero_bytes.trace",
        "trace/transfer-zero-bytes",
        Severity::Warning,
        Target::Any,
    ),
    (
        "repack_without_extract.trace",
        "trace/repack-without-extract",
        Severity::Error,
        Target::Any,
    ),
    (
        "repack_exceeds_extracted.trace",
        "trace/repack-count-exceeds-extracted",
        Severity::Error,
        Target::Any,
    ),
    (
        "tfhe_before_extract.trace",
        "trace/tfhe-before-extract",
        Severity::Warning,
        Target::Any,
    ),
    (
        "extract_never_repacked.trace",
        "trace/extract-never-repacked",
        Severity::Info,
        Target::Any,
    ),
    (
        "clean_composed.trace",
        "trace/transfer-on-unified",
        Severity::Error,
        Target::Ufc,
    ),
    // ------------------------------------------------------ streams
    (
        "id_mismatch.stream",
        "stream/id-mismatch",
        Severity::Error,
        Target::Any,
    ),
    (
        "dep_out_of_range.stream",
        "stream/dep-out-of-range",
        Severity::Error,
        Target::Any,
    ),
    (
        "dep_forward.stream",
        "stream/dep-forward",
        Severity::Error,
        Target::Any,
    ),
    (
        "dep_duplicate.stream",
        "stream/dep-duplicate",
        Severity::Warning,
        Target::Any,
    ),
    (
        "shape_empty.stream",
        "stream/shape-empty",
        Severity::Error,
        Target::Any,
    ),
    (
        "word_bits_invalid.stream",
        "stream/word-bits-invalid",
        Severity::Error,
        Target::Any,
    ),
    (
        "phase_word_mismatch.stream",
        "stream/phase-word-mismatch",
        Severity::Warning,
        Target::Any,
    ),
    (
        "pack_zero.stream",
        "stream/pack-zero",
        Severity::Error,
        Target::Any,
    ),
    (
        "pack_exceeds_count.stream",
        "stream/pack-exceeds-count",
        Severity::Warning,
        Target::Any,
    ),
    (
        "transfer_on_unified.stream",
        "stream/transfer-on-unified",
        Severity::Error,
        Target::Ufc,
    ),
    (
        "transfer_no_bytes.stream",
        "stream/transfer-no-bytes",
        Severity::Warning,
        Target::Any,
    ),
    (
        "load_store_no_bytes.stream",
        "stream/load-store-no-bytes",
        Severity::Warning,
        Target::Any,
    ),
    (
        "unsynchronized_crossing.stream",
        "stream/unsynchronized-scheme-crossing",
        Severity::Warning,
        Target::Any,
    ),
    (
        "scratchpad_overflow.stream",
        "stream/scratchpad-overflow",
        Severity::Error,
        Target::Any,
    ),
];

/// Seeded noise-violation fixtures, `(file, code, top severity)`.
/// These require the noise pass (`--noise`), so they get their own
/// table with noise-enabled options rather than riding in `SEEDED`.
const SEEDED_NOISE: &[(&str, &str, Severity)] = &[
    (
        "noise_scale_overflow.trace",
        "noise/scale-overflow",
        Severity::DecryptionRisk,
    ),
    (
        "noise_skipped_rescale.trace",
        "noise/skipped-rescale",
        Severity::Warning,
    ),
    (
        "noise_redundant_rescale.trace",
        "noise/redundant-rescale",
        Severity::DecryptionRisk,
    ),
    (
        "noise_bootstrap_too_late.trace",
        "noise/bootstrap-too-late",
        Severity::DecryptionRisk,
    ),
    (
        "noise_missing_bootstrap.trace",
        "noise/missing-bootstrap",
        Severity::DecryptionRisk,
    ),
    (
        "noise_pbs_starved.trace",
        "noise/pbs-starved",
        Severity::DecryptionRisk,
    ),
    (
        "noise_pbs_starved.stream",
        "noise/stream-pbs-starved",
        Severity::DecryptionRisk,
    ),
    (
        "noise_rescale_budget.stream",
        "noise/stream-rescale-budget-exceeded",
        Severity::Error,
    ),
];

fn noise_options() -> VerifyOptions {
    VerifyOptions {
        noise: Some(ufc_verify::NoiseOptions::default()),
        ..VerifyOptions::default()
    }
}

#[test]
fn every_seeded_fixture_triggers_its_code() {
    for &(file, code, severity, target) in SEEDED {
        let (_, report) = verify_text(&fixture(file), &VerifyOptions::for_target(target))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(
            report.has_code(code),
            "{file}: expected {code}, got:\n{report}"
        );
        let top = report
            .diagnostics()
            .first()
            .unwrap_or_else(|| panic!("{file}: empty report"))
            .severity;
        assert_eq!(top, severity, "{file}: top severity mismatch:\n{report}");
    }
}

#[test]
fn every_seeded_noise_fixture_triggers_its_code() {
    for &(file, code, severity) in SEEDED_NOISE {
        let (_, report) =
            verify_text(&fixture(file), &noise_options()).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(
            report.has_code(code),
            "{file}: expected {code}, got:\n{report}"
        );
        let top = report
            .diagnostics()
            .first()
            .unwrap_or_else(|| panic!("{file}: empty report"))
            .severity;
        assert_eq!(top, severity, "{file}: top severity mismatch:\n{report}");
    }
}

#[test]
fn noise_fixtures_are_silent_without_the_noise_pass() {
    // The noise pass is opt-in: with `noise: None` the seeded noise
    // fixtures must not emit any `noise/*` diagnostic (structural
    // checks may still warn, e.g. a trace that never repacks).
    for &(file, _, _) in SEEDED_NOISE {
        let (_, report) = verify_text(&fixture(file), &VerifyOptions::default()).unwrap();
        for d in report.diagnostics() {
            assert!(
                !d.code.starts_with("noise/"),
                "{file}: {} fired without the noise pass",
                d.code
            );
        }
    }
}

#[test]
fn clean_fixtures_stay_clean_under_the_noise_pass() {
    for file in [
        "clean.trace",
        "clean.stream",
        "clean_barrier.stream",
        "clean_composed.trace",
        "clean_noise_pipeline.trace",
    ] {
        let (_, report) = verify_text(&fixture(file), &noise_options()).unwrap();
        assert!(
            report.is_clean(),
            "{file} should be clean under --noise:\n{report}"
        );
    }
}

#[test]
fn seeded_fixture_codes_are_exhaustive_and_unique() {
    // One fixture per check code: a new check without a fixture (or a
    // renamed code) must show up here.
    let mut codes: Vec<&str> = SEEDED.iter().map(|&(_, c, _, _)| c).collect();
    codes.sort_unstable();
    let n = codes.len();
    codes.dedup();
    assert_eq!(n, codes.len(), "duplicate code in the fixture table");
    assert_eq!(n, 25, "fixture table out of sync with the check inventory");

    let mut noise_codes: Vec<&str> = SEEDED_NOISE.iter().map(|&(_, c, _)| c).collect();
    noise_codes.sort_unstable();
    let n = noise_codes.len();
    noise_codes.dedup();
    assert_eq!(n, noise_codes.len(), "duplicate code in the noise table");
    assert_eq!(
        n, 8,
        "noise table out of sync with the noise-check inventory"
    );
}

#[test]
fn clean_fixtures_are_clean_under_their_targets() {
    for (file, targets) in [
        (
            "clean.trace",
            &[Target::Any, Target::Ufc, Target::Composed][..],
        ),
        (
            "clean.stream",
            &[Target::Any, Target::Ufc, Target::Composed][..],
        ),
        (
            "clean_barrier.stream",
            &[Target::Any, Target::Ufc, Target::Composed][..],
        ),
        ("clean_composed.trace", &[Target::Any, Target::Composed][..]),
        (
            "transfer_on_unified.stream",
            &[Target::Any, Target::Composed][..],
        ),
    ] {
        let text = fixture(file);
        for &target in targets {
            let (_, report) = verify_text(&text, &VerifyOptions::for_target(target)).unwrap();
            assert!(
                report.is_clean(),
                "{file} under {target:?} should be clean:\n{report}"
            );
        }
    }
}

#[test]
fn seeded_violations_stay_localized() {
    // A seeded fixture must not drown its signal: no *error* other
    // than the intended code (extra warnings/infos are tolerated, an
    // unrelated error means the fixture tests two things at once).
    for &(file, code, severity, target) in SEEDED {
        if severity != Severity::Error {
            continue;
        }
        let (_, report) = verify_text(&fixture(file), &VerifyOptions::for_target(target)).unwrap();
        for d in report.diagnostics() {
            if d.severity == Severity::Error {
                assert_eq!(
                    d.code, code,
                    "{file}: unintended error {} alongside {code}",
                    d.code
                );
            }
        }
    }
}

#[test]
fn only_a_data_edge_across_a_barrier_keeps_a_buffer_live() {
    // `clean_barrier.stream` (in the clean tables above) orders a
    // 150 MiB exit before a 150 MiB buffer through a barrier alone.
    // Its seeded twin adds one data edge from the far side of the
    // barrier to the exit, which keeps both live: 300 MiB. The
    // `SEEDED` table holds one fixture per code, so the twin of the
    // scratchpad-overflow fixture is checked here.
    let (_, report) = verify_text(
        &fixture("scratchpad_overflow_across_barrier.stream"),
        &VerifyOptions::default(),
    )
    .unwrap();
    let errors: Vec<String> = report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(ToString::to_string)
        .collect();
    assert_eq!(errors.len(), 1, "{report}");
    assert!(report.has_code("stream/scratchpad-overflow"), "{report}");
    assert!(
        errors[0].contains("instr 2") && errors[0].contains("314572800 bytes"),
        "{report}"
    );
}

// ------------------------------------------------- ufc-lint end-to-end

/// Runs `ufc-lint` from the fixture directory: `(exit code, stdout,
/// stderr)`.
fn lint(args: &[&str]) -> (i32, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ufc-lint"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
        .args(args)
        .output()
        .expect("spawn ufc-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn lint_cli_passes_clean_fixtures() {
    let (code, out, _) = lint(&["clean.trace", "clean.stream"]);
    assert_eq!(code, 0, "stdout:\n{out}");
    assert!(out.contains("clean"), "stdout:\n{out}");
}

#[test]
fn lint_cli_fails_on_seeded_errors() {
    let (code, out, _) = lint(&["rescale_at_zero.trace"]);
    assert_eq!(code, 1, "stdout:\n{out}");
    assert!(out.contains("trace/rescale-at-zero"), "stdout:\n{out}");
}

#[test]
fn lint_cli_deny_warnings_promotes_fixtures() {
    let (code, _, _) = lint(&["dep_duplicate.stream"]);
    assert_eq!(code, 0, "warnings alone exit 0");
    let (code, out, _) = lint(&["--deny-warnings", "dep_duplicate.stream"]);
    assert_eq!(code, 1, "stdout:\n{out}");
}

#[test]
fn lint_cli_target_gates_transfer_fixtures() {
    let (code, _, _) = lint(&["transfer_on_unified.stream"]);
    assert_eq!(code, 0);
    let (code, out, _) = lint(&["--target", "ufc", "transfer_on_unified.stream"]);
    assert_eq!(code, 1, "stdout:\n{out}");
    assert!(out.contains("stream/transfer-on-unified"), "stdout:\n{out}");
}

#[test]
fn lint_cli_noise_flag_fails_on_decryption_risk() {
    // Without --noise the fixture is structurally fine...
    let (code, out, _) = lint(&["noise_redundant_rescale.trace"]);
    assert_eq!(code, 0, "stdout:\n{out}");
    // ...with it, the decryption risk makes the exit code non-zero.
    let (code, out, _) = lint(&["--noise", "noise_redundant_rescale.trace"]);
    assert_eq!(code, 1, "stdout:\n{out}");
    assert!(out.contains("noise/redundant-rescale"), "stdout:\n{out}");
    assert!(out.contains("noise/decryption-risk"), "stdout:\n{out}");
}

#[test]
fn lint_cli_params_flag_implies_noise() {
    let (code, out, _) = lint(&["--params", "C1,T1", "noise_pbs_starved.trace"]);
    assert_eq!(code, 1, "stdout:\n{out}");
    assert!(out.contains("noise/pbs-starved"), "stdout:\n{out}");
}

#[test]
fn lint_cli_json_is_machine_readable() {
    let (code, out, _) = lint(&["--json", "params_unknown.trace"]);
    assert_eq!(code, 1, "stdout:\n{out}");
    assert!(out.trim_start().starts_with('['), "stdout:\n{out}");
    assert!(
        out.contains("\"code\":\"trace/params-unknown\""),
        "stdout:\n{out}"
    );
}

#[test]
fn lint_cli_exits_2_with_a_line_number_on_malformed_text() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("malformed_log_n.stream");
    std::fs::write(
        &path,
        "stream\ninstr id=0 kernel=Ntt log_n=119657 count=2 word=36 hbm=0 \
         phase=CkksEval pack=max deps=\n",
    )
    .expect("write malformed stream");
    let (code, out, err) = lint(&[path.to_str().expect("utf-8 temp path")]);
    assert_eq!(code, 2, "stdout:\n{out}\nstderr:\n{err}");
    assert!(err.contains("line 2"), "stderr:\n{err}");
    assert!(err.contains("log_n"), "stderr:\n{err}");
}

#[test]
fn lint_cli_exits_2_on_a_missing_file() {
    let (code, out, err) = lint(&["no_such_fixture.trace"]);
    assert_eq!(code, 2, "stdout:\n{out}\nstderr:\n{err}");
    assert!(err.contains("no_such_fixture.trace"), "stderr:\n{err}");
}
