//! End-to-end tests for the `ufc-profile` CLI and its committed
//! hybrid-kNN fixture.
//!
//! The fixture is the serialized small k-NN trace
//! (`tests/fixtures/hybrid_knn_small.trace`); regenerate it after an
//! intentional workload/serializer change with
//! `UFC_REGEN_FIXTURES=1 cargo test -p ufc-core --test profile_cli`.

use std::path::PathBuf;
use std::process::Command;
use ufc_isa::serial::trace_to_text;
use ufc_workloads::knn::{self, KnnConfig};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hybrid_knn_small.trace")
}

fn small_knn_text() -> String {
    trace_to_text(&knn::generate(
        "C2",
        "T1",
        KnnConfig {
            candidates: 64,
            dim: 16,
            k: 2,
        },
    ))
}

#[test]
fn fixture_matches_generator() {
    let expected = small_knn_text();
    let path = fixture_path();
    if std::env::var_os("UFC_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, &expected).expect("write fixture");
        return;
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with UFC_REGEN_FIXTURES=1)",
            path.display()
        )
    });
    assert_eq!(
        on_disk, expected,
        "fixture is stale; regenerate with UFC_REGEN_FIXTURES=1"
    );
}

#[test]
fn profile_cli_emits_valid_perfetto_and_consistent_summary() {
    let tmp = std::env::temp_dir().join(format!("ufc-profile-test-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let perfetto = tmp.join("knn.perfetto.json");
    let summary = tmp.join("knn.summary.json");

    let out = Command::new(env!("CARGO_BIN_EXE_ufc-profile"))
        .arg(fixture_path())
        .args(["--perfetto"])
        .arg(&perfetto)
        .args(["--json"])
        .arg(&summary)
        .output()
        .expect("run ufc-profile");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ufc-profile failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("## critical path"), "{stdout}");

    // The Perfetto file parses as JSON and carries >0 slices.
    let text = std::fs::read_to_string(&perfetto).expect("perfetto file");
    let trace = serde_json::from_str(&text).expect("perfetto JSON parses");
    let events = trace
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .expect("traceEvents array");
    let slices = events
        .iter()
        .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some("X"))
        .count();
    assert!(slices > 0, "expected at least one complete event");

    // The JSON summary is self-consistent: the critical path tiles
    // the makespan and both breakdowns account for every cycle.
    let text = std::fs::read_to_string(&summary).expect("summary file");
    let v = serde_json::from_str(&text).expect("summary JSON parses");
    let cycles = v.get("cycles").and_then(serde::Value::as_u64).unwrap();
    assert!(cycles > 0);
    let cp = v.get("critical_path").expect("critical_path");
    let length = cp.get("length").and_then(serde::Value::as_u64).unwrap();
    assert_eq!(length, cycles);
    for breakdown in ["by_kernel", "by_phase"] {
        let total: u64 = cp
            .get(breakdown)
            .and_then(serde::Value::as_array)
            .unwrap()
            .iter()
            .map(|pair| {
                pair.as_array().unwrap()[1]
                    .as_u64()
                    .expect("cycle counts are u64")
            })
            .sum();
        assert_eq!(total, length, "{breakdown} must tile the makespan");
    }
    // Lowering stats rode along for the trace input.
    let compile = v.get("compile").expect("compile stats present");
    assert!(
        compile
            .get("total_instrs")
            .and_then(serde::Value::as_u64)
            .unwrap()
            > 0
    );

    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn profile_cli_rejects_garbage_input() {
    let tmp = std::env::temp_dir().join(format!("ufc-profile-garbage-{}", std::process::id()));
    std::fs::write(&tmp, "not a trace\n").expect("write temp file");
    let out = Command::new(env!("CARGO_BIN_EXE_ufc-profile"))
        .arg(&tmp)
        .output()
        .expect("run ufc-profile");
    assert!(!out.status.success());
    std::fs::remove_file(&tmp).ok();
}

/// Runs `ufc-profile` on `text` written to a temp file named `tag`.
fn profile_text(tag: &str, text: &str) -> std::process::Output {
    let tmp = std::env::temp_dir().join(format!("ufc-profile-{tag}-{}", std::process::id()));
    std::fs::write(&tmp, text).expect("write temp file");
    let out = Command::new(env!("CARGO_BIN_EXE_ufc-profile"))
        .arg(&tmp)
        .output()
        .expect("run ufc-profile");
    std::fs::remove_file(&tmp).ok();
    out
}

#[test]
fn profile_cli_refuses_unusable_dependency_edges() {
    // The parser accepts both streams so that `ufc-lint` can report
    // them; the simulator cannot schedule either. A dangling edge used
    // to index past the finish-time table (exit 101), and a forward
    // edge was silently treated as no dependency at all.
    for (tag, deps, code) in [
        ("dangling", "5", "stream/dep-out-of-range"),
        ("forward", "1", "stream/dep-forward"),
    ] {
        let out = profile_text(
            tag,
            &format!(
                "stream\n\
                 instr id=0 kernel=Ntt log_n=10 count=1 word=36 hbm=0 phase=Other pack=max deps={deps}\n\
                 instr id=1 kernel=Ewma log_n=10 count=1 word=36 hbm=0 phase=Other pack=max deps=\n"
            ),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(stderr.contains(code), "{tag}: {stderr}");
        assert!(stderr.contains("instr 0"), "{tag}: {stderr}");
    }
}

#[test]
fn profile_cli_profiles_well_formed_streams_that_overflow_the_scratchpad() {
    // A 5 GiB output buffer: `ufc-lint` reports scratchpad overflow,
    // but the stream is a valid DAG, so it is profiled (the machine
    // models cost spills; they do not refuse them).
    let out = profile_text(
        "overflow",
        "stream\n\
         instr id=0 kernel=Ntt log_n=16 count=10000 word=36 hbm=0 phase=CkksEval pack=max deps=\n\
         instr id=1 kernel=Ewma log_n=16 count=10000 word=36 hbm=0 phase=CkksEval pack=max deps=0\n",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("## critical path"), "{stdout}");
}
