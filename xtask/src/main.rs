//! Workspace automation, invoked as `cargo xtask <command>`.
//!
//! * `lint` — the full static gate: `cargo fmt --check`,
//!   `cargo clippy --workspace -- -D warnings`, `cargo doc --workspace
//!   --no-deps` under `RUSTDOCFLAGS="-D warnings"` (broken intra-doc
//!   links fail), then the fixture corpus through `ufc-lint` (same
//!   contract as CI).
//! * `fixtures` — just the `ufc-lint` fixture sweep: every clean
//!   fixture must come back clean, every seeded fixture must produce
//!   at least one diagnostic.
//! * `profile-smoke` — build `ufc-profile`, run it on the small
//!   hybrid-kNN trace fixture, and validate the exported Perfetto
//!   file parses as JSON with at least one slice.
//! * `trace-smoke` — build `ufc-profile`, run it on the fixture with
//!   the host recorder enabled (`--host`), and validate all three
//!   runtime-tracing exports: the merged Perfetto file carries host
//!   slices and track-name metadata, every JSONL line parses, and the
//!   JSON summary has the host metrics block.
//! * `bench-math [--quick]` — build the release `bench_math` harness,
//!   run it writing `BENCH_math.json` at the workspace root, and
//!   validate the report shape (experiment tag, numeric headline
//!   speedup, non-empty tables, host topology block), that every
//!   `ew_kernels` row ran on the backend the static element-wise rule
//!   gives for its kernel, prime width and the report's host features,
//!   and, on full runs, the dispatch floors: every element-wise row at
//!   speedup ≥ 1.0 and every `ntt_kernels` row with the auto-selected
//!   NTT kernel within 1.10x of the fastest one.
//! * `bench-switch [--quick]` — build the release `bench_switch`
//!   harness, run it writing `BENCH_switch.json` at the workspace
//!   root, and validate the report shape (experiment tag, `extract`
//!   and `repack` tables each carrying the batch-size axis, host
//!   topology block, O(√n) rotation-key headline).
//! * `bench-sha256 [--quick]` — build the release `bench_sha256`
//!   harness, run it writing `BENCH_sha256.json` at the workspace
//!   root, and validate the report: `circuit`/`sim`/`host` tables
//!   (`host` with a row per adder at 1 and at `par_threads` threads,
//!   every one `ok`), host topology block, and the headline claims — the prefix
//!   adder's critical path strictly shorter than ripple's, its PLP
//!   utilization strictly higher, and the homomorphic digests
//!   matching the plaintext reference. The structural claims are
//!   deterministic simulator outputs, so they gate `--quick` runs
//!   too.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde::Value;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("fixtures") => fixtures(),
        Some("unsafe-surface") => unsafe_surface(),
        Some("profile-smoke") => profile_smoke(),
        Some("trace-smoke") => trace_smoke(),
        Some("bench-math") => bench_report("math", quick, math_gate),
        Some("bench-switch") => bench_report("switch", quick, switch_gate),
        Some("bench-sha256") => bench_report("sha256", quick, sha256_gate),
        Some("-h") | Some("--help") | None => {
            eprintln!(
                "usage: cargo xtask \
                 <lint|fixtures|unsafe-surface|profile-smoke|trace-smoke|bench-math|\
                 bench-switch|bench-sha256>"
            );
            eprintln!("  lint           fmt --check + clippy -D warnings + rustdoc -D warnings");
            eprintln!("                 + unsafe surface + fixture sweep");
            eprintln!("  fixtures       run ufc-lint over crates/verify/tests/fixtures");
            eprintln!("  unsafe-surface assert `unsafe` appears only in crates/math/src/simd.rs");
            eprintln!("  profile-smoke  run ufc-profile on the hybrid-kNN fixture and");
            eprintln!("                 validate its Perfetto export");
            eprintln!("  trace-smoke    run ufc-profile --host on the fixture and validate");
            eprintln!("                 the merged Perfetto, JSONL, and JSON host exports");
            eprintln!("  bench-math     run the math micro-benchmarks, write and validate");
            eprintln!("                 BENCH_math.json (pass --quick for small sizes)");
            eprintln!("  bench-switch   run the scheme-switch boundary benchmarks, write and");
            eprintln!("                 validate BENCH_switch.json (pass --quick for CI smoke)");
            eprintln!("  bench-sha256   run the homomorphic SHA-256 benchmarks, write and");
            eprintln!("                 validate BENCH_sha256.json (pass --quick for CI smoke)");
            if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Some(other) => {
            eprintln!("unknown xtask command `{other}`; try `cargo xtask --help`");
            ExitCode::from(2)
        }
    }
}

/// Workspace root: xtask always runs from somewhere inside the repo.
fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest)
        .parent()
        .expect("xtask lives one level under the workspace root")
        .to_path_buf()
}

/// Runs `cargo <args>` at the workspace root, echoing the command.
fn cargo(args: &[&str]) -> bool {
    cargo_env(args, &[])
}

/// Runs cargo with extra environment variables set.
fn cargo_env(args: &[&str], envs: &[(&str, &str)]) -> bool {
    let shown: Vec<String> = envs.iter().map(|(k, v)| format!("{k}=\"{v}\" ")).collect();
    println!("+ {}cargo {}", shown.concat(), args.join(" "));
    Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(args)
        .envs(envs.iter().copied())
        .current_dir(workspace_root())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn lint() -> ExitCode {
    let steps: &[&[&str]] = &[
        &["fmt", "--all", "--check"],
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
    ];
    for step in steps {
        if !cargo(step) {
            eprintln!("xtask lint: `cargo {}` failed", step.join(" "));
            return ExitCode::FAILURE;
        }
    }
    // A doc link to a deleted or private item fails here instead of
    // rotting.
    if !cargo_env(
        &["doc", "--workspace", "--no-deps"],
        &[("RUSTDOCFLAGS", "-D warnings")],
    ) {
        eprintln!("xtask lint: `cargo doc --workspace --no-deps` has rustdoc warnings");
        return ExitCode::FAILURE;
    }
    if unsafe_surface() != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }
    fixtures()
}

/// Source files allowed to contain the `unsafe` keyword, relative to
/// the workspace root. Everything else under `crates/*/src` must be
/// unsafe-free (and is compiled under `forbid(unsafe_code)` /
/// `deny(unsafe_code)` to match).
const UNSAFE_ALLOWLIST: &[&str] = &["crates/math/src/simd.rs"];

/// Scans the workspace for the `unsafe` keyword outside the sanctioned
/// surface. Line comments are stripped first so prose about safety
/// does not trip the scan; `unsafe_code` (the lint name inside
/// `forbid`/`deny`/`allow` attributes) is not a match because the
/// token boundary check requires a non-identifier character after
/// `unsafe`.
fn unsafe_surface() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for crate_dir in std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .filter_map(std::result::Result::ok)
    {
        collect_rs_files(&crate_dir.path().join("src"), &mut files);
    }
    files.sort();

    let mut violations = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if UNSAFE_ALLOWLIST.contains(&rel.as_str()) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        for (lineno, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or(line);
            if has_unsafe_token(code) {
                eprintln!(
                    "xtask lint: `unsafe` outside the sanctioned surface: {rel}:{}",
                    lineno + 1
                );
                violations += 1;
            }
        }
    }
    if violations == 0 {
        println!(
            "unsafe surface ok: {} files scanned, unsafe confined to {:?}",
            files.len(),
            UNSAFE_ALLOWLIST
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Whether `code` contains `unsafe` as a standalone token (not part of
/// a longer identifier such as `unsafe_code`).
fn has_unsafe_token(code: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut rest = code;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0 || !rest[..pos].chars().next_back().is_some_and(ident);
        let after = &rest[pos + "unsafe".len()..];
        let after_ok = !after.chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

/// Recursively collects `.rs` files under `dir` (missing dirs are fine).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(std::result::Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn fixtures() -> ExitCode {
    let root = workspace_root();
    if !cargo(&["build", "-q", "-p", "ufc-verify", "--bin", "ufc-lint"]) {
        eprintln!("xtask fixtures: building ufc-lint failed");
        return ExitCode::FAILURE;
    }
    let lint_bin = root.join("target/debug/ufc-lint");
    let dir = root.join("crates/verify/tests/fixtures");
    let mut names: Vec<String> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(std::result::Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".trace") || n.ends_with(".stream"))
            .collect(),
        Err(e) => {
            eprintln!("xtask fixtures: reading {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    names.sort();

    let mut failed = 0usize;
    for name in &names {
        // Clean fixtures must verify clean; seeded fixtures must
        // produce at least one diagnostic. The transfer fixtures are
        // target-gated: clean by default, flagged under `--target ufc`.
        // The noise fixtures (and the noise-clean pipeline) run under
        // `--noise` — their violations only exist to the noise pass.
        let target_ufc = name.contains("on_unified") || name == "clean_composed.trace";
        let noise = name.contains("noise");
        let expect_clean = name.starts_with("clean") && !target_ufc;
        let mut cmd = Command::new(&lint_bin);
        cmd.current_dir(&dir).arg("--json");
        if target_ufc {
            cmd.args(["--target", "ufc"]);
        }
        if noise {
            cmd.arg("--noise");
        }
        let out = match cmd.arg(name).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("xtask fixtures: running ufc-lint on {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let found = stdout.contains("\"code\":\"");
        let ok = if expect_clean { !found } else { found };
        println!(
            "{} {name}{}",
            if ok { "ok  " } else { "FAIL" },
            if target_ufc { " (--target ufc)" } else { "" }
        );
        if !ok {
            failed += 1;
            eprintln!(
                "  expected {}, ufc-lint said:\n{stdout}",
                if expect_clean { "clean" } else { "diagnostics" }
            );
        }
    }
    println!("{} fixtures, {failed} failed", names.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds `ufc-profile` in release mode, profiles the committed
/// hybrid-kNN trace fixture, and checks that the Perfetto export is
/// valid JSON carrying at least one complete ("X") slice — the same
/// contract the CI profile-smoke job enforces.
fn profile_smoke() -> ExitCode {
    let root = workspace_root();
    if !cargo(&[
        "build",
        "-q",
        "--release",
        "-p",
        "ufc-core",
        "--bin",
        "ufc-profile",
    ]) {
        eprintln!("xtask profile-smoke: building ufc-profile failed");
        return ExitCode::FAILURE;
    }
    let fixture = root.join("crates/core/tests/fixtures/hybrid_knn_small.trace");
    let out_dir = root.join("target/profile-smoke");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xtask profile-smoke: {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let perfetto = out_dir.join("hybrid_knn_small.perfetto.json");
    let summary = out_dir.join("hybrid_knn_small.summary.json");
    let bin = root.join("target/release/ufc-profile");
    println!(
        "+ {} {} --perfetto {} --json {}",
        bin.display(),
        fixture.display(),
        perfetto.display(),
        summary.display()
    );
    let status = Command::new(&bin)
        .arg(&fixture)
        .arg("--perfetto")
        .arg(&perfetto)
        .arg("--json")
        .arg(&summary)
        .status();
    if !status.map(|s| s.success()).unwrap_or(false) {
        eprintln!("xtask profile-smoke: ufc-profile failed");
        return ExitCode::FAILURE;
    }
    let text = match std::fs::read_to_string(&perfetto) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask profile-smoke: {}: {e}", perfetto.display());
            return ExitCode::FAILURE;
        }
    };
    let trace = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask profile-smoke: Perfetto file is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let slices = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .map(|events| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
                .count()
        })
        .unwrap_or(0);
    if slices == 0 {
        eprintln!("xtask profile-smoke: Perfetto file has no slices");
        return ExitCode::FAILURE;
    }
    println!(
        "profile-smoke ok: {slices} slices in {}",
        perfetto.display()
    );
    ExitCode::SUCCESS
}

/// Builds `ufc-profile` in release mode, runs the committed hybrid-kNN
/// fixture with the host recorder enabled (`--host`), and validates
/// all three runtime-tracing exports — the same contract the CI
/// trace-smoke job enforces: the merged Perfetto trace parses and
/// carries host-process slices plus track-name metadata, every JSONL
/// span/gauge line parses as JSON, and the JSON summary contains the
/// `host` metrics block.
fn trace_smoke() -> ExitCode {
    let root = workspace_root();
    if !cargo(&[
        "build",
        "-q",
        "--release",
        "-p",
        "ufc-core",
        "--bin",
        "ufc-profile",
    ]) {
        eprintln!("xtask trace-smoke: building ufc-profile failed");
        return ExitCode::FAILURE;
    }
    let fixture = root.join("crates/core/tests/fixtures/hybrid_knn_small.trace");
    let out_dir = root.join("target/trace-smoke");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xtask trace-smoke: {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let perfetto = out_dir.join("hybrid_knn_small.merged.perfetto.json");
    let jsonl = out_dir.join("hybrid_knn_small.spans.jsonl");
    let summary = out_dir.join("hybrid_knn_small.host.summary.json");
    let bin = root.join("target/release/ufc-profile");
    println!(
        "+ {} {} --host --perfetto {} --jsonl {} --json {}",
        bin.display(),
        fixture.display(),
        perfetto.display(),
        jsonl.display(),
        summary.display()
    );
    let status = Command::new(&bin)
        .arg(&fixture)
        .arg("--host")
        .arg("--perfetto")
        .arg(&perfetto)
        .arg("--jsonl")
        .arg(&jsonl)
        .arg("--json")
        .arg(&summary)
        .status();
    if !status.map(|s| s.success()).unwrap_or(false) {
        eprintln!("xtask trace-smoke: ufc-profile --host failed");
        return ExitCode::FAILURE;
    }

    // 1. Merged Perfetto: must parse, and the host process
    //    (HOST_PID) must contribute both slices and named tracks.
    let text = match std::fs::read_to_string(&perfetto) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask trace-smoke: {}: {e}", perfetto.display());
            return ExitCode::FAILURE;
        }
    };
    let trace: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask trace-smoke: Perfetto file is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .unwrap_or_default();
    let on_host =
        |e: &Value| e.get("pid").and_then(Value::as_u64) == Some(ufc_telemetry::perfetto::HOST_PID);
    let host_slices = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X") && on_host(e))
        .count();
    if host_slices == 0 {
        eprintln!("xtask trace-smoke: merged Perfetto file has no host slices");
        return ExitCode::FAILURE;
    }
    let host_tracks = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name") && on_host(e))
        .count();
    if host_tracks == 0 {
        eprintln!("xtask trace-smoke: merged Perfetto file has no host thread_name metadata");
        return ExitCode::FAILURE;
    }

    // 2. JSONL: every line parses, and both event kinds appear.
    let lines = match std::fs::read_to_string(&jsonl) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask trace-smoke: {}: {e}", jsonl.display());
            return ExitCode::FAILURE;
        }
    };
    let mut span_lines = 0usize;
    let mut gauge_lines = 0usize;
    for (i, line) in lines.lines().enumerate() {
        let v: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "xtask trace-smoke: JSONL line {} does not parse: {e}",
                    i + 1
                );
                return ExitCode::FAILURE;
            }
        };
        match v.get("event").and_then(Value::as_str) {
            Some("span") => span_lines += 1,
            Some("gauge") => gauge_lines += 1,
            other => {
                eprintln!(
                    "xtask trace-smoke: JSONL line {} has unknown event {other:?}",
                    i + 1
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if span_lines == 0 || gauge_lines == 0 {
        eprintln!(
            "xtask trace-smoke: JSONL export incomplete \
             ({span_lines} span lines, {gauge_lines} gauge lines)"
        );
        return ExitCode::FAILURE;
    }

    // 3. JSON summary: the host metrics block must be present.
    let text = match std::fs::read_to_string(&summary) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask trace-smoke: {}: {e}", summary.display());
            return ExitCode::FAILURE;
        }
    };
    let report: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask trace-smoke: JSON summary is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(host) = report.get("host") else {
        eprintln!("xtask trace-smoke: JSON summary has no `host` block");
        return ExitCode::FAILURE;
    };
    if host
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .is_none()
    {
        eprintln!("xtask trace-smoke: JSON summary host block has no metrics histograms");
        return ExitCode::FAILURE;
    }
    println!(
        "trace-smoke ok: {host_slices} host slices / {host_tracks} host tracks, \
         {span_lines} span + {gauge_lines} gauge JSONL lines"
    );
    ExitCode::SUCCESS
}

/// A bench report's own gates: given a report that already carries its
/// `experiment` tag and host topology block, either the summary line
/// printed on success or the first failed gate. `quick` is the
/// `--quick` flag the harness ran with; timing gates apply only to full
/// runs.
type Gate = fn(&Value, bool) -> Result<String, String>;

/// Builds the release `bench_<name>` harness, runs it writing
/// `BENCH_<name>.json` at the workspace root, and validates the report
/// with [`check_report`] — the same contract the CI bench jobs enforce.
fn bench_report(name: &str, quick: bool, gate: Gate) -> ExitCode {
    let task = format!("xtask bench-{name}");
    let bin_name = format!("bench_{name}");
    if !cargo(&[
        "build",
        "-q",
        "--release",
        "-p",
        "ufc-bench",
        "--bin",
        &bin_name,
    ]) {
        eprintln!("{task}: building {bin_name} failed");
        return ExitCode::FAILURE;
    }
    let root = workspace_root();
    let out = root.join(format!("BENCH_{name}.json"));
    let bin = root.join("target/release").join(&bin_name);
    let mut cmd = Command::new(&bin);
    cmd.arg("--out").arg(&out);
    if quick {
        cmd.arg("--quick");
    }
    println!(
        "+ {} --out {}{}",
        bin.display(),
        out.display(),
        if quick { " --quick" } else { "" }
    );
    if !cmd.status().map(|s| s.success()).unwrap_or(false) {
        eprintln!("{task}: {bin_name} failed");
        return ExitCode::FAILURE;
    }
    let checked = std::fs::read_to_string(&out)
        .map_err(|e| format!("{}: {e}", out.display()))
        .and_then(|text| {
            serde_json::from_str(&text).map_err(|e| format!("report is not valid JSON: {e}"))
        })
        .and_then(|report| check_report(&bin_name, &report, quick, gate));
    match checked {
        Ok(summary) => {
            println!("bench-{name} ok: {summary} in {}", out.display());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{task}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The checks every bench report shares — the `experiment` tag and
/// the host-topology contract (committed numbers must say what they
/// ran on: core count and the limb-parallel worker count) — followed
/// by the report's own `gate`.
fn check_report(
    experiment: &str,
    report: &Value,
    quick: bool,
    gate: Gate,
) -> Result<String, String> {
    if report.get("experiment").and_then(Value::as_str) != Some(experiment) {
        return Err(format!("report is missing `experiment: \"{experiment}\"`"));
    }
    for field in ["available_parallelism", "par_threads"] {
        if host_field(report, field).and_then(Value::as_u64).is_none() {
            return Err(format!("report host has no numeric `{field}` field"));
        }
    }
    gate(report, quick)
}

fn host_field<'a>(report: &'a Value, field: &str) -> Option<&'a Value> {
    report.get("host")?.get(field)
}

fn headline_field<'a>(report: &'a Value, field: &str) -> Option<&'a Value> {
    report.get("headline")?.get(field)
}

fn tables(report: &Value) -> &[Value] {
    report
        .get("tables")
        .and_then(Value::as_array)
        .unwrap_or_default()
}

fn table<'a>(report: &'a Value, name: &str) -> Option<&'a Value> {
    tables(report)
        .iter()
        .find(|t| t.get("name").and_then(Value::as_str) == Some(name))
}

fn table_rows<'a>(report: &'a Value, name: &str) -> &'a [Value] {
    table(report, name)
        .and_then(|t| t.get("rows"))
        .and_then(Value::as_array)
        .unwrap_or_default()
}

fn col_index(report: &Value, name: &str, col: &str) -> Option<usize> {
    table(report, name)?
        .get("columns")?
        .as_array()?
        .iter()
        .position(|c| c.as_str() == Some(col))
}

/// Table `name` must exist, carry column `axis`, and hold at least
/// `min_rows` rows.
fn require_table(report: &Value, name: &str, axis: &str, min_rows: usize) -> Result<(), String> {
    if table(report, name).is_none() {
        return Err(format!("report has no `{name}` table"));
    }
    if col_index(report, name, axis).is_none() {
        return Err(format!("`{name}` table has no `{axis}` column"));
    }
    let rows = table_rows(report, name).len();
    if rows < min_rows {
        return Err(format!(
            "`{name}` table has {rows} rows, needs at least {min_rows}"
        ));
    }
    Ok(())
}

/// `BENCH_math.json`: numeric headline speedup, non-empty tables, the
/// 2% disabled-recorder tracing budget, every `ew_kernels` row on the
/// backend the static element-wise rule gives for its kernel, prime
/// width and the report's host features, and, on full runs, the
/// dispatch floors — every element-wise row at speedup ≥ 1.0 and every
/// `ntt_kernels` row with the auto-selected NTT kernel within 1.10x of
/// the fastest one.
fn math_gate(report: &Value, quick: bool) -> Result<String, String> {
    let speedup = headline_field(report, "speedup")
        .and_then(Value::as_f64)
        .ok_or("report headline has no numeric `speedup`")?;
    if tables(report).is_empty() {
        return Err("report has no tables".into());
    }
    let avx2 = host_field(report, "avx2")
        .and_then(Value::as_bool)
        .ok_or("report host has no boolean `avx2` field")?;
    let ifma = host_field(report, "ifma")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let overhead = host_field(report, "trace_overhead_pct")
        .and_then(Value::as_f64)
        .ok_or("report host has no numeric `trace_overhead_pct` field")?;
    if overhead >= 2.0 {
        return Err(format!(
            "disabled-recorder tracing overhead {overhead:.2}% breaches the 2% budget"
        ));
    }
    // SIMD-lane coverage: on AVX2 hosts the report must carry the
    // element-wise lane-kernel table. Non-AVX2 hosts still run the
    // portable lanes, but the committed report is only held to the
    // vector contract where vectors exist.
    if avx2 && table_rows(report, "ew_kernels").is_empty() {
        return Err("AVX2 host but no populated `ew_kernels` table".into());
    }
    // NTT dispatch floor: in every `ntt_kernels` row and direction,
    // the kernel `auto_for` picked must run within 1.10x of the
    // fastest kernel measured. --quick runs only check the shape:
    // their few repetitions make close kernels' ratios noisy.
    let kernel_rows = table_rows(report, "ntt_kernels");
    if kernel_rows.is_empty() {
        return Err("report has no populated `ntt_kernels` table".into());
    }
    let auto_col =
        col_index(report, "ntt_kernels", "auto").ok_or("`ntt_kernels` has no `auto` column")?;
    let n_col = col_index(report, "ntt_kernels", "n");
    let bits_col = col_index(report, "ntt_kernels", "q_bits");
    let mut worst_auto_ratio = 1.0f64;
    for row in kernel_rows {
        let cells = row.as_array().unwrap_or_default();
        let cell_u64 = |col: Option<usize>| col.and_then(|c| cells.get(c)).and_then(Value::as_u64);
        let (n, bits) = (
            cell_u64(n_col).unwrap_or(0),
            cell_u64(bits_col).unwrap_or(0),
        );
        let auto = cells
            .get(auto_col)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("`ntt_kernels` row n={n} has no `auto` kernel name"))?;
        for dir in ["forward", "inverse"] {
            // Null cells are kernels that cannot run over this prime.
            let times: Vec<(&str, f64)> = ["radix4", "ifma"]
                .into_iter()
                .filter_map(|k| {
                    let col = col_index(report, "ntt_kernels", &format!("{dir}_{k}_ns"))?;
                    Some((k, cells.get(col)?.as_f64()?))
                })
                .collect();
            let fastest = times.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
            let &(_, auto_t) = times.iter().find(|&&(k, _)| k == auto).ok_or_else(|| {
                format!(
                    "`ntt_kernels` row n={n}, {bits}-bit q picks `{auto}` but has no {dir} \
                     time for it"
                )
            })?;
            let ratio = auto_t / fastest;
            worst_auto_ratio = worst_auto_ratio.max(ratio);
            if !quick && ratio > 1.10 {
                return Err(format!(
                    "{dir} NTT at n={n}, {bits}-bit q: auto kernel `{auto}` runs \
                     {ratio:.2}x the fastest kernel (gate: 1.10x)"
                ));
            }
        }
    }
    // Routing regression gate: dispatch guarantees SIMD (or its
    // portable fallback) never loses to the scalar loop, so every
    // element-wise row must hold speedup >= 1.0 on committed full
    // runs. --quick smoke runs keep a jitter allowance: their few
    // repetitions make equal-code-path ratios noisy.
    let ew_floor = if quick { 0.90 } else { 1.0 };
    let (Some(k_col), Some(s_col), Some(bits_col), Some(b_col)) = (
        col_index(report, "ew_kernels", "kernel"),
        col_index(report, "ew_kernels", "speedup"),
        col_index(report, "ew_kernels", "bits"),
        col_index(report, "ew_kernels", "backend"),
    ) else {
        return Err("`ew_kernels` lacks kernel/speedup/bits/backend columns".into());
    };
    // The static element-wise dispatch rule, from the report's own host
    // features: add/sub/scale on AVX2 when present; hadamard/mac on
    // IFMA when present and q < 2^50 (a `bits`-bit prime lies below
    // 2^bits); portable otherwise. It is deterministic, so it gates
    // --quick runs too.
    let ifma_max_bits = u64::from(ufc_math::modops::IFMA_MAX_MODULUS_BITS);
    let rule = |kernel: &str, bits: u64| match kernel {
        "add" | "sub" | "scale" if avx2 => "avx2",
        "hadamard" | "mac" if ifma && bits <= ifma_max_bits => "ifma",
        _ => "portable",
    };
    let ew_rows = table_rows(report, "ew_kernels");
    let mut best_hadamard = 0.0f64;
    let mut best_mac = 0.0f64;
    for row in ew_rows {
        let cells = row.as_array().unwrap_or_default();
        let kernel = cells.get(k_col).and_then(Value::as_str).unwrap_or("");
        let sp = cells
            .get(s_col)
            .and_then(Value::as_f64)
            .ok_or("`ew_kernels` row has no numeric speedup")?;
        let bits = cells.get(bits_col).and_then(Value::as_u64).unwrap_or(0);
        let backend = cells.get(b_col).and_then(Value::as_str).unwrap_or("");
        let want = rule(kernel, bits);
        if backend != want {
            return Err(format!(
                "element-wise `{kernel}` at {bits} bits ran on `{backend}`, but the dispatch \
                 rule gives `{want}` (host avx2={avx2}, ifma={ifma})"
            ));
        }
        if sp < ew_floor {
            return Err(format!(
                "element-wise `{kernel}` dispatched at {sp:.2}x vs scalar — below the \
                 {ew_floor:.2} routing floor"
            ));
        }
        match kernel {
            "hadamard" => best_hadamard = best_hadamard.max(sp),
            "mac" => best_mac = best_mac.max(sp),
            _ => {}
        }
    }
    // Vector-multiply contract: with an IFMA-capable host the 50-bit
    // rows must show a real hadamard/mac win, not a dispatch no-op.
    if !quick && ifma && (best_hadamard < 1.3 || best_mac < 1.3) {
        return Err(format!(
            "IFMA host but best hadamard {best_hadamard:.2}x / mac {best_mac:.2}x below the \
             1.3x vector-multiply gate"
        ));
    }
    Ok(format!(
        "{} tables ({} ntt_kernels rows, auto kernel within {worst_auto_ratio:.2}x of the \
         fastest; {} ew rows, best hadamard {best_hadamard:.2}x / mac {best_mac:.2}x), \
         headline speedup {speedup:.2}x",
        tables(report).len(),
        kernel_rows.len(),
        ew_rows.len(),
    ))
}

/// `BENCH_switch.json`: both boundary directions report with the
/// batch-size axis — a report without it cannot answer the question
/// the fast path exists for (how throughput scales with the number of
/// switched ciphertexts) — plus the O(√n) rotation-key headline and,
/// on full runs, batched extraction at least as fast as per-index.
fn switch_gate(report: &Value, quick: bool) -> Result<String, String> {
    for name in ["extract", "repack"] {
        require_table(report, name, "batch", 1)?;
    }
    if host_field(report, "ntt_kernel")
        .and_then(Value::as_str)
        .is_none()
    {
        return Err("report host has no string `ntt_kernel` field".into());
    }
    // Headline: the BSGS key-count claim is structural (independent of
    // runner noise), so it gates even --quick runs.
    let (Some(bsgs_keys), Some(naive_keys)) = (
        headline_field(report, "bsgs_rotation_keys").and_then(Value::as_u64),
        headline_field(report, "naive_rotation_keys").and_then(Value::as_u64),
    ) else {
        return Err("report headline has no rotation-key counts".into());
    };
    if bsgs_keys >= naive_keys {
        return Err(format!(
            "BSGS holds {bsgs_keys} rotation keys, not fewer than the naive path's {naive_keys}"
        ));
    }
    let speedup = headline_field(report, "extract_speedup")
        .and_then(Value::as_f64)
        .ok_or("report headline has no numeric `extract_speedup`")?;
    // Timing claims only gate full runs: --quick on a shared CI runner
    // is smoke (does the harness run end to end), not a perf contract.
    if !quick && speedup < 1.0 {
        return Err(format!(
            "batched extraction headline speedup {speedup:.2}x is below the per-index path \
             on a full run"
        ));
    }
    Ok(format!(
        "{} tables, extract headline {speedup:.2}x, rotation keys {bsgs_keys} BSGS vs \
         {naive_keys} naive",
        tables(report).len()
    ))
}

/// `BENCH_sha256.json`: `circuit`/`sim`/`host` tables each carrying
/// the adder axis for both adders — a table that cannot say which
/// adder produced it cannot answer the depth-vs-gates question the
/// workload exists to measure — and the acceptance claims: the
/// parallel-prefix circuit has a strictly shorter bootstrap critical
/// path AND strictly higher PLP utilization than ripple-carry on the
/// same block, and every homomorphic digest matched the plaintext
/// reference. All three claims come from deterministic pipelines
/// (circuit generator, compiler, scheduler, seeded host run), so they
/// gate `--quick` smoke runs too. The `host` table must hold, for
/// each adder, a row at 1 thread and one at the report's
/// `par_threads`, each with `ok` set; the rows carry no speedup gate
/// (wall clock on a shared runner is too noisy to gate on).
fn sha256_gate(report: &Value, _quick: bool) -> Result<String, String> {
    for name in ["circuit", "sim", "host"] {
        require_table(report, name, "adder", 2)?;
    }
    sha256_host_rows(report)?;
    if host_field(report, "ntt_kernel")
        .and_then(Value::as_str)
        .is_none()
    {
        return Err("report host has no string `ntt_kernel` field".into());
    }
    let field_u64 = |name: &str| headline_field(report, name).and_then(Value::as_u64);
    let field_f64 = |name: &str| headline_field(report, name).and_then(Value::as_f64);
    let (Some(ripple_depth), Some(prefix_depth)) =
        (field_u64("ripple_depth"), field_u64("prefix_depth"))
    else {
        return Err("report headline has no depth pair".into());
    };
    if prefix_depth >= ripple_depth {
        return Err(format!(
            "prefix critical path ({prefix_depth} levels) is not strictly shorter than \
             ripple's ({ripple_depth})"
        ));
    }
    let (Some(ripple_util), Some(prefix_util)) =
        (field_f64("ripple_plp_util"), field_f64("prefix_plp_util"))
    else {
        return Err("report headline has no PLP utilization pair".into());
    };
    if prefix_util <= ripple_util {
        return Err(format!(
            "prefix PLP utilization ({prefix_util:.4}) is not strictly higher than ripple's \
             ({ripple_util:.4})"
        ));
    }
    if headline_field(report, "hom_ok").and_then(Value::as_bool) != Some(true) {
        return Err("homomorphic digests did not match the reference".into());
    }
    Ok(format!(
        "{} tables, critical path {prefix_depth} vs {ripple_depth} levels, PLP util \
         {prefix_util:.3} vs {ripple_util:.3}, digests match",
        tables(report).len()
    ))
}

/// Every `(adder, threads)` pair of the `host` table at 1 and at
/// `par_threads` threads, with `ok` set on every row.
fn sha256_host_rows(report: &Value) -> Result<(), String> {
    let par_threads = host_field(report, "par_threads")
        .and_then(Value::as_u64)
        .ok_or("report host has no numeric `par_threads` field")?;
    let (Some(a_col), Some(t_col), Some(ok_col)) = (
        col_index(report, "host", "adder"),
        col_index(report, "host", "threads"),
        col_index(report, "host", "ok"),
    ) else {
        return Err("`host` table needs `adder`, `threads` and `ok` columns".into());
    };
    let mut seen: Vec<(&str, u64)> = Vec::new();
    for row in table_rows(report, "host") {
        let cells = row.as_array().unwrap_or_default();
        let adder = cells.get(a_col).and_then(Value::as_str).unwrap_or("");
        let threads = cells
            .get(t_col)
            .and_then(Value::as_u64)
            .ok_or("`host` row has no numeric `threads`")?;
        if cells.get(ok_col).and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "`host` row {adder} at {threads} threads is not `ok`"
            ));
        }
        seen.push((adder, threads));
    }
    for adder in ["ripple", "prefix"] {
        for threads in [1, par_threads] {
            if !seen.contains(&(adder, threads)) {
                return Err(format!(
                    "`host` table has no {adder} row at {threads} threads"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("committed report is valid JSON")
    }

    /// Mutable lookup of an object field.
    fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Object(fields) => {
                &mut fields
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no field `{key}`"))
                    .1
            }
            _ => panic!("not an object looking up `{key}`"),
        }
    }

    fn elements_mut(v: &mut Value) -> &mut Vec<Value> {
        match v {
            Value::Array(items) => items,
            _ => panic!("not an array"),
        }
    }

    fn math() -> Value {
        parse(include_str!("../../BENCH_math.json"))
    }

    fn switch() -> Value {
        parse(include_str!("../../BENCH_switch.json"))
    }

    fn sha256() -> Value {
        parse(include_str!("../../BENCH_sha256.json"))
    }

    #[test]
    fn committed_bench_math_passes_full_gates() {
        check_report("bench_math", &math(), false, math_gate).unwrap();
    }

    #[test]
    fn committed_bench_switch_passes_full_gates() {
        check_report("bench_switch", &switch(), false, switch_gate).unwrap();
    }

    #[test]
    fn committed_bench_sha256_passes_full_gates() {
        check_report("bench_sha256", &sha256(), false, sha256_gate).unwrap();
    }

    #[test]
    fn bench_math_rejects_a_slow_auto_kernel() {
        // In the first row where both kernels ran, claim the auto
        // kernel is IFMA and make it twice as slow as radix-4.
        let mut report = math();
        let fwd_r4 = col_index(&report, "ntt_kernels", "forward_radix4_ns").unwrap();
        let fwd_ifma = col_index(&report, "ntt_kernels", "forward_ifma_ns").unwrap();
        let auto = col_index(&report, "ntt_kernels", "auto").unwrap();
        let tables = elements_mut(field_mut(&mut report, "tables"));
        let kernels = tables
            .iter_mut()
            .find(|t| t.get("name").and_then(Value::as_str) == Some("ntt_kernels"))
            .unwrap();
        let row = elements_mut(field_mut(kernels, "rows"))
            .iter_mut()
            .map(elements_mut)
            .find(|cells| cells[fwd_ifma].as_f64().is_some())
            .unwrap();
        let r4 = row[fwd_r4].as_f64().unwrap();
        row[fwd_ifma] = Value::F64(2.0 * r4);
        row[auto] = Value::Str("ifma".into());
        let err = check_report("bench_math", &report, false, math_gate).unwrap_err();
        assert!(err.contains("auto kernel `ifma`"), "{err}");
    }

    #[test]
    fn bench_switch_rejects_bsgs_without_fewer_keys() {
        let mut report = switch();
        let naive = headline_field(&report, "naive_rotation_keys")
            .cloned()
            .unwrap();
        *field_mut(field_mut(&mut report, "headline"), "bsgs_rotation_keys") = naive;
        let err = check_report("bench_switch", &report, false, switch_gate).unwrap_err();
        assert!(err.contains("rotation keys"), "{err}");
    }

    #[test]
    fn bench_sha256_rejects_prefix_no_shallower_than_ripple() {
        let mut report = sha256();
        let ripple = headline_field(&report, "ripple_depth").cloned().unwrap();
        *field_mut(field_mut(&mut report, "headline"), "prefix_depth") = ripple;
        let err = check_report("bench_sha256", &report, false, sha256_gate).unwrap_err();
        assert!(err.contains("critical path"), "{err}");
    }

    #[test]
    fn bench_sha256_rejects_a_missing_n_thread_row() {
        let mut report = sha256();
        let par_threads = host_field(&report, "par_threads")
            .and_then(Value::as_u64)
            .unwrap();
        assert!(par_threads > 1, "committed report ran on one thread");
        let t_col = col_index(&report, "host", "threads").unwrap();
        let tables = elements_mut(field_mut(&mut report, "tables"));
        let host = tables
            .iter_mut()
            .find(|t| t.get("name").and_then(Value::as_str) == Some("host"))
            .unwrap();
        elements_mut(field_mut(host, "rows"))
            .retain(|row| row.as_array().unwrap()[t_col].as_u64() != Some(par_threads));
        let err = check_report("bench_sha256", &report, false, sha256_gate).unwrap_err();
        assert!(err.contains(&format!("at {par_threads} threads")), "{err}");
    }
}
