//! Regression tests for the kernel-selection environment path.
//!
//! Two contracts live here:
//!
//! * A malformed `UFC_NTT_KERNEL` must not abort library consumers
//!   that merely build [`ufc_math::ntt::NttContext`]s — it warns once
//!   on stderr and falls back to the automatic dispatch rule. The
//!   retired kernel names `radix2` and `simd` are malformed values
//!   like any other: a typed [`KernelEnvError`] for CLIs that
//!   validate at startup, a warn-and-fallback for library paths.
//! * A *well-formed* `UFC_NTT_KERNEL=ifma` is strict: on a prime at
//!   or above 2⁵⁰ it is a typed [`NttError::IfmaPrimeTooWide`], and
//!   on a host without AVX-512 IFMA (simulated with
//!   `UFC_SIMD_DISABLE=ifma`) it is a typed
//!   [`NttError::IfmaUnavailable`] unless `UFC_IFMA_PORTABLE=1` opts
//!   into the bit-identical portable mirror lanes. Silent fallback in
//!   either case would hand a bench run or CI leg a kernel it did not
//!   ask for.
//!
//! Environment variables are process-global, so each test re-invokes
//! its own binary with the variables set instead of mutating the
//! harness process (which would race against other tests).

use std::process::Command;

use ufc_math::ntt::{
    KernelEnvError, NttContext, NttError, NttKernel, IFMA_PORTABLE_ENV, KERNEL_ENV,
};
use ufc_math::prime::generate_ntt_prime;

/// Marker variable switching this binary into child mode.
const CHILD_ENV: &str = "UFC_KERNEL_ENV_CHILD";

/// What the child prints when both contexts came up.
const CHILD_OK: &str = "kernel-env-child-ok";

#[test]
fn malformed_env_warns_once_and_falls_back() {
    if std::env::var(CHILD_ENV).is_ok() {
        child_build_contexts();
        return;
    }
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args([
            "--exact",
            "malformed_env_warns_once_and_falls_back",
            "--nocapture",
        ])
        .env(CHILD_ENV, "1")
        .env(KERNEL_ENV, "radix16-bogus")
        .output()
        .expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "child aborted on malformed {KERNEL_ENV}\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains(CHILD_OK), "stdout:\n{stdout}");
    // The warning names the offending value and fires exactly once
    // even though the child builds two contexts.
    let warnings = stderr
        .matches("falling back to automatic kernel selection")
        .count();
    assert_eq!(warnings, 1, "stderr:\n{stderr}");
    assert!(stderr.contains("radix16-bogus"), "stderr:\n{stderr}");
}

/// Child mode: acts like a library consumer that builds two NTT
/// contexts with the malformed variable in scope and then uses them.
fn child_build_contexts() {
    let a = NttContext::new(64, 7681);
    let b = NttContext::new(128, 7681);
    let x: Vec<u64> = (0..64).collect();
    let mut y = x.clone();
    a.forward(&mut y);
    a.inverse(&mut y);
    assert_eq!(x, y, "roundtrip through fallback kernel");
    println!("{CHILD_OK}: kernels {:?} {:?}", a.kernel(), b.kernel());
}

/// Child mode for the forced-ifma tests: attempts `try_new` at the
/// given prime width and prints the typed outcome on one line.
fn child_try_ifma(bits: u32) {
    let n = 1 << 10;
    let q = generate_ntt_prime(n, bits).expect("NTT prime");
    match NttContext::try_new(n, q) {
        Ok(ctx) => {
            let x: Vec<u64> = (0..n as u64).map(|i| i % q).collect();
            let mut y = x.clone();
            ctx.forward(&mut y);
            ctx.inverse(&mut y);
            assert_eq!(x, y, "roundtrip through forced kernel");
            println!("child-ok kernel={}", ctx.kernel().name());
        }
        Err(NttError::IfmaPrimeTooWide { q: wide }) => {
            assert_eq!(wide, q, "error names the rejected modulus");
            println!("child-err prime-too-wide q={wide}");
        }
        Err(NttError::IfmaUnavailable) => println!("child-err ifma-unavailable"),
        Err(other) => panic!("unexpected selection error: {other}"),
    }
}

/// Re-runs the named test in a child process with the given extra
/// environment and returns (stdout, stderr), asserting a clean exit.
///
/// Inherited kernel-selection variables are scrubbed first so the
/// child sees exactly the overrides passed here — the CI kernel
/// matrix exports `UFC_NTT_KERNEL` (and the ifma leg
/// `UFC_IFMA_PORTABLE=1`) to the harness process, and leaking those
/// into a child would flip the strict typed errors under test into
/// silent successes.
fn run_child(test_name: &str, mode: &str, env: &[(&str, &str)]) -> (String, String) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", test_name, "--nocapture"])
        .env(CHILD_ENV, mode)
        .env_remove(KERNEL_ENV)
        .env_remove(IFMA_PORTABLE_ENV)
        .env_remove("UFC_SIMD_DISABLE");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "child test process failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    (stdout, stderr)
}

#[test]
fn forced_ifma_on_wide_prime_is_a_typed_error() {
    if let Ok(mode) = std::env::var(CHILD_ENV) {
        if mode == "ifma-wide" {
            child_try_ifma(59);
        }
        return;
    }
    let (stdout, stderr) = run_child(
        "forced_ifma_on_wide_prime_is_a_typed_error",
        "ifma-wide",
        &[(KERNEL_ENV, NttKernel::Ifma.name())],
    );
    assert!(
        stdout.contains("child-err prime-too-wide"),
        "expected IfmaPrimeTooWide, stdout:\n{stdout}"
    );
    // Strictness means *no* silent fallback warning either: the error
    // is the contract, not a downgrade notice.
    assert!(
        !stderr.contains("falling back"),
        "forced ifma must not fall back, stderr:\n{stderr}"
    );
}

#[test]
fn forced_ifma_without_hardware_is_a_typed_error() {
    if let Ok(mode) = std::env::var(CHILD_ENV) {
        if mode == "ifma-nohw" {
            child_try_ifma(45);
        }
        return;
    }
    // `UFC_SIMD_DISABLE=ifma` makes any host look like one without the
    // instructions, so this leg is deterministic on IFMA machines too.
    let (stdout, stderr) = run_child(
        "forced_ifma_without_hardware_is_a_typed_error",
        "ifma-nohw",
        &[
            (KERNEL_ENV, NttKernel::Ifma.name()),
            ("UFC_SIMD_DISABLE", "ifma"),
        ],
    );
    assert!(
        stdout.contains("child-err ifma-unavailable"),
        "expected IfmaUnavailable, stdout:\n{stdout}"
    );
    assert!(
        !stderr.contains("falling back"),
        "forced ifma must not fall back, stderr:\n{stderr}"
    );
}

#[test]
fn forced_ifma_portable_escape_runs_mirror_lanes() {
    if let Ok(mode) = std::env::var(CHILD_ENV) {
        if mode == "ifma-portable" {
            child_try_ifma(45);
        }
        return;
    }
    // Same hardware-less host, but the portable opt-in is set: the
    // selection must come up as the real ifma generation (on the
    // bit-identical portable lanes), not as some other kernel.
    let (stdout, _) = run_child(
        "forced_ifma_portable_escape_runs_mirror_lanes",
        "ifma-portable",
        &[
            (KERNEL_ENV, NttKernel::Ifma.name()),
            ("UFC_SIMD_DISABLE", "ifma"),
            (IFMA_PORTABLE_ENV, "1"),
        ],
    );
    assert!(
        stdout.contains("child-ok kernel=ifma"),
        "expected the ifma kernel on portable lanes, stdout:\n{stdout}"
    );
}

#[test]
fn retired_kernel_names_are_rejected_without_panicking() {
    if let Ok(mode) = std::env::var(CHILD_ENV) {
        if mode == "retired" {
            child_retired_name();
        }
        return;
    }
    for retired in ["radix2", "simd"] {
        let (stdout, stderr) = run_child(
            "retired_kernel_names_are_rejected_without_panicking",
            "retired",
            &[(KERNEL_ENV, retired)],
        );
        assert!(
            stdout.contains(&format!("child-cli-err value={retired}")),
            "expected a KernelEnvError for `{retired}`, stdout:\n{stdout}"
        );
        assert!(
            stdout.contains("child-lib-ok"),
            "library path did not fall back for `{retired}`, stdout:\n{stdout}"
        );
        let warnings = stderr
            .matches("falling back to automatic kernel selection")
            .count();
        assert_eq!(warnings, 1, "stderr:\n{stderr}");
        assert!(stderr.contains(retired), "stderr:\n{stderr}");
    }
}

/// Child mode for the retired-name test: the CLI path
/// (`NttKernel::from_env`) must return the typed error, and the
/// library path (`NttContext::new`) must warn once and come up on the
/// kernel the dispatch rule picks.
fn child_retired_name() {
    let err: KernelEnvError = match NttKernel::from_env() {
        Err(e) => e,
        Ok(k) => panic!("retired kernel name accepted as {k:?}"),
    };
    println!("child-cli-err value={}", err.value);
    let (n, q) = (64, 7681);
    let a = NttContext::new(n, q);
    let b = NttContext::new(n, q);
    for ctx in [&a, &b] {
        assert_eq!(ctx.kernel(), NttKernel::auto_for(n, q));
    }
    let x: Vec<u64> = (0..n as u64).collect();
    let mut y = x.clone();
    a.forward(&mut y);
    a.inverse(&mut y);
    assert_eq!(x, y, "roundtrip through fallback kernel");
    println!("child-lib-ok kernel={}", a.kernel().name());
}
