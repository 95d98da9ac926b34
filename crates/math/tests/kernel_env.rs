//! Pins `UFC_SIMD_DISABLE`, the stand-in for hosts without AVX2 or
//! AVX-512 IFMA, to the dispatch it must produce:
//!
//! * `UFC_SIMD_DISABLE=ifma`: the NTT dispatch rule picks radix-4 even
//!   on a ring and modulus where it would otherwise pick IFMA
//!   (`N = 2^13`, 36-bit q), and hadamard/mac route to `portable`.
//! * `UFC_SIMD_DISABLE=all`: add/sub/scale route to `portable` as
//!   well.
//!
//! The variable is read once per process, so the test re-invokes its
//! own binary with the variable set instead of mutating the harness
//! process.

use std::process::Command;

use ufc_math::ntt::{NttContext, NttKernel};
use ufc_math::prime::generate_ntt_prime;
use ufc_math::simd::{ew_backend, EwOp};

/// Marker variable switching this binary into child mode.
const CHILD_ENV: &str = "UFC_KERNEL_ENV_CHILD";

const TEST_NAME: &str = "simd_disable_routes_to_portable_and_radix4";

/// Child mode: prints the NTT kernel of an `N = 2^13`, 36-bit-prime
/// context and the element-wise backend of every op, one per line.
fn child_report_dispatch() {
    let n = 1 << 13;
    let q = generate_ntt_prime(n, 36).expect("NTT prime");
    println!("ntt={}", NttContext::new(n, q).kernel().name());
    for op in EwOp::ALL {
        println!("ew.{}={}", op.name(), ew_backend(op, q).name());
    }
}

/// Re-runs this test in a child process with `UFC_SIMD_DISABLE=value`
/// and returns its stdout, asserting a clean exit.
fn run_child(value: &str) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args(["--exact", TEST_NAME, "--nocapture"])
        .env(CHILD_ENV, "1")
        .env("UFC_SIMD_DISABLE", value)
        .output()
        .expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "child test process failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn simd_disable_routes_to_portable_and_radix4() {
    if std::env::var_os(CHILD_ENV).is_some() {
        child_report_dispatch();
        return;
    }
    let radix4 = format!("ntt={}", NttKernel::Radix4.name());

    let no_ifma = run_child("ifma");
    assert!(no_ifma.lines().any(|l| l == radix4), "stdout:\n{no_ifma}");
    for op in [EwOp::Mul, EwOp::Mac] {
        let line = format!("ew.{}=portable", op.name());
        assert!(
            no_ifma.lines().any(|l| l == line),
            "{line}, stdout:\n{no_ifma}"
        );
    }

    let none = run_child("all");
    assert!(none.lines().any(|l| l == radix4), "stdout:\n{none}");
    for op in EwOp::ALL {
        let line = format!("ew.{}=portable", op.name());
        assert!(none.lines().any(|l| l == line), "{line}, stdout:\n{none}");
    }
}
