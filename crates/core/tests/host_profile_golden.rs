//! Golden test for `ufc-profile --host`: the top-spans table on the
//! committed hybrid-kNN fixture must carry exactly the pinned span
//! kinds with the pinned counts.
//!
//! The host pipeline is fully seeded and single-path, so the *shape*
//! of a recording — which spans fire and how often — is reproducible
//! bit for bit even though the latencies are not. Every modulus in it
//! is below 2^50, so the NTT dispatch rule tags all of its transforms
//! `ifma` on hosts with AVX-512 IFMA and `radix4` elsewhere: the test
//! takes the tag from the host's feature probe, and the counts are the
//! same on every host. The test scale sits below the `par_limbs`
//! threading threshold so no `math/par_worker` spans appear. If you
//! intentionally change the instrumentation or the workload, update
//! the table below.

use std::process::Command;

use ufc_math::ntt::NttKernel;

/// `(span key, count)` pinned for the default `HostRunConfig` (seed 7,
/// six candidates, six gates). `{ntt}` is the host's NTT kernel tag.
const GOLDEN_SPANS: &[(&str, u64)] = &[
    ("ckks/add", 1),
    ("ckks/decrypt", 1),
    ("ckks/encode", 2),
    ("ckks/encrypt", 2),
    ("ckks/key_switch", 1),
    ("ckks/mul_plain", 1),
    ("ckks/rescale", 1),
    ("ckks/rotate", 1),
    ("math/bconv", 3),
    ("math/ntt_forward[{ntt}]", 6345),
    ("math/ntt_inverse[{ntt}]", 1986),
    ("math/par_limb", 5858),
    ("switch/extract_batch[b8]", 1),
    ("tfhe/blind_rotate", 12),
    ("tfhe/external_product", 768),
    ("tfhe/gate[and]", 1),
    ("tfhe/gate[nand]", 1),
    ("tfhe/gate[nor]", 1),
    ("tfhe/gate[or]", 1),
    ("tfhe/gate[xnor]", 1),
    ("tfhe/gate[xor]", 1),
    ("tfhe/key_switch", 12),
    ("tfhe/pbs", 12),
    ("workload/ckks_arith", 1),
    ("workload/hybrid_knn", 1),
    ("workload/setup", 1),
    ("workload/tfhe_gates", 1),
    ("workload/threshold_compare", 1),
];

#[test]
fn host_top_spans_table_matches_golden() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/hybrid_knn_small.trace"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_ufc-profile"))
        .arg(fixture)
        .args(["--top", "64"])
        .arg("--host")
        .output()
        .expect("run ufc-profile --host");
    assert!(
        out.status.success(),
        "ufc-profile --host failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");

    // Pull `(span, count)` out of the "## host top spans" table.
    let section = stdout
        .split("## host top spans")
        .nth(1)
        .expect("output has a host top-spans section")
        .split("\n##")
        .next()
        .expect("split always yields a first piece");
    let mut got: Vec<(String, u64)> = section
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| span") && !l.starts_with("|---"))
        .map(|l| {
            let mut cols = l.split('|').map(str::trim).filter(|c| !c.is_empty());
            let name = cols.next().expect("span column").to_owned();
            let count: u64 = cols
                .next()
                .expect("count column")
                .parse()
                .expect("count parses");
            (name, count)
        })
        .collect();
    got.sort();

    let ntt = if ufc_math::simd::ifma_available() {
        NttKernel::Ifma
    } else {
        NttKernel::Radix4
    };
    let want: Vec<(String, u64)> = GOLDEN_SPANS
        .iter()
        .map(|&(n, c)| (n.replace("{ntt}", ntt.name()), c))
        .collect();
    assert_eq!(
        got, want,
        "host top-spans table drifted from the golden shape \
         (timings may vary; span kinds and counts must not)"
    );

    // The noise-headroom section rides along in the same output.
    assert!(stdout.contains("## noise headroom"), "{stdout}");
    assert!(stdout.contains("headroom drift:"), "{stdout}");
}
