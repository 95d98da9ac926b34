//! The batch programmable bootstrap must not depend on the worker
//! thread count: at 1 and at 4 threads it returns LWEs bit-identical
//! to one `programmable_bootstrap` call per ciphertext, traces one
//! `tfhe/pbs` span per item, and fans out to `min(4, items)` workers
//! only when more than one thread is allowed.
//!
//! Single `#[test]`: the `ufc-trace` recorder and the thread cap are
//! process-global and the cargo harness runs tests in one binary
//! concurrently.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ufc_math::par::set_max_threads;
use ufc_math::poly::Poly;
use ufc_tfhe::bootstrap::sign_test_vector;
use ufc_tfhe::gates::encrypt_bool;
use ufc_tfhe::{
    lut_test_vector, programmable_bootstrap, programmable_bootstrap_batch, LweCiphertext,
    TfheContext, TfheKeys,
};
use ufc_trace::HostTrace;

/// Runs one recorded batch bootstrap at the given thread cap.
fn recorded_batch(
    ctx: &TfheContext,
    keys: &TfheKeys,
    cts: &[LweCiphertext],
    tv: &Poly,
    threads: usize,
) -> (Vec<LweCiphertext>, HostTrace) {
    let recorder = ufc_trace::record().expect("no other recording is live");
    let prev = set_max_threads(threads);
    let out = programmable_bootstrap_batch(ctx, keys, cts, tv);
    set_max_threads(prev);
    (out, recorder.finish())
}

fn count(trace: &HostTrace, cat: &str, name: &str) -> usize {
    trace
        .spans
        .iter()
        .filter(|s| s.cat == cat && s.name == name)
        .count()
}

#[test]
fn batch_pbs_is_thread_count_invariant() {
    let ctx = TfheContext::new(64, 256, 7, 3, 6, 4);
    let mut rng = StdRng::seed_from_u64(0xBA7C_4B50);
    let keys = TfheKeys::generate(&ctx, &mut rng);

    // Three sign bootstraps of gate-style booleans, five LUT bootstraps
    // of small messages: batches below and above the 4-thread cap.
    let signs: Vec<LweCiphertext> = [true, false, true]
        .into_iter()
        .map(|b| encrypt_bool(&ctx, &keys, b, &mut rng))
        .collect();
    let luts: Vec<LweCiphertext> = [0u64, 1, 2, 3, 1]
        .into_iter()
        .map(|m| LweCiphertext::encrypt(&ctx, &keys.lwe_sk, ctx.encode(m, 8), &mut rng))
        .collect();
    let sign_tv = sign_test_vector(&ctx);
    let lut_tv = lut_test_vector(&ctx, |m| (3 * m + 1) % 8, 8);

    for (cts, tv, label) in [(&signs, &sign_tv, "sign"), (&luts, &lut_tv, "lut")] {
        let per_call: Vec<LweCiphertext> = cts
            .iter()
            .map(|ct| programmable_bootstrap(&ctx, &keys, ct, tv))
            .collect();
        for threads in [1, 4] {
            let (batch, trace) = recorded_batch(&ctx, &keys, cts, tv, threads);
            assert_eq!(batch, per_call, "{label} batch at {threads} threads");
            assert_eq!(
                count(&trace, "tfhe", "pbs"),
                cts.len(),
                "{label}: one tfhe/pbs span per item at {threads} threads"
            );
            let workers = if threads == 1 {
                0
            } else {
                threads.min(cts.len())
            };
            assert_eq!(
                count(&trace, "math", "par_worker"),
                workers,
                "{label}: worker spans at {threads} threads"
            );
        }
    }
}
