//! Cross-crate integration: the real CKKS pipeline feeding the real
//! compiler and simulator.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ufc_ckks::{CkksContext, Evaluator, KeySet, SecretKey};
use ufc_compiler::{CompileOptions, Compiler};
use ufc_core::Ufc;
use ufc_sim::machines::SharpMachine;
use ufc_sim::simulate;

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn functional_trace_compiles_and_simulates() {
    // Run a real homomorphic program, capture its trace, and push the
    // trace through the compiler and both machine models.
    let ctx = CkksContext::new(64, 4, 2, 2, 36, 34);
    let mut rng = StdRng::seed_from_u64(1);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let mut keys = KeySet::generate(&ctx, &sk, &mut rng);
    keys.gen_rotation_key(&ctx, &sk, 1, &mut rng);
    let ev = Evaluator::new(ctx);

    let xs: Vec<f64> = (0..32).map(|i| (i as f64) * 0.05).collect();
    let ct = ev.encrypt_real(&xs, &keys, &mut rng);
    let sq = ev.rescale(&ev.mul(&ct, &ct, &keys));
    let rot = ev.rotate(&sq, 1, &keys);
    let out = ev.add(&rot, &sq);
    // Check the math end-to-end first.
    let dec = ev.decrypt_real(&out, &sk);
    let expect: Vec<f64> = (0..32)
        .map(|i| xs[(i + 1) % 32].powi(2) + xs[i].powi(2))
        .collect();
    assert!(
        max_err(&dec, &expect) < 0.05,
        "err {}",
        max_err(&dec, &expect)
    );

    // The recorded trace must lower and simulate on UFC and SHARP.
    // (The trace carries test-scale levels; attach a paper parameter
    // environment for lowering shapes.)
    let mut trace = ev.take_trace();
    trace.ckks_params = Some("C1");
    let (stream, _) = Compiler::try_for_trace(&trace, CompileOptions::default())
        .and_then(|c| c.try_compile(&trace))
        .expect("the recorded trace compiles");
    assert!(stream.len() > 10);
    let ufc = Ufc::paper_default()
        .try_machine_for(&trace)
        .expect("C1 is a known set");
    let r1 = simulate(&ufc, &stream);
    let r2 = simulate(&SharpMachine::new(), &stream);
    assert!(r1.cycles > 0 && r2.cycles > 0);
}

#[test]
fn bootstrap_refreshes_and_allows_more_multiplications() {
    let ctx = CkksContext::new(16, 11, 3, 4, 36, 34);
    let mut rng = StdRng::seed_from_u64(2);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let mut keys = KeySet::generate(&ctx, &sk, &mut rng);
    let ev = Evaluator::new(ctx);
    let bs = ufc_ckks::bootstrap::Bootstrapper::new(ev.context().slots());
    ufc_ckks::bootstrap::gen_bootstrap_keys(&ev, &bs, &mut keys, &sk, &mut rng);

    let vals: Vec<f64> = (0..8).map(|i| 0.01 * i as f64).collect();
    let ct = ev.encrypt_real(&vals, &keys, &mut rng);
    let refreshed = bs.bootstrap(&ev, &ct, &keys);
    // The refreshed ciphertext still supports a multiplication.
    let sq = ev.rescale(&ev.mul(&refreshed, &refreshed, &keys));
    let dec = ev.decrypt_real(&sq, &sk);
    let expect: Vec<f64> = vals.iter().map(|v| v * v).collect();
    assert!(
        max_err(&dec, &expect) < 0.03,
        "err {}",
        max_err(&dec, &expect)
    );
}

#[test]
fn workload_traces_run_on_every_parameter_set() {
    let ufc = Ufc::paper_default();
    for p in ["C1", "C2", "C3"] {
        for tr in ufc_workloads::all_ckks_workloads(p) {
            let r = ufc.run(&tr);
            assert!(r.cycles > 0, "{} on {p}", tr.name);
        }
    }
}
