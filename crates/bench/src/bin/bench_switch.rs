//! Scheme-switch boundary benchmarks: batched vs per-index CKKS→LWE
//! extraction and BSGS vs naive LWE→CKKS repacking, over a batch-size
//! axis.
//!
//! ```text
//! bench_switch [--quick] [--out <path>]
//! ```
//!
//! Emits `BENCH_switch.json` (or `--out`) with an `extract` and a
//! `repack` table plus a host topology block. The extraction rows also
//! assert bit-identity between the two paths inside the timed setup —
//! a benchmark that drifts from conformance is measuring the wrong
//! thing. `--quick` restricts batch sizes and repetitions for CI smoke
//! runs.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ufc_bench::{cell, JsonReport};
use ufc_ckks::{CkksContext, Evaluator as CkksEvaluator, KeySet, SecretKey};
use ufc_switch::extract::encode_coefficients;
use ufc_switch::{CkksToLwe, LweToCkks};
use ufc_tfhe::{LweCiphertext, TfheContext, TfheKeys};

struct Opts {
    quick: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        out: "BENCH_switch.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => match it.next() {
                Some(p) => opts.out = p,
                None => usage_error("--out needs a value"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    opts
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: bench_switch [--quick] [--out <path>]");
    std::process::exit(2);
}

/// Best-of-`reps` wall time of one call, in nanoseconds.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    let opts = parse_opts();
    let mut rng = StdRng::seed_from_u64(0x5317c4);
    let mut json = JsonReport::new("bench_switch");

    println!("# Scheme-switch boundary benchmarks\n");

    // ------------------------------------------------------ extraction
    // Test-scale hybrid environment (the hybrid k-NN fixture's shape):
    // CKKS ring 64, TFHE n = 64 / N = 256.
    let ckks_ctx = CkksContext::new(64, 3, 2, 2, 36, 34);
    let sk = SecretKey::generate(&ckks_ctx, &mut rng);
    let keys = KeySet::generate(&ckks_ctx, &sk, &mut rng);
    let tfhe_ctx = TfheContext::new(64, 256, 7, 3, 6, 4);
    let tfhe_keys = TfheKeys::generate(&tfhe_ctx, &mut rng);
    let bridge = CkksToLwe::new(&ckks_ctx, &sk, &tfhe_ctx, &tfhe_keys, &mut rng);
    let ring_n = ckks_ctx.n();
    let ev = CkksEvaluator::new(ckks_ctx);
    let messages: Vec<u64> = (0..ring_n as u64).map(|i| i % 8).collect();
    let pt = encode_coefficients(ev.context(), &messages, 8);
    let ct = ev.encrypt_plaintext(&pt, &keys, ev.context().max_level(), &mut rng);

    let batches: Vec<usize> = if opts.quick {
        vec![1, 4, 8]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64]
    };
    let ex_reps = if opts.quick { 5 } else { 20 };

    println!("## CKKS→LWE extraction: per-index vs batched\n");
    println!(
        "| batch | per-index (µs) | batched (µs) | per-index ops/s | batched ops/s | speedup |"
    );
    println!("|---|---|---|---|---|---|");
    let extract_table = json.table(
        "extract",
        &[
            "batch",
            "per_index_ns",
            "batched_ns",
            "per_index_ops_per_sec",
            "batched_ops_per_sec",
            "speedup",
        ],
    );
    let mut headline_batch = 0usize;
    let mut headline_speedup = 0.0f64;
    for &batch in &batches {
        let indices: Vec<usize> = (0..batch).map(|i| (i * 7) % ring_n).collect();
        let per_index_out = bridge
            .extract(&ev, &ct, &indices, &tfhe_ctx)
            .expect("indices in range");
        let batched_out = bridge
            .extract_batch(&ev, &ct, &indices, &tfhe_ctx)
            .expect("indices in range");
        assert_eq!(
            per_index_out, batched_out,
            "batched extraction diverged from per-index at batch {batch}"
        );
        let t_old = time_ns(ex_reps, || {
            std::hint::black_box(bridge.extract(&ev, &ct, &indices, &tfhe_ctx).unwrap());
        });
        let t_new = time_ns(ex_reps, || {
            std::hint::black_box(bridge.extract_batch(&ev, &ct, &indices, &tfhe_ctx).unwrap());
        });
        let ops_old = batch as f64 / (t_old / 1e9);
        let ops_new = batch as f64 / (t_new / 1e9);
        let speedup = t_old / t_new;
        extract_table.push(vec![
            cell(batch as u64),
            cell(t_old),
            cell(t_new),
            cell(ops_old),
            cell(ops_new),
            cell(speedup),
        ]);
        println!(
            "| {batch} | {:.1} | {:.1} | {ops_old:.0} | {ops_new:.0} | {speedup:.2}x |",
            t_old / 1e3,
            t_new / 1e3
        );
        if batch >= headline_batch {
            headline_batch = batch;
            headline_speedup = speedup;
        }
    }

    // ------------------------------------------------------- repacking
    // Repack test scale: CKKS ring 32 (9 limbs for the transform
    // depth), TFHE n = 16.
    let ckks_ctx = CkksContext::new(32, 9, 3, 3, 36, 34);
    let sk = SecretKey::generate(&ckks_ctx, &mut rng);
    let mut keys = KeySet::generate(&ckks_ctx, &sk, &mut rng);
    let tfhe_ctx = TfheContext::new(16, 64, 7, 3, 6, 4);
    let tfhe_keys = TfheKeys::generate(&tfhe_ctx, &mut rng);
    let ev = CkksEvaluator::new(ckks_ctx);
    let keys_before = keys.rotation_key_count();
    let bridge = LweToCkks::new(&ev, &mut keys, &sk, &tfhe_keys, &mut rng).expect("shapes fit");
    let bsgs_keys = keys.rotation_key_count() - keys_before;
    bridge.gen_naive_rotation_keys(&ev, &mut keys, &sk, &mut rng);
    let naive_keys = keys.rotation_key_count() - keys_before;
    let lwe_n = tfhe_ctx.lwe_dim();
    let (g, b) = bridge.bsgs_split();

    let make_lwe = |rng: &mut StdRng| -> LweCiphertext {
        let q = tfhe_ctx.q();
        let a: Vec<u64> = (0..lwe_n).map(|_| rng.gen_range(0..q / 64)).collect();
        let dot = a
            .iter()
            .zip(&tfhe_keys.lwe_sk)
            .fold(0u64, |acc, (&ai, &si)| {
                ufc_math::modops::add_mod(acc, ufc_math::modops::mul_mod(ai, si, q), q)
            });
        let b = ufc_math::modops::add_mod(dot, tfhe_ctx.encode(rng.gen_range(0..16), 16), q);
        LweCiphertext { a, b, q }
    };

    let rp_batches: Vec<usize> = if opts.quick {
        vec![1, 8]
    } else {
        vec![1, 4, 8, 16]
    };
    let rp_reps = if opts.quick { 2 } else { 5 };

    println!(
        "\n## LWE→CKKS repack: naive diagonals vs BSGS (n = {lwe_n}, split g = {g}, b = {b}; \
         rotation keys {naive_keys} naive vs {bsgs_keys} BSGS)\n"
    );
    println!("| batch | naive (ms) | bsgs (ms) | speedup |");
    println!("|---|---|---|---|");
    let repack_table = json.table("repack", &["batch", "naive_ns", "bsgs_ns", "speedup"]);
    for &batch in &rp_batches {
        let lwes: Vec<LweCiphertext> = (0..batch).map(|_| make_lwe(&mut rng)).collect();
        let t_naive = time_ns(rp_reps, || {
            std::hint::black_box(bridge.repack_naive(&ev, &keys, &lwes, &tfhe_ctx).unwrap());
        });
        let t_bsgs = time_ns(rp_reps, || {
            std::hint::black_box(bridge.repack(&ev, &keys, &lwes, &tfhe_ctx).unwrap());
        });
        let speedup = t_naive / t_bsgs;
        repack_table.push(vec![
            cell(batch as u64),
            cell(t_naive),
            cell(t_bsgs),
            cell(speedup),
        ]);
        println!(
            "| {batch} | {:.2} | {:.2} | {speedup:.2}x |",
            t_naive / 1e6,
            t_bsgs / 1e6
        );
    }

    // ------------------------------------------------------- host block
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "\nHeadline: batched extraction at batch {headline_batch}: {headline_speedup:.2}x over \
         the per-index loop; BSGS repack holds {bsgs_keys} rotation keys vs {naive_keys} naive."
    );

    #[derive(serde::Serialize)]
    struct Host {
        available_parallelism: u64,
        ntt_kernel: String,
        par_threads: u64,
    }
    #[derive(serde::Serialize)]
    struct Headline {
        batch: u64,
        extract_speedup: f64,
        bsgs_rotation_keys: u64,
        naive_rotation_keys: u64,
    }
    #[derive(serde::Serialize)]
    struct Output {
        experiment: String,
        quick: bool,
        host: Host,
        headline: Headline,
        tables: Vec<ufc_bench::JsonTable>,
    }
    let out = Output {
        experiment: json.experiment.clone(),
        quick: opts.quick,
        host: Host {
            available_parallelism: cores as u64,
            // The kernel the CKKS tables actually dispatch to (env
            // override and modulus width included).
            ntt_kernel: ev.context().ntt_q(0).kernel().name().to_owned(),
            par_threads: ufc_math::par::effective_threads() as u64,
        },
        headline: Headline {
            batch: headline_batch as u64,
            extract_speedup: headline_speedup,
            bsgs_rotation_keys: bsgs_keys as u64,
            naive_rotation_keys: naive_keys as u64,
        },
        tables: json.tables,
    };
    let value = serde::Serialize::to_value(&out);
    if let Err(e) = std::fs::write(&opts.out, value.to_json_pretty()) {
        eprintln!("--out {}: {e}", opts.out);
        std::process::exit(1);
    }
    eprintln!("benchmark report written to {}", opts.out);
}
