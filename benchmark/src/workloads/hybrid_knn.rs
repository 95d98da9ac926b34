//! `hybrid_knn_t1`: one kNN threshold query over 8 candidates, the
//! paper's Fig. 11 pipeline. CKKS adds two coefficient-packed partial
//! scores, the bridge extracts one LWE per candidate, and a T1
//! programmable bootstrap compares each score against the threshold.
//! The extraction and each bootstrap are timed as stages of their own.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufc_ckks::{CkksContext, Evaluator, KeySet, SecretKey};
use ufc_math::poly::Poly;
use ufc_switch::extract::encode_coefficients;
use ufc_switch::hybrid::comparator_test_vector;
use ufc_switch::CkksToLwe;
use ufc_tfhe::{programmable_bootstrap, TfheContext, TfheKeys};
use ufc_trace::span;

use super::{seeded_rng, timed, Outcome, Workload, INPUTS, NOISE};

/// Candidates per query.
pub const CANDIDATES: usize = 8;
/// TFHE message space; scores live in its lower half.
pub const SPACE: u64 = 8;
/// A candidate matches when its score reaches this value.
pub const THRESHOLD: u64 = 2;

/// Both schemes' contexts and keys, the bridge and the comparator LUT.
pub struct HybridKnn {
    seed: u64,
    ev: Evaluator,
    ckks_keys: KeySet,
    tfhe: TfheContext,
    tfhe_keys: TfheKeys,
    bridge: CkksToLwe,
    comparator: Poly,
}

/// The two partial scores of request `index` and the expected match
/// bits. Each total score is below `SPACE / 2`.
pub fn inputs(seed: u64, index: u64) -> (Vec<u64>, Vec<u64>, Vec<bool>) {
    let mut rng = seeded_rng(seed, INPUTS, index);
    let (mut a, mut b, mut expect) = (vec![], vec![], vec![]);
    for _ in 0..CANDIDATES {
        let total = rng.gen_range(0..SPACE / 2);
        let part = rng.gen_range(0..=total);
        a.push(part);
        b.push(total - part);
        expect.push(total >= THRESHOLD);
    }
    (a, b, expect)
}

impl HybridKnn {
    /// Builds the workload's contexts, keys and public inputs from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = CkksContext::new(8192, 3, 2, 2, 36, 34);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let ckks_keys = KeySet::generate(&ctx, &sk, &mut rng);
        let t1 = ufc_isa::params::tfhe_params("T1").expect("T1 is a paper set");
        let tfhe = TfheContext::try_from_params(&t1).expect("T1 instantiates");
        let tfhe_keys = TfheKeys::generate(&tfhe, &mut rng);
        let bridge = CkksToLwe::new(&ctx, &sk, &tfhe, &tfhe_keys, &mut rng);
        let comparator = comparator_test_vector(&tfhe, THRESHOLD, SPACE);
        Self {
            seed,
            ev: Evaluator::new(ctx),
            ckks_keys,
            tfhe,
            tfhe_keys,
            bridge,
            comparator,
        }
    }
}

impl Workload for HybridKnn {
    fn request(&mut self, index: u64) -> Outcome {
        let (a, b, expect) = inputs(self.seed, index);
        let mut rng = seeded_rng(self.seed, NOISE, index);
        let (ev, tfhe, tfhe_keys) = (&self.ev, &self.tfhe, &self.tfhe_keys);
        let top = ev.context().max_level();

        let start = Instant::now();
        let (ct_a, ct_b) = {
            let _s = span("bench", "client");
            let mut encrypt = |scores: &[u64]| {
                let pt = encode_coefficients(ev.context(), scores, SPACE);
                ev.encrypt_plaintext(&pt, &self.ckks_keys, top, &mut rng)
            };
            (encrypt(&a), encrypt(&b))
        };
        let encrypt = start.elapsed();

        let mut server = Vec::with_capacity(1 + CANDIDATES);
        let indices: Vec<usize> = (0..CANDIDATES).collect();
        let lwes = {
            let _s = span("bench", "switch");
            timed(&mut server, || {
                let scores = ev.add(&ct_a, &ct_b);
                self.bridge.extract_batch(ev, &scores, &indices, tfhe)
            })
            .expect("indices below the slot count extract")
        };
        let out: Vec<_> = {
            let _s = span("bench", "tfhe");
            lwes.iter()
                .map(|lwe| {
                    timed(&mut server, || {
                        programmable_bootstrap(tfhe, tfhe_keys, lwe, &self.comparator)
                    })
                })
                .collect()
        };

        let start = Instant::now();
        let got: Vec<bool> = {
            let _s = span("bench", "client");
            out.iter()
                .map(|ct| ct.decrypt(tfhe, &tfhe_keys.lwe_sk, SPACE) == 1)
                .collect()
        };
        Outcome {
            server,
            client: encrypt + start.elapsed(),
            ok: got == expect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_expected_bits() {
        assert_eq!(inputs(5, 3), inputs(5, 3));
        assert_ne!(inputs(5, 3), inputs(5, 4));
        assert_ne!(inputs(5, 3), inputs(6, 3));
        for index in 0..32 {
            let (a, b, expect) = inputs(5, index);
            for i in 0..CANDIDATES {
                assert!(a[i] + b[i] < SPACE / 2);
                assert_eq!(expect[i], a[i] + b[i] >= THRESHOLD);
            }
        }
    }
}
