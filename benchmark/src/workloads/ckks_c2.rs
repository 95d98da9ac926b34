//! `ckks_c2_n13`: a C2-shaped CKKS pipeline at N = 2^13 (12 Q limbs,
//! α = 4 special limbs, dnum = 3): weighting, a hoisted rotate-and-sum,
//! a relinearized square and a final rotate-and-add, each step timed as a
//! stage of its own.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufc_ckks::{CkksContext, Evaluator, KeySet, RnsPoly, SecretKey};
use ufc_trace::span;

use super::{seeded_rng, timed, Outcome, Workload, INPUTS, NOISE, PUBLIC};

/// Ring dimension.
pub const N: usize = 8192;
/// Packed slots per request (N/2).
pub const SLOTS: usize = N / 2;
/// Hoisted rotation steps, summed.
pub const HOISTED_STEPS: [isize; 4] = [1, 2, 4, 8];
/// The final plain rotation step.
pub const FINAL_STEP: isize = 16;
/// Least precision a request must keep, in bits. Keys set the level:
/// `RnsPlane::rescale_assign` divides by flooring, not rounding, which
/// leaves a key-dependent error in slot 0. Over seeds 1–40 the pipeline
/// keeps 5.1–8.9 bits (median 6.9), so the floor sits below the worst
/// key with margin while still catching a broken operation.
pub const MIN_PRECISION_BITS: f64 = 4.0;

/// Context, keys and the server's fixed weight plaintext.
pub struct CkksC2 {
    seed: u64,
    ev: Evaluator,
    sk: SecretKey,
    keys: KeySet,
    weights: Vec<f64>,
    weights_pt: RnsPoly,
}

/// The server's public weights, uniform in [-1, 1].
pub fn weights(seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed, PUBLIC, 0);
    (0..SLOTS).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn rotated(v: &[f64], step: isize) -> impl Iterator<Item = f64> + '_ {
    let n = v.len();
    (0..n).map(move |i| v[(i + step as usize) % n])
}

/// Plaintext inputs of request `index` (uniform in [-0.5, 0.5]) and the
/// f64 reference of the whole pipeline.
pub fn inputs(seed: u64, weights: &[f64], index: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = seeded_rng(seed, INPUTS, index);
    let x: Vec<f64> = (0..SLOTS).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let y: Vec<f64> = x.iter().zip(weights).map(|(a, w)| a * w).collect();
    let mut z = vec![0.0; SLOTS];
    for step in HOISTED_STEPS {
        for (acc, v) in z.iter_mut().zip(rotated(&y, step)) {
            *acc += v;
        }
    }
    let u: Vec<f64> = z.iter().map(|v| v * v).collect();
    let expect = u
        .iter()
        .zip(rotated(&u, FINAL_STEP))
        .map(|(a, b)| a + b)
        .collect();
    (x, expect)
}

impl CkksC2 {
    /// Builds the workload's contexts, keys and public inputs from `seed`.
    pub fn new(seed: u64) -> Self {
        let ctx = CkksContext::new(N, 12, 4, 3, 36, 34);
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let mut keys = KeySet::generate(&ctx, &sk, &mut rng);
        for step in HOISTED_STEPS.into_iter().chain([FINAL_STEP]) {
            keys.gen_rotation_key(&ctx, &sk, step, &mut rng);
        }
        let ev = Evaluator::new(ctx);
        let weights = weights(seed);
        let weights_pt = ev.encode_real(&weights, ev.context().max_level());
        Self {
            seed,
            ev,
            sk,
            keys,
            weights,
            weights_pt,
        }
    }
}

impl Workload for CkksC2 {
    fn request(&mut self, index: u64) -> Outcome {
        let (x, expect) = inputs(self.seed, &self.weights, index);
        let mut rng = seeded_rng(self.seed, NOISE, index);
        let (ev, keys) = (&self.ev, &self.keys);

        let start = Instant::now();
        let ct = {
            let _s = span("bench", "client");
            ev.encrypt_real(&x, keys, &mut rng)
        };
        let encrypt = start.elapsed();

        let mut server = Vec::new();
        let out = {
            let _s = span("bench", "ckks");
            let y = timed(&mut server, || {
                ev.rescale(&ev.mul_plain(&ct, &self.weights_pt))
            });
            let hoisted = timed(&mut server, || ev.hoist(&y));
            let (first, rest) = HOISTED_STEPS.split_first().expect("a hoisted step");
            let mut z = timed(&mut server, || {
                ev.rotate_hoisted(&y, &hoisted, *first, keys)
            });
            for &step in rest {
                z = timed(&mut server, || {
                    ev.add(&z, &ev.rotate_hoisted(&y, &hoisted, step, keys))
                });
            }
            let u = timed(&mut server, || ev.rescale(&ev.mul(&z, &z, keys)));
            timed(&mut server, || ev.add(&u, &ev.rotate(&u, FINAL_STEP, keys)))
        };

        let start = Instant::now();
        let bits = {
            let _s = span("bench", "client");
            ev.measured_precision_bits(&out, &self.sk, &expect)
        };
        Outcome {
            server,
            client: encrypt + start.elapsed(),
            ok: bits >= MIN_PRECISION_BITS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_reference() {
        let w = weights(3);
        assert_eq!(w, weights(3));
        assert_eq!(inputs(3, &w, 5), inputs(3, &w, 5));
        assert_ne!(inputs(3, &w, 5).0, inputs(3, &w, 6).0);
        assert_ne!(inputs(3, &w, 5).0, inputs(4, &weights(4), 5).0);
    }

    #[test]
    fn reference_follows_the_pipeline() {
        let w = vec![1.0; SLOTS];
        let (x, expect) = inputs(1, &w, 0);
        let z = |i: usize| -> f64 {
            HOISTED_STEPS
                .iter()
                .map(|&s| x[(i + s as usize) % SLOTS])
                .sum()
        };
        for i in [0, 17, SLOTS - 1] {
            let want = z(i).powi(2) + z((i + FINAL_STEP as usize) % SLOTS).powi(2);
            assert!((expect[i] - want).abs() < 1e-12);
        }
    }
}
