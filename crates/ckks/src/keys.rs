//! Key material: secret key, public key, and the hybrid key-switching
//! keys (relinearization / rotation / conjugation).
//!
//! Key-switching keys are generated per level so the embedded factor
//! `P · Q̂_j` always matches the active modulus chain — the same
//! accounting the on-the-fly key generation unit of UFC reproduces in
//! hardware (§IV-B5).

use crate::context::CkksContext;
use rand::Rng;
use ufc_math::automorph;
use ufc_math::modops::mul_mod;
use ufc_math::plane::RnsPlane;
use ufc_math::sample::{gaussian_vec, ternary_vec, uniform_plane};

/// Noise standard deviation (the ubiquitous σ = 3.2), shared with the
/// static noise model in `ufc_isa::noise`.
pub use ufc_isa::noise::NOISE_SIGMA;

/// The ternary secret key.
#[derive(Debug, Clone)]
pub struct SecretKey {
    /// Centered coefficients in `{-1, 0, 1}`.
    signed: Vec<i64>,
}

impl SecretKey {
    /// Samples a fresh ternary secret for the given context.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, rng: &mut R) -> Self {
        Self {
            signed: ternary_vec(rng, ctx.n()),
        }
    }

    /// The centered coefficient view.
    pub fn signed(&self) -> &[i64] {
        &self.signed
    }

    /// The secret over the first `count` Q limbs, in evaluation form.
    pub fn rns_eval(&self, ctx: &CkksContext, count: usize) -> RnsPlane {
        ctx.eval_from_signed(&self.signed, count)
    }
}

/// One key-switching key: per level, per digit, a pair `(b_j, a_j)`
/// over the active `Q` limbs extended by `P`, in evaluation form.
#[derive(Debug, Clone)]
pub struct SwitchingKey {
    /// `per_level[level][digit] = (b_j, a_j)`.
    per_level: Vec<Vec<(RnsPlane, RnsPlane)>>,
}

impl SwitchingKey {
    /// Generates a key switching `s_from → s` (the context's secret),
    /// where `s_from` is given as centered coefficients.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        s_from_signed: &[i64],
        rng: &mut R,
    ) -> Self {
        let mut per_level = Vec::with_capacity(ctx.max_level() + 1);
        for level in 0..=ctx.max_level() {
            let active = level + 1;
            // All moduli for this level's keys: active Q then P.
            let moduli: Vec<u64> = ctx.q_moduli()[..active]
                .iter()
                .chain(ctx.p_moduli())
                .copied()
                .collect();
            let mut digit_keys = Vec::new();
            for dt in ctx.digits() {
                let (lo, hi) = dt.limb_range;
                if lo >= active {
                    break;
                }
                let hi_l = hi.min(active);
                // factor = [P * Qhat_j]_q for active Q limbs inside
                // the key; 0 on P limbs (P ≡ 0 there) and on Q limbs
                // automatically via the product.
                let factors: Vec<u64> = moduli
                    .iter()
                    .enumerate()
                    .map(|(idx, &q)| {
                        if idx >= active {
                            return 0;
                        }
                        let mut f = ctx.p_mod_q(idx);
                        for (k, &qk) in ctx.q_moduli()[..active].iter().enumerate() {
                            if !(lo..hi_l).contains(&k) {
                                f = mul_mod(f, qk % q, q);
                            }
                        }
                        f
                    })
                    .collect();
                // b = -a*s + e + factor * s_from.
                let target = (s_from_signed, factors.as_slice());
                digit_keys.push(rlwe_sample(ctx, sk, &moduli, Some(target), rng));
            }
            per_level.push(digit_keys);
        }
        Self { per_level }
    }

    /// The digit keys active at `level`.
    pub fn at_level(&self, level: usize) -> &[(RnsPlane, RnsPlane)] {
        &self.per_level[level]
    }
}

/// The public key: `(b, a)` with `b = -a·s + e` over full `Q`.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `b` component, evaluation form.
    pub b: RnsPlane,
    /// `a` component, evaluation form.
    pub a: RnsPlane,
}

/// A full key set: public, relinearization, conjugation and rotation
/// keys.
#[derive(Debug)]
pub struct KeySet {
    /// Encryption key.
    pub public: PublicKey,
    /// Key switching `s² → s` (relinearization).
    pub relin: SwitchingKey,
    /// Key switching `conj(s) → s`.
    pub conj: SwitchingKey,
    /// Rotation keys by Galois exponent `k`.
    rotations: std::collections::HashMap<usize, SwitchingKey>,
}

impl KeySet {
    /// Generates public + relinearization + conjugation keys.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, sk: &SecretKey, rng: &mut R) -> Self {
        let n = ctx.n();
        let q_moduli = &ctx.q_moduli()[..=ctx.max_level()];
        let (b, a) = rlwe_sample(ctx, sk, q_moduli, None, rng);
        let public = PublicKey { b, a };

        // s² for relinearization.
        let s2 = square_signed(&sk.signed);
        let relin = SwitchingKey::generate(ctx, sk, &s2, rng);

        // conj(s): automorphism with k = 2N - 1.
        let conj_s = automorph_signed(&sk.signed, 2 * n - 1);
        let conj = SwitchingKey::generate(ctx, sk, &conj_s, rng);

        Self {
            public,
            relin,
            conj,
            rotations: std::collections::HashMap::new(),
        }
    }

    /// Generates and stores the rotation key for slot step `r`.
    pub fn gen_rotation_key<R: Rng + ?Sized>(
        &mut self,
        ctx: &CkksContext,
        sk: &SecretKey,
        step: isize,
        rng: &mut R,
    ) {
        let k = automorph::rotation_exponent(step, ctx.n());
        if self.rotations.contains_key(&k) {
            return;
        }
        let s_k = automorph_signed(sk.signed(), k);
        let key = SwitchingKey::generate(ctx, sk, &s_k, rng);
        self.rotations.insert(k, key);
    }

    /// Fetches the rotation key for Galois exponent `k`.
    pub fn rotation_key(&self, k: usize) -> Option<&SwitchingKey> {
        self.rotations.get(&k)
    }

    /// Number of rotation keys held (memory accounting for the
    /// minimum-key bootstrapping method of ARK the paper reuses).
    pub fn rotation_key_count(&self) -> usize {
        self.rotations.len()
    }
}

/// One key-shaped RLWE sample `(b, a)` over `moduli`, both in
/// evaluation form: `b = -a·s + e + factors ∘ s_from` with uniform `a`
/// and one small Gaussian `e` shared by every limb (RNS limbs must be
/// residues of the same integer polynomial or CRT reconstruction
/// breaks); `target = (s_from, factors)` is optional. Draws `e`, then
/// `a` limb by limb. The two key planes are the only plane-sized
/// allocations: freeing plane-sized temporaries between long-lived key
/// allocations fragments the heap the keys live in and raises peak
/// memory.
fn rlwe_sample<R: Rng + ?Sized>(
    ctx: &CkksContext,
    sk: &SecretKey,
    moduli: &[u64],
    target: Option<(&[i64], &[u64])>,
    rng: &mut R,
) -> (RnsPlane, RnsPlane) {
    let n = ctx.n();
    let e_signed = gaussian_vec(rng, n, NOISE_SIGMA);
    let mut a = uniform_plane(rng, n, moduli);
    ctx.to_eval(&mut a);
    // b starts as -s, so the product below is already -a·s.
    let neg_s: Vec<i64> = sk.signed.iter().map(|&v| -v).collect();
    let mut b = RnsPlane::from_signed(&neg_s, moduli);
    ctx.to_eval(&mut b);
    b.hadamard_assign(&a);
    ctx.to_coeff(&mut b);
    b.add_signed_assign(&e_signed, &vec![1; moduli.len()]);
    if let Some((s_from, factors)) = target {
        b.add_signed_assign(s_from, factors);
    }
    ctx.to_eval(&mut b);
    (b, a)
}

/// Negacyclic square of a signed coefficient vector (exact integer
/// arithmetic; used for the `s²` relinearization target).
fn square_signed(s: &[i64]) -> Vec<i64> {
    let n = s.len();
    let mut out = vec![0i64; n];
    for i in 0..n {
        if s[i] == 0 {
            continue;
        }
        for j in 0..n {
            let p = s[i] * s[j];
            let k = i + j;
            if k < n {
                out[k] += p;
            } else {
                out[k - n] -= p;
            }
        }
    }
    out
}

/// Galois automorphism on signed coefficients.
fn automorph_signed(s: &[i64], k: usize) -> Vec<i64> {
    let n = s.len();
    let mut out = vec![0i64; n];
    for (i, &c) in s.iter().enumerate() {
        let j = (i * k) % (2 * n);
        if j < n {
            out[j] = c;
        } else {
            out[j - n] = -c;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        CkksContext::new(32, 4, 2, 2, 36, 26)
    }

    #[test]
    fn secret_is_ternary() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&c, &mut rng);
        assert!(sk.signed().iter().all(|&v| (-1..=1).contains(&v)));
        assert_eq!(sk.signed().len(), 32);
    }

    #[test]
    fn public_key_decrypts_to_noise() {
        // b + a*s should be just the (small) noise e.
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&c, &mut rng);
        let ks = KeySet::generate(&c, &sk, &mut rng);
        let s_eval = sk.rns_eval(&c, c.max_level() + 1);
        let mut check = ks.public.a.clone();
        check.hadamard_assign(&s_eval);
        check.add_assign(&ks.public.b);
        c.to_coeff(&mut check);
        for l in 0..check.limb_count() {
            let q = check.modulus(l);
            for &v in check.limb(l) {
                let centered = ufc_math::modops::to_signed(v, q);
                assert!(centered.abs() < 64, "noise too large: {centered}");
            }
        }
    }

    #[test]
    fn switching_key_digit_counts_follow_level() {
        let c = CkksContext::new(32, 6, 2, 3, 36, 26);
        let mut rng = StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&c, &mut rng);
        let swk = SwitchingKey::generate(&c, &sk, sk.signed(), &mut rng);
        assert_eq!(swk.at_level(5).len(), 3);
        assert_eq!(swk.at_level(3).len(), 2);
        assert_eq!(swk.at_level(1).len(), 1);
    }

    #[test]
    fn rotation_keys_are_cached() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let sk = SecretKey::generate(&c, &mut rng);
        let mut ks = KeySet::generate(&c, &sk, &mut rng);
        ks.gen_rotation_key(&c, &sk, 1, &mut rng);
        ks.gen_rotation_key(&c, &sk, 1, &mut rng);
        assert_eq!(ks.rotation_key_count(), 1);
        let k = automorph::rotation_exponent(1, c.n());
        assert!(ks.rotation_key(k).is_some());
    }

    #[test]
    fn square_signed_matches_schoolbook_ring() {
        let s = vec![1i64, -1, 0, 1];
        // (1 - X + X^3)^2 = 1 - 2X + X^2 + 2X^3 - 2X^4 + X^6
        // mod X^4+1: X^4 = -1, X^6 = -X^2:
        // 1 - 2X + X^2 + 2X^3 + 2 - X^2 = 3 - 2X + 2X^3.
        assert_eq!(square_signed(&s), vec![3, -2, 0, 2]);
    }
}
