//! TFHE key material: LWE key, ring key, bootstrapping key (RGSW
//! encryptions of the LWE key bits) and the LWE key-switching key.

use crate::context::TfheContext;
use crate::keyswitch::LweKsk;
use crate::rgsw::RgswCiphertext;
use rand::Rng;

/// A complete TFHE key set.
#[derive(Debug, Clone)]
pub struct TfheKeys {
    /// Binary LWE secret of dimension `n`.
    pub lwe_sk: Vec<u64>,
    /// Binary ring secret of dimension `N` (signed form).
    pub ring_sk: Vec<i64>,
    /// Bootstrapping key: `RGSW(s_i)` for each LWE key bit.
    pub bsk: Vec<RgswCiphertext>,
    /// Key-switching key from the ring key to the small key:
    /// `LWE_s(ŝ_i · w_j)` for ring-key coefficient `i` and digit `j`.
    pub ksk: LweKsk,
}

impl TfheKeys {
    /// Generates all keys.
    pub fn generate<R: Rng + ?Sized>(ctx: &TfheContext, rng: &mut R) -> Self {
        let lwe_sk: Vec<u64> = (0..ctx.lwe_dim())
            .map(|_| rng.gen_range(0..=1u64))
            .collect();
        let ring_sk: Vec<i64> = (0..ctx.ring_dim())
            .map(|_| rng.gen_range(0..=1i64))
            .collect();

        let bsk = lwe_sk
            .iter()
            .map(|&bit| RgswCiphertext::encrypt_bit(ctx, &ring_sk, bit, rng))
            .collect();

        let ksk = LweKsk::generate(*ctx.ks_gadget(), &ring_sk, &lwe_sk, ctx.sigma(), rng);

        Self {
            lwe_sk,
            ring_sk,
            bsk,
            ksk,
        }
    }

    /// The flattened ring key as an LWE key vector (for decrypting
    /// extracted samples before key switching).
    pub fn ring_key_flat(&self, q: u64) -> Vec<u64> {
        crate::rlwe::flatten_ring_key(&self.ring_sk, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lwe::LweCiphertext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ufc_math::gadget::Gadget;
    use ufc_math::modops::{from_signed, mul_mod, sub_mod, to_signed};
    use ufc_math::prime::generate_ntt_prime;

    #[test]
    fn key_shapes() {
        let ctx = TfheContext::new(16, 64, 7, 2, 6, 3);
        let mut rng = StdRng::seed_from_u64(41);
        let keys = TfheKeys::generate(&ctx, &mut rng);
        assert_eq!(keys.lwe_sk.len(), 16);
        assert_eq!(keys.ring_sk.len(), 64);
        assert_eq!(keys.bsk.len(), 16);
        assert_eq!(keys.ksk.input_dim(), 64);
        assert_eq!(keys.ksk.output_dim(), 16);
        assert_eq!(keys.ksk.gadget(), ctx.ks_gadget());
        assert_eq!(keys.ksk.gadget().levels(), 3);
        assert_eq!(keys.ksk.row(2, 63).len(), 17);
        assert!(keys.lwe_sk.iter().all(|&b| b <= 1));
        assert!(keys.ring_sk.iter().all(|&b| (0..=1).contains(&b)));
    }

    /// Rows `(j, i)` for `i ∈ {0, 5, n−1}` and every digit decrypt
    /// under `to_key` to `ŝ_i · w_j` within 64.
    fn assert_rows_decrypt(ksk: &LweKsk, from_key: &[i64], to_key: &[u64]) {
        let (q, dim, g) = (ksk.modulus(), ksk.output_dim(), ksk.gadget());
        for i in [0usize, 5, from_key.len() - 1] {
            for j in 0..g.levels() {
                let row = ksk.row(j, i);
                let ct = LweCiphertext {
                    a: row[..dim].to_vec(),
                    b: row[dim],
                    q,
                };
                let expect = mul_mod(from_signed(from_key[i], q), g.weight(j), q);
                let diff = to_signed(sub_mod(ct.phase(to_key), expect, q), q);
                assert!(diff.abs() < 64, "q={q} i={i} j={j} diff={diff}");
            }
        }
    }

    #[test]
    fn ksk_entries_decrypt_to_weighted_key_bits() {
        // TFHE: 31-bit q, binary ring key → small key.
        let ctx = TfheContext::new(16, 64, 7, 2, 6, 3);
        let mut rng = StdRng::seed_from_u64(42);
        let keys = TfheKeys::generate(&ctx, &mut rng);
        assert_rows_decrypt(&keys.ksk, &keys.ring_sk, &keys.lwe_sk);

        // Extraction: a 36-bit q0 with five 8-bit digits, ternary
        // CKKS-style ring key → small key.
        let q0 = generate_ntt_prime(64, 36).expect("36-bit NTT prime");
        let from_key: Vec<i64> = (0..64).map(|_| rng.gen_range(-1..=1i64)).collect();
        let gadget = Gadget::new(q0, 8, 5);
        let ksk = LweKsk::generate(gadget, &from_key, &keys.lwe_sk, ctx.sigma(), &mut rng);
        assert_eq!((ksk.input_dim(), ksk.output_dim()), (64, 16));
        assert_rows_decrypt(&ksk, &from_key, &keys.lwe_sk);
    }
}
