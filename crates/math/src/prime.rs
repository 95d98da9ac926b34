//! NTT-friendly prime generation and primitive-root search.
//!
//! A negacyclic NTT over `Z_q[X]/(X^N + 1)` needs a `2N`-th primitive
//! root of unity in `Z_q`, which exists exactly when `q ≡ 1 mod 2N`.
//! RNS-CKKS needs chains of such primes near a target bit size; TFHE
//! (in UFC's NTT formulation, §VII-D) needs one 32-bit NTT prime.
//!
//! ## Choosing a bit size for the SIMD windows
//!
//! The requested `bits` decides which vector kernels a prime is
//! eligible for, because generated primes land in
//! `[2^(bits-1), 2^bits)`:
//!
//! * `bits <= 50` keeps the prime below 2⁵⁰, inside the AVX-512 IFMA
//!   window ([`crate::modops::ifma_modulus_ok`]) — the 52-bit
//!   `vpmadd52` Barrett path for both the `ifma` NTT generation and
//!   the element-wise hadamard/MAC dispatch.
//! * Wider primes, up to `bits = 62`, are valid for every scalar and
//!   lazy-NTT path (operands in `[0, 4q)` must fit in 64 bits);
//!   element-wise multiplies on them run portable Barrett.
//!
//! RNS limbs rarely *need* to be wide: prefer ≤ 50-bit limbs (one
//! more limb if necessary) unless precision budgeting says otherwise.

use crate::modops::{mul_mod, pow_mod};

/// Deterministic Miller–Rabin primality test, exact for all `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        s += 1;
    }
    // These witnesses are sufficient for all n < 2^64.
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates one NTT-friendly prime `q ≡ 1 (mod 2N)` with exactly
/// `bits` bits (searching downward from `2^bits`).
///
/// Returns `None` if no such prime exists in `[2^(bits-1), 2^bits)`.
///
/// # Panics
///
/// Panics if `n` is not a power of two or `bits` is not in `[4, 62]`.
pub fn generate_ntt_prime(n: usize, bits: u32) -> Option<u64> {
    generate_ntt_primes(n, bits, 1).pop()
}

/// Generates `count` distinct NTT-friendly primes of the given bit size,
/// largest first.
pub fn generate_ntt_primes(n: usize, bits: u32, count: usize) -> Vec<u64> {
    assert!(n.is_power_of_two(), "ring degree must be a power of two");
    assert!(
        (4..=62).contains(&bits),
        "prime size must be in [4, 62] bits"
    );
    let step = 2 * n as u64;
    let hi = 1u64 << bits;
    let lo = 1u64 << (bits - 1);
    // Largest candidate ≡ 1 mod 2N below 2^bits.
    let mut cand = (hi - 1) / step * step + 1;
    let mut out = Vec::with_capacity(count);
    while cand >= lo && out.len() < count {
        if is_prime(cand) {
            out.push(cand);
        }
        if cand < step {
            break;
        }
        cand -= step;
    }
    out
}

/// Finds a generator of the multiplicative group of `Z_q` (q prime).
pub fn find_generator(q: u64) -> u64 {
    let phi = q - 1;
    let factors = factorize(phi);
    'cand: for g in 2..q {
        for &f in &factors {
            if pow_mod(g, phi / f, q) == 1 {
                continue 'cand;
            }
        }
        return g;
    }
    unreachable!("a prime field always has a generator")
}

/// Returns a primitive `order`-th root of unity modulo prime `q`.
///
/// # Panics
///
/// Panics if `order` does not divide `q - 1`.
pub fn primitive_root_of_unity(order: u64, q: u64) -> u64 {
    assert_eq!((q - 1) % order, 0, "order must divide q-1");
    let g = find_generator(q);
    let root = pow_mod(g, (q - 1) / order, q);
    debug_assert_eq!(pow_mod(root, order, q), 1);
    debug_assert_ne!(pow_mod(root, order / 2, q), 1);
    root
}

/// Trial-division factorization returning the distinct prime factors.
fn factorize(mut n: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    let mut d = 2u64;
    while d as u128 * d as u128 <= n as u128 {
        if n.is_multiple_of(d) {
            factors.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if n > 1 {
        factors.push(n);
    }
    factors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primality_small() {
        let primes = [2u64, 3, 5, 7, 97, 65537, 1_000_000_007];
        let composites = [0u64, 1, 4, 9, 561, 65536, 1_000_000_008];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn primality_large_known() {
        assert!(is_prime(1_152_921_504_598_720_513)); // 2^60 - 2^14 + 1
        assert!(is_prime(0xFFFF_FFFF_FFFF_FFC5)); // largest 64-bit prime
        assert!(!is_prime(0xFFFF_FFFF_FFFF_FFC4));
    }

    #[test]
    fn generated_primes_are_ntt_friendly() {
        for log_n in [10usize, 12, 14] {
            let n = 1 << log_n;
            let ps = generate_ntt_primes(n, 50, 4);
            assert_eq!(ps.len(), 4);
            for p in ps {
                assert!(is_prime(p));
                assert_eq!(p % (2 * n as u64), 1);
                assert_eq!(64 - p.leading_zeros(), 50);
            }
        }
    }

    #[test]
    fn roots_of_unity_have_exact_order() {
        let n = 1usize << 10;
        let q = generate_ntt_prime(n, 40).unwrap();
        let w = primitive_root_of_unity(2 * n as u64, q);
        assert_eq!(pow_mod(w, 2 * n as u64, q), 1);
        assert_ne!(pow_mod(w, n as u64, q), 1);
        // psi^N must be -1 (negacyclic condition).
        assert_eq!(pow_mod(w, n as u64, q), q - 1);
    }

    #[test]
    fn generator_generates() {
        let q = 97u64;
        let g = find_generator(q);
        let mut seen = std::collections::HashSet::new();
        let mut x = 1u64;
        for _ in 0..q - 1 {
            x = mul_mod(x, g, q);
            seen.insert(x);
        }
        assert_eq!(seen.len() as u64, q - 1);
    }
}
