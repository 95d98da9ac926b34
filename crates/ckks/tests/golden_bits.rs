//! Output-bit pins for the CKKS key material and key-switching ops.
//!
//! Keys and two ciphertexts are derived from a fixed seed at a small
//! ring; the public key, every level and digit of the
//! relinearization key, a relinearized (not rescaled) product and a
//! rotation are hashed with a 64-bit FNV-1a written out below (not
//! `DefaultHasher`, whose algorithm may change between toolchains) and
//! compared against recorded digests. A refactor of the container,
//! the key generator or the key-switch path that keeps these green is
//! bit-exact.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ufc_ckks::{CkksContext, Evaluator, KeySet, SecretKey};
use ufc_math::plane::RnsPlane;

const SEED: u64 = 0x601D_C225;
const ROT_STEP: isize = 1;

const PUBLIC_KEY_DIGEST: u64 = 0xf3a2_b2f3_d1f0_ef6c;
const RELIN_KEY_DIGEST: u64 = 0xecf1_15d9_a82f_82bd;
const MUL_DIGEST: u64 = 0x799b_2a3a_0b01_ac5b;
const ROTATE_DIGEST: u64 = 0x48a4_cc69_6b71_b2f2;

/// 64-bit FNV-1a over the little-endian bytes of each word.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn poly(&mut self, p: &RnsPlane) {
        self.word(p.limb_count() as u64);
        for i in 0..p.limb_count() {
            self.word(p.moduli()[i]);
            for &x in p.limb(i) {
                self.word(x);
            }
        }
    }
}

struct Fixture {
    ev: Evaluator,
    keys: KeySet,
    a: ufc_ckks::Ciphertext,
    b: ufc_ckks::Ciphertext,
}

fn fixture() -> Fixture {
    let ctx = CkksContext::new(64, 4, 2, 2, 36, 30);
    let mut rng = StdRng::seed_from_u64(SEED);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let mut keys = KeySet::generate(&ctx, &sk, &mut rng);
    keys.gen_rotation_key(&ctx, &sk, ROT_STEP, &mut rng);
    let ev = Evaluator::new(ctx);
    let slots = ev.context().slots();
    let xs: Vec<f64> = (0..slots).map(|i| (i as f64 * 0.29).cos()).collect();
    let ys: Vec<f64> = (0..slots).map(|i| 0.75 - i as f64 * 0.02).collect();
    let a = ev.encrypt_real(&xs, &keys, &mut rng);
    let b = ev.encrypt_real(&ys, &keys, &mut rng);
    Fixture { ev, keys, a, b }
}

#[test]
fn public_key_is_bit_exact() {
    let f = fixture();
    let mut h = Fnv1a::new();
    h.poly(&f.keys.public.b);
    h.poly(&f.keys.public.a);
    assert_eq!(h.0, PUBLIC_KEY_DIGEST, "public key changed: {:#018x}", h.0);
}

#[test]
fn relinearization_key_is_bit_exact() {
    let f = fixture();
    let mut h = Fnv1a::new();
    for level in 0..=f.ev.context().max_level() {
        for (b, a) in f.keys.relin.at_level(level) {
            h.poly(b);
            h.poly(a);
        }
    }
    assert_eq!(h.0, RELIN_KEY_DIGEST, "relin key changed: {:#018x}", h.0);
}

#[test]
fn relinearized_product_is_bit_exact() {
    let f = fixture();
    let prod = f.ev.mul(&f.a, &f.b, &f.keys);
    let mut h = Fnv1a::new();
    h.poly(&prod.c0);
    h.poly(&prod.c1);
    assert_eq!(h.0, MUL_DIGEST, "product changed: {:#018x}", h.0);
}

#[test]
fn rotation_is_bit_exact() {
    let f = fixture();
    let rot = f.ev.rotate(&f.a, ROT_STEP, &f.keys);
    let mut h = Fnv1a::new();
    h.poly(&rot.c0);
    h.poly(&rot.c1);
    assert_eq!(h.0, ROTATE_DIGEST, "rotation changed: {:#018x}", h.0);
}
