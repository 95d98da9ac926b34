//! Layer probes: the median of direct calls into each layer's public
//! primitives at the workloads' shapes — the T1 ring (N = 1024, one
//! 31-bit limb), the C2-shaped CKKS ring (N = 8192, 12 + 4 limbs of
//! 36 bits, dnum = 3), the hybrid workload's CKKS→LWE bridge and the
//! C2 HELR trace on the paper's UFC.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufc_ckks::{Ciphertext, CkksContext, Evaluator, KeySet, SecretKey};
use ufc_core::runner::{try_compile_with_barriers_stats, Ufc};
use ufc_isa::trace::Trace;
use ufc_math::automorph::rotation_exponent;
use ufc_math::plane::RnsPlane;
use ufc_math::poly::{Form, Poly};
use ufc_sim::simulate;
use ufc_switch::extract::encode_coefficients;
use ufc_switch::CkksToLwe;
use ufc_tfhe::bootstrap::{blind_rotate, sign_test_vector};
use ufc_tfhe::keyswitch::key_switch;
use ufc_tfhe::{
    programmable_bootstrap, LweCiphertext, RgswCiphertext, RlweCiphertext, TfheContext, TfheKeys,
};

use crate::stats::median;
use crate::workloads::hybrid_knn;

/// Calls per primitive probe.
const PRIMITIVE_CALLS: usize = 201;
/// Calls per scheme-operation probe.
const OP_CALLS: usize = 7;
/// Calls per probe of a call that takes half a second or more.
const SLOW_CALLS: usize = 3;
/// LWEs per extraction probe, as in one `hybrid_knn_t1` request.
const EXTRACTED: usize = 8;

/// Name and unit of every probe, in the order [`Fixture::run`] returns
/// their values.
pub const METRICS: [(&str, &str); 27] = [
    ("tfhe.keygen_s", "s"),
    ("ckks.keygen_s", "s"),
    ("switch.bridge_keygen_s", "s"),
    ("math.ntt_fwd_us.n1024", "us"),
    ("math.ntt_inv_us.n1024", "us"),
    ("math.ntt_fwd_us.n8192", "us"),
    ("math.ntt_inv_us.n8192", "us"),
    ("math.hadamard_us.n8192x16", "us"),
    ("math.mac_us.n8192x16", "us"),
    ("math.bconv_us.modup", "us"),
    ("math.automorph_us.n8192x12", "us"),
    ("tfhe.external_product_us", "us"),
    ("tfhe.key_switch_ms", "ms"),
    ("tfhe.blind_rotate_ms", "ms"),
    ("tfhe.pbs_ms", "ms"),
    ("ckks.encode_ms", "ms"),
    ("ckks.encrypt_ms", "ms"),
    ("ckks.decrypt_ms", "ms"),
    ("ckks.mul_plain_ms", "ms"),
    ("ckks.rescale_ms", "ms"),
    ("ckks.mul_relin_ms", "ms"),
    ("ckks.rotate_ms", "ms"),
    ("ckks.hoist_ms", "ms"),
    ("ckks.rotate_hoisted_ms", "ms"),
    ("switch.extract_us_per_lwe", "us"),
    ("compiler.compile_ms", "ms"),
    ("sim.simulate_ms", "ms"),
];

/// The probes' parameter sets: T1 and the C2-shaped CKKS ring with
/// keys, the CKKS→LWE bridge with a ciphertext to extract from, and the
/// UFC instance with the trace it compiles.
pub struct Fixture {
    t1: TfheContext,
    t1_keys: TfheKeys,
    c2: Evaluator,
    c2_sk: SecretKey,
    c2_keys: KeySet,
    bridge: CkksToLwe,
    bridge_ev: Evaluator,
    bridge_ct: Ciphertext,
    ufc: Ufc,
    helr: Trace,
    rng: StdRng,
    /// T1 key generation, in seconds.
    t1_keygen_s: f64,
    /// C2 key generation (public, relinearization, conjugation and one
    /// rotation key), in seconds.
    c2_keygen_s: f64,
    /// Bridge key-switching key generation, in seconds.
    bridge_keygen_s: f64,
}

impl Fixture {
    /// Builds every probed parameter set and its keys from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let t1 = ufc_isa::params::tfhe_params("T1").expect("T1 is a paper set");
        let t1 = TfheContext::try_from_params(&t1).expect("T1 instantiates");
        let start = Instant::now();
        let t1_keys = TfheKeys::generate(&t1, &mut rng);
        let t1_keygen_s = start.elapsed().as_secs_f64();

        let ctx_c2 = CkksContext::new(8192, 12, 4, 3, 36, 34);
        let start = Instant::now();
        let c2_sk = SecretKey::generate(&ctx_c2, &mut rng);
        let mut c2_keys = KeySet::generate(&ctx_c2, &c2_sk, &mut rng);
        c2_keys.gen_rotation_key(&ctx_c2, &c2_sk, 1, &mut rng);
        let c2_keygen_s = start.elapsed().as_secs_f64();

        // The hybrid workload's bridge, under the T1 keys above.
        let ctx = CkksContext::new(8192, 3, 2, 2, 36, 34);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keys = KeySet::generate(&ctx, &sk, &mut rng);
        let start = Instant::now();
        let bridge = CkksToLwe::new(&ctx, &sk, &t1, &t1_keys, &mut rng);
        let bridge_keygen_s = start.elapsed().as_secs_f64();
        let pt = encode_coefficients(&ctx, &[1; EXTRACTED], hybrid_knn::SPACE);
        let bridge_ev = Evaluator::new(ctx);
        let bridge_ct =
            bridge_ev.encrypt_plaintext(&pt, &keys, bridge_ev.context().max_level(), &mut rng);
        Self {
            t1,
            t1_keys,
            c2: Evaluator::new(ctx_c2),
            c2_sk,
            c2_keys,
            bridge,
            bridge_ev,
            bridge_ct,
            ufc: Ufc::paper_default(),
            helr: ufc_workloads::helr::generate("C2"),
            rng,
            t1_keygen_s,
            c2_keygen_s,
            bridge_keygen_s,
        }
    }

    /// The NTT kernel each probed table selected, for the host report.
    pub fn kernels(&self) -> [(&'static str, &'static str); 2] {
        [
            ("n1024", self.t1.ntt_kernel().name()),
            ("n8192", self.c2.context().ntt_q(0).kernel().name()),
        ]
    }

    /// Runs every probe; values are in [`METRICS`] order.
    pub fn run(&mut self) -> Vec<f64> {
        let mut out = vec![self.t1_keygen_s, self.c2_keygen_s, self.bridge_keygen_s];
        out.extend(self.math());
        out.extend(self.tfhe());
        out.extend(self.ckks());
        out.extend(self.switch_and_sim());
        assert_eq!(out.len(), METRICS.len(), "one value per probe metric");
        out
    }

    fn math(&mut self) -> [f64; 8] {
        let rng = &mut self.rng;
        let ctx = self.c2.context();
        let (t1, c2) = (self.t1.ntt(), ctx.ntt_q(0));
        let mut ring =
            |n: usize, q: u64| -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..q)).collect() };
        let mut a1024 = ring(1024, t1.modulus());
        let mut a8192 = ring(8192, c2.modulus());

        let mut plane = |moduli: &[u64]| {
            let flat = moduli.iter().flat_map(|&q| ring(8192, q)).collect();
            RnsPlane::from_flat_unchecked(flat, moduli, Form::Eval)
        };
        let moduli: Vec<u64> = ctx
            .q_moduli()
            .iter()
            .chain(ctx.p_moduli())
            .copied()
            .collect();
        let (mut x, y, z) = (plane(&moduli), plane(&moduli), plane(&moduli));
        let mut galois = plane(ctx.q_moduli());
        let k = rotation_exponent(1, 8192);

        // ModUp of the first digit at the top level: its 4 limbs to the
        // 12 other moduli.
        let digit = &ctx.digits()[0];
        let conv = digit.mod_up[ctx.max_level()]
            .as_ref()
            .expect("digit 0 is active at the top level");
        let (lo, hi) = digit.limb_range;
        let rows: Vec<Vec<u64>> = ctx.q_moduli()[lo..hi]
            .iter()
            .map(|&q| ring(8192, q))
            .collect();
        let rows: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();

        [
            us(PRIMITIVE_CALLS, || t1.forward(&mut a1024)),
            us(PRIMITIVE_CALLS, || t1.inverse(&mut a1024)),
            us(PRIMITIVE_CALLS, || c2.forward(&mut a8192)),
            us(PRIMITIVE_CALLS, || c2.inverse(&mut a8192)),
            us(PRIMITIVE_CALLS, || x.hadamard_assign(&y)),
            us(PRIMITIVE_CALLS, || x.mac_assign(&y, &z)),
            us(PRIMITIVE_CALLS, || conv.convert_rows(&rows)),
            us(PRIMITIVE_CALLS, || galois.automorph_assign(k)),
        ]
    }

    fn tfhe(&mut self) -> [f64; 4] {
        let (ctx, keys, rng) = (&self.t1, &self.t1_keys, &mut self.rng);
        let one = ctx.encode(1, 8);
        let rlwe = RlweCiphertext::encrypt(
            ctx,
            &keys.ring_sk,
            &Poly::monomial(one, 3, ctx.ring_dim(), ctx.q()),
            rng,
        );
        let rgsw = RgswCiphertext::encrypt_bit(ctx, &keys.ring_sk, 1, rng);
        let under_ring_key = LweCiphertext::encrypt(ctx, &keys.ring_key_flat(ctx.q()), one, rng);
        let lwe = LweCiphertext::encrypt(ctx, &keys.lwe_sk, one, rng);
        let tv = sign_test_vector(ctx);
        [
            us(PRIMITIVE_CALLS, || rgsw.external_product(ctx, &rlwe)),
            ms(PRIMITIVE_CALLS, || key_switch(ctx, keys, &under_ring_key)),
            ms(OP_CALLS, || blind_rotate(ctx, keys, &lwe, &tv)),
            ms(OP_CALLS, || programmable_bootstrap(ctx, keys, &lwe, &tv)),
        ]
    }

    fn ckks(&mut self) -> [f64; 9] {
        let (ev, sk, keys, rng) = (&self.c2, &self.c2_sk, &self.c2_keys, &mut self.rng);
        let top = ev.context().max_level();
        let values: Vec<f64> = (0..ev.context().slots())
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();
        let pt = ev.encode_real(&values, top);
        let ct = ev.encrypt_plaintext(&pt, keys, top, rng);
        let product = ev.mul_plain(&ct, &pt);
        let hoisted = ev.hoist(&ct);
        [
            ms(OP_CALLS, || ev.encode_real(&values, top)),
            ms(OP_CALLS, || ev.encrypt_plaintext(&pt, keys, top, rng)),
            ms(OP_CALLS, || ev.decrypt_real(&ct, sk)),
            ms(OP_CALLS, || ev.mul_plain(&ct, &pt)),
            ms(OP_CALLS, || ev.rescale(&product)),
            ms(OP_CALLS, || ev.mul(&ct, &ct, keys)),
            ms(OP_CALLS, || ev.rotate(&ct, 1, keys)),
            ms(OP_CALLS, || ev.hoist(&ct)),
            ms(OP_CALLS, || ev.rotate_hoisted(&ct, &hoisted, 1, keys)),
        ]
    }

    fn switch_and_sim(&self) -> [f64; 3] {
        let indices: Vec<usize> = (0..EXTRACTED).collect();
        let extract = || {
            self.bridge
                .extract_batch(&self.bridge_ev, &self.bridge_ct, &indices, &self.t1)
                .expect("indices are below the ring dimension")
        };
        let compile = || {
            try_compile_with_barriers_stats(&self.helr, *self.ufc.options())
                .expect("the HELR trace compiles")
        };
        let (stream, _) = compile();
        let machine = self
            .ufc
            .try_machine_for(&self.helr)
            .expect("C2 has a UFC machine");
        [
            us(SLOW_CALLS, extract) / EXTRACTED as f64,
            ms(OP_CALLS, compile),
            ms(OP_CALLS, || simulate(&machine, &stream)),
        ]
    }
}

/// Median wall time of `calls` calls of `f`, in seconds; freeing the
/// result is part of each call.
fn median_secs<T>(calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn us<T>(calls: usize, f: impl FnMut() -> T) -> f64 {
    median_secs(calls, f) * 1e6
}

fn ms<T>(calls: usize, f: impl FnMut() -> T) -> f64 {
    median_secs(calls, f) * 1e3
}
