//! Bootstrapped binary gates — the canonical TFHE gate set.
//!
//! Booleans are encoded as `±q/8`; every binary gate is one linear
//! combination followed by a sign bootstrap, exactly the flow the
//! logic-scheme accelerators (Strix, MATCHA) pipeline in hardware.

use crate::bootstrap::{programmable_bootstrap_batch, sign_test_vector};
use crate::context::TfheContext;
use crate::keys::TfheKeys;
use crate::lwe::LweCiphertext;
use rand::Rng;
use ufc_math::poly::Poly;

/// The supported two-input gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical NAND.
    Nand,
    /// Logical NOR.
    Nor,
    /// Logical XOR.
    Xor,
    /// Logical XNOR.
    Xnor,
}

impl Gate {
    /// Every supported two-input gate, for exhaustive sweeps.
    pub const ALL: [Gate; 6] = [
        Gate::And,
        Gate::Or,
        Gate::Nand,
        Gate::Nor,
        Gate::Xor,
        Gate::Xnor,
    ];

    /// Lower-case gate name, e.g. `"nand"` (trace span tags).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::And => "and",
            Gate::Or => "or",
            Gate::Nand => "nand",
            Gate::Nor => "nor",
            Gate::Xor => "xor",
            Gate::Xnor => "xnor",
        }
    }

    /// Plaintext truth table (for tests and trace validation).
    pub fn eval(&self, a: bool, b: bool) -> bool {
        match self {
            Gate::And => a && b,
            Gate::Or => a || b,
            Gate::Nand => !(a && b),
            Gate::Nor => !(a || b),
            Gate::Xor => a ^ b,
            Gate::Xnor => !(a ^ b),
        }
    }
}

/// Encrypts a boolean as `±q/8`.
pub fn encrypt_bool<R: Rng + ?Sized>(
    ctx: &TfheContext,
    keys: &TfheKeys,
    value: bool,
    rng: &mut R,
) -> LweCiphertext {
    let m = if value {
        ctx.encode(1, 8)
    } else {
        ctx.encode(7, 8) // −q/8
    };
    LweCiphertext::encrypt(ctx, &keys.lwe_sk, m, rng)
}

/// Decrypts a `±q/8`-encoded boolean.
pub fn decrypt_bool(ctx: &TfheContext, keys: &TfheKeys, ct: &LweCiphertext) -> bool {
    let phase = ct.phase(&keys.lwe_sk);
    let signed = ufc_math::modops::to_signed(phase, ctx.q());
    if ufc_trace::enabled() {
        // Distance of the phase from the q/8-scaled decision boundary,
        // normalized to the boundary: 1.0 is a noiseless bit, 0.0 is
        // the decryption-failure edge. The runtime analogue of the
        // static LWE variance margin.
        let margin = signed.unsigned_abs() as f64 / (ctx.q() as f64 / 8.0);
        ufc_trace::gauge("tfhe/phase_margin", margin);
    }
    signed > 0
}

/// Homomorphic NOT: pure negation, no bootstrap.
pub fn not(ct: &LweCiphertext) -> LweCiphertext {
    ct.neg()
}

/// What every gate bootstrap of one batch shares: the sign test
/// vector and the trivial `q/8` and `q/4` offsets of the linear step.
struct GateConstants {
    q8: LweCiphertext,
    q4: LweCiphertext,
    tv: Poly,
}

impl GateConstants {
    fn new(ctx: &TfheContext) -> Self {
        Self {
            q8: LweCiphertext::trivial(ctx.encode(1, 8), ctx.lwe_dim(), ctx.q()),
            q4: LweCiphertext::trivial(ctx.encode(1, 4), ctx.lwe_dim(), ctx.q()),
            tv: sign_test_vector(ctx),
        }
    }

    /// The gate's linear step: phases land at ±q/8 or ±3q/8, safely
    /// inside the sign regions of the bootstrap that follows.
    fn linear(&self, gate: Gate, c1: &LweCiphertext, c2: &LweCiphertext) -> LweCiphertext {
        let (q8, q4) = (&self.q8, &self.q4);
        match gate {
            Gate::And => c1.add(c2).sub(q8),
            Gate::Or => c1.add(c2).add(q8),
            Gate::Nand => q8.sub(&c1.add(c2)),
            Gate::Nor => c1.add(c2).neg().sub(q8),
            Gate::Xor => c1.add(c2).scale(2).add(q4),
            Gate::Xnor => c1.add(c2).scale(2).add(q4).neg(),
        }
    }
}

/// Applies a bootstrapped binary gate: a batch of one
/// [`apply_gates`].
pub fn apply_gate(
    ctx: &TfheContext,
    keys: &TfheKeys,
    gate: Gate,
    c1: &LweCiphertext,
    c2: &LweCiphertext,
) -> LweCiphertext {
    apply_gates(ctx, keys, &[(gate, c1, c2)])
        .pop()
        .expect("one gate in, one ciphertext out")
}

/// Applies a batch of independent bootstrapped gates; output `i` is
/// gate `i` applied to its two operands.
///
/// The linear steps run on the caller's thread, each in a
/// `tfhe/gate` span tagged with the gate name; their sign bootstraps
/// then run as one [`programmable_bootstrap_batch`], so the outputs
/// are bit-identical to gate-by-gate evaluation at every thread count.
pub fn apply_gates(
    ctx: &TfheContext,
    keys: &TfheKeys,
    ops: &[(Gate, &LweCiphertext, &LweCiphertext)],
) -> Vec<LweCiphertext> {
    let consts = GateConstants::new(ctx);
    let lins: Vec<LweCiphertext> = ops
        .iter()
        .map(|&(gate, c1, c2)| {
            let _span = ufc_trace::span_tagged("tfhe", "gate", gate.name());
            consts.linear(gate, c1, c2)
        })
        .collect();
    programmable_bootstrap_batch(ctx, keys, &lins, &consts.tv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (TfheContext, TfheKeys, StdRng) {
        let ctx = TfheContext::new(64, 256, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = TfheKeys::generate(&ctx, &mut rng);
        (ctx, keys, rng)
    }

    #[test]
    fn bool_roundtrip() {
        let (ctx, keys, mut rng) = setup(71);
        for v in [true, false] {
            let ct = encrypt_bool(&ctx, &keys, v, &mut rng);
            assert_eq!(decrypt_bool(&ctx, &keys, &ct), v);
        }
    }

    #[test]
    fn not_is_free() {
        let (ctx, keys, mut rng) = setup(72);
        let ct = encrypt_bool(&ctx, &keys, true, &mut rng);
        assert!(!decrypt_bool(&ctx, &keys, &not(&ct)));
        assert!(decrypt_bool(&ctx, &keys, &not(&not(&ct))));
    }

    #[test]
    fn all_gates_all_inputs() {
        let (ctx, keys, mut rng) = setup(73);
        for gate in Gate::ALL {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                let ca = encrypt_bool(&ctx, &keys, a, &mut rng);
                let cb = encrypt_bool(&ctx, &keys, b, &mut rng);
                let out = apply_gate(&ctx, &keys, gate, &ca, &cb);
                assert_eq!(
                    decrypt_bool(&ctx, &keys, &out),
                    gate.eval(a, b),
                    "{gate:?}({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn gates_compose() {
        // Full adder sum bit: s = a XOR b XOR cin.
        let (ctx, keys, mut rng) = setup(74);
        let a = encrypt_bool(&ctx, &keys, true, &mut rng);
        let b = encrypt_bool(&ctx, &keys, true, &mut rng);
        let cin = encrypt_bool(&ctx, &keys, true, &mut rng);
        let ab = apply_gate(&ctx, &keys, Gate::Xor, &a, &b);
        let s = apply_gate(&ctx, &keys, Gate::Xor, &ab, &cin);
        assert!(decrypt_bool(&ctx, &keys, &s)); // 1^1^1 = 1
    }
}
