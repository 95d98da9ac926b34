//! The host's CKKS key switch and rescale run at their transform floor,
//! and agree with the lowering where the lowering charges the same
//! algorithm.
//!
//! Each op runs inside a `ufc-trace` recording; its `math/ntt_forward`
//! and `math/ntt_inverse` spans (one per limb transform) and its
//! `math/bconv` spans (detail: source × target limbs) are counted and
//! checked against closed forms, at a shape with three digits and at a
//! level where the last digit is only partly active:
//!
//! * ModUp: `A` inverse NTTs of the input, then `ext − l_j` forward
//!   NTTs per active digit `j` (`ext = A + k`). The digit's own limbs
//!   are scaled in evaluation form.
//! * ModDown, per output polynomial: `k` inverse NTTs of the P limbs,
//!   `A` forward NTTs of the correction.
//! * Rescale at level `L`: per polynomial, one inverse NTT of the
//!   dropped limb and `L` forward NTTs — `2L + 2` in all.
//!
//! ModUp's forward NTTs and every op's BConv multiply-accumulates must
//! also equal what `Compiler::try_lower_op` emits for the same op. The
//! lowering still transforms every limb in ModDown and rescale, so
//! those counts are not compared.
//!
//! Single `#[test]`: the `ufc-trace` recorder is process-global and
//! the cargo harness runs tests in one binary concurrently.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ufc_ckks::{Ciphertext, CkksContext, Evaluator, KeySet, SecretKey};
use ufc_compiler::{CompileOptions, Compiler};
use ufc_isa::instr::{InstrStream, Kernel};
use ufc_isa::params::{CkksParams, LIMB_BITS};
use ufc_isa::trace::TraceOp;

const N: usize = 64;
const Q_LIMBS: usize = 6;
const P_LIMBS: usize = 2;
const DNUM: usize = 3;
const STEP: isize = 1;

/// Limb transforms and BConv multiply-accumulates (per coefficient) of
/// one recorded op.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    inverse: u64,
    forward: u64,
    bconv_macs: u64,
}

impl std::ops::Add for Counts {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self {
            inverse: self.inverse + o.inverse,
            forward: self.forward + o.forward,
            bconv_macs: self.bconv_macs + o.bconv_macs,
        }
    }
}

fn recorded<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let recorder = ufc_trace::record().expect("no other recording is live");
    let out = f();
    let trace = recorder.finish();
    let mut c = Counts::default();
    for s in trace.spans.iter().filter(|s| s.cat == "math") {
        match s.name {
            "ntt_forward" => c.forward += 1,
            "ntt_inverse" => c.inverse += 1,
            "bconv" => c.bconv_macs += s.detail,
            _ => {}
        }
    }
    (out, c)
}

/// The closed forms at `level` of `ctx`.
struct Shape {
    active: u64,
    k: u64,
    /// Limbs of each digit active at `level`.
    digit_limbs: Vec<u64>,
}

impl Shape {
    fn at(ctx: &CkksContext, level: usize) -> Self {
        let digit_limbs = ctx.digits()[..ctx.active_digits(level)]
            .iter()
            .map(|d| (d.limb_range.1.min(level + 1) - d.limb_range.0) as u64)
            .collect();
        Self {
            active: level as u64 + 1,
            k: ctx.p_moduli().len() as u64,
            digit_limbs,
        }
    }

    fn ext(&self) -> u64 {
        self.active + self.k
    }

    fn mod_up(&self) -> Counts {
        Counts {
            inverse: self.active,
            forward: self.digit_limbs.iter().map(|l| self.ext() - l).sum(),
            bconv_macs: self.digit_limbs.iter().map(|l| l * (self.ext() - l)).sum(),
        }
    }

    /// Both output polynomials' ModDowns.
    fn mod_down_pair(&self) -> Counts {
        Counts {
            inverse: 2 * self.k,
            forward: 2 * self.active,
            bconv_macs: 2 * self.k * self.active,
        }
    }

    fn key_switch(&self) -> Counts {
        self.mod_up() + self.mod_down_pair()
    }

    fn rescale(&self) -> Counts {
        let l = self.active - 1;
        Counts {
            inverse: 2,
            forward: 2 * l,
            bconv_macs: 0,
        }
    }
}

/// The lowering's ModUp forward NTT limbs (the `Ntt`s fed by a ModUp
/// `BconvMac`) and its total `BconvMac` multiply-accumulates.
fn lowered(compiler: &Compiler, op: &TraceOp) -> (u64, u64) {
    let s: InstrStream = compiler.try_lower_op(op).expect("op lowers");
    let instrs = s.instrs();
    let mod_up_ntt = instrs
        .iter()
        .filter(|i| i.kernel == Kernel::Ntt)
        .filter(|i| i.deps.iter().any(|&d| instrs[d].kernel == Kernel::BconvMac))
        .map(|i| u64::from(i.shape.count))
        .sum();
    let bconv = instrs
        .iter()
        .filter(|i| i.kernel == Kernel::BconvMac)
        .map(|i| u64::from(i.shape.count))
        .sum();
    (mod_up_ntt, bconv)
}

#[test]
fn key_switch_and_rescale_run_at_their_transform_floor() {
    let ctx = CkksContext::new(N, Q_LIMBS, P_LIMBS, DNUM, 36, 30);
    let mut rng = StdRng::seed_from_u64(0x7a57);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let mut keys = KeySet::generate(&ctx, &sk, &mut rng);
    keys.gen_rotation_key(&ctx, &sk, STEP, &mut rng);
    let ev = Evaluator::new(ctx.clone());
    let values: Vec<f64> = (0..ctx.slots()).map(|i| i as f64 * 0.01).collect();
    let top: Ciphertext = ev.encrypt_real(&values, &keys, &mut rng);

    let params = CkksParams {
        id: "count-test",
        log_n: N.trailing_zeros(),
        dnum: DNUM as u32,
        log_pq: ((Q_LIMBS + P_LIMBS) as u32) * LIMB_BITS,
    };
    assert_eq!(params.q_limbs() as usize, Q_LIMBS);
    assert_eq!(params.special_limbs() as usize, P_LIMBS);
    let compiler = Compiler::new(Some(params), None, CompileOptions::default());

    // The top level (three whole digits), then one level down, where
    // the last digit covers one of its two limbs.
    let (partial, rescale) = recorded(|| ev.rescale(&top));
    let top_level = top.level;
    assert_eq!(rescale, Shape::at(&ctx, top_level).rescale(), "rescale");
    assert_eq!(rescale.inverse + rescale.forward, 2 * top_level as u64 + 2);
    assert_eq!(partial.level, top_level - 1);
    assert_eq!(
        Shape::at(&ctx, partial.level).digit_limbs,
        vec![2, 2, 1],
        "a partly active last digit"
    );

    for ct in [&top, &partial] {
        let level = ct.level;
        let shape = Shape::at(&ctx, level);
        let ks = shape.key_switch();

        let (_, mul) = recorded(|| ev.mul(ct, ct, &keys));
        assert_eq!(mul, ks, "mul at level {level}");
        let (_, rot) = recorded(|| ev.rotate(ct, STEP, &keys));
        assert_eq!(rot, ks, "rotate at level {level}");
        let (hoisted, hoist) = recorded(|| ev.hoist(ct));
        assert_eq!(hoist, shape.mod_up(), "hoist at level {level}");
        let (_, hrot) = recorded(|| ev.rotate_hoisted(ct, &hoisted, STEP, &keys));
        assert_eq!(
            hrot,
            shape.mod_down_pair(),
            "rotate_hoisted at level {level}"
        );

        // ModUp's forward transforms and the BConv work match the
        // lowering of the same ops.
        let lvl = level as u32;
        for op in [
            TraceOp::CkksMulCt { level: lvl },
            TraceOp::CkksRotate {
                level: lvl,
                step: STEP as i32,
            },
        ] {
            let (mod_up_ntt, bconv) = lowered(&compiler, &op);
            assert_eq!(mod_up_ntt, shape.mod_up().forward, "{op:?} ModUp NTTs");
            assert_eq!(bconv, ks.bconv_macs, "{op:?} BConv MACs");
        }
    }
}
