//! `bool_circuit_t1`: a seeded random levelized Boolean circuit (width 4,
//! depth 2, 8 bootstrapped gates) evaluated gate by gate on the T1
//! parameter set (n = 500, N = 1024, 31-bit q).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufc_tfhe::gates::{decrypt_bool, encrypt_bool, Gate};
use ufc_tfhe::{TfheContext, TfheKeys};
use ufc_trace::span;
use ufc_workloads::gate_circuit::{Bit, GateCircuit, WireArena};

use super::{seeded_rng, Outcome, Workload, INPUTS, NOISE, PUBLIC};

/// Encrypted input bits per request.
pub const INPUT_BITS: usize = 8;
/// Gates per level (and output bits).
pub const WIDTH: usize = 4;
/// Gate levels. Eight gates keep a request near one second, so a run
/// holds twenty or more and some of them fall between the host's slow
/// bursts.
pub const DEPTH: usize = 2;

/// T1 context, its keys and the seeded circuit.
pub struct BoolCircuit {
    seed: u64,
    ctx: TfheContext,
    keys: TfheKeys,
    circuit: GateCircuit,
}

/// The seeded circuit: level 1 gates read two distinct inputs, every
/// later gate reads one gate of the previous level and one distinct
/// earlier wire, so each level holds exactly [`WIDTH`] gates.
pub fn circuit(seed: u64) -> GateCircuit {
    let mut rng = seeded_rng(seed, PUBLIC, 0);
    let mut arena = WireArena::new();
    let mut wires: Vec<Bit> = (0..INPUT_BITS).map(|_| arena.input()).collect();
    let mut previous: Vec<Bit> = wires.clone();
    for _ in 0..DEPTH {
        let mut level = Vec::with_capacity(WIDTH);
        for _ in 0..WIDTH {
            let a = previous[rng.gen_range(0..previous.len())];
            let b = loop {
                let b = wires[rng.gen_range(0..wires.len())];
                if b != a {
                    break b;
                }
            };
            let gate = Gate::ALL[rng.gen_range(0..Gate::ALL.len())];
            level.push(arena.gate(gate, a, b));
        }
        wires.extend_from_slice(&level);
        previous = level;
    }
    arena.finish("bool_circuit_t1", previous)
}

/// Plaintext inputs of request `index` and the oracle's outputs.
pub fn inputs(seed: u64, circuit: &GateCircuit, index: u64) -> (Vec<bool>, Vec<bool>) {
    let mut rng = seeded_rng(seed, INPUTS, index);
    let bits: Vec<bool> = (0..INPUT_BITS)
        .map(|_| rng.gen_range(0..2u8) == 1)
        .collect();
    let expect = circuit.eval(&bits);
    (bits, expect)
}

impl BoolCircuit {
    /// Builds the workload's contexts, keys and public inputs from `seed`.
    pub fn new(seed: u64) -> Self {
        let t1 = ufc_isa::params::tfhe_params("T1").expect("T1 is a paper set");
        let ctx = TfheContext::try_from_params(&t1).expect("T1 instantiates");
        let keys = TfheKeys::generate(&ctx, &mut StdRng::seed_from_u64(seed));
        Self {
            seed,
            ctx,
            keys,
            circuit: circuit(seed),
        }
    }
}

impl Workload for BoolCircuit {
    fn request(&mut self, index: u64) -> Outcome {
        let (bits, expect) = inputs(self.seed, &self.circuit, index);
        let mut rng = seeded_rng(self.seed, NOISE, index);
        let (ctx, keys) = (&self.ctx, &self.keys);

        let start = Instant::now();
        let cts: Vec<_> = {
            let _s = span("bench", "client");
            bits.iter()
                .map(|&b| encrypt_bool(ctx, keys, b, &mut rng))
                .collect()
        };
        let encrypt = start.elapsed();

        let start = Instant::now();
        let out = {
            let _s = span("bench", "workload");
            self.circuit.eval_encrypted(ctx, keys, &cts)
        };
        let server = start.elapsed();

        let start = Instant::now();
        let got: Vec<bool> = {
            let _s = span("bench", "client");
            out.iter().map(|ct| decrypt_bool(ctx, keys, ct)).collect()
        };
        Outcome {
            server: vec![server],
            client: encrypt + start.elapsed(),
            ok: got == expect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuit_is_width_by_depth_with_no_folding() {
        let c = circuit(1);
        assert_eq!(c.input_count() as usize, INPUT_BITS);
        assert_eq!(c.gate_count(), WIDTH * DEPTH);
        assert_eq!(c.levels(), vec![WIDTH as u32; DEPTH]);
        assert_eq!(c.outputs().len(), WIDTH);
    }

    #[test]
    fn same_seed_same_inputs_and_oracle() {
        let (a, b) = (circuit(7), circuit(7));
        assert_eq!(a.stats(), b.stats());
        for index in 0..4 {
            assert_eq!(inputs(7, &a, index), inputs(7, &b, index));
        }
        assert_ne!(inputs(7, &a, 0).0, inputs(7, &a, 1).0);
        assert_ne!(inputs(7, &a, 0).0, inputs(8, &circuit(8), 0).0);
    }
}
