//! Wire-arena gate circuits: the shared substrate for boolean
//! (logic-scheme) workloads.
//!
//! A [`WireArena`] interns every gate node once — operands are plain
//! `u32` indices with a free inversion flag, so circuit construction
//! allocates no per-wire ciphertexts or boxed expression trees (the
//! clone-heavy pattern the earlier ad-hoc gate builders trended
//! toward). On top of the arena a finished [`GateCircuit`] offers the
//! three evaluations every workload needs:
//!
//! * **plaintext** ([`GateCircuit::eval`]) — the self-checking
//!   oracle;
//! * **homomorphic** ([`GateCircuit::eval_encrypted`]) — every gate
//!   runs as a real `ufc-tfhe` bootstrapped gate, one batch per ASAP
//!   level with the level's bootstraps spread over worker threads;
//! * **trace** ([`GateCircuit::to_trace`]) — ASAP levelization: all
//!   gates at the same dependence depth become one batched
//!   `TfheLinear`/`TfhePbs`/`TfheKeySwitch` triple, the TvLP source
//!   the compiler packs (§V-B).
//!
//! Free operations stay free: `NOT` is an operand flag (LWE negation
//! on hardware), rotations/shifts of bit vectors are index moves, and
//! gates with constant operands fold away at build time (public
//! constants never cost a bootstrap).

use std::collections::BTreeMap;

use ufc_isa::trace::{Trace, TraceOp};
use ufc_tfhe::gates::{self, Gate};
use ufc_tfhe::{LweCiphertext, TfheContext, TfheKeys};

/// A boolean value in a circuit under construction: a public
/// constant, or a wire (arena node) with a free inversion flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bit {
    /// A public constant, folded through gates at build time.
    Const(bool),
    /// An arena wire, optionally inverted (free on TFHE hardware).
    Wire {
        /// Index of the producing node in the arena.
        node: u32,
        /// Logical NOT applied on read (LWE negation, no bootstrap).
        invert: bool,
    },
}

impl std::ops::Not for Bit {
    type Output = Bit;

    /// Free logical NOT.
    fn not(self) -> Bit {
        match self {
            Bit::Const(v) => Bit::Const(!v),
            Bit::Wire { node, invert } => Bit::Wire {
                node,
                invert: !invert,
            },
        }
    }
}

/// One arena node: an encrypted input or a two-input bootstrapped
/// gate over earlier nodes.
#[derive(Debug, Clone, Copy)]
enum Node {
    Input,
    Gate {
        gate: Gate,
        a: u32,
        a_inv: bool,
        b: u32,
        b_inv: bool,
    },
}

/// Append-only arena of gate nodes (see module docs).
#[derive(Debug, Default)]
pub struct WireArena {
    nodes: Vec<Node>,
    /// ASAP dependence depth per node (inputs at 0).
    depth: Vec<u32>,
    inputs: u32,
}

impl WireArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh encrypted-input wire.
    pub fn input(&mut self) -> Bit {
        self.nodes.push(Node::Input);
        self.depth.push(0);
        self.inputs += 1;
        Bit::Wire {
            node: (self.nodes.len() - 1) as u32,
            invert: false,
        }
    }

    /// Number of input wires allocated so far.
    pub fn inputs(&self) -> u32 {
        self.inputs
    }

    /// Number of bootstrapped gates allocated so far.
    pub fn gates(&self) -> usize {
        self.nodes.len() - self.inputs as usize
    }

    /// A two-input bootstrapped gate. Constant and same-wire operands
    /// fold away without allocating (public logic is free), so the
    /// returned [`Bit`] may be a constant or an alias of an operand.
    pub fn gate(&mut self, g: Gate, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Const(x), Bit::Const(y)) => Bit::Const(g.eval(x, y)),
            (Bit::Const(c), w @ Bit::Wire { .. }) | (w @ Bit::Wire { .. }, Bit::Const(c)) => {
                match (g, c) {
                    (Gate::And, true) | (Gate::Or, false) | (Gate::Xor, false) => w,
                    (Gate::Xnor, true) => w,
                    (Gate::And, false) | (Gate::Nor, true) => Bit::Const(false),
                    (Gate::Or, true) | (Gate::Nand, false) => Bit::Const(true),
                    (Gate::Xor, true)
                    | (Gate::Nand, true)
                    | (Gate::Nor, false)
                    | (Gate::Xnor, false) => !w,
                }
            }
            (
                Bit::Wire {
                    node: na,
                    invert: ia,
                },
                Bit::Wire {
                    node: nb,
                    invert: ib,
                },
            ) => {
                if na == nb {
                    return Self::fold_same_wire(g, a, ia == ib);
                }
                let d = 1 + self.depth[na as usize].max(self.depth[nb as usize]);
                self.nodes.push(Node::Gate {
                    gate: g,
                    a: na,
                    a_inv: ia,
                    b: nb,
                    b_inv: ib,
                });
                self.depth.push(d);
                Bit::Wire {
                    node: (self.nodes.len() - 1) as u32,
                    invert: false,
                }
            }
        }
    }

    /// `g(a, a)` and `g(a, !a)` are wire moves or constants.
    fn fold_same_wire(g: Gate, a: Bit, same_polarity: bool) -> Bit {
        if same_polarity {
            match g {
                Gate::And | Gate::Or => a,
                Gate::Nand | Gate::Nor => !a,
                Gate::Xor => Bit::Const(false),
                Gate::Xnor => Bit::Const(true),
            }
        } else {
            match g {
                Gate::And | Gate::Nor => Bit::Const(false),
                Gate::Or | Gate::Nand | Gate::Xor => Bit::Const(true),
                Gate::Xnor => Bit::Const(false),
            }
        }
    }

    /// Shorthand for [`WireArena::gate`] with [`Gate::And`].
    pub fn and(&mut self, a: Bit, b: Bit) -> Bit {
        self.gate(Gate::And, a, b)
    }

    /// Shorthand for [`WireArena::gate`] with [`Gate::Or`].
    pub fn or(&mut self, a: Bit, b: Bit) -> Bit {
        self.gate(Gate::Or, a, b)
    }

    /// Shorthand for [`WireArena::gate`] with [`Gate::Xor`].
    pub fn xor(&mut self, a: Bit, b: Bit) -> Bit {
        self.gate(Gate::Xor, a, b)
    }

    /// Finishes the circuit with the given output bits.
    pub fn finish(self, name: impl Into<String>, outputs: Vec<Bit>) -> GateCircuit {
        GateCircuit {
            name: name.into(),
            arena: self,
            outputs,
        }
    }
}

/// Structural statistics of a finished circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Encrypted input wires.
    pub inputs: u32,
    /// Output bits.
    pub outputs: usize,
    /// Bootstrapped two-input gates.
    pub gates: usize,
    /// Critical-path length in gate levels (bootstrap depth).
    pub depth: u32,
    /// Widest ASAP level (peak gate-level parallelism).
    pub max_width: u32,
    /// Mean ASAP level width (`gates / depth`).
    pub mean_width: f64,
    /// Gate count per gate kind.
    pub histogram: BTreeMap<&'static str, u64>,
}

/// A finished gate circuit: arena + designated outputs.
#[derive(Debug)]
pub struct GateCircuit {
    /// Display name (trace and report labels).
    pub name: String,
    arena: WireArena,
    outputs: Vec<Bit>,
}

impl GateCircuit {
    /// The designated output bits.
    pub fn outputs(&self) -> &[Bit] {
        &self.outputs
    }

    /// Number of encrypted input wires the circuit expects.
    pub fn input_count(&self) -> u32 {
        self.arena.inputs
    }

    /// Number of bootstrapped gates.
    pub fn gate_count(&self) -> usize {
        self.arena.gates()
    }

    /// Critical-path length in gate levels.
    pub fn depth(&self) -> u32 {
        self.arena.depth.iter().copied().max().unwrap_or(0)
    }

    /// Gate count of each ASAP level (index 0 = depth-1 gates).
    pub fn levels(&self) -> Vec<u32> {
        let mut widths = vec![0u32; self.depth() as usize];
        for (node, d) in self.arena.nodes.iter().zip(&self.arena.depth) {
            if matches!(node, Node::Gate { .. }) {
                widths[(*d - 1) as usize] += 1;
            }
        }
        widths
    }

    /// Structural statistics.
    pub fn stats(&self) -> CircuitStats {
        let mut histogram = BTreeMap::new();
        for node in &self.arena.nodes {
            if let Node::Gate { gate, .. } = node {
                *histogram.entry(gate.name()).or_insert(0u64) += 1;
            }
        }
        let levels = self.levels();
        let gates = self.gate_count();
        CircuitStats {
            inputs: self.arena.inputs,
            outputs: self.outputs.len(),
            gates,
            depth: self.depth(),
            max_width: levels.iter().copied().max().unwrap_or(0),
            mean_width: if levels.is_empty() {
                0.0
            } else {
                gates as f64 / levels.len() as f64
            },
            histogram,
        }
    }

    /// Plaintext evaluation — the oracle for both the homomorphic
    /// path and the trace-level model.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Self::input_count`].
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.arena.inputs as usize, "input arity");
        let mut values = Vec::with_capacity(self.arena.nodes.len());
        let mut next_input = 0usize;
        for node in &self.arena.nodes {
            let v = match *node {
                Node::Input => {
                    let v = inputs[next_input];
                    next_input += 1;
                    v
                }
                Node::Gate {
                    gate,
                    a,
                    a_inv,
                    b,
                    b_inv,
                } => gate.eval(values[a as usize] ^ a_inv, values[b as usize] ^ b_inv),
            };
            values.push(v);
        }
        self.outputs
            .iter()
            .map(|bit| match *bit {
                Bit::Const(v) => v,
                Bit::Wire { node, invert } => values[node as usize] ^ invert,
            })
            .collect()
    }

    /// Homomorphic evaluation on the real `ufc-tfhe` gate evaluator,
    /// ASAP level by level: the gates of each dependence depth (the
    /// levels of [`Self::levels`], in order) are independent, so each
    /// level runs as one [`gates::apply_gates`] batch whose bootstraps
    /// fan out over worker threads. Inversion flags are free
    /// negations, constant outputs trivial ciphertexts.
    ///
    /// The outputs do not depend on the thread count: a level reads
    /// only finished earlier levels, every gate is a pure function of
    /// its operands and the keys, and each batch returns its outputs
    /// in node order. They are bit-identical to evaluating the gates
    /// one by one in node order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Self::input_count`].
    pub fn eval_encrypted(
        &self,
        ctx: &TfheContext,
        keys: &TfheKeys,
        inputs: &[LweCiphertext],
    ) -> Vec<LweCiphertext> {
        assert_eq!(inputs.len(), self.arena.inputs as usize, "input arity");
        let _span = ufc_trace::span_n("workload", "gate_circuit", self.gate_count() as u64);
        // Gate node indices per level, in node order.
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); self.depth() as usize];
        let mut cts: Vec<Option<LweCiphertext>> = Vec::with_capacity(self.arena.nodes.len());
        let mut inputs = inputs.iter();
        for (i, node) in self.arena.nodes.iter().enumerate() {
            cts.push(match node {
                Node::Input => inputs.next().cloned(),
                Node::Gate { .. } => {
                    levels[self.arena.depth[i] as usize - 1].push(i);
                    None
                }
            });
        }
        for level in &levels {
            let outs = {
                let operands: Vec<_> = level
                    .iter()
                    .map(|&i| {
                        let Node::Gate {
                            gate,
                            a,
                            a_inv,
                            b,
                            b_inv,
                        } = self.arena.nodes[i]
                        else {
                            unreachable!("levels hold gates only")
                        };
                        (
                            gate,
                            resolve(wire(&cts, a), a_inv),
                            resolve(wire(&cts, b), b_inv),
                        )
                    })
                    .collect();
                let ops: Vec<(Gate, &LweCiphertext, &LweCiphertext)> =
                    operands.iter().map(|(g, a, b)| (*g, &**a, &**b)).collect();
                gates::apply_gates(ctx, keys, &ops)
            };
            for (&i, ct) in level.iter().zip(outs) {
                cts[i] = Some(ct);
            }
        }
        let trivial = |v: bool| {
            let enc = if v {
                ctx.encode(1, 8)
            } else {
                ctx.encode(7, 8)
            };
            LweCiphertext::trivial(enc, ctx.lwe_dim(), ctx.q())
        };
        self.outputs
            .iter()
            .map(|bit| match *bit {
                Bit::Const(v) => trivial(v),
                Bit::Wire { node, invert } => resolve(wire(&cts, node), invert).into_owned(),
            })
            .collect()
    }

    /// Emits the circuit as a compiler/simulator [`Trace`]: one
    /// batched gate level per ASAP depth (see [`emit_gate_level`]).
    pub fn to_trace(&self, params: &'static str) -> Trace {
        let mut tr = Trace::new(format!("{}/{params}", self.name)).with_tfhe(params);
        for width in self.levels() {
            emit_gate_level(&mut tr, width);
        }
        tr
    }
}

/// The ciphertext of an evaluated node.
fn wire(cts: &[Option<LweCiphertext>], node: u32) -> &LweCiphertext {
    cts[node as usize]
        .as_ref()
        .expect("operands sit on earlier levels")
}

fn resolve(ct: &LweCiphertext, invert: bool) -> std::borrow::Cow<'_, LweCiphertext> {
    if invert {
        std::borrow::Cow::Owned(gates::not(ct))
    } else {
        std::borrow::Cow::Borrowed(ct)
    }
}

/// One ASAP level of `width` independent bootstrapped gates: the
/// linear parts batched as one wide `TfheLinear`, then a `TfhePbs`
/// batch (the TvLP source) and its key switch. Each gate's linear
/// combination is immediately reset by its bootstrap, so traces built
/// from levels are noise-clean by construction (`ufc-verify`'s LWE
/// rules). Zero-width levels emit nothing.
pub fn emit_gate_level(tr: &mut Trace, width: u32) {
    if width == 0 {
        return;
    }
    tr.push(TraceOp::TfheLinear { count: 2 * width });
    tr.push(TraceOp::TfhePbs { batch: width });
    tr.push(TraceOp::TfheKeySwitch { batch: width });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Full adder over three inputs: (sum, carry).
    fn full_adder(arena: &mut WireArena, a: Bit, b: Bit, c: Bit) -> (Bit, Bit) {
        let ab = arena.xor(a, b);
        let sum = arena.xor(ab, c);
        let t1 = arena.and(a, b);
        let t2 = arena.and(ab, c);
        let carry = arena.or(t1, t2);
        (sum, carry)
    }

    #[test]
    fn constant_folding_is_exhaustive() {
        for g in Gate::ALL {
            for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
                let mut arena = WireArena::new();
                let folded = arena.gate(g, Bit::Const(x), Bit::Const(y));
                assert_eq!(folded, Bit::Const(g.eval(x, y)));
                assert_eq!(arena.gates(), 0);

                // One const operand: fold must agree with the truth
                // table applied to a live wire.
                let mut arena = WireArena::new();
                let w = arena.input();
                let out = arena.gate(g, Bit::Const(x), w);
                let circuit = arena.finish("fold", vec![out]);
                assert_eq!(circuit.gate_count(), 0, "{g:?} const fold allocated");
                assert_eq!(circuit.eval(&[y])[0], g.eval(x, y), "{g:?}({x}, wire={y})");
            }
        }
    }

    #[test]
    fn same_wire_folding_matches_truth_table() {
        for g in Gate::ALL {
            for inv in [false, true] {
                for v in [false, true] {
                    let mut arena = WireArena::new();
                    let w = arena.input();
                    let rhs = if inv { !w } else { w };
                    let out = arena.gate(g, w, rhs);
                    let circuit = arena.finish("same", vec![out]);
                    assert_eq!(circuit.gate_count(), 0);
                    assert_eq!(circuit.eval(&[v])[0], g.eval(v, v ^ inv), "{g:?} inv={inv}");
                }
            }
        }
    }

    #[test]
    fn full_adder_truth_table_and_stats() {
        let mut arena = WireArena::new();
        let a = arena.input();
        let b = arena.input();
        let c = arena.input();
        let (sum, carry) = full_adder(&mut arena, a, b, c);
        let circuit = arena.finish("full-adder", vec![sum, carry]);
        assert_eq!(circuit.gate_count(), 5);
        assert_eq!(circuit.depth(), 3); // ab → t2 → carry
        for bits in 0..8u32 {
            let ins = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let total = ins.iter().filter(|&&x| x).count();
            let out = circuit.eval(&ins);
            assert_eq!(out[0], total % 2 == 1, "sum({ins:?})");
            assert_eq!(out[1], total >= 2, "carry({ins:?})");
        }
        let stats = circuit.stats();
        assert_eq!(stats.gates, 5);
        assert_eq!(stats.histogram["xor"], 2);
        assert_eq!(stats.histogram["and"], 2);
        assert_eq!(stats.histogram["or"], 1);
        assert_eq!(stats.max_width, 2); // levels: {ab, t1}, {sum, t2}, {carry}
    }

    #[test]
    fn trace_levels_match_widths() {
        let mut arena = WireArena::new();
        let a = arena.input();
        let b = arena.input();
        let c = arena.input();
        let (sum, carry) = full_adder(&mut arena, a, b, c);
        let circuit = arena.finish("full-adder", vec![sum, carry]);
        let tr = circuit.to_trace("T1");
        assert_eq!(tr.tfhe_params, Some("T1"));
        let widths: Vec<u32> = tr
            .ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::TfhePbs { batch } => Some(*batch),
                _ => None,
            })
            .collect();
        assert_eq!(widths, circuit.levels());
        assert_eq!(widths.iter().sum::<u32>() as usize, circuit.gate_count());
    }

    #[test]
    fn emit_gate_level_records_three_ops() {
        let mut tr = Trace::new("one-gate");
        emit_gate_level(&mut tr, 1);
        assert_eq!(
            tr.ops,
            vec![
                TraceOp::TfheLinear { count: 2 },
                TraceOp::TfhePbs { batch: 1 },
                TraceOp::TfheKeySwitch { batch: 1 },
            ]
        );
        emit_gate_level(&mut tr, 0);
        assert_eq!(tr.len(), 3, "zero-width levels emit nothing");
    }

    #[test]
    fn encrypted_eval_matches_plaintext() {
        let ctx = TfheContext::new(64, 256, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(0x5aa5);
        let keys = TfheKeys::generate(&ctx, &mut rng);

        let mut arena = WireArena::new();
        let a = arena.input();
        let b = arena.input();
        let c = arena.input();
        let (sum, carry) = full_adder(&mut arena, a, b, c);
        // Exercise inverted and constant outputs too.
        let circuit = arena.finish("full-adder", vec![sum, !carry, Bit::Const(true)]);

        for bits in [0b000u32, 0b011, 0b101, 0b111] {
            let ins = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let cts: Vec<LweCiphertext> = ins
                .iter()
                .map(|&v| gates::encrypt_bool(&ctx, &keys, v, &mut rng))
                .collect();
            let out = circuit.eval_encrypted(&ctx, &keys, &cts);
            let expect = circuit.eval(&ins);
            let got: Vec<bool> = out
                .iter()
                .map(|ct| gates::decrypt_bool(&ctx, &keys, ct))
                .collect();
            assert_eq!(got, expect, "inputs {ins:?}");
        }
    }

    #[test]
    fn encrypted_eval_is_thread_count_invariant() {
        let ctx = TfheContext::new(64, 256, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(0x7e4d);
        let keys = TfheKeys::generate(&ctx, &mut rng);

        // Levels of width 3, 1 and 2, inverted operands on every
        // level, inverted and constant outputs.
        let mut arena = WireArena::new();
        let [a, b, c, d] = [arena.input(), arena.input(), arena.input(), arena.input()];
        let g1 = arena.and(a, !b);
        let g2 = arena.gate(Gate::Or, !c, d);
        let g3 = arena.xor(a, d);
        let g4 = arena.gate(Gate::Nand, g1, !g2);
        let g5 = arena.gate(Gate::Xnor, g4, !g3);
        let g6 = arena.gate(Gate::Nor, !g4, c);
        let outputs = vec![g5, !g6, Bit::Const(false), !g1, Bit::Const(true)];
        let circuit = arena.finish("levels", outputs);
        assert_eq!(circuit.levels(), vec![3, 1, 2]);

        for bits in [0b0110u32, 0b1011] {
            let ins: Vec<bool> = (0..4).map(|k| (bits >> k) & 1 == 1).collect();
            let cts: Vec<LweCiphertext> = ins
                .iter()
                .map(|&v| gates::encrypt_bool(&ctx, &keys, v, &mut rng))
                .collect();
            let prev = ufc_math::par::set_max_threads(1);
            let serial = circuit.eval_encrypted(&ctx, &keys, &cts);
            ufc_math::par::set_max_threads(4);
            let parallel = circuit.eval_encrypted(&ctx, &keys, &cts);
            ufc_math::par::set_max_threads(prev);
            assert_eq!(parallel, serial, "inputs {ins:?}");
            let got: Vec<bool> = serial
                .iter()
                .map(|ct| gates::decrypt_bool(&ctx, &keys, ct))
                .collect();
            assert_eq!(got, circuit.eval(&ins), "inputs {ins:?}");
        }
    }
}
