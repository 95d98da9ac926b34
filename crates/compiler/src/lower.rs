//! Lowering rules: one block of macro-instructions per trace op.
//!
//! Every rule mirrors the operation breakdowns of Fig. 3 (CKKS) and
//! Fig. 4 (TFHE): key-switching expands into ModUp base conversions,
//! the key MAC and ModDown; functional bootstrapping expands into `n`
//! blind-rotation iterations of decompose → NTT → multiply-accumulate
//! → iNTT → rotate.
//!
//! [`Compiler::try_compile`] is the one driver from trace to stream:
//! it lowers every op in order and inserts a dependency barrier at
//! each scheme switch. Every entry point is fallible and returns
//! [`CompileError`]. Verifying the lowered stream is a separate step
//! (`ufc_verify::verify_stream`), taken by `ufc-lint`,
//! `Ufc::run_verified` and the workspace's stream tests.

use crate::error::CompileError;
use crate::memory::{key_reuse_factor, SpillModel};
use crate::options::{CompileOptions, Packing};
use crate::stats::{CompileStats, OpLowering, SpillEvent};
use ufc_isa::instr::{InstrStream, Kernel, Phase, PolyShape};
use ufc_isa::params::{CkksParams, TfheParams, LIMB_BITS};
use ufc_isa::trace::{Trace, TraceOp};

/// CKKS limb word size on the instruction stream.
pub const CKKS_WORD_BITS: u32 = LIMB_BITS;
/// TFHE torus word size.
pub const TFHE_WORD_BITS: u32 = 32;
/// Traffic reduction from on-the-fly evaluation-key generation
/// (§IV-B5): only seeds and the non-expandable share stream from HBM.
pub const KEYGEN_ONTHEFLY_FACTOR: u64 = 3;

/// The trace-to-instruction compiler.
#[derive(Debug, Clone)]
pub struct Compiler {
    ckks: Option<CkksParams>,
    tfhe: Option<TfheParams>,
    opts: CompileOptions,
}

impl Compiler {
    /// Creates a compiler for the given parameter environment.
    pub fn new(ckks: Option<CkksParams>, tfhe: Option<TfheParams>, opts: CompileOptions) -> Self {
        Self { ckks, tfhe, opts }
    }

    /// Builds a compiler from a trace's recorded parameter-set ids.
    pub fn try_for_trace(trace: &Trace, opts: CompileOptions) -> Result<Self, CompileError> {
        let ckks = trace
            .ckks_params
            .map(ufc_isa::params::try_ckks_params)
            .transpose()?;
        let tfhe = trace
            .tfhe_params
            .map(ufc_isa::params::try_tfhe_params)
            .transpose()?;
        Ok(Self::new(ckks, tfhe, opts))
    }

    /// The options in use.
    pub fn options(&self) -> &CompileOptions {
        &self.opts
    }

    /// Compiles a full trace: the one driver from trace to stream,
    /// shared by every machine (fair-comparison methodology, §VI-C).
    ///
    /// Consecutive ops of one scheme carry no cross dependencies
    /// (program-level parallelism is abundant in the evaluated
    /// workloads; the simulator's resource model bounds the overlap).
    /// Whenever the program switches schemes, or crosses a
    /// chip-to-chip transfer, the next block depends on every exit
    /// since the previous crossing: hybrid phases are data-dependent,
    /// so neither UFC nor the composed baseline may overlap them.
    ///
    /// Alongside the stream it reports what the lowering did: one
    /// [`OpLowering`] per trace op, one [`SpillEvent`] per op whose
    /// modeled working set overflows the scratchpad
    /// ([`CompileOptions::scratchpad_bytes`]), and the static noise
    /// schedule. The stream is not verified here: `ufc-lint` and
    /// `Ufc::run_verified` run `ufc_verify::verify_stream` on it.
    pub fn try_compile(&self, trace: &Trace) -> Result<(InstrStream, CompileStats), CompileError> {
        let _span = ufc_trace::span_n("compiler", "compile", trace.len() as u64);
        let mut out = InstrStream::new();
        let mut ops = Vec::with_capacity(trace.len());
        let mut spills = Vec::new();
        {
            let _lower = ufc_trace::span("compiler", "lower");
            let mut prev_exits: Vec<usize> = Vec::new();
            let mut prev_scheme: Option<bool> = None; // Some(is_ckks)
            for (index, op) in trace.ops.iter().enumerate() {
                let scheme = if matches!(op, TraceOp::SchemeTransfer { .. }) {
                    None
                } else {
                    Some(op.is_ckks())
                };
                let crosses = match (prev_scheme, scheme) {
                    (Some(a), Some(b)) => a != b,
                    (_, None) | (None, _) => true,
                };
                let block = self.try_lower_op(op)?;
                ops.push(OpLowering {
                    index,
                    op: op.name().to_owned(),
                    instrs: block.len(),
                    hbm_bytes: block.total_hbm_bytes(),
                });
                if let Some(ev) = self.spill_event(index, op) {
                    spills.push(ev);
                }
                let deps: &[usize] = if crosses { &prev_exits } else { &[] };
                let exits = out.append(block, deps);
                if crosses {
                    prev_exits = exits;
                } else {
                    prev_exits.extend(exits);
                }
                prev_scheme = scheme;
            }
        }
        let noise = {
            let _noise = ufc_trace::span_n("compiler", "noise_pass", trace.len() as u64);
            ufc_verify::noise_checks::noise_schedule(trace, &ufc_verify::NoiseOptions::default())
        };
        let stats = CompileStats {
            total_instrs: out.len(),
            total_hbm_bytes: out.total_hbm_bytes(),
            scratchpad_bytes: self.opts.scratchpad_bytes,
            ops,
            spills,
            noise,
        };
        Ok((out, stats))
    }

    /// Checks one op's modeled working set (§V-C) against the
    /// scratchpad, returning the overflow event if it does not fit.
    /// Linear/transfer ops have no resident working set.
    fn spill_event(&self, index: usize, op: &TraceOp) -> Option<SpillEvent> {
        let working_set = match *op {
            TraceOp::CkksAdd { level }
            | TraceOp::CkksMulPlain { level }
            | TraceOp::CkksMulCt { level }
            | TraceOp::CkksRescale { level }
            | TraceOp::CkksRotate { level, .. }
            | TraceOp::CkksConjugate { level }
            | TraceOp::Repack { level, .. } => {
                SpillModel::ckks_working_set(self.ckks.as_ref()?, level, 4)
            }
            // Mod raise lands on the full limb budget.
            TraceOp::CkksModRaise { .. } => {
                let p = self.ckks.as_ref()?;
                SpillModel::ckks_working_set(p, p.max_level(), 4)
            }
            TraceOp::TfhePbs { batch } | TraceOp::TfheKeySwitch { batch } => {
                SpillModel::tfhe_working_set(self.tfhe.as_ref()?, batch)
            }
            TraceOp::TfheLinear { .. }
            | TraceOp::Extract { .. }
            | TraceOp::SchemeTransfer { .. } => return None,
        };
        let capacity = self.opts.scratchpad_bytes;
        (working_set > capacity).then(|| SpillEvent {
            index,
            op: op.name().to_owned(),
            working_set,
            capacity,
            overflow: working_set - capacity,
        })
    }

    /// Lowers a single trace op into its instruction block.
    pub fn try_lower_op(&self, op: &TraceOp) -> Result<InstrStream, CompileError> {
        let lowered = match *op {
            TraceOp::CkksAdd { level } => self.ckks_elementwise(level, Kernel::Ewma),
            TraceOp::CkksMulPlain { level } => self.ckks_elementwise(level, Kernel::Ewmm),
            TraceOp::CkksMulCt { level } => self.ckks_mul_ct(level),
            TraceOp::CkksRescale { level } => self.ckks_rescale(level),
            TraceOp::CkksRotate { level, .. } | TraceOp::CkksConjugate { level } => {
                self.ckks_rotate(level)
            }
            TraceOp::CkksModRaise { from_level } => self.ckks_mod_raise(from_level),
            TraceOp::TfhePbs { batch } => self.tfhe_pbs(batch),
            TraceOp::TfheKeySwitch { batch } => self.tfhe_key_switch(batch),
            TraceOp::TfheLinear { count } => self.tfhe_linear(count),
            TraceOp::Extract { level, count } => self.extract(level, count),
            TraceOp::Repack { count, level } => self.repack(count, level),
            TraceOp::SchemeTransfer { bytes } => {
                let mut s = InstrStream::new();
                s.push(
                    Kernel::Transfer,
                    PolyShape::new(0, 1),
                    8,
                    vec![],
                    bytes,
                    Phase::SchemeSwitch,
                );
                Ok(s)
            }
        };
        // The parameter-availability helpers don't know which op asked
        // for them; attach that context here.
        lowered.map_err(|e| match e {
            CompileError::MissingParams { scheme, .. } => CompileError::MissingParams {
                scheme,
                op: format!("{op:?}"),
            },
            other => other,
        })
    }

    // ------------------------------------------------------------ CKKS

    fn ckks(&self) -> Result<&CkksParams, CompileError> {
        self.ckks.as_ref().ok_or(CompileError::MissingParams {
            scheme: "CKKS",
            op: String::new(),
        })
    }

    fn ckks_elementwise(&self, level: u32, kernel: Kernel) -> Result<InstrStream, CompileError> {
        let p = self.ckks()?;
        let limbs = level + 1;
        let mut s = InstrStream::new();
        s.push(
            kernel,
            PolyShape::new(p.log_n, 2 * limbs),
            CKKS_WORD_BITS,
            vec![],
            0,
            Phase::CkksEval,
        );
        Ok(s)
    }

    fn ckks_mul_ct(&self, level: u32) -> Result<InstrStream, CompileError> {
        let p = self.ckks()?;
        let limbs = level + 1;
        let n = p.log_n;
        let mut s = InstrStream::new();
        // Tensor: d0, d2, and the two cross terms + add.
        let t0 = s.push(
            Kernel::Ewmm,
            PolyShape::new(n, limbs),
            CKKS_WORD_BITS,
            vec![],
            0,
            Phase::CkksEval,
        );
        let t2 = s.push(
            Kernel::Ewmm,
            PolyShape::new(n, limbs),
            CKKS_WORD_BITS,
            vec![],
            0,
            Phase::CkksEval,
        );
        let tc = s.push(
            Kernel::Ewmm,
            PolyShape::new(n, 2 * limbs),
            CKKS_WORD_BITS,
            vec![],
            0,
            Phase::CkksEval,
        );
        let td = s.push(
            Kernel::Ewma,
            PolyShape::new(n, limbs),
            CKKS_WORD_BITS,
            vec![tc],
            0,
            Phase::CkksEval,
        );
        // Relinearize d2.
        let ks_exits = self.key_switch_block(&mut s, level, vec![t2], Phase::CkksKeySwitch)?;
        // Final adds into (c0, c1).
        let mut deps = ks_exits;
        deps.push(t0);
        deps.push(td);
        s.push(
            Kernel::Ewma,
            PolyShape::new(n, 2 * limbs),
            CKKS_WORD_BITS,
            deps,
            0,
            Phase::CkksEval,
        );
        Ok(s)
    }

    /// Hybrid key switching (Fig. 3): iNTT, per-digit ModUp BConv,
    /// the key MAC, and ModDown. Returns the exit instruction ids.
    fn key_switch_block(
        &self,
        s: &mut InstrStream,
        level: u32,
        input_deps: Vec<usize>,
        phase: Phase,
    ) -> Result<Vec<usize>, CompileError> {
        let p = self.ckks()?;
        let n = p.log_n;
        let limbs = level + 1;
        let k = p.special_limbs();
        let digit_size = p.q_limbs().div_ceil(p.dnum);
        let digits = limbs.div_ceil(digit_size);
        let w = CKKS_WORD_BITS;

        let intt = s.push(
            Kernel::Intt,
            PolyShape::new(n, limbs),
            w,
            input_deps,
            0,
            phase,
        );
        let mut digit_exits = Vec::new();
        for d in 0..digits {
            let lj = digit_size.min(limbs - d * digit_size);
            let target = limbs - lj + k;
            // d~_j = [d · Qhat^{-1}]: one EWMM over the digit limbs.
            let scale = s.push(Kernel::Ewmm, PolyShape::new(n, lj), w, vec![intt], 0, phase);
            // ModUp: BConv from lj limbs to the complement.
            let bconv = s.push(
                Kernel::BconvMac,
                PolyShape::new(n, lj * target),
                w,
                vec![scale],
                0,
                phase,
            );
            // Back to evaluation form on the extended basis.
            let ntt = s.push(
                Kernel::Ntt,
                PolyShape::new(n, target),
                w,
                vec![bconv],
                0,
                phase,
            );
            // MAC against the digit key (2 output polys over Q+P).
            // The on-the-fly key generation unit (§IV-B5, reused from
            // ARK/SHARP/CraterLake) expands keys from seeds on die;
            // only ~1/3 of the raw key footprint crosses HBM.
            let key_bytes = 2 * (limbs + k) as u64 * (1u64 << n) * 8 / KEYGEN_ONTHEFLY_FACTOR;
            let mac = s.push(
                Kernel::Ewmm,
                PolyShape::new(n, 2 * (limbs + k)),
                w,
                vec![ntt],
                key_bytes,
                phase,
            );
            let acc = s.push(
                Kernel::Ewma,
                PolyShape::new(n, 2 * (limbs + k)),
                w,
                vec![mac],
                0,
                phase,
            );
            digit_exits.push(acc);
        }
        // ModDown both result polys: iNTT, BConv P→Q, sub+scale, NTT.
        let intt2 = s.push(
            Kernel::Intt,
            PolyShape::new(n, 2 * (limbs + k)),
            w,
            digit_exits,
            0,
            phase,
        );
        let bconv2 = s.push(
            Kernel::BconvMac,
            PolyShape::new(n, 2 * k * limbs),
            w,
            vec![intt2],
            0,
            phase,
        );
        let fix = s.push(
            Kernel::Ewma,
            PolyShape::new(n, 2 * limbs),
            w,
            vec![bconv2],
            0,
            phase,
        );
        let ntt2 = s.push(
            Kernel::Ntt,
            PolyShape::new(n, 2 * limbs),
            w,
            vec![fix],
            0,
            phase,
        );
        Ok(vec![ntt2])
    }

    fn ckks_rescale(&self, level: u32) -> Result<InstrStream, CompileError> {
        let p = self.ckks()?;
        let n = p.log_n;
        let limbs = level + 1;
        let w = CKKS_WORD_BITS;
        let mut s = InstrStream::new();
        let intt = s.push(
            Kernel::Intt,
            PolyShape::new(n, 2 * limbs),
            w,
            vec![],
            0,
            Phase::CkksEval,
        );
        let sub = s.push(
            Kernel::Ewma,
            PolyShape::new(n, 2 * (limbs - 1)),
            w,
            vec![intt],
            0,
            Phase::CkksEval,
        );
        let mul = s.push(
            Kernel::Ewmm,
            PolyShape::new(n, 2 * (limbs - 1)),
            w,
            vec![sub],
            0,
            Phase::CkksEval,
        );
        s.push(
            Kernel::Ntt,
            PolyShape::new(n, 2 * (limbs - 1)),
            w,
            vec![mul],
            0,
            Phase::CkksEval,
        );
        Ok(s)
    }

    fn ckks_rotate(&self, level: u32) -> Result<InstrStream, CompileError> {
        let p = self.ckks()?;
        let limbs = level + 1;
        let mut s = InstrStream::new();
        // Automorphism on both polys (UFC folds this onto the NTT
        // network, §IV-C2; SHARP uses its all-to-all NoC — the
        // machine models cost the same Auto kernel differently).
        let auto = s.push(
            Kernel::Auto,
            PolyShape::new(p.log_n, 2 * limbs),
            CKKS_WORD_BITS,
            vec![],
            0,
            Phase::CkksKeySwitch,
        );
        self.key_switch_block(&mut s, level, vec![auto], Phase::CkksKeySwitch)?;
        Ok(s)
    }

    fn ckks_mod_raise(&self, from_level: u32) -> Result<InstrStream, CompileError> {
        let p = self.ckks()?;
        let n = p.log_n;
        let full = p.q_limbs();
        let src = from_level + 1;
        let w = CKKS_WORD_BITS;
        let mut s = InstrStream::new();
        let intt = s.push(
            Kernel::Intt,
            PolyShape::new(n, 2 * src),
            w,
            vec![],
            0,
            Phase::CkksBootstrap,
        );
        let bconv = s.push(
            Kernel::BconvMac,
            PolyShape::new(n, 2 * src * full),
            w,
            vec![intt],
            0,
            Phase::CkksBootstrap,
        );
        s.push(
            Kernel::Ntt,
            PolyShape::new(n, 2 * full),
            w,
            vec![bconv],
            0,
            Phase::CkksBootstrap,
        );
        Ok(s)
    }

    // ------------------------------------------------------------ TFHE

    fn tfhe(&self) -> Result<&TfheParams, CompileError> {
        self.tfhe.as_ref().ok_or(CompileError::MissingParams {
            scheme: "TFHE",
            op: String::new(),
        })
    }

    /// Effective packed width (how many small polynomials ride one
    /// instruction) for the active packing strategy (§V-A/B).
    pub fn try_tfhe_pack_width(&self, batch: u32) -> Result<u32, CompileError> {
        let p = self.tfhe()?;
        let lanes_per_poly = p.n() as u32;
        let max_pack = (self.opts.total_lanes / lanes_per_poly).max(1);
        Ok(match self.opts.packing {
            Packing::None => 1,
            Packing::Plp => 2.min(max_pack),
            // CoLP: the 2·g_k decomposed polynomials (+PLP).
            Packing::ColpPlp => (2 * p.glwe_levels).min(max_pack),
            // TvLP: batch test vectors (+PLP pairs).
            Packing::TvlpPlp => (2 * batch.min(self.opts.max_batch)).min(max_pack),
        })
    }

    fn tfhe_pbs(&self, batch: u32) -> Result<InstrStream, CompileError> {
        let p = self.tfhe()?;
        let n = p.log_n;
        let w = TFHE_WORD_BITS;
        let mut s = InstrStream::new();
        // The packing width caps how many of the batch's polynomials
        // occupy the lanes at once; the machine model serializes the
        // rest (§V-A).
        let pack = self.try_tfhe_pack_width(batch)?;
        // Key reuse: TvLP streams the bootstrapping key once per
        // batch; CoLP/PLP re-stream per ciphertext (§V-B).
        let reuse = key_reuse_factor(self.opts.packing, batch);
        let bsk_bytes_per_iter = 2 * p.glwe_levels as u64 * 2 * p.n() as u64 * 4;
        let iter_bsk = (bsk_bytes_per_iter * batch as u64) / reuse as u64;
        let ph = Phase::TfheBlindRotate;

        // Test-vector preparation (LWEU dispatches X^{a_i} factors).
        let prep = s.push_packed(
            Kernel::Rotate,
            PolyShape::new(n, batch * 2),
            w,
            vec![],
            0,
            ph,
            pack,
        );
        let mut last = prep;
        // n blind-rotation iterations; each is Decomp → NTT → MAC →
        // accumulate → iNTT (+ the monomial multiply, folded into the
        // evaluation-form EWMM per §IV-C3). The iterations form a
        // serial chain, so `pbs_iter_chunk > 1` may fold `k` of them
        // into one quintet with k-scaled shapes and key traffic:
        // total work and chain latency are preserved up to
        // lane-rounding, at 1/k the instruction count (the knob deep
        // gate circuits rely on).
        let g2 = 2 * p.glwe_levels;
        let chunk = self.opts.pbs_iter_chunk.max(1);
        let iters = p.blind_rotations();
        let mut done = 0u32;
        while done < iters {
            let k = chunk.min(iters - done);
            done += k;
            let dec = s.push_packed(
                Kernel::Decomp,
                PolyShape::new(n, batch * g2 * k),
                w,
                vec![last],
                0,
                ph,
                pack,
            );
            let ntt = s.push_packed(
                Kernel::Ntt,
                PolyShape::new(n, batch * g2 * k),
                w,
                vec![dec],
                0,
                ph,
                pack,
            );
            let mac = s.push_packed(
                Kernel::Ewmm,
                PolyShape::new(n, batch * g2 * 2 * k),
                w,
                vec![ntt],
                iter_bsk * k as u64,
                ph,
                pack,
            );
            let acc = s.push_packed(
                Kernel::Ewma,
                PolyShape::new(n, batch * 2 * k),
                w,
                vec![mac],
                0,
                ph,
                pack,
            );
            let intt = s.push_packed(
                Kernel::Intt,
                PolyShape::new(n, batch * 2 * k),
                w,
                vec![acc],
                0,
                ph,
                pack,
            );
            // CoLP pays a shuffle pass to restore the continuous
            // layout before the next decomposition (§V-B).
            last = if self.opts.packing == Packing::ColpPlp {
                s.push_packed(
                    Kernel::Rotate,
                    PolyShape::new(n, batch * 2 * k),
                    w,
                    vec![intt],
                    0,
                    ph,
                    pack,
                )
            } else {
                intt
            };
        }
        // Sample extraction on the LWEU.
        s.push(
            Kernel::Extract,
            PolyShape::new(n, batch),
            w,
            vec![last],
            0,
            ph,
        );
        Ok(s)
    }

    fn tfhe_key_switch(&self, batch: u32) -> Result<InstrStream, CompileError> {
        let p = self.tfhe()?;
        let n = p.log_n;
        let w = TFHE_WORD_BITS;
        let mut s = InstrStream::new();
        // Decompose the N-dim mask, then N·d_ks MACs of length n+1,
        // reduced on the LWEU.
        let dec = s.push(
            Kernel::Decomp,
            PolyShape::new(n, batch * p.ks_levels),
            w,
            vec![],
            0,
            Phase::TfheKeySwitch,
        );
        let macs = s.push(
            Kernel::BconvMac,
            PolyShape::new(n, batch * p.ks_levels * (p.lwe_dim + 1) / 64),
            w,
            vec![dec],
            p.ksk_bytes() / key_reuse_factor(self.opts.packing, batch) as u64,
            Phase::TfheKeySwitch,
        );
        s.push(
            Kernel::Redc,
            PolyShape::new(n, batch),
            w,
            vec![macs],
            0,
            Phase::TfheKeySwitch,
        );
        Ok(s)
    }

    fn tfhe_linear(&self, count: u32) -> Result<InstrStream, CompileError> {
        let p = self.tfhe()?;
        let mut s = InstrStream::new();
        // LWE adds: n+1 words each; batch them as one wide EWMA.
        let log_n = 64 - (p.lwe_dim as u64 + 1).leading_zeros() - 1;
        s.push(
            Kernel::Ewma,
            PolyShape::new(log_n, count),
            TFHE_WORD_BITS,
            vec![],
            0,
            Phase::TfheKeySwitch,
        );
        Ok(s)
    }

    // ------------------------------------------------- scheme switching

    fn extract(&self, level: u32, count: u32) -> Result<InstrStream, CompileError> {
        let c = self.ckks()?;
        let mut s = InstrStream::new();
        // LWEU reorders coefficients from the PE scratchpads.
        let ex = s.push(
            Kernel::Extract,
            PolyShape::new(c.log_n, count),
            CKKS_WORD_BITS,
            vec![],
            0,
            Phase::SchemeSwitch,
        );
        let _ = level;
        // TFHE key switch back to standard parameters (§II-D).
        let ks = self.tfhe_key_switch(count)?;
        s.append(ks, &[ex]);
        Ok(s)
    }

    fn repack(&self, count: u32, level: u32) -> Result<InstrStream, CompileError> {
        let t = self.tfhe()?;
        // One rotation + plaintext MAC per LWE dimension step
        // (diagonal method), then the EvalMod bootstrap. Modeled as
        // `lwe_dim` rotation blocks at the CKKS level plus one
        // mod-raise-sized polynomial evaluation.
        let mut s = InstrStream::new();
        let steps = t.lwe_dim.min(count.max(1) * 64);
        for _ in 0..steps.min(64) {
            let r = self.ckks_rotate(level)?;
            s.append(r, &[]);
        }
        // The sine evaluation: a handful of ct-ct multiplies.
        for _ in 0..4 {
            let m = self.ckks_mul_ct(level.saturating_sub(1).max(1))?;
            s.append(m, &[]);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_isa::params::{ckks_params, tfhe_params};

    fn compiler(packing: Packing) -> Compiler {
        Compiler::new(
            ckks_params("C2"),
            tfhe_params("T1"),
            CompileOptions {
                packing,
                ..CompileOptions::default()
            },
        )
    }

    #[test]
    fn ckks_add_is_one_ewma() {
        let c = compiler(Packing::TvlpPlp);
        let s = c.try_lower_op(&TraceOp::CkksAdd { level: 20 }).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.instrs()[0].kernel, Kernel::Ewma);
        assert_eq!(s.instrs()[0].shape.count, 42);
    }

    #[test]
    fn mul_ct_contains_keyswitch_pipeline() {
        let c = compiler(Packing::TvlpPlp);
        let s = c.try_lower_op(&TraceOp::CkksMulCt { level: 20 }).unwrap();
        let h = s.kernel_histogram();
        assert!(h[&Kernel::Ntt] >= 2, "ModUp + ModDown NTTs");
        assert!(h[&Kernel::Intt] >= 2);
        assert!(h[&Kernel::BconvMac] >= 2);
        assert!(s.total_hbm_bytes() > 0, "key material streams from HBM");
    }

    #[test]
    fn keyswitch_digits_follow_dnum() {
        // At full level, C2 (dnum=3) must produce 3 digit MACs.
        let c = compiler(Packing::TvlpPlp);
        let p = ckks_params("C2").unwrap();
        let s = c
            .try_lower_op(&TraceOp::CkksRotate {
                level: p.max_level(),
                step: 1,
            })
            .unwrap();
        let macs = s
            .instrs()
            .iter()
            .filter(|i| i.kernel == Kernel::Ewmm && i.hbm_bytes > 0)
            .count();
        assert_eq!(macs, 3);
    }

    #[test]
    fn pbs_iter_chunk_preserves_work_and_traffic() {
        let exact = compiler(Packing::TvlpPlp);
        let coarse = Compiler::new(
            ckks_params("C2"),
            tfhe_params("T1"),
            CompileOptions {
                pbs_iter_chunk: 8,
                ..CompileOptions::default()
            },
        );
        let op = TraceOp::TfhePbs { batch: 4 };
        let se = exact.try_lower_op(&op).unwrap();
        let sc = coarse.try_lower_op(&op).unwrap();
        // T1 has lwe_dim = 500: 8-chunking cuts 500 quintets to 63.
        let t1 = tfhe_params("T1").unwrap();
        assert_eq!(
            sc.kernel_histogram()[&Kernel::Ntt],
            (t1.lwe_dim as usize).div_ceil(8)
        );
        assert!(sc.len() < se.len() / 6);
        // Total polynomial work and key traffic are invariant.
        let elems = |s: &InstrStream| -> u64 { s.instrs().iter().map(|i| i.shape.elems()).sum() };
        assert_eq!(elems(&se), elems(&sc));
        assert_eq!(se.total_hbm_bytes(), sc.total_hbm_bytes());
    }

    #[test]
    fn pbs_iter_chunk_one_is_identical() {
        let exact = compiler(Packing::TvlpPlp);
        let chunk1 = Compiler::new(
            ckks_params("C2"),
            tfhe_params("T1"),
            CompileOptions {
                pbs_iter_chunk: 1,
                ..CompileOptions::default()
            },
        );
        let op = TraceOp::TfhePbs { batch: 16 };
        assert_eq!(
            exact.try_lower_op(&op).unwrap().instrs(),
            chunk1.try_lower_op(&op).unwrap().instrs()
        );
    }

    #[test]
    fn pbs_has_n_iterations() {
        let c = compiler(Packing::TvlpPlp);
        let s = c.try_lower_op(&TraceOp::TfhePbs { batch: 1 }).unwrap();
        let t1 = tfhe_params("T1").unwrap();
        let h = s.kernel_histogram();
        assert_eq!(h[&Kernel::Ntt], t1.lwe_dim as usize);
        assert_eq!(h[&Kernel::Intt], t1.lwe_dim as usize);
        assert_eq!(h[&Kernel::Decomp], t1.lwe_dim as usize);
    }

    #[test]
    fn tvlp_amortizes_bootstrapping_key() {
        let tv = compiler(Packing::TvlpPlp);
        let co = compiler(Packing::ColpPlp);
        let batch = 32;
        let tv_bytes = tv
            .try_lower_op(&TraceOp::TfhePbs { batch })
            .unwrap()
            .total_hbm_bytes();
        let co_bytes = co
            .try_lower_op(&TraceOp::TfhePbs { batch })
            .unwrap()
            .total_hbm_bytes();
        assert!(
            tv_bytes * 4 < co_bytes,
            "TvLP ({tv_bytes}) must stream far less key data than CoLP ({co_bytes})"
        );
    }

    #[test]
    fn colp_adds_shuffle_passes() {
        let tv = compiler(Packing::TvlpPlp);
        let co = compiler(Packing::ColpPlp);
        let tv_rot = tv
            .try_lower_op(&TraceOp::TfhePbs { batch: 4 })
            .unwrap()
            .kernel_histogram()[&Kernel::Rotate];
        let co_rot = co
            .try_lower_op(&TraceOp::TfhePbs { batch: 4 })
            .unwrap()
            .kernel_histogram()[&Kernel::Rotate];
        assert!(co_rot > tv_rot);
    }

    #[test]
    fn pack_width_respects_lanes() {
        let c = Compiler::new(
            None,
            tfhe_params("T4"), // N = 2^14: only one poly fits
            CompileOptions::default(),
        );
        assert_eq!(c.try_tfhe_pack_width(64).unwrap(), 1);
        let c = Compiler::new(None, tfhe_params("T1"), CompileOptions::default());
        // N = 2^10: 16 polys fit in 16384 lanes.
        assert_eq!(c.try_tfhe_pack_width(64).unwrap(), 16);
    }

    #[test]
    fn full_trace_compiles_with_phases() {
        let mut tr = Trace::new("mix").with_ckks("C1").with_tfhe("T2");
        tr.push(TraceOp::CkksMulCt { level: 10 });
        tr.push(TraceOp::CkksRescale { level: 10 });
        tr.push(TraceOp::Extract {
            level: 0,
            count: 16,
        });
        tr.push(TraceOp::TfhePbs { batch: 16 });
        tr.push(TraceOp::SchemeTransfer { bytes: 1 << 20 });
        let c = Compiler::try_for_trace(&tr, CompileOptions::default()).unwrap();
        let (s, _) = c.try_compile(&tr).unwrap();
        assert!(s.len() > 100);
        assert!(s.instrs().iter().any(|i| i.phase == Phase::SchemeSwitch));
        assert!(s.instrs().iter().any(|i| i.phase == Phase::TfheBlindRotate));
        assert!(s.instrs().iter().any(|i| i.phase == Phase::CkksKeySwitch));
    }

    #[test]
    fn transfer_costs_only_bytes() {
        let c = compiler(Packing::TvlpPlp);
        let s = c
            .try_lower_op(&TraceOp::SchemeTransfer { bytes: 4096 })
            .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_hbm_bytes(), 4096);
        assert_eq!(s.total_modmul_ops(), 0);
    }

    #[test]
    fn unknown_params_are_typed_errors() {
        let tr = Trace::new("bad").with_ckks("C9");
        let err = Compiler::try_for_trace(&tr, CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::Params(_)));
        assert!(err.to_string().contains("C9"));
    }

    #[test]
    fn missing_params_are_typed_errors() {
        let c = Compiler::new(None, None, CompileOptions::default());
        let err = c.try_lower_op(&TraceOp::CkksAdd { level: 3 }).unwrap_err();
        match err {
            CompileError::MissingParams { scheme, op } => {
                assert_eq!(scheme, "CKKS");
                assert!(op.contains("CkksAdd"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        let err = c.try_lower_op(&TraceOp::TfhePbs { batch: 1 }).unwrap_err();
        assert!(matches!(
            err,
            CompileError::MissingParams { scheme: "TFHE", .. }
        ));
    }

    #[test]
    fn compiled_streams_pass_static_verification() {
        use ufc_verify::{verify_stream, VerifyOptions};
        let mut tr = Trace::new("verified").with_ckks("C3").with_tfhe("T3");
        tr.push(TraceOp::CkksMulCt { level: 15 });
        tr.push(TraceOp::Extract { level: 2, count: 8 });
        tr.push(TraceOp::TfhePbs { batch: 8 });
        tr.push(TraceOp::Repack { count: 8, level: 2 });
        let c = Compiler::try_for_trace(&tr, CompileOptions::default()).unwrap();
        let (s, _) = c.try_compile(&tr).unwrap();
        assert!(!s.is_empty());
        let report = verify_stream(&s, &VerifyOptions::default());
        assert!(!report.has_errors(), "{report}");
        assert!(
            !report.has_code("stream/unsynchronized-scheme-crossing"),
            "{report}"
        );
    }
}
