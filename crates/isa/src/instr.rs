//! Hardware macro-instructions — the compiler's output and the
//! simulator's input.
//!
//! Each [`MacroInstr`] applies one primitive kernel (Table I of the
//! paper) to a batch of polynomial limbs. Machine models translate a
//! kernel + shape into per-resource busy cycles; the same stream is
//! fed to UFC and to the baseline models so comparisons are fair
//! ("the unified simulation framework makes a fair comparison", §VI-C).

/// The primitive kernels of Table I plus memory movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Forward NTT (butterflies + all-to-all shuffle).
    Ntt,
    /// Inverse NTT.
    Intt,
    /// Element-wise modular multiplication.
    Ewmm,
    /// Element-wise modular addition/subtraction.
    Ewma,
    /// Automorphism (negate + all-to-all shuffle; UFC lowers it onto
    /// the NTT network per §IV-C2).
    Auto,
    /// Negacyclic coefficient rotation (TFHE blind-rotate step; UFC
    /// lowers it to an evaluation-form multiply per §IV-C3).
    Rotate,
    /// LWE extraction from an RLWE ciphertext (near-memory LWEU work).
    Extract,
    /// Gadget/digit decomposition (bit masking).
    Decomp,
    /// Vector reduction of LWE partial products (LWEU work).
    Redc,
    /// Base-conversion multiply-accumulate pass (one input limb into
    /// one output limb).
    BconvMac,
    /// Stream data in from HBM (keys, spilled ciphertexts).
    Load,
    /// Stream data out to HBM.
    Store,
    /// Chip-to-chip PCIe transfer (composed baseline only).
    Transfer,
    /// Ordering point: completes once every dependency has, holds no
    /// data and costs nothing on every machine. The compiler puts one
    /// at each scheme crossing, so the next block waits for every
    /// earlier exit without those edges counting as data uses.
    Barrier,
}

impl Kernel {
    /// Every kernel, for exhaustive iteration.
    pub const ALL: [Kernel; 14] = [
        Kernel::Ntt,
        Kernel::Intt,
        Kernel::Ewmm,
        Kernel::Ewma,
        Kernel::Auto,
        Kernel::Rotate,
        Kernel::Extract,
        Kernel::Decomp,
        Kernel::Redc,
        Kernel::BconvMac,
        Kernel::Load,
        Kernel::Store,
        Kernel::Transfer,
        Kernel::Barrier,
    ];

    /// Stable display/serialization name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Ntt => "Ntt",
            Kernel::Intt => "Intt",
            Kernel::Ewmm => "Ewmm",
            Kernel::Ewma => "Ewma",
            Kernel::Auto => "Auto",
            Kernel::Rotate => "Rotate",
            Kernel::Extract => "Extract",
            Kernel::Decomp => "Decomp",
            Kernel::Redc => "Redc",
            Kernel::BconvMac => "BconvMac",
            Kernel::Load => "Load",
            Kernel::Store => "Store",
            Kernel::Transfer => "Transfer",
            Kernel::Barrier => "Barrier",
        }
    }

    /// Inverse of [`Kernel::name`].
    pub fn parse(s: &str) -> Option<Kernel> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Which program phase an instruction belongs to, for utilization and
/// breakdown reporting (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// CKKS element-wise evaluation (add/mul/rescale).
    CkksEval,
    /// CKKS key switching (BConv-heavy).
    CkksKeySwitch,
    /// CKKS bootstrapping pipeline.
    CkksBootstrap,
    /// TFHE blind rotation (external products).
    TfheBlindRotate,
    /// TFHE LWE key switching.
    TfheKeySwitch,
    /// Scheme-switching (extract / repack).
    SchemeSwitch,
    /// Anything else.
    Other,
}

impl Phase {
    /// Every phase, for exhaustive iteration.
    pub const ALL: [Phase; 7] = [
        Phase::CkksEval,
        Phase::CkksKeySwitch,
        Phase::CkksBootstrap,
        Phase::TfheBlindRotate,
        Phase::TfheKeySwitch,
        Phase::SchemeSwitch,
        Phase::Other,
    ];

    /// Stable display/serialization name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::CkksEval => "CkksEval",
            Phase::CkksKeySwitch => "CkksKeySwitch",
            Phase::CkksBootstrap => "CkksBootstrap",
            Phase::TfheBlindRotate => "TfheBlindRotate",
            Phase::TfheKeySwitch => "TfheKeySwitch",
            Phase::SchemeSwitch => "SchemeSwitch",
            Phase::Other => "Other",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn parse(s: &str) -> Option<Phase> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Largest `log_n` a [`PolyShape`] may carry. With `count` a `u32`,
/// [`PolyShape::elems`] then always fits in a `u64`; the text parser
/// rejects anything larger.
pub const MAX_LOG_N: u32 = 32;

/// Shape of the data an instruction processes: `count` polynomials of
/// degree `2^log_n` each (`log_n` at most [`MAX_LOG_N`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolyShape {
    /// log2 of the polynomial degree.
    pub log_n: u32,
    /// Number of polynomials in the batch.
    pub count: u32,
}

impl PolyShape {
    /// Creates a shape.
    pub fn new(log_n: u32, count: u32) -> Self {
        Self { log_n, count }
    }

    /// Polynomial degree `N`.
    pub fn n(&self) -> u64 {
        1 << self.log_n
    }

    /// Total elements in the batch.
    pub fn elems(&self) -> u64 {
        self.n() * self.count as u64
    }
}

/// One hardware macro-instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroInstr {
    /// Position in the stream (also the dependency handle).
    pub id: usize,
    /// The kernel to execute.
    pub kernel: Kernel,
    /// Data shape.
    pub shape: PolyShape,
    /// Word size in bits (32 for TFHE torus words, 36 for CKKS limbs).
    pub word_bits: u32,
    /// Instruction ids that must complete first.
    pub deps: Vec<usize>,
    /// Off-chip bytes this instruction must stream from HBM (key
    /// material, operands not resident on chip).
    pub hbm_bytes: u64,
    /// Program phase, for reporting.
    pub phase: Phase,
    /// Lane-occupancy cap: at most this many of the batch's
    /// polynomials may be processed in parallel (set by the packing
    /// strategy, §V-A/B; `u32::MAX` = no cap).
    pub pack: u32,
}

impl MacroInstr {
    /// Modular-multiplication work (in scalar multiplies) this
    /// instruction performs — the basis of the dynamic-energy model.
    /// Saturates at `u64::MAX` for the widest parseable shapes.
    pub fn modmul_ops(&self) -> u64 {
        let elems = self.shape.elems();
        match self.kernel {
            Kernel::Ntt | Kernel::Intt => (elems / 2).saturating_mul(self.shape.log_n as u64),
            Kernel::Ewmm | Kernel::BconvMac => elems,
            Kernel::Ewma => 0,
            Kernel::Auto => 0,
            Kernel::Rotate => 0,
            Kernel::Extract | Kernel::Redc => 0,
            Kernel::Decomp => 0,
            Kernel::Load | Kernel::Store | Kernel::Transfer | Kernel::Barrier => 0,
        }
    }

    /// Scratchpad bytes this instruction's result occupies while
    /// live: `elems` words of the instruction's word size (36-bit
    /// limbs in 8-byte words, matching `CkksParams::ciphertext_bytes`;
    /// 32-bit torus words in 4; opaque 8-bit payloads byte for byte;
    /// any other size conservatively in 8). Saturates at `u64::MAX`.
    pub fn output_bytes(&self) -> u64 {
        match self.kernel {
            // Store drains to HBM, Transfer is a chip-to-chip hop and
            // a barrier holds no data: nothing stays resident.
            Kernel::Store | Kernel::Transfer | Kernel::Barrier => 0,
            // A BConv shape counts MAC passes (input limbs × output
            // limbs), not resident polynomials; its result is bounded
            // by — and charged to — the consumer that reads it.
            Kernel::BconvMac => 0,
            _ => {
                let word_bytes = match self.word_bits {
                    32 => 4,
                    8 => 1,
                    _ => 8,
                };
                self.shape.elems().saturating_mul(word_bytes)
            }
        }
    }

    /// Total elements touched (for ALU occupancy of non-multiply
    /// kernels).
    pub fn elems(&self) -> u64 {
        self.shape.elems()
    }
}

/// The peak of [`InstrStream::scratchpad_high_water`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HighWater {
    /// Most live result bytes at any position (saturating).
    pub bytes: u64,
    /// The first position where the live bytes reached `bytes`.
    pub at: usize,
}

/// An ordered instruction stream forming a DAG via `deps`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstrStream {
    instrs: Vec<MacroInstr>,
}

impl InstrStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an instruction, assigning its id. Returns the id.
    ///
    /// # Panics
    ///
    /// Panics if any dependency refers to a not-yet-emitted
    /// instruction (the stream must be topologically ordered).
    pub fn push(
        &mut self,
        kernel: Kernel,
        shape: PolyShape,
        word_bits: u32,
        deps: Vec<usize>,
        hbm_bytes: u64,
        phase: Phase,
    ) -> usize {
        let id = self.instrs.len();
        for &d in &deps {
            assert!(d < id, "dependency {d} not yet emitted (id {id})");
        }
        self.instrs.push(MacroInstr {
            id,
            kernel,
            shape,
            word_bits,
            deps,
            hbm_bytes,
            phase,
            pack: u32::MAX,
        });
        id
    }

    /// Like [`InstrStream::push`] but with an explicit lane-occupancy
    /// cap (the packing width of §V-A/B).
    #[allow(clippy::too_many_arguments)]
    pub fn push_packed(
        &mut self,
        kernel: Kernel,
        shape: PolyShape,
        word_bits: u32,
        deps: Vec<usize>,
        hbm_bytes: u64,
        phase: Phase,
        pack: u32,
    ) -> usize {
        let id = self.push(kernel, shape, word_bits, deps, hbm_bytes, phase);
        self.instrs[id].pack = pack.max(1);
        id
    }

    /// Builds a stream directly from raw instructions **without**
    /// validating ids or dependency order. Exists for
    /// deserialization ([`crate::serial`]): on-disk streams may be
    /// malformed on purpose (verifier fixtures), and diagnosing them
    /// is `ufc-verify`'s job. Everything else should use
    /// [`InstrStream::push`].
    pub fn from_raw(instrs: Vec<MacroInstr>) -> Self {
        Self { instrs }
    }

    /// The instructions, in issue order.
    pub fn instrs(&self) -> &[MacroInstr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Appends all instructions of `other`, remapping ids and adding
    /// `extra_deps` to every instruction of `other` that had no
    /// in-stream dependencies (sequencing two lowered ops). Returns
    /// the ids of `other`'s exit nodes (instructions nothing in
    /// `other` depended on).
    pub fn append(&mut self, other: InstrStream, extra_deps: &[usize]) -> Vec<usize> {
        let base = self.instrs.len();
        let mut has_dependents = vec![false; other.instrs.len()];
        for ins in &other.instrs {
            for &d in &ins.deps {
                has_dependents[d] = true;
            }
        }
        let mut exits = Vec::new();
        for mut ins in other.instrs {
            let old_id = ins.id;
            ins.id += base;
            for d in &mut ins.deps {
                *d += base;
            }
            if ins.deps.is_empty() {
                ins.deps.extend_from_slice(extra_deps);
            }
            if !has_dependents[old_id] {
                exits.push(ins.id);
            }
            self.instrs.push(ins);
        }
        exits
    }

    /// Total HBM traffic of the stream in bytes.
    pub fn total_hbm_bytes(&self) -> u64 {
        self.instrs
            .iter()
            .fold(0, |acc, i| acc.saturating_add(i.hbm_bytes))
    }

    /// Total modular-multiply work.
    pub fn total_modmul_ops(&self) -> u64 {
        self.instrs
            .iter()
            .fold(0, |acc, i| acc.saturating_add(i.modmul_ops()))
    }

    /// The scratchpad working set of the stream: a liveness sweep in
    /// issue order. Each result ([`MacroInstr::output_bytes`]) is live
    /// from its own position to its last data use, the last
    /// instruction naming it in `deps`. A [`Kernel::Barrier`] orders
    /// but reads nothing, so its deps do not extend a result's life.
    /// The peak is a bound any allocator must meet: above the
    /// scratchpad capacity, no spill-free schedule of this stream
    /// exists.
    ///
    /// One pass over the edges and one over the instructions. Edges
    /// that are not backward and in range are skipped, so a malformed
    /// stream still sweeps.
    pub fn scratchpad_high_water(&self) -> HighWater {
        let n = self.instrs.len();
        let mut last_use: Vec<usize> = (0..n).collect();
        for (pos, ins) in self.instrs.iter().enumerate() {
            if ins.kernel == Kernel::Barrier {
                continue;
            }
            for &d in ins.deps.iter().filter(|&&d| d < pos) {
                last_use[d] = last_use[d].max(pos);
            }
        }
        // Bytes that die after each position executes.
        let mut dying = vec![0u64; n];
        let mut live = 0u64;
        let mut peak = HighWater::default();
        for (pos, ins) in self.instrs.iter().enumerate() {
            let bytes = ins.output_bytes();
            let death = &mut dying[last_use[pos]];
            *death = death.saturating_add(bytes);
            live = live.saturating_add(bytes);
            if live > peak.bytes {
                peak = HighWater {
                    bytes: live,
                    at: pos,
                };
            }
            // Once the sum has saturated it undercounts, so the deaths
            // may take more than is left.
            live = live.saturating_sub(dying[pos]);
        }
        peak
    }

    /// Counts instructions per kernel.
    pub fn kernel_histogram(&self) -> std::collections::HashMap<Kernel, usize> {
        let mut h = std::collections::HashMap::new();
        for i in &self.instrs {
            *h.entry(i.kernel).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> PolyShape {
        PolyShape::new(10, 4)
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut s = InstrStream::new();
        let a = s.push(Kernel::Ntt, shape(), 32, vec![], 0, Phase::Other);
        let b = s.push(Kernel::Ewmm, shape(), 32, vec![a], 0, Phase::Other);
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.instrs()[1].deps, vec![0]);
    }

    #[test]
    #[should_panic(expected = "not yet emitted")]
    fn forward_dependency_rejected() {
        let mut s = InstrStream::new();
        s.push(Kernel::Ntt, shape(), 32, vec![5], 0, Phase::Other);
    }

    #[test]
    fn ntt_work_formula() {
        let i = MacroInstr {
            id: 0,
            kernel: Kernel::Ntt,
            shape: PolyShape::new(10, 2),
            word_bits: 32,
            deps: vec![],
            hbm_bytes: 0,
            phase: Phase::Other,
            pack: u32::MAX,
        };
        // 2 polys * (1024/2) * 10 butterflies, 1 mul each.
        assert_eq!(i.modmul_ops(), 2 * 512 * 10);
        assert_eq!(i.elems(), 2048);
    }

    #[test]
    fn append_remaps_and_links() {
        let mut a = InstrStream::new();
        let root = a.push(Kernel::Load, shape(), 32, vec![], 1024, Phase::Other);
        let mut b = InstrStream::new();
        let x = b.push(Kernel::Ntt, shape(), 32, vec![], 0, Phase::Other);
        b.push(Kernel::Ewmm, shape(), 32, vec![x], 0, Phase::Other);
        let exits = a.append(b, &[root]);
        assert_eq!(a.len(), 3);
        // The NTT (now id 1) picked up the Load as a dep.
        assert_eq!(a.instrs()[1].deps, vec![0]);
        // The EWMM kept its internal dep, remapped.
        assert_eq!(a.instrs()[2].deps, vec![1]);
        // Only the EWMM is an exit.
        assert_eq!(exits, vec![2]);
    }

    #[test]
    fn histogram_and_totals() {
        let mut s = InstrStream::new();
        s.push(Kernel::Ntt, shape(), 32, vec![], 100, Phase::Other);
        s.push(Kernel::Ntt, shape(), 32, vec![], 0, Phase::Other);
        s.push(Kernel::Ewma, shape(), 32, vec![], 28, Phase::Other);
        assert_eq!(s.total_hbm_bytes(), 128);
        assert_eq!(s.kernel_histogram()[&Kernel::Ntt], 2);
        assert!(s.total_modmul_ops() > 0);
    }

    #[test]
    fn high_water_frees_results_after_their_last_use() {
        // Two 32 KiB results; the second is read only by the third
        // instruction, so the first dies before the third runs.
        let mut s = InstrStream::new();
        let a = s.push(Kernel::Ntt, shape(), 36, vec![], 0, Phase::CkksEval);
        let b = s.push(Kernel::Ntt, shape(), 36, vec![a], 0, Phase::CkksEval);
        s.push(Kernel::Ewmm, shape(), 36, vec![b], 0, Phase::CkksEval);
        let one = shape().elems() * 8;
        assert_eq!(
            s.scratchpad_high_water(),
            HighWater {
                bytes: 2 * one,
                at: 1
            }
        );
        assert_eq!(
            InstrStream::new().scratchpad_high_water(),
            HighWater::default()
        );
    }

    #[test]
    fn barrier_deps_do_not_extend_a_result_life() {
        let big = PolyShape::new(16, 64);
        let one = big.elems() * 8;
        let mut s = InstrStream::new();
        let exit = s.push(Kernel::Ntt, big, 36, vec![], 0, Phase::CkksEval);
        let bar = s.push(
            Kernel::Barrier,
            PolyShape::new(0, 1),
            36,
            vec![exit],
            0,
            Phase::CkksBootstrap,
        );
        s.push(Kernel::Intt, big, 36, vec![bar], 0, Phase::CkksBootstrap);
        // The exit dies at its own position: only one buffer is ever live.
        let ordered = s.scratchpad_high_water();
        assert_eq!(ordered.bytes, one);
        assert_eq!(s.instrs()[bar].output_bytes(), 0);

        // A data edge across the barrier keeps the exit live.
        let mut t = s.clone();
        let drain = PolyShape::new(16, 128);
        t.push(Kernel::Store, drain, 36, vec![exit, 2], 1, Phase::Other);
        assert_eq!(
            t.scratchpad_high_water(),
            HighWater {
                bytes: 2 * one,
                at: 2
            }
        );
    }

    #[test]
    fn high_water_skips_malformed_edges() {
        let mut forward = MacroInstr {
            id: 0,
            kernel: Kernel::Ntt,
            shape: shape(),
            word_bits: 36,
            deps: vec![1, 99],
            hbm_bytes: 0,
            phase: Phase::Other,
            pack: u32::MAX,
        };
        let s = InstrStream::from_raw(vec![forward.clone(), {
            forward.id = 1;
            forward.deps = vec![];
            forward
        }]);
        assert_eq!(s.scratchpad_high_water().bytes, shape().elems() * 8);
    }
}
