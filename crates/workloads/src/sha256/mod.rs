//! Homomorphic SHA-256: the deepest boolean workload in the repo.
//!
//! SHA-256 as a TFHE gate circuit — message schedule, Ch/Maj/Σ₀/Σ₁/
//! σ₀/σ₁ and the 64 compression rounds, with ROTR/SHR as free wire
//! renumbering — built on the [`crate::gate_circuit`] wire arena and
//! emitted as a levelized [`ufc_isa::Trace`] for the compiler/
//! simulator pipeline. The workload is **its own oracle**: every
//! homomorphic or trace-level run is checked bit-for-bit against the
//! plaintext reference in [`reference`](mod@reference).
//!
//! Two adder families make scheduling depth vs. gate count a
//! measurable experiment ([`AdderKind`]): ripple-carry (fewest gates,
//! O(w) depth per addition — long thin levels the TvLP packer cannot
//! fill) and carry-save + Sklansky parallel-prefix (more gates,
//! O(log w) depth — short wide levels that saturate the lanes).
//!
//! The whole model is parameterized by [`ShaParams`]: word width
//! `w ∈ {8, 16, 32}` bits and `1..=64` rounds. `w = 32, rounds = 64`
//! is exact FIPS 180-4 SHA-256 (pinned against the NIST vectors);
//! reduced configurations shrink the state, block and digest
//! consistently so the host evaluator can run the full encrypt →
//! gate-circuit → decrypt path at test scale, still oracle-checked
//! against the same-config plaintext model.

pub mod circuit;
pub mod host;
pub mod reference;

pub use circuit::compression_circuit;

use ufc_isa::trace::Trace;

/// Adder family used for every multi-bit addition in the circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdderKind {
    /// Ripple-carry: 5 gates per bit per two-operand add, carry chain
    /// of depth ~2 per bit. Minimal gates, maximal depth.
    Ripple,
    /// Carry-save reduction of multi-operand sums to two addends,
    /// then one Sklansky parallel-prefix adder: ~2 + 2·log₂w depth
    /// per add at higher gate count. Minimal depth, maximal
    /// gate-level parallelism.
    Prefix,
}

impl AdderKind {
    /// Both variants, for sweeps.
    pub const ALL: [AdderKind; 2] = [AdderKind::Ripple, AdderKind::Prefix];

    /// Short label for names and benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            AdderKind::Ripple => "ripple",
            AdderKind::Prefix => "prefix",
        }
    }
}

/// The round constants of FIPS 180-4 §4.2.2 (cube-root fractions of
/// the first 64 primes). Reduced widths use the low `w` bits.
pub const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The initial hash value of FIPS 180-4 §5.3.3 (square-root
/// fractions of the first 8 primes). Reduced widths use the low `w`
/// bits.
pub const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Model parameters: word width and round count.
///
/// All FIPS 180-4 structure is kept — 16-word blocks, 8-word state,
/// the same rotation constants (taken mod `w`) — so
/// [`ShaParams::FULL`] is exact SHA-256 and every reduced
/// configuration has a matching plaintext oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShaParams {
    /// Word width in bits: 8, 16, or 32.
    pub word_bits: u32,
    /// Compression rounds per block: 1..=64.
    pub rounds: u32,
}

impl ShaParams {
    /// Exact FIPS 180-4 SHA-256.
    pub const FULL: ShaParams = ShaParams {
        word_bits: 32,
        rounds: 64,
    };

    /// A validated reduced (or full) configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `word_bits ∈ {8, 16, 32}` and `rounds ∈ 1..=64`.
    pub fn new(word_bits: u32, rounds: u32) -> ShaParams {
        assert!(
            matches!(word_bits, 8 | 16 | 32),
            "word_bits must be 8, 16 or 32 (got {word_bits})"
        );
        assert!(
            (1..=64).contains(&rounds),
            "rounds must be in 1..=64 (got {rounds})"
        );
        ShaParams { word_bits, rounds }
    }

    /// Low-`w`-bits mask.
    pub fn mask(&self) -> u32 {
        if self.word_bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.word_bits) - 1
        }
    }

    /// Block size: 16 words = `2w` bytes (64 for full SHA-256).
    pub fn block_bytes(&self) -> usize {
        2 * self.word_bits as usize
    }

    /// Length-field size: the message bit length occupies two words
    /// (8 bytes for full SHA-256).
    pub fn len_bytes(&self) -> usize {
        self.word_bits as usize / 4
    }

    /// Digest size: 8 words = `w` bytes (32 for full SHA-256).
    pub fn digest_bytes(&self) -> usize {
        self.word_bits as usize
    }

    /// Σ₀ rotation amounts (mod `w`).
    pub fn big_sigma0(&self) -> [u32; 3] {
        [2, 13, 22].map(|r| r % self.word_bits)
    }

    /// Σ₁ rotation amounts (mod `w`).
    pub fn big_sigma1(&self) -> [u32; 3] {
        [6, 11, 25].map(|r| r % self.word_bits)
    }

    /// σ₀ rotations and shift (mod `w`).
    pub fn small_sigma0(&self) -> ([u32; 2], u32) {
        (
            [7 % self.word_bits, 18 % self.word_bits],
            3 % self.word_bits,
        )
    }

    /// σ₁ rotations and shift (mod `w`).
    pub fn small_sigma1(&self) -> ([u32; 2], u32) {
        (
            [17 % self.word_bits, 19 % self.word_bits],
            10 % self.word_bits,
        )
    }

    /// Truncated round constant.
    pub fn k(&self, t: usize) -> u32 {
        K[t] & self.mask()
    }

    /// Truncated initial state.
    pub fn h0(&self) -> [u32; 8] {
        H0.map(|h| h & self.mask())
    }
}

/// Emits `blocks` chained compression circuits as one levelized
/// trace (state enters encrypted, so every block shares one circuit
/// shape). This is the trace the acceptance experiment compiles and
/// simulates: per-level PBS batch widths are the TvLP source, and
/// the level count is the bootstrap critical path.
pub fn generate(params: &'static str, p: &ShaParams, adder: AdderKind, blocks: u32) -> Trace {
    let circuit = compression_circuit(p, adder, None);
    let mut tr = Trace::new(format!(
        "SHA256[w{},r{},{}]x{blocks}/{params}",
        p.word_bits,
        p.rounds,
        adder.label()
    ))
    .with_tfhe(params);
    let levels = circuit.levels();
    for _ in 0..blocks {
        for &width in &levels {
            crate::gate_circuit::emit_gate_level(&mut tr, width);
        }
    }
    tr
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_isa::trace::TraceOp;

    #[test]
    fn full_params_are_fips_shapes() {
        let p = ShaParams::FULL;
        assert_eq!(p.block_bytes(), 64);
        assert_eq!(p.len_bytes(), 8);
        assert_eq!(p.digest_bytes(), 32);
        assert_eq!(p.big_sigma0(), [2, 13, 22]);
        assert_eq!(p.small_sigma1(), ([17, 19], 10));
        assert_eq!(p.k(0), 0x428a2f98);
        assert_eq!(p.h0()[0], 0x6a09e667);
    }

    #[test]
    fn reduced_params_truncate_consistently() {
        let p = ShaParams::new(8, 4);
        assert_eq!(p.mask(), 0xff);
        assert_eq!(p.block_bytes(), 16);
        assert_eq!(p.len_bytes(), 2);
        assert_eq!(p.digest_bytes(), 8);
        assert_eq!(p.big_sigma0(), [2, 5, 6]);
        assert_eq!(p.k(1), 0x91); // 0x71374491 & 0xff
    }

    #[test]
    #[should_panic(expected = "word_bits")]
    fn rejects_unsupported_width() {
        let _ = ShaParams::new(12, 4);
    }

    #[test]
    fn trace_repeats_block_levels() {
        let p = ShaParams::new(8, 2);
        let one = generate("T1", &p, AdderKind::Ripple, 1);
        let three = generate("T1", &p, AdderKind::Ripple, 3);
        assert_eq!(three.len(), 3 * one.len());
        assert_eq!(one.tfhe_params, Some("T1"));
        let pbs_gates = |tr: &Trace| -> u32 {
            tr.ops
                .iter()
                .filter_map(|op| match op {
                    TraceOp::TfhePbs { batch } => Some(*batch),
                    _ => None,
                })
                .sum()
        };
        let circuit = compression_circuit(&p, AdderKind::Ripple, None);
        assert_eq!(pbs_gates(&one) as usize, circuit.gate_count());
        assert_eq!(pbs_gates(&three) as usize, 3 * circuit.gate_count());
    }
}
