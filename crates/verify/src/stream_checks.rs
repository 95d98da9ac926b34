//! Static checks over lowered [`InstrStream`]s.
//!
//! The dependency DAG *is* the dataflow: `deps` name the producers an
//! instruction reads. The checks here prove, without simulating,
//! that the DAG is well-formed (defined-before-use, no forward or
//! dangling edges), that shapes/word sizes/packing are consistent
//! with the kernel and phase that carry them, and that a liveness
//! sweep of producer→last-consumer buffers never exceeds the
//! scratchpad capacity.

use crate::diag::{Location, Report, Severity};
use crate::{Target, VerifyOptions};
use ufc_isa::instr::{InstrStream, Kernel, MacroInstr, Phase};

/// Runs every stream check, returning the merged report.
pub fn check_stream(stream: &InstrStream, opts: &VerifyOptions) -> Report {
    let mut report = Report::new();
    let deps_ok = check_dataflow(stream, &mut report);
    check_shapes(stream, opts, &mut report);
    check_scheme_crossings(stream, &mut report);
    // The liveness sweep walks dependency edges, so it only makes
    // sense on a well-formed DAG.
    if deps_ok {
        check_scratchpad(stream, opts, &mut report);
    }
    report
}

/// `stream/id-mismatch`, `stream/dep-forward`, `stream/dep-out-of-range`,
/// `stream/dep-duplicate`: the stream must be a topologically ordered
/// DAG whose ids equal positions. Returns whether every dependency
/// edge is usable (backward and in range). Public so consumers that
/// index by dependency id (the simulator's callers) can refuse a
/// malformed stream without running the whole verifier.
pub fn check_dataflow(stream: &InstrStream, report: &mut Report) -> bool {
    let len = stream.len();
    let mut ok = true;
    for (pos, ins) in stream.instrs().iter().enumerate() {
        if ins.id != pos {
            report.push(
                Severity::Error,
                "stream/id-mismatch",
                Location::Instr(pos),
                format!("instruction at position {pos} carries id {}", ins.id),
            );
        }
        let mut seen = std::collections::HashSet::new();
        for &d in &ins.deps {
            if d >= len {
                ok = false;
                report.push(
                    Severity::Error,
                    "stream/dep-out-of-range",
                    Location::Instr(pos),
                    format!("dependency {d} does not exist (stream has {len} instrs)"),
                );
            } else if d >= pos {
                ok = false;
                report.push(
                    Severity::Error,
                    "stream/dep-forward",
                    Location::Instr(pos),
                    format!(
                        "dependency {d} is not defined before use (position {pos}); \
                         the stream must be topologically ordered"
                    ),
                );
            }
            if !seen.insert(d) {
                report.push(
                    Severity::Warning,
                    "stream/dep-duplicate",
                    Location::Instr(pos),
                    format!("dependency {d} listed more than once"),
                );
            }
        }
    }
    ok
}

/// Whether this kernel's word size is pinned by its phase. `Transfer`
/// moves opaque bytes (word = 8) regardless of phase.
fn phase_word_bits(ins: &MacroInstr) -> Option<u32> {
    if ins.kernel == Kernel::Transfer {
        return None;
    }
    match ins.phase {
        Phase::CkksEval | Phase::CkksKeySwitch | Phase::CkksBootstrap => Some(36),
        Phase::TfheBlindRotate | Phase::TfheKeySwitch => Some(32),
        Phase::SchemeSwitch | Phase::Other => None,
    }
}

/// Shape/word/pack consistency and per-kernel sanity:
/// `stream/shape-empty`, `stream/word-bits-invalid`,
/// `stream/phase-word-mismatch`, `stream/pack-zero`,
/// `stream/pack-exceeds-count`, `stream/transfer-on-unified`,
/// `stream/transfer-no-bytes`, `stream/load-store-no-bytes`.
fn check_shapes(stream: &InstrStream, opts: &VerifyOptions, report: &mut Report) {
    for (pos, ins) in stream.instrs().iter().enumerate() {
        if ins.shape.count == 0 {
            report.push(
                Severity::Error,
                "stream/shape-empty",
                Location::Instr(pos),
                format!("{:?} over an empty batch (count = 0)", ins.kernel),
            );
        }
        if !matches!(ins.word_bits, 8 | 32 | 36) {
            report.push(
                Severity::Error,
                "stream/word-bits-invalid",
                Location::Instr(pos),
                format!(
                    "word size {} bits; the machine models only know 8 (opaque \
                     bytes), 32 (TFHE torus) and 36 (CKKS limb)",
                    ins.word_bits
                ),
            );
        } else if let Some(expect) = phase_word_bits(ins) {
            if ins.word_bits != expect {
                report.push(
                    Severity::Warning,
                    "stream/phase-word-mismatch",
                    Location::Instr(pos),
                    format!(
                        "{:?} in phase {:?} uses {}-bit words; this phase's \
                         pipeline is {expect}-bit",
                        ins.kernel, ins.phase, ins.word_bits
                    ),
                );
            }
        }
        if ins.pack == 0 {
            report.push(
                Severity::Error,
                "stream/pack-zero",
                Location::Instr(pos),
                "packing cap of 0 lanes can never issue",
            );
        } else if ins.pack != u32::MAX && ins.pack > ins.shape.count {
            report.push(
                Severity::Warning,
                "stream/pack-exceeds-count",
                Location::Instr(pos),
                format!(
                    "packing cap {} exceeds batch count {}; cap is ineffective",
                    ins.pack, ins.shape.count
                ),
            );
        }
        match ins.kernel {
            Kernel::Transfer => {
                if opts.target == Target::Ufc {
                    report.push(
                        Severity::Error,
                        "stream/transfer-on-unified",
                        Location::Instr(pos),
                        "Transfer models the composed baseline's PCIe hop; UFC \
                         keeps scheme switches on-chip",
                    );
                }
                if ins.hbm_bytes == 0 {
                    report.push(
                        Severity::Warning,
                        "stream/transfer-no-bytes",
                        Location::Instr(pos),
                        "Transfer moves 0 bytes",
                    );
                }
            }
            Kernel::Load | Kernel::Store if ins.hbm_bytes == 0 => {
                report.push(
                    Severity::Warning,
                    "stream/load-store-no-bytes",
                    Location::Instr(pos),
                    format!("{:?} streams 0 HBM bytes", ins.kernel),
                );
            }
            _ => {}
        }
    }
}

/// Which scheme pipeline a phase occupies, if it pins one.
fn phase_scheme(phase: Phase) -> Option<&'static str> {
    match phase {
        Phase::CkksEval | Phase::CkksKeySwitch | Phase::CkksBootstrap => Some("CKKS"),
        Phase::TfheBlindRotate | Phase::TfheKeySwitch => Some("TFHE"),
        Phase::SchemeSwitch | Phase::Other => None,
    }
}

/// `stream/unsynchronized-scheme-crossing`: when adjacent instructions
/// hop between the CKKS and TFHE pipelines, the later one must carry
/// at least one dependency, otherwise the machine models are free to
/// overlap the two sides and the scheme switch is not actually
/// sequenced (mirrors the barriers `Compiler::try_compile` in
/// `ufc-compiler` inserts).
fn check_scheme_crossings(stream: &InstrStream, report: &mut Report) {
    let instrs = stream.instrs();
    for pos in 1..instrs.len() {
        let (prev, cur) = (&instrs[pos - 1], &instrs[pos]);
        if let (Some(a), Some(b)) = (phase_scheme(prev.phase), phase_scheme(cur.phase)) {
            if a != b && cur.deps.is_empty() {
                report.push(
                    Severity::Warning,
                    "stream/unsynchronized-scheme-crossing",
                    Location::Instr(pos),
                    format!(
                        "{a}→{b} pipeline crossing with no dependency edge; \
                         the switch is unsequenced"
                    ),
                );
            }
        }
    }
}

/// Bytes one element occupies on the scratchpad for a given word size
/// (36-bit limbs are stored in 8-byte words, matching
/// `CkksParams::ciphertext_bytes`; 32-bit torus words in 4; opaque
/// transfer payloads byte-for-byte).
fn word_bytes(word_bits: u32) -> u64 {
    match word_bits {
        36 => 8,
        32 => 4,
        8 => 1,
        // Invalid word sizes are flagged by `stream/word-bits-invalid`;
        // account conservatively so the sweep still runs.
        _ => 8,
    }
}

/// Scratchpad bytes the result of `ins` occupies while live.
fn output_bytes(ins: &MacroInstr) -> u64 {
    match ins.kernel {
        // Store drains to HBM: nothing stays resident.
        Kernel::Store => 0,
        // Transfer is a chip-to-chip hop, not a scratchpad resident.
        Kernel::Transfer => 0,
        // A BConv shape counts MAC passes (input limbs × output
        // limbs), not resident polynomials; its result is bounded by
        // — and charged to — the consumer that reads it.
        Kernel::BconvMac => 0,
        _ => ins.shape.elems().saturating_mul(word_bytes(ins.word_bits)),
    }
}

/// `stream/scratchpad-overflow`: a liveness sweep. Each instruction's
/// output buffer is live from its position to its last consumer
/// (instructions naming it in `deps`); the running sum of live bytes
/// must stay within the scratchpad capacity. This is an upper bound a
/// real allocator must also satisfy — exceeding it statically means
/// no schedule without spills exists for this stream.
fn check_scratchpad(stream: &InstrStream, opts: &VerifyOptions, report: &mut Report) {
    let capacity = opts.scratchpad_capacity();
    let instrs = stream.instrs();
    let mut last_use: Vec<usize> = (0..instrs.len()).collect();
    for (pos, ins) in instrs.iter().enumerate() {
        for &d in &ins.deps {
            last_use[d] = last_use[d].max(pos);
        }
    }
    let mut live: u64 = 0;
    let mut high_water: u64 = 0;
    let mut high_pos = 0;
    // Buffers that die at position p (after p executes).
    let mut dying: Vec<Vec<u64>> = vec![Vec::new(); instrs.len()];
    for (pos, ins) in instrs.iter().enumerate() {
        dying[last_use[pos]].push(output_bytes(ins));
        live = live.saturating_add(output_bytes(ins));
        if live > high_water {
            high_water = live;
            high_pos = pos;
        }
        for bytes in dying[pos].drain(..) {
            // Once the sum has saturated it undercounts, so a
            // buffer's death may take more than is left.
            live = live.saturating_sub(bytes);
        }
    }
    if high_water > capacity {
        report.push(
            Severity::Error,
            "stream/scratchpad-overflow",
            Location::Instr(high_pos),
            format!(
                "live-buffer high-water mark {high_water} bytes exceeds the \
                 {capacity}-byte scratchpad; no spill-free schedule exists"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_isa::instr::{PolyShape, MAX_LOG_N};

    fn opts() -> VerifyOptions {
        VerifyOptions::default()
    }

    fn instr(id: usize, kernel: Kernel, deps: Vec<usize>) -> MacroInstr {
        MacroInstr {
            id,
            kernel,
            shape: PolyShape::new(10, 4),
            word_bits: 36,
            deps,
            hbm_bytes: if matches!(kernel, Kernel::Load | Kernel::Store | Kernel::Transfer) {
                4096
            } else {
                0
            },
            phase: Phase::CkksEval,
            pack: u32::MAX,
        }
    }

    #[test]
    fn clean_stream_passes() {
        let mut s = InstrStream::new();
        let a = s.push(
            Kernel::Load,
            PolyShape::new(10, 2),
            36,
            vec![],
            1024,
            Phase::CkksEval,
        );
        let b = s.push(
            Kernel::Ntt,
            PolyShape::new(10, 2),
            36,
            vec![a],
            0,
            Phase::CkksEval,
        );
        s.push(
            Kernel::Ewmm,
            PolyShape::new(10, 2),
            36,
            vec![b],
            0,
            Phase::CkksEval,
        );
        assert!(check_stream(&s, &opts()).is_clean());
    }

    #[test]
    fn forward_and_dangling_deps_flagged() {
        let s = InstrStream::from_raw(vec![
            instr(0, Kernel::Ntt, vec![1]),
            instr(1, Kernel::Ewmm, vec![99]),
        ]);
        let r = check_stream(&s, &opts());
        assert!(r.has_code("stream/dep-forward"));
        assert!(r.has_code("stream/dep-out-of-range"));
    }

    #[test]
    fn id_mismatch_flagged() {
        let s = InstrStream::from_raw(vec![instr(7, Kernel::Ntt, vec![])]);
        assert!(check_stream(&s, &opts()).has_code("stream/id-mismatch"));
    }

    #[test]
    fn duplicate_dep_warned() {
        let s = InstrStream::from_raw(vec![
            instr(0, Kernel::Ntt, vec![]),
            instr(1, Kernel::Ewmm, vec![0, 0]),
        ]);
        let r = check_stream(&s, &opts());
        assert!(r.has_code("stream/dep-duplicate"));
        assert!(!r.has_errors());
    }

    #[test]
    fn empty_shape_and_bad_word_flagged() {
        let mut bad = instr(0, Kernel::Ntt, vec![]);
        bad.shape.count = 0;
        bad.word_bits = 17;
        let s = InstrStream::from_raw(vec![bad]);
        let r = check_stream(&s, &opts());
        assert!(r.has_code("stream/shape-empty"));
        assert!(r.has_code("stream/word-bits-invalid"));
    }

    #[test]
    fn phase_word_mismatch_warned() {
        let mut ins = instr(0, Kernel::Ntt, vec![]);
        ins.word_bits = 32; // TFHE words in a CKKS phase.
        let s = InstrStream::from_raw(vec![ins]);
        assert!(check_stream(&s, &opts()).has_code("stream/phase-word-mismatch"));
    }

    #[test]
    fn transfer_exempt_from_phase_word() {
        let mut ins = instr(0, Kernel::Transfer, vec![]);
        ins.word_bits = 8;
        ins.phase = Phase::Other;
        let s = InstrStream::from_raw(vec![ins]);
        assert!(check_stream(&s, &opts()).is_clean());
    }

    #[test]
    fn pack_checks() {
        let mut zero = instr(0, Kernel::Ntt, vec![]);
        zero.pack = 0;
        let mut wide = instr(1, Kernel::Ntt, vec![]);
        wide.pack = 1000; // count is 4.
        let s = InstrStream::from_raw(vec![zero, wide]);
        let r = check_stream(&s, &opts());
        assert!(r.has_code("stream/pack-zero"));
        assert!(r.has_code("stream/pack-exceeds-count"));
    }

    #[test]
    fn transfer_on_unified_is_error() {
        let mut ins = instr(0, Kernel::Transfer, vec![]);
        ins.word_bits = 8;
        ins.phase = Phase::Other;
        let s = InstrStream::from_raw(vec![ins]);
        let ufc = VerifyOptions {
            target: Target::Ufc,
            ..VerifyOptions::default()
        };
        assert!(check_stream(&s, &ufc).has_code("stream/transfer-on-unified"));
        assert!(check_stream(&s, &opts()).is_clean());
    }

    #[test]
    fn zero_byte_movement_warned() {
        let mut ld = instr(0, Kernel::Load, vec![]);
        ld.hbm_bytes = 0;
        let s = InstrStream::from_raw(vec![ld]);
        assert!(check_stream(&s, &opts()).has_code("stream/load-store-no-bytes"));
    }

    #[test]
    fn unsynchronized_crossing_warned() {
        let mut a = instr(0, Kernel::Ntt, vec![]);
        a.phase = Phase::CkksEval;
        let mut b = instr(1, Kernel::Rotate, vec![]);
        b.phase = Phase::TfheBlindRotate;
        b.word_bits = 32;
        let s = InstrStream::from_raw(vec![a.clone(), b.clone()]);
        assert!(check_stream(&s, &opts()).has_code("stream/unsynchronized-scheme-crossing"));

        // Adding the dependency sequences the crossing.
        b.deps = vec![0];
        let s = InstrStream::from_raw(vec![a, b]);
        assert!(check_stream(&s, &opts()).is_clean());
    }

    #[test]
    fn scratchpad_overflow_detected() {
        // One poly batch of 2^16 * 64 limbs at 8 B = 32 MiB per buffer;
        // cap the scratchpad at 16 MiB so a single buffer overflows.
        let tiny = VerifyOptions {
            scratchpad_bytes: Some(16 << 20),
            ..VerifyOptions::default()
        };
        let mut s = InstrStream::new();
        s.push(
            Kernel::Ntt,
            PolyShape::new(16, 64),
            36,
            vec![],
            0,
            Phase::CkksEval,
        );
        assert!(check_stream(&s, &tiny).has_code("stream/scratchpad-overflow"));
        // The default 256 MiB capacity accommodates it.
        assert!(check_stream(&s, &opts()).is_clean());
    }

    #[test]
    fn liveness_frees_dead_buffers() {
        // A long chain of small buffers never accumulates: each dies
        // as soon as its consumer runs.
        let tiny = VerifyOptions {
            scratchpad_bytes: Some(1 << 20),
            ..VerifyOptions::default()
        };
        let mut s = InstrStream::new();
        let mut prev = s.push(
            Kernel::Load,
            PolyShape::new(12, 8),
            36,
            vec![],
            64,
            Phase::CkksEval,
        );
        for _ in 0..100 {
            prev = s.push(
                Kernel::Ewmm,
                PolyShape::new(12, 8),
                36,
                vec![prev],
                0,
                Phase::CkksEval,
            );
        }
        // 2^12 * 8 * 8 B = 256 KiB per buffer, two live at a time.
        assert!(check_stream(&s, &tiny).is_clean());
    }

    #[test]
    fn byte_totals_saturate_on_huge_shapes() {
        // Each buffer's size alone overflows a u64; two of them live at
        // once overflow the running sum too. Both saturate and flag.
        let mut s = InstrStream::new();
        let huge = PolyShape::new(MAX_LOG_N, u32::MAX);
        let a = s.push(Kernel::Ntt, huge, 36, vec![], 0, Phase::CkksEval);
        let b = s.push(Kernel::Ntt, huge, 36, vec![], 0, Phase::CkksEval);
        s.push(Kernel::Ewma, huge, 36, vec![a, b], 0, Phase::CkksEval);
        let r = check_stream(&s, &opts());
        assert!(r.has_code("stream/scratchpad-overflow"), "{r}");
    }
}
