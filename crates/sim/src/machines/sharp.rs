//! The SHARP baseline model (CKKS-specific accelerator, ISCA'23),
//! built from its published architectural parameters (paper Table IV
//! and §VI-C).
//!
//! SHARP's NTT unit is a multi-stage pipeline sized for `log N = 16`:
//! it streams 1024 words/cycle regardless of the polynomial degree,
//! so transforms of smaller polynomials waste pipeline stages —
//! utilization `log N / 16` (Fig. 2). Element-wise throughput is
//! 2048 w/c and BConv 16384 w/c (Table IV). Following §VI-C, the
//! model assumes a scratchpad large enough to reach the reported
//! function-unit utilizations (no spill term).

use super::{cdiv, Machine};
use crate::engine::{InstrCost, ResKind};
use ufc_isa::instr::{Kernel, MacroInstr};

/// SHARP performance/energy model.
#[derive(Debug, Clone, Default)]
pub struct SharpMachine;

/// Pipeline width the NTTU was designed for.
pub const SHARP_NTT_LOG_N: u32 = 16;
/// NTTU streaming throughput (words/cycle).
pub const SHARP_NTT_WPC: u64 = 1024;
/// Element-wise unit throughput (words/cycle).
pub const SHARP_ELEW_WPC: u64 = 2048;
/// BConv MAC throughput (words/cycle).
pub const SHARP_BCONV_WPC: u64 = 16_384;
/// All-to-all NoC bandwidth (words/cycle).
pub const SHARP_NOC_WPC: u64 = 1024;
/// HBM bandwidth (bytes/cycle at 1 GHz = 1 TB/s).
pub const SHARP_HBM_BPC: u64 = 1024;

// Energy constants: deep pipelines + an all-to-all NoC cost more per
// word moved than UFC's local CG phases.
const E_MUL_PJ: f64 = 4.8;
const E_WORD_PJ: f64 = 9.0;
const E_HBM_PJ_PER_BYTE: f64 = 8.0;

impl SharpMachine {
    /// Creates the model.
    pub fn new() -> Self {
        Self
    }

    /// NTT-unit hardware utilization for a transform of `log_n`
    /// (Fig. 2): the pipeline has 16 butterfly stages, a smaller
    /// transform exercises only `log_n` of them.
    pub fn ntt_utilization(log_n: u32) -> f64 {
        (log_n.min(SHARP_NTT_LOG_N) as f64) / SHARP_NTT_LOG_N as f64
    }
}

impl Machine for SharpMachine {
    fn name(&self) -> &str {
        "SHARP"
    }

    fn freq_hz(&self) -> f64 {
        1e9
    }

    fn area_mm2(&self) -> f64 {
        // 7 nm-scaled; sized so the published UFC-vs-SHARP EDP→EDAP
        // gap (1.5× → 1.6×) carries the area ratio.
        210.9
    }

    fn static_power_w(&self) -> f64 {
        26.0
    }

    fn cost(&self, i: &MacroInstr) -> InstrCost {
        // An ordering point holds no data: it must not reach the HBM
        // charge below, which bills at least one cycle to anything.
        if i.kernel == Kernel::Barrier {
            return InstrCost::free();
        }
        let elems = i.elems();
        let hbm = cdiv(i.hbm_bytes, SHARP_HBM_BPC);
        let e_hbm = i.hbm_bytes as f64 * E_HBM_PJ_PER_BYTE;
        let cost = match i.kernel {
            Kernel::Ntt | Kernel::Intt => {
                // The pipeline streams at 1024 w/c; small polynomials
                // still occupy the full pipe (utilization drop of
                // Fig. 2 shows up as energy per useful op).
                let c = cdiv(elems, SHARP_NTT_WPC);
                let util = Self::ntt_utilization(i.shape.log_n);
                // Form conversions ride the all-to-all NoC (§VII-C:
                // SHARP "exploits all-to-all NoC to transform data
                // between evaluation and coefficient forms"), so the
                // NoC is busy for the transform too and contends with
                // automorphisms.
                InstrCost::free()
                    .with(ResKind::Ntt, c)
                    .with(ResKind::Noc, c)
                    .with_energy(
                        i.modmul_ops() as f64 * E_MUL_PJ
                            + elems as f64 * E_WORD_PJ / util.max(0.25),
                    )
            }
            Kernel::Auto => {
                // Dedicated all-to-all NoC permutation.
                let c = cdiv(elems, SHARP_NOC_WPC);
                InstrCost::free()
                    .with(ResKind::Noc, c)
                    .with_energy(elems as f64 * E_WORD_PJ)
            }
            Kernel::Ewmm | Kernel::Ewma => InstrCost::free()
                .with(ResKind::Elew, cdiv(elems, SHARP_ELEW_WPC))
                .with_energy(i.modmul_ops() as f64 * E_MUL_PJ + elems as f64 * E_WORD_PJ),
            Kernel::BconvMac => InstrCost::free()
                .with(ResKind::Bconv, cdiv(elems, SHARP_BCONV_WPC))
                .with_energy(elems as f64 * (E_MUL_PJ + E_WORD_PJ)),
            // Logic-scheme primitives SHARP lacks hardware for
            // (§III-A: "cannot support … polynomial rotation, bit
            // decomposition"): fall back to a 1-lane slow path so
            // misuse is visible rather than fatal.
            Kernel::Decomp | Kernel::Rotate | Kernel::Extract | Kernel::Redc => InstrCost::free()
                .with(ResKind::Elew, elems)
                .with_energy(elems as f64 * E_WORD_PJ),
            Kernel::Load | Kernel::Store | Kernel::Transfer | Kernel::Barrier => InstrCost::free(),
        };
        if hbm > 0 {
            cost.with(ResKind::Hbm, hbm).with_energy(e_hbm)
        } else {
            cost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_isa::instr::{Phase, PolyShape};

    fn instr(kernel: Kernel, log_n: u32, count: u32) -> MacroInstr {
        MacroInstr {
            id: 0,
            kernel,
            shape: PolyShape::new(log_n, count),
            word_bits: 36,
            deps: vec![],
            hbm_bytes: 0,
            phase: Phase::Other,
            pack: u32::MAX,
        }
    }

    #[test]
    fn fig2_utilization_curve() {
        // 50–75 % for logN 9..12, 100 % at 16.
        assert_eq!(SharpMachine::ntt_utilization(16), 1.0);
        let u9 = SharpMachine::ntt_utilization(9);
        let u12 = SharpMachine::ntt_utilization(12);
        assert!((0.5..0.6).contains(&u9), "u9 = {u9}");
        assert!((0.7..0.8).contains(&u12), "u12 = {u12}");
    }

    #[test]
    fn ntt_matches_ufc_at_full_width() {
        // Table IV: same NTTU throughput as UFC for logN=16.
        let s = SharpMachine::new();
        let c = s.cost(&instr(Kernel::Ntt, 16, 1));
        assert_eq!(c.latency(), 64);
    }

    #[test]
    fn elementwise_is_8x_slower_than_ufc() {
        let s = SharpMachine::new();
        let u = super::super::UfcMachine::paper_default();
        let i = instr(Kernel::Ewmm, 16, 8);
        assert_eq!(s.cost(&i).latency(), 8 * u.cost(&i).latency());
    }

    #[test]
    fn unsupported_kernels_crawl() {
        let s = SharpMachine::new();
        let fast = s.cost(&instr(Kernel::Ewmm, 10, 1)).latency();
        let slow = s.cost(&instr(Kernel::Decomp, 10, 1)).latency();
        assert!(slow > 100 * fast);
    }
}
