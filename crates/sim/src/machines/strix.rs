//! The Strix baseline model (TFHE-specific accelerator, MICRO'23),
//! from its published parameters (§VII-A2/D): 8 clusters, each with a
//! fully-pipelined 14-stage FFT with 4 copies — 1792 butterfly units
//! in total, "4.6× less than UFC" — 64-bit FFT datapaths, and
//! streaming pipelines that only support `log N ≤ 14`.

use super::{cdiv, Machine};
use crate::engine::{InstrCost, ResKind};
use ufc_isa::instr::{Kernel, MacroInstr};

/// Strix performance/energy model (scaled to 7 nm per §VI-D3).
#[derive(Debug, Clone, Default)]
pub struct StrixMachine;

/// Total butterfly units (8 clusters × 4 copies × 14 stages × 4).
pub const STRIX_BUTTERFLIES: u64 = 1792;
/// Pipeline depth the FFT units are built for.
pub const STRIX_FFT_STAGES: u32 = 14;
/// Vector MAC/decomposition throughput (words/cycle).
pub const STRIX_MAC_WPC: u64 = 2048;
/// HBM bandwidth (bytes/cycle at 1 GHz ≈ 460 GB/s).
pub const STRIX_HBM_BPC: u64 = 460;

// 64-bit double-precision FFT butterflies cost roughly twice a 32-bit
// modular multiply (§VII-D).
const E_FFT_PJ: f64 = 6.0;
const E_WORD_PJ: f64 = 3.0;
const E_HBM_PJ_PER_BYTE: f64 = 8.0;

impl StrixMachine {
    /// Creates the model.
    pub fn new() -> Self {
        Self
    }

    /// FFT-unit utilization for a transform of `log_n` (Fig. 2):
    /// `log_n / 14` for supported sizes; 0 above the supported range.
    pub fn fft_utilization(log_n: u32) -> f64 {
        if log_n > STRIX_FFT_STAGES {
            0.0
        } else {
            log_n as f64 / STRIX_FFT_STAGES as f64
        }
    }
}

impl Machine for StrixMachine {
    fn name(&self) -> &str {
        "Strix"
    }

    fn freq_hz(&self) -> f64 {
        1e9
    }

    fn area_mm2(&self) -> f64 {
        41.2 // scaled to 7 nm per [47]
    }

    fn static_power_w(&self) -> f64 {
        5.0
    }

    fn cost(&self, i: &MacroInstr) -> InstrCost {
        let elems = i.elems();
        let hbm = cdiv(i.hbm_bytes, STRIX_HBM_BPC);
        let e_hbm = i.hbm_bytes as f64 * E_HBM_PJ_PER_BYTE;
        let cost = match i.kernel {
            Kernel::Ntt | Kernel::Intt | Kernel::Auto => {
                let log_n = i.shape.log_n;
                // Polynomials beyond logN=14 do not fit the pipelines
                // (§III-B) — model as a crawling 1-butterfly fallback
                // so SIMD-scheme misuse is visible.
                if log_n > STRIX_FFT_STAGES {
                    let c = elems.saturating_mul(log_n as u64) / 2;
                    return InstrCost::free()
                        .with(ResKind::Fft, c)
                        .with_energy(elems as f64 * E_FFT_PJ);
                }
                // Fully-pipelined FFT: butterflies/cycle = 1792 but
                // only logN of the 14 stages do useful work, so the
                // effective rate scales by logN/14.
                let useful = elems.saturating_mul(log_n as u64) / 2;
                let eff = (STRIX_BUTTERFLIES as f64 * Self::fft_utilization(log_n)) as u64;
                let c = cdiv(useful, eff.max(1));
                InstrCost::free()
                    .with(ResKind::Fft, c)
                    .with_energy(useful as f64 * E_FFT_PJ + elems as f64 * E_WORD_PJ)
            }
            Kernel::Ewmm | Kernel::Ewma | Kernel::Decomp | Kernel::BconvMac | Kernel::Rotate => {
                InstrCost::free()
                    .with(ResKind::Mac, cdiv(elems, STRIX_MAC_WPC))
                    .with_energy(elems as f64 * (E_WORD_PJ + 1.0))
            }
            Kernel::Extract | Kernel::Redc => InstrCost::free()
                .with(ResKind::Mac, cdiv(elems, 64))
                .with_energy(elems as f64 * E_WORD_PJ),
            Kernel::Load | Kernel::Store | Kernel::Transfer => InstrCost::free(),
        };
        if hbm > 0 {
            cost.with(ResKind::Hbm2, hbm).with_energy(e_hbm)
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
            word_bits: 32,
            deps: vec![],
            hbm_bytes: 0,
            phase: Phase::Other,
            pack: u32::MAX,
        }
    }

    #[test]
    fn fig2_utilization_curve() {
        assert_eq!(StrixMachine::fft_utilization(14), 1.0);
        assert!((StrixMachine::fft_utilization(10) - 10.0 / 14.0).abs() < 1e-9);
        assert_eq!(StrixMachine::fft_utilization(16), 0.0);
    }

    #[test]
    fn butterfly_ratio_vs_ufc() {
        // Paper: "the total butterfly units in Strix is 1792, which is
        // 4.6× less than that in UFC" (UFC: 64×128 = 8192).
        let ufc_butterflies = 64 * 128;
        let ratio = ufc_butterflies as f64 / STRIX_BUTTERFLIES as f64;
        assert!((ratio - 4.57).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn small_ntt_is_several_times_slower_than_ufc() {
        let s = StrixMachine::new();
        let u = super::super::UfcMachine::paper_default();
        // A packed batch of 16 N=2^10 polynomials (one UFC wave).
        let i = instr(Kernel::Ntt, 10, 16);
        let su = s.cost(&i).latency() as f64;
        let uu = u.cost(&i).latency() as f64;
        let ratio = su / uu;
        assert!(
            (4.0..9.0).contains(&ratio),
            "Strix/UFC NTT ratio = {ratio} (expect ≈6×)"
        );
    }

    #[test]
    fn oversize_polynomials_crawl() {
        let s = StrixMachine::new();
        let supported = s.cost(&instr(Kernel::Ntt, 14, 1)).latency();
        let oversize = s.cost(&instr(Kernel::Ntt, 16, 1)).latency();
        assert!(oversize > 100 * supported);
    }
}
