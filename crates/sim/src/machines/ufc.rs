//! The UFC machine model (Table II configuration + DSE knobs).

use super::{cdiv, Machine};
use crate::engine::{InstrCost, ResKind};
use ufc_isa::instr::{Kernel, MacroInstr};

/// Architectural configuration of UFC — defaults are the paper's
/// Table II; every field is a DSE knob (§VII-E).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UfcConfig {
    /// Number of processing elements (8×8 array).
    pub pes: u32,
    /// Butterfly ALUs per PE (each consumes 2 words per cycle).
    pub butterfly_per_pe: u32,
    /// Modular add/mul lanes per PE.
    pub alu_per_pe: u32,
    /// Scratchpad capacity in MiB (64 × 4 MiB by default).
    pub scratchpad_mib: u32,
    /// Number of separate CG-NTT networks (1 = one global network,
    /// the paper's choice; Fig. 13 explores 2 and 4).
    pub cg_networks: u32,
    /// Off-chip bandwidth in bytes per cycle (1 TB/s at 1 GHz).
    pub hbm_bytes_per_cycle: u32,
    /// Extra HBM traffic fraction from scratchpad spills (set by the
    /// driver from the workload working-set model, §V-C).
    pub spill_fraction: f64,
    /// Ablation (§IV-C2/C3): instead of routing automorphisms and
    /// rotations through the NTT network, add a dedicated all-to-all
    /// permutation network. Faster permutations, but the wiring adds
    /// substantial area — the trade-off the paper's co-design avoids.
    pub dedicated_permutation_network: bool,
}

impl Default for UfcConfig {
    fn default() -> Self {
        Self {
            pes: 64,
            butterfly_per_pe: 128,
            alu_per_pe: 256,
            scratchpad_mib: 256,
            cg_networks: 1,
            hbm_bytes_per_cycle: 1024,
            spill_fraction: 0.0,
            dedicated_permutation_network: false,
        }
    }
}

impl UfcConfig {
    /// Total butterfly lanes (words/cycle of NTT dataflow =
    /// `2 × butterflies`).
    pub fn ntt_words_per_cycle(&self) -> u64 {
        2 * self.pes as u64 * self.butterfly_per_pe as u64
    }

    /// Total element-wise lanes (words/cycle for EWMM/EWMA/BConv —
    /// the versatile PE shares them, §VII-C).
    pub fn elew_words_per_cycle(&self) -> u64 {
        self.pes as u64 * self.alu_per_pe as u64
    }

    /// Area model calibrated to the paper's 197.7 mm² at the default
    /// configuration (Fig. 9 breakdown).
    pub fn area_breakdown(&self) -> UfcArea {
        let lane_scale = (self.pes as f64 * self.butterfly_per_pe as f64) / (64.0 * 128.0);
        let alu_scale = (self.pes as f64 * self.alu_per_pe as f64) / (64.0 * 256.0);
        let pe_array = 52.0 * lane_scale + 28.0 * alu_scale + 10.0; // ALUs + RFs
                                                                    // One global network is the most wiring; splitting into G
                                                                    // networks shrinks the long wires but adds the inter-network
                                                                    // crossbar.
        let g = self.cg_networks as f64;
        let interconnect = 58.0 * lane_scale / g.powf(0.25) + 2.0 * (g - 1.0);
        let scratchpad = 0.137 * self.scratchpad_mib as f64;
        let lweu = 5.0;
        let hbm_phy = 8.0;
        // An all-to-all permutation network across 16k lanes is what
        // the CG-NTT co-design avoids; charging it restores roughly
        // the cost the paper's §IV-C1 experiments observed.
        let interconnect = if self.dedicated_permutation_network {
            interconnect + 45.0 * lane_scale
        } else {
            interconnect
        };
        UfcArea {
            pe_array,
            interconnect,
            scratchpad,
            lweu,
            hbm_phy,
        }
    }
}

/// Area breakdown in mm² (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UfcArea {
    /// Butterfly + modular ALUs + register files.
    pub pe_array: f64,
    /// CG-NTT network + global interconnect.
    pub interconnect: f64,
    /// 64 × 4 MiB scratchpads.
    pub scratchpad: f64,
    /// Near-memory LWE unit + HBM crossbar.
    pub lweu: f64,
    /// HBM3 PHYs + misc.
    pub hbm_phy: f64,
}

impl UfcArea {
    /// Total area.
    pub fn total(&self) -> f64 {
        self.pe_array + self.interconnect + self.scratchpad + self.lweu + self.hbm_phy
    }
}

/// The UFC performance/energy model.
#[derive(Debug, Clone)]
pub struct UfcMachine {
    cfg: UfcConfig,
    name: String,
}

// Energy constants (pJ), calibrated so the Table II configuration
// lands near the published 76.9 W under the measured utilizations.
const E_MUL_PJ: f64 = 3.2;
const E_WORD_PJ: f64 = 4.2;
const E_HBM_PJ_PER_BYTE: f64 = 8.0;
const STATIC_W_PER_MM2: f64 = 0.055;
/// SRAM leakage: large scratchpads dominate idle power at 7 nm.
const STATIC_W_PER_SP_MIB: f64 = 0.045;

impl UfcMachine {
    /// Builds the model from a configuration.
    pub fn new(cfg: UfcConfig) -> Self {
        Self {
            name: format!(
                "UFC({}PE,{}lanes,{}MiB,{}net)",
                cfg.pes, cfg.alu_per_pe, cfg.scratchpad_mib, cfg.cg_networks
            ),
            cfg,
        }
    }

    /// The Table II default configuration.
    pub fn paper_default() -> Self {
        Self::new(UfcConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &UfcConfig {
        &self.cfg
    }

    /// NTT cycle count for a shape, including the constant-geometry
    /// inter-network penalty when the polynomial spans multiple
    /// networks (§IV-C1, Fig. 13).
    fn ntt_cycles(&self, instr: &MacroInstr) -> u64 {
        let words = instr.shape.elems();
        let log_n = instr.shape.log_n as u64;
        // The packing strategy caps how many small polynomials may
        // occupy the lanes simultaneously (§V-A).
        let usable = (instr.pack as u64)
            .saturating_mul(instr.shape.n())
            .min(self.cfg.ntt_words_per_cycle());
        let tput = usable.max(1);
        let base = cdiv(words.saturating_mul(log_n), tput);
        if self.cfg.cg_networks > 1 {
            let per_network_words = self.cfg.ntt_words_per_cycle() / self.cfg.cg_networks as u64;
            if instr.shape.n() > per_network_words {
                // log2(G) of the stages cross the slower inter-network
                // crossbar (≈4× cost each).
                let g_stages = (self.cfg.cg_networks as f64).log2() as u64;
                let per_stage = cdiv(words, tput);
                return base.saturating_add((3 * g_stages).saturating_mul(per_stage));
            }
        }
        base
    }

    /// Fraction of a transform's stages that cross PE boundaries
    /// (x/y shuffles); the rest stay inside a PE.
    fn noc_share(&self, cycles: u64, log_n: u32) -> u64 {
        let inter_pe = (self.cfg.pes as f64).log2();
        let frac = (inter_pe / log_n.max(1) as f64).min(1.0);
        ((cycles as f64) * frac).ceil() as u64
    }

    fn hbm_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let effective = (bytes as f64 * (1.0 + self.cfg.spill_fraction)) as u64;
        cdiv(effective, self.cfg.hbm_bytes_per_cycle as u64)
    }
}

impl Machine for UfcMachine {
    fn name(&self) -> &str {
        &self.name
    }

    fn freq_hz(&self) -> f64 {
        1e9
    }

    fn area_mm2(&self) -> f64 {
        self.cfg.area_breakdown().total()
    }

    fn static_power_w(&self) -> f64 {
        STATIC_W_PER_MM2 * self.area_mm2() + STATIC_W_PER_SP_MIB * self.cfg.scratchpad_mib as f64
    }

    fn cost(&self, i: &MacroInstr) -> InstrCost {
        let elems = i.elems();
        let elew_tput = (i.pack as u64)
            .saturating_mul(i.shape.n())
            .min(self.cfg.elew_words_per_cycle())
            .max(1);
        // Scheme transfers stay on-chip on UFC: no memory traffic.
        let hbm = if i.kernel == Kernel::Transfer {
            0
        } else {
            self.hbm_cycles(i.hbm_bytes)
        };
        let e_hbm = if i.kernel == Kernel::Transfer {
            0.0
        } else {
            i.hbm_bytes as f64 * E_HBM_PJ_PER_BYTE
        };
        let cost = match i.kernel {
            Kernel::Ntt | Kernel::Intt => {
                let c = self.ntt_cycles(i);
                // Only the stages whose shuffle crosses PE boundaries
                // occupy the inter-PE wires: after log2(PEs) perfect
                // shuffles the remaining butterflies are PE-local
                // (rshuffle folds into the datapath, §IV-C1).
                InstrCost::free()
                    .with(ResKind::Ntt, c)
                    .with(ResKind::Noc, self.noc_share(c, i.shape.log_n))
                    .with_energy(i.modmul_ops() as f64 * E_MUL_PJ + elems as f64 * E_WORD_PJ)
            }
            Kernel::Auto => {
                if self.cfg.dedicated_permutation_network {
                    // Ablation: a dedicated all-to-all network routes
                    // the permutation in one pass at full width.
                    let c = cdiv(elems, self.cfg.elew_words_per_cycle());
                    InstrCost::free()
                        .with(ResKind::Noc, c)
                        .with_energy(elems as f64 * 1.5 * E_WORD_PJ)
                } else {
                    // Automorphism-via-NTT (§IV-C2): one extra NTT
                    // with ψ^k plus the iNTT back — two transform
                    // passes on the same lanes, no permutation
                    // network.
                    let c = self.ntt_cycles(i).saturating_mul(2);
                    let muls = elems.saturating_mul(i.shape.log_n as u64);
                    InstrCost::free()
                        .with(ResKind::Ntt, c)
                        .with(ResKind::Noc, self.noc_share(c, i.shape.log_n))
                        .with_energy(muls as f64 * E_MUL_PJ + 2.0 * elems as f64 * E_WORD_PJ)
                }
            }
            Kernel::Ewmm | Kernel::Ewma | Kernel::Decomp => InstrCost::free()
                .with(ResKind::Elew, cdiv(elems, elew_tput))
                .with_energy(i.modmul_ops() as f64 * E_MUL_PJ + elems as f64 * E_WORD_PJ),
            Kernel::BconvMac => InstrCost::free()
                .with(ResKind::Elew, cdiv(elems, elew_tput))
                .with_energy(elems as f64 * (E_MUL_PJ + E_WORD_PJ)),
            Kernel::Rotate => {
                // Rotation-via-multiplication (§IV-C3): an
                // evaluation-form EWMM plus the LWEU dispatching the
                // X^{a_i} factors.
                InstrCost::free()
                    .with(ResKind::Elew, cdiv(elems, elew_tput))
                    .with(ResKind::Lweu, i.shape.count as u64)
                    .with_energy(elems as f64 * (E_MUL_PJ + E_WORD_PJ))
            }
            Kernel::Extract | Kernel::Redc => InstrCost::free()
                .with(ResKind::Lweu, cdiv(elems, 64))
                .with_energy(elems as f64 * E_WORD_PJ),
            Kernel::Load | Kernel::Store => InstrCost::free(),
            // Scheme switching stays on-chip: UFC's unified memory
            // makes the transfer free.
            Kernel::Transfer => InstrCost::free(),
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

    fn instr(kernel: Kernel, log_n: u32, count: u32, hbm: u64) -> MacroInstr {
        MacroInstr {
            id: 0,
            kernel,
            shape: PolyShape::new(log_n, count),
            word_bits: 36,
            deps: vec![],
            hbm_bytes: hbm,
            phase: Phase::Other,
            pack: u32::MAX,
        }
    }

    #[test]
    fn table_iv_ntt_throughput() {
        // One N=2^16 NTT in 64 cycles = 1024 words/cycle (Table IV).
        let m = UfcMachine::paper_default();
        let c = m.cost(&instr(Kernel::Ntt, 16, 1, 0));
        assert_eq!(c.latency(), 64);
    }

    #[test]
    fn table_iv_elew_throughput() {
        // 16384 words/cycle for element-wise ops (Table IV).
        let m = UfcMachine::paper_default();
        let c = m.cost(&instr(Kernel::Ewmm, 16, 4, 0));
        assert_eq!(c.latency(), 4 * 65536 / 16384);
    }

    #[test]
    fn area_matches_paper() {
        let a = UfcConfig::default().area_breakdown();
        assert!(
            (a.total() - 197.7).abs() < 5.0,
            "total area {} should be ≈197.7 mm²",
            a.total()
        );
        // "interconnect takes up a significant part of the chip".
        assert!(a.interconnect > 0.25 * a.total());
    }

    #[test]
    fn automorphism_costs_two_transforms() {
        let m = UfcMachine::paper_default();
        let ntt = m.cost(&instr(Kernel::Ntt, 16, 2, 0)).latency();
        let auto = m.cost(&instr(Kernel::Auto, 16, 2, 0)).latency();
        assert_eq!(auto, 2 * ntt);
    }

    #[test]
    fn split_networks_penalize_large_polys() {
        let one = UfcMachine::new(UfcConfig::default());
        let four = UfcMachine::new(UfcConfig {
            cg_networks: 4,
            ..UfcConfig::default()
        });
        let big = instr(Kernel::Ntt, 16, 1, 0);
        assert!(four.cost(&big).latency() > one.cost(&big).latency());
        // Small polynomials that fit one network pay nothing.
        let small = instr(Kernel::Ntt, 10, 1, 0);
        assert_eq!(four.cost(&small).latency(), one.cost(&small).latency());
    }

    #[test]
    fn spill_inflates_hbm_time() {
        let dry = UfcMachine::new(UfcConfig::default());
        let wet = UfcMachine::new(UfcConfig {
            spill_fraction: 1.0,
            ..UfcConfig::default()
        });
        let i = instr(Kernel::Ewmm, 16, 2, 1 << 20);
        let d = dry.cost(&i);
        let w = wet.cost(&i);
        let hbm = |c: &InstrCost| {
            c.demands
                .iter()
                .find(|(r, _)| *r == ResKind::Hbm)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert_eq!(hbm(&w), 2 * hbm(&d));
    }

    #[test]
    fn transfers_are_free_on_chip() {
        let m = UfcMachine::paper_default();
        let c = m.cost(&instr(Kernel::Transfer, 0, 1, 1 << 30));
        // Only the HBM component of the modeled bytes is charged; no
        // PCIe resource exists on UFC.
        assert!(c.demands.iter().all(|(r, _)| *r != ResKind::Pcie));
    }

    #[test]
    fn more_lanes_more_area() {
        let base = UfcConfig::default().area_breakdown().total();
        let wide = UfcConfig {
            butterfly_per_pe: 256,
            alu_per_pe: 512,
            ..UfcConfig::default()
        }
        .area_breakdown()
        .total();
        assert!(wide > base * 1.3);
    }
}
