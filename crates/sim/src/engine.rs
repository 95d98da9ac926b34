//! The list-scheduling simulation engine.
//!
//! Each instruction is translated by a machine model into busy cycles
//! on a set of shared resources. The engine issues instructions in
//! stream order, starting each at the earliest cycle allowed by its
//! dependencies and by the FIFO availability of every resource it
//! demands — the classic resource-constrained list schedule. The
//! result is the makespan plus per-resource busy totals (utilization).
//!
//! The per-instruction work is a handful of array reads and writes:
//! resource state (when each unit frees up, its last occupant, its
//! busy total) lives in fixed arrays indexed by [`ResKind`]'s
//! discriminant, phase totals in an array indexed by
//! [`Phase`]'s, and a machine's [`InstrCost`] holds its demands
//! inline. Resource and phase names are looked up only when the
//! [`SimReport`] is built.

use crate::machines::Machine;
use crate::observe::{Binding, InstrSchedule, NullObserver, SimObserver};
use crate::report::SimReport;
use ufc_isa::instr::{InstrStream, Phase};

/// The shared hardware resources a machine can expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub enum ResKind {
    /// Butterfly lanes (NTT/iNTT) — UFC's unified PE lanes or a
    /// baseline's NTT/FFT pipelines.
    Ntt,
    /// Element-wise modular ALU lanes.
    Elew,
    /// Base-conversion MAC units.
    Bconv,
    /// On-chip interconnect (CG-NTT network / all-to-all NoC).
    Noc,
    /// Off-chip memory channels (HBM).
    Hbm,
    /// Near-memory LWE unit (+ HBM-channel crossbar).
    Lweu,
    /// Chip-to-chip PCIe link (composed baseline only).
    Pcie,
    /// Strix's 64-bit FFT pipelines.
    Fft,
    /// Strix's vector MAC / decomposition units.
    Mac,
    /// Strix's own HBM (distinct from SHARP's in the composed system).
    Hbm2,
}

/// All resource kinds, in discriminant order: `ALL_RESOURCES[r as
/// usize] == r`, so the engine and the telemetry observers index
/// per-resource arrays by `r as usize`.
pub const ALL_RESOURCES: [ResKind; 10] = [
    ResKind::Ntt,
    ResKind::Elew,
    ResKind::Bconv,
    ResKind::Noc,
    ResKind::Hbm,
    ResKind::Lweu,
    ResKind::Pcie,
    ResKind::Fft,
    ResKind::Mac,
    ResKind::Hbm2,
];

impl ResKind {
    /// Stable display/serialization name, the one
    /// [`SimReport::utilization`] lists the resource under (equal to
    /// the `Debug` form).
    pub fn name(&self) -> &'static str {
        match self {
            ResKind::Ntt => "Ntt",
            ResKind::Elew => "Elew",
            ResKind::Bconv => "Bconv",
            ResKind::Noc => "Noc",
            ResKind::Hbm => "Hbm",
            ResKind::Lweu => "Lweu",
            ResKind::Pcie => "Pcie",
            ResKind::Fft => "Fft",
            ResKind::Mac => "Mac",
            ResKind::Hbm2 => "Hbm2",
        }
    }
}

/// The largest number of demands one instruction may carry: UFC's
/// transforms and rotations name three resources (lanes, NoC or LWE
/// unit, and HBM when they stream key material); no machine names
/// more.
pub const MAX_DEMANDS: usize = 3;

/// An instruction's `(resource, busy cycles)` demands, held inline
/// (at most [`MAX_DEMANDS`]) so a machine's [`Machine::cost`] makes
/// no heap allocation. Dereferences to `&[(ResKind, u64)]`; every
/// entry has a nonzero cycle count (see [`InstrCost::with`]).
#[derive(Clone, Copy)]
pub struct Demands {
    len: usize,
    items: [(ResKind, u64); MAX_DEMANDS],
}

impl Default for Demands {
    fn default() -> Self {
        Self {
            len: 0,
            items: [(ResKind::Ntt, 0); MAX_DEMANDS],
        }
    }
}

impl std::ops::Deref for Demands {
    type Target = [(ResKind, u64)];

    fn deref(&self) -> &[(ResKind, u64)] {
        &self.items[..self.len]
    }
}

impl<'a> IntoIterator for &'a Demands {
    type Item = &'a (ResKind, u64);
    type IntoIter = std::slice::Iter<'a, (ResKind, u64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for Demands {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Busy-cycle demands and dynamic energy of one instruction.
#[derive(Debug, Clone, Default)]
pub struct InstrCost {
    /// `(resource, busy cycles)` pairs; resources operate in parallel
    /// within the instruction (pipelined), and each serializes across
    /// instructions. Built with [`InstrCost::with`].
    pub demands: Demands,
    /// Dynamic energy in picojoules.
    pub energy_pj: f64,
}

impl InstrCost {
    /// A free instruction (no-op on this machine).
    pub fn free() -> Self {
        Self::default()
    }

    /// Builder: adds a demand; a zero-cycle demand is dropped. At
    /// most [`MAX_DEMANDS`] demands fit (a debug assertion; one more
    /// panics on the bounds check in release builds too).
    pub fn with(mut self, r: ResKind, cycles: u64) -> Self {
        if cycles > 0 {
            let d = &mut self.demands;
            debug_assert!(d.len < MAX_DEMANDS, "more than {MAX_DEMANDS} demands");
            d.items[d.len] = (r, cycles);
            d.len += 1;
        }
        self
    }

    /// Builder: adds dynamic energy.
    pub fn with_energy(mut self, pj: f64) -> Self {
        self.energy_pj += pj;
        self
    }

    /// The instruction's intrinsic latency (max over demands).
    pub fn latency(&self) -> u64 {
        self.demands.iter().map(|&(_, c)| c).max().unwrap_or(0)
    }
}

/// Runs an instruction stream on a machine, producing a report.
///
/// Equivalent to [`simulate_with`] over a [`NullObserver`]; the
/// observer hook monomorphizes away, so this is the overhead-free
/// path DSE sweeps should use.
pub fn simulate(machine: &dyn Machine, stream: &InstrStream) -> SimReport {
    simulate_with(machine, stream, &mut NullObserver)
}

/// Runs an instruction stream on a machine, reporting every schedule
/// decision to `observer` (see [`crate::observe`] for the event
/// semantics). The returned report is byte-identical to
/// [`simulate`]'s regardless of the observer attached.
pub fn simulate_with<O: SimObserver + ?Sized>(
    machine: &dyn Machine,
    stream: &InstrStream,
    observer: &mut O,
) -> SimReport {
    observer.on_begin(machine, stream);
    const NRES: usize = ALL_RESOURCES.len();
    let mut finish = vec![0u64; stream.len()];
    // Cycle each resource frees up, and its last occupant — the
    // `pred` of a resource-bound schedule decision.
    let mut res_free = [0u64; NRES];
    let mut res_writer: [Option<usize>; NRES] = [None; NRES];
    // Every demand is nonzero, so a resource some demand named is
    // exactly one with a nonzero busy total.
    let mut busy = [0u64; NRES];
    // `None` until an instruction of that phase is seen: a phase is
    // listed even when all its instructions took 0 cycles.
    let mut phase_cycles: [Option<u64>; Phase::ALL.len()] = [None; Phase::ALL.len()];
    let mut energy_pj = 0.0f64;
    let mut makespan = 0u64;

    for instr in stream.instrs() {
        let cost = machine.cost(instr);
        let (dep_ready, dep_pred) = instr
            .deps
            .iter()
            .map(|&d| (finish[d], d))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map_or((0, None), |(f, d)| (f, Some(d)));
        let (res_ready, res_pred) = cost
            .demands
            .iter()
            .map(|&(r, _)| (res_free[r as usize], r))
            .max_by(|a, b| a.0.cmp(&b.0))
            .map_or((0, None), |(f, r)| (f, Some(r)));
        // The binding resource's previous occupant — resolved *before*
        // this instruction claims its resources below.
        let res_pred_instr = res_pred.and_then(|r| res_writer[r as usize]);
        let start = dep_ready.max(res_ready);
        let mut end = start;
        for &(r, c) in &cost.demands {
            let r_end = start.saturating_add(c);
            res_free[r as usize] = r_end;
            res_writer[r as usize] = Some(instr.id);
            busy[r as usize] = busy[r as usize].saturating_add(c);
            end = end.max(r_end);
        }
        finish[instr.id] = end;
        makespan = makespan.max(end);
        energy_pj += cost.energy_pj;
        let p = &mut phase_cycles[instr.phase as usize];
        *p = Some(p.unwrap_or(0).saturating_add(end - start));

        // Stall attribution (module docs of `observe`): the start is
        // charged to whichever constraint class was binding. A
        // dependency wins ties — data readiness is the fundamental
        // constraint; the resource merely happened to free up at the
        // same cycle.
        let issue = dep_ready.min(res_ready);
        let sched = InstrSchedule {
            id: instr.id,
            issue,
            dep_ready,
            res_ready,
            start,
            end,
            dep_stall: dep_ready - issue,
            res_stall: res_ready - issue,
            binding: if dep_ready >= res_ready {
                // Even a zero-latency producer is recorded as the
                // binding constraint — the critical-path walk must be
                // able to traverse it (its contribution is just 0).
                match dep_pred {
                    Some(pred) => Binding::Dep { pred },
                    None => Binding::Free,
                }
            } else {
                Binding::Resource {
                    res: res_pred.expect("res_ready > 0 implies a demand"),
                    pred: res_pred_instr.expect("res_ready > 0 implies a previous occupant"),
                }
            },
        };
        observer.on_instr(&sched, instr, &cost);
    }

    let seconds = makespan as f64 / machine.freq_hz();
    let static_j = machine.static_power_w() * seconds;
    let dynamic_j = energy_pj * 1e-12;
    let report = SimReport {
        machine: machine.name().to_string(),
        cycles: makespan,
        seconds,
        energy_j: dynamic_j + static_j,
        dynamic_j,
        static_j,
        area_mm2: machine.area_mm2(),
        utilization: {
            let mut v: Vec<(String, f64)> = ALL_RESOURCES
                .iter()
                .filter(|&&r| busy[r as usize] > 0)
                .map(|&r| {
                    let share = if makespan == 0 {
                        0.0
                    } else {
                        busy[r as usize] as f64 / makespan as f64
                    };
                    (r.name().to_owned(), share)
                })
                .collect();
            // Busiest first; name breaks ties so reports and golden
            // files are stable across runs.
            v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            v
        },
        hbm_bytes: stream.total_hbm_bytes(),
        phase_cycles: {
            let mut v: Vec<(String, u64)> = Phase::ALL
                .iter()
                .filter_map(|&p| phase_cycles[p as usize].map(|c| (p.name().to_owned(), c)))
                .collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            v
        },
    };
    observer.on_end(&report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::Machine;
    use ufc_isa::instr::{InstrStream, Kernel, Phase, PolyShape};

    /// A toy machine: NTT kernels cost 10 cycles on Ntt, everything
    /// else 5 cycles on Elew; 1 pJ per instruction.
    #[derive(Debug)]
    struct Toy;
    impl Machine for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn freq_hz(&self) -> f64 {
            1e9
        }
        fn area_mm2(&self) -> f64 {
            1.0
        }
        fn static_power_w(&self) -> f64 {
            0.0
        }
        fn cost(&self, i: &ufc_isa::instr::MacroInstr) -> InstrCost {
            match i.kernel {
                Kernel::Ntt => InstrCost::free().with(ResKind::Ntt, 10).with_energy(1.0),
                Kernel::Load => InstrCost::free(),
                _ => InstrCost::free().with(ResKind::Elew, 5).with_energy(1.0),
            }
        }
    }

    fn shape() -> PolyShape {
        PolyShape::new(10, 1)
    }

    #[test]
    fn independent_instrs_overlap_across_resources() {
        let mut s = InstrStream::new();
        s.push(Kernel::Ntt, shape(), 32, vec![], 0, Phase::Other);
        s.push(Kernel::Ewma, shape(), 32, vec![], 0, Phase::Other);
        let r = simulate(&Toy, &s);
        // NTT (10) and EWMA (5) run in parallel on different units.
        assert_eq!(r.cycles, 10);
    }

    #[test]
    fn dependencies_serialize() {
        let mut s = InstrStream::new();
        let a = s.push(Kernel::Ntt, shape(), 32, vec![], 0, Phase::Other);
        s.push(Kernel::Ewma, shape(), 32, vec![a], 0, Phase::Other);
        let r = simulate(&Toy, &s);
        assert_eq!(r.cycles, 15);
    }

    #[test]
    fn same_resource_serializes() {
        let mut s = InstrStream::new();
        s.push(Kernel::Ntt, shape(), 32, vec![], 0, Phase::Other);
        s.push(Kernel::Ntt, shape(), 32, vec![], 0, Phase::Other);
        let r = simulate(&Toy, &s);
        assert_eq!(r.cycles, 20);
        let ntt_util = r
            .utilization
            .iter()
            .find(|(k, _)| k == "Ntt")
            .map(|(_, v)| *v)
            .unwrap();
        assert!((ntt_util - 1.0).abs() < 1e-9);
    }

    #[test]
    fn energy_accumulates() {
        let mut s = InstrStream::new();
        for _ in 0..5 {
            s.push(Kernel::Ewma, shape(), 32, vec![], 0, Phase::Other);
        }
        let r = simulate(&Toy, &s);
        assert!((r.dynamic_j - 5e-12).abs() < 1e-18);
    }

    #[test]
    fn all_resources_are_in_discriminant_order() {
        for (i, r) in ALL_RESOURCES.iter().enumerate() {
            assert_eq!(*r as usize, i, "{r:?}");
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "{p:?}");
        }
    }

    #[test]
    fn names_equal_debug_forms() {
        for r in ALL_RESOURCES {
            assert_eq!(r.name(), format!("{r:?}"));
        }
        for p in Phase::ALL {
            assert_eq!(p.name(), format!("{p:?}"));
        }
    }

    #[test]
    fn zero_cycle_phase_is_still_listed() {
        let mut s = InstrStream::new();
        s.push(Kernel::Ntt, shape(), 32, vec![], 0, Phase::CkksEval);
        s.push(Kernel::Load, shape(), 32, vec![], 0, Phase::TfheKeySwitch);
        let r = simulate(&Toy, &s);
        assert_eq!(
            r.phase_cycles,
            vec![("CkksEval".to_owned(), 10), ("TfheKeySwitch".to_owned(), 0)]
        );
        // The free Load names no resource, so only Ntt is listed.
        assert_eq!(r.utilization, vec![("Ntt".to_owned(), 1.0)]);
    }

    #[test]
    fn demands_hold_up_to_the_capacity_inline() {
        let c = InstrCost::free()
            .with(ResKind::Ntt, 3)
            .with(ResKind::Elew, 0)
            .with(ResKind::Noc, 7)
            .with(ResKind::Hbm, 5);
        assert_eq!(
            *c.demands,
            [(ResKind::Ntt, 3), (ResKind::Noc, 7), (ResKind::Hbm, 5)]
        );
        assert_eq!(c.latency(), 7);
        assert_eq!(format!("{:?}", c.demands), "[(Ntt, 3), (Noc, 7), (Hbm, 5)]");
    }

    #[test]
    #[should_panic]
    fn demands_beyond_the_capacity_panic() {
        let _ = InstrCost::free()
            .with(ResKind::Ntt, 1)
            .with(ResKind::Noc, 1)
            .with(ResKind::Hbm, 1)
            .with(ResKind::Elew, 1);
    }

    #[test]
    fn empty_stream_is_zero() {
        let r = simulate(&Toy, &InstrStream::new());
        assert_eq!(r.cycles, 0);
        assert_eq!(r.energy_j, 0.0);
    }
}
