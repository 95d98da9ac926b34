//! The [`StreamingStats`] recorder: an aggregate-only
//! [`SimObserver`] for very long instruction streams.
//!
//! [`crate::Timeline`] keeps one [`crate::InstrRecord`] per
//! instruction, which is the right trade for occupancy plots and
//! critical-path walks but allocates linearly in stream length. The
//! deep boolean workloads (homomorphic SHA-256 compiles to ~10⁵
//! macro-instructions per block) only need the totals, so this
//! observer folds every schedule event into O(#resources) counters
//! as it streams past and stores nothing per instruction.

use ufc_isa::instr::MacroInstr;
use ufc_sim::engine::ALL_RESOURCES;
use ufc_sim::observe::{Binding, InstrSchedule, SimObserver};
use ufc_sim::{InstrCost, Machine, SimReport};

use crate::timeline::{breakdown, StallSummary};

/// Constant-memory aggregate of one simulation run. Attach with
/// `ufc_sim::simulate_with(&machine, &stream, &mut stats)`.
#[derive(Debug, Clone, Default)]
pub struct StreamingStats {
    machine: String,
    instrs: u64,
    makespan: u64,
    dep_stall: u64,
    res_stall_total: u64,
    res_stall: [u64; ALL_RESOURCES.len()],
    busy: [u64; ALL_RESOURCES.len()],
    packed_instrs: u64,
    pack_sum: u64,
    report: Option<SimReport>,
}

impl SimObserver for StreamingStats {
    fn on_begin(&mut self, machine: &dyn Machine, _stream: &ufc_isa::instr::InstrStream) {
        *self = StreamingStats {
            machine: machine.name().to_owned(),
            ..StreamingStats::default()
        };
    }

    fn on_instr(&mut self, sched: &InstrSchedule, instr: &MacroInstr, cost: &InstrCost) {
        self.instrs += 1;
        self.makespan = self.makespan.max(sched.end);
        self.dep_stall += sched.dep_stall;
        self.res_stall_total += sched.res_stall;
        if sched.res_stall > 0 {
            if let Binding::Resource { res, .. } = sched.binding {
                self.res_stall[res as usize] += sched.res_stall;
            }
        }
        for &(r, c) in &cost.demands {
            self.busy[r as usize] += c;
        }
        if instr.pack != u32::MAX {
            self.packed_instrs += 1;
            self.pack_sum += instr.pack as u64;
        }
    }

    fn on_end(&mut self, report: &SimReport) {
        self.report = Some(report.clone());
    }
}

impl StreamingStats {
    /// An empty recorder ready to attach.
    pub fn new() -> Self {
        Self::default()
    }

    /// The machine the run executed on.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// Instructions scheduled.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// The run's makespan in cycles.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// The end-of-run report, when the run completed.
    pub fn report(&self) -> Option<&SimReport> {
        self.report.as_ref()
    }

    /// Aggregate stall attribution, identical in shape to
    /// [`crate::Timeline::stall_summary`] (asserted by this crate's
    /// tests) at constant memory.
    pub fn stall_summary(&self) -> StallSummary {
        StallSummary {
            dep_stall: self.dep_stall,
            res_stall_total: self.res_stall_total,
            res_stall: breakdown(&self.res_stall),
            busy: breakdown(&self.busy),
        }
    }

    /// Mean lane-occupancy cap over the instructions that carried one
    /// (`pack != u32::MAX`); `None` when nothing in the stream was
    /// packed. The TvLP-packing health metric the SHA-256 bench
    /// reports per adder variant.
    pub fn mean_pack(&self) -> Option<f64> {
        (self.packed_instrs > 0).then(|| self.pack_sum as f64 / self.packed_instrs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timeline;
    use ufc_isa::instr::{InstrStream, Kernel, Phase, PolyShape};
    use ufc_sim::machines::UfcMachine;
    use ufc_sim::simulate_with;

    fn sample_stream() -> InstrStream {
        let mut s = InstrStream::new();
        let shape = PolyShape::new(10, 8);
        let a = s.push(Kernel::Ntt, shape, 28, vec![], 0, Phase::CkksEval);
        let b = s.push(Kernel::Ntt, shape, 28, vec![], 0, Phase::CkksEval);
        let c = s.push(
            Kernel::Ewmm,
            shape,
            28,
            vec![a, b],
            1 << 16,
            Phase::CkksEval,
        );
        s.push_packed(
            Kernel::Ntt,
            shape,
            28,
            vec![c],
            0,
            Phase::TfheBlindRotate,
            4,
        );
        s
    }

    #[test]
    fn matches_timeline_aggregates() {
        let machine = UfcMachine::paper_default();
        let stream = sample_stream();
        let mut tl = Timeline::new();
        let mut st = StreamingStats::new();
        let r1 = simulate_with(&machine, &stream, &mut tl);
        let r2 = simulate_with(&machine, &stream, &mut st);
        assert_eq!(r1, r2);
        assert_eq!(st.instrs(), stream.len() as u64);
        assert_eq!(st.makespan(), tl.makespan());
        assert_eq!(st.machine(), tl.machine());
        assert_eq!(st.stall_summary(), tl.stall_summary());
        assert_eq!(st.report(), tl.report());
    }

    #[test]
    fn mean_pack_counts_only_capped_instrs() {
        let machine = UfcMachine::paper_default();
        let stream = sample_stream();
        let mut st = StreamingStats::new();
        simulate_with(&machine, &stream, &mut st);
        // Exactly one packed instruction, cap 4.
        assert_eq!(st.mean_pack(), Some(4.0));

        let mut empty = InstrStream::new();
        empty.push(
            Kernel::Ntt,
            PolyShape::new(10, 1),
            28,
            vec![],
            0,
            Phase::CkksEval,
        );
        let mut st = StreamingStats::new();
        simulate_with(&machine, &empty, &mut st);
        assert_eq!(st.mean_pack(), None);
    }

    #[test]
    fn reattach_resets_state() {
        let machine = UfcMachine::paper_default();
        let stream = sample_stream();
        let mut st = StreamingStats::new();
        simulate_with(&machine, &stream, &mut st);
        let first = st.instrs();
        simulate_with(&machine, &stream, &mut st);
        assert_eq!(st.instrs(), first, "on_begin must reset the counters");
    }
}
