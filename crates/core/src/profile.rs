//! Profiled runs: the façade's instrumented execution path.
//!
//! [`Ufc::try_run_profiled`] compiles with the same barrier-aware
//! [`ufc_compiler::Compiler::try_compile`] as [`Ufc::run`], but records everything along the way: a
//! full [`Timeline`] of the schedule, the compiler's per-op
//! [`CompileStats`], and a [`MetricsRegistry`] of counters. The
//! simulated report is byte-identical to the uninstrumented path (the
//! observer hook is passive — property-tested in `ufc-sim`).

use crate::runner::{RunError, Ufc};
use ufc_compiler::CompileStats;
use ufc_isa::instr::InstrStream;
use ufc_isa::trace::Trace;
use ufc_sim::machines::Machine;
use ufc_sim::{simulate_with, SimReport};
use ufc_telemetry::{MetricsRegistry, TelemetrySummary, Timeline};

/// Everything recorded by one instrumented run.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The standard simulation report (identical to [`Ufc::run`]).
    pub report: SimReport,
    /// The full schedule recording.
    pub timeline: Timeline,
    /// What the compiler did, per trace op (`None` for pre-compiled
    /// stream inputs, where no trace-level structure exists).
    pub compile_stats: Option<CompileStats>,
}

impl ProfiledRun {
    /// The run condensed into one serializable summary.
    pub fn summary(&self) -> TelemetrySummary {
        self.timeline.summary()
    }

    /// The run's counters: `kernel/<k>/instrs`, `phase/<p>/hbm_bytes`
    /// and `stall/...` from the schedule, plus `compile/op/<name>/...`
    /// from the lowering stats when available.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for rec in self.timeline.records() {
            m.inc(&format!("kernel/{}/instrs", rec.kernel));
            m.add(&format!("phase/{}/hbm_bytes", rec.phase), rec.hbm_bytes);
            m.add("stall/dep_cycles", rec.sched.dep_stall);
            m.add("stall/res_cycles", rec.sched.res_stall);
        }
        if let Some(stats) = &self.compile_stats {
            for kind in stats.by_op_kind() {
                m.add(&format!("compile/op/{}/count", kind.op), kind.count);
                m.add(&format!("compile/op/{}/instrs", kind.op), kind.instrs);
            }
            m.add("compile/spill_events", stats.spills.len() as u64);
            m.add("compile/spill_overflow_bytes", stats.total_spill_overflow());
        }
        m
    }

    /// The recorded run as Chrome-trace JSON for `ui.perfetto.dev`.
    pub fn perfetto_json(&self) -> String {
        ufc_telemetry::perfetto::to_string(&self.timeline)
    }
}

impl Ufc {
    /// Like [`Ufc::run`], but instrumented and fallible: returns the
    /// identical report plus the recorded timeline and compiler
    /// statistics.
    pub fn try_run_profiled(&self, trace: &Trace) -> Result<ProfiledRun, RunError> {
        let (stream, stats) = self.try_compile(trace)?;
        let machine = self.try_machine_for(trace)?;
        Ok(profile_stream(&machine, &stream, Some(stats)))
    }

    /// Profiles the same trace on an arbitrary baseline machine using
    /// the identical instruction stream (§VI-C), mirroring
    /// [`Ufc::run_on`].
    pub fn try_run_profiled_on(
        &self,
        machine: &dyn Machine,
        trace: &Trace,
    ) -> Result<ProfiledRun, RunError> {
        let (stream, stats) = self.try_compile(trace)?;
        Ok(profile_stream(machine, &stream, Some(stats)))
    }
}

/// Simulates a pre-compiled stream with a [`Timeline`] attached — the
/// shared tail of every profiled path (also used directly by
/// `ufc-profile` for serialized stream inputs).
pub fn profile_stream(
    machine: &dyn Machine,
    stream: &InstrStream,
    compile_stats: Option<CompileStats>,
) -> ProfiledRun {
    let mut timeline = Timeline::new();
    let report = simulate_with(machine, stream, &mut timeline);
    ProfiledRun {
        report,
        timeline,
        compile_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_workloads::knn::{self, KnnConfig};

    fn small_knn() -> Trace {
        knn::generate(
            "C2",
            "T1",
            KnnConfig {
                candidates: 64,
                dim: 16,
                k: 2,
            },
        )
    }

    #[test]
    fn profiled_report_matches_plain_run() {
        let ufc = Ufc::paper_default();
        let tr = small_knn();
        let plain = ufc.run(&tr);
        let profiled = ufc.try_run_profiled(&tr).expect("kNN compiles");
        assert_eq!(plain, profiled.report);
        assert!(!profiled.timeline.records().is_empty());
        assert_eq!(profiled.timeline.makespan(), plain.cycles);
    }

    #[test]
    fn profiled_run_is_self_consistent() {
        let ufc = Ufc::paper_default();
        let tr = small_knn();
        let run = ufc.try_run_profiled(&tr).expect("kNN compiles");
        let cp = run.timeline.critical_path();
        assert_eq!(cp.length, run.report.cycles);
        assert_eq!(
            cp.segments.iter().map(|s| s.contribution).sum::<u64>(),
            cp.length
        );
        let stats = run.compile_stats.as_ref().expect("trace path has stats");
        assert_eq!(stats.ops.len(), tr.len());
        assert_eq!(stats.total_instrs, run.timeline.records().len());
        let m = run.metrics();
        assert_eq!(
            m.get("compile/op/TfhePbs/count"),
            tr.op_histogram()["TfhePbs"] as u64
        );
        assert!(m.get("kernel/Ntt/instrs") > 0);
    }

    #[test]
    fn profiled_summary_serializes() {
        let ufc = Ufc::paper_default();
        let run = ufc.try_run_profiled(&small_knn()).expect("kNN compiles");
        let json = serde_json::to_string(&run.summary()).unwrap();
        let v = serde_json::from_str(&json).unwrap();
        assert_eq!(
            v.get("cycles").and_then(serde::Value::as_u64),
            Some(run.report.cycles)
        );
        // The report itself serializes too (workspace serde satellite).
        let rv = serde::Serialize::to_value(&run.report);
        assert!(rv.get("machine").is_some());
    }
}
