//! The `Ufc` façade: one design point, compiled with the shared
//! barrier-aware [`Compiler::try_compile`] and simulated on any
//! machine (fair-comparison methodology, §VI-C).

use ufc_compiler::memory::SpillModel;
use ufc_compiler::{CompileError, CompileOptions, CompileStats, Compiler};
use ufc_isa::instr::InstrStream;
use ufc_isa::params::{try_ckks_params, try_tfhe_params, ParamsError};
use ufc_isa::trace::Trace;
use ufc_sim::machines::{Machine, UfcConfig, UfcMachine};
use ufc_sim::{simulate, SimReport};
use ufc_verify::{verify_stream, verify_trace, Report, VerifyOptions};

/// Why a verified run was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The trace could not be lowered.
    Compile(CompileError),
    /// The static verifier found error-severity problems in the input
    /// trace or the compiled stream.
    Verify(Report),
    /// The trace names a parameter set the registry does not know
    /// (surfaced by the working-set model before machine construction).
    Params(ParamsError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Compile(e) => write!(f, "{e}"),
            RunError::Verify(r) => write!(f, "verification failed:\n{r}"),
            RunError::Params(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<CompileError> for RunError {
    fn from(e: CompileError) -> Self {
        RunError::Compile(e)
    }
}

impl From<ParamsError> for RunError {
    fn from(e: ParamsError) -> Self {
        RunError::Params(e)
    }
}

/// [`Compiler::try_compile`] for a trace's own parameter sets.
///
/// Kept as a delegate for the benchmark crate, which names it; new
/// code calls the compiler directly.
pub fn try_compile_with_barriers_stats(
    trace: &Trace,
    opts: CompileOptions,
) -> Result<(InstrStream, CompileStats), CompileError> {
    Compiler::try_for_trace(trace, opts)?.try_compile(trace)
}

/// A configured UFC accelerator instance.
#[derive(Debug, Clone)]
pub struct Ufc {
    config: UfcConfig,
    opts: CompileOptions,
}

impl Ufc {
    /// The paper's Table II configuration with default compiler
    /// options (TvLP+PLP packing).
    pub fn paper_default() -> Self {
        Self::new(UfcConfig::default(), CompileOptions::default())
    }

    /// A custom design point. The compiler's packing width follows
    /// the architecture, so lowering and the machine model agree on
    /// it.
    pub fn new(config: UfcConfig, opts: CompileOptions) -> Self {
        let opts = CompileOptions {
            total_lanes: (config.pes * config.alu_per_pe).max(1),
            ..opts
        };
        Self { config, opts }
    }

    /// Scratchpad capacity in bytes: the bound [`Ufc::run_verified`]
    /// holds a stream's high-water mark to, and the capacity of the
    /// spill model.
    fn scratchpad_bytes(&self) -> u64 {
        u64::from(self.config.scratchpad_mib) << 20
    }

    /// The architecture configuration.
    pub fn config(&self) -> &UfcConfig {
        &self.config
    }

    /// The compiler options.
    pub fn options(&self) -> &CompileOptions {
        &self.opts
    }

    /// Builds the machine model for a given workload (applying the
    /// scratchpad working-set model to set the spill fraction, §V-C).
    /// An unknown CKKS/TFHE parameter id in the trace comes back as a
    /// typed [`ParamsError`].
    ///
    /// # Errors
    ///
    /// [`ParamsError`] naming the unknown set.
    pub fn try_machine_for(&self, trace: &Trace) -> Result<UfcMachine, ParamsError> {
        let mut cfg = self.config;
        cfg.spill_fraction = self.try_spill_fraction(trace)?;
        Ok(UfcMachine::new(cfg))
    }

    /// Fraction of overflowed working set that actually re-streams
    /// from HBM: the scheduler tiles and reuses data, so only a
    /// quarter of the raw overflow turns into traffic.
    const SPILL_REUSE: f64 = 0.25;

    fn try_spill_fraction(&self, trace: &Trace) -> Result<f64, ParamsError> {
        let spill = SpillModel::new(self.scratchpad_bytes());
        let mut frac: f64 = 0.0;
        if let Some(id) = trace.ckks_params {
            let p = try_ckks_params(id)?;
            let ws = SpillModel::ckks_working_set(&p, p.max_level(), 4);
            frac = frac.max(spill.spill_fraction(ws));
        }
        if let Some(id) = trace.tfhe_params {
            let p = try_tfhe_params(id)?;
            let ws = SpillModel::tfhe_working_set(&p, self.opts.max_batch);
            frac = frac.max(spill.spill_fraction(ws));
        }
        Ok(frac * Self::SPILL_REUSE)
    }

    /// Lowers a trace with [`Compiler::try_compile`] under this
    /// instance's options.
    pub(crate) fn try_compile(
        &self,
        trace: &Trace,
    ) -> Result<(InstrStream, CompileStats), CompileError> {
        Compiler::try_for_trace(trace, self.opts)?.try_compile(trace)
    }

    /// Compiles and simulates a workload on this UFC instance.
    ///
    /// # Panics
    ///
    /// Panics when the trace cannot be compiled or names an unknown
    /// parameter set; use [`Ufc::run_verified`] on user-supplied
    /// traces.
    pub fn run(&self, trace: &Trace) -> SimReport {
        let machine = self
            .try_machine_for(trace)
            .unwrap_or_else(|e| panic!("{e}"));
        self.run_on(&machine, trace)
    }

    /// Like [`Ufc::run`], but with the static verifier as a pre-pass
    /// on both IR levels: the input trace is checked before lowering
    /// and the barrier-compiled stream before simulation.
    /// Error-severity findings abort the run.
    ///
    /// The trace is checked against `Target::Any`, not `Target::Ufc`:
    /// paper traces deliberately carry `SchemeTransfer` ops so the
    /// same trace drives the composed baseline, and the UFC machine
    /// model costs them as on-chip no-ops.
    ///
    /// The stream's scratchpad high-water mark
    /// ([`InstrStream::scratchpad_high_water`]) is held to *this
    /// instance's* capacity, so a stream that cannot be scheduled
    /// spill-free is refused; use [`Ufc::run`] for the spill-modelled
    /// estimate instead.
    pub fn run_verified(&self, trace: &Trace) -> Result<SimReport, RunError> {
        let vopts = VerifyOptions {
            scratchpad_bytes: Some(self.scratchpad_bytes()),
            // A verified run also refuses workloads whose static noise
            // schedule predicts decryption failure.
            noise: Some(ufc_verify::NoiseOptions::default()),
            ..VerifyOptions::default()
        };
        let trace_report = verify_trace(trace, &vopts);
        if trace_report.has_errors() {
            return Err(RunError::Verify(trace_report));
        }
        let (stream, _) = self.try_compile(trace)?;
        let stream_report = verify_stream(&stream, &vopts);
        if stream_report.has_errors() {
            return Err(RunError::Verify(stream_report));
        }
        let machine = self.try_machine_for(trace)?;
        Ok(simulate(&machine, &stream))
    }

    /// Simulates the same workload on an arbitrary baseline machine,
    /// using the identical instruction stream (§VI-C).
    ///
    /// # Panics
    ///
    /// Panics when the trace cannot be compiled.
    pub fn run_on(&self, machine: &dyn Machine, trace: &Trace) -> SimReport {
        let (stream, _) = self.try_compile(trace).unwrap_or_else(|e| panic!("{e}"));
        simulate(machine, &stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_sim::machines::{ComposedMachine, SharpMachine, StrixMachine};

    #[test]
    fn ckks_workload_runs() {
        let ufc = Ufc::paper_default();
        let tr = ufc_workloads::helr::generate("C1");
        let r = ufc.run(&tr);
        assert!(r.cycles > 10_000);
        assert!(r.energy_j > 0.0);
        assert!(r.util("Ntt") > 0.1, "NTT util = {}", r.util("Ntt"));
    }

    #[test]
    fn tfhe_workload_runs() {
        let ufc = Ufc::paper_default();
        let tr = ufc_workloads::tfhe_apps::pbs_throughput("T2", 128);
        let r = ufc.run(&tr);
        assert!(r.cycles > 1000);
    }

    #[test]
    fn barriers_serialize_hybrid_phases() {
        let tr = ufc_workloads::knn::generate("C2", "T1", Default::default());
        let (stream, _) =
            try_compile_with_barriers_stats(&tr, CompileOptions::default()).expect("kNN compiles");
        // Some instruction after the extract must depend on earlier
        // exits (the barrier).
        let has_cross_deps = stream
            .instrs()
            .iter()
            .any(|i| i.deps.iter().any(|&d| i.id - d > 1000));
        assert!(has_cross_deps, "hybrid phases must be chained");
    }

    #[test]
    fn same_stream_runs_on_all_machines() {
        let ufc = Ufc::paper_default();
        let tr = ufc_workloads::knn::generate("C2", "T1", Default::default());
        for m in [
            &SharpMachine::new() as &dyn Machine,
            &StrixMachine::new(),
            &ComposedMachine::new(),
        ] {
            let r = ufc.run_on(m, &tr);
            assert!(r.cycles > 0, "{}", r.machine);
        }
    }

    #[test]
    fn verified_run_matches_unverified_on_clean_traces() {
        let ufc = Ufc::paper_default();
        let tr = ufc_workloads::tfhe_apps::pbs_throughput("T2", 16);
        let verified = ufc.run_verified(&tr).expect("clean trace runs");
        let plain = ufc.run(&tr);
        assert_eq!(verified.cycles, plain.cycles);
    }

    #[test]
    fn verified_run_rejects_bad_params() {
        let ufc = Ufc::paper_default();
        let tr = ufc_isa::trace::Trace::new("bad").with_ckks("C9");
        match ufc.run_verified(&tr) {
            Err(RunError::Verify(report)) => {
                assert!(report.has_code("trace/params-unknown"));
            }
            other => panic!("expected verify failure, got {other:?}"),
        }
    }

    #[test]
    fn verified_run_rejects_broken_sequencing() {
        let ufc = Ufc::paper_default();
        let mut tr = ufc_isa::trace::Trace::new("rp")
            .with_ckks("C1")
            .with_tfhe("T1");
        tr.push(ufc_isa::trace::TraceOp::Repack { count: 8, level: 3 });
        match ufc.run_verified(&tr) {
            Err(RunError::Verify(report)) => {
                assert!(report.has_code("trace/repack-without-extract"));
            }
            other => panic!("expected verify failure, got {other:?}"),
        }
    }

    #[test]
    fn small_scratchpad_spills_on_ckks() {
        let small = Ufc::new(
            UfcConfig {
                scratchpad_mib: 32,
                ..UfcConfig::default()
            },
            CompileOptions::default(),
        );
        let tr = ufc_workloads::ckks_bootstrap::generate("C1");
        assert!(small.try_spill_fraction(&tr).unwrap() > 0.0);
        let big = Ufc::paper_default();
        assert_eq!(big.try_spill_fraction(&tr).unwrap(), 0.0);
        // The compiled stream does not fit 32 MiB either, so a
        // verified run on the small design point refuses it.
        let (stream, _) = small.try_compile(&tr).expect("bootstrap compiles");
        assert!(stream.scratchpad_high_water().bytes > small.scratchpad_bytes());
        match small.run_verified(&tr) {
            Err(RunError::Verify(report)) => {
                assert!(report.has_code("stream/scratchpad-overflow"), "{report}");
            }
            other => panic!("expected a scratchpad overflow, got {other:?}"),
        }
    }

    #[test]
    fn machine_for_rejects_unknown_params_with_typed_error() {
        let ufc = Ufc::paper_default();
        let tr = ufc_isa::trace::Trace::new("bogus").with_ckks("C9");
        match ufc.try_machine_for(&tr) {
            Err(ParamsError::UnknownCkks { id }) => assert_eq!(id, "C9"),
            other => panic!("expected UnknownCkks, got {other:?}"),
        }
        let tr = ufc_isa::trace::Trace::new("bogus").with_tfhe("T9");
        let err = ufc.try_machine_for(&tr).unwrap_err();
        assert_eq!(
            err,
            ParamsError::UnknownTfhe {
                id: "T9".to_owned()
            }
        );
        // The same failure surfaces through RunError so callers of the
        // fallible run paths see one error type.
        let run_err = RunError::from(err);
        assert!(run_err.to_string().contains("unknown TFHE parameter set"));
    }
}
