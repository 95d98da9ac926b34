//! # ufc-sim — the trace-driven cycle simulator
//!
//! Reproduces the paper's simulation infrastructure (§VI-C): a
//! dependency-aware, resource-timeline cycle simulator that consumes
//! the macro-instruction streams emitted by `ufc-compiler` and models
//! four machines:
//!
//! * [`machines::UfcMachine`] — the proposed unified accelerator
//!   (Table II configuration, with all DSE knobs: lanes per PE,
//!   scratchpad capacity, number of CG-NTT networks);
//! * [`machines::SharpMachine`] — the CKKS baseline (SHARP), built
//!   from its published architectural parameters;
//! * [`machines::StrixMachine`] — the TFHE baseline (Strix), ditto;
//! * [`machines::ComposedMachine`] — SHARP + Strix + PCIe 5.0 ×16,
//!   the paper's hybrid baseline (§VI-D3).
//!
//! "We implement separate performance models for different operation
//! macros supported by the pipelined hardware in previous works …
//! The unified simulation framework makes a fair comparison because
//! all architectures use the same instruction traces." — §VI-C.
//!
//! Every instruction contributes busy intervals to the resources it
//! demands (function-unit lanes, NoC wires, HBM channels, the
//! near-memory LWE unit, PCIe); the engine list-schedules under
//! dependency and resource constraints, yielding makespan, component
//! utilizations (Fig. 12), energy, EDP and EDAP.

//! The engine trusts its input: a dangling dependency edge panics and
//! a forward one reads as no dependency. Streams from
//! `Compiler::try_compile` are well-formed; check any other stream
//! with `ufc_verify::stream_checks::check_dataflow` (or `ufc-lint`)
//! first, as `ufc-profile` does.
//!
//! ```
//! use ufc_compiler::{CompileError, CompileOptions, Compiler};
//! use ufc_isa::trace::{Trace, TraceOp};
//! use ufc_sim::{simulate, machines::UfcMachine};
//!
//! let mut trace = Trace::new("demo").with_tfhe("T1");
//! trace.push(TraceOp::TfhePbs { batch: 8 });
//! let (stream, _stats) =
//!     Compiler::try_for_trace(&trace, CompileOptions::default())?.try_compile(&trace)?;
//! let report = simulate(&UfcMachine::paper_default(), &stream);
//! assert!(report.cycles > 0);
//! # Ok::<(), CompileError>(())
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod machines;
pub mod observe;
pub mod report;

pub use engine::{simulate, simulate_with, Demands, InstrCost, ResKind};
pub use machines::{ComposedMachine, Machine, SharpMachine, StrixMachine, UfcConfig, UfcMachine};
pub use observe::{Binding, InstrSchedule, NullObserver, ScheduleLog, SimObserver};
pub use report::SimReport;
