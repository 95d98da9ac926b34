//! # ufc-telemetry — observability for the UFC simulator
//!
//! The simulator's observer hook ([`ufc_sim::simulate_with`]) emits
//! one schedule event per instruction; this crate provides the sinks
//! that turn those events into answers:
//!
//! * [`Timeline`] — records the full run and derives per-resource
//!   occupancy intervals, windowed utilization time-series
//!   (Fig. 2/Fig. 12-style views), aggregate stall attribution, and
//!   the dependency/contention **critical path**: a backward walk
//!   over binding constraints that attributes every cycle of the
//!   makespan to exactly one instruction (so per-kernel and per-phase
//!   attributions sum to the makespan, by construction).
//! * [`perfetto`] — exports a recorded timeline as Chrome-trace-event
//!   JSON: one track per [`ufc_sim::ResKind`], one slice per busy
//!   interval, openable directly in `ui.perfetto.dev`.
//! * [`MetricsRegistry`] — named counters, gauges and log-bucketed
//!   latency histograms with one deterministic serialization, shared
//!   by the workload builders' op counts, `ufc-core`'s profiled runs
//!   and the host-span roll-up.
//! * [`trace`] / [`host`] — the *runtime* side: `ufc-trace`'s
//!   process-global span recorder (re-exported here as [`trace`])
//!   instruments the real evaluator stack, and [`host`] aggregates a
//!   finished recording into top-span tables, per-kernel latency
//!   histograms, registry metrics, JSONL, and (via
//!   [`perfetto::merged_to_value`]) a merged sim+host Perfetto trace.
//!
//! Attaching [`ufc_sim::NullObserver`] instead of any of these leaves
//! `simulate` byte-identical (property-tested in `ufc-sim`), so the
//! uninstrumented DSE path pays nothing.
//!
//! ```
//! use ufc_isa::instr::{InstrStream, Kernel, Phase, PolyShape};
//! use ufc_sim::{simulate_with, UfcMachine};
//! use ufc_telemetry::Timeline;
//!
//! let mut s = InstrStream::new();
//! s.push(Kernel::Ntt, PolyShape::new(12, 1), 36, vec![], 0, Phase::CkksEval);
//! let mut tl = Timeline::new();
//! let report = simulate_with(&UfcMachine::paper_default(), &s, &mut tl);
//! let cp = tl.critical_path();
//! assert_eq!(cp.length, report.cycles);
//! assert_eq!(cp.segments.iter().map(|s| s.contribution).sum::<u64>(), cp.length);
//! ```

#![forbid(unsafe_code)]

pub mod host;
pub mod metrics;
pub mod perfetto;
pub mod streaming;
pub mod timeline;

/// The runtime span recorder (`ufc-trace`), re-exported so consumers
/// above the simulator stack reach it as `ufc_telemetry::trace`.
pub use ufc_trace as trace;

pub use host::{HostReport, SpanAgg};
pub use metrics::{Histogram, MetricsRegistry};
pub use streaming::StreamingStats;
pub use timeline::{
    BusyInterval, CriticalPath, InstrRecord, KernelStat, PathSegment, PhaseStat, StallSummary,
    TelemetrySummary, Timeline, WindowedUtilization,
};
