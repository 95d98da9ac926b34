//! # ufc-core — the UFC accelerator as a library
//!
//! The top of the stack: configure a UFC instance (Table II defaults
//! or any design-space point), feed it a workload trace, and get back
//! delay / energy / EDP / EDAP / utilization — plus side-by-side
//! comparisons against the SHARP, Strix and composed baselines and
//! the full design-space-exploration driver of §VII-E.
//!
//! ```
//! use ufc_core::Ufc;
//! use ufc_workloads::tfhe_apps;
//!
//! let ufc = Ufc::paper_default();
//! let trace = tfhe_apps::pbs_throughput("T1", 64);
//! let report = ufc.run(&trace);
//! assert!(report.cycles > 0);
//! ```

#![forbid(unsafe_code)]

pub mod compare;
pub mod dse;
pub mod host_profile;
pub mod profile;
pub mod runner;

pub use compare::{compare, ComparisonRow};
pub use dse::{sweep_cg_networks, sweep_lanes, DsePoint};
pub use host_profile::{profile_host, HostProfile, NoiseDrift};
pub use profile::{profile_stream, ProfiledRun};
pub use runner::{try_compile_with_barriers_stats, RunError, Ufc};

pub use ufc_sim::machines::{UfcConfig, UfcMachine};
