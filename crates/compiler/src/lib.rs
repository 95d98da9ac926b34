//! # ufc-compiler — from ciphertext traces to hardware instructions
//!
//! Reproduces the paper's Python compiler (§VI-B): takes a
//! ciphertext-granularity [`ufc_isa::Trace`] and lowers every
//! high-level operation into the primitive macro-instructions of
//! Table I, applying the compiler-level optimizations of §V:
//!
//! * **small-polynomial packing** (§V-A): logic-scheme polynomials
//!   smaller than the machine width are batched into packed
//!   instructions (continuous/interleaved layouts switched by
//!   DIF-NTT/DIT-iNTT);
//! * **parallel scheduling** (§V-B): parallelism is harvested in the
//!   paper's priority order — test-vector level (TvLP), then
//!   polynomial level (PLP), then column level (CoLP);
//! * **memory allocation** (§V-C): key material is streamed from HBM
//!   with reuse factors determined by the packing strategy, and a
//!   working-set model charges spill traffic when the scratchpad
//!   overflows.
//!
//! [`Compiler::try_compile`] is the one driver from trace to stream:
//! it inserts a dependency barrier at every scheme switch, and the
//! same instruction stream drives the UFC machine model *and* the
//! SHARP/Strix baselines, mirroring the paper's fair-comparison
//! methodology (§VI-C). Verifying the stream is a separate step
//! (`ufc_verify::verify_stream`).

//! ```
//! use ufc_compiler::{CompileError, CompileOptions, Compiler};
//! use ufc_isa::trace::{Trace, TraceOp};
//!
//! let mut trace = Trace::new("demo").with_ckks("C1");
//! trace.push(TraceOp::CkksMulCt { level: 20 });
//! let compiler = Compiler::try_for_trace(&trace, CompileOptions::default())?;
//! let (stream, stats) = compiler.try_compile(&trace)?;
//! assert!(stream.len() > 10); // tensor + key-switch pipeline
//! assert_eq!(stats.ops.len(), 1);
//! # Ok::<(), CompileError>(())
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod lower;
pub mod memory;
pub mod options;
pub mod stats;

pub use error::CompileError;
pub use lower::Compiler;
pub use options::{CompileOptions, Packing};
pub use stats::{CompileStats, OpKindStat, OpLowering, SpillEvent};
