//! # ufc-isa — the two-level IR of the UFC toolchain
//!
//! The UFC paper's software stack (§VI-B) traces FHE programs "at the
//! granularity of ciphertext" and feeds the traces to a compiler that
//! emits hardware instructions. This crate defines both levels:
//!
//! * [`trace`] — ciphertext-granularity [`trace::TraceOp`]s, the
//!   output of the tracing tool (what OpenFHE emitted in the paper,
//!   what `ufc-ckks`/`ufc-tfhe`/`ufc-workloads` emit here);
//! * [`instr`] — hardware [`instr::MacroInstr`]s over polynomial
//!   limbs: the primitive kernels of Table I ((i)NTT, EWMM/A, AUTO,
//!   Rotate, Extract, Decomp, REDC) plus BConv MACs, memory
//!   movement and the ordering `Barrier`, and the one scratchpad
//!   liveness sweep over a stream
//!   ([`instr::InstrStream::scratchpad_high_water`]);
//! * [`params`] — the FHE parameter registry of Table III (CKKS
//!   C1–C3, TFHE T1–T4) with all derived quantities (RNS limb counts,
//!   key-switching digit counts, ciphertext sizes) that both the
//!   schemes and the cost models consume.

#![forbid(unsafe_code)]

pub mod instr;
pub mod noise;
pub mod params;
pub mod serial;
pub mod trace;

pub use instr::{HighWater, InstrStream, Kernel, MacroInstr};
pub use params::{CkksParams, TfheParams};
pub use trace::{Trace, TraceOp};
