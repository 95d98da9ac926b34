//! # ufc-ckks — RNS-CKKS, the SIMD FHE scheme UFC accelerates
//!
//! A from-scratch implementation of the RNS variant of CKKS
//! (Cheon–Kim–Kim–Song) with:
//!
//! * canonical-embedding encoding of complex/real slot vectors
//!   ([`encoding`]),
//! * encryption / decryption under ternary secrets ([`keys`]),
//! * homomorphic add / multiply / rescale ([`eval`]),
//! * **hybrid key-switching** with `dnum` digits and a special modulus
//!   `P` — the BConv-heavy kernel that dominates CKKS time on
//!   accelerators (§II-B3),
//! * slot rotation and conjugation via Galois automorphisms, plain or
//!   hoisted (one decomposition shared by many rotations),
//! * one homomorphic linear transform (baby-step giant-step with
//!   hoisted baby rotations, shared with the `ufc-switch` repacking)
//!   and power-basis polynomial evaluation, composed into the
//!   bootstrapping pipeline ([`bootstrap`]),
//! * a ciphertext-granularity tracer: every evaluator call records a
//!   [`ufc_isa::TraceOp`], reproducing the paper's tracing tool
//!   (§VI-B),
//! * noise-budget tracking validated against measured error
//!   ([`noise`]).
//!
//! Parameters are freely configurable; tests exercise reduced rings
//! (`N = 32 … 2^10`) while the workload generators use the paper's
//! Table III sets analytically.

#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod ciphertext;
pub mod context;
pub mod encoding;
pub mod eval;
pub mod keys;
pub mod noise;

pub use ciphertext::Ciphertext;
pub use context::CkksContext;
pub use encoding::Encoder;
pub use eval::{Evaluator, HoistedDigits};
pub use keys::{KeySet, SecretKey};

/// Former name of [`ufc_math::plane::RnsPlane`], the workspace's one
/// polynomial container. The workspace itself names `RnsPlane`
/// directly; the alias stays only because the `benchmark/` harness
/// still imports it, and goes with the next `[benchmark]` change.
pub type RnsPoly = ufc_math::plane::RnsPlane;
