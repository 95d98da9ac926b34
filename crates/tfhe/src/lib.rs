//! # ufc-tfhe — TFHE, the logic FHE scheme UFC accelerates
//!
//! A from-scratch TFHE implementation in the NTT-friendly-prime
//! formulation UFC adopts (paper §VII-D: "UFC supports NTT-friendly
//! primes and Strix supports powers of two, both 32-bit integer"):
//!
//! * LWE ciphertexts with addition, scalar multiplication and modulus
//!   switching ([`lwe`]),
//! * RLWE ciphertexts with sample extraction ([`rlwe`]),
//! * RGSW ciphertexts, external products and CMux ([`rgsw`]),
//! * blind rotation / **programmable (functional) bootstrapping**
//!   with arbitrary look-up tables ([`bootstrap`]),
//! * LWE key switching with base-`B_ks` decomposition
//!   ([`keyswitch`]),
//! * bootstrapped binary gates (NAND/AND/OR/XOR/XNOR/NOT)
//!   ([`gates`]).
//!
//! Multi-gate circuits are built and evaluated one layer up, in
//! `ufc_workloads::gate_circuit` (`WireArena` / `GateCircuit`), which
//! also emits their compiler traces; this crate records no trace of
//! its own.
//!
//! Tests run the full pipeline at reduced-but-honest parameters
//! (`n = 64, N = 256`); the workload generators use Table III's T1–T4
//! sets analytically.

#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod context;
pub mod gates;
pub mod keys;
pub mod keyswitch;
pub mod lwe;
pub mod rgsw;
pub mod rlwe;

pub use bootstrap::{lut_test_vector, programmable_bootstrap};
pub use context::TfheContext;
pub use keys::TfheKeys;
pub use lwe::{sub_scaled_parts, LweCiphertext};
pub use rgsw::RgswCiphertext;
pub use rlwe::RlweCiphertext;
