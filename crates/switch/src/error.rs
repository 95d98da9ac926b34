//! Typed errors for the scheme-switch boundary.
//!
//! The bridge is driven by application code with runtime-chosen batch
//! shapes, so shape mismatches are recoverable conditions, not
//! programmer bugs — they surface as [`SwitchError`] values rather
//! than panics (the same panic-free style the kernel/params selection
//! layers use).

use std::fmt;

/// Everything that can go wrong at the CKKS↔TFHE boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// An extraction index does not name a ring coefficient.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The ring dimension it must stay below.
        n: usize,
    },
    /// A CKKS ciphertext or evaluator has another ring dimension than
    /// the extraction key's input dimension: it comes from another
    /// CKKS context.
    RingDimensionMismatch {
        /// Ring dimension of the offending ciphertext or evaluator.
        got: usize,
        /// The key's input dimension.
        expected: usize,
    },
    /// A CKKS ciphertext or evaluator has another level-0 modulus than
    /// the extraction key's: it comes from another CKKS context.
    ModulusMismatch {
        /// Level-0 modulus of the offending ciphertext or evaluator.
        got: u64,
        /// The key's modulus `q_0`.
        expected: u64,
    },
    /// More LWEs were offered to `repack` than the CKKS slot count.
    TooManyLwes {
        /// Number of LWE ciphertexts supplied.
        count: usize,
        /// Available CKKS slots.
        slots: usize,
    },
    /// The TFHE key does not fit in the CKKS slot count.
    KeyTooLarge {
        /// TFHE LWE dimension.
        lwe_dim: usize,
        /// Available CKKS slots.
        slots: usize,
    },
    /// The slot count is not a multiple of the LWE dimension, so the
    /// cyclically-repeated repacking key would misalign under
    /// rotation.
    SlotCountNotMultiple {
        /// Available CKKS slots.
        slots: usize,
        /// TFHE LWE dimension.
        lwe_dim: usize,
    },
    /// An LWE input has the wrong dimension for the bridge's key
    /// material.
    LweDimensionMismatch {
        /// Dimension of the offending ciphertext.
        got: usize,
        /// Dimension the key material expects.
        expected: usize,
    },
    /// The repack transform had no non-zero diagonal (empty input).
    EmptyTransform,
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::IndexOutOfRange { index, n } => {
                write!(
                    f,
                    "extraction index {index} out of range for ring dimension {n}"
                )
            }
            Self::RingDimensionMismatch { got, expected } => {
                write!(
                    f,
                    "ring dimension {got} does not match the extraction key's {expected}"
                )
            }
            Self::ModulusMismatch { got, expected } => {
                write!(
                    f,
                    "level-0 modulus {got} does not match the extraction key's {expected}"
                )
            }
            Self::TooManyLwes { count, slots } => {
                write!(f, "{count} LWE ciphertexts exceed the {slots} CKKS slots")
            }
            Self::KeyTooLarge { lwe_dim, slots } => {
                write!(
                    f,
                    "TFHE key dimension {lwe_dim} exceeds the {slots} CKKS slots"
                )
            }
            Self::SlotCountNotMultiple { slots, lwe_dim } => {
                write!(
                    f,
                    "slot count {slots} is not a multiple of the LWE dimension {lwe_dim}"
                )
            }
            Self::LweDimensionMismatch { got, expected } => {
                write!(
                    f,
                    "LWE dimension {got} does not match the bridge's {expected}"
                )
            }
            Self::EmptyTransform => write!(f, "repack transform has no non-zero diagonal"),
        }
    }
}

impl std::error::Error for SwitchError {}
