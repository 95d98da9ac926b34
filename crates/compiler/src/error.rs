//! Typed compilation errors.
//!
//! Every compiler entry point reports failures through
//! [`CompileError`] instead of panicking. A lowered stream is not
//! verified by the compiler; `ufc_verify::verify_stream` checks it
//! as a separate step.

use ufc_isa::params::ParamsError;

/// Why a trace could not be compiled.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The trace names a parameter set the registry doesn't know.
    Params(ParamsError),
    /// The trace contains ops of a scheme whose parameter set was
    /// never declared (`scheme` is `"CKKS"` or `"TFHE"`).
    MissingParams {
        /// Which scheme's parameters are missing.
        scheme: &'static str,
        /// Debug rendering of the op that needed them.
        op: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Params(e) => write!(f, "{e}"),
            CompileError::MissingParams { scheme, op } => {
                write!(
                    f,
                    "{op} requires {scheme} parameters but the trace declares none"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Params(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamsError> for CompileError {
    fn from(e: ParamsError) -> Self {
        CompileError::Params(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = CompileError::from(ParamsError::UnknownCkks { id: "C9".into() });
        assert!(e.to_string().contains("C9"));
        let e = CompileError::MissingParams {
            scheme: "TFHE",
            op: "TfhePbs { batch: 4 }".into(),
        };
        assert!(e.to_string().contains("TFHE parameters"));
    }

    #[test]
    fn source_chains_params_errors() {
        use std::error::Error;
        let e = CompileError::from(ParamsError::UnknownTfhe { id: "T9".into() });
        assert!(e.source().is_some());
    }
}
