//! # ufc-verify — static checking for UFC traces and instruction streams
//!
//! The simulator trusts its inputs: a malformed [`Trace`] or
//! [`InstrStream`] produces plausible-looking but meaningless cycle
//! counts. This crate proves properties of both IR levels **without
//! executing them**:
//!
//! * **Dataflow** — dependency edges are defined-before-use, in range,
//!   and non-duplicated; instruction ids match stream positions
//!   ([`stream_checks`]).
//! * **Resource invariants** — a producer→last-consumer liveness sweep
//!   bounds the scratchpad high-water mark against capacity; word
//!   sizes, shapes and packing caps are consistent with the kernel and
//!   phase that carry them; levels fit the declared modulus chain and
//!   rescales have a limb to drop ([`trace_checks`], [`stream_checks`]).
//! * **Scheme-switching sequencing** — TFHE work follows an `Extract`,
//!   `Repack` only consumes previously extracted LWEs, cross-pipeline
//!   hops carry a dependency edge, and `SchemeTransfer` appears only
//!   when targeting the composed baseline.
//!
//! Findings come back as a severity-ranked [`Report`] of
//! [`Diagnostic`]s with stable codes (`trace/…`, `stream/…`), rendered
//! human-readable or as JSON. Verification is an explicit step, not a
//! cost on every compile. Two front doors use it: the `ufc-lint` CLI
//! and `Ufc::run_verified` in `ufc-core`; `ufc-profile` runs
//! [`stream_checks::check_dataflow`] alone before it simulates a
//! serialized stream.

#![forbid(unsafe_code)]

pub mod diag;
pub mod noise_checks;
pub mod stream_checks;
pub mod trace_checks;

pub use diag::{Diagnostic, Location, Report, Severity};
pub use noise_checks::{NoiseOptions, NoiseSchedule};

use ufc_isa::instr::InstrStream;
use ufc_isa::serial::{self, ParseError};
use ufc_isa::trace::Trace;

/// Scratchpad capacity assumed when [`VerifyOptions::scratchpad_bytes`]
/// is unset: 256 MiB, the `UfcConfig::default()` scratchpad.
pub const DEFAULT_SCRATCHPAD_BYTES: u64 = 256 << 20;

/// Which machine the artifact claims to target. Some constructs are
/// only legal on one side of the UFC-vs-composed comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Target {
    /// No target claimed: skip target-specific checks.
    #[default]
    Any,
    /// The unified accelerator: scheme switches stay on-chip, so
    /// `SchemeTransfer`/`Transfer` must not appear.
    Ufc,
    /// The composed SHARP+Strix baseline: chip-to-chip transfers are
    /// expected.
    Composed,
}

impl Target {
    /// Parses a CLI-facing target name.
    pub fn parse(s: &str) -> Option<Target> {
        match s {
            "any" => Some(Target::Any),
            "ufc" => Some(Target::Ufc),
            "composed" => Some(Target::Composed),
            _ => None,
        }
    }
}

/// Knobs for a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VerifyOptions {
    /// Target machine for target-specific checks.
    pub target: Target,
    /// Scratchpad capacity for the liveness sweep;
    /// [`DEFAULT_SCRATCHPAD_BYTES`] when `None`.
    pub scratchpad_bytes: Option<u64>,
    /// Run the noise/scale abstract interpreter with these knobs;
    /// `None` skips the noise pass entirely.
    pub noise: Option<NoiseOptions>,
}

impl VerifyOptions {
    /// Options for a given target with the default scratchpad.
    pub fn for_target(target: Target) -> Self {
        Self {
            target,
            ..Self::default()
        }
    }

    /// The same options with the noise pass enabled at its defaults.
    pub fn with_noise(mut self) -> Self {
        self.noise = Some(NoiseOptions::default());
        self
    }

    /// The effective scratchpad capacity in bytes.
    pub fn scratchpad_capacity(&self) -> u64 {
        self.scratchpad_bytes.unwrap_or(DEFAULT_SCRATCHPAD_BYTES)
    }
}

/// Verifies a ciphertext-granularity trace.
pub fn verify_trace(trace: &Trace, opts: &VerifyOptions) -> Report {
    let mut report = trace_checks::check_trace(trace, opts);
    if let Some(noise) = &opts.noise {
        noise_checks::check_trace_noise(trace, noise, &mut report);
    }
    report
}

/// Verifies a lowered instruction stream.
pub fn verify_stream(stream: &InstrStream, opts: &VerifyOptions) -> Report {
    let mut report = stream_checks::check_stream(stream, opts);
    if let Some(noise) = &opts.noise {
        noise_checks::check_stream_noise(stream, noise, &mut report);
    }
    report
}

/// What a serialized artifact turned out to contain.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A ciphertext-granularity trace.
    Trace(Trace),
    /// A lowered instruction stream.
    Stream(InstrStream),
}

/// Parses serialized text as either a trace or a stream (sniffed from
/// the first directive line) and verifies it.
pub fn verify_text(text: &str, opts: &VerifyOptions) -> Result<(Artifact, Report), ParseError> {
    match sniff(text) {
        Sniff::Stream => {
            let s = serial::stream_from_text(text)?;
            let r = verify_stream(&s, opts);
            Ok((Artifact::Stream(s), r))
        }
        // Traces are the default: their parser produces the more
        // useful error for unrecognizable input.
        Sniff::Trace => {
            let t = serial::trace_from_text(text)?;
            let r = verify_trace(&t, opts);
            Ok((Artifact::Trace(t), r))
        }
    }
}

enum Sniff {
    Trace,
    Stream,
}

fn sniff(text: &str) -> Sniff {
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let word = line.split_whitespace().next().unwrap_or("");
        return match word {
            "stream" | "instr" => Sniff::Stream,
            _ => Sniff::Trace,
        };
    }
    Sniff::Trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_isa::instr::{Kernel, Phase, PolyShape};
    use ufc_isa::trace::TraceOp;

    #[test]
    fn options_default_scratchpad() {
        assert_eq!(VerifyOptions::default().scratchpad_capacity(), 256 << 20);
        let o = VerifyOptions {
            scratchpad_bytes: Some(1024),
            ..VerifyOptions::default()
        };
        assert_eq!(o.scratchpad_capacity(), 1024);
    }

    #[test]
    fn target_parse() {
        assert_eq!(Target::parse("ufc"), Some(Target::Ufc));
        assert_eq!(Target::parse("composed"), Some(Target::Composed));
        assert_eq!(Target::parse("any"), Some(Target::Any));
        assert_eq!(Target::parse("x"), None);
    }

    #[test]
    fn verify_text_sniffs_trace() {
        let text = "# ufc trace v1\ntrace t\nckks C1\nop CkksAdd level=1\n";
        let (art, report) = verify_text(text, &VerifyOptions::default()).unwrap();
        assert!(matches!(art, Artifact::Trace(_)));
        assert!(report.is_clean());
    }

    #[test]
    fn verify_text_sniffs_stream() {
        let mut s = InstrStream::new();
        s.push(
            Kernel::Ntt,
            PolyShape::new(10, 1),
            36,
            vec![],
            0,
            Phase::CkksEval,
        );
        let text = serial::stream_to_text(&s);
        let (art, report) = verify_text(&text, &VerifyOptions::default()).unwrap();
        assert!(matches!(art, Artifact::Stream(_)));
        assert!(report.is_clean());
    }

    #[test]
    fn verify_text_propagates_parse_errors() {
        assert!(verify_text("garbage here\n", &VerifyOptions::default()).is_err());
        // `1 << 119657` overflows: the parser must refuse the line
        // before any check computes a shape size.
        let text = "stream\n\
            instr id=0 kernel=Ntt log_n=119657 count=2 word=36 hbm=0 phase=CkksEval pack=max deps=\n";
        let err = verify_text(text, &VerifyOptions::default().with_noise()).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn end_to_end_trace_diagnostics() {
        let mut tr = Trace::new("bad").with_ckks("C1");
        tr.push(TraceOp::CkksRescale { level: 0 });
        let text = serial::trace_to_text(&tr);
        let (_, report) = verify_text(&text, &VerifyOptions::default()).unwrap();
        assert!(report.has_code("trace/rescale-at-zero"));
        assert!(report.has_errors());
    }
}
