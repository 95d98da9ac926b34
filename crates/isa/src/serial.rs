//! Native text serialization for [`Trace`]s and [`InstrStream`]s.
//!
//! The verifier (`ufc-verify`) and its `ufc-lint` CLI consume traces
//! and instruction streams from disk *without executing them*, so
//! both IR levels need a stable on-disk form. The format is a simple
//! line-oriented `key=value` syntax (one op/instruction per line)
//! chosen over a serde stack because the build environment is fully
//! offline (see `shims/README.md`) and because fixtures with
//! *deliberately malformed* content must still parse — validation is
//! the verifier's job, not the parser's. The parser therefore accepts
//! structurally well-formed but semantically invalid data (forward
//! dependencies, out-of-range levels, unknown parameter-set ids). The
//! one exception is a `log_n` above [`MAX_LOG_N`]: no ring that large
//! has a representable element count, so it is a parse error.
//!
//! ```text
//! # ufc trace v1
//! trace kNN/T4
//! ckks C2
//! tfhe T1
//! op CkksMulCt level=20
//! op Extract level=5 count=64
//! ```
//!
//! ```text
//! # ufc stream v1
//! stream
//! instr id=0 kernel=Ntt log_n=16 count=42 word=36 hbm=0 phase=CkksEval pack=max deps=
//! instr id=1 kernel=Ewmm log_n=16 count=21 word=36 hbm=4096 phase=CkksKeySwitch pack=max deps=0
//! ```

use crate::instr::{InstrStream, Kernel, MacroInstr, Phase, PolyShape, MAX_LOG_N};
use crate::trace::{Trace, TraceOp};

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line (0 = whole input).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "parse error: {}", self.message)
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

// ------------------------------------------------------------ helpers

/// Splits `key=value` fields of one line into a lookup closure.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    line: usize,
}

impl<'a> Fields<'a> {
    fn parse(parts: &[&'a str], line: usize) -> Result<Self, ParseError> {
        let mut pairs = Vec::with_capacity(parts.len());
        for p in parts {
            let (k, v) = p
                .split_once('=')
                .ok_or_else(|| ParseError::new(line, format!("expected key=value, got `{p}`")))?;
            pairs.push((k, v));
        }
        Ok(Self { pairs, line })
    }

    fn get(&self, key: &str) -> Result<&'a str, ParseError> {
        self.pairs
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| ParseError::new(self.line, format!("missing field `{key}`")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, ParseError> {
        let v = self.get(key)?;
        v.parse()
            .map_err(|_| ParseError::new(self.line, format!("field `{key}`: invalid number `{v}`")))
    }
}

/// Interns a parameter-set id: known ids map onto the registry's
/// `'static` strings; unknown ids (fixtures exercising the
/// unknown-params lint) are leaked once. Lint fixtures are tiny and
/// short-lived, so the leak is bounded and intentional.
fn intern_param_id(id: &str) -> &'static str {
    if let Some(p) = crate::params::ckks_params(id) {
        return p.id;
    }
    if let Some(p) = crate::params::tfhe_params(id) {
        return p.id;
    }
    Box::leak(id.to_owned().into_boxed_str())
}

// ------------------------------------------------------------- traces

/// Serializes a trace to the v1 text form.
pub fn trace_to_text(trace: &Trace) -> String {
    let mut out = String::from("# ufc trace v1\n");
    out.push_str(&format!("trace {}\n", trace.name));
    if let Some(id) = trace.ckks_params {
        out.push_str(&format!("ckks {id}\n"));
    }
    if let Some(id) = trace.tfhe_params {
        out.push_str(&format!("tfhe {id}\n"));
    }
    for op in &trace.ops {
        let line = match *op {
            TraceOp::CkksAdd { level } => format!("op CkksAdd level={level}"),
            TraceOp::CkksMulPlain { level } => format!("op CkksMulPlain level={level}"),
            TraceOp::CkksMulCt { level } => format!("op CkksMulCt level={level}"),
            TraceOp::CkksRescale { level } => format!("op CkksRescale level={level}"),
            TraceOp::CkksRotate { level, step } => {
                format!("op CkksRotate level={level} step={step}")
            }
            TraceOp::CkksConjugate { level } => format!("op CkksConjugate level={level}"),
            TraceOp::CkksModRaise { from_level } => {
                format!("op CkksModRaise from_level={from_level}")
            }
            TraceOp::TfhePbs { batch } => format!("op TfhePbs batch={batch}"),
            TraceOp::TfheKeySwitch { batch } => format!("op TfheKeySwitch batch={batch}"),
            TraceOp::TfheLinear { count } => format!("op TfheLinear count={count}"),
            TraceOp::Extract { level, count } => format!("op Extract level={level} count={count}"),
            TraceOp::Repack { count, level } => format!("op Repack count={count} level={level}"),
            TraceOp::SchemeTransfer { bytes } => format!("op SchemeTransfer bytes={bytes}"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Parses the v1 trace text form.
pub fn trace_from_text(text: &str) -> Result<Trace, ParseError> {
    let mut trace: Option<Trace> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (word, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match word {
            "trace" => {
                if trace.is_some() {
                    return Err(ParseError::new(lineno, "duplicate `trace` header"));
                }
                if rest.is_empty() {
                    return Err(ParseError::new(lineno, "`trace` needs a name"));
                }
                trace = Some(Trace::new(rest));
            }
            "ckks" | "tfhe" => {
                let t = trace
                    .as_mut()
                    .ok_or_else(|| ParseError::new(lineno, "params before `trace` header"))?;
                if rest.is_empty() {
                    return Err(ParseError::new(lineno, format!("`{word}` needs an id")));
                }
                let id = intern_param_id(rest);
                if word == "ckks" {
                    t.ckks_params = Some(id);
                } else {
                    t.tfhe_params = Some(id);
                }
            }
            "op" => {
                let t = trace
                    .as_mut()
                    .ok_or_else(|| ParseError::new(lineno, "op before `trace` header"))?;
                t.push(parse_op(rest, lineno)?);
            }
            other => {
                return Err(ParseError::new(
                    lineno,
                    format!("unknown directive `{other}`"),
                ));
            }
        }
    }
    trace.ok_or_else(|| ParseError::new(0, "no `trace` header found"))
}

fn parse_op(rest: &str, line: usize) -> Result<TraceOp, ParseError> {
    let mut parts = rest.split_whitespace();
    let name = parts
        .next()
        .ok_or_else(|| ParseError::new(line, "`op` needs an operation name"))?;
    let fields = Fields::parse(&parts.collect::<Vec<_>>(), line)?;
    let op = match name {
        "CkksAdd" => TraceOp::CkksAdd {
            level: fields.num("level")?,
        },
        "CkksMulPlain" => TraceOp::CkksMulPlain {
            level: fields.num("level")?,
        },
        "CkksMulCt" => TraceOp::CkksMulCt {
            level: fields.num("level")?,
        },
        "CkksRescale" => TraceOp::CkksRescale {
            level: fields.num("level")?,
        },
        "CkksRotate" => TraceOp::CkksRotate {
            level: fields.num("level")?,
            step: fields.num("step")?,
        },
        "CkksConjugate" => TraceOp::CkksConjugate {
            level: fields.num("level")?,
        },
        "CkksModRaise" => TraceOp::CkksModRaise {
            from_level: fields.num("from_level")?,
        },
        "TfhePbs" => TraceOp::TfhePbs {
            batch: fields.num("batch")?,
        },
        "TfheKeySwitch" => TraceOp::TfheKeySwitch {
            batch: fields.num("batch")?,
        },
        "TfheLinear" => TraceOp::TfheLinear {
            count: fields.num("count")?,
        },
        "Extract" => TraceOp::Extract {
            level: fields.num("level")?,
            count: fields.num("count")?,
        },
        "Repack" => TraceOp::Repack {
            count: fields.num("count")?,
            level: fields.num("level")?,
        },
        "SchemeTransfer" => TraceOp::SchemeTransfer {
            bytes: fields.num("bytes")?,
        },
        other => {
            return Err(ParseError::new(line, format!("unknown trace op `{other}`")));
        }
    };
    Ok(op)
}

// ------------------------------------------------------------ streams

/// Serializes an instruction stream to the v1 text form.
pub fn stream_to_text(stream: &InstrStream) -> String {
    let mut out = String::from("# ufc stream v1\nstream\n");
    for i in stream.instrs() {
        let pack = if i.pack == u32::MAX {
            "max".to_string()
        } else {
            i.pack.to_string()
        };
        let deps: Vec<String> = i
            .deps
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        out.push_str(&format!(
            "instr id={} kernel={} log_n={} count={} word={} hbm={} phase={} pack={} deps={}\n",
            i.id,
            i.kernel.name(),
            i.shape.log_n,
            i.shape.count,
            i.word_bits,
            i.hbm_bytes,
            i.phase.name(),
            pack,
            deps.join(","),
        ));
    }
    out
}

/// Parses the v1 stream text form.
///
/// Structural validation only: semantically invalid streams (forward
/// dependencies, non-contiguous ids) parse successfully so the
/// verifier can diagnose them.
pub fn stream_from_text(text: &str) -> Result<InstrStream, ParseError> {
    let mut seen_header = false;
    let mut instrs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (word, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        match word {
            "stream" => {
                if seen_header {
                    return Err(ParseError::new(lineno, "duplicate `stream` header"));
                }
                seen_header = true;
            }
            "instr" => {
                if !seen_header {
                    return Err(ParseError::new(lineno, "instr before `stream` header"));
                }
                instrs.push(parse_instr(rest.trim(), lineno)?);
            }
            other => {
                return Err(ParseError::new(
                    lineno,
                    format!("unknown directive `{other}`"),
                ));
            }
        }
    }
    if !seen_header {
        return Err(ParseError::new(0, "no `stream` header found"));
    }
    Ok(InstrStream::from_raw(instrs))
}

fn parse_instr(rest: &str, line: usize) -> Result<MacroInstr, ParseError> {
    let fields = Fields::parse(&rest.split_whitespace().collect::<Vec<_>>(), line)?;
    let kernel_name = fields.get("kernel")?;
    let kernel = Kernel::parse(kernel_name)
        .ok_or_else(|| ParseError::new(line, format!("unknown kernel `{kernel_name}`")))?;
    let phase_name = fields.get("phase")?;
    let phase = Phase::parse(phase_name)
        .ok_or_else(|| ParseError::new(line, format!("unknown phase `{phase_name}`")))?;
    let pack_str = fields.get("pack")?;
    let pack = if pack_str == "max" {
        u32::MAX
    } else {
        pack_str.parse().map_err(|_| {
            ParseError::new(line, format!("field `pack`: invalid number `{pack_str}`"))
        })?
    };
    let deps_str = fields.get("deps")?;
    let mut deps = Vec::new();
    if !deps_str.is_empty() {
        for d in deps_str.split(',') {
            deps.push(
                d.parse().map_err(|_| {
                    ParseError::new(line, format!("field `deps`: invalid id `{d}`"))
                })?,
            );
        }
    }
    let log_n = fields.num("log_n")?;
    if log_n > MAX_LOG_N {
        return Err(ParseError::new(
            line,
            format!("field `log_n`: {log_n} exceeds the maximum {MAX_LOG_N}"),
        ));
    }
    Ok(MacroInstr {
        id: fields.num("id")?,
        kernel,
        shape: PolyShape::new(log_n, fields.num("count")?),
        word_bits: fields.num("word")?,
        deps,
        hbm_bytes: fields.num("hbm")?,
        phase,
        pack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new("round/trip").with_ckks("C2").with_tfhe("T1");
        t.push(TraceOp::CkksMulCt { level: 20 });
        t.push(TraceOp::CkksRotate {
            level: 20,
            step: -3,
        });
        t.push(TraceOp::CkksRescale { level: 20 });
        t.push(TraceOp::Extract {
            level: 5,
            count: 64,
        });
        t.push(TraceOp::TfhePbs { batch: 64 });
        t.push(TraceOp::Repack {
            count: 64,
            level: 5,
        });
        t.push(TraceOp::SchemeTransfer { bytes: 4096 });
        t
    }

    #[test]
    fn trace_round_trips() {
        let t = sample_trace();
        let text = trace_to_text(&t);
        let back = trace_from_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn every_op_variant_round_trips() {
        let ops = [
            TraceOp::CkksAdd { level: 1 },
            TraceOp::CkksMulPlain { level: 2 },
            TraceOp::CkksMulCt { level: 3 },
            TraceOp::CkksRescale { level: 4 },
            TraceOp::CkksRotate { level: 5, step: -7 },
            TraceOp::CkksConjugate { level: 6 },
            TraceOp::CkksModRaise { from_level: 0 },
            TraceOp::TfhePbs { batch: 8 },
            TraceOp::TfheKeySwitch { batch: 9 },
            TraceOp::TfheLinear { count: 10 },
            TraceOp::Extract { level: 1, count: 2 },
            TraceOp::Repack { count: 3, level: 4 },
            TraceOp::SchemeTransfer { bytes: u64::MAX },
        ];
        let mut t = Trace::new("all-ops");
        for op in ops {
            t.push(op);
        }
        let back = trace_from_text(&trace_to_text(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn unknown_param_ids_survive_parsing() {
        let text = "trace x\nckks C9\ntfhe T9\nop CkksAdd level=1\n";
        let t = trace_from_text(text).unwrap();
        assert_eq!(t.ckks_params, Some("C9"));
        assert_eq!(t.tfhe_params, Some("T9"));
    }

    #[test]
    fn known_param_ids_intern_to_registry() {
        let t = trace_from_text("trace x\nckks C1\n").unwrap();
        let registry_id = crate::params::ckks_params("C1").unwrap().id;
        assert!(std::ptr::eq(t.ckks_params.unwrap(), registry_id));
    }

    #[test]
    fn trace_parse_errors_carry_line_numbers() {
        let err = trace_from_text("trace x\nop Bogus level=1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("Bogus"));
        let err = trace_from_text("op CkksAdd level=1\n").unwrap_err();
        assert!(err.message.contains("before `trace`"));
        let err = trace_from_text("").unwrap_err();
        assert_eq!(err.line, 0);
    }

    #[test]
    fn stream_round_trips() {
        let mut s = InstrStream::new();
        let a = s.push(
            Kernel::Load,
            PolyShape::new(16, 2),
            36,
            vec![],
            1 << 20,
            Phase::Other,
        );
        let b = s.push(
            Kernel::Ntt,
            PolyShape::new(16, 42),
            36,
            vec![a],
            0,
            Phase::CkksEval,
        );
        let bar = s.push(
            Kernel::Barrier,
            PolyShape::new(0, 1),
            32,
            vec![a, b],
            0,
            Phase::TfheBlindRotate,
        );
        s.push_packed(
            Kernel::Ewmm,
            PolyShape::new(10, 8),
            32,
            vec![a, bar],
            4096,
            Phase::TfheBlindRotate,
            4,
        );
        let text = stream_to_text(&s);
        assert!(text.contains("kernel=Barrier log_n=0 count=1"), "{text}");
        let back = stream_from_text(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn malformed_streams_parse_for_the_verifier() {
        // Forward dependency + non-contiguous id: structurally fine,
        // semantically broken — the verifier's job, not the parser's.
        let text = "stream\n\
            instr id=0 kernel=Ntt log_n=10 count=1 word=36 hbm=0 phase=Other pack=max deps=5\n\
            instr id=7 kernel=Ewma log_n=10 count=1 word=36 hbm=0 phase=Other pack=max deps=\n";
        let s = stream_from_text(text).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.instrs()[0].deps, vec![5]);
        assert_eq!(s.instrs()[1].id, 7);
    }

    #[test]
    fn stream_parse_errors_carry_line_numbers() {
        let err = stream_from_text("stream\ninstr id=0 kernel=Wat log_n=1 count=1 word=36 hbm=0 phase=Other pack=max deps=\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("Wat"));
        let err = stream_from_text("instr id=0\n").unwrap_err();
        assert!(err.message.contains("before `stream`"));
    }

    #[test]
    fn stream_log_n_past_the_bound_is_a_parse_error() {
        let line = |log_n: u32| {
            format!("stream\ninstr id=0 kernel=Ntt log_n={log_n} count=1 word=36 hbm=0 phase=Other pack=max deps=\n")
        };
        let s = stream_from_text(&line(MAX_LOG_N)).unwrap();
        assert_eq!(s.instrs()[0].shape.elems(), 1 << MAX_LOG_N);
        for log_n in [MAX_LOG_N + 1, 64, 119657, u32::MAX] {
            let err = stream_from_text(&line(log_n)).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.message.contains("log_n"), "{err}");
        }
    }
}
