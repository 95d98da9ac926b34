//! Round-trip and never-panic property tests for the native text
//! serialization.
//!
//! The on-disk v1 form replaces a serde stack (offline build, see
//! `shims/README.md`), so the round-trip guarantee — `parse(print(x))
//! == x` for *every* representable trace and stream, including
//! semantically malformed ones — is load-bearing: `ufc-lint` must see
//! exactly what the producer wrote. The parsers also read files from
//! outside the workspace, so on any input — random bytes or a printed
//! text with one token broken — they must return a value or a
//! line-numbered `ParseError`, never panic.

use proptest::prelude::*;
use ufc_isa::instr::{InstrStream, Kernel, MacroInstr, Phase, PolyShape};
use ufc_isa::serial::{
    stream_from_text, stream_to_text, trace_from_text, trace_to_text, ParseError,
};
use ufc_isa::trace::{Trace, TraceOp};

/// Deterministic splitmix-style generator: the proptest shim's
/// strategies compose only shallowly, so structured values are built
/// from a single drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z ^ (z >> 27)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn random_op(g: &mut Gen) -> TraceOp {
    match g.below(13) {
        0 => TraceOp::CkksAdd {
            level: g.below(40) as u32,
        },
        1 => TraceOp::CkksMulPlain {
            level: g.below(40) as u32,
        },
        2 => TraceOp::CkksMulCt {
            level: g.below(40) as u32,
        },
        3 => TraceOp::CkksRescale {
            level: g.below(40) as u32,
        },
        4 => TraceOp::CkksRotate {
            level: g.below(40) as u32,
            step: g.next() as i32 % 1000,
        },
        5 => TraceOp::CkksConjugate {
            level: g.below(40) as u32,
        },
        6 => TraceOp::CkksModRaise {
            from_level: g.below(40) as u32,
        },
        7 => TraceOp::TfhePbs {
            batch: g.below(1 << 16) as u32,
        },
        8 => TraceOp::TfheKeySwitch {
            batch: g.below(1 << 16) as u32,
        },
        9 => TraceOp::TfheLinear {
            count: g.below(1 << 16) as u32,
        },
        10 => TraceOp::Extract {
            level: g.below(40) as u32,
            count: g.below(1 << 12) as u32,
        },
        11 => TraceOp::Repack {
            count: g.below(1 << 12) as u32,
            level: g.below(40) as u32,
        },
        _ => TraceOp::SchemeTransfer { bytes: g.next() },
    }
}

fn random_trace(seed: u64) -> Trace {
    let mut g = Gen(seed | 1);
    let mut t = Trace::new(format!("prop/{seed}"));
    // Known registry ids intern to 'static registry strings; unknown
    // ids must survive verbatim (the unknown-params lint depends on it).
    t.ckks_params = match g.below(4) {
        0 => None,
        1 => Some("C1"),
        2 => Some("C3"),
        _ => Some("C9"),
    };
    t.tfhe_params = match g.below(4) {
        0 => None,
        1 => Some("T1"),
        2 => Some("T4"),
        _ => Some("T0"),
    };
    for _ in 0..g.below(24) {
        t.push(random_op(&mut g));
    }
    t
}

fn random_stream(seed: u64) -> InstrStream {
    let mut g = Gen(seed | 1);
    let n = g.below(24) as usize;
    let mut instrs = Vec::with_capacity(n);
    for pos in 0..n {
        let kernel = Kernel::ALL[g.below(Kernel::ALL.len() as u64) as usize];
        let phase = Phase::ALL[g.below(Phase::ALL.len() as u64) as usize];
        let word_bits = [8u32, 32, 36, 17][g.below(4) as usize];
        let mut deps = Vec::new();
        for _ in 0..g.below(4) {
            // Mostly backward edges, occasionally dangling/forward:
            // malformed streams are representable by design.
            deps.push(g.below(pos as u64 + 3) as usize);
        }
        let pack = match g.below(3) {
            0 => u32::MAX,
            _ => g.below(64) as u32,
        };
        instrs.push(MacroInstr {
            // Ids usually equal position; sometimes not (the verifier's
            // id-mismatch lint needs the gap to survive a round trip).
            id: if g.below(8) == 0 { pos + 7 } else { pos },
            kernel,
            shape: PolyShape::new(g.below(17) as u32, g.below(512) as u32),
            word_bits,
            deps,
            hbm_bytes: g.below(1 << 30),
            phase,
            pack,
        });
    }
    InstrStream::from_raw(instrs)
}

/// Checks the parser contract on outside input: `Ok`, or an error
/// whose line number points into `text` (0 = the input as a whole).
fn assert_typed<T>(text: &str, result: Result<T, ParseError>) {
    if let Err(e) = result {
        assert!(
            e.line <= text.lines().count(),
            "error line {} past the end of the input: {e}",
            e.line
        );
        assert!(
            !e.message.is_empty(),
            "error without a message at line {}",
            e.line
        );
    }
}

/// Replacement tokens for the mutation property: bare and doubled
/// separators, empty, negative and overflowing fields, list edge
/// cases, directive words out of place, and multi-byte or control
/// characters.
const JUNK: [&str; 26] = [
    "",
    "=",
    "==",
    "level=",
    "=7",
    "level=-1",
    "level=4294967296",
    "step=99999999999",
    "bytes=18446744073709551616",
    "deps=,",
    "deps=1,,2",
    "deps=-3",
    "pack=",
    "pack=-1",
    "log_n=64",
    "kernel=",
    "phase=Nope",
    "trace",
    "stream",
    "instr",
    "op",
    "ckks",
    "#",
    "é=ü",
    "\u{0}",
    "\u{feff}",
];

/// Applies one token-level edit to a printed text: token `k` of a
/// random line is replaced by a [`JUNK`] token, duplicated, or cut at
/// a random char boundary.
fn mutate(text: &str, g: &mut Gen) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if lines.is_empty() {
        return text.to_owned();
    }
    let l = g.below(lines.len() as u64) as usize;
    let mut tokens: Vec<String> = lines[l].split(' ').map(str::to_owned).collect();
    let k = g.below(tokens.len() as u64) as usize;
    match g.below(3) {
        0 => tokens[k] = JUNK[g.below(JUNK.len() as u64) as usize].to_owned(),
        1 => {
            let dup = tokens[k].clone();
            tokens.insert(k, dup);
        }
        _ => {
            let cuts: Vec<usize> = tokens[k].char_indices().map(|(i, _)| i).collect();
            let cut = cuts
                .get(g.below(cuts.len() as u64) as usize)
                .copied()
                .unwrap_or(0);
            tokens[k].truncate(cut);
        }
    }
    lines[l] = tokens.join(" ");
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_trace_text_round_trips(seed in any::<u64>()) {
        let t = random_trace(seed);
        let text = trace_to_text(&t);
        let back = trace_from_text(&text).expect("printed traces parse");
        prop_assert_eq!(t, back);
    }

    #[test]
    fn prop_trace_printing_is_deterministic(seed in any::<u64>()) {
        let t = random_trace(seed);
        prop_assert_eq!(trace_to_text(&t), trace_to_text(&t.clone()));
    }

    #[test]
    fn prop_stream_text_round_trips(seed in any::<u64>()) {
        let s = random_stream(seed);
        let text = stream_to_text(&s);
        let back = stream_from_text(&text).expect("printed streams parse");
        prop_assert_eq!(s, back);
    }

    #[test]
    fn prop_stream_reprint_is_fixed_point(seed in any::<u64>()) {
        let s = random_stream(seed);
        let text = stream_to_text(&s);
        let reprinted = stream_to_text(&stream_from_text(&text).unwrap());
        prop_assert_eq!(text, reprinted);
    }

    #[test]
    fn prop_parsers_never_panic_on_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        header in 0u64..3
    ) {
        let body = String::from_utf8_lossy(&bytes);
        // Random bytes almost never form a header, so also feed them
        // after a valid one to reach the op and instr parsers.
        let text = match header {
            0 => body.into_owned(),
            1 => format!("trace t\nop {body}"),
            _ => format!("stream\ninstr {body}"),
        };
        assert_typed(&text, trace_from_text(&text));
        assert_typed(&text, stream_from_text(&text));
    }

    #[test]
    fn prop_parsers_never_panic_on_mutated_texts(seed in any::<u64>()) {
        let mut g = Gen(seed ^ 0x5eed);
        let trace = mutate(&trace_to_text(&random_trace(seed)), &mut g);
        assert_typed(&trace, trace_from_text(&trace));
        let stream = mutate(&stream_to_text(&random_stream(seed)), &mut g);
        assert_typed(&stream, stream_from_text(&stream));
    }
}
