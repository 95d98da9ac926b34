//! Never-panic property tests for `verify_text`, the entry point of
//! `ufc-lint`.
//!
//! The verifier reads files from outside the workspace, so on any
//! input — random bytes, or a fixture with one token replaced,
//! duplicated or cut — it must return a report or a line-numbered
//! `ParseError` under every target, with and without the noise pass,
//! never panic.

use proptest::prelude::*;
use ufc_isa::serial::ParseError;
use ufc_verify::{verify_text, Artifact, Report, Target, VerifyOptions};

/// Deterministic splitmix-style generator: the proptest shim's
/// strategies compose only shallowly, so edits are drawn from a
/// single seed.
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

/// Every option set the CLI can produce for one artifact: each target,
/// with and without the noise pass.
fn all_options() -> Vec<VerifyOptions> {
    [Target::Any, Target::Ufc, Target::Composed]
        .into_iter()
        .flat_map(|t| {
            let opts = VerifyOptions::for_target(t);
            [opts, opts.with_noise()]
        })
        .collect()
}

/// Every `.trace` and `.stream` fixture, as `(file name, text)`.
fn fixtures() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("fixture directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace" || x == "stream"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("fixture text"))
        })
        .collect();
    out.sort();
    out
}

/// Runs `text` under every option set; each call must return a report
/// or a typed error whose line number points into `text`.
fn assert_never_panics(text: &str) {
    for opts in all_options() {
        let result: Result<(Artifact, Report), ParseError> = verify_text(text, &opts);
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
}

/// A replacement token: `0`, `u64::MAX`, or a random word (a random
/// 64-bit value shifted to a random magnitude, so small and `u32`-range
/// values are as likely as huge ones).
fn replacement(g: &mut Gen) -> String {
    match g.below(3) {
        0 => "0".to_owned(),
        1 => u64::MAX.to_string(),
        _ => (g.next() >> g.below(64)).to_string(),
    }
}

/// Applies one token-level edit to a fixture: token `k` of a random
/// line is replaced (its value only, for `key=value` tokens, half the
/// time), duplicated, or cut at a random char boundary.
fn mutate(text: &str, g: &mut Gen) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if lines.is_empty() {
        return text.to_owned();
    }
    let l = g.below(lines.len() as u64) as usize;
    let mut tokens: Vec<String> = lines[l].split(' ').map(str::to_owned).collect();
    let k = g.below(tokens.len() as u64) as usize;
    match g.below(3) {
        0 => {
            let new = replacement(g);
            tokens[k] = match tokens[k].split_once('=') {
                Some((key, _)) if g.below(2) == 0 => format!("{key}={new}"),
                _ => new,
            };
        }
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

#[test]
fn fixtures_verify_without_panicking() {
    let fixtures = fixtures();
    assert!(fixtures.len() > 30, "fixture corpus went missing");
    for (_, text) in &fixtures {
        assert_never_panics(text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_verify_never_panics_on_random_bytes(
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
        assert_never_panics(&text);
    }

    #[test]
    fn prop_verify_never_panics_on_mutated_fixtures(seed in any::<u64>()) {
        let mut g = Gen(seed ^ 0x11e7);
        for (name, text) in fixtures() {
            let mutated = mutate(&text, &mut g);
            let outcome = std::panic::catch_unwind(|| assert_never_panics(&mutated));
            prop_assert!(
                outcome.is_ok(),
                "verify_text panicked on mutated {}:\n{}",
                name,
                mutated
            );
        }
    }
}
