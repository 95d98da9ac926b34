//! Never-panic property for `ufc-profile`'s report path: every stream
//! line the parser accepts within its bounds (`log_n ≤ MAX_LOG_N`, the
//! full `count` / `word` / `hbm` / `pack` ranges, every kernel) goes
//! through [`profile_stream`] on all four machines, and the profiled
//! run renders its summary (critical path included), counters and
//! Perfetto JSON. The debug-build `cargo test` run is the one with
//! overflow checks on.

#[path = "../../sim/tests/support/stream_lines.rs"]
mod stream_lines;

use proptest::prelude::*;
use stream_lines::{machines, random_stream, Gen};
use ufc_core::profile_stream;
use ufc_isa::instr::Kernel;
use ufc_isa::serial::stream_from_text;

fn profile_everywhere(text: &str) {
    let stream = stream_from_text(text).expect("in-bound stream parses");
    for machine in machines() {
        let run = profile_stream(machine.as_ref(), &stream, None);
        assert_eq!(run.summary().instrs, stream.len(), "{}", machine.name());
        let _ = run.metrics();
        assert!(run.perfetto_json().starts_with('{'), "{}", machine.name());
    }
}

#[test]
fn widest_lines_profile_on_every_machine() {
    // Two max-field lines: their summed `hbm` bytes overflow a plain
    // `u64` counter.
    profile_everywhere(
        "stream\n\
         instr id=0 kernel=Ntt log_n=32 count=4294967295 word=4294967295 \
         hbm=18446744073709551615 phase=CkksEval pack=max deps=\n\
         instr id=1 kernel=Ntt log_n=32 count=4294967295 word=4294967295 \
         hbm=18446744073709551615 phase=CkksEval pack=max deps=0",
    );
}

proptest! {
    #[test]
    fn in_bound_stream_lines_never_panic_in_profile(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for kernel in Kernel::ALL {
            profile_everywhere(&random_stream(&mut g, kernel));
        }
    }
}
