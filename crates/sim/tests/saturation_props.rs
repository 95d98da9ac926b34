//! Never-panic property for the cost models: every stream line the
//! parser accepts within its bounds (`log_n ≤ MAX_LOG_N`, the full
//! `count` / `word` / `hbm` / `pack` ranges, every kernel) simulates on
//! all four machines. Cycle, op-count and byte arithmetic saturates
//! instead of overflowing — the debug-build `cargo test` run is the
//! one with overflow checks on.

#[path = "support/stream_lines.rs"]
mod stream_lines;

use proptest::prelude::*;
use stream_lines::{machines, random_stream, Gen};
use ufc_isa::instr::Kernel;
use ufc_isa::serial::stream_from_text;
use ufc_sim::simulate;

fn simulate_everywhere(text: &str) {
    let stream = stream_from_text(text).expect("in-bound stream parses");
    for machine in machines() {
        let report = simulate(machine.as_ref(), &stream);
        assert!(report.energy_j >= 0.0, "{}", machine.name());
    }
}

#[test]
fn widest_ntt_line_simulates_on_every_machine() {
    simulate_everywhere(
        "stream\ninstr id=0 kernel=Ntt log_n=32 count=4294967295 word=64 hbm=0 \
         phase=CkksEval pack=max deps=",
    );
}

proptest! {
    #[test]
    fn in_bound_stream_lines_never_panic(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for kernel in Kernel::ALL {
            simulate_everywhere(&random_stream(&mut g, kernel));
        }
    }
}
