//! Never-panic property for the cost models: every stream line the
//! parser accepts within its bounds (`log_n ≤ MAX_LOG_N`, the full
//! `count` / `word` / `hbm` / `pack` ranges, every kernel) simulates on
//! all four machines. Cycle, op-count and byte arithmetic saturates
//! instead of overflowing — the debug-build `cargo test` run is the
//! one with overflow checks on.

use proptest::prelude::*;
use ufc_isa::instr::{Kernel, Phase, MAX_LOG_N};
use ufc_isa::serial::stream_from_text;
use ufc_sim::machines::{ComposedMachine, Machine, SharpMachine, StrixMachine, UfcMachine};
use ufc_sim::simulate;

/// Deterministic splitmix-style generator (same idiom as the other
/// property suites: structured values come from one drawn seed).
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

    /// A value in `0..=max`, biased towards the range's edges.
    fn edge(&mut self, max: u64) -> u64 {
        match self.below(4) {
            0 => max,
            1 => max.saturating_sub(self.below(4)),
            2 => self.below(4).min(max),
            _ => self.next() % max.saturating_add(1).max(1),
        }
    }
}

fn machines() -> Vec<Box<dyn Machine>> {
    vec![
        Box::new(UfcMachine::paper_default()),
        Box::new(SharpMachine::new()),
        Box::new(StrixMachine::new()),
        Box::new(ComposedMachine::new()),
    ]
}

/// One `instr` line with in-bound fields; `deps` only name earlier
/// instructions.
fn instr_line(g: &mut Gen, id: usize, kernel: Kernel) -> String {
    let phase = Phase::ALL[g.below(Phase::ALL.len() as u64) as usize];
    let log_n = g.edge(u64::from(MAX_LOG_N));
    let count = g.edge(u64::from(u32::MAX));
    let word = g.edge(u64::from(u32::MAX));
    let hbm = g.edge(u64::MAX);
    let pack = match g.below(3) {
        0 => "max".to_owned(),
        _ => g.edge(u64::from(u32::MAX)).to_string(),
    };
    let deps: Vec<String> = (0..id)
        .filter(|_| g.below(2) == 0)
        .map(|d| d.to_string())
        .collect();
    format!(
        "instr id={id} kernel={} log_n={log_n} count={count} word={word} hbm={hbm} \
         phase={} pack={pack} deps={}",
        kernel.name(),
        phase.name(),
        deps.join(",")
    )
}

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
            let len = 1 + g.below(3) as usize;
            let mut text = String::from("stream\n");
            for id in 0..len {
                // The last line carries the kernel under test; earlier
                // ones mix kernels so dependency chains accumulate.
                let k = if id + 1 == len {
                    kernel
                } else {
                    Kernel::ALL[g.below(Kernel::ALL.len() as u64) as usize]
                };
                text.push_str(&instr_line(&mut g, id, k));
                text.push('\n');
            }
            simulate_everywhere(&text);
        }
    }
}
