//! Random in-bound stream text for the never-panic properties of the
//! cost models (`ufc-sim`) and of `ufc-profile`'s report path
//! (`ufc-core`): every field within the parser's bounds
//! (`log_n ≤ MAX_LOG_N`, the full `count` / `word` / `hbm` / `pack`
//! ranges), biased towards the edges of each range.

use ufc_isa::instr::{Kernel, Phase, MAX_LOG_N};
use ufc_sim::machines::{ComposedMachine, Machine, SharpMachine, StrixMachine, UfcMachine};

/// Deterministic splitmix-style generator (same idiom as the other
/// property suites: structured values come from one drawn seed).
pub struct Gen(pub u64);

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

/// The four machines every stream is run on.
pub fn machines() -> Vec<Box<dyn Machine>> {
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

/// A stream of one to three lines whose last line runs `kernel`;
/// earlier lines mix kernels so dependency chains accumulate.
pub fn random_stream(g: &mut Gen, kernel: Kernel) -> String {
    let len = 1 + g.below(3) as usize;
    let mut text = String::from("stream\n");
    for id in 0..len {
        let k = if id + 1 == len {
            kernel
        } else {
            Kernel::ALL[g.below(Kernel::ALL.len() as u64) as usize]
        };
        text.push_str(&instr_line(g, id, k));
        text.push('\n');
    }
    text
}
