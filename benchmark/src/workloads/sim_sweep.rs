//! `sim_sweep`: the accelerator-model half of the repository. Set-up
//! generates the 24 Fig. 10(a)/(b) traces (the CKKS workloads on C1–C3
//! and the TFHE workloads on T1–T4) and sweeps them once. Each request
//! compiles every trace with the barrier-aware compiler and simulates it
//! on the paper's UFC configuration; the cycle count of every trace must
//! match `sim_golden.json`. Each trace is timed as a stage of its own.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::Rng;
use ufc_core::runner::{try_compile_with_barriers_stats, Ufc};
use ufc_isa::trace::Trace;
use ufc_sim::simulate;
use ufc_trace::span;
use ufc_workloads::{all_ckks_workloads, all_tfhe_workloads};

use super::{seeded_rng, Outcome, Workload, INPUTS};

const CKKS_SETS: [&str; 3] = ["C1", "C2", "C3"];
const TFHE_SETS: [&str; 4] = ["T1", "T2", "T3", "T4"];

/// Pinned cycle counts, one `"<set>/<trace name>": cycles` entry per trace.
const GOLDEN: &str = include_str!("../../sim_golden.json");

/// The UFC instance, the sweep traces and the pinned cycle counts.
pub struct SimSweep {
    seed: u64,
    ufc: Ufc,
    traces: Vec<(String, Trace)>,
    golden: Vec<(String, u64)>,
}

/// The 24 sweep traces, keyed `"<set>/<trace name>"`.
pub fn sweep_traces() -> Vec<(String, Trace)> {
    let ckks = CKKS_SETS
        .iter()
        .flat_map(|&p| all_ckks_workloads(p).into_iter().map(move |t| (p, t)));
    let tfhe = TFHE_SETS
        .iter()
        .flat_map(|&p| all_tfhe_workloads(p).into_iter().map(move |t| (p, t)));
    ckks.chain(tfhe)
        .map(|(p, t)| (format!("{p}/{}", t.name), t))
        .collect()
}

/// The order request `index` visits the traces in: a seeded shuffle, so
/// the sweep's cache history depends on the seed, never its answer.
pub fn visit_order(seed: u64, index: u64, len: usize) -> Vec<usize> {
    let mut rng = seeded_rng(seed, INPUTS, index);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Parses `sim_golden.json`.
///
/// # Panics
///
/// Panics when the embedded file is not an object of integer counts.
pub fn golden() -> Vec<(String, u64)> {
    match serde_json::from_str(GOLDEN).expect("sim_golden.json parses") {
        serde::Value::Object(entries) => entries
            .into_iter()
            .map(|(k, v)| {
                let cycles = v.as_u64().expect("cycle counts are integers");
                (k, cycles)
            })
            .collect(),
        other => panic!("sim_golden.json must be an object, found {other:?}"),
    }
}

impl SimSweep {
    /// Generates the sweep traces and sweeps them once.
    pub fn new(seed: u64) -> Self {
        let sweep = Self {
            seed,
            ufc: Ufc::paper_default(),
            traces: sweep_traces(),
            golden: golden(),
        };
        // One sweep to warm caches and the allocator, which a simulator
        // user pays once per process.
        let order: Vec<usize> = (0..sweep.traces.len()).collect();
        black_box(sweep.sweep(&order));
        sweep
    }

    /// Compiles and simulates every trace in `order`, returning `(key,
    /// cycles, time)` in trace order, with `None` cycles for a trace that
    /// failed to compile.
    fn sweep(&self, order: &[usize]) -> Vec<(String, Option<u64>, Duration)> {
        let mut cycles = vec![(String::new(), None, Duration::ZERO); self.traces.len()];
        for &i in order {
            let start = Instant::now();
            let (key, trace) = &self.traces[i];
            let compiled = {
                let _s = span("bench", "compiler");
                try_compile_with_barriers_stats(trace, *self.ufc.options())
            };
            let result = compiled.ok().and_then(|(stream, stats)| {
                let _s = span("bench", "sim");
                let machine = self.ufc.try_machine_for(trace).ok()?;
                let cycles = simulate(&machine, &stream).cycles;
                // Freed inside the span, so tearing the stream down is
                // not left to the benchmark's own share.
                drop((stream, stats));
                Some(cycles)
            });
            cycles[i] = (key.clone(), result, start.elapsed());
        }
        cycles
    }

    /// The current cycle counts as `sim_golden.json` content.
    pub fn golden_json(&self) -> String {
        let order: Vec<usize> = (0..self.traces.len()).collect();
        let entries = self
            .sweep(&order)
            .into_iter()
            .map(|(k, c, _)| (k, serde::Value::U64(c.expect("every sweep trace compiles"))))
            .collect();
        serde::Value::Object(entries).to_json_pretty()
    }
}

impl Workload for SimSweep {
    fn request(&mut self, index: u64) -> Outcome {
        let order = visit_order(self.seed, index, self.traces.len());
        let cycles = self.sweep(&order);

        let start = Instant::now();
        let ok = {
            let _s = span("bench", "client");
            cycles.len() == self.golden.len()
                && cycles
                    .iter()
                    .zip(&self.golden)
                    .all(|((key, got, _), (want_key, want))| key == want_key && *got == Some(*want))
        };
        Outcome {
            server: cycles.iter().map(|&(_, _, time)| time).collect(),
            client: start.elapsed(),
            ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_pins_every_sweep_trace_once_in_order() {
        let pinned: Vec<String> = golden().into_iter().map(|(k, _)| k).collect();
        let swept: Vec<String> = sweep_traces().into_iter().map(|(k, _)| k).collect();
        assert_eq!(pinned, swept);
        let mut unique = swept.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 24);
    }

    #[test]
    fn visit_order_is_a_seeded_permutation() {
        let order = visit_order(9, 2, 24);
        assert_eq!(order, visit_order(9, 2, 24));
        assert_ne!(order, visit_order(9, 3, 24));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }
}
