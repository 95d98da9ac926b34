//! Behavioral tests of the machine models, beyond per-kernel units:
//! phase accounting, memory-bound regimes and energy bookkeeping.

use ufc_compiler::{CompileOptions, Compiler};
use ufc_isa::instr::{Kernel, MacroInstr, Phase, PolyShape};
use ufc_isa::trace::{Trace, TraceOp};
use ufc_sim::machines::{
    ComposedMachine, Machine, SharpMachine, StrixMachine, UfcConfig, UfcMachine,
};
use ufc_sim::simulate;

fn compile(tr: &Trace) -> ufc_isa::InstrStream {
    Compiler::try_for_trace(tr, CompileOptions::default())
        .and_then(|c| c.try_compile(tr))
        .expect("trace compiles")
        .0
}

fn pbs_stream(set: &'static str, batch: u32) -> ufc_isa::InstrStream {
    let mut tr = Trace::new("t").with_tfhe(set);
    tr.push(TraceOp::TfhePbs { batch });
    compile(&tr)
}

#[test]
fn phase_cycles_sum_close_to_makespan() {
    let m = UfcMachine::paper_default();
    let s = pbs_stream("T2", 32);
    let r = simulate(&m, &s);
    let total: u64 = r.phase_cycles.iter().map(|(_, c)| c).sum();
    // The stream is a single dependent chain, so attributed cycles
    // must cover most of the makespan.
    assert!(
        total >= r.cycles / 2,
        "phase sum {total} vs makespan {}",
        r.cycles
    );
    assert_eq!(r.phase_cycles[0].0, "TfheBlindRotate");
}

#[test]
fn t4_is_costlier_than_t1_on_both_machines() {
    let t1 = pbs_stream("T1", 32);
    let t4 = pbs_stream("T4", 32);
    for m in [
        &UfcMachine::paper_default() as &dyn Machine,
        &StrixMachine::new(),
    ] {
        let r1 = simulate(m, &t1);
        let r4 = simulate(m, &t4);
        // T4: N is 16x larger, n is 2x larger.
        assert!(
            r4.cycles > 8 * r1.cycles,
            "{}: T4 {} vs T1 {}",
            m.name(),
            r4.cycles,
            r1.cycles
        );
    }
}

#[test]
fn strix_pays_more_hbm_time_for_the_t4_key() {
    // Strix's 460 GB/s vs UFC's 1 TB/s: the T4 bootstrapping key
    // stream must occupy proportionally more of Strix's memory time.
    let s = pbs_stream("T4", 64);
    let ufc = simulate(&UfcMachine::paper_default(), &s);
    let strix = simulate(&StrixMachine::new(), &s);
    let ufc_hbm = ufc.util("Hbm") * ufc.cycles as f64;
    let strix_hbm = strix.util("Hbm2") * strix.cycles as f64;
    assert!(strix_hbm > 1.5 * ufc_hbm);
}

#[test]
fn energy_scales_with_work() {
    let m = UfcMachine::paper_default();
    let small = simulate(&m, &pbs_stream("T1", 8));
    let big = simulate(&m, &pbs_stream("T1", 64));
    assert!(big.dynamic_j > 4.0 * small.dynamic_j);
    // Static energy scales with time, not batch (batch packs).
    assert!(big.static_j < 16.0 * small.static_j);
}

#[test]
fn spill_fraction_slows_hbm_bound_streams() {
    let dry = UfcMachine::new(UfcConfig::default());
    let wet = UfcMachine::new(UfcConfig {
        spill_fraction: 0.5,
        ..UfcConfig::default()
    });
    let mut tr = Trace::new("c").with_ckks("C1");
    for _ in 0..16 {
        tr.push(TraceOp::CkksRotate { level: 30, step: 1 });
    }
    let s = compile(&tr);
    let a = simulate(&dry, &s);
    let b = simulate(&wet, &s);
    assert!(b.cycles >= a.cycles);
    assert!(b.util("Hbm") >= a.util("Hbm"));
}

#[test]
fn dedicated_network_is_faster_but_larger() {
    let base = UfcMachine::new(UfcConfig::default());
    let dedicated = UfcMachine::new(UfcConfig {
        dedicated_permutation_network: true,
        ..UfcConfig::default()
    });
    let mut tr = Trace::new("rot").with_ckks("C1");
    for _ in 0..8 {
        tr.push(TraceOp::CkksRotate { level: 30, step: 1 });
    }
    let s = compile(&tr);
    let a = simulate(&base, &s);
    let b = simulate(&dedicated, &s);
    assert!(b.cycles <= a.cycles, "dedicated network must not be slower");
    assert!(b.area_mm2 > a.area_mm2 + 30.0, "but it must pay area");
}

#[test]
fn every_machine_costs_a_barrier_as_free() {
    // Even a malformed barrier that names HBM bytes, on either side
    // of the composed machine's word-size dispatch, costs nothing:
    // no demand (the baselines bill at least one HBM cycle to every
    // other instruction) and no energy.
    let spilling = UfcMachine::new(UfcConfig {
        spill_fraction: 1.0,
        ..UfcConfig::default()
    });
    let machines: [&dyn Machine; 5] = [
        &UfcMachine::paper_default(),
        &spilling,
        &SharpMachine::new(),
        &StrixMachine::new(),
        &ComposedMachine::new(),
    ];
    for m in machines {
        for (word_bits, hbm_bytes) in [(36, 0), (32, 0), (8, 0), (36, 1 << 20), (32, 1 << 20)] {
            let barrier = MacroInstr {
                id: 0,
                kernel: Kernel::Barrier,
                shape: PolyShape::new(0, 1),
                word_bits,
                deps: vec![],
                hbm_bytes,
                phase: Phase::CkksEval,
                pack: u32::MAX,
            };
            let cost = m.cost(&barrier);
            assert!(cost.demands.is_empty(), "{}: {:?}", m.name(), cost.demands);
            assert_eq!(cost.energy_pj, 0.0, "{}", m.name());
        }
    }
}
