//! The paper's headline claims, asserted as regression bands. These
//! are the quantitative shapes EXPERIMENTS.md documents: exact values
//! differ from the paper (our substrate is a model, not the authors'
//! synthesis flow), but who wins — and by roughly what factor — must
//! hold.

use ufc_core::compare::{compare, geomean};
use ufc_core::Ufc;
use ufc_sim::machines::{ComposedMachine, SharpMachine, StrixMachine};

#[test]
fn ckks_workloads_favor_ufc_modestly() {
    // Paper Fig. 10(a): 1.1x delay, 1.4x energy, 1.5x EDP, 1.6x EDAP.
    let ufc = Ufc::paper_default();
    let sharp = SharpMachine::new();
    let rows: Vec<_> = ufc_workloads::all_ckks_workloads("C1")
        .iter()
        .map(|tr| compare(&ufc, &sharp, tr))
        .collect();
    let speedup = geomean(rows.iter().map(ufc_core::ComparisonRow::speedup));
    let energy = geomean(rows.iter().map(ufc_core::ComparisonRow::energy_gain));
    let edp = geomean(rows.iter().map(ufc_core::ComparisonRow::edp_gain));
    let edap = geomean(rows.iter().map(ufc_core::ComparisonRow::edap_gain));
    assert!((1.0..1.3).contains(&speedup), "speedup {speedup:.2}");
    assert!((1.2..1.7).contains(&energy), "energy {energy:.2}");
    assert!((1.3..1.9).contains(&edp), "edp {edp:.2}");
    assert!((1.4..2.0).contains(&edap), "edap {edap:.2}");
}

#[test]
fn tfhe_workloads_favor_ufc_strongly() {
    // Paper Fig. 10(b): ~6x faster, 1.2x energy, 1.5x EDAP.
    let ufc = Ufc::paper_default();
    let strix = StrixMachine::new();
    let mut speedups = Vec::new();
    for set in ["T1", "T2", "T3", "T4"] {
        let tr = ufc_workloads::tfhe_apps::pbs_throughput(set, 256);
        let r = compare(&ufc, &strix, &tr);
        speedups.push(r.speedup());
        assert!(
            (1.0..1.6).contains(&r.energy_gain()),
            "{set} energy {:.2}",
            r.energy_gain()
        );
        assert!(r.edap_gain() > 1.1, "{set} edap {:.2}", r.edap_gain());
    }
    let avg = geomean(speedups.iter().copied());
    assert!(
        (4.5..8.0).contains(&avg),
        "TFHE speedup {avg:.2} (paper: 6.0)"
    );
}

#[test]
fn hybrid_gap_widens_with_tfhe_parameter_size() {
    // Paper Fig. 11: modest at T1-T3, 2.8x at T4; 3.1x EDP / 3.7x
    // EDAP overall.
    let ufc = Ufc::paper_default();
    let composed = ComposedMachine::new();
    let rows: Vec<_> = ["T1", "T2", "T3", "T4"]
        .iter()
        .map(|set| {
            compare(
                &ufc,
                &composed,
                &ufc_workloads::knn::generate("C2", set, Default::default()),
            )
        })
        .collect();
    assert!(
        rows[3].speedup() > 1.5 * rows[0].speedup() / 1.05,
        "T4 must stand out"
    );
    let edap = geomean(rows.iter().map(ufc_core::ComparisonRow::edap_gain));
    assert!(
        (2.5..5.0).contains(&edap),
        "hybrid EDAP {edap:.2} (paper: 3.7)"
    );
}

#[test]
fn area_matches_published_chip() {
    // Table II: 197.7 mm^2 at 7 nm.
    let ufc = Ufc::paper_default();
    let area = ufc
        .try_machine_for(&ufc_workloads::helr::generate("C1"))
        .expect("C1 is a known set")
        .config()
        .area_breakdown()
        .total();
    assert!((area - 197.7).abs() < 5.0, "area {area:.1}");
}

#[test]
fn packing_order_matches_fig15() {
    use ufc_compiler::{CompileOptions, Packing};
    use ufc_core::UfcConfig;
    let tr = ufc_workloads::tfhe_apps::pbs_throughput("T1", 256);
    let run = |packing| {
        let opts = CompileOptions {
            packing,
            ..CompileOptions::default()
        };
        Ufc::new(UfcConfig::default(), opts).run(&tr).seconds
    };
    let none = run(Packing::None);
    let plp = run(Packing::Plp);
    let colp = run(Packing::ColpPlp);
    let tvlp = run(Packing::TvlpPlp);
    assert!(
        tvlp < colp && colp < plp && plp < none,
        "TvLP < CoLP < PLP < none"
    );
}
