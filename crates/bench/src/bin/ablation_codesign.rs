//! Ablation study of the algorithm-hardware co-designs (§IV-C):
//! automorphism-via-NTT and rotation-via-multiplication vs a
//! dedicated all-to-all permutation network.
//!
//! The co-design trades a little permutation latency (the extra NTT
//! pass) for a large wiring saving; this binary quantifies both sides
//! on the rotation-heavy CKKS workloads.

#![forbid(unsafe_code)]

use ufc_bench::{header, ratio, row, time};
use ufc_compiler::CompileOptions;
use ufc_core::Ufc;
use ufc_sim::machines::UfcConfig;

fn main() {
    println!("# Ablation: automorphism-via-NTT (§IV-C2) vs dedicated permutation network\n");
    let codesign = Ufc::paper_default();
    let dedicated = Ufc::new(
        UfcConfig {
            dedicated_permutation_network: true,
            ..UfcConfig::default()
        },
        CompileOptions::default(),
    );
    header(&[
        "workload",
        "co-design delay",
        "dedicated delay",
        "delay ratio",
        "EDAP ratio (co-design gain)",
    ]);
    for tr in ufc_workloads::all_ckks_workloads("C1") {
        let a = codesign.run(&tr);
        let b = dedicated.run(&tr);
        row(&[
            tr.name.clone(),
            time(a.seconds),
            time(b.seconds),
            ratio(a.seconds / b.seconds),
            ratio(b.edap() / a.edap()),
        ]);
    }
    let area_a = codesign
        .try_machine_for(&ufc_workloads::helr::generate("C1"))
        .expect("C1 is a known set")
        .config()
        .area_breakdown()
        .total();
    let area_b = dedicated
        .try_machine_for(&ufc_workloads::helr::generate("C1"))
        .expect("C1 is a known set")
        .config()
        .area_breakdown()
        .total();
    println!("\nArea: co-design {area_a:.1} mm² vs dedicated network {area_b:.1} mm².");
    println!("The co-design gives up a little permutation speed to avoid the all-to-all wiring —");
    println!("the trade §IV-C calls \"minimizing the complexity of the interconnect network\".");
}
