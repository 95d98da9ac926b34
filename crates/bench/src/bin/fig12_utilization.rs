//! Fig. 12 — Utilization of key UFC components.

#![forbid(unsafe_code)]

use ufc_bench::{cell, header, row, JsonReport, OutputOpts};
use ufc_core::Ufc;

fn main() {
    let opts = OutputOpts::from_env();
    let ufc = Ufc::paper_default();
    let mut json = JsonReport::new("fig12_utilization");
    println!("# Fig. 12: utilization of key UFC components\n");
    header(&["workload", "PE (NTT+ELEW)", "NoC", "HBM", "LWEU"]);
    let mut traces = ufc_workloads::all_ckks_workloads("C1");
    traces.extend(ufc_workloads::all_tfhe_workloads("T2"));
    let multi = traces.len() > 1;
    let table = json.table("utilization", &["workload", "pe", "noc", "hbm", "lweu"]);
    for tr in traces {
        let run = ufc
            .try_run_profiled(&tr)
            .unwrap_or_else(|e| panic!("{}: {e}", tr.name));
        let r = &run.report;
        let pe = (r.util("Ntt") + r.util("Elew")).min(1.0);
        table.push(vec![
            cell(tr.name.as_str()),
            cell(pe),
            cell(r.util("Noc")),
            cell(r.util("Hbm")),
            cell(r.util("Lweu")),
        ]);
        row(&[
            tr.name.clone(),
            format!("{:.0}%", pe * 100.0),
            format!("{:.0}%", r.util("Noc") * 100.0),
            format!("{:.0}%", r.util("Hbm") * 100.0),
            format!("{:.0}%", r.util("Lweu") * 100.0),
        ]);
        opts.write_perfetto(&tr.name, multi, &run.timeline);
    }
    println!("\nPaper: CKKS ≈ 65% PE / 20% NoC / 69% HBM; TFHE ≈ 75% PE / 55% NoC / 25% HBM.");
    json.write(&opts);
}
