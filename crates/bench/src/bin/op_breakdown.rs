//! Operation breakdown (the Figs. 3–4 complement): where the cycles
//! go, per program phase, for one CKKS and one TFHE workload on UFC.

#![forbid(unsafe_code)]

use ufc_bench::{cell, header, row, JsonReport, OutputOpts};
use ufc_core::Ufc;

fn main() {
    let opts = OutputOpts::from_env();
    let ufc = Ufc::paper_default();
    let mut json = JsonReport::new("op_breakdown");
    for tr in [
        ufc_workloads::ckks_bootstrap::generate("C1"),
        ufc_workloads::tfhe_apps::pbs_throughput("T2", 128),
    ] {
        let run = ufc
            .try_run_profiled(&tr)
            .unwrap_or_else(|e| panic!("{}: {e}", tr.name));
        let r = &run.report;
        println!(
            "# {} — phase breakdown ({} cycles total)\n",
            tr.name, r.cycles
        );
        header(&["phase", "busy cycles", "share"]);
        let table = json.table(&tr.name, &["phase", "busy_cycles", "share"]);
        let total: u64 = r.phase_cycles.iter().map(|(_, c)| c).sum();
        for (phase, cycles) in &r.phase_cycles {
            let share = *cycles as f64 / total.max(1) as f64;
            table.push(vec![cell(phase.as_str()), cell(*cycles), cell(share)]);
            row(&[
                phase.clone(),
                cycles.to_string(),
                format!("{:.0}%", share * 100.0),
            ]);
        }
        println!();
        opts.write_perfetto(&tr.name, true, &run.timeline);
    }
    json.write(&opts);
}
