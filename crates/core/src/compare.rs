//! Side-by-side comparisons between UFC and the baselines (the rows
//! of Figs. 10 and 11).

use crate::runner::Ufc;
use ufc_isa::trace::Trace;
use ufc_sim::machines::Machine;
use ufc_sim::SimReport;

/// One comparison row: UFC vs a baseline on one workload.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Workload name.
    pub workload: String,
    /// UFC's report.
    pub ufc: SimReport,
    /// The baseline's report.
    pub baseline: SimReport,
}

impl ComparisonRow {
    /// UFC speedup (baseline delay / UFC delay).
    pub fn speedup(&self) -> f64 {
        self.ufc.speedup_over(&self.baseline)
    }

    /// Energy improvement (baseline / UFC).
    pub fn energy_gain(&self) -> f64 {
        self.baseline.energy_j / self.ufc.energy_j
    }

    /// EDP improvement (baseline / UFC).
    pub fn edp_gain(&self) -> f64 {
        self.baseline.edp() / self.ufc.edp()
    }

    /// EDAP improvement (baseline / UFC).
    pub fn edap_gain(&self) -> f64 {
        self.baseline.edap() / self.ufc.edap()
    }
}

/// Runs one workload on UFC and a baseline, producing a row.
pub fn compare(ufc: &Ufc, baseline: &dyn Machine, trace: &Trace) -> ComparisonRow {
    ComparisonRow {
        workload: trace.name.clone(),
        ufc: ufc.run(trace),
        baseline: ufc.run_on(baseline, trace),
    }
}

/// Geometric mean of a positive series (the paper reports workload
/// averages).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_sim::machines::SharpMachine;

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn comparison_row_ratios() {
        let ufc = Ufc::paper_default();
        let tr = ufc_workloads::sorting::generate("C1");
        let row = compare(&ufc, &SharpMachine::new(), &tr);
        assert!(row.speedup() > 0.0);
        assert!(row.edap_gain() > 0.0);
        // EDAP folds EDP and the area ratio together.
        let area_ratio = row.baseline.area_mm2 / row.ufc.area_mm2;
        assert!((row.edap_gain() / row.edp_gain() - area_ratio).abs() < 1e-9);
    }
}
