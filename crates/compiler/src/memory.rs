//! Memory-side compiler models: key-reuse factors for the packing
//! strategies and the analytic working-set / spill model (§V-C).

use crate::options::Packing;
use ufc_isa::params::{CkksParams, TfheParams};

/// How many times one streamed copy of the bootstrapping key is
/// reused, per packing strategy (§V-B: "TvLP can effectively reuse
/// the bootstrapping key across different ciphertexts, resulting in
/// the lowest memory bandwidth stress").
pub fn key_reuse_factor(packing: Packing, batch: u32) -> u32 {
    match packing {
        Packing::None | Packing::Plp => 1,
        // CoLP holds more key columns resident but still re-streams
        // per ciphertext; modest reuse.
        Packing::ColpPlp => 2,
        // TvLP loads the key once per batch.
        Packing::TvlpPlp => batch.max(1),
    }
}

/// Analytic scratchpad working-set model, kept only as the machine's
/// cycle model: if the working set of a workload exceeds the
/// scratchpad capacity, the overflow fraction of ciphertext traffic
/// is charged to HBM (§V-C; also the mechanism behind the
/// scratchpad-capacity DSE of Figs. 13–14). Whether a compiled
/// stream fits is a separate question, answered by its liveness
/// sweep (`ufc_isa::InstrStream::scratchpad_high_water`).
#[derive(Debug, Clone, Copy)]
pub struct SpillModel {
    /// Scratchpad capacity in bytes.
    pub capacity: u64,
}

impl SpillModel {
    /// Creates the model for a capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity }
    }

    /// Working set of a CKKS workload at a given level: a handful of
    /// live ciphertexts plus one key-switching key.
    pub fn ckks_working_set(p: &CkksParams, level: u32, live_cts: u32) -> u64 {
        live_cts as u64 * p.ciphertext_bytes(level) + p.ksk_bytes()
    }

    /// Working set of a TFHE batch: accumulators plus the resident
    /// slice of the bootstrapping key.
    pub fn tfhe_working_set(p: &TfheParams, batch: u32) -> u64 {
        let acc = batch as u64 * 2 * p.n() as u64 * 4;
        // One RGSW (the current iteration's key element) per wave.
        let key_slice = 2 * p.glwe_levels as u64 * 2 * p.n() as u64 * 4;
        acc + key_slice
    }

    /// Fraction of ciphertext traffic that spills to HBM (0.0 when the
    /// working set fits).
    pub fn spill_fraction(&self, working_set: u64) -> f64 {
        if working_set <= self.capacity {
            0.0
        } else {
            (working_set - self.capacity) as f64 / working_set as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_isa::params::{ckks_params, tfhe_params};

    #[test]
    fn reuse_ordering_matches_paper() {
        let b = 32;
        assert!(key_reuse_factor(Packing::TvlpPlp, b) > key_reuse_factor(Packing::ColpPlp, b));
        assert!(key_reuse_factor(Packing::ColpPlp, b) > key_reuse_factor(Packing::Plp, b));
        assert_eq!(key_reuse_factor(Packing::None, b), 1);
    }

    #[test]
    fn spill_is_zero_when_fitting() {
        let m = SpillModel::new(256 << 20);
        let ws = SpillModel::ckks_working_set(&ckks_params("C1").unwrap(), 10, 4);
        assert!(ws < 256 << 20);
        assert_eq!(m.spill_fraction(ws), 0.0);
    }

    #[test]
    fn spill_grows_as_capacity_shrinks() {
        let p = ckks_params("C1").unwrap();
        let ws = SpillModel::ckks_working_set(&p, p.max_level(), 8);
        let big = SpillModel::new(256 << 20).spill_fraction(ws);
        let small = SpillModel::new(64 << 20).spill_fraction(ws);
        assert!(small >= big);
    }

    #[test]
    fn tfhe_working_set_is_small() {
        // The paper observes TFHE workloads fit on chip ("the 256MB
        // on-chip scratchpad is sufficiently large", §VII-B).
        let ws = SpillModel::tfhe_working_set(&tfhe_params("T2").unwrap(), 64);
        assert!(ws < 16 << 20, "ws = {ws}");
    }
}
