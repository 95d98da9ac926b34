//! Compilation options: packing strategy and machine-width hints.

/// Parallelism source used to pack small (logic-scheme) polynomials
/// across the machine's lanes (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packing {
    /// No packing: each polynomial occupies only its own lanes
    /// (baseline; the rest of the hardware idles).
    None,
    /// Polynomial-level parallelism only: the two polynomials of each
    /// RLWE ciphertext are processed together.
    Plp,
    /// Column-level parallelism (+PLP): the `2·g_k` decomposed
    /// polynomials of each external product are packed. Requires a
    /// shuffle pass to restore the continuous layout and holds more
    /// bootstrapping-key columns on chip.
    ColpPlp,
    /// Test-vector-level parallelism (+PLP): independent bootstraps
    /// are batched so the bootstrapping key is loaded once per batch
    /// (lowest memory-bandwidth pressure — the paper's default).
    TvlpPlp,
}

impl Packing {
    /// Short display label used in benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            Packing::None => "none",
            Packing::Plp => "PLP",
            Packing::ColpPlp => "CoLP+PLP",
            Packing::TvlpPlp => "TvLP+PLP",
        }
    }
}

/// Options controlling lowering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Packing strategy for logic-scheme ops.
    pub packing: Packing,
    /// Total machine lanes (UFC: 64 PEs × 256 = 16384), the packing
    /// width target.
    pub total_lanes: u32,
    /// TvLP batch width cap (how many test vectors are interleaved).
    pub max_batch: u32,
    /// Blind-rotation iteration coarsening for very deep logic
    /// traces: each `TfhePbs` lowers its `lwe_dim` iterations in
    /// chunks of this many per Decomp→NTT→EWMM→EWMA→iNTT quintet
    /// (shapes and key traffic scaled by the chunk size). `1` (the
    /// default) is the exact per-iteration lowering. The iterations
    /// of one bootstrap form a serial dependency chain, so chunking
    /// preserves total work and chain latency up to lane-rounding;
    /// it exists to keep multi-thousand-level gate circuits (e.g.
    /// homomorphic SHA-256) at a tractable instruction count.
    pub pbs_iter_chunk: u32,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            packing: Packing::TvlpPlp,
            total_lanes: 16_384,
            max_batch: 64,
            pbs_iter_chunk: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = CompileOptions::default();
        assert_eq!(o.packing, Packing::TvlpPlp);
        assert_eq!(o.total_lanes, 16_384);
        assert_eq!(o.pbs_iter_chunk, 1);
    }

    #[test]
    fn labels_are_unique() {
        let labels = [
            Packing::None.label(),
            Packing::Plp.label(),
            Packing::ColpPlp.label(),
            Packing::TvlpPlp.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
