//! Property-based tests for lowering invariants: every produced
//! stream must be a valid DAG with sensible shapes, monotone in the
//! obvious parameters.

use proptest::prelude::*;
use ufc_compiler::{CompileOptions, Compiler, Packing};
use ufc_isa::params::{ckks_params, tfhe_params};
use ufc_isa::trace::TraceOp;

fn compiler(packing: Packing) -> Compiler {
    Compiler::new(
        ckks_params("C2"),
        tfhe_params("T2"),
        CompileOptions {
            packing,
            ..CompileOptions::default()
        },
    )
}

fn stream_is_valid(s: &ufc_isa::InstrStream) -> bool {
    s.instrs().iter().all(|i| {
        i.deps.iter().all(|&d| d < i.id)
            && i.shape.count > 0
            && i.pack >= 1
            && (i.word_bits == 8 || i.word_bits == 32 || i.word_bits == 36)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_every_ckks_op_lowers_to_a_valid_dag(level in 1u32..35) {
        let c = compiler(Packing::TvlpPlp);
        for op in [
            TraceOp::CkksAdd { level },
            TraceOp::CkksMulPlain { level },
            TraceOp::CkksMulCt { level },
            TraceOp::CkksRescale { level },
            TraceOp::CkksRotate { level, step: 1 },
            TraceOp::CkksModRaise { from_level: level.min(10) },
        ] {
            let s = c.try_lower_op(&op).unwrap();
            prop_assert!(!s.is_empty());
            prop_assert!(stream_is_valid(&s), "{op:?}");
        }
    }

    #[test]
    fn prop_keyswitch_work_grows_with_level(lo in 2u32..15, hi in 16u32..35) {
        let c = compiler(Packing::TvlpPlp);
        let small = c.try_lower_op(&TraceOp::CkksMulCt { level: lo }).unwrap();
        let big = c.try_lower_op(&TraceOp::CkksMulCt { level: hi }).unwrap();
        prop_assert!(big.total_modmul_ops() > small.total_modmul_ops());
        prop_assert!(big.total_hbm_bytes() >= small.total_hbm_bytes());
    }

    #[test]
    fn prop_pbs_work_scales_with_batch(b in 1u32..64) {
        let c = compiler(Packing::TvlpPlp);
        let one = c.try_lower_op(&TraceOp::TfhePbs { batch: 1 }).unwrap().total_modmul_ops();
        let batch = c.try_lower_op(&TraceOp::TfhePbs { batch: b }).unwrap().total_modmul_ops();
        // Work scales linearly with batch (same instruction count,
        // wider shapes).
        prop_assert!(batch >= one * b as u64 / 2);
        prop_assert!(batch <= one * b as u64 * 2);
    }

    #[test]
    fn prop_tvlp_never_streams_more_keys_than_colp(b in 2u32..64) {
        let tv = compiler(Packing::TvlpPlp).try_lower_op(&TraceOp::TfhePbs { batch: b }).unwrap();
        let co = compiler(Packing::ColpPlp).try_lower_op(&TraceOp::TfhePbs { batch: b }).unwrap();
        prop_assert!(tv.total_hbm_bytes() <= co.total_hbm_bytes());
    }

    #[test]
    fn prop_pack_width_is_bounded(b in 1u32..256) {
        for packing in [Packing::None, Packing::Plp, Packing::ColpPlp, Packing::TvlpPlp] {
            let c = compiler(packing);
            let w = c.try_tfhe_pack_width(b).unwrap();
            prop_assert!(w >= 1);
            // Never more polys than fit the lanes.
            let n = tfhe_params("T2").unwrap().n() as u32;
            prop_assert!(w * n <= c.options().total_lanes.max(n));
        }
    }
}
