//! Lowering statistics: what the compiler did, per trace op.
//!
//! [`Compiler::try_compile`](crate::Compiler::try_compile)
//! produces a [`CompileStats`] alongside the instruction stream: one
//! [`OpLowering`] per trace op (how many macro-instructions it
//! expanded into and how much HBM traffic they carry) plus the static
//! noise schedule. All types serialize, so the numbers flow straight
//! into `--json` bench output and `ufc-profile` reports. The stream's
//! scratchpad working set is not a lowering statistic: it is
//! measured on the stream itself
//! (`ufc_isa::InstrStream::scratchpad_high_water`).

/// How one trace op lowered.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct OpLowering {
    /// Position of the op in the trace.
    pub index: usize,
    /// Stable op variant name (`TraceOp::name`).
    pub op: &'static str,
    /// Macro-instructions the op expanded into.
    pub instrs: usize,
    /// HBM bytes carried by those instructions.
    pub hbm_bytes: u64,
}

/// Aggregate view of one op kind across the whole trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct OpKindStat {
    /// Stable op variant name.
    pub op: &'static str,
    /// How many times the op kind appears.
    pub count: u64,
    /// Total macro-instructions emitted for it.
    pub instrs: u64,
    /// Total HBM bytes carried by those instructions.
    pub hbm_bytes: u64,
}

/// Everything the compiler can report about one lowering run.
///
/// Not `Eq`: the [noise schedule](ufc_verify::NoiseSchedule) rows
/// carry floating-point precision/margin estimates.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CompileStats {
    /// Per-op lowering records, in trace order.
    pub ops: Vec<OpLowering>,
    /// Total macro-instructions emitted.
    pub total_instrs: usize,
    /// Total HBM bytes across the stream.
    pub total_hbm_bytes: u64,
    /// Static noise schedule of the source trace: per-op CKKS
    /// precision and TFHE margin estimates from the `ufc-verify`
    /// abstract interpreter.
    pub noise: ufc_verify::NoiseSchedule,
}

impl CompileStats {
    /// Aggregates the per-op records by op kind; most instructions
    /// first, name as tie-break.
    pub fn by_op_kind(&self) -> Vec<OpKindStat> {
        let mut out: Vec<OpKindStat> = Vec::new();
        for rec in &self.ops {
            let slot = match out.iter_mut().find(|s| s.op == rec.op) {
                Some(s) => s,
                None => {
                    out.push(OpKindStat {
                        op: rec.op,
                        ..OpKindStat::default()
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            slot.count += 1;
            slot.instrs += rec.instrs as u64;
            slot.hbm_bytes += rec.hbm_bytes;
        }
        out.sort_by(|a, b| b.instrs.cmp(&a.instrs).then_with(|| a.op.cmp(b.op)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(index: usize, op: &'static str, instrs: usize, hbm: u64) -> OpLowering {
        OpLowering {
            index,
            op,
            instrs,
            hbm_bytes: hbm,
        }
    }

    #[test]
    fn by_op_kind_aggregates_and_sorts() {
        let stats = CompileStats {
            ops: vec![
                rec(0, "CkksAdd", 1, 0),
                rec(1, "TfhePbs", 500, 4096),
                rec(2, "CkksAdd", 1, 0),
            ],
            total_instrs: 502,
            total_hbm_bytes: 4096,
            noise: ufc_verify::NoiseSchedule::default(),
        };
        let kinds = stats.by_op_kind();
        assert_eq!(kinds.len(), 2);
        assert_eq!(kinds[0].op, "TfhePbs");
        assert_eq!(kinds[0].instrs, 500);
        assert_eq!(kinds[1].op, "CkksAdd");
        assert_eq!(kinds[1].count, 2);
    }

    #[test]
    fn stats_serialize() {
        let stats = CompileStats {
            ops: vec![rec(0, "CkksAdd", 1, 0)],
            total_instrs: 1,
            total_hbm_bytes: 0,
            noise: ufc_verify::NoiseSchedule::default(),
        };
        let v = serde::Serialize::to_value(&stats);
        assert!(v.get("ops").is_some());
        assert!(v.get("noise").is_some());
    }
}
