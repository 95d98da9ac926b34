//! Lowering statistics: what the compiler did, per trace op.
//!
//! [`Compiler::try_compile`](crate::Compiler::try_compile)
//! produces a [`CompileStats`] alongside the instruction stream: one
//! [`OpLowering`] per trace op (how many macro-instructions it
//! expanded into and how much HBM traffic they carry) plus one
//! [`SpillEvent`] per op whose modeled working set overflows the
//! scratchpad (§V-C). All types serialize, so the numbers flow
//! straight into `--json` bench output and `ufc-profile` reports.

/// How one trace op lowered.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct OpLowering {
    /// Position of the op in the trace.
    pub index: usize,
    /// Stable op variant name (`TraceOp::name`).
    pub op: String,
    /// Macro-instructions the op expanded into.
    pub instrs: usize,
    /// HBM bytes carried by those instructions.
    pub hbm_bytes: u64,
}

/// A scratchpad-overflow event observed while lowering one op.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct SpillEvent {
    /// Position of the op in the trace.
    pub index: usize,
    /// Stable op variant name.
    pub op: String,
    /// Modeled working set of the op in bytes.
    pub working_set: u64,
    /// Scratchpad capacity the working set was checked against.
    pub capacity: u64,
    /// Overflow in bytes (`working_set - capacity`).
    pub overflow: u64,
}

/// Aggregate view of one op kind across the whole trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct OpKindStat {
    /// Stable op variant name.
    pub op: String,
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
    /// Scratchpad-overflow events, in trace order.
    pub spills: Vec<SpillEvent>,
    /// Total macro-instructions emitted.
    pub total_instrs: usize,
    /// Total HBM bytes across the stream.
    pub total_hbm_bytes: u64,
    /// Scratchpad capacity used for the spill checks, in bytes.
    pub scratchpad_bytes: u64,
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
                        op: rec.op.clone(),
                        ..OpKindStat::default()
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            slot.count += 1;
            slot.instrs += rec.instrs as u64;
            slot.hbm_bytes += rec.hbm_bytes;
        }
        out.sort_by(|a, b| b.instrs.cmp(&a.instrs).then_with(|| a.op.cmp(&b.op)));
        out
    }

    /// Total bytes by which working sets overflowed the scratchpad.
    pub fn total_spill_overflow(&self) -> u64 {
        self.spills.iter().map(|s| s.overflow).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(index: usize, op: &str, instrs: usize, hbm: u64) -> OpLowering {
        OpLowering {
            index,
            op: op.to_owned(),
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
            spills: vec![],
            total_instrs: 502,
            total_hbm_bytes: 4096,
            scratchpad_bytes: 256 << 20,
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
            spills: vec![SpillEvent {
                index: 0,
                op: "CkksAdd".into(),
                working_set: 10,
                capacity: 4,
                overflow: 6,
            }],
            total_instrs: 1,
            total_hbm_bytes: 0,
            scratchpad_bytes: 4,
            noise: ufc_verify::NoiseSchedule::default(),
        };
        let v = serde::Serialize::to_value(&stats);
        assert!(v.get("spills").is_some());
        assert!(v.get("noise").is_some());
        assert_eq!(stats.total_spill_overflow(), 6);
    }
}
