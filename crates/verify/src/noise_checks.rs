//! Static noise/scale abstract interpretation over both IR levels.
//!
//! The dataflow and resource checks prove a trace is *well-formed*;
//! this pass proves it is *cryptographically survivable*. It replays
//! the program over an abstract ciphertext state — no keys, no
//! polynomials — using the exact transfer functions the runtime
//! schemes were calibrated with ([`ufc_isa::noise`]):
//!
//! * **CKKS** — one abstract ciphertext chain `(level, raised,
//!   NoiseBudget)`. The traces here are *analytic* (BSGS sums and
//!   depth-compressed polynomial ladders emit many same-level
//!   multiplies that share rescales), so the scale model saturates:
//!   a multiply raises the level's products to `2Δ`, further
//!   same-level multiplies are parallel products at `2Δ`, and one
//!   rescale returns the whole level to `Δ`. What *is* checked
//!   exactly: the product scale must fit the level's modulus
//!   (`LIMB_BITS + scale_bits·ℓ`, a scale-calibrated chain), raised
//!   products must be rescaled before the chain moves down a level,
//!   and a segment must never rescale more often than it multiplied
//!   (dividing a base-scale ciphertext by `Δ` destroys the message).
//!   A declared level *above* the chain's is read as a new fresh
//!   segment, below as a drop-to-level.
//! * **TFHE** — per-sample phase-error variance ([`LweNoise`])
//!   through gate linear parts, key switches and the PBS reset, with
//!   the pre-blind-rotation modulus switch checked against the
//!   decoding margin `q/(2·space)`.
//! * **Boundaries** — `Extract` requires CKKS precision to cover the
//!   TFHE message space; `Repack` folds the 6σ LWE phase error back
//!   into the CKKS slot budget.
//!
//! The same interpretation produces the [`NoiseSchedule`]: the per-op
//! level/scale/precision table that `ufc-compiler` attaches to its
//! [`CompileStats`](https://docs.rs/) and `ufc-profile` renders.
//!
//! On the lowered stream the ciphertext structure is gone, so the
//! stream pass works from *lowering signatures*: a `CkksEval`
//! `Intt(2L+2) → Ntt(2L)` pair is a rescale (counted against the
//! modulus chain, reset by `CkksBootstrap` phases), a 32-bit
//! `TfheKeySwitch` `Ewma` is a gate linear part, a `TfheBlindRotate`
//! run is a PBS reset, and a `TfheKeySwitch` `Redc` is the LWE key
//! switch.

use crate::diag::{Location, Report, Severity};
use ufc_isa::instr::{InstrStream, Kernel, Phase};
use ufc_isa::noise::{LweNoise, NoiseBudget, TFHE_Q};
use ufc_isa::params::{ckks_params, tfhe_params, CkksParams, TfheParams, LIMB_BITS};
use ufc_isa::trace::{Trace, TraceOp};

/// Headroom (in bits) kept between the scale·value magnitude and the
/// modulus before `noise/scale-overflow` fires.
const GUARD_BITS: f64 = 2.0;

/// A bootstrap this far above the level floor is flagged as
/// `noise/level-waste` (fraction of `max_level`).
const LEVEL_WASTE_FRACTION: f64 = 0.75;

/// Knobs of the noise pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseOptions {
    /// CKKS parameter set used when the artifact does not declare one
    /// (streams never do; traces usually do).
    pub ckks: Option<CkksParams>,
    /// TFHE parameter set used when the artifact does not declare one.
    pub tfhe: Option<TfheParams>,
    /// log2 of the CKKS encoding scale `Δ` (the runtime default
    /// is 34).
    pub scale_bits: u32,
    /// Assumed `|message|` bound of fresh CKKS inputs.
    pub value_bound: f64,
    /// TFHE message-space size (`8` = 3-bit torus messages, the gate
    /// encoding the runtime uses).
    pub space: f64,
}

impl Default for NoiseOptions {
    fn default() -> Self {
        Self {
            ckks: None,
            tfhe: None,
            scale_bits: 34,
            value_bound: 1.0,
            space: 8.0,
        }
    }
}

impl NoiseOptions {
    /// The encoding scale `Δ`.
    pub fn delta(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }
}

/// One row of the per-op noise schedule.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct NoiseScheduleEntry {
    /// Index of the op in the trace.
    pub index: usize,
    /// Trace-op name.
    pub op: String,
    /// CKKS chain level after the op (absent for pure-TFHE ops).
    pub level: Option<u32>,
    /// log2 of the CKKS scale after the op.
    pub scale_log2: Option<f64>,
    /// Remaining CKKS precision in bits; `Some(0.0)` when exhausted.
    pub precision_bits: Option<f64>,
    /// log2 of the absolute CKKS slot-error bound.
    pub error_log2: Option<f64>,
    /// TFHE headroom in standard deviations to the decoding margin
    /// (absent for pure-CKKS ops).
    pub margin_sigmas: Option<f64>,
}

/// The noise schedule of a whole trace: what the static pass believes
/// every ciphertext's health is after every op.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct NoiseSchedule {
    /// Per-op rows, in trace order.
    pub entries: Vec<NoiseScheduleEntry>,
    /// Worst CKKS precision seen anywhere (bits).
    pub min_precision_bits: Option<f64>,
    /// Worst TFHE margin seen anywhere (σ).
    pub min_margin_sigmas: Option<f64>,
}

impl NoiseSchedule {
    /// Whether the schedule carries any CKKS or TFHE rows at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ------------------------------------------------------------- trace

/// Abstract CKKS ciphertext chain.
#[derive(Debug, Clone, Copy)]
struct CkksChain {
    level: u32,
    /// The current level holds unrescaled products at scale `2Δ`.
    raised: bool,
    /// Multiplies since the segment began (capped; overflow-safe).
    muls_seg: u64,
    /// Rescales since the segment began.
    rescales_seg: u64,
    budget: NoiseBudget,
    /// Exhaustion already reported for this segment.
    risk_flagged: bool,
}

impl CkksChain {
    /// log2 of the scale the chain's products currently carry.
    fn scale_log2(&self, scale_bits: u32) -> f64 {
        f64::from(scale_bits) * if self.raised { 2.0 } else { 1.0 }
    }
}

struct TraceInterp<'a> {
    opts: &'a NoiseOptions,
    ckks: Option<CkksParams>,
    tfhe: Option<TfheParams>,
    chain: Option<CkksChain>,
    lwe: Option<LweNoise>,
    /// Exhaustion was observed anywhere in the trace.
    exhausted_ever: bool,
    /// A `CkksModRaise` appears anywhere in the trace.
    has_bootstrap: bool,
    tfhe_risk_flagged: bool,
    add_mismatch_flagged: bool,
    schedule: NoiseSchedule,
}

impl<'a> TraceInterp<'a> {
    fn new(trace: &Trace, opts: &'a NoiseOptions) -> Self {
        Self {
            opts,
            ckks: trace.ckks_params.and_then(ckks_params).or(opts.ckks),
            tfhe: trace.tfhe_params.and_then(tfhe_params).or(opts.tfhe),
            chain: None,
            lwe: None,
            exhausted_ever: false,
            has_bootstrap: trace
                .ops
                .iter()
                .any(|op| matches!(op, TraceOp::CkksModRaise { .. })),
            tfhe_risk_flagged: false,
            add_mismatch_flagged: false,
            schedule: NoiseSchedule::default(),
        }
    }

    fn n(&self) -> usize {
        self.ckks.map(|p| p.n()).unwrap_or(1 << 16)
    }

    fn max_level(&self) -> u32 {
        self.ckks.map(|p| p.max_level()).unwrap_or(32)
    }

    /// Modulus headroom in bits at `level` for a scale-calibrated
    /// chain: one `LIMB_BITS` base limb plus `Δ` per level.
    fn headroom_bits(&self, level: u32) -> f64 {
        f64::from(LIMB_BITS) + f64::from(self.opts.scale_bits) * f64::from(level)
    }

    fn fresh_chain(&self, level: u32) -> CkksChain {
        CkksChain {
            level,
            raised: false,
            muls_seg: 0,
            rescales_seg: 0,
            budget: NoiseBudget::fresh(self.opts.value_bound, self.n(), self.opts.delta()),
            risk_flagged: false,
        }
    }

    /// Aligns the chain with an op's declared level: a *higher*
    /// declared level means the op consumes a ciphertext this chain
    /// never produced (a fresh segment); a *lower* one is a
    /// drop-to-level — legal, unless the level still holds raised
    /// products whose rescale never happened.
    fn sync(&mut self, level: u32, i: usize, report: &mut Report) -> &mut CkksChain {
        let mut c = match self.chain {
            Some(c) if level <= c.level => c,
            _ => self.fresh_chain(level),
        };
        if level < c.level && c.raised {
            c.raised = false;
            report.push(
                Severity::Warning,
                "noise/skipped-rescale",
                Location::Op(i),
                format!(
                    "the chain drops from level {} to {level} while level {} \
                     still holds unrescaled products at scale 2Δ: the rescale \
                     that should produce this drop is missing",
                    c.level, c.level
                ),
            );
        }
        c.level = level;
        self.chain.insert(c)
    }

    /// Post-op exhaustion check on the CKKS chain.
    fn check_exhaustion(&mut self, i: usize, report: &mut Report) {
        let Some(c) = &mut self.chain else { return };
        if c.budget.precision_bits().is_none() && !c.risk_flagged {
            c.risk_flagged = true;
            self.exhausted_ever = true;
            report.push(
                Severity::DecryptionRisk,
                "noise/decryption-risk",
                Location::Op(i),
                format!(
                    "CKKS error bound {:.3e} has swallowed the message bound {:.3e}: \
                     decryption returns noise from here on",
                    c.budget.error_bound, c.budget.value_bound
                ),
            );
        }
    }

    /// Modulus overflow check, run when a multiply raises the level's
    /// products to `2Δ`.
    fn check_overflow(&mut self, i: usize, report: &mut Report) {
        let Some(c) = &self.chain else { return };
        let magnitude =
            2.0 * f64::from(self.opts.scale_bits) + c.budget.value_bound.max(1.0).log2();
        let headroom = self.headroom_bits(c.level);
        if magnitude > headroom - GUARD_BITS {
            report.push(
                Severity::DecryptionRisk,
                "noise/scale-overflow",
                Location::Op(i),
                format!(
                    "the product scale·|value| needs {magnitude:.1} bits but the \
                     level-{} modulus offers {headroom:.0} (guard {GUARD_BITS:.0}): the \
                     ciphertext wraps around q and decrypts garbage — this level is too \
                     low to multiply at",
                    c.level
                ),
            );
        }
    }

    fn record(&mut self, i: usize, op: &TraceOp) {
        let (level, scale_log2, precision_bits, error_log2) = match &self.chain {
            Some(c)
                if op.is_ckks()
                    || matches!(op, TraceOp::Extract { .. } | TraceOp::Repack { .. }) =>
            {
                (
                    Some(c.level),
                    Some(c.scale_log2(self.opts.scale_bits)),
                    Some(c.budget.precision_bits().unwrap_or(0.0)),
                    Some(c.budget.error_bound.max(f64::MIN_POSITIVE).log2()),
                )
            }
            _ => (None, None, None, None),
        };
        let margin_sigmas = match (&self.lwe, op.is_ckks()) {
            (Some(v), false) => Some(v.margin_sigmas(LweNoise::margin(TFHE_Q, self.opts.space))),
            _ => None,
        };
        if let Some(p) = precision_bits {
            let min = self.schedule.min_precision_bits.get_or_insert(p);
            *min = min.min(p);
        }
        if let Some(m) = margin_sigmas {
            if m.is_finite() {
                let min = self.schedule.min_margin_sigmas.get_or_insert(m);
                *min = min.min(m);
            }
        }
        self.schedule.entries.push(NoiseScheduleEntry {
            index: i,
            op: op.name().to_string(),
            level,
            scale_log2,
            precision_bits,
            error_log2,
            margin_sigmas,
        });
    }

    fn lwe_state(&self) -> LweNoise {
        self.lwe.unwrap_or_else(LweNoise::fresh)
    }

    fn step(&mut self, i: usize, op: &TraceOp, report: &mut Report) {
        let n = self.n();
        let delta = self.opts.delta();
        let scale_bits = f64::from(self.opts.scale_bits);
        let margin = LweNoise::margin(TFHE_Q, self.opts.space);
        match *op {
            TraceOp::CkksAdd { level } => {
                let c = self.sync(level, i, report);
                let raised = c.raised;
                c.budget = c.budget.add(&c.budget);
                if raised && !self.add_mismatch_flagged {
                    self.add_mismatch_flagged = true;
                    report.push(
                        Severity::Info,
                        "noise/scale-mismatch",
                        Location::Op(i),
                        format!(
                            "addition joins operands at raised scale 2^{:.0}: the \
                             runtime asserts operand scales match — make sure the other \
                             side carries the same unrescaled scale",
                            2.0 * scale_bits
                        ),
                    );
                }
                self.check_exhaustion(i, report);
            }
            TraceOp::CkksMulPlain { level } | TraceOp::CkksMulCt { level } => {
                let value_bound = self.opts.value_bound;
                let c = self.sync(level, i, report);
                c.budget = if matches!(op, TraceOp::CkksMulPlain { .. }) {
                    c.budget.mul_plain(value_bound.max(1.0), n, delta)
                } else {
                    c.budget
                        .mul_ct(&NoiseBudget::fresh(value_bound, n, delta), n, delta)
                };
                c.raised = true;
                c.muls_seg = c.muls_seg.saturating_add(1);
                self.check_overflow(i, report);
                self.check_exhaustion(i, report);
            }
            TraceOp::CkksRescale { level } => {
                if level == 0 {
                    // trace/rescale-at-zero already fired; the noise
                    // transfer is undefined with no limb to drop.
                    return;
                }
                let c = self.sync(level, i, report);
                c.rescales_seg += 1;
                let redundant = c.rescales_seg > c.muls_seg;
                if redundant {
                    report.push(
                        Severity::Warning,
                        "noise/redundant-rescale",
                        Location::Op(i),
                        "this segment has now rescaled more often than it multiplied: \
                         the division by Δ hits a base-scale ciphertext and pushes the \
                         message below the error floor",
                    );
                }
                // A legitimate rescale divides a 2Δ product back to Δ
                // (cheap rounding term); a redundant one divides the
                // message itself away.
                c.budget = c.budget.rescale(n, if redundant { 1.0 } else { delta });
                c.raised = false;
                c.level = level - 1;
                self.check_exhaustion(i, report);
            }
            TraceOp::CkksRotate { level, .. } | TraceOp::CkksConjugate { level } => {
                let c = self.sync(level, i, report);
                c.budget = c.budget.rotate(n, delta);
                self.check_exhaustion(i, report);
            }
            TraceOp::CkksModRaise { from_level } => {
                // A mod-raise as the chain's first act (bootstrapping
                // benchmarks) wastes nothing: there was no budget to
                // spend yet.
                let had_chain = self.chain.is_some();
                let max_level = self.max_level();
                let c = self.sync(from_level, i, report);
                if c.raised {
                    c.raised = false;
                    report.push(
                        Severity::Warning,
                        "noise/skipped-rescale",
                        Location::Op(i),
                        "bootstrapping a level that still holds unrescaled products: \
                         the 2Δ scale survives the mod-raise and EvalMod decodes the \
                         wrong interval",
                    );
                }
                let exhausted = c.budget.precision_bits().is_none();
                if exhausted {
                    report.push(
                        Severity::Error,
                        "noise/bootstrap-too-late",
                        Location::Op(i),
                        "bootstrap arrives after the budget is already exhausted: \
                         EvalMod amplifies garbage, it cannot recover it — bootstrap \
                         earlier in the chain",
                    );
                }
                if had_chain && f64::from(from_level) >= LEVEL_WASTE_FRACTION * f64::from(max_level)
                {
                    report.push(
                        Severity::Info,
                        "noise/level-waste",
                        Location::Op(i),
                        format!(
                            "bootstrapping from level {from_level} of {max_level}: most \
                             of the modulus chain is unspent — deferring the bootstrap \
                             amortizes its cost over more levels"
                        ),
                    );
                }
                c.budget = c.budget.bootstrap(n, delta);
                c.level = max_level;
                c.raised = false;
                c.muls_seg = 0;
                c.rescales_seg = 0;
                c.risk_flagged = false;
            }
            TraceOp::TfheLinear { .. } => {
                // `count` is the batch width (independent samples),
                // not a chain depth: one gate linear part per op.
                let v = self.lwe_state().gate_linear();
                if v.exceeds_margin(margin) && !self.tfhe_risk_flagged {
                    self.tfhe_risk_flagged = true;
                    report.push(
                        Severity::DecryptionRisk,
                        "noise/pbs-starved",
                        Location::Op(i),
                        format!(
                            "TFHE linear chain reaches 6σ = {:.3e} past the decoding \
                             margin {margin:.3e} with no PBS in sight: insert a \
                             programmable bootstrap to reset the noise",
                            6.0 * v.std_dev()
                        ),
                    );
                }
                self.lwe = Some(v);
            }
            TraceOp::TfhePbs { .. } => {
                if let Some(p) = self.tfhe {
                    let at_input = self.lwe_state().mod_switch(&p, TFHE_Q);
                    if at_input.exceeds_margin(margin) && !self.tfhe_risk_flagged {
                        self.tfhe_risk_flagged = true;
                        report.push(
                            Severity::DecryptionRisk,
                            "noise/pbs-starved",
                            Location::Op(i),
                            format!(
                                "blind-rotation input noise 6σ = {:.3e} exceeds the \
                                 decoding margin {margin:.3e}: the bootstrap itself \
                                 decodes the wrong message — it arrived too late",
                                6.0 * at_input.std_dev()
                            ),
                        );
                    }
                    self.lwe = Some(LweNoise::pbs_output(&p, TFHE_Q));
                    self.tfhe_risk_flagged = false;
                }
            }
            TraceOp::TfheKeySwitch { .. } => {
                if let Some(p) = self.tfhe {
                    self.lwe = Some(self.lwe_state().key_switch(&p, TFHE_Q));
                }
            }
            TraceOp::Extract { level, .. } => {
                let needed = self.opts.space.log2() + 1.0;
                let c = self.sync(level, i, report);
                let have = c.budget.precision_bits().unwrap_or(0.0);
                if have < needed {
                    report.push(
                        Severity::Warning,
                        "noise/extract-degraded-precision",
                        Location::Op(i),
                        format!(
                            "extracting LWE samples from a ciphertext holding only \
                             {have:.1} bits of precision; the TFHE message space needs \
                             {needed:.1} — the extracted bits are already noise"
                        ),
                    );
                }
                // Extraction includes the switch to TFHE parameters.
                self.lwe = Some(match self.tfhe {
                    Some(p) => LweNoise::fresh().key_switch(&p, TFHE_Q),
                    None => LweNoise::fresh(),
                });
            }
            TraceOp::Repack { level, .. } => {
                let space = self.opts.space;
                let lwe_err = self
                    .lwe
                    .take()
                    .map(|v| 6.0 * v.std_dev() * space / TFHE_Q)
                    .unwrap_or(0.0);
                let c = self.sync(level, i, report);
                // The repacking linear transform is rotations + a key
                // switch; fold the LWE phase error into the slots.
                c.budget = c.budget.rotate(n, delta);
                c.budget.error_bound += lwe_err;
                self.tfhe_risk_flagged = false;
                self.check_exhaustion(i, report);
            }
            TraceOp::SchemeTransfer { .. } => {}
        }
        self.record(i, op);
    }

    fn finish(mut self, report: &mut Report) -> NoiseSchedule {
        if self.exhausted_ever && !self.has_bootstrap {
            report.push(
                Severity::Error,
                "noise/missing-bootstrap",
                Location::Global,
                "the CKKS budget exhausts and the trace never bootstraps: no \
                 schedule of these ops can decrypt — insert a CkksModRaise \
                 before the budget dies",
            );
        }
        if let Some(v) = self.lwe {
            let margin = LweNoise::margin(TFHE_Q, self.opts.space);
            if v.exceeds_margin(margin) && !self.tfhe_risk_flagged {
                report.push(
                    Severity::DecryptionRisk,
                    "noise/pbs-starved",
                    Location::Global,
                    format!(
                        "the trace ends with live TFHE samples at 6σ = {:.3e}, past \
                         the decoding margin {margin:.3e}: they decrypt wrong",
                        6.0 * v.std_dev()
                    ),
                );
            }
        }
        let s = &mut self.schedule;
        std::mem::take(s)
    }
}

/// Runs the noise abstract interpreter over a trace, pushing findings
/// into `report` and returning the per-op [`NoiseSchedule`].
pub fn interpret_trace(trace: &Trace, opts: &NoiseOptions, report: &mut Report) -> NoiseSchedule {
    let mut interp = TraceInterp::new(trace, opts);
    for (i, op) in trace.ops.iter().enumerate() {
        interp.step(i, op, report);
    }
    interp.finish(report)
}

/// The diagnostics-only entry point used by [`crate::verify_trace`].
pub fn check_trace_noise(trace: &Trace, opts: &NoiseOptions, report: &mut Report) {
    let _ = interpret_trace(trace, opts, report);
}

/// The schedule-only entry point used by `ufc-compiler`.
pub fn noise_schedule(trace: &Trace, opts: &NoiseOptions) -> NoiseSchedule {
    let mut sink = Report::new();
    interpret_trace(trace, opts, &mut sink)
}

// ------------------------------------------------------------ stream

/// Stream-level noise pass: works from lowering signatures (see the
/// module docs) because ciphertext identity is gone after lowering.
pub fn check_stream_noise(stream: &InstrStream, opts: &NoiseOptions, report: &mut Report) {
    let ckks = opts.ckks.or_else(|| ckks_params("C1"));
    let tfhe = opts.tfhe.or_else(|| tfhe_params("T1"));
    let max_level = ckks.map(|p| p.max_level()).unwrap_or(32);
    let margin = LweNoise::margin(TFHE_Q, opts.space);

    let mut last_intt_count: Option<u32> = None;
    let mut rescales: u32 = 0;
    let mut budget_flagged = false;

    let mut lwe: Option<LweNoise> = None;
    let mut lwe_flagged = false;
    let mut prev_phase: Option<Phase> = None;

    for instr in stream.instrs() {
        // CKKS rescale signature: Intt(2L+2) → Ntt(2L), both CkksEval.
        if instr.phase == Phase::CkksEval {
            match instr.kernel {
                Kernel::Intt => last_intt_count = Some(instr.shape.count),
                Kernel::Ntt => {
                    if last_intt_count.and_then(|c| c.checked_sub(2)) == Some(instr.shape.count) {
                        rescales += 1;
                        if rescales > max_level && !budget_flagged {
                            budget_flagged = true;
                            report.push(
                                Severity::Error,
                                "noise/stream-rescale-budget-exceeded",
                                Location::Instr(instr.id),
                                format!(
                                    "rescale #{rescales} with only {max_level} levels in \
                                     the modulus chain and no bootstrap phase in \
                                     between: the chain has no limb left to drop"
                                ),
                            );
                        }
                    }
                    last_intt_count = None;
                }
                _ => {}
            }
        } else if instr.phase == Phase::CkksBootstrap {
            // A mod-raise refreshes the chain.
            rescales = 0;
            budget_flagged = false;
        }

        match (instr.phase, instr.kernel) {
            // TFHE gate linear part: the only 32-bit Ewma outside the
            // blind-rotation loop.
            (Phase::TfheKeySwitch, Kernel::Ewma) => {
                let v = lwe.unwrap_or_else(LweNoise::fresh).gate_linear();
                if v.exceeds_margin(margin) && !lwe_flagged {
                    lwe_flagged = true;
                    report.push(
                        Severity::DecryptionRisk,
                        "noise/stream-pbs-starved",
                        Location::Instr(instr.id),
                        format!(
                            "TFHE linear chain reaches 6σ = {:.3e} past the decoding \
                             margin {margin:.3e} with no blind-rotation phase since \
                             the last reset",
                            6.0 * v.std_dev()
                        ),
                    );
                }
                lwe = Some(v);
            }
            // LWE key switch commits on its final reduction.
            (Phase::TfheKeySwitch, Kernel::Redc) => {
                if let Some(p) = tfhe {
                    lwe = Some(lwe.unwrap_or_else(LweNoise::fresh).key_switch(&p, TFHE_Q));
                }
            }
            (Phase::TfheBlindRotate, _) if prev_phase != Some(Phase::TfheBlindRotate) => {
                if let Some(p) = tfhe {
                    let at_input = lwe.unwrap_or_else(LweNoise::fresh).mod_switch(&p, TFHE_Q);
                    if at_input.exceeds_margin(margin) && !lwe_flagged {
                        report.push(
                            Severity::DecryptionRisk,
                            "noise/stream-pbs-starved",
                            Location::Instr(instr.id),
                            format!(
                                "blind rotation begins with input noise 6σ = {:.3e} \
                                 past the decoding margin {margin:.3e}: the \
                                 bootstrap decodes the wrong message",
                                6.0 * at_input.std_dev()
                            ),
                        );
                    }
                    lwe = Some(LweNoise::pbs_output(&p, TFHE_Q));
                    lwe_flagged = false;
                }
            }
            _ => {}
        }
        prev_phase = Some(instr.phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_opts() -> NoiseOptions {
        NoiseOptions::default()
    }

    fn run(trace: &Trace) -> Report {
        let mut r = Report::new();
        check_trace_noise(trace, &noisy_opts(), &mut r);
        r
    }

    #[test]
    fn well_scheduled_chain_is_clean() {
        let mut t = Trace::new("ok").with_ckks("C1");
        let mut level = 20;
        for _ in 0..8 {
            t.push(TraceOp::CkksMulCt { level });
            t.push(TraceOp::CkksRescale { level });
            level -= 1;
            t.push(TraceOp::CkksRotate { level, step: 1 });
        }
        let r = run(&t);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn multiplying_at_the_chain_floor_overflows() {
        let mut t = Trace::new("overflow").with_ckks("C1");
        t.push(TraceOp::CkksMulCt { level: 0 });
        let r = run(&t);
        assert!(r.has_code("noise/scale-overflow"), "{r}");
        assert!(r.has_errors());
    }

    #[test]
    fn dropping_levels_with_raised_products_skips_a_rescale() {
        let mut t = Trace::new("skipped").with_ckks("C1");
        t.push(TraceOp::CkksMulCt { level: 5 });
        t.push(TraceOp::CkksRotate { level: 4, step: 1 });
        let r = run(&t);
        assert!(r.has_code("noise/skipped-rescale"), "{r}");
        assert!(!r.has_errors(), "{r}");
    }

    #[test]
    fn bsgs_sums_share_one_rescale_cleanly() {
        // Depth-compressed ladders (many same-level multiplies, fewer
        // rescales) are the corpus idiom and must stay clean.
        let mut t = Trace::new("bsgs").with_ckks("C1");
        for _ in 0..14 {
            t.push(TraceOp::CkksMulCt { level: 20 });
        }
        for level in (13..=20).rev() {
            t.push(TraceOp::CkksRescale { level });
        }
        let r = run(&t);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn redundant_rescale_kills_the_budget() {
        let mut t = Trace::new("redundant").with_ckks("C1");
        t.push(TraceOp::CkksMulCt { level: 10 });
        t.push(TraceOp::CkksRescale { level: 10 });
        t.push(TraceOp::CkksRescale { level: 9 });
        let r = run(&t);
        assert!(r.has_code("noise/redundant-rescale"), "{r}");
        assert!(r.has_code("noise/decryption-risk"), "{r}");
        assert!(r.has_code("noise/missing-bootstrap"), "{r}");
    }

    #[test]
    fn late_bootstrap_is_flagged_and_missing_bootstrap_is_not() {
        let mut t = Trace::new("late").with_ckks("C1");
        t.push(TraceOp::CkksMulCt { level: 10 });
        t.push(TraceOp::CkksRescale { level: 10 });
        t.push(TraceOp::CkksRescale { level: 9 });
        t.push(TraceOp::CkksModRaise { from_level: 8 });
        let r = run(&t);
        assert!(r.has_code("noise/bootstrap-too-late"), "{r}");
        assert!(!r.has_code("noise/missing-bootstrap"), "{r}");
    }

    #[test]
    fn early_bootstrap_wastes_levels() {
        let mut t = Trace::new("early").with_ckks("C1");
        t.push(TraceOp::CkksMulCt { level: 30 });
        t.push(TraceOp::CkksRescale { level: 30 });
        t.push(TraceOp::CkksModRaise { from_level: 29 });
        let r = run(&t);
        assert!(r.has_code("noise/level-waste"), "{r}");
        assert!(!r.has_errors(), "{r}");
    }

    #[test]
    fn tfhe_gate_chain_without_pbs_starves() {
        let mut t = Trace::new("starved").with_tfhe("T1");
        t.push(TraceOp::TfhePbs { batch: 1 });
        t.push(TraceOp::TfheKeySwitch { batch: 1 });
        for _ in 0..8 {
            t.push(TraceOp::TfheLinear { count: 2 });
        }
        let r = run(&t);
        assert!(r.has_code("noise/pbs-starved"), "{r}");
        assert_eq!(r.risk_count(), 1, "{r}");
    }

    #[test]
    fn pbs_after_every_gate_stays_clean() {
        let mut t = Trace::new("gates").with_tfhe("T1");
        for _ in 0..50 {
            t.push(TraceOp::TfheLinear { count: 2 });
            t.push(TraceOp::TfhePbs { batch: 1 });
            t.push(TraceOp::TfheKeySwitch { batch: 1 });
        }
        let r = run(&t);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn hybrid_boundary_folds_lwe_noise_back() {
        let mut t = Trace::new("hybrid").with_ckks("C1").with_tfhe("T1");
        t.push(TraceOp::CkksMulCt { level: 20 });
        t.push(TraceOp::CkksRescale { level: 20 });
        t.push(TraceOp::Extract {
            level: 19,
            count: 8,
        });
        t.push(TraceOp::TfheLinear { count: 8 });
        t.push(TraceOp::TfhePbs { batch: 8 });
        t.push(TraceOp::TfheKeySwitch { batch: 8 });
        t.push(TraceOp::Repack {
            count: 8,
            level: 19,
        });
        t.push(TraceOp::CkksAdd { level: 19 });
        let r = run(&t);
        assert!(r.is_clean(), "{r}");
        let sched = noise_schedule(&t, &noisy_opts());
        assert_eq!(sched.entries.len(), t.ops.len());
        // The repack row must reflect the folded-in LWE error.
        let repack = &sched.entries[6];
        assert_eq!(repack.op, "Repack");
        assert!(repack.precision_bits.unwrap() < 12.0);
        assert!(sched.min_precision_bits.unwrap() > 2.0);
        assert!(sched.min_margin_sigmas.unwrap() > 6.0);
    }

    #[test]
    fn extract_from_exhausted_ciphertext_warns() {
        let mut t = Trace::new("bad-extract").with_ckks("C1").with_tfhe("T1");
        t.push(TraceOp::CkksMulCt { level: 5 });
        t.push(TraceOp::CkksRescale { level: 5 });
        t.push(TraceOp::CkksRescale { level: 4 }); // kills the budget
        t.push(TraceOp::Extract { level: 3, count: 4 });
        let r = run(&t);
        assert!(r.has_code("noise/extract-degraded-precision"), "{r}");
    }

    #[test]
    fn stream_rescale_match_survives_extreme_counts() {
        use ufc_isa::instr::PolyShape;
        let mut s = InstrStream::new();
        for (kernel, count) in [
            (Kernel::Intt, 1),
            (Kernel::Ntt, u32::MAX),
            (Kernel::Intt, u32::MAX),
            (Kernel::Ntt, u32::MAX - 2),
        ] {
            s.push(
                kernel,
                PolyShape::new(16, count),
                36,
                vec![],
                0,
                Phase::CkksEval,
            );
        }
        let mut r = Report::new();
        check_stream_noise(&s, &noisy_opts(), &mut r);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn schedule_serializes() {
        let mut t = Trace::new("s").with_ckks("C1");
        t.push(TraceOp::CkksMulCt { level: 4 });
        let sched = noise_schedule(&t, &noisy_opts());
        let v = serde::Serialize::to_value(&sched);
        let text = v.to_json();
        assert!(text.contains("\"entries\""), "{text}");
        assert!(text.contains("\"CkksMulCt\""), "{text}");
    }

    #[test]
    fn paper_workloads_are_noise_clean() {
        // The repo's own generated workloads must never trip the noise
        // pass: they are the calibration corpus.
        let mut traces = ufc_workloads::all_ckks_workloads("C1");
        traces.extend(ufc_workloads::all_tfhe_workloads("T1"));
        traces.push(ufc_workloads::knn::generate(
            "C1",
            "T1",
            ufc_workloads::knn::KnnConfig::default(),
        ));
        for trace in traces {
            let r = run(&trace);
            assert!(r.is_clean(), "{}: {r}", trace.name);
        }
    }
}
