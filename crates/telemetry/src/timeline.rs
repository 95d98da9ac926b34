//! The [`Timeline`] recorder: a [`SimObserver`] that captures every
//! schedule decision and derives the occupancy, stall and
//! critical-path views the paper's utilization arguments rest on.

use ufc_isa::instr::MacroInstr;
use ufc_sim::engine::ALL_RESOURCES;
use ufc_sim::observe::{Binding, InstrSchedule, SimObserver};
use ufc_sim::{Demands, InstrCost, Machine, ResKind, SimReport};

/// One recorded instruction: schedule decision plus enough of the
/// instruction's identity for downstream labeling (no borrow into the
/// stream survives the run).
#[derive(Debug, Clone)]
pub struct InstrRecord {
    /// The schedule decision.
    pub sched: InstrSchedule,
    /// Kernel name (stable, `Kernel::name`).
    pub kernel: &'static str,
    /// Phase name (stable, `Phase::name`).
    pub phase: &'static str,
    /// log2 polynomial degree.
    pub log_n: u32,
    /// Batch size.
    pub count: u32,
    /// Lane-occupancy cap (`u32::MAX` = uncapped).
    pub pack: u32,
    /// Off-chip bytes streamed by the instruction.
    pub hbm_bytes: u64,
    /// Busy slices: `(resource, cycles)`, each `[start, start+cycles)`.
    pub demands: Demands,
    /// Dynamic energy of the instruction in pJ.
    pub energy_pj: f64,
}

/// A busy interval of one resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyInterval {
    /// First busy cycle.
    pub start: u64,
    /// One past the last busy cycle.
    pub end: u64,
    /// Occupying instruction id.
    pub id: usize,
}

/// Full-run recorder. Attach with
/// `ufc_sim::simulate_with(&machine, &stream, &mut timeline)`.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    records: Vec<InstrRecord>,
    machine: String,
    makespan: u64,
    report: Option<SimReport>,
}

impl SimObserver for Timeline {
    fn on_begin(&mut self, machine: &dyn Machine, stream: &ufc_isa::instr::InstrStream) {
        self.machine = machine.name().to_owned();
        self.records.clear();
        self.records.reserve(stream.len());
        self.makespan = 0;
        self.report = None;
    }

    fn on_instr(&mut self, sched: &InstrSchedule, instr: &MacroInstr, cost: &InstrCost) {
        self.makespan = self.makespan.max(sched.end);
        self.records.push(InstrRecord {
            sched: *sched,
            kernel: instr.kernel.name(),
            phase: instr.phase.name(),
            log_n: instr.shape.log_n,
            count: instr.shape.count,
            pack: instr.pack,
            hbm_bytes: instr.hbm_bytes,
            demands: cost.demands,
            energy_pj: cost.energy_pj,
        });
    }

    fn on_end(&mut self, report: &SimReport) {
        self.report = Some(report.clone());
    }
}

impl Timeline {
    /// An empty timeline ready to attach.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded instructions, in issue order.
    pub fn records(&self) -> &[InstrRecord] {
        &self.records
    }

    /// The machine the run executed on.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// The run's makespan in cycles.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// The end-of-run report, when the run completed.
    pub fn report(&self) -> Option<&SimReport> {
        self.report.as_ref()
    }

    /// Busy intervals of one resource, in start order. Intervals
    /// never overlap: the engine serializes instructions on each
    /// resource (asserted by this crate's property tests).
    pub fn occupancy(&self, res: ResKind) -> Vec<BusyInterval> {
        let mut out = Vec::new();
        for rec in &self.records {
            for &(r, c) in &rec.demands {
                if r == res && c > 0 {
                    out.push(BusyInterval {
                        start: rec.sched.start,
                        end: rec.sched.start + c,
                        id: rec.sched.id,
                    });
                }
            }
        }
        out.sort_by_key(|iv| (iv.start, iv.id));
        out
    }

    /// Every resource that appears in the run, in `ResKind` order.
    pub fn resources(&self) -> Vec<ResKind> {
        let mut seen = [false; ALL_RESOURCES.len()];
        for rec in &self.records {
            for &(r, c) in &rec.demands {
                seen[r as usize] |= c > 0;
            }
        }
        ALL_RESOURCES
            .into_iter()
            .filter(|&r| seen[r as usize])
            .collect()
    }

    /// Windowed utilization time-series: for each active resource,
    /// the fraction of each `window`-cycle bucket it was busy. The
    /// last bucket covers the makespan remainder (fraction relative
    /// to the full window, so a short tail reads as low utilization).
    pub fn utilization_series(&self, window: u64) -> WindowedUtilization {
        let window = window.max(1);
        let buckets = (self.makespan.div_ceil(window)).max(1) as usize;
        let mut series = Vec::new();
        for res in self.resources() {
            let mut busy = vec![0u64; buckets];
            for iv in self.occupancy(res) {
                let mut cur = iv.start;
                while cur < iv.end {
                    let bucket = (cur / window) as usize;
                    let bucket_end = (cur / window + 1) * window;
                    let upto = iv.end.min(bucket_end);
                    busy[bucket] += upto - cur;
                    cur = upto;
                }
            }
            series.push((
                res.name().to_owned(),
                busy.iter().map(|&b| b as f64 / window as f64).collect(),
            ));
        }
        WindowedUtilization {
            window,
            makespan: self.makespan,
            series,
        }
    }

    /// Walks the binding chain back from the makespan-defining
    /// instruction, attributing every cycle of the makespan to
    /// exactly one instruction on the path (see [`CriticalPath`]).
    pub fn critical_path(&self) -> CriticalPath {
        let mut segments: Vec<PathSegment> = Vec::new();
        // The instruction whose end defines the makespan. Ties go to
        // the highest id — the latest-issued finisher — so
        // zero-duration tail instructions stay on the path.
        let top = self
            .records
            .iter()
            .max_by(|a, b| {
                a.sched
                    .end
                    .cmp(&b.sched.end)
                    .then(a.sched.id.cmp(&b.sched.id))
            })
            .map(|r| r.sched.id);
        let mut boundary = self.makespan;
        let mut cur = top;
        while let Some(id) = cur {
            let rec = &self.records[id];
            segments.push(PathSegment {
                id,
                kernel: rec.kernel.to_owned(),
                phase: rec.phase.to_owned(),
                start: rec.sched.start,
                contribution: boundary - rec.sched.start,
                via: match rec.sched.binding {
                    Binding::Free => "source".to_owned(),
                    Binding::Dep { .. } => "dep".to_owned(),
                    Binding::Resource { res, .. } => format!("resource:{}", res.name()),
                },
            });
            boundary = rec.sched.start;
            cur = match rec.sched.binding {
                Binding::Free => None,
                Binding::Dep { pred } | Binding::Resource { pred, .. } => Some(pred),
            };
        }
        segments.reverse();
        let mut by_kernel = accumulate(segments.iter().map(|s| (s.kernel.clone(), s.contribution)));
        let mut by_phase = accumulate(segments.iter().map(|s| (s.phase.clone(), s.contribution)));
        sort_breakdown(&mut by_kernel);
        sort_breakdown(&mut by_phase);
        CriticalPath {
            length: self.makespan,
            segments,
            by_kernel,
            by_phase,
        }
    }

    /// Aggregate stall attribution across the run.
    pub fn stall_summary(&self) -> StallSummary {
        let mut dep_stall = 0u64;
        let mut res_stall_total = 0u64;
        let mut res_stall = [0u64; ALL_RESOURCES.len()];
        let mut busy = [0u64; ALL_RESOURCES.len()];
        for rec in &self.records {
            dep_stall = dep_stall.saturating_add(rec.sched.dep_stall);
            res_stall_total = res_stall_total.saturating_add(rec.sched.res_stall);
            if rec.sched.res_stall > 0 {
                if let Binding::Resource { res, .. } = rec.sched.binding {
                    let t = &mut res_stall[res as usize];
                    *t = t.saturating_add(rec.sched.res_stall);
                }
            }
            for &(r, c) in &rec.demands {
                busy[r as usize] = busy[r as usize].saturating_add(c);
            }
        }
        StallSummary {
            dep_stall,
            res_stall_total,
            res_stall: breakdown(&res_stall),
            busy: breakdown(&busy),
        }
    }

    /// The run condensed into one serializable summary.
    pub fn summary(&self) -> TelemetrySummary {
        let mut kernels: Vec<KernelStat> = Vec::new();
        let mut phases: Vec<PhaseStat> = Vec::new();
        for rec in &self.records {
            let busy: u64 = rec.sched.duration();
            let k = match kernels.iter_mut().find(|k| k.kernel == rec.kernel) {
                Some(k) => k,
                None => {
                    kernels.push(KernelStat {
                        kernel: rec.kernel.to_owned(),
                        ..KernelStat::default()
                    });
                    kernels.last_mut().expect("just pushed")
                }
            };
            k.instrs += 1;
            k.active_cycles = k.active_cycles.saturating_add(busy);
            k.dep_stall = k.dep_stall.saturating_add(rec.sched.dep_stall);
            k.res_stall = k.res_stall.saturating_add(rec.sched.res_stall);
            k.hbm_bytes = k.hbm_bytes.saturating_add(rec.hbm_bytes);
            let p = match phases.iter_mut().find(|p| p.phase == rec.phase) {
                Some(p) => p,
                None => {
                    phases.push(PhaseStat {
                        phase: rec.phase.to_owned(),
                        ..PhaseStat::default()
                    });
                    phases.last_mut().expect("just pushed")
                }
            };
            p.instrs += 1;
            p.active_cycles = p.active_cycles.saturating_add(busy);
            p.dep_stall = p.dep_stall.saturating_add(rec.sched.dep_stall);
            p.res_stall = p.res_stall.saturating_add(rec.sched.res_stall);
            p.hbm_bytes = p.hbm_bytes.saturating_add(rec.hbm_bytes);
        }
        kernels.sort_by(|a, b| {
            b.active_cycles
                .cmp(&a.active_cycles)
                .then_with(|| a.kernel.cmp(&b.kernel))
        });
        phases.sort_by(|a, b| {
            b.active_cycles
                .cmp(&a.active_cycles)
                .then_with(|| a.phase.cmp(&b.phase))
        });
        TelemetrySummary {
            machine: self.machine.clone(),
            cycles: self.makespan,
            instrs: self.records.len(),
            kernels,
            phases,
            stalls: self.stall_summary(),
            critical_path: self.critical_path(),
        }
    }
}

fn bump(v: &mut Vec<(String, u64)>, name: &str, delta: u64) {
    match v.iter_mut().find(|(k, _)| k == name) {
        Some((_, c)) => *c = c.saturating_add(delta),
        None => v.push((name.to_owned(), delta)),
    }
}

fn accumulate(items: impl Iterator<Item = (String, u64)>) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for (name, delta) in items {
        bump(&mut out, &name, delta);
    }
    out
}

/// The named, sorted breakdown of per-resource totals indexed by
/// `ResKind as usize`. A resource is listed iff its total is nonzero:
/// every demand and every charged stall is nonzero, so that is
/// exactly the resources some instruction named.
pub(crate) fn breakdown(totals: &[u64; ALL_RESOURCES.len()]) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = ALL_RESOURCES
        .into_iter()
        .filter(|&r| totals[r as usize] > 0)
        .map(|r| (r.name().to_owned(), totals[r as usize]))
        .collect();
    sort_breakdown(&mut v);
    v
}

/// Largest first, name as tie-break (deterministic goldens).
fn sort_breakdown(v: &mut [(String, u64)]) {
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}

/// Busy-fraction time series per resource.
#[derive(Debug, Clone, serde::Serialize)]
pub struct WindowedUtilization {
    /// Bucket width in cycles.
    pub window: u64,
    /// Total cycles covered.
    pub makespan: u64,
    /// `(resource name, busy fraction per bucket)`.
    pub series: Vec<(String, Vec<f64>)>,
}

/// One instruction on the critical path with the makespan share
/// attributed to it.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PathSegment {
    /// Instruction id.
    pub id: usize,
    /// Kernel name.
    pub kernel: String,
    /// Phase name.
    pub phase: String,
    /// Start cycle.
    pub start: u64,
    /// Makespan cycles attributed to this instruction.
    pub contribution: u64,
    /// How the *successor* was bound to this instruction: `"dep"`,
    /// `"resource:<name>"`, or `"source"` for the chain head.
    pub via: String,
}

/// The dependency/contention critical path through the scheduled
/// stream. Built by walking binding predecessors back from the
/// makespan-defining instruction; successive `[start, boundary)`
/// windows tile `[0, makespan]`, so `segments` attribute every cycle
/// of the makespan to exactly one kernel/phase —
/// `sum(contribution) == length` always holds.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CriticalPath {
    /// Total cycles attributed (equals the makespan).
    pub length: u64,
    /// Path instructions, earliest first.
    pub segments: Vec<PathSegment>,
    /// Makespan attribution per kernel, largest first.
    pub by_kernel: Vec<(String, u64)>,
    /// Makespan attribution per phase, largest first.
    pub by_phase: Vec<(String, u64)>,
}

/// Aggregate stall accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct StallSummary {
    /// Total cycles instructions spent waiting on producers.
    pub dep_stall: u64,
    /// Total cycles instructions spent waiting on busy resources.
    pub res_stall_total: u64,
    /// Resource-stall cycles per binding resource, largest first.
    pub res_stall: Vec<(String, u64)>,
    /// Busy cycles per resource, largest first.
    pub busy: Vec<(String, u64)>,
}

/// Per-kernel schedule statistics.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct KernelStat {
    /// Kernel name.
    pub kernel: String,
    /// Instructions of this kernel.
    pub instrs: u64,
    /// Summed busy durations (start→end) of those instructions.
    pub active_cycles: u64,
    /// Summed dependency-stall cycles.
    pub dep_stall: u64,
    /// Summed resource-stall cycles.
    pub res_stall: u64,
    /// Summed off-chip traffic in bytes.
    pub hbm_bytes: u64,
}

/// Per-phase schedule statistics.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct PhaseStat {
    /// Phase name.
    pub phase: String,
    /// Instructions in this phase.
    pub instrs: u64,
    /// Summed busy durations of those instructions.
    pub active_cycles: u64,
    /// Summed dependency-stall cycles.
    pub dep_stall: u64,
    /// Summed resource-stall cycles.
    pub res_stall: u64,
    /// Summed off-chip traffic in bytes.
    pub hbm_bytes: u64,
}

/// The whole run, condensed and serializable.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TelemetrySummary {
    /// Machine name.
    pub machine: String,
    /// Makespan in cycles.
    pub cycles: u64,
    /// Instructions scheduled.
    pub instrs: usize,
    /// Per-kernel statistics, most active first.
    pub kernels: Vec<KernelStat>,
    /// Per-phase statistics, most active first.
    pub phases: Vec<PhaseStat>,
    /// Aggregate stall attribution.
    pub stalls: StallSummary,
    /// Makespan attribution along the critical path.
    pub critical_path: CriticalPath,
}
