//! End-to-end benchmark of the UFC host FHE stack and simulator.
//!
//! ```text
//! ufc-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ufc-benchmark --smoke [--workload <name>] [--seed <u64>]
//! ufc-benchmark --print-golden
//! ```
//!
//! One run drives one workload with a single closed-loop client: the
//! next request is sent only after the previous answer was decrypted and
//! checked. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A readable summary goes to standard error. See README.md.

mod probes;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Value;
use spans::{Rollup, LAYERS, REQUEST};
use stats::{median, staged_min};
use workloads::sim_sweep::SimSweep;
use workloads::{setup, Outcome, Workload, NAMES};

const USAGE: &str =
    "usage: ufc-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
       ufc-benchmark --smoke [--workload <name>] [--seed <u64>]
       ufc-benchmark --print-golden
workloads: bool_circuit_t1, ckks_c2_n13, hybrid_knn_t1, sim_sweep";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Largest relative gap between the layer roll-up and request wall time
/// that `--smoke` accepts.
const RECONCILE_LIMIT: f64 = 0.03;

/// Seed of the layer probes' keys: fixed, so probes measure the same
/// shapes and key material in every run.
const PROBE_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    print_golden: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        print_golden: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--print-golden" => parsed.print_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload.is_none() && !parsed.smoke && !parsed.print_golden {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_golden {
        println!("{}", SimSweep::new(args.seed).golden_json());
        return ExitCode::SUCCESS;
    }
    if args.smoke {
        return smoke(&args);
    }
    let name = args.workload.as_deref().expect("checked by parse_args");
    eprintln!("{name}: seed {}, {} s of requests", args.seed, args.seconds);
    let report = if args.trace {
        traced(name, &args)
    } else {
        untraced(name, &args)
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// One reported metric.
#[derive(Debug)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The result line of one run.
#[derive(Debug)]
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = vec![
                    ("value".to_owned(), Value::F64(m.value)),
                    ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                ];
                (m.name.clone(), Value::Object(body))
            })
            .collect();
        Value::Object(vec![
            ("correct".to_owned(), Value::Bool(self.failed == 0)),
            ("attempted".to_owned(), Value::U64(self.attempted as u64)),
            ("failed".to_owned(), Value::U64(self.failed as u64)),
            ("metrics".to_owned(), Value::Object(metrics)),
        ])
        .to_json()
    }
}

/// Requests `first..` in a closed loop until `budget` has passed (at
/// least one), each through `request`.
fn closed_loop(
    first: u64,
    budget: Duration,
    mut request: impl FnMut(u64) -> Outcome,
) -> (Vec<Outcome>, Duration) {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed() < budget {
        out.push(request(first + out.len() as u64));
    }
    (out, start.elapsed())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn failures(outcomes: &[Outcome]) -> usize {
    outcomes.iter().filter(|o| !o.ok).count()
}

/// Server stage times of each request, in ms.
fn stages_ms(outcomes: &[Outcome]) -> Vec<Vec<f64>> {
    outcomes
        .iter()
        .map(|o| o.server.iter().map(|&d| ms(d)).collect())
        .collect()
}

/// Measured values of an untraced run, before naming.
struct Measured {
    setup_s: Vec<f64>,
    /// Server stage times of each timed request.
    server_ms: Vec<Vec<f64>>,
    /// Client time of each timed request.
    client_ms: Vec<f64>,
    peak_rss_mb: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
///
/// Request times are summarised by the fastest time of each stage, not
/// by a median: on a shared host, neighbours slow the vCPUs for seconds
/// to minutes and only ever add time, which moves the median of a set of
/// runs by a third while the fastest times hold.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let op_ms = staged_min(&m.server_ms);
    let client_ms = m.client_ms.iter().copied().fold(f64::INFINITY, f64::min);
    [
        ("setup_s", "s", median(&m.setup_s)),
        ("op_min_ms", "ms", op_ms),
        ("req_per_s", "1/s", 1e3 / (op_ms + client_ms)),
        ("peak_rss_mb", "MB", m.peak_rss_mb),
    ]
    .into_iter()
    .map(|(name, unit, value)| Metric::new(name, unit, value))
    .collect()
}

fn untraced(name: &str, args: &Args) -> Report {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so peak memory holds one.
        drop(built.take());
        let start = Instant::now();
        built = Some(setup(name, args.seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = built.expect("SETUP_REPEATS > 0");
    let warm_up = w.request(0);
    let (timed, elapsed) = closed_loop(1, Duration::from_secs_f64(args.seconds), |i| w.request(i));

    let measured = Measured {
        setup_s,
        server_ms: stages_ms(&timed),
        client_ms: timed.iter().map(|o| ms(o.client)).collect(),
        peak_rss_mb: peak_rss_mb(),
    };
    let server_total: Vec<f64> = timed.iter().map(|o| ms(o.server_total())).collect();
    eprintln!(
        "  {} timed requests in {:.2} s ({:.4} req/s); setups {:?} s",
        timed.len(),
        elapsed.as_secs_f64(),
        timed.len() as f64 / elapsed.as_secs_f64(),
        measured.setup_s,
    );
    eprintln!(
        "  server p50 {:.3} ms; client p50 {:.3} ms",
        median(&server_total),
        median(&measured.client_ms)
    );
    if let Some((value, pct)) = stats::tail(&server_total) {
        eprintln!("  server p{pct:.1} {value:.3} ms (n = {})", timed.len());
    }
    Report {
        attempted: 1 + timed.len(),
        failed: usize::from(!warm_up.ok) + failures(&timed),
        metrics: end_to_end(&measured),
    }
}

/// Measured values of a traced run, before naming.
struct Traced {
    rollup: Rollup,
    /// Summed wall time of the traced requests, from the benchmark's clock.
    wall_ns: u64,
    par_threads: usize,
    /// Server time of the traced and of the untraced half, each as
    /// [`staged_min`] gives it.
    traced_ms: f64,
    untraced_ms: f64,
    /// Probe values, in [`probes::METRICS`] order.
    probes: Vec<f64>,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn per_layer(t: &Traced) -> Vec<Metric> {
    let wall = t.wall_ns as f64;
    let mut out: Vec<Metric> = LAYERS
        .iter()
        .map(|layer| {
            let self_ns = t.rollup.layers.get(layer).copied().unwrap_or(0);
            Metric::new(format!("{layer}.self_frac"), "frac", self_ns as f64 / wall)
        })
        .collect();
    let busy = t.rollup.worker_ns as f64 / (wall * t.par_threads as f64);
    out.push(Metric::new("math.worker_busy_frac", "frac", busy));
    let err = reconcile_err(&t.rollup, t.wall_ns);
    out.push(Metric::new("trace.reconcile_err", "frac", err));
    let overhead = t.traced_ms / t.untraced_ms - 1.0;
    out.push(Metric::new("trace.overhead_frac", "frac", overhead));
    out.extend(
        probes::METRICS
            .iter()
            .zip(&t.probes)
            .map(|(&(name, unit), &value)| Metric::new(name, unit, value)),
    );
    out
}

/// Relative gap between the client-thread roll-up and request wall time.
fn reconcile_err(rollup: &Rollup, wall_ns: u64) -> f64 {
    (rollup.total_ns() as f64 - wall_ns as f64).abs() / wall_ns as f64
}

/// Runs traced requests from `first` for `budget` (at least one);
/// returns their outcomes, the roll-up and the summed wall time.
fn record_requests(
    w: &mut dyn Workload,
    first: u64,
    budget: Duration,
) -> (Vec<Outcome>, Rollup, u64) {
    let recorder = ufc_trace::record().expect("no other recorder is live");
    let mut wall_ns = 0u64;
    let mut traced = |i: u64| {
        let start = Instant::now();
        let outcome = {
            let _root = ufc_trace::span(REQUEST.0, REQUEST.1);
            w.request(i)
        };
        wall_ns += start.elapsed().as_nanos() as u64;
        outcome
    };
    let (outcomes, _) = closed_loop(first, budget, &mut traced);
    let trace = recorder.finish();
    (outcomes, Rollup::new(&trace.spans), wall_ns)
}

fn traced(name: &str, args: &Args) -> Report {
    let mut w = setup(name, args.seed);
    let warm_up = w.request(0);
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let (plain, _) = closed_loop(1, half, |i| w.request(i));
    let (traced, rollup, wall_ns) = record_requests(w.as_mut(), 1 + plain.len() as u64, half);
    drop(w);

    let mut fixture = probes::Fixture::new(PROBE_SEED);
    let t = Traced {
        rollup,
        wall_ns,
        par_threads: ufc_math::par::effective_threads(),
        traced_ms: staged_min(&stages_ms(&traced)),
        untraced_ms: staged_min(&stages_ms(&plain)),
        probes: fixture.run(),
    };
    let kernels: Vec<String> = fixture
        .kernels()
        .iter()
        .map(|(n, k)| format!("{n}={k}"))
        .collect();
    eprintln!(
        "  host: available_parallelism {}, par_threads {}, ntt kernels {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        t.par_threads,
        kernels.join(" ")
    );
    eprintln!(
        "  {} untraced + {} traced requests; roll-up {:?} ns of {} ns",
        plain.len(),
        traced.len(),
        t.rollup.layers,
        t.wall_ns
    );
    Report {
        attempted: 1 + plain.len() + traced.len(),
        failed: usize::from(!warm_up.ok) + failures(&plain) + failures(&traced),
        metrics: per_layer(&t),
    }
}

/// `--smoke`: one traced request per workload, checking the answer and
/// the roll-up reconciliation only.
fn smoke(args: &Args) -> ExitCode {
    let names: Vec<&str> = match args.workload.as_deref() {
        Some(name) => vec![name],
        None => NAMES.to_vec(),
    };
    let mut ok = true;
    for name in names {
        let (correct, err) = smoke_one(name, args.seed);
        let pass = correct && err <= RECONCILE_LIMIT;
        println!(
            "{name}: correct {correct}, reconcile_err {err:.5} -> {}",
            if pass { "ok" } else { "FAIL" }
        );
        ok &= pass;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn smoke_one(name: &str, seed: u64) -> (bool, f64) {
    let mut w = setup(name, seed);
    let (outcomes, rollup, wall_ns) = record_requests(w.as_mut(), 0, Duration::ZERO);
    (failures(&outcomes) == 0, reconcile_err(&rollup, wall_ns))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Value::as_array)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("name and unit")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn names_units(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn untraced_output_has_exactly_the_declared_end_to_end_metrics() {
        let m = Measured {
            setup_s: vec![1.0, 2.0, 3.0],
            server_ms: vec![vec![5.0]],
            client_ms: vec![6.0],
            peak_rss_mb: 100.0,
        };
        assert_eq!(names_units(&end_to_end(&m)), declared("end_to_end"));
    }

    #[test]
    fn closed_loop_rate_adds_the_fastest_client_time_to_the_server_time() {
        let m = Measured {
            setup_s: vec![1.0],
            server_ms: vec![vec![3.0, 2.0], vec![1.0, 4.0]],
            client_ms: vec![5.0, 7.0],
            peak_rss_mb: 1.0,
        };
        let values: Vec<f64> = end_to_end(&m).iter().map(|m| m.value).collect();
        assert_eq!(values, [1.0, 3.0, 1e3 / 8.0, 1.0]);
    }

    #[test]
    fn traced_output_has_exactly_the_declared_per_layer_metrics() {
        let t = Traced {
            rollup: Rollup::default(),
            wall_ns: 1,
            par_threads: 2,
            traced_ms: 1.0,
            untraced_ms: 1.0,
            probes: vec![1.0; probes::METRICS.len()],
        };
        assert_eq!(names_units(&per_layer(&t)), declared("per_layer"));
    }

    #[test]
    fn report_line_has_the_four_keys() {
        let r = Report {
            attempted: 3,
            failed: 1,
            metrics: vec![Metric::new("op_min_ms", "ms", 1.25)],
        };
        assert_eq!(
            r.to_json(),
            r#"{"correct":false,"attempted":3,"failed":1,"metrics":{"op_min_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload sim_sweep --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(args.workload.as_deref(), Some("sim_sweep"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload sim_sweep --trace 2").is_err());
        assert!(parse("--workload sim_sweep --seconds 0").is_err());
        assert!(parse("--seed 3").is_err(), "a workload is required");
        assert!(parse("--smoke").is_ok());
    }
}
