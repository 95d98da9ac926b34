//! `ufc-profile` — profile a serialized trace or instruction stream.
//!
//! ```text
//! ufc-profile <input> [--machine ufc|sharp|strix|composed]
//!             [--perfetto <path>] [--json <path>] [--top N]
//!             [--host] [--jsonl <path>]
//! ```
//!
//! The input is the native text form (`ufc_isa::serial`): a `# ufc
//! trace v1` file is compiled with the barrier-aware hybrid compiler
//! first; a `# ufc stream v1` file is simulated as-is, once its
//! dependency edges are known to be backward and in range (the
//! parser accepts any edge so that `ufc-lint` can report it; run
//! `ufc-lint` for the full diagnosis). The run prints a summary
//! table with the stream's scratchpad high-water mark, stall
//! attribution and the critical-path report;
//! `--perfetto` additionally writes a Chrome-trace JSON file openable
//! in `ui.perfetto.dev`, and `--json` writes the full serializable
//! summary.
//!
//! `--host` additionally runs the real hybrid k-NN pipeline on the
//! host evaluator stack with the `ufc-trace` recorder live and
//! reports what it saw: a top-spans table, per-NTT-kernel latency
//! histograms, and the measured-vs-static noise headroom drift. With
//! `--host`, `--perfetto` writes a *merged* trace (simulator timeline
//! and host spans as separate labelled processes), `--jsonl` dumps
//! the raw host spans as JSON lines, and `--json` gains a `host`
//! block with the folded metrics registry.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use ufc_core::{profile_host, profile_stream, HostProfile, ProfiledRun, Ufc};
use ufc_isa::serial::{stream_from_text, trace_from_text};
use ufc_sim::machines::{ComposedMachine, Machine, SharpMachine, StrixMachine, UfcMachine};
use ufc_telemetry::host::SpanAgg;
use ufc_workloads::host::HostRunConfig;

fn usage() -> String {
    "usage: ufc-profile <input> [--machine ufc|sharp|strix|composed] \
     [--perfetto <path>] [--json <path>] [--top N] [--host] [--jsonl <path>]"
        .to_owned()
}

struct Args {
    input: String,
    machine: String,
    perfetto: Option<String>,
    json: Option<String>,
    top: usize,
    host: bool,
    jsonl: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut input = None;
    let mut machine = "ufc".to_owned();
    let mut perfetto = None;
    let mut json = None;
    let mut top = 8usize;
    let mut host = false;
    let mut jsonl = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--machine" => machine = flag_value("--machine")?,
            "--perfetto" => perfetto = Some(flag_value("--perfetto")?),
            "--json" => json = Some(flag_value("--json")?),
            "--jsonl" => jsonl = Some(flag_value("--jsonl")?),
            "--host" => host = true,
            "--top" => {
                top = flag_value("--top")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            other => {
                if input.replace(other.to_owned()).is_some() {
                    return Err(format!("more than one input file\n{}", usage()));
                }
            }
        }
    }
    if jsonl.is_some() && !host {
        return Err(format!("--jsonl requires --host\n{}", usage()));
    }
    Ok(Args {
        input: input.ok_or_else(usage)?,
        machine,
        perfetto,
        json,
        top,
        host,
        jsonl,
    })
}

/// The first non-comment, non-empty line decides the input kind.
fn sniff_kind(text: &str) -> Option<&'static str> {
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "stream" || line.starts_with("instr ") {
            return Some("stream");
        }
        if line.starts_with("trace") {
            return Some("trace");
        }
        return None;
    }
    None
}

fn baseline_machine(name: &str) -> Result<Box<dyn Machine>, String> {
    Ok(match name {
        "ufc" => Box::new(UfcMachine::paper_default()),
        "sharp" => Box::new(SharpMachine::new()),
        "strix" => Box::new(StrixMachine::new()),
        "composed" => Box::new(ComposedMachine::new()),
        other => {
            return Err(format!(
                "unknown machine `{other}` (ufc|sharp|strix|composed)"
            ))
        }
    })
}

fn run(args: &Args) -> Result<ProfiledRun, String> {
    let text = std::fs::read_to_string(&args.input).map_err(|e| format!("{}: {e}", args.input))?;
    match sniff_kind(&text) {
        Some("trace") => {
            let trace = trace_from_text(&text).map_err(|e| format!("{}: {e}", args.input))?;
            let ufc = Ufc::paper_default();
            if args.machine == "ufc" {
                ufc.try_run_profiled(&trace).map_err(|e| e.to_string())
            } else {
                let machine = baseline_machine(&args.machine)?;
                ufc.try_run_profiled_on(machine.as_ref(), &trace)
                    .map_err(|e| e.to_string())
            }
        }
        Some("stream") => {
            let stream = stream_from_text(&text).map_err(|e| format!("{}: {e}", args.input))?;
            let mut dataflow = ufc_verify::Report::new();
            ufc_verify::stream_checks::check_dataflow(&stream, &mut dataflow);
            if dataflow.has_errors() {
                return Err(format!("{}: malformed stream\n{dataflow}", args.input));
            }
            let machine = baseline_machine(&args.machine)?;
            Ok(profile_stream(machine.as_ref(), &stream, None))
        }
        _ => Err(format!(
            "{}: not a ufc trace or stream (expected a `trace`/`stream` header line)",
            args.input
        )),
    }
}

fn print_report(run: &ProfiledRun, top: usize) {
    let s = run.summary();
    let r = &run.report;
    println!("# ufc-profile: {}", s.machine);
    println!();
    println!(
        "cycles {}   time {:.3} ms   energy {:.3} J   instrs {}   hbm {} MiB",
        s.cycles,
        r.seconds * 1e3,
        r.energy_j,
        s.instrs,
        r.hbm_bytes >> 20
    );
    println!(
        "scratchpad high-water mark {} MiB ({} bytes) at instr {}",
        run.high_water.bytes >> 20,
        run.high_water.bytes,
        run.high_water.at
    );
    println!();
    println!("## kernels (by active cycles)");
    println!("| kernel | instrs | active | dep stall | res stall | hbm bytes |");
    println!("|---|---|---|---|---|---|");
    for k in s.kernels.iter().take(top) {
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            k.kernel, k.instrs, k.active_cycles, k.dep_stall, k.res_stall, k.hbm_bytes
        );
    }
    println!();
    println!("## stalls");
    println!(
        "dependency {} cycles, contention {} cycles",
        s.stalls.dep_stall, s.stalls.res_stall_total
    );
    for (res, cycles) in s.stalls.res_stall.iter().take(top) {
        println!("  blocked on {res}: {cycles}");
    }
    println!();
    let cp = &s.critical_path;
    println!(
        "## critical path ({} cycles across {} instructions)",
        cp.length,
        cp.segments.len()
    );
    println!("by kernel:");
    for (name, cycles) in cp.by_kernel.iter().take(top) {
        let pct = 100.0 * *cycles as f64 / cp.length.max(1) as f64;
        println!("  {name}: {cycles} ({pct:.1}%)");
    }
    println!("by phase:");
    for (name, cycles) in cp.by_phase.iter().take(top) {
        let pct = 100.0 * *cycles as f64 / cp.length.max(1) as f64;
        println!("  {name}: {cycles} ({pct:.1}%)");
    }
    if let Some(stats) = &run.compile_stats {
        println!();
        println!("## lowering ({} trace ops)", stats.ops.len());
        println!("| op | count | instrs | hbm bytes |");
        println!("|---|---|---|---|");
        for kind in stats.by_op_kind().iter().take(top) {
            println!(
                "| {} | {} | {} | {} |",
                kind.op, kind.count, kind.instrs, kind.hbm_bytes
            );
        }
        print_noise_schedule(&stats.noise, top);
    }
}

/// The static noise schedule: worst-case summary plus the `top`
/// tightest rows (least CKKS precision, then least TFHE margin).
fn print_noise_schedule(noise: &ufc_verify::NoiseSchedule, top: usize) {
    if noise.is_empty() {
        return;
    }
    println!();
    println!("## noise schedule ({} rows)", noise.entries.len());
    match noise.min_precision_bits {
        Some(p) => println!("worst CKKS precision: {p:.1} bits"),
        None => println!("worst CKKS precision: n/a (no CKKS ops)"),
    }
    match noise.min_margin_sigmas {
        Some(m) => println!("worst TFHE margin: {m:.1} sigma"),
        None => println!("worst TFHE margin: n/a (no TFHE ops)"),
    }
    let mut tight: Vec<&ufc_verify::noise_checks::NoiseScheduleEntry> = noise
        .entries
        .iter()
        .filter(|e| e.precision_bits.is_some() || e.margin_sigmas.is_some())
        .collect();
    tight.sort_by(|a, b| {
        let key = |e: &ufc_verify::noise_checks::NoiseScheduleEntry| {
            // Rank by whichever slack the row carries; CKKS precision
            // and TFHE sigma-margin share a "bits of headroom" scale
            // closely enough for a worst-first listing.
            e.precision_bits
                .or(e.margin_sigmas)
                .unwrap_or(f64::INFINITY)
        };
        key(a).total_cmp(&key(b))
    });
    println!("| op | level | scale | precision (bits) | margin (sigma) |");
    println!("|---|---|---|---|---|");
    for e in tight.iter().take(top) {
        let fmt_u32 = |v: Option<u32>| v.map_or("-".into(), |x| x.to_string());
        let fmt_f64 = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.1}"));
        println!(
            "| {} {} | {} | {} | {} | {} |",
            e.index,
            e.op,
            fmt_u32(e.level),
            fmt_f64(e.scale_log2),
            fmt_f64(e.precision_bits),
            fmt_f64(e.margin_sigmas)
        );
    }
}

fn span_row(a: &SpanAgg) {
    println!(
        "| {} | {} | {:.1} | {:.2} | {:.2} | {:.2} |",
        a.key,
        a.count,
        a.total_ns as f64 / 1e3,
        a.mean_ns / 1e3,
        a.p99_ns as f64 / 1e3,
        a.max_ns as f64 / 1e3
    );
}

/// The host-recording sections: top spans, per-kernel histograms,
/// noise headroom drift, and the remaining gauges.
fn print_host_report(profile: &HostProfile, top: usize) {
    let r = &profile.report;
    println!();
    println!(
        "## host top spans ({} span kinds, {} thread(s), wall {:.3} ms)",
        r.spans.len(),
        r.threads,
        r.wall_ns as f64 / 1e6
    );
    println!("| span | count | total µs | mean µs | p99 µs | max µs |");
    println!("|---|---|---|---|---|---|");
    for a in r.spans.iter().take(top) {
        span_row(a);
    }
    if !r.kernels.is_empty() {
        println!();
        println!("## host kernel histograms (tagged spans)");
        println!("| span | count | total µs | mean µs | p99 µs | max µs |");
        println!("|---|---|---|---|---|---|");
        for a in r.kernels.iter().take(top) {
            span_row(a);
        }
    }
    println!();
    println!("## noise headroom");
    match &profile.noise_drift {
        Some(d) => {
            println!("measured precision: {:.1} bits", d.measured_bits);
            println!("static schedule bound: {:.1} bits", d.static_bound_bits);
            println!("headroom drift: {:+.1} bits", d.drift_bits);
        }
        None => println!("n/a (no CKKS ops in the host trace)"),
    }
    for (name, value) in &r.gauges {
        if name != "ckks/measured_precision_bits" {
            println!("gauge {name}: {value:.3}");
        }
    }
    if !profile.run.all_correct() {
        println!("WARNING: host pipeline outputs disagreed with plaintext expectations");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let run = match run(&args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("ufc-profile: {msg}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&run, args.top);
    let host = if args.host {
        match profile_host(&HostRunConfig::default()) {
            Ok(p) => {
                print_host_report(&p, args.top);
                Some(p)
            }
            Err(msg) => {
                eprintln!("ufc-profile: {msg}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if let Some(path) = &args.perfetto {
        let trace_json = match &host {
            Some(p) => ufc_telemetry::perfetto::merged_to_value(Some(&run.timeline), &p.host_trace)
                .to_json(),
            None => run.perfetto_json(),
        };
        if let Err(e) = std::fs::write(path, trace_json) {
            eprintln!("ufc-profile: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!();
        let merged = if host.is_some() {
            "merged sim+host "
        } else {
            ""
        };
        println!("{merged}perfetto trace written to {path} (open in ui.perfetto.dev)");
    }
    if let Some(path) = &args.jsonl {
        let p = host.as_ref().expect("--jsonl implies --host");
        if let Err(e) = std::fs::write(path, p.jsonl()) {
            eprintln!("ufc-profile: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("host span jsonl written to {path}");
    }
    if let Some(path) = &args.json {
        let mut value = serde::Serialize::to_value(&run.summary());
        if let serde::Value::Object(fields) = &mut value {
            fields.push((
                "scratchpad_high_water_bytes".into(),
                serde::Value::U64(run.high_water.bytes),
            ));
        }
        if let (serde::Value::Object(fields), Some(stats)) = (&mut value, &run.compile_stats) {
            fields.push(("compile".into(), serde::Serialize::to_value(stats)));
        }
        if let (serde::Value::Object(fields), Some(p)) = (&mut value, &host) {
            let mut block = vec![("metrics".into(), serde::Serialize::to_value(&p.metrics()))];
            if let Some(d) = &p.noise_drift {
                block.push(("measured_bits".into(), serde::Value::F64(d.measured_bits)));
                block.push((
                    "static_bound_bits".into(),
                    serde::Value::F64(d.static_bound_bits),
                ));
                block.push(("drift_bits".into(), serde::Value::F64(d.drift_bits)));
            }
            fields.push(("host".into(), serde::Value::Object(block)));
        }
        if let Err(e) = std::fs::write(path, value.to_json_pretty()) {
            eprintln!("ufc-profile: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("json summary written to {path}");
    }
    ExitCode::SUCCESS
}
