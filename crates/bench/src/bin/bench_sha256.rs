//! Homomorphic SHA-256 benchmarks: ripple-carry vs parallel-prefix
//! adders across the circuit, simulated-accelerator and host-TFHE
//! layers.
//!
//! ```text
//! bench_sha256 [--quick] [--out <path>]
//! ```
//!
//! Emits `BENCH_sha256.json` (or `--out`) with three tables:
//!
//! * `circuit` — exact full-width (w = 32, 64-round) one-block
//!   circuit shapes per adder: gate count, critical-path depth,
//!   level-width statistics.
//! * `sim` — the compiled trace on the paper-default UFC at `T1`
//!   (`pbs_iter_chunk = 25`): instruction count, simulated makespan,
//!   TvLP mean pack width, PLP (NTT-pipeline) utilization, and the
//!   dependency/resource stall split from a streaming observer.
//! * `host` — real reduced-width TFHE evaluation (encrypt → gate
//!   circuit → decrypt) with the digest asserted against the
//!   plaintext reference inside the timed region; a benchmark whose
//!   digest drifts is measuring the wrong circuit. Each adder runs at
//!   1 thread and at `par::effective_threads()` (the `threads`
//!   column), so the table shows what the per-level bootstrap fan-out
//!   buys on the recording host.
//!
//! `--quick` shrinks the simulated round count and host config for
//! CI smoke runs; the committed full run uses the defaults.

#![forbid(unsafe_code)]

use std::time::Instant;
use ufc_bench::{cell, JsonReport};
use ufc_compiler::{CompileOptions, Compiler};
use ufc_core::{Ufc, UfcConfig};
use ufc_sim::simulate_with;
use ufc_telemetry::StreamingStats;
use ufc_workloads::sha256::{self, AdderKind, ShaParams};

struct Opts {
    quick: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        out: "BENCH_sha256.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => match it.next() {
                Some(p) => opts.out = p,
                None => usage_error("--out needs a value"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    opts
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: bench_sha256 [--quick] [--out <path>]");
    std::process::exit(2);
}

/// Blind-rotation chunking for the simulated tables: 25 divides the
/// T1 LWE dimension (500) exactly, so every bootstrap lowers to 20
/// full-width quintets with no ragged tail.
const CHUNK: u32 = 25;

fn main() {
    let opts = parse_opts();
    let mut json = JsonReport::new("bench_sha256");

    println!("# Homomorphic SHA-256: ripple-carry vs parallel-prefix\n");

    // -------------------------------------------------------- circuit
    // Full FIPS 180-4 shape (w = 32, 64 rounds, one block), both
    // adders: the structural numbers are exact and cost nothing, so
    // even --quick reports the real circuit.
    println!("## Circuit: one full-width 64-round block\n");
    println!("| adder | gates | depth | max width | mean width | inputs | outputs |");
    println!("|---|---|---|---|---|---|---|");
    let circuit_table = json.table(
        "circuit",
        &[
            "adder",
            "gates",
            "depth",
            "max_width",
            "mean_width",
            "inputs",
            "outputs",
        ],
    );
    for adder in AdderKind::ALL {
        let c = sha256::compression_circuit(&ShaParams::FULL, adder, None);
        let stats = c.stats();
        circuit_table.push(vec![
            cell(adder.label()),
            cell(stats.gates as u64),
            cell(stats.depth as u64),
            cell(stats.max_width as u64),
            cell(stats.mean_width),
            cell(stats.inputs as u64),
            cell(stats.outputs as u64),
        ]);
        println!(
            "| {} | {} | {} | {} | {:.1} | {} | {} |",
            adder.label(),
            stats.gates,
            stats.depth,
            stats.max_width,
            stats.mean_width,
            stats.inputs,
            stats.outputs
        );
    }

    // ------------------------------------------------------------ sim
    let sim_rounds = if opts.quick { 2 } else { 16 };
    let sim_p = ShaParams::new(32, sim_rounds);
    let ufc = Ufc::new(
        UfcConfig::default(),
        CompileOptions {
            pbs_iter_chunk: CHUNK,
            ..CompileOptions::default()
        },
    );
    println!(
        "\n## Simulated UFC at T1: w = 32, {sim_rounds} rounds, one block \
         (pbs_iter_chunk = {CHUNK})\n"
    );
    println!(
        "| adder | gates | depth | instrs | cycles | makespan (ms) | NTT util | mean pack | \
         dep stall | res stall |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let sim_table = json.table(
        "sim",
        &[
            "adder",
            "gates",
            "depth",
            "trace_ops",
            "instrs",
            "cycles",
            "makespan_ms",
            "ntt_util",
            "mean_pack",
            "dep_stall",
            "res_stall",
            "hbm_bytes",
        ],
    );
    let mut depth_by_adder = [0u64; 2];
    let mut util_by_adder = [0f64; 2];
    for (i, adder) in AdderKind::ALL.into_iter().enumerate() {
        let circuit = sha256::compression_circuit(&sim_p, adder, None);
        let trace = sha256::generate("T1", &sim_p, adder, 1);
        let (stream, stats) = Compiler::try_for_trace(&trace, *ufc.options())
            .and_then(|c| c.try_compile(&trace))
            .expect("SHA-256 gate trace compiles");
        let margin = stats
            .noise
            .min_margin_sigmas
            .expect("gate trace has a TFHE noise schedule");
        assert!(
            margin > 0.0,
            "{} trace fails the static noise pass ({margin:.2}σ)",
            adder.label()
        );
        let machine = ufc.try_machine_for(&trace).expect("T1 is a known set");
        let mut obs = StreamingStats::new();
        let report = simulate_with(&machine, &stream, &mut obs);
        let stalls = obs.stall_summary();
        let ntt_util = report.util("Ntt");
        let mean_pack = obs.mean_pack().unwrap_or(0.0);
        depth_by_adder[i] = circuit.depth() as u64;
        util_by_adder[i] = ntt_util;
        sim_table.push(vec![
            cell(adder.label()),
            cell(circuit.gate_count() as u64),
            cell(circuit.depth() as u64),
            cell(trace.len() as u64),
            cell(stream.len() as u64),
            cell(report.cycles),
            cell(report.seconds * 1e3),
            cell(ntt_util),
            cell(mean_pack),
            cell(stalls.dep_stall),
            cell(stalls.res_stall_total),
            cell(report.hbm_bytes),
        ]);
        println!(
            "| {} | {} | {} | {} | {} | {:.3} | {:.3} | {:.1} | {} | {} |",
            adder.label(),
            circuit.gate_count(),
            circuit.depth(),
            stream.len(),
            report.cycles,
            report.seconds * 1e3,
            ntt_util,
            mean_pack,
            stalls.dep_stall,
            stalls.res_stall_total
        );
    }

    // ----------------------------------------------------------- host
    // Real TFHE evaluation at the reduced host scale, once on one
    // thread and once on every thread the fan-out may use; the oracle
    // check runs inside `hom_digest` (digest vs plaintext reference).
    let host_rounds = if opts.quick { 1 } else { 2 };
    let host_p = ShaParams::new(8, host_rounds);
    let msg: &[u8] = b"abc";
    let par_threads = ufc_math::par::effective_threads();
    let mut thread_counts = vec![1, par_threads];
    thread_counts.dedup();
    println!("\n## Host TFHE evaluator: w = 8, {host_rounds} rounds, message \"abc\"\n");
    println!("| adder | threads | gates | blocks | wall (ms) | gates/s | digest ok |");
    println!("|---|---|---|---|---|---|---|");
    let host_table = json.table(
        "host",
        &[
            "adder",
            "threads",
            "gates",
            "blocks",
            "wall_ms",
            "gates_per_sec",
            "ok",
        ],
    );
    let mut hom_ok = true;
    for (i, adder) in AdderKind::ALL.into_iter().enumerate() {
        for &threads in &thread_counts {
            let prev = ufc_math::par::set_max_threads(threads);
            let t = Instant::now();
            let out = sha256::host::hom_digest(&host_p, adder, msg, 0xB5EED + i as u64);
            let wall = t.elapsed();
            ufc_math::par::set_max_threads(prev);
            let ok = out.matches();
            hom_ok &= ok;
            let gates_per_sec = out.gates as f64 / wall.as_secs_f64();
            host_table.push(vec![
                cell(adder.label()),
                cell(threads as u64),
                cell(out.gates as u64),
                cell(out.blocks as u64),
                cell(wall.as_secs_f64() * 1e3),
                cell(gates_per_sec),
                cell(ok),
            ]);
            println!(
                "| {} | {threads} | {} | {} | {:.0} | {:.0} | {ok} |",
                adder.label(),
                out.gates,
                out.blocks,
                wall.as_secs_f64() * 1e3,
                gates_per_sec
            );
            assert!(
                ok,
                "{} homomorphic digest at {threads} threads diverged from the plaintext reference",
                adder.label()
            );
        }
    }

    // ------------------------------------------------------- wrap-up
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let [ripple_depth, prefix_depth] = depth_by_adder;
    let [ripple_util, prefix_util] = util_by_adder;
    println!(
        "\nHeadline: prefix bootstrap critical path {prefix_depth} vs ripple {ripple_depth} \
         levels; PLP (NTT) utilization {prefix_util:.3} vs {ripple_util:.3}; host digests \
         match the reference: {hom_ok}."
    );

    #[derive(serde::Serialize)]
    struct Host {
        available_parallelism: u64,
        ntt_kernel: String,
        par_threads: u64,
    }
    #[derive(serde::Serialize)]
    struct Headline {
        ripple_depth: u64,
        prefix_depth: u64,
        ripple_plp_util: f64,
        prefix_plp_util: f64,
        hom_ok: bool,
    }
    #[derive(serde::Serialize)]
    struct Output {
        experiment: String,
        quick: bool,
        host: Host,
        headline: Headline,
        tables: Vec<ufc_bench::JsonTable>,
    }
    let out = Output {
        experiment: json.experiment.clone(),
        quick: opts.quick,
        host: Host {
            available_parallelism: cores as u64,
            ntt_kernel: sha256::host::test_context().ntt_kernel().name().to_owned(),
            par_threads: par_threads as u64,
        },
        headline: Headline {
            ripple_depth,
            prefix_depth,
            ripple_plp_util: ripple_util,
            prefix_plp_util: prefix_util,
            hom_ok,
        },
        tables: json.tables,
    };
    let value = serde::Serialize::to_value(&out);
    if let Err(e) = std::fs::write(&opts.out, value.to_json_pretty()) {
        eprintln!("--out {}: {e}", opts.out);
        std::process::exit(1);
    }
    eprintln!("benchmark report written to {}", opts.out);
}
