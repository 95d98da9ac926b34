//! Micro-benchmarks for the `ufc-math` data plane: Shoup/Harvey NTT
//! kernels vs the pre-refactor reference kernels, the radix-4 / IFMA
//! kernel generations, per-op dispatched element-wise kernels,
//! negacyclic multiplication, TFHE external products and
//! limb-parallel RNS transforms.
//!
//! ```text
//! bench_math [--quick] [--out <path>]
//! ```
//!
//! Emits `BENCH_math.json` (or `--out`) with one table per kernel
//! family — including `ew_kernels` (scalar loop vs dispatched kernel
//! per element-wise op at a 59-bit and a 50-bit prime, with the
//! backend `simd::ew_backend` routes each row to), `ntt_kernels`
//! (radix-4 vs IFMA at a 49-bit and a 60-bit prime from N = 2^8 up,
//! plus TFHE T1's 31-bit prime at N = 2^10 and CKKS C2's 36-bit prime
//! at N = 2^13, with the kernel `NttKernel::auto_for` picks per row)
//! and `bconv` (the base-conversion
//! kernel vs its scalar oracle at the C2 ModUp and ModDown shapes)
//! — and a `headline` object recording the single-thread
//! negacyclic-multiply speedup at the largest ring dimension.
//! `--quick` restricts sizes and repetitions for CI smoke runs.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ufc_bench::{cell, JsonReport};
use ufc_math::ntt::{NttContext, NttKernel};
use ufc_math::par;
use ufc_math::plane::RnsPlane;
use ufc_math::poly::Poly;
use ufc_math::prime::{generate_ntt_prime, generate_ntt_primes};
use ufc_tfhe::context::TfheContext;
use ufc_tfhe::rgsw::RgswCiphertext;
use ufc_tfhe::rlwe::RlweCiphertext;

struct Opts {
    quick: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        out: "BENCH_math.json".to_owned(),
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
    eprintln!("usage: bench_math [--quick] [--out <path>]");
    std::process::exit(2);
}

/// Best-of-`reps` wall time of one call, in nanoseconds.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    time_alternating_ns(reps, 1, |_| f())[0]
}

/// Best-of-`reps` wall time of each of `f(0)`, …, `f(count - 1)`, in
/// nanoseconds. The candidates run in alternation within every rep,
/// so a host-wide slowdown (a neighbour's burst, a frequency shift)
/// hits all of them alike instead of skewing whichever one it lands
/// on — the ratios the validator gates on stay meaningful on a noisy
/// host.
fn time_alternating_ns<F: FnMut(usize)>(reps: usize, count: usize, mut f: F) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; count];
    for _ in 0..reps {
        for (i, b) in best.iter_mut().enumerate() {
            let t = Instant::now();
            f(i);
            *b = b.min(t.elapsed().as_nanos() as f64);
        }
    }
    best
}

fn random_poly<R: Rng>(rng: &mut R, n: usize, q: u64) -> Poly {
    Poly::from_coeffs((0..n).map(|_| rng.gen_range(0..q)).collect(), q)
}

fn main() {
    let opts = parse_opts();
    let mut rng = StdRng::seed_from_u64(0x0f1e2d3c);
    let sizes: Vec<usize> = if opts.quick {
        vec![1 << 10, 1 << 11, 1 << 12]
    } else {
        vec![1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14]
    };
    let reps = |n: usize| -> usize {
        let base = if opts.quick { 1 << 21 } else { 1 << 24 };
        (base / n).clamp(3, 4096)
    };

    let mut json = JsonReport::new("bench_math");

    // ------------------------------------------------ NTT fwd/inverse
    println!("# ufc-math data-plane micro-benchmarks\n");
    println!("## Negacyclic NTT (Harvey lazy vs seed reference)\n");
    println!("| N | fwd lazy (µs) | fwd ref (µs) | inv lazy (µs) | inv ref (µs) |");
    println!("|---|---|---|---|---|");
    let ntt_table = json.table(
        "ntt",
        &[
            "n",
            "forward_lazy_ns",
            "forward_reference_ns",
            "inverse_lazy_ns",
            "inverse_reference_ns",
        ],
    );
    for &n in &sizes {
        let q = generate_ntt_prime(n, 60).expect("60-bit NTT prime");
        let ctx = NttContext::new(n, q);
        let r = reps(n);
        // Each rep transforms the same fresh input (copied in inside
        // the timed region, an equal small cost for both kernels):
        // iterating a forward transform on its own output would drift
        // the value distribution and with it the branchy butterflies'
        // timing.
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut buf = data.clone();
        let fwd = time_ns(r, || {
            buf.copy_from_slice(&data);
            ctx.forward(&mut buf);
        });
        let eval = buf.clone();
        let inv = time_ns(r, || {
            buf.copy_from_slice(&eval);
            ctx.inverse(&mut buf);
        });
        let fwd_ref = time_ns(r, || {
            buf.copy_from_slice(&data);
            ctx.forward_with(NttKernel::Reference, &mut buf);
        });
        let inv_ref = time_ns(r, || {
            buf.copy_from_slice(&eval);
            ctx.inverse_with(NttKernel::Reference, &mut buf);
        });
        ntt_table.push(vec![
            cell(n as u64),
            cell(fwd),
            cell(fwd_ref),
            cell(inv),
            cell(inv_ref),
        ]);
        println!(
            "| {n} | {:.1} | {:.1} | {:.1} | {:.1} |",
            fwd / 1e3,
            fwd_ref / 1e3,
            inv / 1e3,
            inv_ref / 1e3
        );
    }

    // ------------------------------------------ NTT kernel generations
    // Radix-4 against IFMA at a 49-bit prime (inside the IFMA window)
    // and a 60-bit prime (radix-4 only) from N = 2^8 up, plus the
    // workloads' own shapes: TFHE T1's 31-bit q at N = 2^10 and CKKS
    // C2's 36-bit q at N = 2^13. Each row records the kernel the
    // dispatch rule picks. On hosts without AVX-512 IFMA the
    // portable mirror lanes run — bit-identical, but the timing is
    // then a fallback measurement, flagged by host.ifma in the report.
    let ifma_hw = ufc_math::simd::ifma_available();
    println!(
        "\n## Negacyclic NTT kernel generations (radix-4 vs IFMA, AVX-512 IFMA {})\n",
        if ifma_hw {
            "active"
        } else {
            "absent: portable lanes"
        }
    );
    println!("| N | q bits | fwd r4 (µs) | fwd ifma (µs) | inv r4 (µs) | inv ifma (µs) | auto |");
    println!("|---|---|---|---|---|---|---|");
    let kernel_table = json.table(
        "ntt_kernels",
        &[
            "n",
            "q_bits",
            "forward_radix4_ns",
            "forward_ifma_ns",
            "inverse_radix4_ns",
            "inverse_ifma_ns",
            "auto",
        ],
    );
    let mut kernel_shapes: Vec<(usize, u32)> = [1 << 8, 1 << 9]
        .iter()
        .chain(&sizes)
        .flat_map(|&n| [(n, 49u32), (n, 60)])
        .chain([(1 << 10, 31), (1 << 13, 36)])
        .filter(|&(n, _)| n <= *sizes.last().expect("sizes"))
        .collect();
    kernel_shapes.sort_unstable();
    for (n, bits) in kernel_shapes {
        let q = generate_ntt_prime(n, bits).expect("NTT prime");
        let ctx = NttContext::new(n, q);
        let r = reps(n);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        // Radix-4 first: it is the bit-identity reference.
        let kernels: Vec<NttKernel> = [NttKernel::Radix4, NttKernel::Ifma]
            .into_iter()
            .filter(|k| k.supports_modulus(q))
            .collect();
        let mut bufs = vec![data.clone(); kernels.len()];
        let fwd = time_alternating_ns(r, kernels.len(), |i| {
            bufs[i].copy_from_slice(&data);
            ctx.forward_with(kernels[i], &mut bufs[i]);
        });
        let eval = bufs[0].clone();
        for (k, out) in kernels.iter().zip(&bufs) {
            assert_eq!(*out, eval, "{k} forward diverged from radix-4");
        }
        let inv = time_alternating_ns(r, kernels.len(), |i| {
            bufs[i].copy_from_slice(&eval);
            ctx.inverse_with(kernels[i], &mut bufs[i]);
        });
        for (k, out) in kernels.iter().zip(&bufs) {
            assert_eq!(*out, data, "{k} inverse failed to round-trip");
        }
        let auto = NttKernel::auto_for(n, q).name();
        kernel_table.push(vec![
            cell(n as u64),
            cell(u64::from(bits)),
            cell(fwd[0]),
            cell(fwd.get(1)),
            cell(inv[0]),
            cell(inv.get(1)),
            cell(auto),
        ]);
        let us = |t: Option<&f64>| t.map_or("—".to_owned(), |t| format!("{:.1}", t / 1e3));
        println!(
            "| {n} | {bits} | {:.1} | {} | {:.1} | {} | {auto} |",
            fwd[0] / 1e3,
            us(fwd.get(1)),
            inv[0] / 1e3,
            us(inv.get(1))
        );
    }

    // ------------------------------------------- element-wise kernels
    // The RNS plane's add/sub/hadamard/mac/scale go through the
    // per-op dispatch rule; measure the *dispatched* entry points
    // against the scalar loops they replaced, at one prime on each
    // side of the IFMA window: 59 bits is too wide for IFMA (hadamard
    // and mac run portable Barrett), 50 bits brings the IFMA 52-bit
    // Barrett lanes in. No route is slower than the scalar loop, so
    // every row's speedup is expected at >= 1.0 — the xtask validator
    // gates on it, and on each row's backend matching the rule.
    println!("\n## Element-wise plane kernels (scalar loop vs dispatched backend)\n");
    let mut ew_rows = Vec::new();
    {
        use ufc_math::modops::{add_mod, mul_mod, shoup_precompute, sub_mod, Barrett};
        use ufc_math::simd::{self, EwOp};
        let n = if opts.quick { 1 << 13 } else { 1 << 15 };
        for bits in [59u32, 50] {
            let q = generate_ntt_prime(1 << 10, bits).expect("NTT prime");
            let br = Barrett::new(q);
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let c: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let s = rng.gen_range(1..q);
            let ss = shoup_precompute(s, q);
            let r = reps(n);
            println!("### {bits}-bit prime (q = {q})\n");
            println!("| kernel | scalar (µs) | dispatched (µs) | speedup | backend |");
            println!("|---|---|---|---|---|");
            // (op, scalar loop, simd call) per kernel, timed in
            // alternation; each rep re-seeds the destination so both
            // sides do identical memory traffic.
            let mut rows: Vec<(EwOp, f64, f64)> = Vec::new();
            let mut bufs = [a.clone(), a.clone()];
            macro_rules! ew {
                ($op:expr, $scalar:expr, $simd:expr) => {{
                    let t = time_alternating_ns(r, 2, |i| {
                        bufs[i].copy_from_slice(&a);
                        if i == 0 {
                            $scalar(&mut bufs[0]);
                        } else {
                            $simd(&mut bufs[1]);
                        }
                    });
                    assert_eq!(bufs[0], bufs[1], "{} kernels diverged", $op.name());
                    rows.push(($op, t[0], t[1]));
                }};
            }
            ew!(
                EwOp::Add,
                |x: &mut Vec<u64>| for (xi, &bi) in x.iter_mut().zip(&b) {
                    *xi = add_mod(*xi, bi, q);
                },
                |x: &mut Vec<u64>| simd::add_mod_slice(x, &b, q)
            );
            ew!(
                EwOp::Sub,
                |x: &mut Vec<u64>| for (xi, &bi) in x.iter_mut().zip(&b) {
                    *xi = sub_mod(*xi, bi, q);
                },
                |x: &mut Vec<u64>| simd::sub_mod_slice(x, &b, q)
            );
            ew!(
                EwOp::Mul,
                |x: &mut Vec<u64>| for (xi, &bi) in x.iter_mut().zip(&b) {
                    *xi = br.mul(*xi, bi);
                },
                |x: &mut Vec<u64>| simd::mul_mod_slice(x, &b, q)
            );
            ew!(
                EwOp::Mac,
                |x: &mut Vec<u64>| for ((xi, &bi), &ci) in x.iter_mut().zip(&b).zip(&c) {
                    *xi = add_mod(*xi, mul_mod(bi, ci, q), q);
                },
                |x: &mut Vec<u64>| simd::mac_mod_slice(x, &b, &c, q)
            );
            ew!(
                EwOp::Scale,
                |x: &mut Vec<u64>| for xi in x.iter_mut() {
                    *xi = br.mul(*xi, s);
                },
                |x: &mut Vec<u64>| simd::scale_shoup_slice(x, s, ss, q)
            );
            for (op, scalar, simd_t) in rows {
                let speedup = scalar / simd_t;
                let backend = simd::ew_backend(op, q).name();
                let name = match op {
                    EwOp::Mul => "hadamard",
                    other => other.name(),
                };
                ew_rows.push(vec![
                    cell(name),
                    cell(bits as u64),
                    cell(n as u64),
                    cell(scalar),
                    cell(simd_t),
                    cell(speedup),
                    cell(backend),
                ]);
                println!(
                    "| {name} | {:.1} | {:.1} | {speedup:.2}x | {backend} |",
                    scalar / 1e3,
                    simd_t / 1e3,
                );
            }
            println!();
        }
    }
    let ew_table = json.table(
        "ew_kernels",
        &[
            "kernel",
            "bits",
            "n",
            "scalar_ns",
            "simd_ns",
            "speedup",
            "backend",
        ],
    );
    for row in ew_rows {
        ew_table.push(row);
    }

    // ------------------------------------------------ base conversion
    // The one BConv kernel (`BaseConverter::convert_rows`: a y-pass on
    // the dispatched scale lanes, then the lazy `simd::bconv_slice` per
    // target limb) against the per-coefficient `convert_scalar` oracle,
    // at the C2 key switch's two shapes: ModUp of one 4-limb digit to
    // the 12 other moduli, and ModDown's 4 P limbs to the 12 Q limbs,
    // all 36-bit primes at N = 8192. Both sides run on one thread, so
    // the speedup is the kernel's, not the fan-out's; the xtask
    // validator gates it at >= 1.0 on full runs.
    println!("\n## Base conversion (one thread: dispatched kernel vs scalar oracle)\n");
    println!("| shape | limbs | kernel (µs) | oracle (µs) | speedup | backend |");
    println!("|---|---|---|---|---|---|");
    let bconv_table = json.table(
        "bconv",
        &[
            "shape",
            "n",
            "bits",
            "sources",
            "targets",
            "kernel_ns",
            "oracle_ns",
            "speedup",
            "backend",
        ],
    );
    {
        use ufc_math::rns::{BaseConverter, RnsBasis};
        use ufc_math::simd::{self, EwOp};
        let (n, bits) = (1 << 13, 36);
        let primes = generate_ntt_primes(n, bits, 16);
        assert_eq!(primes.len(), 16, "not enough 36-bit primes");
        let (q, p) = primes.split_at(12);
        let modup_to: Vec<u64> = q[4..].iter().chain(p).copied().collect();
        let shapes = [("modup", &q[..4], modup_to.as_slice()), ("moddown", p, q)];
        let prev = par::set_max_threads(1);
        for (shape, from, to) in shapes {
            let conv = BaseConverter::new(&RnsBasis::new(from.to_vec()), to);
            let limbs: Vec<Vec<u64>> = from
                .iter()
                .map(|&m| (0..n).map(|_| rng.gen_range(0..m)).collect())
                .collect();
            let rows: Vec<&[u64]> = limbs.iter().map(Vec::as_slice).collect();
            let mut outs = [Vec::new(), Vec::new()];
            let t = time_alternating_ns(if opts.quick { 3 } else { 15 }, 2, |i| {
                outs[i] = if i == 0 {
                    conv.convert_rows(&rows)
                } else {
                    let mut flat = vec![0u64; to.len() * n];
                    let mut residues = vec![0u64; from.len()];
                    for c in 0..n {
                        for (r, l) in residues.iter_mut().zip(&limbs) {
                            *r = l[c];
                        }
                        for (limb, v) in conv.convert_scalar(&residues).into_iter().enumerate() {
                            flat[limb * n + c] = v;
                        }
                    }
                    flat
                };
            });
            assert_eq!(outs[0], outs[1], "{shape} BConv diverged from the oracle");
            let speedup = t[1] / t[0];
            let widest = from.iter().chain(to).copied().max().unwrap_or(0);
            let backend = simd::ew_backend(EwOp::Bconv, widest).name();
            let shape_limbs = format!("{} → {}", from.len(), to.len());
            bconv_table.push(vec![
                cell(shape),
                cell(n as u64),
                cell(u64::from(bits)),
                cell(from.len() as u64),
                cell(to.len() as u64),
                cell(t[0]),
                cell(t[1]),
                cell(speedup),
                cell(backend),
            ]);
            println!(
                "| {shape} | {shape_limbs} | {:.1} | {:.1} | {speedup:.2}x | {backend} |",
                t[0] / 1e3,
                t[1] / 1e3
            );
        }
        par::set_max_threads(prev);
    }

    // ------------------------------------------- negacyclic multiply
    println!("\n## Negacyclic multiply (single thread)\n");
    println!("| N | lazy (µs) | seed (µs) | speedup |");
    println!("|---|---|---|---|");
    let mul_table = json.table(
        "negacyclic_mul",
        &["n", "lazy_ns", "reference_ns", "speedup"],
    );
    let mut headline_n = 0usize;
    let mut headline_speedup = 0.0f64;
    let mut headline_lazy = 0.0f64;
    let mut headline_ref = 0.0f64;
    for &n in &sizes {
        let q = generate_ntt_prime(n, 60).expect("60-bit NTT prime");
        let ctx = NttContext::new(n, q);
        let r = reps(n);
        let a = random_poly(&mut rng, n, q);
        let b = random_poly(&mut rng, n, q);
        let lazy = time_ns(r, || {
            std::hint::black_box(ctx.negacyclic_mul(&a, &b));
        });
        let seed = time_ns(r, || {
            std::hint::black_box(ctx.negacyclic_mul_reference(&a, &b));
        });
        let speedup = seed / lazy;
        mul_table.push(vec![cell(n as u64), cell(lazy), cell(seed), cell(speedup)]);
        println!(
            "| {n} | {:.1} | {:.1} | {speedup:.2}x |",
            lazy / 1e3,
            seed / 1e3
        );
        if n >= headline_n {
            headline_n = n;
            headline_speedup = speedup;
            headline_lazy = lazy;
            headline_ref = seed;
        }
    }

    // ------------------------------------------------ external product
    println!("\n## TFHE external product (3-level gadget)\n");
    println!("| N | cached-eval (µs) | seed (µs) | speedup |");
    println!("|---|---|---|---|");
    let ep_table = json.table(
        "external_product",
        &["n", "external_product_ns", "reference_ns", "speedup"],
    );
    let ep_sizes: Vec<usize> = sizes.iter().copied().filter(|&n| n <= 1 << 14).collect();
    for &n in &ep_sizes {
        let ctx = TfheContext::new(16, n, 7, 3, 6, 4);
        let s: Vec<i64> = (0..n).map(|_| rng.gen_range(0..=1i64)).collect();
        let m = Poly::monomial(1, 1, n, ctx.q());
        let rgsw = RgswCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let ct = RlweCiphertext::encrypt(&ctx, &s, &Poly::zero(n, ctx.q()), &mut rng);
        let r = reps(n).min(64);
        let ep = time_ns(r, || {
            std::hint::black_box(rgsw.external_product(&ctx, &ct));
        });
        // Seed shape: one full negacyclic product per digit-row pair
        // (4 per level) through the `%`-based kernels, instead of
        // transforming only the digits and MAC-ing against cached
        // evaluation-form rows. The coefficient-form rows are rebuilt
        // from the cached ones outside the timed region.
        let g = ctx.gadget();
        let ntt = ctx.ntt();
        let [a_rows, b_rows] = rgsw.coeff_rows(&ctx);
        let row_poly = |p: &RnsPlane| p.limb_poly(0);
        let (a_rows_a, a_rows_b): (Vec<Poly>, Vec<Poly>) = a_rows
            .iter()
            .map(|r| (row_poly(&r.a), row_poly(&r.b)))
            .unzip();
        let (b_rows_a, b_rows_b): (Vec<Poly>, Vec<Poly>) = b_rows
            .iter()
            .map(|r| (row_poly(&r.a), row_poly(&r.b)))
            .unzip();
        let ep_ref = time_ns(r.min(8), || {
            let a_digits = g.decompose_plane(ct.a.limb(0));
            let b_digits = g.decompose_plane(ct.b.limb(0));
            let mut acc_a = Poly::zero(n, ctx.q());
            let mut acc_b = Poly::zero(n, ctx.q());
            for l in 0..g.levels() {
                let (da, db) = (a_digits.limb_poly(l), b_digits.limb_poly(l));
                acc_a = acc_a.add(&ntt.negacyclic_mul_reference(&da, &a_rows_a[l]));
                acc_a = acc_a.add(&ntt.negacyclic_mul_reference(&db, &b_rows_a[l]));
                acc_b = acc_b.add(&ntt.negacyclic_mul_reference(&da, &a_rows_b[l]));
                acc_b = acc_b.add(&ntt.negacyclic_mul_reference(&db, &b_rows_b[l]));
            }
            std::hint::black_box((acc_a, acc_b));
        });
        let speedup = ep_ref / ep;
        ep_table.push(vec![cell(n as u64), cell(ep), cell(ep_ref), cell(speedup)]);
        println!(
            "| {n} | {:.1} | {:.1} | {speedup:.2}x |",
            ep / 1e3,
            ep_ref / 1e3
        );
    }

    // ------------------------------------------------- thread scaling
    let limbs = 8usize;
    let plane_n = if opts.quick { 1 << 12 } else { 1 << 13 };
    let moduli = generate_ntt_primes(plane_n, 36, limbs);
    assert_eq!(moduli.len(), limbs, "not enough 36-bit primes");
    let tables: Vec<NttContext> = moduli
        .iter()
        .map(|&q| NttContext::new(plane_n, q))
        .collect();
    let table_refs: Vec<&NttContext> = tables.iter().collect();
    let signed: Vec<i64> = (0..plane_n)
        .map(|_| rng.gen_range(-1000..1000i64))
        .collect();
    let plane = RnsPlane::from_signed(&signed, &moduli);
    let thread_counts = [1usize, par::effective_threads().max(2)];
    println!("\n## RNS plane NTT scaling ({limbs} limbs, N = {plane_n})\n");
    println!("| threads | fwd+inv (µs) |");
    println!("|---|---|");
    let scale_table = json.table("rns_thread_scaling", &["threads", "forward_inverse_ns"]);
    let mut single_result: Option<RnsPlane> = None;
    for &threads in &thread_counts {
        let prev = par::set_max_threads(threads);
        let mut buf = plane.clone();
        let t = time_ns(if opts.quick { 3 } else { 32 }, || {
            buf.ntt_forward(&table_refs);
            buf.ntt_inverse(&table_refs);
        });
        par::set_max_threads(prev);
        // Determinism check: the transform must be bit-identical for
        // every thread count.
        match &single_result {
            None => single_result = Some(buf),
            Some(first) => assert_eq!(first, &buf, "thread-count nondeterminism"),
        }
        scale_table.push(vec![cell(threads as u64), cell(t)]);
        println!("| {threads} | {:.1} |", t / 1e3);
    }

    // ------------------------------------------- disabled-trace cost
    // Every NTT entry point now opens a `ufc_trace` span. With no
    // recorder live that site must be free (one relaxed atomic load):
    // compare the instrumented dispatch (`forward`) against the raw
    // kernel path (`forward_with`, no span site) at the smallest
    // benched size, where fixed per-call costs are largest relative
    // to the transform.
    println!("\n## Disabled-recorder tracing overhead\n");
    println!("| N | fwd instrumented (µs) | fwd raw (µs) | overhead (%) |");
    println!("|---|---|---|---|");
    let overhead_table = json.table(
        "trace_overhead",
        &["n", "instrumented_ns", "raw_ns", "overhead_pct"],
    );
    let mut worst_overhead_pct = 0.0f64;
    for &n in &sizes {
        assert!(
            !ufc_trace::enabled(),
            "recorder must be off for the overhead bench"
        );
        let q = generate_ntt_prime(n, 60).expect("60-bit NTT prime");
        let ctx = NttContext::new(n, q);
        let r = reps(n).max(64);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut buf = data.clone();
        let t = time_alternating_ns(r, 2, |i| {
            buf.copy_from_slice(&data);
            if i == 0 {
                ctx.forward(&mut buf);
            } else {
                ctx.forward_with(ctx.kernel(), &mut buf);
            }
        });
        let (instrumented, raw) = (t[0], t[1]);
        // Best-of-reps jitter can make either side "win"; clamp at 0.
        let pct = ((instrumented - raw) / raw * 100.0).max(0.0);
        worst_overhead_pct = worst_overhead_pct.max(pct);
        overhead_table.push(vec![
            cell(n as u64),
            cell(instrumented),
            cell(raw),
            cell(pct),
        ]);
        println!(
            "| {n} | {:.2} | {:.2} | {:.2} |",
            instrumented / 1e3,
            raw / 1e3,
            pct
        );
    }
    println!("\nworst disabled-recorder overhead: {worst_overhead_pct:.2}% (budget: < 2%)");

    // ------------------------------------------------ host context
    // The lazy/seed ratio is bounded by how fast the host retires the
    // seed kernel's 128-by-64-bit `%` (hardware division): record both
    // primitive costs so reports from different machines can be
    // compared. Thread-scaling rows are likewise meaningless without
    // the scheduler-visible core count next to them.
    let (mul_mod_ns, mul_shoup_ns) = {
        use ufc_math::modops::{mul_mod, mul_shoup_lazy, shoup_precompute};
        let q = generate_ntt_prime(1 << 12, 60).expect("60-bit NTT prime");
        let xs: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..q)).collect();
        let ws: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..q)).collect();
        let wss: Vec<u64> = ws.iter().map(|&w| shoup_precompute(w, q)).collect();
        let mut acc = xs.clone();
        let t_mod = time_ns(256, || {
            for (x, &w) in acc.iter_mut().zip(&ws) {
                *x = mul_mod(*x, w, q);
            }
        }) / 4096.0;
        let mut acc = xs.clone();
        let t_shoup = time_ns(256, || {
            for ((x, &w), &wshoup) in acc.iter_mut().zip(&ws).zip(&wss) {
                let r = mul_shoup_lazy(*x, w, wshoup, q);
                *x = if r >= q { r - q } else { r };
            }
        }) / 4096.0;
        (t_mod, t_shoup)
    };
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "\nHost: {cores} core(s) visible; mul_mod {mul_mod_ns:.2} ns vs \
         mul_shoup_lazy {mul_shoup_ns:.2} ns per op."
    );

    // ------------------------------------------------------- headline
    println!(
        "\nHeadline: negacyclic mul at N = {headline_n}: {headline_speedup:.2}x \
         over the seed kernel ({:.1} µs vs {:.1} µs).",
        headline_lazy / 1e3,
        headline_ref / 1e3
    );

    #[derive(serde::Serialize)]
    struct Host {
        available_parallelism: u64,
        avx2: bool,
        ifma: bool,
        par_threads: u64,
        trace_overhead_pct: f64,
        mul_mod_ns: f64,
        mul_shoup_lazy_ns: f64,
        simd_note: String,
    }
    #[derive(serde::Serialize)]
    struct Headline {
        n: u64,
        lazy_ns: f64,
        reference_ns: f64,
        speedup: f64,
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
            avx2: ufc_math::simd::avx2_available(),
            ifma: ifma_hw,
            par_threads: ufc_math::par::effective_threads() as u64,
            trace_overhead_pct: worst_overhead_pct,
            mul_mod_ns,
            mul_shoup_lazy_ns: mul_shoup_ns,
            simd_note: "Element-wise ops are routed per (op, modulus) by one static rule: \
                        add/sub/scale take AVX2 when the host has it; hadamard/mac take \
                        AVX-512 IFMA (vpmadd52, 52-bit Barrett) when the host has it and \
                        q < 2^50, else the portable Barrett unroll; bconv (one lazy \
                        base-conversion target limb) takes IFMA (52-bit Shoup) when the \
                        host has it and every modulus it touches is below 2^50, else the \
                        portable lazy loop. Each ew_kernels and bconv row records its \
                        backend; the >= 1.3x hadamard/mac rows come from the IFMA window. \
                        NTTs follow one rule too: the IFMA kernel (every pass of the \
                        transform on 8-wide 52-bit lanes) when the host has it and \
                        q < 2^50, at every ring size; radix-4 otherwise. Each ntt_kernels \
                        row records the kernel the rule picks. UFC_SIMD_DISABLE turns \
                        backends off for A/B runs."
                .to_owned(),
        },
        headline: Headline {
            n: headline_n as u64,
            lazy_ns: headline_lazy,
            reference_ns: headline_ref,
            speedup: headline_speedup,
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
