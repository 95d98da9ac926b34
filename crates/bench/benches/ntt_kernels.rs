//! Criterion benches for the NTT kernels: classical vs
//! constant-geometry across ring sizes (the software counterpart of
//! the Fig. 2 discussion), plus the radix-4 vs IFMA generations
//! behind the runtime kernel dispatch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ufc_math::cgntt::CgNtt;
use ufc_math::ntt::{NttContext, NttKernel};
use ufc_math::poly::Poly;
use ufc_math::prime::generate_ntt_prime;

fn bench_ntts(c: &mut Criterion) {
    let mut g = c.benchmark_group("ntt");
    g.sample_size(20);
    for log_n in [10u32, 12] {
        let n = 1usize << log_n;
        let ctx = NttContext::new(n, generate_ntt_prime(n, 50).unwrap());
        let cg = CgNtt::new(ctx.clone());
        let p = Poly::from_coeffs((0..n as u64).map(|i| i * 31 + 5).collect(), ctx.modulus());
        g.bench_with_input(BenchmarkId::new("classical", log_n), &p, |b, p| {
            b.iter(|| ctx.to_eval(p));
        });
        g.bench_with_input(BenchmarkId::new("constant-geometry", log_n), &p, |b, p| {
            b.iter(|| cg.forward(p));
        });
    }
    g.finish();
}

fn bench_radix_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("ntt_kernels");
    g.sample_size(20);
    // 2^12 runs both kernels' plain fused walk, below the IFMA
    // crossover; 2^13 and 2^14 run the cache-blocked schedule. The
    // 49-bit prime keeps IFMA in play.
    for log_n in [12u32, 13, 14] {
        let n = 1usize << log_n;
        let ctx = NttContext::new(n, generate_ntt_prime(n, 49).unwrap());
        let data = Poly::pseudorandom(n, ctx.modulus(), 0x5EED).into_coeffs();
        for kernel in [NttKernel::Radix4, NttKernel::Ifma] {
            g.bench_with_input(
                BenchmarkId::new(format!("forward/{kernel}"), log_n),
                &data,
                |b, data| {
                    let mut buf = data.clone();
                    b.iter(|| {
                        buf.copy_from_slice(data);
                        ctx.forward_with(kernel, &mut buf);
                    });
                },
            );
        }
    }
    g.finish();
}

fn bench_negacyclic_mul(c: &mut Criterion) {
    let n = 1024;
    let ctx = NttContext::new(n, generate_ntt_prime(n, 50).unwrap());
    let a = Poly::from_coeffs((0..n as u64).collect(), ctx.modulus());
    let b2 = Poly::from_coeffs((0..n as u64).map(|i| 7 * i + 3).collect(), ctx.modulus());
    c.bench_function("negacyclic_mul/1024", |b| {
        b.iter(|| ctx.negacyclic_mul(&a, &b2));
    });
}

criterion_group!(
    benches,
    bench_ntts,
    bench_radix_kernels,
    bench_negacyclic_mul
);
criterion_main!(benches);
