//! Criterion benches for the element-wise lane kernels behind
//! [`ufc_math::plane::RnsPlane`] at a 59-bit prime: the dispatched
//! path against the scalar loops the plane used before the lane layer
//! existed. At this width add/sub/scale run AVX2 when the host has
//! it, and hadamard/mac run the portable Barrett unroll on every host
//! (the IFMA lanes need `q < 2^50`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ufc_math::modops::{add_mod, mul_mod, shoup_precompute, sub_mod, Barrett};
use ufc_math::prime::generate_ntt_prime;
use ufc_math::simd;

/// Deterministic operand vector in `[0, q)`.
fn operand(seed: u64, n: usize, q: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % q
        })
        .collect()
}

fn bench_ew_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("ew_kernels");
    g.sample_size(20);
    let n = 1usize << 14;
    let q = generate_ntt_prime(1 << 10, 59).unwrap();
    let br = Barrett::new(q);
    let a = operand(1, n, q);
    let b = operand(2, n, q);
    let cc = operand(3, n, q);
    let s = 0x1234_5678 % q;
    let ss = shoup_precompute(s, q);
    let mut buf = a.clone();

    g.bench_with_input(BenchmarkId::new("add", "scalar"), &a, |bch, a| {
        bch.iter(|| {
            buf.copy_from_slice(a);
            for (x, &bi) in buf.iter_mut().zip(&b) {
                *x = add_mod(*x, bi, q);
            }
        });
    });
    g.bench_with_input(BenchmarkId::new("add", "simd"), &a, |bch, a| {
        bch.iter(|| {
            buf.copy_from_slice(a);
            simd::add_mod_slice(&mut buf, &b, q);
        });
    });

    g.bench_with_input(BenchmarkId::new("sub", "scalar"), &a, |bch, a| {
        bch.iter(|| {
            buf.copy_from_slice(a);
            for (x, &bi) in buf.iter_mut().zip(&b) {
                *x = sub_mod(*x, bi, q);
            }
        });
    });
    g.bench_with_input(BenchmarkId::new("sub", "simd"), &a, |bch, a| {
        bch.iter(|| {
            buf.copy_from_slice(a);
            simd::sub_mod_slice(&mut buf, &b, q);
        });
    });

    g.bench_with_input(BenchmarkId::new("hadamard", "scalar"), &a, |bch, a| {
        bch.iter(|| {
            buf.copy_from_slice(a);
            for (x, &bi) in buf.iter_mut().zip(&b) {
                *x = br.mul(*x, bi);
            }
        });
    });
    g.bench_with_input(BenchmarkId::new("hadamard", "simd"), &a, |bch, a| {
        bch.iter(|| {
            buf.copy_from_slice(a);
            simd::mul_mod_slice(&mut buf, &b, q);
        });
    });

    g.bench_with_input(BenchmarkId::new("mac", "scalar"), &a, |bch, a| {
        bch.iter(|| {
            buf.copy_from_slice(a);
            for ((x, &bi), &ci) in buf.iter_mut().zip(&b).zip(&cc) {
                *x = add_mod(*x, mul_mod(bi, ci, q), q);
            }
        });
    });
    g.bench_with_input(BenchmarkId::new("mac", "simd"), &a, |bch, a| {
        bch.iter(|| {
            buf.copy_from_slice(a);
            simd::mac_mod_slice(&mut buf, &b, &cc, q);
        });
    });

    g.bench_with_input(BenchmarkId::new("scale", "scalar"), &a, |bch, a| {
        bch.iter(|| {
            buf.copy_from_slice(a);
            for x in buf.iter_mut() {
                *x = br.mul(*x, s);
            }
        });
    });
    g.bench_with_input(BenchmarkId::new("scale", "simd"), &a, |bch, a| {
        bch.iter(|| {
            buf.copy_from_slice(a);
            simd::scale_shoup_slice(&mut buf, s, ss, q);
        });
    });

    g.finish();
}

criterion_group!(benches, bench_ew_kernels);
criterion_main!(benches);
