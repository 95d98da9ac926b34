//! Constant-geometry (Pease) NTT and its 2D-array shuffle
//! decomposition — the algorithm/hardware co-design at the heart of
//! UFC's interconnect (paper §IV-C1).
//!
//! The classical radix-2 NTT needs a *different* permutation at every
//! one of its `log N` stages, so a fully-parallel engine needs
//! `log E` distinct networks. The Pease formulation instead applies the
//! **same** perfect-shuffle permutation at every stage, so one fixed
//! network suffices. UFC additionally decomposes that single
//! permutation into three phases on its 2D PE array — `xshuffle`
//! (within a row), `yshuffle` (within a column) and `rshuffle`
//! (within a PE) — which keeps every wire horizontal or vertical
//! ([`ShuffleDecomposition`]).
//!
//! The forward transform here is decimation-in-frequency (DIF) and the
//! inverse is decimation-in-time (DIT), matching the paper's choice
//! ("we can use the DIT algorithm and DIF algorithm for iNTT and NTT").
//! The forward output is in bit-reversed order; the inverse consumes
//! bit-reversed order — exactly the pairing the small-polynomial
//! packing of §V-A relies on.

use crate::modops::{add_mod, inv_mod, mul_mod, sub_mod};
use crate::ntt::NttContext;
use crate::poly::Poly;

/// Constant-geometry NTT engine for a fixed `(N, q)` ring.
///
/// Wraps an [`NttContext`] for its twiddle tables and adds the
/// Pease-style passes. Forward output ordering: bit-reversed.
#[derive(Debug, Clone)]
pub struct CgNtt {
    ctx: NttContext,
    omega_pows: Vec<u64>,
    omega_inv_pows: Vec<u64>,
    psi_pows: Vec<u64>,
    psi_inv_pows: Vec<u64>,
}

impl CgNtt {
    /// Builds a constant-geometry engine over the given context,
    /// precomputing all twiddle tables.
    pub fn new(ctx: NttContext) -> Self {
        let n = ctx.dim();
        let q = ctx.modulus();
        let psi = ctx.psi();
        let omega = mul_mod(psi, psi, q);
        let omega_pows = power_table(omega, n, q);
        let omega_inv_pows = power_table(inv_mod(omega, q).expect("invertible"), n, q);
        let psi_pows = power_table(psi, n, q);
        let psi_inv_pows = power_table(inv_mod(psi, q).expect("invertible"), n, q);
        Self {
            ctx,
            omega_pows,
            omega_inv_pows,
            psi_pows,
            psi_inv_pows,
        }
    }

    /// The underlying twiddle-table context.
    pub fn context(&self) -> &NttContext {
        &self.ctx
    }

    /// Ring dimension.
    pub fn dim(&self) -> usize {
        self.ctx.dim()
    }

    /// Forward **cyclic** constant-geometry NTT (DIF).
    ///
    /// Input natural order, output bit-reversed order. Every stage
    /// reads pairs `(a[i], a[i + N/2])` and writes `(out[2i],
    /// out[2i+1])` — the fixed perfect-shuffle geometry.
    pub fn forward_cyclic(&self, a: &[u64]) -> Vec<u64> {
        let n = self.ctx.dim();
        assert_eq!(a.len(), n, "input length must equal ring dimension");
        let q = self.ctx.modulus();
        let log_n = n.trailing_zeros();
        let mut cur = a.to_vec();
        let mut next = vec![0u64; n];
        for s in 0..log_n {
            let half = n / 2;
            for i in 0..half {
                let x = cur[i];
                let y = cur[i + half];
                // Pease twiddle schedule for DIF: ω^((i >> s) << s).
                let exp = (i >> s) << s;
                let w = self.omega_pow(exp as u64);
                next[2 * i] = add_mod(x, y, q);
                next[2 * i + 1] = mul_mod(sub_mod(x, y, q), w, q);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Inverse **cyclic** constant-geometry NTT (DIT).
    ///
    /// Consumes bit-reversed order, produces natural order; exact
    /// inverse of [`Self::forward_cyclic`].
    pub fn inverse_cyclic(&self, a: &[u64]) -> Vec<u64> {
        let n = self.ctx.dim();
        assert_eq!(a.len(), n, "input length must equal ring dimension");
        let q = self.ctx.modulus();
        let log_n = n.trailing_zeros();
        let mut cur = a.to_vec();
        let mut next = vec![0u64; n];
        for s in (0..log_n).rev() {
            let half = n / 2;
            for i in 0..half {
                let exp = (i >> s) << s;
                let w_inv = self.omega_inv_pow(exp as u64);
                let u = cur[2 * i];
                let v = mul_mod(cur[2 * i + 1], w_inv, q);
                next[i] = add_mod(u, v, q);
                next[i + half] = sub_mod(u, v, q);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        let n_inv = inv_mod(n as u64, q).expect("N invertible");
        for x in cur.iter_mut() {
            *x = mul_mod(*x, n_inv, q);
        }
        cur
    }

    /// Negacyclic forward transform: coefficient form → evaluation form
    /// (bit-reversed evaluation order).
    pub fn forward(&self, p: &Poly) -> Poly {
        let q = self.ctx.modulus();
        let twisted: Vec<u64> = p
            .coeffs()
            .iter()
            .enumerate()
            .map(|(i, &c)| mul_mod(c, self.psi_pow(i), q))
            .collect();
        Poly::from_coeffs(self.forward_cyclic(&twisted), q)
    }

    /// Negacyclic inverse transform: evaluation form (bit-reversed) →
    /// coefficient form.
    pub fn inverse(&self, p: &Poly) -> Poly {
        let q = self.ctx.modulus();
        let mut c = self.inverse_cyclic(p.coeffs());
        for (i, x) in c.iter_mut().enumerate() {
            *x = mul_mod(*x, self.psi_inv_pow(i), q);
        }
        Poly::from_coeffs(c, q)
    }

    /// Negacyclic product using only constant-geometry passes.
    pub fn negacyclic_mul(&self, a: &Poly, b: &Poly) -> Poly {
        let ea = self.forward(a);
        let eb = self.forward(b);
        self.inverse(&ea.hadamard(&eb))
    }

    fn omega_pow(&self, e: u64) -> u64 {
        // omega_pows has N entries; exponents stay < N.
        self.omega_pows[e as usize % self.ctx.dim()]
    }

    fn omega_inv_pow(&self, e: u64) -> u64 {
        self.omega_inv_pows[e as usize % self.ctx.dim()]
    }

    fn psi_pow(&self, i: usize) -> u64 {
        self.psi_pows[i]
    }

    fn psi_inv_pow(&self, i: usize) -> u64 {
        self.psi_inv_pows[i]
    }
}

fn power_table(base: u64, n: usize, q: u64) -> Vec<u64> {
    let mut t = Vec::with_capacity(n);
    let mut x = 1u64;
    for _ in 0..n {
        t.push(x);
        x = mul_mod(x, base, q);
    }
    t
}

/// The fixed inter-stage permutation of the constant-geometry NTT:
/// element at position `p` moves to position
/// `(p << 1 | p >> (log N - 1)) mod N` (perfect shuffle).
pub fn perfect_shuffle_dest(p: usize, n: usize) -> usize {
    debug_assert!(n.is_power_of_two() && p < n);
    let log_n = n.trailing_zeros() as usize;
    ((p << 1) | (p >> (log_n - 1))) & (n - 1)
}

/// Decomposition of the perfect shuffle into the three phases UFC
/// routes on its 2D PE array (paper §IV-C1, after Miel '93):
/// `xshuffle` (moves data between PEs in the same row), `yshuffle`
/// (between PEs in the same column) and `rshuffle` (within a PE —
/// folded into the butterfly datapath in hardware).
///
/// Index layout (MSB→LSB): `[row bits | column bits | lane bits]`,
/// i.e. element `e` lives on PE `(row, col)` at lane `e mod lanes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleDecomposition {
    rows: usize,
    cols: usize,
    lanes: usize,
}

impl ShuffleDecomposition {
    /// Creates a decomposition for a `rows × cols` PE array with
    /// `lanes` elements per PE.
    ///
    /// # Panics
    ///
    /// Panics unless all three dimensions are powers of two and at
    /// least 2 (the shuffle needs a bit from each field).
    pub fn new(rows: usize, cols: usize, lanes: usize) -> Self {
        assert!(
            rows.is_power_of_two() && cols.is_power_of_two() && lanes.is_power_of_two(),
            "all dimensions must be powers of two"
        );
        assert!(
            rows >= 2 && cols >= 2 && lanes >= 2,
            "dimensions must be >= 2"
        );
        Self { rows, cols, lanes }
    }

    /// Total number of elements `rows * cols * lanes`.
    pub fn len(&self) -> usize {
        self.rows * self.cols * self.lanes
    }

    /// Always false: the decomposition covers at least 8 elements.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn split(&self, p: usize) -> (usize, usize, usize) {
        let l = p & (self.lanes - 1);
        let c = (p / self.lanes) & (self.cols - 1);
        let r = p / (self.lanes * self.cols);
        (r, c, l)
    }

    fn join(&self, r: usize, c: usize, l: usize) -> usize {
        (r * self.cols + c) * self.lanes + l
    }

    /// Phase 1 — `xshuffle`: destination of element at `p`, moving only
    /// along the row (row index unchanged).
    pub fn xshuffle_dest(&self, p: usize) -> usize {
        let (r, c, l) = self.split(p);
        let l_msb = l >> (self.lanes.trailing_zeros() - 1);
        let c_msb = c >> (self.cols.trailing_zeros() - 1);
        let c2 = ((c << 1) | l_msb) & (self.cols - 1);
        let l2 = ((l << 1) | c_msb) & (self.lanes - 1);
        self.join(r, c2, l2)
    }

    /// Phase 2 — `yshuffle`: destination of element at `p`, moving only
    /// along the column (column index unchanged).
    pub fn yshuffle_dest(&self, p: usize) -> usize {
        let (r, c, l) = self.split(p);
        let r_msb = r >> (self.rows.trailing_zeros() - 1);
        let r2 = ((r << 1) | (l & 1)) & (self.rows - 1);
        let l2 = (l & !1) | r_msb;
        self.join(r2, c, l2)
    }

    /// Phase 3 — `rshuffle`: within-PE lane permutation. For this
    /// decomposition it is the identity (the lane reordering was folded
    /// into the x/y phases' write offsets, mirroring how UFC folds
    /// rshuffle into the butterfly datapath).
    pub fn rshuffle_dest(&self, p: usize) -> usize {
        p
    }

    /// Applies the three phases in order, returning the composite
    /// destination. Equals [`perfect_shuffle_dest`] for every index —
    /// the invariant the interconnect co-design rests on.
    pub fn composite_dest(&self, p: usize) -> usize {
        self.rshuffle_dest(self.yshuffle_dest(self.xshuffle_dest(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::bit_reverse_permute;
    use crate::prime::generate_ntt_prime;

    fn engine(n: usize) -> CgNtt {
        CgNtt::new(NttContext::new(n, generate_ntt_prime(n, 40).unwrap()))
    }

    #[test]
    fn cg_forward_matches_classical_bit_reversed() {
        let log_dims: &[usize] = if cfg!(miri) {
            &[2, 3, 5]
        } else {
            &[2, 3, 5, 8]
        };
        for &log_n in log_dims {
            let n = 1 << log_n;
            let e = engine(n);
            let input: Vec<u64> = (0..n as u64).map(|i| i * 31 + 5).collect();
            let cg = e.forward_cyclic(&input);
            let mut classical = input.clone();
            e.context().forward_cyclic(&mut classical);
            // CG-DIF emits bit-reversed order.
            let mut classical_br = classical;
            bit_reverse_permute(&mut classical_br);
            assert_eq!(cg, classical_br, "log_n = {log_n}");
        }
    }

    #[test]
    fn cg_roundtrip_cyclic() {
        let n = 64;
        let e = engine(n);
        let input: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37) % e.context().modulus())
            .collect();
        assert_eq!(e.inverse_cyclic(&e.forward_cyclic(&input)), input);
    }

    #[test]
    fn cg_negacyclic_mul_matches_schoolbook() {
        let n = 32;
        let e = engine(n);
        let q = e.context().modulus();
        let a = Poly::from_coeffs((0..n as u64).map(|i| i + 1).collect(), q);
        let b = Poly::from_coeffs((0..n as u64).map(|i| 2 * i + 3).collect(), q);
        assert_eq!(e.negacyclic_mul(&a, &b), a.negacyclic_mul_schoolbook(&b));
    }

    #[test]
    fn cg_negacyclic_roundtrip() {
        let n = if cfg!(miri) { 64 } else { 128 };
        let e = engine(n);
        let q = e.context().modulus();
        let p = Poly::from_coeffs((0..n as u64).map(|i| (i * i) % q).collect(), q);
        assert_eq!(e.inverse(&e.forward(&p)), p);
    }

    #[test]
    fn perfect_shuffle_is_a_permutation() {
        let n = 256;
        let mut seen = vec![false; n];
        for p in 0..n {
            let d = perfect_shuffle_dest(p, n);
            assert!(!seen[d]);
            seen[d] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn stage_geometry_is_the_perfect_shuffle() {
        // The CG stage writes in[i] -> out[2i] and in[i + N/2] -> out[2i+1];
        // as an index map that is exactly perfect_shuffle_dest.
        let n = 64;
        for i in 0..n / 2 {
            assert_eq!(perfect_shuffle_dest(i, n), 2 * i);
            assert_eq!(perfect_shuffle_dest(i + n / 2, n), 2 * i + 1);
        }
    }

    #[test]
    fn three_phase_decomposition_equals_shuffle() {
        // 8x8 PE array with 4 lanes per PE (256 elements), plus other shapes.
        for (r, c, l) in [(8usize, 8usize, 4usize), (4, 8, 2), (2, 2, 2), (8, 8, 64)] {
            let d = ShuffleDecomposition::new(r, c, l);
            let n = d.len();
            for p in 0..n {
                assert_eq!(
                    d.composite_dest(p),
                    perfect_shuffle_dest(p, n),
                    "rows={r} cols={c} lanes={l} p={p}"
                );
            }
        }
    }

    #[test]
    fn x_phase_preserves_rows_y_phase_preserves_columns() {
        let d = ShuffleDecomposition::new(8, 8, 4);
        let lanes = 4;
        let cols = 8;
        for p in 0..d.len() {
            let row = |x: usize| x / (lanes * cols);
            let col = |x: usize| (x / lanes) % cols;
            assert_eq!(row(p), row(d.xshuffle_dest(p)), "xshuffle crossed rows");
            assert_eq!(
                col(d.xshuffle_dest(p)),
                col(d.yshuffle_dest(d.xshuffle_dest(p))),
                "yshuffle crossed columns"
            );
        }
    }
}
