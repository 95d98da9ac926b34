//! Dependency-free limb parallelism built on `std::thread::scope`.
//!
//! RNS operations are embarrassingly parallel across limbs: every limb
//! is an independent length-`n` vector with its own modulus. This
//! module exposes [`par_limbs`], which splits the flat limb-major
//! buffer of an [`crate::plane::RnsPlane`] into disjoint per-limb
//! chunks and fans them out over scoped threads. No thread pool crate
//! is involved (registry crates are unavailable in this build); scoped
//! threads are spawned per call, which amortizes fine at FHE sizes
//! (an NTT at N = 2^14 dwarfs a thread spawn).
//!
//! Determinism: limbs are assigned to workers by a fixed round-robin
//! of the limb index, and each limb is processed exactly once by one
//! worker, so results are bit-identical for every thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global cap on worker threads. `0` means "auto" (use
/// `std::thread::available_parallelism`).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Minimum total element count (`n · limbs`) before threads are
/// spawned at all; below this the scoped-spawn overhead outweighs the
/// work and everything runs serially on the caller's thread.
const PAR_MIN_WORK: usize = 1 << 14;

/// Caps the number of worker threads used by [`par_limbs`].
///
/// `0` restores the default (auto-detect). Returns the previous cap.
/// Results never depend on this setting — only wall-clock does.
pub fn set_max_threads(n: usize) -> usize {
    MAX_THREADS.swap(n, Ordering::SeqCst)
}

/// The number of worker threads [`par_limbs`] would use right now.
///
/// The auto-detected count is queried once per process and cached:
/// `available_parallelism` reads cgroup quota files on Linux, which
/// costs tens of microseconds per call.
pub fn effective_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    match MAX_THREADS.load(Ordering::SeqCst) {
        0 => *AUTO.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }),
        n => n,
    }
}

/// Applies `f(limb_index, limb_chunk)` to every `n`-element chunk of
/// the flat limb-major buffer `data`, in parallel across limbs when
/// profitable.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `n` (for `n > 0`).
pub fn par_limbs<F>(n: usize, data: &mut [u64], f: F)
where
    F: Fn(usize, &mut [u64]) + Sync,
{
    if n == 0 || data.is_empty() {
        return;
    }
    assert_eq!(data.len() % n, 0, "flat buffer must be whole limbs");
    let limbs = data.len() / n;
    // Size checks first: a small ring runs serially whatever the
    // thread count.
    let serial = limbs < 2 || data.len() < PAR_MIN_WORK;
    let threads = if serial {
        1
    } else {
        effective_threads().min(limbs)
    };
    if threads <= 1 {
        // A one-limb plane (a TFHE ring element) has no limb
        // distribution to show: its time stays with the caller's span.
        for (i, chunk) in data.chunks_mut(n).enumerate() {
            let _limb = (limbs > 1).then(|| ufc_trace::span_n("math", "par_limb", i as u64));
            f(i, chunk);
        }
        return;
    }
    // Hand each worker a round-robin share of the limbs. chunks_mut
    // yields disjoint borrows, so no synchronization is needed beyond
    // the scope join.
    let mut shares: Vec<Vec<(usize, &mut [u64])>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(n).enumerate() {
        shares[i % threads].push((i, chunk));
    }
    std::thread::scope(|scope| {
        for share in shares {
            scope.spawn(|| {
                {
                    let _worker = ufc_trace::span_n("math", "par_worker", share.len() as u64);
                    for (i, chunk) in share {
                        let _limb = ufc_trace::span_n("math", "par_limb", i as u64);
                        f(i, chunk);
                    }
                }
                // Flush inside the closure: scope join only orders
                // closure returns, not TLS destructors, so relying on
                // the Drop-flush would race a `finish` right after
                // the fan-out.
                ufc_trace::flush_current_thread();
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_every_limb_exactly_once() {
        let n = 8;
        let limbs = 5;
        let mut data = vec![0u64; n * limbs];
        par_limbs(n, &mut data, |i, chunk| {
            for x in chunk.iter_mut() {
                *x += i as u64 + 1;
            }
        });
        for (i, chunk) in data.chunks(n).enumerate() {
            assert!(chunk.iter().all(|&x| x == i as u64 + 1));
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        // Big enough to cross PAR_MIN_WORK so the threaded path runs.
        let n = 4096;
        let limbs = 6;
        let mut serial = vec![1u64; n * limbs];
        let mut parallel = serial.clone();
        let f = |i: usize, chunk: &mut [u64]| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i as u64).wrapping_mul(31).wrapping_add(j as u64);
            }
        };
        let prev = set_max_threads(1);
        par_limbs(n, &mut serial, f);
        set_max_threads(4);
        par_limbs(n, &mut parallel, f);
        set_max_threads(prev);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_zero_dim_are_noops() {
        let mut data: Vec<u64> = Vec::new();
        par_limbs(4, &mut data, |_, _| panic!("must not be called"));
        let mut data = vec![1u64; 4];
        par_limbs(0, &mut data, |_, _| panic!("must not be called"));
        assert_eq!(data, vec![1u64; 4]);
    }
}
