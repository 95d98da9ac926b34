//! Dependency-free fan-out over independent items, built on
//! `std::thread::scope`: one helper for limbs and ciphertexts.
//!
//! [`par_map`] is the one spawn loop. RNS operations are
//! embarrassingly parallel across limbs (every limb is an independent
//! length-`n` vector with its own modulus), and [`par_limbs`] feeds it
//! the disjoint per-limb chunks of an [`crate::plane::RnsPlane`]'s
//! flat buffer. TFHE bootstraps of independent ciphertexts are just as
//! independent, and the batch PBS in `ufc-tfhe` feeds it whole
//! ciphertexts. No thread pool crate is involved (registry crates are
//! unavailable in this build); scoped threads are spawned per call,
//! which amortizes fine at FHE sizes (an NTT at N = 2^14 or one
//! bootstrap dwarfs a thread spawn), and one cutoff on the batch's
//! total size in words keeps small batches serial.
//!
//! Determinism: items are assigned to workers by a fixed round-robin
//! of the item index, each item is processed exactly once by one
//! worker, and results come back in item order, so results are
//! bit-identical for every thread count as long as each item's work
//! is a pure function of the item.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global cap on worker threads. `0` means "auto" (use
/// `std::thread::available_parallelism`).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Minimum total work in words (`n · limbs` for a plane, items ×
/// per-item words for a batch) before threads are spawned at all;
/// below this the scoped-spawn overhead outweighs the work and
/// everything runs serially on the caller's thread.
const PAR_MIN_WORK: usize = 1 << 14;

/// Caps the number of worker threads used by [`par_map`] (and so by
/// [`par_limbs`]).
///
/// `0` restores the default (auto-detect). Returns the previous cap.
/// Results never depend on this setting — only wall-clock does.
pub fn set_max_threads(n: usize) -> usize {
    MAX_THREADS.swap(n, Ordering::SeqCst)
}

/// The number of worker threads [`par_map`] would use right now.
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
/// profitable: [`par_map`] over the limbs, each limb one item of `n`
/// words, traced as a `math/par_limb` span when the plane has more
/// than one limb.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `n` (for `n > 0`).
pub fn par_limbs<F>(n: usize, data: &mut [u64], f: F)
where
    F: Fn(usize, &mut [u64]) + Sync,
{
    par_limbs_in(n, &mut [data], f);
}

/// [`par_limbs`] over the limbs of several flat buffers as one fan-out:
/// limb indices run through `buffers[0]`'s limbs, then `buffers[1]`'s,
/// and so on. Separate buffers can be freed one at a time afterwards.
///
/// # Panics
///
/// Panics if a buffer's length is not a multiple of `n` (for `n > 0`).
pub fn par_limbs_in<F>(n: usize, buffers: &mut [&mut [u64]], f: F)
where
    F: Fn(usize, &mut [u64]) + Sync,
{
    if n == 0 {
        return;
    }
    for data in buffers.iter() {
        assert_eq!(data.len() % n, 0, "flat buffer must be whole limbs");
    }
    let limbs: Vec<&mut [u64]> = buffers.iter_mut().flat_map(|b| b.chunks_mut(n)).collect();
    let count = limbs.len();
    par_map(limbs, n, |i, chunk| {
        // A one-limb plane (a TFHE ring element) has no limb
        // distribution to show: its time stays with the caller's span.
        let _limb = (count > 1).then(|| ufc_trace::span_n("math", "par_limb", i as u64));
        f(i, chunk);
    });
}

/// Runs `f` on a scratch buffer of `len` words owned by the calling
/// thread. The buffer is kept between calls, so the items one
/// [`par_map`] worker runs share one allocation. Its contents on entry
/// are unspecified; a nested call gets a buffer of its own.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::Cell<Vec<u64>> = const { std::cell::Cell::new(Vec::new()) };
    }
    let mut buf = SCRATCH.take();
    buf.resize(len, 0);
    let out = f(&mut buf);
    SCRATCH.set(buf);
    out
}

/// Maps `f(index, item)` over independent items, fanning them out
/// over scoped worker threads when the batch is worth it, and returns
/// the results in item order.
///
/// `item_work` is one item's size in words (a limb's `n`, a
/// bootstrap's `lwe_dim · ring_dim`). The batch runs serially on the
/// caller's thread when it has fewer than two items, when
/// `items × item_work` is below the spawn cutoff, or when only one
/// thread is allowed. Otherwise item `i` goes to worker
/// `i % threads`, each worker runs its share in index order inside a
/// `math/par_worker` span (detail: share size), and a worker's panic
/// resumes on the caller.
pub fn par_map<I, R, F>(items: I, item_work: usize, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let count = items.len();
    // Size checks first: a small batch runs serially whatever the
    // thread count.
    let serial = count < 2 || count.saturating_mul(item_work) < PAR_MIN_WORK;
    let threads = if serial {
        1
    } else {
        effective_threads().min(count)
    };
    if threads <= 1 {
        return items.enumerate().map(|(i, item)| f(i, item)).collect();
    }
    // Hand each worker a round-robin share of the items. Items are
    // moved into their share, so mutable borrows stay disjoint and no
    // synchronization is needed beyond the scope join.
    let mut shares: Vec<Vec<(usize, I::Item)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.enumerate() {
        shares[i % threads].push((i, item));
    }
    let f = &f;
    let mut outputs: Vec<std::vec::IntoIter<R>> = std::thread::scope(|scope| {
        let workers: Vec<_> = shares
            .into_iter()
            .map(|share| {
                scope.spawn(move || {
                    let out: Vec<R> = {
                        let _worker = ufc_trace::span_n("math", "par_worker", share.len() as u64);
                        share.into_iter().map(|(i, item)| f(i, item)).collect()
                    };
                    // Flush inside the closure: scope join only orders
                    // closure returns, not TLS destructors, so relying
                    // on the Drop-flush would race a `finish` right
                    // after the fan-out.
                    ufc_trace::flush_current_thread();
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| match w.join() {
                Ok(out) => out.into_iter(),
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    // Undo the round-robin: item `i` is the next result of worker
    // `i % threads`.
    (0..count)
        .map(|i| outputs[i % threads].next().expect("one result per item"))
        .collect()
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

    #[test]
    fn empty_batch_returns_nothing() {
        let prev = set_max_threads(4);
        let out: Vec<u64> = par_map(Vec::<u64>::new(), usize::MAX, |_, _| panic!("no items"));
        set_max_threads(prev);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_on_the_callers_thread() {
        // However large, one item has nothing to fan out: no worker is
        // spawned, so no `math/par_worker` span can appear.
        let caller = std::thread::current().id();
        let prev = set_max_threads(4);
        let out = par_map([7u64], usize::MAX, |i, x| {
            assert_eq!(std::thread::current().id(), caller);
            (i, x + 1)
        });
        set_max_threads(prev);
        assert_eq!(out, vec![(0, 8)]);
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..11).collect();
        let prev = set_max_threads(3);
        let out = par_map(&items, PAR_MIN_WORK, |i, &x| {
            assert_eq!(i, x);
            x * x
        });
        set_max_threads(prev);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn worker_panic_reaches_the_caller() {
        let prev = set_max_threads(2);
        // Restore the cap even though the fan-out panics.
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                set_max_threads(self.0);
            }
        }
        let _restore = Restore(prev);
        par_map(0..4usize, PAR_MIN_WORK, |i, _| {
            assert_ne!(i, 3, "item 3 failed");
        });
    }
}
