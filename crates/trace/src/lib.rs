//! Process-global runtime span recorder for the host evaluator stack.
//!
//! The simulator side of the workspace has full observability
//! (`ufc-telemetry`'s `SimObserver`), but the *real* execution path —
//! NTT kernels, CKKS/TFHE evaluators, scheme switching — needs its own
//! tracing layer that costs nothing when idle. This crate provides it:
//!
//! * a process-global recorder enabled through an RAII guard
//!   ([`record`] / [`Recorder::finish`]);
//! * [`span`] RAII guards instrumenting hot paths; when the recorder
//!   is off a span site is a single relaxed atomic load — no clock
//!   read, no allocation, no branch beyond the load;
//! * per-thread span buffers: enabled spans push into a
//!   `thread_local!` buffer and only take the global lock once per
//!   [`CHUNK`] spans (or at thread exit), so `ufc_math::par` workers
//!   never contend on the hot path;
//! * [`gauge`] point samples for sparse measurements (decrypt-side
//!   noise, phase margins) that want a timestamp but no duration.
//!
//! This crate is a dependency leaf on purpose: `ufc-math` and the
//! scheme crates link it directly, and `ufc-telemetry` re-exports it
//! (as `ufc_telemetry::trace`) next to the aggregation/export code
//! that consumes [`HostTrace`].
//!
//! # Threads
//!
//! Buffers flush to the global sink when their chunk fills, when the
//! owning thread exits, and for the calling thread inside
//! [`Recorder::finish`]. Short-lived worker threads (e.g. the scoped
//! `ufc_math::par::par_map` fan-out) should call
//! [`flush_current_thread`] at the end of their closure body:
//! `std::thread::scope` only orders closure *returns* before the
//! join, not TLS destructors, so a Drop-only flush can race a
//! `finish` that runs right after the fan-out. A thread that is still alive and mid-chunk when `finish`
//! runs on a *different* thread keeps its tail spans until its next
//! flush; single-recorder usage from the thread that started the
//! recording never hits this.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans buffered per thread before one global-lock flush.
pub const CHUNK: usize = 256;

/// Whether the process-global recorder is currently collecting.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic time origin shared by every thread; first use pins it.
static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Next trace-local thread id (0 is reserved for "unassigned").
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

/// Global sink the per-thread buffers drain into.
static SINK: Mutex<Sink> = Mutex::new(Sink {
    spans: Vec::new(),
    gauges: Vec::new(),
});

struct Sink {
    spans: Vec<HostSpan>,
    gauges: Vec<GaugeSample>,
}

/// One completed span from the host execution path.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpan {
    /// Coarse category, e.g. `"math"`, `"ckks"`, `"tfhe"`.
    pub cat: &'static str,
    /// Operation name, e.g. `"ntt_forward"`, `"rescale"`.
    pub name: &'static str,
    /// Optional refinement, e.g. the active NTT kernel generation
    /// (`"radix4"`). Empty when the site has nothing to refine by.
    pub tag: &'static str,
    /// Optional numeric payload (ring size, limb index, …); 0 if unused.
    pub detail: u64,
    /// Start time in nanoseconds since the recording anchor.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Trace-local id of the thread the span ran on (1-based).
    pub thread: u32,
}

impl HostSpan {
    /// `cat/name` or `cat/name[tag]` — the key host aggregation and
    /// exports group by.
    pub fn key(&self) -> String {
        if self.tag.is_empty() {
            format!("{}/{}", self.cat, self.name)
        } else {
            format!("{}/{}[{}]", self.cat, self.name, self.tag)
        }
    }
}

/// One point-in-time measurement (no duration), e.g. measured
/// decrypt-side precision in bits.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name, e.g. `"ckks/measured_precision_bits"`.
    pub name: &'static str,
    /// Sampled value.
    pub value: f64,
    /// Sample time in nanoseconds since the recording anchor.
    pub at_ns: u64,
    /// Trace-local id of the sampling thread.
    pub thread: u32,
}

/// Everything one recording collected, in a deterministic order.
#[derive(Debug, Clone, Default)]
pub struct HostTrace {
    /// Completed spans, sorted by `(start_ns, thread, cat, name)`.
    pub spans: Vec<HostSpan>,
    /// Gauge samples, sorted by `(at_ns, name)`.
    pub gauges: Vec<GaugeSample>,
}

struct LocalBuf {
    thread: u32,
    spans: Vec<HostSpan>,
}

impl LocalBuf {
    fn flush(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        let mut sink = SINK.lock().expect("trace sink poisoned");
        sink.spans.append(&mut self.spans);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        spans: Vec::new(),
    });
}

fn now_ns() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// True while a [`Recorder`] is live. A single relaxed atomic load;
/// instrumentation sites may use it to skip argument preparation.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// RAII guard for an instrumented region. Construct via [`span`] and
/// friends; the region closes (and the span is buffered) on drop.
///
/// When the recorder is disabled the guard is inert: no clock read at
/// either end, nothing buffered.
#[must_use = "a span guard measures until it is dropped"]
pub struct Span {
    cat: &'static str,
    name: &'static str,
    tag: &'static str,
    detail: u64,
    start_ns: u64,
    armed: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        let span = HostSpan {
            cat: self.cat,
            name: self.name,
            tag: self.tag,
            detail: self.detail,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            thread: 0,
        };
        LOCAL.with(|cell| {
            // `try_borrow_mut` so a drop during this thread's TLS
            // teardown degrades to losing one span instead of
            // panicking in a destructor.
            if let Ok(mut buf) = cell.try_borrow_mut() {
                let thread = buf.thread;
                buf.spans.push(HostSpan { thread, ..span });
                if buf.spans.len() >= CHUNK {
                    buf.flush();
                }
            }
        });
    }
}

/// Open a span for `cat/name`. Returns an inert guard when the
/// recorder is off.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    span_full(cat, name, "", 0)
}

/// Open a span carrying a numeric payload (ring size, limb index, …).
#[inline]
pub fn span_n(cat: &'static str, name: &'static str, detail: u64) -> Span {
    span_full(cat, name, "", detail)
}

/// Open a span refined by a static tag (e.g. the NTT kernel name).
#[inline]
pub fn span_tagged(cat: &'static str, name: &'static str, tag: &'static str) -> Span {
    span_full(cat, name, tag, 0)
}

/// Open a span with both a tag and a numeric payload.
#[inline]
pub fn span_full(cat: &'static str, name: &'static str, tag: &'static str, detail: u64) -> Span {
    if !enabled() {
        return Span {
            cat,
            name,
            tag,
            detail,
            start_ns: 0,
            armed: false,
        };
    }
    Span {
        cat,
        name,
        tag,
        detail,
        start_ns: now_ns(),
        armed: true,
    }
}

/// Record a point-in-time sample. No-op when the recorder is off.
/// Gauges are sparse (decrypt-side measurements), so they go straight
/// to the global sink rather than through the per-thread buffers.
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let sample = GaugeSample {
        name,
        value,
        at_ns: now_ns(),
        thread: LOCAL.with(|cell| cell.borrow().thread),
    };
    let mut sink = SINK.lock().expect("trace sink poisoned");
    sink.gauges.push(sample);
}

/// Live recording session. Exactly one can exist per process at a
/// time; dropping it (or calling [`Recorder::finish`]) disables the
/// global recorder.
pub struct Recorder {
    finished: bool,
}

/// Start recording. Returns `None` if a recording is already live.
///
/// Clears any spans left over from a previous session (e.g. buffered
/// tails flushed after that session's `finish`).
pub fn record() -> Option<Recorder> {
    if ENABLED
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return None;
    }
    let mut sink = SINK.lock().expect("trace sink poisoned");
    sink.spans.clear();
    sink.gauges.clear();
    drop(sink);
    Some(Recorder { finished: false })
}

impl Recorder {
    /// Stop recording and return everything collected, in a
    /// deterministic order (see [`HostTrace`] field docs).
    pub fn finish(mut self) -> HostTrace {
        self.finished = true;
        ENABLED.store(false, Ordering::SeqCst);
        flush_current_thread();
        let mut sink = SINK.lock().expect("trace sink poisoned");
        let mut trace = HostTrace {
            spans: std::mem::take(&mut sink.spans),
            gauges: std::mem::take(&mut sink.gauges),
        };
        drop(sink);
        trace.spans.sort_by(|a, b| {
            (a.start_ns, a.thread, a.cat, a.name).cmp(&(b.start_ns, b.thread, b.cat, b.name))
        });
        trace.gauges.sort_by(|a, b| {
            (a.at_ns, a.name)
                .partial_cmp(&(b.at_ns, b.name))
                .expect("ns/name ordering is total")
        });
        trace
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if !self.finished {
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
}

/// Drain the calling thread's span buffer into the global sink.
/// `Recorder::finish` calls this for its own thread; long-lived
/// worker threads may call it at safe points if they outlive the
/// recording.
pub fn flush_current_thread() {
    LOCAL.with(|cell| {
        if let Ok(mut buf) = cell.try_borrow_mut() {
            buf.flush();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // All recorder tests share one #[test]: the recorder is process
    // global and cargo's test harness runs tests concurrently.
    #[test]
    fn recorder_lifecycle() {
        // Disabled: spans are inert and record nothing.
        assert!(!enabled());
        drop(span("t", "disabled_site"));

        let rec = record().expect("no recorder live");
        assert!(enabled());
        assert!(record().is_none(), "second recorder must be refused");

        {
            let _s = span_full("t", "outer", "tagged", 7);
            let _inner = span_n("t", "inner", 3);
        }
        gauge("t/gauge", 1.5);

        // Worker threads flush explicitly before their closure
        // returns (scope join does not order TLS destructors).
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    drop(span("t", "worker"));
                    flush_current_thread();
                });
            }
        });

        let trace = rec.finish();
        assert!(!enabled());

        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert!(!names.contains(&"disabled_site"));
        assert_eq!(names.iter().filter(|n| **n == "worker").count(), 3);
        assert_eq!(names.iter().filter(|n| **n == "outer").count(), 1);
        assert_eq!(names.iter().filter(|n| **n == "inner").count(), 1);

        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.tag, "tagged");
        assert_eq!(outer.detail, 7);
        assert_eq!(outer.key(), "t/outer[tagged]");
        assert_eq!(inner.key(), "t/inner");
        assert!(inner.start_ns >= outer.start_ns);
        assert!(outer.dur_ns >= inner.dur_ns, "outer encloses inner");

        assert_eq!(trace.gauges.len(), 1);
        assert_eq!(trace.gauges[0].name, "t/gauge");
        assert_eq!(trace.gauges[0].value, 1.5);

        // Spans are sorted by start time; distinct worker threads got
        // distinct ids.
        assert!(trace
            .spans
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
        let worker_threads: std::collections::BTreeSet<u32> = trace
            .spans
            .iter()
            .filter(|s| s.name == "worker")
            .map(|s| s.thread)
            .collect();
        assert_eq!(worker_threads.len(), 3);

        // After finish everything is off again and a new recording
        // starts from a clean sink.
        drop(span("t", "post_finish"));
        let rec2 = record().expect("recorder free again");
        let trace2 = rec2.finish();
        assert!(trace2.spans.is_empty());
        assert!(trace2.gauges.is_empty());
    }
}
