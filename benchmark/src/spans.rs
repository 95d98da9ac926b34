//! Self time and the per-layer roll-up of a recorded trace.
//!
//! A span's self time is its duration minus the union of its children:
//! the spans on the same thread that start inside it. Summed over every
//! span on the client thread, self times add back up to the request
//! roots' wall time, which is what the roll-up is checked against.

use std::collections::BTreeMap;

use ufc_trace::HostSpan;

/// The layers self time rolls up into, as `<layer>.self_frac` reports
/// them. `bench` is the benchmark's own request code, `client` its
/// client side outside library spans; the rest are span categories of
/// the crates, joined by the benchmark's spans around calls into them.
pub const LAYERS: [&str; 9] = [
    "bench", "client", "workload", "switch", "ckks", "tfhe", "math", "compiler", "sim",
];

/// The benchmark's root span around one request.
pub const REQUEST: (&str, &str) = ("bench", "request");

/// The layer a span's self time belongs to: its category, except that
/// the benchmark's own spans are named after the layer they call into.
pub fn layer_of(span: &HostSpan) -> &'static str {
    match (span.cat, span.name) {
        REQUEST => "bench",
        ("bench", callee) => callee,
        (cat, _) => cat,
    }
}

/// Self time of every span, in nanoseconds, aligned with `spans`.
pub fn self_times(spans: &[HostSpan]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Per thread, by start; a parent sorts before a child that starts
    // at the same instant because it lasts at least as long.
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.thread, s.start_ns, std::cmp::Reverse(s.dur_ns))
    });
    let mut covered = vec![0u64; spans.len()];
    // Open spans of the current thread: (index, end, end of the part
    // already covered by its children).
    let mut open: Vec<(usize, u64, u64)> = Vec::new();
    let mut thread = None;
    for i in order {
        let s = &spans[i];
        if thread != Some(s.thread) {
            open.clear();
            thread = Some(s.thread);
        }
        let end = s.start_ns + s.dur_ns;
        // Close the open spans that ended before `s` or do not contain
        // it (siblings that overlap, which only a clock artifact makes).
        while open
            .last()
            .is_some_and(|&(_, open_end, _)| open_end <= s.start_ns || open_end < end)
        {
            open.pop();
        }
        if let Some((parent, _, done)) = open.last_mut() {
            covered[*parent] += end.saturating_sub(s.start_ns.max(*done));
            *done = (*done).max(end);
        }
        open.push((i, end, s.start_ns));
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns - c)
        .collect()
}

/// Where a traced run's time went.
#[derive(Debug, Default, PartialEq)]
pub struct Rollup {
    /// Self time per layer on the client thread, in nanoseconds.
    pub layers: BTreeMap<&'static str, u64>,
    /// Summed duration of `par_limbs` worker spans on other threads.
    pub worker_ns: u64,
}

impl Rollup {
    /// Rolls up `spans`; the client thread is the one that ran the
    /// request roots.
    pub fn new(spans: &[HostSpan]) -> Self {
        let client = spans
            .iter()
            .find(|s| (s.cat, s.name) == REQUEST)
            .map(|s| s.thread);
        let mut rollup = Self::default();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            if Some(s.thread) == client {
                *rollup.layers.entry(layer_of(s)).or_default() += self_ns;
            } else if (s.cat, s.name) == ("math", "par_worker") {
                rollup.worker_ns += s.dur_ns;
            }
        }
        rollup
    }

    /// Client-thread self time of every layer together.
    pub fn total_ns(&self) -> u64 {
        self.layers.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        cat: &'static str,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        thread: u32,
    ) -> HostSpan {
        HostSpan {
            cat,
            name,
            tag: "",
            detail: 0,
            start_ns,
            dur_ns,
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench", "request", 0, 100, 1),
            span("ckks", "mul", 10, 50, 1),
            span("math", "ntt_forward", 20, 10, 1),
            span("math", "ntt_inverse", 40, 10, 1),
            span("tfhe", "pbs", 70, 20, 1),
            // A worker thread's span overlaps the parent in time but is
            // not its child.
            span("math", "par_worker", 15, 30, 2),
            span("math", "par_limb", 15, 30, 2),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 10, 20, 0, 30]);
    }

    #[test]
    fn overlapping_siblings_count_once() {
        // Two children that overlap each other cover [10, 40) once.
        let spans = vec![
            span("bench", "request", 0, 60, 1),
            span("ckks", "a", 10, 20, 1),
            span("ckks", "b", 25, 15, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 15]);
    }

    #[test]
    fn rollup_adds_back_up_to_request_time() {
        let spans = vec![
            span("bench", "request", 0, 100, 1),
            span("bench", "client", 0, 10, 1),
            span("bench", "ckks", 10, 80, 1),
            span("ckks", "mul", 10, 60, 1),
            span("math", "par_worker", 20, 30, 2),
            span("math", "par_worker", 20, 25, 3),
            span("bench", "request", 200, 50, 1),
            span("bench", "sim", 200, 40, 1),
        ];
        let r = Rollup::new(&spans);
        assert_eq!(r.total_ns(), 100 + 50, "the two requests' durations");
        assert_eq!(r.worker_ns, 55);
        let want: BTreeMap<&str, u64> = [("bench", 20), ("client", 10), ("ckks", 80), ("sim", 40)]
            .into_iter()
            .collect();
        assert_eq!(r.layers, want);
    }
}
