//! Sample statistics and the span recorder behind every per-layer metric.
//!
//! The recorder is the harness's own tracing (choosing-metrics §4): spans
//! are opened by the `Timed*` wrappers and by direct calls into public
//! functions, kept in memory, and summarised when the run ends. No span
//! lives inside the program under test.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count; 0 for
/// an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median wall clock of `setup`, run at least three times and for up to
/// 1.5 s (a single reading of a short set-up is mostly noise), plus what
/// the last run built.
pub fn median_setup_s<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let budget = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = setup();
        samples.push(t0.elapsed().as_secs_f64());
        let spent = budget.elapsed().as_secs_f64();
        if samples.len() >= 3 && (spent >= 1.5 || samples.len() >= 200) {
            return (median(&samples), built);
        }
    }
}

/// FNV-1a, the digest primitive of `tests/golden_trace.rs` and the
/// scenario engine's spec hash.
pub struct Fnv(pub u64);

impl Fnv {
    /// The standard offset basis.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Fold `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Nearest-rank position (1-based) of percentile `q` in (0, 1] among `n`
/// samples; the epsilon keeps `0.9 × 100` at rank 90 whatever the rounding.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Percentile `q` of `samples`, or `None` when fewer than ten samples lie
/// beyond it: a tail read off a handful of values is noise, so it is not
/// reported (p90 needs n ≥ 100, p50 needs n ≥ 20).
pub fn tail_percentile(samples: &[u64], q: f64) -> Option<u64> {
    let rank = rank(q, samples.len());
    if samples.len() < rank + 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    Some(v[rank - 1])
}

/// Everything recorded for one span name.
#[derive(Clone, Debug, Default)]
pub struct SpanAgg {
    /// Completed spans.
    pub calls: u64,
    /// Σ span durations.
    pub busy_ns: u64,
    /// Σ (duration − time covered by child spans).
    pub self_ns: u64,
    /// Σ durations of the spans that had no parent.
    pub root_ns: u64,
    /// Σ work units the caller attributed (bytes or uploads; 0 if unused).
    pub work: u64,
    /// Every span's duration.
    pub samples_ns: Vec<u64>,
}

impl SpanAgg {
    fn absorb(&mut self, other: &SpanAgg) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.self_ns += other.self_ns;
        self.root_ns += other.root_ns;
        self.work += other.work;
        self.samples_ns.extend_from_slice(&other.samples_ns);
    }

    /// Σ durations in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Σ self times in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// Median span duration in µs (0 without samples).
    pub fn p50_us(&self) -> f64 {
        let v: Vec<f64> = self.samples_ns.iter().map(|&n| n as f64 * 1e-3).collect();
        median(&v)
    }

    /// 90th-percentile duration in µs; 0 = not reportable (fewer than ten
    /// samples beyond it).
    pub fn p90_us(&self) -> f64 {
        tail_percentile(&self.samples_ns, 0.9).map_or(0.0, |n| n as f64 * 1e-3)
    }

    /// Work units per busy second (0 when idle).
    pub fn work_per_s(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.work as f64 / self.busy_s()
        }
    }
}

thread_local! {
    /// One accumulator per open span on this thread: the time its
    /// completed children have covered so far.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span store, keyed by span name.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Mutex<BTreeMap<&'static str, SpanAgg>>,
}

impl Recorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` inside a span called `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_work(name, 0, f)
    }

    /// [`Recorder::time`], also attributing `work` units to the span.
    pub fn time_work<R>(&self, name: &'static str, work: u64, f: impl FnOnce() -> R) -> R {
        OPEN.with(|s| s.borrow_mut().push(0));
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_nanos() as u64;
        let (children, is_root) = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let children = s.pop().expect("span stack underflow");
            if let Some(parent) = s.last_mut() {
                *parent += dur;
            }
            (children, s.is_empty())
        });
        let mut spans = self.spans.lock().expect("recorder mutex poisoned");
        let agg = spans.entry(name).or_default();
        agg.calls += 1;
        agg.busy_ns += dur;
        agg.self_ns += dur.saturating_sub(children);
        if is_root {
            agg.root_ns += dur;
        }
        agg.work += work;
        agg.samples_ns.push(dur);
        out
    }

    /// Snapshot of one span name (all zeros if never opened).
    pub fn get(&self, name: &str) -> SpanAgg {
        let spans = self.spans.lock().expect("recorder mutex poisoned");
        spans.get(name).cloned().unwrap_or_default()
    }

    /// Fold `other`'s spans into this recorder.
    pub fn absorb(&self, other: &Recorder) {
        let theirs = other.spans.lock().expect("recorder mutex poisoned");
        let mut mine = self.spans.lock().expect("recorder mutex poisoned");
        for (name, agg) in theirs.iter() {
            mine.entry(name).or_default().absorb(agg);
        }
    }

    /// Σ self time over every span, in seconds.
    pub fn total_self_s(&self) -> f64 {
        let spans = self.spans.lock().expect("recorder mutex poisoned");
        spans.values().map(SpanAgg::self_s).sum()
    }

    /// Σ duration of the spans that had no parent, in seconds. Equals
    /// [`Recorder::total_self_s`] when the self-time bookkeeping is sound.
    pub fn total_root_s(&self) -> f64 {
        let spans = self.spans.lock().expect("recorder mutex poisoned");
        spans.values().map(|a| a.root_ns as f64 * 1e-9).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let n99: Vec<u64> = (1..=99).collect();
        assert_eq!(
            tail_percentile(&n99, 0.9),
            None,
            "only 9 samples beyond p90"
        );
        let n100: Vec<u64> = (1..=100).collect();
        assert_eq!(tail_percentile(&n100, 0.9), Some(90));
        assert_eq!(tail_percentile(&n100, 0.99), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        // A whole-run timing with three repetitions has no reportable tail.
        assert_eq!(tail_percentile(&[1, 2, 3], 0.5), None);
    }

    #[test]
    fn nested_spans_subtract_child_time_from_the_parent() {
        let rec = Recorder::new();
        rec.time("outer", || {
            std::thread::sleep(Duration::from_millis(4));
            for _ in 0..2 {
                rec.time("inner", || std::thread::sleep(Duration::from_millis(5)));
            }
        });
        let (outer, inner) = (rec.get("outer"), rec.get("inner"));
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert_eq!(
            inner.self_ns, inner.busy_ns,
            "a leaf's self time is its duration"
        );
        assert_eq!(outer.self_ns, outer.busy_ns - inner.busy_ns);
        assert!(outer.self_ns >= 4_000_000 && inner.busy_ns >= 10_000_000);
        // Only the outer span is a root, and roots sum to Σ self.
        assert_eq!((outer.root_ns, inner.root_ns), (outer.busy_ns, 0));
        assert_eq!(outer.self_ns + inner.self_ns, outer.root_ns);
        assert!((rec.total_self_s() - rec.total_root_s()).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_counts_and_keeps_samples() {
        let (a, b) = (Recorder::new(), Recorder::new());
        a.time_work("x", 3, || ());
        b.time_work("x", 4, || ());
        b.time("y", || ());
        a.absorb(&b);
        assert_eq!(a.get("x").calls, 2);
        assert_eq!(a.get("x").work, 7);
        assert_eq!(a.get("x").samples_ns.len(), 2);
        assert_eq!(a.get("y").calls, 1);
        assert_eq!(a.get("never").calls, 0);
    }
}
