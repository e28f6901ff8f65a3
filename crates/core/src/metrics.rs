//! Flight-recorder primitives: atomic counters, log-linear latency
//! histograms, and construction-phase span traces.
//!
//! Everything here follows the workspace's no-crates.io discipline —
//! `std` only, same as the mmap and epoll shims. The design goals, in
//! order:
//!
//! 1. **O(1), lock-free `record`.** A histogram write is one relaxed
//!    `fetch_add` on a bucket plus three bookkeeping atomics; any
//!    number of threads can record concurrently with no coordination.
//! 2. **Zero cost in the hot kernel.** Nothing in this module is
//!    called from the per-pair label-intersection kernel. All timing
//!    happens at frame/batch boundaries in the serving layer, and the
//!    `paper perf` metrics-overhead stage times what one served batch
//!    call records (counter adds, a clock pair, one histogram record)
//!    and gates it at 3% of the kernel call it wraps.
//! 3. **Mergeable snapshots.** [`HistogramSnapshot`]s from different
//!    histograms (per-worker, per-namespace, per-process) add
//!    losslessly, so percentiles can be reported at any aggregation
//!    level without re-recording.
//!
//! # Bucket layout
//!
//! The histogram is log-linear in the HDR style: values below
//! `2^GROUP_BITS` map one-to-one onto linear buckets (exact), and each
//! octave above that is split into `2^GROUP_BITS` equal sub-buckets,
//! for a bounded relative error of `2^-GROUP_BITS` (≈ 3% at the
//! default of 32 sub-buckets per octave) across the whole `u64`
//! range. With `GROUP_BITS = 5` that is 1 920 buckets — 15 KiB per
//! histogram — covering 1 ns to ~584 years at ≤ 3.2% error.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sub-bucket resolution: each octave splits into `2^GROUP_BITS`
/// buckets, bounding relative quantile error at `2^-GROUP_BITS`.
const GROUP_BITS: u32 = 5;
/// Sub-buckets per octave (`32`).
const SUB_BUCKETS: usize = 1 << GROUP_BITS;
/// Total bucket count covering all of `u64`: one linear group plus
/// `64 - GROUP_BITS` log groups of `SUB_BUCKETS` each.
pub const NUM_BUCKETS: usize = SUB_BUCKETS * (64 - GROUP_BITS as usize + 1);

/// Bucket index for a recorded value. Exact below `SUB_BUCKETS`;
/// log-linear above.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let group = (msb - GROUP_BITS + 1) as usize;
    let sub = (value >> (msb - GROUP_BITS)) as usize; // in SUB_BUCKETS..2*SUB_BUCKETS
    group * SUB_BUCKETS + sub - SUB_BUCKETS
}

/// Smallest value mapping to `index` (inclusive).
#[inline]
pub fn bucket_low(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let group = index / SUB_BUCKETS;
    let sub = (index % SUB_BUCKETS + SUB_BUCKETS) as u64;
    sub << (group - 1)
}

/// Largest value mapping to `index` (inclusive). Quantiles report this
/// bound, so they over- rather than under-estimate — a conservative
/// ≤ `2^-GROUP_BITS` relative error.
#[inline]
pub fn bucket_high(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let group = index / SUB_BUCKETS;
    bucket_low(index) + ((1u64 << (group - 1)) - 1)
}

/// A monotone event counter. A thin named wrapper over a relaxed
/// `AtomicU64` so call sites read as instrumentation, not plumbing.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log-linear histogram of `u64` samples (typically
/// nanoseconds). `record` is O(1) and wait-free; `snapshot` is a
/// consistent-enough relaxed read of every bucket.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram (allocates its 1 920 buckets eagerly).
    pub fn new() -> Self {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Wait-free: four relaxed atomic RMWs.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record the elapsed time of `started` in nanoseconds.
    #[inline]
    pub fn record_since(&self, started: Instant) {
        self.record(started.elapsed().as_nanos() as u64);
    }

    /// Samples recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy. Concurrent recorders may land between the
    /// bucket reads — each sample is still counted exactly once in
    /// some later snapshot; totals are re-derived from the buckets so
    /// the snapshot is internally consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state, the unit of
/// reporting: quantiles, merges across workers, and wire summaries all
/// operate on snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (merge identity).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record into an owned snapshot — the single-threaded path for
    /// code that already owns its histogram (e.g. loadgen workers).
    #[inline]
    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; NUM_BUCKETS];
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Fold another snapshot in. Bucketwise addition — associative and
    /// commutative, so per-worker snapshots aggregate in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.buckets.is_empty() {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; NUM_BUCKETS];
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q·count)`-th smallest sample, clamped
    /// to the exact observed max. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

/// One timed construction phase inside a [`BuildTrace`].
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Phase name (`scc`, `order`, `distribute`, …).
    pub name: String,
    /// Offset from trace creation to phase start, nanoseconds.
    pub start_ns: u64,
    /// Phase duration, nanoseconds.
    pub duration_ns: u64,
}

/// A construction-phase span collector: named wall-clock spans plus a
/// per-hop duration histogram, recorded during index builds and
/// emitted as structured JSON (the `hoplited serve --trace-out` file).
///
/// Interior-mutable so a single `&BuildTrace` can thread through the
/// build call graph; span recording takes a `Mutex` (builds record a
/// handful of spans, never on a hot path) while hop timings go to the
/// lock-free [`Histogram`].
#[derive(Debug)]
pub struct BuildTrace {
    origin: Instant,
    spans: Mutex<Vec<TraceSpan>>,
    hops: Histogram,
}

impl Default for BuildTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildTrace {
    /// A fresh trace; the clock starts now.
    pub fn new() -> Self {
        BuildTrace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            hops: Histogram::new(),
        }
    }

    /// Run `f` as a named span, recording its start offset + duration.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let value = f();
        let duration_ns = started.elapsed().as_nanos() as u64;
        self.spans.lock().unwrap().push(TraceSpan {
            name: name.to_string(),
            start_ns,
            duration_ns,
        });
        value
    }

    /// Record one per-hop labeling duration (both BFS sides of one hop).
    #[inline]
    pub fn record_hop(&self, ns: u64) {
        self.hops.record(ns);
    }

    /// Spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<TraceSpan> {
        self.spans.lock().unwrap().clone()
    }

    /// The per-hop duration distribution.
    pub fn hop_snapshot(&self) -> HistogramSnapshot {
        self.hops.snapshot()
    }

    /// One structured-JSON object for this trace, tagged with `label`
    /// (typically the namespace being built). Spans appear in
    /// completion order; `hops` summarizes the per-vertex labeling
    /// distribution (`null` when no labeling build was traced).
    pub fn to_json(&self, label: &str) -> String {
        let spans = self
            .spans
            .lock()
            .unwrap()
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"duration_ns\":{}}}",
                    s.name, s.start_ns, s.duration_ns
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let hops = self.hops.snapshot();
        let hop_json = if hops.count() == 0 {
            "null".to_string()
        } else {
            format!(
                "{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{}}}",
                hops.count(),
                hops.p50(),
                hops.p99(),
                hops.p999(),
                hops.max()
            )
        };
        format!("{{\"trace\":\"{label}\",\"spans\":[{spans}],\"hops\":{hop_json}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_low(i), v);
            assert_eq!(bucket_high(i), v);
        }
    }

    #[test]
    fn bucket_bounds_tile_u64_without_gaps() {
        // Consecutive buckets must abut exactly: high(i) + 1 == low(i+1).
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_high(i) + 1,
                bucket_low(i + 1),
                "gap or overlap between buckets {i} and {}",
                i + 1
            );
        }
        assert_eq!(bucket_low(0), 0);
        assert_eq!(bucket_high(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn value_maps_into_its_own_bucket_bounds() {
        // Octave boundaries and their neighbors are the fencepost
        // cases; check every power of two ± 1 plus assorted values.
        let mut values = vec![0u64, 1, 31, 32, 33, 63, 64, 65, 1000, u64::MAX];
        for shift in 1..64 {
            let p = 1u64 << shift;
            values.extend([p - 1, p, p + 1]);
        }
        for v in values {
            let i = bucket_index(v);
            assert!(
                bucket_low(i) <= v && v <= bucket_high(i),
                "value {v} outside bucket {i} = [{}, {}]",
                bucket_low(i),
                bucket_high(i)
            );
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // The reported quantile for a single value v is bucket_high of
        // v's bucket: overestimates by < 2^-GROUP_BITS relative.
        for shift in GROUP_BITS..63 {
            let v = (1u64 << shift) + (1u64 << (shift - 1)) + 7;
            let high = bucket_high(bucket_index(v));
            assert!(high >= v);
            let err = (high - v) as f64 / v as f64;
            assert!(err < 1.0 / SUB_BUCKETS as f64, "err {err} at {v}");
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        assert_eq!(s.max(), 1000);
        // p50 of 1..=1000 is 500; the bucket bound may overestimate by
        // up to 1/32.
        let p50 = s.p50();
        assert!((500..=516).contains(&p50), "p50 = {p50}");
        let p99 = s.p99();
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 1000);
        // Values below SUB_BUCKETS are exact.
        let small = Histogram::new();
        for v in 0..32u64 {
            small.record(v);
        }
        let ss = small.snapshot();
        assert_eq!(ss.p50(), 15);
        assert_eq!(ss.quantile(1.0), 31);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p999(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_matches_sequential_ground_truth() {
        let shared = std::sync::Arc::new(Histogram::new());
        let per_thread = 10_000u64;
        let threads = 4;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let shared = std::sync::Arc::clone(&shared);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // Deterministic mixed-magnitude stream.
                        shared.record((i.wrapping_mul(2_654_435_761) >> (t * 7)) % 1_000_000);
                    }
                });
            }
        });
        let mut ground = HistogramSnapshot::empty();
        for t in 0..threads {
            for i in 0..per_thread {
                ground.record((i.wrapping_mul(2_654_435_761) >> (t * 7)) % 1_000_000);
            }
        }
        assert_eq!(shared.snapshot(), ground);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let mut s = HistogramSnapshot::empty();
            for i in 0..n {
                s.record(seed.wrapping_mul(i).wrapping_add(i * i) % 100_000);
            }
            s
        };
        let (a, b, c) = (mk(3, 500), mk(17, 700), mk(91, 300));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge is not associative");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "merge is not commutative");
        // Identity.
        let mut id = a.clone();
        id.merge(&HistogramSnapshot::empty());
        assert_eq!(id, a);
        // Default (bucketless) snapshot also merges.
        let mut d = HistogramSnapshot::default();
        d.merge(&a);
        assert_eq!(d.count(), a.count());
        assert_eq!(d.p99(), a.p99());
    }

    #[test]
    fn counter_is_a_counter() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn build_trace_records_spans_and_hops() {
        let trace = BuildTrace::new();
        let out = trace.span("scc", || 7);
        assert_eq!(out, 7);
        trace.span("order", || {});
        trace.record_hop(1_000);
        trace.record_hop(2_000);
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "scc");
        assert_eq!(spans[1].name, "order");
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert_eq!(trace.hop_snapshot().count(), 2);
        let json = trace.to_json("bench");
        assert!(json.starts_with("{\"trace\":\"bench\""), "{json}");
        assert!(json.contains("\"name\":\"scc\""), "{json}");
        assert!(json.contains("\"hops\":{\"count\":2"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // No hops → null.
        let empty = BuildTrace::new();
        assert!(empty.to_json("x").ends_with("\"hops\":null}"));
    }
}
