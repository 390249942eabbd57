//! The metrics registry: one dependency-free vocabulary for every
//! runtime counter of a database — named [`Counter`]s, [`Gauge`]s and
//! fixed-bucket latency [`Histogram`]s behind a snapshot/diff API, so a
//! caller can bracket any region of work with two snapshots and read off
//! exactly what happened in between.
//!
//! Each layer pushes into the registry where its work happens: the buffer
//! pools and disk managers count `pool.*`, the write-ahead log `wal.*`,
//! the SQL session and the server their statements and latencies. A
//! component takes its instruments once, at construction, and keeps the
//! `Arc`s; a standalone pool or log (as in a unit test) is given a
//! registry of its own. Counters are cumulative and never decrease, so a
//! [`MetricsSnapshot::diff`] of two snapshots is the work of the window
//! between them, whatever tables were created or dropped in it.
//!
//! Everything here is `std` atomics: recording a counter is one relaxed
//! `fetch_add`, recording a histogram sample is a short branchless scan
//! over at most [`LATENCY_BUCKET_BOUNDS`]`.len()` bounds plus two
//! `fetch_add`s. There are no locks on the hot path — the registry's maps
//! are locked only to *look up or create* an instrument.
//!
//! Naming convention: `component.metric` with dots as separators —
//! `pool.io_reads`, `wal.syncs`, `session.statements`,
//! `server.statements`. Snapshots render in `BTreeMap` order, so related
//! metrics group together in every dump.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (pool size, active sessions).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in microseconds: 50µs … 10s in a
/// roughly 1-2.5-5 progression. A final implicit overflow bucket catches
/// everything above the last bound.
pub const LATENCY_BUCKET_BOUNDS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// A fixed-bucket histogram. Values are unitless `u64`s; by convention
/// latency histograms record **microseconds** against
/// [`LATENCY_BUCKET_BOUNDS`]. Bucket semantics are `value <= bound`: a
/// sample lands in the first bucket whose upper bound is ≥ the sample,
/// and samples above every bound land in the implicit overflow bucket.
#[derive(Debug)]
pub struct Histogram {
    /// Sorted, strictly increasing upper bounds; `buckets.len() ==
    /// bounds.len() + 1` (the extra slot is the overflow bucket).
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Largest sample seen — reported for percentiles that land in the
    /// unbounded overflow bucket.
    max: AtomicU64,
}

impl Histogram {
    /// Histogram over the given upper bounds (must be sorted ascending).
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds not sorted");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The default latency histogram (microsecond samples).
    pub fn latency() -> Histogram {
        Histogram::new(LATENCY_BUCKET_BOUNDS)
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot the per-bucket counts (`bounds.len() + 1` entries, last is
    /// the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The `p`-th percentile (0 < p ≤ 100), resolved to the upper bound of
    /// the bucket holding the `ceil(p% · count)`-th sample — an upper
    /// bound on the true percentile, which is exactly the conservative
    /// direction for a latency SLO. Percentiles landing in the overflow
    /// bucket report the largest sample seen. `None` while empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let snap = self.bucket_counts();
        let total: u64 = snap.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in snap.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(match self.bounds.get(i) {
                    Some(&bound) => bound.min(self.max.load(Ordering::Relaxed)),
                    None => self.max.load(Ordering::Relaxed),
                });
            }
        }
        Some(self.max.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.bucket_counts(),
            count: self.count(),
            sum: self.sum(),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub p50: Option<u64>,
    pub p95: Option<u64>,
    pub p99: Option<u64>,
}

/// Point-in-time copy of a whole registry, renderable and diffable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The delta from `earlier` to `self`: counters subtract (saturating,
    /// though a registry's counters never decrease), gauges keep their current
    /// value (an instantaneous reading has no meaningful delta), and
    /// histograms subtract bucket-wise with percentiles recomputed over
    /// the interval's samples only.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let delta = match earlier.histograms.get(k) {
                    Some(e) if e.bounds == h.bounds => {
                        let buckets: Vec<u64> = h
                            .buckets
                            .iter()
                            .zip(&e.buckets)
                            .map(|(&a, &b)| a.saturating_sub(b))
                            .collect();
                        let count = h.count.saturating_sub(e.count);
                        let sum = h.sum.saturating_sub(e.sum);
                        let (p50, p95, p99) = (
                            percentile_of(&h.bounds, &buckets, 50.0),
                            percentile_of(&h.bounds, &buckets, 95.0),
                            percentile_of(&h.bounds, &buckets, 99.0),
                        );
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            buckets,
                            count,
                            sum,
                            p50,
                            p95,
                            p99,
                        }
                    }
                    _ => h.clone(),
                };
                (k.clone(), delta)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Render as sorted `name value` lines — the format `.stats` and the
    /// tsql `.timer` report build on.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k} count={} p50={} p95={} p99={}\n",
                h.count,
                h.p50.map_or("-".to_string(), |v| v.to_string()),
                h.p95.map_or("-".to_string(), |v| v.to_string()),
                h.p99.map_or("-".to_string(), |v| v.to_string()),
            ));
        }
        out
    }
}

/// Percentile over an already-materialized bucket vector (used by
/// [`MetricsSnapshot::diff`], which has no live histogram to ask). The
/// overflow bucket resolves to the last bound, the best available
/// approximation without the live `max`.
fn percentile_of(bounds: &[u64], buckets: &[u64], p: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(bounds.get(i).copied().unwrap_or(*bounds.last()?));
        }
    }
    bounds.last().copied()
}

/// The registry: named instruments, created on first use and shared via
/// `Arc` thereafter. One registry per database absorbs the whole stack's
/// counters; the server layers its own instruments into the same registry
/// so `.stats` is a single snapshot.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// The gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// The latency histogram named `name` (default microsecond buckets).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::latency()))
            .clone()
    }

    /// Point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = {
            let map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, c)| (k.clone(), c.get())).collect()
        };
        let gauges = {
            let map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, g)| (k.clone(), g.get())).collect()
        };
        let histograms = {
            let map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect()
        };
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("pool.io_reads");
        c.inc();
        c.add(4);
        // Same name → same instrument.
        assert_eq!(reg.counter("pool.io_reads").get(), 5);
        reg.gauge("server.sessions").set(3);
        reg.gauge("server.sessions").set(2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pool.io_reads"], 5);
        assert_eq!(snap.gauges["server.sessions"], 2);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        // Pin the `value <= bound` semantics at every edge of a small
        // histogram: exactly-at-bound lands IN the bound's bucket,
        // bound+1 lands in the next, above-all lands in overflow.
        let h = Histogram::new(&[10, 20, 40]);
        h.record(0); // ≤ 10
        h.record(10); // ≤ 10 (boundary: inclusive)
        h.record(11); // ≤ 20 (boundary + 1 rolls over)
        h.record(20); // ≤ 20
        h.record(21); // ≤ 40
        h.record(40); // ≤ 40
        h.record(41); // overflow
        h.record(1_000_000); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 10 + 11 + 20 + 21 + 40 + 41 + 1_000_000);
    }

    #[test]
    fn percentiles_resolve_to_bucket_upper_bounds() {
        let h = Histogram::new(&[10, 20, 40]);
        for v in [1, 2, 3, 4, 5, 6, 7, 8, 9] {
            h.record(v);
        }
        h.record(35);
        // 10 samples: p50 → 5th sample → first bucket → bound 10, but
        // clamped to the max sample only when max < bound (max here is 35).
        assert_eq!(h.percentile(50.0), Some(10));
        // p99 → 10th sample → the 35 in the ≤40 bucket; reported bound 40
        // clamps to the largest sample actually seen.
        assert_eq!(h.percentile(99.0), Some(35));
        // All-overflow histogram reports the observed max.
        let o = Histogram::new(&[10]);
        o.record(100);
        o.record(700);
        assert_eq!(h.percentile(100.0), Some(35));
        assert_eq!(o.percentile(50.0), Some(700));
        assert_eq!(o.percentile(99.0), Some(700));
        // Empty histogram has no percentiles.
        assert_eq!(Histogram::new(&[10]).percentile(50.0), None);
    }

    #[test]
    fn percentile_clamps_to_observed_max_below_bound() {
        let h = Histogram::new(&[1000]);
        h.record(3);
        // One sample of 3 in the ≤1000 bucket: report 3, not 1000.
        assert_eq!(h.percentile(50.0), Some(3));
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_buckets() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("wal.commits");
        let h = reg.histogram("server.statement_latency_us");
        c.add(10);
        h.record(80);
        let before = reg.snapshot();
        c.add(5);
        h.record(80);
        h.record(120);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.counters["wal.commits"], 5);
        let hd = &delta.histograms["server.statement_latency_us"];
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 200);
        // Interval percentiles recompute over the two new samples only.
        assert_eq!(hd.p50, Some(100));
        assert_eq!(hd.p99, Some(250));
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("b.two").add(2);
        reg.counter("a.one").add(1);
        reg.gauge("c.gauge").set(9);
        let text = reg.snapshot().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["a.one 1", "b.two 2", "c.gauge 9"]);
    }
}
