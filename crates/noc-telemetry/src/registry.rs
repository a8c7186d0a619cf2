//! Named instrument registry: counters, gauges, and log-bucket histograms.
//!
//! Instruments are resolved once by name and then shared as `Arc`s, so the
//! hot path never touches the registry lock — a counter increment is a
//! single relaxed atomic add, a gauge store a single atomic store.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic event counter. Cloning shares the underlying cell; a
/// default-constructed counter is a no-op (disabled telemetry).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` to the counter. No-op when disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one. No-op when disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Whether this handle is wired to a live cell.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Last-value gauge holding an `f64` (stored as its bit pattern in an
/// `AtomicU64`). A default-constructed gauge is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Stores `v` as the gauge's current value. No-op when disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }

    /// Adds `delta` (may be negative) to the gauge's current value with a
    /// compare-and-swap loop, so concurrent adders never lose updates —
    /// the contract level/occupancy gauges (e.g. the runner's queue
    /// depth) need. No-op when disabled.
    pub fn add(&self, delta: f64) {
        let Some(cell) = &self.0 else { return };
        let mut current = cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

/// Number of log2 buckets: values are classified by bit length, so a
/// `u64` sample falls in bucket `64 - leading_zeros` (0 for the value 0).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Shared histogram storage: fixed log2 buckets plus count and sum.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn record(&self, v: u64) {
        self.record_weighted(v, 1);
    }

    /// Records `v` as `w` samples: `w` is added to `v`'s bucket and to
    /// the count, `v·w` (saturating) to the sum. A value measured on one
    /// occasion in `w` thus stands for the occasions that were skipped.
    #[inline]
    pub(crate) fn record_weighted(&self, v: u64, w: u64) {
        let bucket = (64 - v.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(w, Ordering::Relaxed);
        self.count.fetch_add(w, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(w), Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let buckets = (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_lower_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum,
            buckets,
        }
    }
}

/// Smallest value that lands in bucket `i`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Log2-bucket histogram handle. A default-constructed histogram is a
/// no-op (disabled telemetry).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one sample. No-op when disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.record(v);
        }
    }

    /// Point-in-time snapshot (empty when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |c| c.snapshot())
    }

    /// Whether this handle is wired to live storage.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Immutable view of a histogram's state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Registry of named instruments. Same name → same underlying cell, so
/// independently resolved handles aggregate together.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    timers: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (creating on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap();
        let cell = map.entry(name.to_string()).or_default();
        Counter(Some(Arc::clone(cell)))
    }

    /// Resolves (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap();
        let cell = map.entry(name.to_string()).or_default();
        Gauge(Some(Arc::clone(cell)))
    }

    /// Resolves (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().unwrap();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCore::new()));
        Histogram(Some(Arc::clone(cell)))
    }

    /// Resolves (creating on first use) the timer histogram named `name`.
    /// Timers share the histogram representation but record nanoseconds
    /// and export under a distinct record type.
    pub(crate) fn timer_core(&self, name: &str) -> Arc<HistogramCore> {
        let mut map = self.timers.lock().unwrap();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCore::new()));
        Arc::clone(cell)
    }

    /// Snapshot of all counters as `(name, value)`, name-ascending.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Snapshot of all gauges as `(name, value)`, name-ascending.
    pub fn gauge_snapshot(&self) -> Vec<(String, f64)> {
        self.gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect()
    }

    /// Snapshot of all histograms, name-ascending.
    pub fn histogram_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Snapshot of all timers (values are nanoseconds), name-ascending.
    pub fn timer_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.timers
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_a_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("sim.cycles");
        let b = reg.counter("sim.cycles");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.counter_snapshot(), vec![("sim.cycles".into(), 4)]);
    }

    #[test]
    fn disabled_instruments_are_inert() {
        let c = Counter::default();
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(!c.is_enabled());
        let g = Gauge::default();
        g.set(1.5);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::default();
        h.record(7);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn gauge_stores_last_value() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("thermal.max_c");
        g.set(71.25);
        g.set(-3.5);
        assert_eq!(g.get(), -3.5);
        let snap = reg.gauge_snapshot();
        assert_eq!(snap, vec![("thermal.max_c".into(), -3.5)]);
    }

    #[test]
    fn gauge_add_accumulates_and_survives_contention() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("runner.queue_depth");
        g.add(5.0);
        g.add(-2.0);
        assert_eq!(g.get(), 3.0);
        // Disabled gauges stay inert.
        let d = Gauge::default();
        d.add(4.0);
        assert_eq!(d.get(), 0.0);
        // Concurrent adders must not lose increments.
        let g2 = g.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        g2.add(1.0);
                    }
                });
            }
        });
        assert_eq!(g.get(), 4_003.0);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        // 0 → bucket 0; 1 → bucket 1 (lower bound 1); 2,3 → bucket 2
        // (lower bound 2); 4..=7 → bucket 3 (lower bound 4).
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.sum, 28);
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (2, 2), (4, 4)]);
        assert!((snap.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_record_counts_as_that_many_samples() {
        let reg = MetricsRegistry::new();
        let core = reg.timer_core("span");
        core.record_weighted(5, 16);
        core.record(2);
        let snap = core.snapshot();
        assert_eq!(snap.count, 17);
        assert_eq!(snap.sum, 5 * 16 + 2);
        assert_eq!(snap.buckets, vec![(2, 1), (4, 16)]);
    }

    #[test]
    fn histogram_handles_extreme_values() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("big");
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(1u64 << 63, 1)]);
    }

    #[test]
    fn bucket_lower_bounds_are_powers_of_two() {
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(2), 2);
        assert_eq!(bucket_lower_bound(11), 1024);
        assert_eq!(bucket_lower_bound(64), 1u64 << 63);
    }
}
