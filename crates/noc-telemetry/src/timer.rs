//! Scoped wall-clock timers for hot-path spans.
//!
//! A [`TimerHandle`] is resolved once per span name; starting it returns
//! a [`ScopedTimer`] guard that records elapsed nanoseconds into a
//! log-bucket histogram on drop. When telemetry is disabled the handle
//! holds no histogram and `start()` never reads the clock — the entire
//! span costs one branch.
//!
//! A hot path whose spans interleave — several named stages per item,
//! item after item — chains [`Laps`] instead: one clock read per span
//! boundary, each stage's total recorded once at the end. Code generic
//! over [`LapClock`] and handed `()` reads no clock at all.

use std::sync::Arc;
use std::time::Instant;

use crate::registry::{HistogramCore, HistogramSnapshot};

/// Reusable handle for timing a named span. Default-constructed handles
/// (disabled telemetry) are inert.
#[derive(Debug, Clone, Default)]
pub struct TimerHandle(pub(crate) Option<Arc<HistogramCore>>);

impl TimerHandle {
    /// Begins a span. The returned guard records on drop; when the
    /// handle is disabled no clock is read and nothing is recorded.
    /// The guard owns its histogram reference, so it does not extend
    /// any borrow of the handle (or the struct holding it).
    #[inline]
    pub fn start(&self) -> ScopedTimer {
        ScopedTimer {
            started: self
                .0
                .as_ref()
                .map(|core| (Arc::clone(core), Instant::now())),
        }
    }

    /// Times `f`, recording its duration, and returns its result.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let _span = self.start();
        f()
    }

    /// Records a span of `ns` nanoseconds measured on one occasion in
    /// `weight`, as `weight` spans of that length, so the histogram's
    /// count and sum estimate every occasion. No-op when disabled.
    #[inline]
    pub fn record_weighted(&self, ns: u64, weight: u64) {
        if let Some(core) = &self.0 {
            core.record_weighted(ns, weight);
        }
    }

    /// Whether this handle is backed by a live histogram. A hot path that
    /// stamps its own boundaries checks this before reading the clock, so
    /// disabled telemetry never pays for a stamp.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Point-in-time snapshot of recorded span durations (nanoseconds).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |c| c.snapshot())
    }
}

/// Receives the boundaries of consecutive spans, each charged to one of
/// a fixed set of timers by index. [`Laps`] stamps them; `()` ignores
/// them and compiles to nothing.
pub trait LapClock {
    /// Ends the current span, charging it to timer `timer`.
    fn lap(&mut self, timer: usize);
}

impl LapClock for () {
    #[inline(always)]
    fn lap(&mut self, _: usize) {}
}

/// Chained stamps over `N` timers: every nanosecond between the first
/// stamp and the last lands in exactly one timer, less what each lap's
/// own bookkeeping costs. That cost is measured as an empty lap when the
/// chain starts, so a timer's total does not grow with the number of
/// laps charged to it.
#[derive(Debug)]
pub struct Laps<const N: usize> {
    last: Instant,
    lap_ns: i64,
    ns: [i64; N],
}

impl<const N: usize> Laps<N> {
    /// Starts the chain; the first span begins as this returns.
    pub fn start() -> Self {
        let mut laps = Self {
            last: Instant::now(),
            lap_ns: 0,
            ns: [0; N],
        };
        // Two empty laps: the first warms the clock path, the second is
        // what a lap costs.
        laps.lap(0);
        laps.ns[0] = 0;
        laps.lap(0);
        laps.lap_ns = std::mem::take(&mut laps.ns[0]);
        laps
    }

    /// Records each timer's total as `weight` spans of that length (see
    /// [`TimerHandle::record_weighted`]); a total the lap-cost correction
    /// took below zero records as zero.
    pub fn record(self, timers: &[TimerHandle; N], weight: u64) {
        for (timer, ns) in timers.iter().zip(self.ns) {
            timer.record_weighted(ns.max(0) as u64, weight);
        }
    }
}

impl<const N: usize> LapClock for Laps<N> {
    #[inline]
    fn lap(&mut self, timer: usize) {
        let now = Instant::now();
        self.ns[timer] += (now - self.last).as_nanos() as i64 - self.lap_ns;
        self.last = now;
    }
}

/// Drop guard measuring one span.
#[derive(Debug)]
pub struct ScopedTimer {
    started: Option<(Arc<HistogramCore>, Instant)>,
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some((core, t0)) = self.started.take() {
            let ns = t0.elapsed().as_nanos();
            core.record(u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn scoped_timer_records_on_drop() {
        let reg = MetricsRegistry::new();
        let handle = TimerHandle(Some(reg.timer_core("span")));
        {
            let _t = handle.start();
            std::hint::black_box(0u64);
        }
        {
            let _t = handle.start();
        }
        let snap = handle.snapshot();
        assert_eq!(snap.count, 2);
    }

    #[test]
    fn time_passes_through_result() {
        let reg = MetricsRegistry::new();
        let handle = TimerHandle(Some(reg.timer_core("span")));
        let out = handle.time(|| 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(handle.snapshot().count, 1);
    }

    #[test]
    fn laps_charge_each_span_to_its_timer_with_the_weight() {
        let reg = MetricsRegistry::new();
        let timers = [
            TimerHandle(Some(reg.timer_core("slow"))),
            TimerHandle(Some(reg.timer_core("fast"))),
        ];
        let mut laps = Laps::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        laps.lap(0);
        laps.lap(1);
        laps.lap(1);
        laps.record(&timers, 16);
        let (slow, fast) = (timers[0].snapshot(), timers[1].snapshot());
        assert_eq!((slow.count, fast.count), (16, 16));
        assert!(slow.sum >= 16 * 1_900_000, "{slow:?}");
        assert!(fast.sum < slow.sum / 4, "two empty laps: {fast:?}");
    }

    #[test]
    fn disabled_timer_records_nothing() {
        let handle = TimerHandle::default();
        {
            let _t = handle.start();
        }
        let out = handle.time(|| 7);
        assert_eq!(out, 7);
        assert_eq!(handle.snapshot(), HistogramSnapshot::default());
    }
}
