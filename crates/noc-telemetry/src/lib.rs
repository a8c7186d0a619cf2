//! `rlnoc-telemetry`: metrics, tracing, and export for the RL-NoC stack.
//!
//! The subsystem is built around one invariant: **disabled telemetry
//! costs a single branch per instrumentation site**. A [`Telemetry`]
//! handle is either empty (`disabled`) or an `Arc` to shared state
//! (`enabled`); every instrument resolved from a disabled handle is an
//! inert no-op — no clock reads, no atomics, no allocation.
//!
//! Components:
//!
//! - [`MetricsRegistry`] — named [`Counter`] / [`Gauge`] / [`Histogram`]
//!   instruments (histograms use fixed log2 buckets).
//! - [`EpochSeries`] — a bounded ring buffer of per-router per-epoch
//!   [`EpochRecord`]s (utilization, NACK rate, temperature, mode,
//!   reward, epsilon, TD delta).
//! - [`TimerHandle`] / [`ScopedTimer`] — drop-guard spans for hot paths
//!   (ARQ handling, TD updates); [`Laps`] — chained stamps for spans that
//!   interleave (the router pipeline stages).
//! - [`export`] — JSONL and CSV writers with a stable schema, plus
//!   per-run wall-clock / cycles-per-second summaries.
//!
//! Typical wiring: construct one `Telemetry`, clone it into the
//! simulator / controllers / runner (clones share state), then export
//! once at the end:
//!
//! ```
//! use rlnoc_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled();
//! let run = telemetry.begin_run("RL/uniform/seed1");
//! telemetry.counter("sim.cycles").add(1_000);
//! telemetry.finish_run(run, 1_000);
//! let mut out = Vec::new();
//! rlnoc_telemetry::export::write_jsonl(&telemetry, &mut out).unwrap();
//! assert!(!out.is_empty());
//! ```

pub mod export;
mod registry;
mod series;
mod timer;

pub use registry::{
    bucket_lower_bound, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    HISTOGRAM_BUCKETS,
};
pub use series::{EpochRecord, EpochSeries, Phase, RunId, RunSummary, DEFAULT_EPOCH_CAPACITY};
pub use timer::{LapClock, Laps, ScopedTimer, TimerHandle};

use std::sync::{Arc, Mutex};
use std::time::Instant;

use series::RunEntry;

#[derive(Debug)]
struct Inner {
    registry: MetricsRegistry,
    series: Mutex<EpochSeries>,
    runs: Mutex<Vec<RunEntry>>,
}

/// Cheap, cloneable telemetry handle. All clones share the same
/// registry, epoch series, and run table; a disabled handle makes every
/// operation a no-op behind one branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A handle where every operation is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An active handle with the default epoch-series capacity.
    pub fn enabled() -> Self {
        Self::with_epoch_capacity(DEFAULT_EPOCH_CAPACITY)
    }

    /// An active handle whose epoch series keeps at most `capacity`
    /// records (oldest evicted first).
    pub fn with_epoch_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                registry: MetricsRegistry::new(),
                series: Mutex::new(EpochSeries::with_capacity(capacity)),
                runs: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves the counter named `name` (inert when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .as_ref()
            .map_or_else(Counter::default, |i| i.registry.counter(name))
    }

    /// Resolves the gauge named `name` (inert when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .as_ref()
            .map_or_else(Gauge::default, |i| i.registry.gauge(name))
    }

    /// Resolves the histogram named `name` (inert when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .as_ref()
            .map_or_else(Histogram::default, |i| i.registry.histogram(name))
    }

    /// Resolves the span timer named `name` (inert when disabled).
    pub fn timer(&self, name: &str) -> TimerHandle {
        TimerHandle(self.inner.as_ref().map(|i| i.registry.timer_core(name)))
    }

    /// Appends one record to the epoch series. No-op when disabled.
    #[inline]
    pub fn record_epoch(&self, record: EpochRecord) {
        if let Some(inner) = &self.inner {
            inner.series.lock().unwrap().push(record);
        }
    }

    /// Number of epoch records currently buffered.
    pub fn epoch_len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.series.lock().unwrap().len())
    }

    /// Clones out the buffered epoch records, oldest-first.
    pub fn epoch_records(&self) -> Vec<EpochRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.series.lock().unwrap().iter().copied().collect()
        })
    }

    /// Registers a run and starts its wall clock. Returns
    /// [`RunId::DISABLED`] when telemetry is disabled.
    pub fn begin_run(&self, label: &str) -> RunId {
        let Some(inner) = &self.inner else {
            return RunId::DISABLED;
        };
        let mut runs = inner.runs.lock().unwrap();
        let id = RunId(u32::try_from(runs.len()).expect("run table overflow"));
        runs.push(RunEntry {
            label: label.to_string(),
            started: Instant::now(),
            summary: None,
        });
        id
    }

    /// Completes a run: captures wall-clock time and derives simulation
    /// throughput from `cycles`. No-op for [`RunId::DISABLED`] or an
    /// unknown id; finishing twice keeps the first summary.
    pub fn finish_run(&self, id: RunId, cycles: u64) {
        let Some(inner) = &self.inner else { return };
        if id == RunId::DISABLED {
            return;
        }
        let mut runs = inner.runs.lock().unwrap();
        let Some(state) = runs.get_mut(id.0 as usize) else {
            return;
        };
        if state.summary.is_some() {
            return;
        }
        let wall_seconds = state.started.elapsed().as_secs_f64();
        state.summary = Some(RunSummary {
            label: state.label.clone(),
            wall_seconds,
            cycles,
            cycles_per_sec: if wall_seconds > 0.0 {
                cycles as f64 / wall_seconds
            } else {
                0.0
            },
        });
    }

    /// Label a run was registered under (empty for unknown/disabled).
    pub fn run_label(&self, id: RunId) -> String {
        self.inner
            .as_ref()
            .and_then(|i| {
                i.runs
                    .lock()
                    .unwrap()
                    .get(id.0 as usize)
                    .map(|s| s.label.clone())
            })
            .unwrap_or_default()
    }

    /// Summaries of all completed runs, in registration order.
    pub fn run_summaries(&self) -> Vec<RunSummary> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.runs
                .lock()
                .unwrap()
                .iter()
                .filter_map(|s| s.summary.clone())
                .collect()
        })
    }

    /// Snapshot of all counters as `(name, value)`.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.registry.counter_snapshot())
    }

    /// Snapshot of all gauges as `(name, value)`.
    pub fn gauge_snapshot(&self) -> Vec<(String, f64)> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.registry.gauge_snapshot())
    }

    /// Consistent view of all exportable state, or `None` when
    /// disabled. Used by the [`export`] writers.
    pub(crate) fn export_view(&self) -> Option<ExportView> {
        let inner = self.inner.as_ref()?;
        let series = inner.series.lock().unwrap();
        let runs = inner.runs.lock().unwrap();
        Some(ExportView {
            counters: inner.registry.counter_snapshot(),
            gauges: inner.registry.gauge_snapshot(),
            histograms: inner.registry.histogram_snapshot(),
            timers: inner.registry.timer_snapshot(),
            records: series.iter().copied().collect(),
            dropped: series.dropped(),
            run_labels: runs.iter().map(|s| s.label.clone()).collect(),
            runs: runs.iter().filter_map(|s| s.summary.clone()).collect(),
        })
    }
}

/// Point-in-time copy of everything the exporters need.
pub(crate) struct ExportView {
    pub(crate) counters: Vec<(String, u64)>,
    pub(crate) gauges: Vec<(String, f64)>,
    pub(crate) histograms: Vec<(String, HistogramSnapshot)>,
    pub(crate) timers: Vec<(String, HistogramSnapshot)>,
    pub(crate) records: Vec<EpochRecord>,
    pub(crate) dropped: u64,
    pub(crate) run_labels: Vec<String>,
    pub(crate) runs: Vec<RunSummary>,
}

impl ExportView {
    pub(crate) fn run_label(&self, id: RunId) -> &str {
        self.run_labels
            .get(id.0 as usize)
            .map_or("", String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Telemetry::enabled();
        let b = a.clone();
        a.counter("x").add(2);
        b.counter("x").add(3);
        assert_eq!(a.counter("x").get(), 5);
    }

    #[test]
    fn disabled_handle_is_fully_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter("c").inc();
        t.gauge("g").set(1.0);
        t.histogram("h").record(1);
        let run = t.begin_run("r");
        assert_eq!(run, RunId::DISABLED);
        t.finish_run(run, 100);
        t.record_epoch(EpochRecord {
            run,
            phase: Phase::Measure,
            epoch: 0,
            router: 0,
            utilization: 0.0,
            nack_rate: 0.0,
            temperature_c: 0.0,
            mode: 0,
            reward: 0.0,
            epsilon: 0.0,
            max_q_delta: 0.0,
        });
        assert_eq!(t.epoch_len(), 0);
        assert!(t.run_summaries().is_empty());
        assert!(t.counter_snapshot().is_empty());
    }

    #[test]
    fn run_lifecycle_produces_summary() {
        let t = Telemetry::enabled();
        let run = t.begin_run("Static/transpose/seed9");
        t.finish_run(run, 2_000_000);
        let summaries = t.run_summaries();
        assert_eq!(summaries.len(), 1);
        let s = &summaries[0];
        assert_eq!(s.label, "Static/transpose/seed9");
        assert_eq!(s.cycles, 2_000_000);
        assert!(s.wall_seconds >= 0.0);
        assert!(s.cycles_per_sec >= 0.0);
        // Finishing again must not overwrite the first summary.
        t.finish_run(run, 1);
        assert_eq!(t.run_summaries()[0].cycles, 2_000_000);
    }

    #[test]
    fn epoch_capacity_is_honoured() {
        let t = Telemetry::with_epoch_capacity(2);
        let run = t.begin_run("r");
        for epoch in 0..4 {
            t.record_epoch(EpochRecord {
                run,
                phase: Phase::Measure,
                epoch,
                router: 0,
                utilization: 0.0,
                nack_rate: 0.0,
                temperature_c: 0.0,
                mode: 0,
                reward: 0.0,
                epsilon: 0.0,
                max_q_delta: 0.0,
            });
        }
        assert_eq!(t.epoch_len(), 2);
        let records = t.epoch_records();
        assert_eq!(records[0].epoch, 2);
        assert_eq!(records[1].epoch, 3);
    }

    #[test]
    fn instruments_with_same_name_aggregate() {
        let t = Telemetry::enabled();
        let timer = t.timer("span");
        timer.time(|| ());
        t.timer("span").time(|| ());
        assert_eq!(t.timer("span").snapshot().count, 2);
    }
}
