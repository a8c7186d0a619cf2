//! Per-router per-epoch time series and per-run summaries.
//!
//! The epoch series is a bounded ring buffer: when full, the oldest
//! records are dropped (and counted), so long campaigns cannot exhaust
//! memory. Records are plain `Copy` structs; label resolution happens
//! only at export time.

use std::collections::VecDeque;
use std::time::Instant;

/// Default ring-buffer capacity: 64 routers × 4096 epochs.
pub const DEFAULT_EPOCH_CAPACITY: usize = 262_144;

/// Handle to a run registered with [`crate::Telemetry::begin_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunId(pub(crate) u32);

impl RunId {
    /// Sentinel returned by disabled telemetry; recording against it is
    /// a no-op.
    pub const DISABLED: RunId = RunId(u32::MAX);
}

/// Which phase of an experiment an epoch record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Offline pretraining epochs.
    Pretrain,
    /// Warmup epochs before measurement starts.
    Warmup,
    /// Measured epochs (including the trailing drain).
    #[default]
    Measure,
}

impl Phase {
    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Pretrain => "pretrain",
            Phase::Warmup => "warmup",
            Phase::Measure => "measure",
        }
    }
}

/// One router's state at the end of one control epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Run this record belongs to.
    pub run: RunId,
    /// Experiment phase the epoch executed in.
    pub phase: Phase,
    /// Control-epoch index within the run.
    pub epoch: u64,
    /// Router (node) index.
    pub router: u16,
    /// Output-link utilization observed over the epoch, in [0, 1].
    pub utilization: f64,
    /// Output NACK rate observed over the epoch, in [0, 1].
    pub nack_rate: f64,
    /// Router temperature at the epoch boundary, degrees Celsius.
    pub temperature_c: f64,
    /// Operation mode chosen for the next epoch (discriminant index).
    pub mode: u8,
    /// Reward delivered to the router's agent this epoch.
    pub reward: f64,
    /// Agent exploration rate at decision time.
    pub epsilon: f64,
    /// Magnitude of the agent's last TD update to the Q-table.
    pub max_q_delta: f64,
}

/// Bounded ring buffer of [`EpochRecord`]s.
#[derive(Debug)]
pub struct EpochSeries {
    records: VecDeque<EpochRecord>,
    capacity: usize,
    dropped: u64,
}

impl EpochSeries {
    /// Creates a series bounded at `capacity` records (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends a record, evicting (and counting) the oldest when full.
    pub fn push(&mut self, record: EpochRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the series holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &EpochRecord> {
        self.records.iter()
    }
}

impl Default for EpochSeries {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_EPOCH_CAPACITY)
    }
}

/// Completed-run summary produced by [`crate::Telemetry::finish_run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Label the run was registered under.
    pub label: String,
    /// Wall-clock duration of the run, seconds.
    pub wall_seconds: f64,
    /// Simulated cycles executed by the run.
    pub cycles: u64,
    /// Simulation throughput, cycles per wall-clock second.
    pub cycles_per_sec: f64,
}

/// Book-keeping for one registered run.
#[derive(Debug)]
pub(crate) struct RunEntry {
    pub(crate) label: String,
    pub(crate) started: Instant,
    pub(crate) summary: Option<RunSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64, router: u16) -> EpochRecord {
        EpochRecord {
            run: RunId(0),
            phase: Phase::Measure,
            epoch,
            router,
            utilization: 0.5,
            nack_rate: 0.01,
            temperature_c: 47.0,
            mode: 1,
            reward: 2.5,
            epsilon: 0.1,
            max_q_delta: 0.03,
        }
    }

    #[test]
    fn ring_buffer_keeps_newest_and_counts_drops() {
        let mut series = EpochSeries::with_capacity(3);
        for e in 0..5 {
            series.push(record(e, 0));
        }
        assert_eq!(series.len(), 3);
        assert_eq!(series.dropped(), 2);
        let epochs: Vec<u64> = series.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4]);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut series = EpochSeries::with_capacity(0);
        series.push(record(0, 0));
        series.push(record(1, 0));
        assert_eq!(series.len(), 1);
        assert_eq!(series.dropped(), 1);
        assert_eq!(series.iter().next().unwrap().epoch, 1);
    }

    #[test]
    fn default_capacity_covers_paper_mesh() {
        let series = EpochSeries::default();
        assert!(series.is_empty());
        assert_eq!(DEFAULT_EPOCH_CAPACITY, 64 * 4096);
        assert_eq!(series.capacity, DEFAULT_EPOCH_CAPACITY);
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::Pretrain.as_str(), "pretrain");
        assert_eq!(Phase::Warmup.as_str(), "warmup");
        assert_eq!(Phase::Measure.as_str(), "measure");
    }
}
