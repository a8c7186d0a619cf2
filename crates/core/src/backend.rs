//! The simulation-backend seam used by the verification harness.
//!
//! [`Experiment`](crate::experiment::Experiment) normally drives the
//! optimized [`Network<FaultTolerantProtocol>`] kernel. To let an
//! independently written reference simulator reuse the *entire*
//! experiment pipeline (pre-training curriculum, control epochs, energy
//! and thermal accounting, report assembly), the runner is generic over
//! this trait: everything the control plane ever asks of the data plane,
//! and nothing else.
//!
//! The contract is strictly behavioral — a conforming backend fed the
//! same seeds and setter calls must produce the same statistics streams.
//! `rlnoc-verify` exploits this by running the optimized backend and a
//! deliberately slow reference backend through
//! [`Experiment::run_with_backend`](crate::experiment::Experiment::run_with_backend)
//! and diffing the resulting
//! [`ExperimentReport`](crate::experiment::ExperimentReport)s field by
//! field.

use crate::modes::OperationMode;
use crate::protocol::FaultTolerantProtocol;
use noc_fault::timing::TimingErrorModel;
use noc_fault::variation::VariationMap;
use noc_sim::config::NocConfig;
use noc_sim::network::Network;
use noc_sim::stats::{EventCounters, NetworkStats, RouterEpochStats};
use noc_sim::topology::{HardFaultEntry, NodeId};
use rlnoc_telemetry::Telemetry;

/// A cycle-accurate data-plane implementation the experiment runner can
/// drive. See the [module docs](self) for the behavioral contract.
pub trait SimBackend {
    /// Constructs the backend. `protocol_seed` and `network_seed` are
    /// the exact values the default backend feeds to
    /// [`FaultTolerantProtocol::new`] and [`Network::new`]; a reference
    /// backend must consume them identically so fault and payload RNG
    /// streams line up draw for draw.
    fn build(
        noc: NocConfig,
        timing: TimingErrorModel,
        variation: VariationMap,
        protocol_seed: u64,
        network_seed: u64,
    ) -> Self;

    /// Installs a telemetry handle. Observation-only: enabled vs
    /// disabled telemetry must not change any report field.
    fn set_telemetry(&mut self, telemetry: &Telemetry);

    /// Installs a permanent hard-fault schedule before the first step.
    /// Each entry must take effect at the start of its cycle's `step`,
    /// before event processing; an empty schedule must leave the
    /// backend exactly on its zero-fault path.
    fn set_hard_faults(&mut self, entries: Vec<HardFaultEntry>);

    /// Current simulation cycle.
    fn cycle(&self) -> u64;

    /// Offers a data packet from `src` to `dst`.
    fn offer(&mut self, src: NodeId, dst: NodeId);

    /// Advances one clock cycle.
    fn step(&mut self);

    /// `true` when no packet or flit remains anywhere in the system.
    fn is_quiescent(&self) -> bool;

    /// Cumulative network statistics.
    fn stats(&self) -> &NetworkStats;

    /// Clears cumulative statistics and energy counters.
    fn reset_stats(&mut self);

    /// Per-router statistics for the current control epoch.
    ///
    /// Callers that need exact `cycles` values must call
    /// [`finish_epoch`](Self::finish_epoch) first: backends may defer
    /// per-cycle bookkeeping that is uniform across routers (the
    /// optimized kernel batches the per-router `cycles` bump) until
    /// flushed at an epoch boundary.
    fn epoch_stats(&self) -> &[RouterEpochStats];

    /// Flushes any deferred per-cycle epoch bookkeeping so
    /// [`epoch_stats`](Self::epoch_stats) is exact. Backends that
    /// sample eagerly need not override the default no-op.
    fn finish_epoch(&mut self) {}

    /// Resets per-router epoch statistics.
    fn reset_epoch_stats(&mut self);

    /// Cumulative per-router energy event counters.
    fn counters(&self) -> &[EventCounters];

    /// Per-router raw (mode-independent) error probabilities — the
    /// supervised labels for the decision-tree baseline. Called once per
    /// pre-training epoch, so an uncached per-node recompute is fine.
    fn raw_error_probabilities(&self) -> Vec<f64>;

    /// Sets router `node`'s operation mode.
    fn set_mode(&mut self, node: usize, mode: OperationMode);

    /// Sets every router's operation mode.
    fn set_all_modes(&mut self, mode: OperationMode);

    /// Updates per-router temperatures (°C) from the thermal model.
    fn set_temperatures(&mut self, temps: &[f64]);

    /// Updates per-router mean output-link utilizations (flits/cycle).
    fn set_utilizations(&mut self, utils: &[f64]);
}

/// The production backend: the optimized kernel behind every figure.
impl SimBackend for Network<FaultTolerantProtocol> {
    fn build(
        noc: NocConfig,
        timing: TimingErrorModel,
        variation: VariationMap,
        protocol_seed: u64,
        network_seed: u64,
    ) -> Self {
        let protocol = FaultTolerantProtocol::new(noc.mesh, timing, variation, protocol_seed);
        Network::new(noc, protocol, network_seed)
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        Network::set_telemetry(self, telemetry);
    }

    fn set_hard_faults(&mut self, entries: Vec<HardFaultEntry>) {
        Network::set_hard_faults(self, entries);
    }

    fn cycle(&self) -> u64 {
        Network::cycle(self)
    }

    fn offer(&mut self, src: NodeId, dst: NodeId) {
        Network::offer(self, src, dst);
    }

    fn step(&mut self) {
        Network::step(self);
    }

    fn is_quiescent(&self) -> bool {
        Network::is_quiescent(self)
    }

    fn stats(&self) -> &NetworkStats {
        Network::stats(self)
    }

    fn reset_stats(&mut self) {
        Network::reset_stats(self);
    }

    fn epoch_stats(&self) -> &[RouterEpochStats] {
        Network::epoch_stats_raw(self)
    }

    fn finish_epoch(&mut self) {
        Network::finish_epoch(self);
    }

    fn reset_epoch_stats(&mut self) {
        Network::reset_epoch_stats(self);
    }

    fn counters(&self) -> &[EventCounters] {
        Network::counters(self)
    }

    fn raw_error_probabilities(&self) -> Vec<f64> {
        self.protocol().raw_error_probabilities().to_vec()
    }

    fn set_mode(&mut self, node: usize, mode: OperationMode) {
        self.protocol_mut().set_mode(node, mode);
    }

    fn set_all_modes(&mut self, mode: OperationMode) {
        self.protocol_mut().set_all_modes(mode);
    }

    fn set_temperatures(&mut self, temps: &[f64]) {
        self.protocol_mut().set_temperatures(temps);
    }

    fn set_utilizations(&mut self, utils: &[f64]) {
        self.protocol_mut().set_utilizations(utils);
    }
}
