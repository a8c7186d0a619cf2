//! [`SimBackend`] implementation for the reference engine, plus the
//! deliberately broken backend used to prove the oracle has teeth.

use crate::refnet::RefNetwork;
use crate::refproto::RefProtocol;
use noc_fault::timing::TimingErrorModel;
use noc_fault::variation::VariationMap;
use noc_sim::config::NocConfig;
use noc_sim::network::Network;
use noc_sim::stats::{EventCounters, NetworkStats, RouterEpochStats};
use noc_sim::topology::{HardFaultEntry, NodeId};
use rlnoc_core::backend::SimBackend;
use rlnoc_core::modes::OperationMode;
use rlnoc_core::protocol::FaultTolerantProtocol;
use rlnoc_telemetry::Telemetry;

/// The reference data plane: [`RefNetwork`] over [`RefProtocol`],
/// plugged into the production experiment pipeline via
/// [`Experiment::run_with_backend`](rlnoc_core::experiment::Experiment::run_with_backend).
#[derive(Debug)]
pub struct ReferenceBackend {
    net: RefNetwork<RefProtocol>,
}

impl SimBackend for ReferenceBackend {
    fn build(
        noc: NocConfig,
        timing: TimingErrorModel,
        variation: VariationMap,
        protocol_seed: u64,
        network_seed: u64,
    ) -> Self {
        let protocol = RefProtocol::new(noc.mesh, timing, variation, protocol_seed);
        Self {
            net: RefNetwork::new(noc, protocol, network_seed),
        }
    }

    fn set_telemetry(&mut self, _telemetry: &Telemetry) {
        // Telemetry is observation-only by contract; the reference
        // engine simply observes nothing.
    }

    fn set_hard_faults(&mut self, entries: Vec<HardFaultEntry>) {
        self.net.set_hard_faults(entries);
    }

    fn cycle(&self) -> u64 {
        self.net.cycle()
    }

    fn offer(&mut self, src: NodeId, dst: NodeId) {
        self.net.offer(src, dst);
    }

    fn step(&mut self) {
        self.net.step();
    }

    fn is_quiescent(&self) -> bool {
        self.net.is_quiescent()
    }

    fn stats(&self) -> &NetworkStats {
        self.net.stats()
    }

    fn reset_stats(&mut self) {
        self.net.reset_stats();
    }

    fn epoch_stats(&self) -> &[RouterEpochStats] {
        self.net.epoch_stats()
    }

    fn reset_epoch_stats(&mut self) {
        self.net.reset_epoch_stats();
    }

    fn counters(&self) -> &[EventCounters] {
        self.net.counters()
    }

    fn raw_error_probabilities(&self) -> Vec<f64> {
        self.net.protocol().raw_error_probabilities()
    }

    fn set_mode(&mut self, node: usize, mode: OperationMode) {
        self.net.protocol_mut().set_mode(node, mode);
    }

    fn set_all_modes(&mut self, mode: OperationMode) {
        self.net.protocol_mut().set_all_modes(mode);
    }

    fn set_temperatures(&mut self, temps: &[f64]) {
        self.net.protocol_mut().set_temperatures(temps);
    }

    fn set_utilizations(&mut self, utils: &[f64]) {
        self.net.protocol_mut().set_utilizations(utils);
    }
}

/// A production backend with one planted bug: router 0's temperature
/// update is dropped, so its fault probability goes stale — the
/// stale-cache defect class the epoch-cached probability optimization
/// could plausibly introduce. Exists so tests can prove the
/// differential oracle detects a real (injected) divergence.
#[derive(Debug)]
pub struct StaleTemperatureBackend {
    net: Network<FaultTolerantProtocol>,
}

impl SimBackend for StaleTemperatureBackend {
    fn build(
        noc: NocConfig,
        timing: TimingErrorModel,
        variation: VariationMap,
        protocol_seed: u64,
        network_seed: u64,
    ) -> Self {
        Self {
            net: <Network<FaultTolerantProtocol> as SimBackend>::build(
                noc,
                timing,
                variation,
                protocol_seed,
                network_seed,
            ),
        }
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        SimBackend::set_telemetry(&mut self.net, telemetry);
    }

    fn set_hard_faults(&mut self, entries: Vec<HardFaultEntry>) {
        SimBackend::set_hard_faults(&mut self.net, entries);
    }

    fn cycle(&self) -> u64 {
        SimBackend::cycle(&self.net)
    }

    fn offer(&mut self, src: NodeId, dst: NodeId) {
        SimBackend::offer(&mut self.net, src, dst);
    }

    fn step(&mut self) {
        SimBackend::step(&mut self.net);
    }

    fn is_quiescent(&self) -> bool {
        SimBackend::is_quiescent(&self.net)
    }

    fn stats(&self) -> &NetworkStats {
        SimBackend::stats(&self.net)
    }

    fn reset_stats(&mut self) {
        SimBackend::reset_stats(&mut self.net);
    }

    fn epoch_stats(&self) -> &[RouterEpochStats] {
        SimBackend::epoch_stats(&self.net)
    }

    fn finish_epoch(&mut self) {
        SimBackend::finish_epoch(&mut self.net);
    }

    fn reset_epoch_stats(&mut self) {
        SimBackend::reset_epoch_stats(&mut self.net);
    }

    fn counters(&self) -> &[EventCounters] {
        SimBackend::counters(&self.net)
    }

    fn raw_error_probabilities(&self) -> Vec<f64> {
        SimBackend::raw_error_probabilities(&self.net)
    }

    fn set_mode(&mut self, node: usize, mode: OperationMode) {
        SimBackend::set_mode(&mut self.net, node, mode);
    }

    fn set_all_modes(&mut self, mode: OperationMode) {
        SimBackend::set_all_modes(&mut self.net, mode);
    }

    fn set_temperatures(&mut self, temps: &[f64]) {
        // The bug: node 0 keeps its construction-time temperature.
        let mut stale = temps.to_vec();
        stale[0] = 50.0;
        SimBackend::set_temperatures(&mut self.net, &stale);
    }

    fn set_utilizations(&mut self, utils: &[f64]) {
        SimBackend::set_utilizations(&mut self.net, utils);
    }
}
