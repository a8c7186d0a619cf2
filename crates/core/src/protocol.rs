//! The dynamic fault-tolerant link protocol.
//!
//! [`FaultTolerantProtocol`] implements the simulator's
//! [`ErrorControl`] extension point with the paper's full machinery:
//!
//! * **Fault injection** — every hop draws a timing-error event from the
//!   VARIUS-style model, parameterized by the *upstream* router's
//!   temperature, link utilization, and process-variation factor, and by
//!   whether its current operation mode relaxes timing (mode 3).
//! * **Link SECDED** — when the upstream router's mode enables ECC, the
//!   128-bit payload is genuinely encoded into two Hamming(72,64)
//!   codewords, the sampled bit flips are applied to codeword bits, and
//!   the decode outcome drives delivery/correction/rejection. Three or
//!   more flips can mis-correct, producing honest silent corruption.
//! * **Raw links** — with ECC disabled (mode 0), flips land directly on
//!   payload bits and ride to the destination.
//! * **End-to-end CRC** — ejection verifies every flit's CRC-32; a
//!   failure requests a full-packet source retransmission.

use crate::modes::OperationMode;
use noc_coding::crc::Crc32;
use noc_coding::hamming::{DecodeOutcome, Secded64};
use noc_fault::injector::{ErrorThreshold, FaultInjector};
use noc_fault::timing::TimingErrorModel;
use noc_fault::variation::VariationMap;
use noc_sim::error_control::{EjectOutcome, ErrorControl, HopOutcome, TransferKind};
use noc_sim::flit::Flit;
use noc_sim::stats::EventCounters;
use noc_sim::topology::{LinkId, Topo};

/// The paper's fault-tolerant protocol with per-router operation modes.
///
/// # Example
///
/// ```
/// use noc_fault::timing::TimingErrorModel;
/// use noc_fault::variation::VariationMap;
/// use noc_sim::topology::Mesh;
/// use rlnoc_core::modes::OperationMode;
/// use rlnoc_core::protocol::FaultTolerantProtocol;
///
/// let mesh = Mesh::new(8, 8);
/// let mut protocol = FaultTolerantProtocol::new(
///     mesh,
///     TimingErrorModel::default(),
///     VariationMap::uniform(8, 8),
///     42,
/// );
/// protocol.set_all_modes(OperationMode::Mode1);
/// assert!(protocol.modes().iter().all(|&m| m == OperationMode::Mode1));
/// ```
#[derive(Debug, Clone)]
pub struct FaultTolerantProtocol {
    mesh: Topo,
    modes: Vec<OperationMode>,
    timing: TimingErrorModel,
    variation: VariationMap,
    injector: FaultInjector,
    temperatures: Vec<f64>,
    utilizations: Vec<f64>,
    crc: Crc32,
    // Per-epoch caches: temperature, utilization, variation, and mode
    // change at most once per control epoch, so the VARIUS `exp()` is
    // evaluated on the epoch boundary and every per-flit hop does a
    // table load. Invalidated only by `set_temperatures`,
    // `set_utilizations`, `set_mode`, and `set_all_modes`.
    /// Cached [`link_error_probability`](Self::link_error_probability).
    link_p: Vec<f64>,
    /// Cached [`raw_error_probability`](Self::raw_error_probability).
    raw_p: Vec<f64>,
    /// `link_p` precompiled into integer Bernoulli thresholds.
    thresholds: Vec<ErrorThreshold>,
}

impl FaultTolerantProtocol {
    /// Creates the protocol with every router in mode 0 (the paper's
    /// initialization), 50 °C everywhere, and idle links.
    pub fn new(
        mesh: impl Into<Topo>,
        timing: TimingErrorModel,
        variation: VariationMap,
        seed: u64,
    ) -> Self {
        let mesh = mesh.into();
        let n = mesh.num_nodes();
        assert_eq!(
            variation.factors().len(),
            n,
            "variation map does not match mesh"
        );
        let mut protocol = Self {
            mesh,
            modes: vec![OperationMode::Mode0; n],
            timing,
            variation,
            injector: FaultInjector::new(seed),
            temperatures: vec![50.0; n],
            utilizations: vec![0.0; n],
            crc: Crc32::new(),
            link_p: vec![0.0; n],
            raw_p: vec![0.0; n],
            thresholds: vec![ErrorThreshold::default(); n],
        };
        protocol.refresh_all();
        protocol
    }

    /// A protocol whose fault model never errs — for calibration and
    /// simulator testing.
    pub fn fault_free(mesh: impl Into<Topo>, seed: u64) -> Self {
        let mesh = mesh.into();
        let timing = TimingErrorModel::new(noc_fault::timing::TimingErrorParams {
            p_ref: 0.0,
            ..Default::default()
        });
        let (w, h) = (mesh.width(), mesh.height());
        Self::new(mesh, timing, VariationMap::uniform(w, h), seed)
    }

    /// The topology this protocol serves.
    pub fn mesh(&self) -> Topo {
        self.mesh
    }

    /// Per-router operation modes.
    pub fn modes(&self) -> &[OperationMode] {
        &self.modes
    }

    /// Recomputes the cached probabilities/threshold for one router.
    ///
    /// This is the *only* place the VARIUS model is evaluated, so the
    /// cached values are bitwise-identical to a fresh
    /// `flit_error_probability` call with the current inputs.
    fn refresh_node(&mut self, node: usize) {
        let link = self.timing.flit_error_probability(
            self.temperatures[node],
            self.utilizations[node],
            self.variation.factor(node),
            self.modes[node].relaxed_timing(),
        );
        self.link_p[node] = link;
        self.raw_p[node] = self.timing.flit_error_probability(
            self.temperatures[node],
            self.utilizations[node],
            self.variation.factor(node),
            false,
        );
        self.thresholds[node] = ErrorThreshold::from_probability(link);
    }

    fn refresh_all(&mut self) {
        for node in 0..self.modes.len() {
            self.refresh_node(node);
        }
    }

    /// Sets router `node`'s operation mode (effective for flits that
    /// start a hop after this call).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_mode(&mut self, node: usize, mode: OperationMode) {
        self.modes[node] = mode;
        self.refresh_node(node);
    }

    /// Sets every router to `mode` (the static CRC / ARQ+ECC baselines).
    pub fn set_all_modes(&mut self, mode: OperationMode) {
        self.modes.fill(mode);
        self.refresh_all();
    }

    /// Updates per-router temperatures (°C) from the thermal model.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_temperatures(&mut self, temps: &[f64]) {
        assert_eq!(temps.len(), self.temperatures.len(), "length mismatch");
        self.temperatures.copy_from_slice(temps);
        self.refresh_all();
    }

    /// Updates per-router mean output-link utilizations (flits/cycle).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_utilizations(&mut self, utils: &[f64]) {
        assert_eq!(utils.len(), self.utilizations.len(), "length mismatch");
        self.utilizations.copy_from_slice(utils);
        self.refresh_all();
    }

    /// The current per-flit error probability on router `node`'s output
    /// links (what a VARIUS oracle would report) — also the supervised
    /// label used to train the decision-tree baseline. Served from the
    /// per-epoch cache (refreshed by the temperature / utilization /
    /// mode setters).
    pub fn link_error_probability(&self, node: usize) -> f64 {
        self.link_p[node]
    }

    /// Like [`link_error_probability`](Self::link_error_probability) but
    /// ignoring the mode's timing relaxation — the *raw* error level the
    /// controller must react to. Served from the per-epoch cache.
    pub fn raw_error_probability(&self, node: usize) -> f64 {
        self.raw_p[node]
    }

    /// All cached link error probabilities, indexed by router.
    pub fn link_error_probabilities(&self) -> &[f64] {
        &self.link_p
    }

    /// All cached raw error probabilities, indexed by router — the
    /// oracle-rate table the decision-tree label path reads per epoch.
    pub fn raw_error_probabilities(&self) -> &[f64] {
        &self.raw_p
    }

    /// Total fault events injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injector.faults_injected()
    }
}

impl ErrorControl for FaultTolerantProtocol {
    fn hop_transfer(
        &mut self,
        link: LinkId,
        flit: &mut Flit,
        _cycle: u64,
        _kind: TransferKind,
        protected: bool,
        counters: &mut EventCounters,
    ) -> HopOutcome {
        let src = link.src.index();
        let flips = self
            .injector
            .sample_flips_at(&self.timing, self.thresholds[src]);

        // `protected` is the send-time ECC state — a flit launched before
        // a mode switch keeps the protection it was encoded with.
        if !protected {
            // Raw link: corruption rides through to the destination CRC.
            if flips > 0 {
                let (bits, n) = self.injector.pick_bits_fixed(flips, 128);
                flit.flip_payload_bits(&bits[..n]);
            }
            return HopOutcome::Delivered;
        }

        counters.ecc_encodes += 1;
        counters.ecc_decodes += 1;
        if flips == 0 {
            return HopOutcome::Delivered;
        }
        // Two Hamming(72,64) codewords protect the 128-bit payload; the
        // sampled flips land on codeword bits (data or check bits alike).
        let mut words = [
            Secded64::encode(flit.payload[0]),
            Secded64::encode(flit.payload[1]),
        ];
        let (bits, n) = self
            .injector
            .pick_bits_fixed(flips, 2 * Secded64::CODE_BITS);
        for &bit in &bits[..n] {
            let (w, b) = (
                (bit / Secded64::CODE_BITS) as usize,
                bit % Secded64::CODE_BITS,
            );
            words[w] = words[w].with_bit_flipped(b);
        }
        let mut corrected = false;
        let mut decoded = [0u64; 2];
        for (i, cw) in words.iter().enumerate() {
            match cw.decode() {
                DecodeOutcome::Clean { data } => decoded[i] = data,
                DecodeOutcome::Corrected { data, .. } => {
                    decoded[i] = data;
                    corrected = true;
                }
                DecodeOutcome::DoubleError => return HopOutcome::Reject,
            }
        }
        // Note: ≥3 flips in one codeword can mis-correct — `decoded` then
        // differs from the original payload and the corruption is carried
        // forward honestly (the destination CRC is the next line of
        // defense).
        flit.payload = decoded;
        if corrected {
            HopOutcome::DeliveredCorrected
        } else {
            HopOutcome::Delivered
        }
    }

    fn tx_delay(&self, link: LinkId) -> u32 {
        self.modes[link.src.index()].tx_delay()
    }

    fn pipeline_latency(&self, link: LinkId) -> u32 {
        self.modes[link.src.index()].pipeline_latency()
    }

    fn pre_retransmit(&self, link: LinkId) -> bool {
        self.modes[link.src.index()].pre_retransmit()
    }

    fn hop_arq(&self, link: LinkId) -> bool {
        self.modes[link.src.index()].ecc_enabled()
    }

    fn eject_check(
        &mut self,
        flits: &[Flit],
        _cycle: u64,
        _counters: &mut EventCounters,
    ) -> EjectOutcome {
        if flits.iter().all(|f| f.crc_ok(&self.crc)) {
            EjectOutcome::Accept
        } else {
            EjectOutcome::RequestRetransmit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::flit::{Packet, PacketClass, PacketId};
    use noc_sim::topology::{Direction, Mesh, NodeId};

    fn test_flit(seed: u64) -> Flit {
        Packet {
            id: PacketId(seed),
            src: NodeId(0),
            dst: NodeId(63),
            num_flits: 1,
            class: PacketClass::Data,
            injected_at: 0,
            payload_seed: seed,
        }
        .make_flit(0, 0, &Crc32::new())
    }

    fn hot_protocol(seed: u64) -> FaultTolerantProtocol {
        let mesh = Mesh::new(8, 8);
        let mut p = FaultTolerantProtocol::new(
            mesh,
            TimingErrorModel::default(),
            VariationMap::uniform(8, 8),
            seed,
        );
        // Very hot: high error probability for statistical tests.
        p.set_temperatures(&[100.0; 64]);
        p.set_utilizations(&[0.3; 64]);
        p
    }

    fn link() -> LinkId {
        LinkId {
            src: NodeId(0),
            dir: Direction::East,
        }
    }

    #[test]
    fn fault_free_protocol_never_corrupts() {
        let mut p = FaultTolerantProtocol::fault_free(Mesh::new(4, 4), 1);
        let mut counters = EventCounters::default();
        for i in 0..500u64 {
            let mut f = test_flit(i);
            let before = f;
            let out = p.hop_transfer(
                link(),
                &mut f,
                0,
                TransferKind::Original,
                true,
                &mut counters,
            );
            assert_eq!(out, HopOutcome::Delivered);
            assert_eq!(f, before);
        }
        assert_eq!(p.faults_injected(), 0);
    }

    #[test]
    fn mode0_corrupts_payload_on_error() {
        let mut p = hot_protocol(3);
        let mut counters = EventCounters::default();
        let mut corrupted = 0;
        for i in 0..2000u64 {
            let mut f = test_flit(i);
            let before = f;
            let out = p.hop_transfer(
                link(),
                &mut f,
                0,
                TransferKind::Original,
                false,
                &mut counters,
            );
            assert_eq!(out, HopOutcome::Delivered, "unprotected links never reject");
            if f.payload != before.payload {
                corrupted += 1;
                assert!(!f.crc_ok(&Crc32::new()), "CRC must catch the corruption");
            }
        }
        assert!(
            corrupted > 10,
            "expected corruption at 100 °C, got {corrupted}"
        );
        assert_eq!(counters.ecc_encodes, 0, "no ECC work in mode 0");
    }

    #[test]
    fn mode1_corrects_singles_and_rejects_doubles() {
        let mut p = hot_protocol(4);
        p.set_all_modes(OperationMode::Mode1);
        let mut counters = EventCounters::default();
        let (mut corrected, mut rejected, mut clean, mut miscorrected) = (0u64, 0u64, 0u64, 0u64);
        for i in 0..5000u64 {
            let mut f = test_flit(i);
            let before = f;
            match p.hop_transfer(
                link(),
                &mut f,
                0,
                TransferKind::Original,
                true,
                &mut counters,
            ) {
                HopOutcome::Delivered => {
                    clean += 1;
                }
                HopOutcome::DeliveredCorrected => {
                    corrected += 1;
                    // ≥3 flips in one codeword can mis-correct; the
                    // destination CRC is the backstop. Single flips (the
                    // common case) must restore the payload exactly.
                    if f.payload != before.payload {
                        miscorrected += 1;
                        assert!(!f.crc_ok(&Crc32::new()), "CRC must catch miscorrection");
                    }
                }
                HopOutcome::Reject => rejected += 1,
            }
        }
        assert!(clean > 0 && corrected > 0 && rejected > 0);
        assert!(
            miscorrected * 10 < corrected,
            "miscorrections ({miscorrected}) must be rare vs corrections ({corrected})"
        );
        // Single-bit flips dominate the flip distribution (85/12/3).
        assert!(
            corrected > rejected,
            "corrected {corrected} vs rejected {rejected}"
        );
        assert_eq!(counters.ecc_encodes, 5000);
        assert_eq!(counters.ecc_decodes, 5000);
    }

    #[test]
    fn mode3_suppresses_errors() {
        let mut p = hot_protocol(5);
        p.set_all_modes(OperationMode::Mode3);
        let mut counters = EventCounters::default();
        for i in 0..3000u64 {
            let mut f = test_flit(i);
            let out = p.hop_transfer(
                link(),
                &mut f,
                0,
                TransferKind::Original,
                true,
                &mut counters,
            );
            assert_ne!(out, HopOutcome::Reject, "relaxed timing ≈ no errors");
        }
        assert_eq!(p.faults_injected(), 0);
    }

    #[test]
    fn mode_flags_map_to_link_behaviour() {
        let mut p = hot_protocol(6);
        let l = link();
        p.set_mode(0, OperationMode::Mode0);
        assert!(!p.hop_arq(l) && !p.pre_retransmit(l) && p.tx_delay(l) == 0);
        p.set_mode(0, OperationMode::Mode1);
        assert!(p.hop_arq(l) && !p.pre_retransmit(l));
        p.set_mode(0, OperationMode::Mode2);
        assert!(p.hop_arq(l) && p.pre_retransmit(l));
        p.set_mode(0, OperationMode::Mode3);
        assert!(p.hop_arq(l) && p.tx_delay(l) == 2);
    }

    #[test]
    fn error_probability_tracks_temperature() {
        let mut p = hot_protocol(7);
        let hot = p.raw_error_probability(0);
        p.set_temperatures(&[55.0; 64]);
        let cool = p.raw_error_probability(0);
        assert!(hot > 20.0 * cool);
    }

    #[test]
    fn relaxation_lowers_effective_probability() {
        let mut p = hot_protocol(8);
        p.set_mode(0, OperationMode::Mode3);
        assert!(p.link_error_probability(0) < p.raw_error_probability(0) * 1e-3);
    }

    #[test]
    fn eject_check_accepts_clean_and_rejects_corrupt() {
        let mut p = hot_protocol(9);
        let mut counters = EventCounters::default();
        let clean = vec![test_flit(1), test_flit(2)];
        assert_eq!(
            p.eject_check(&clean, 0, &mut counters),
            EjectOutcome::Accept
        );
        let mut bad = clean.clone();
        bad[1].flip_payload_bit(7);
        assert_eq!(
            p.eject_check(&bad, 0, &mut counters),
            EjectOutcome::RequestRetransmit
        );
    }

    #[test]
    fn per_router_modes_are_independent() {
        let mut p = hot_protocol(10);
        p.set_mode(0, OperationMode::Mode3);
        p.set_mode(1, OperationMode::Mode0);
        let l0 = LinkId {
            src: NodeId(0),
            dir: Direction::East,
        };
        let l1 = LinkId {
            src: NodeId(1),
            dir: Direction::East,
        };
        assert_eq!(p.tx_delay(l0), 2);
        assert_eq!(p.tx_delay(l1), 0);
        assert!(p.hop_arq(l0));
        assert!(!p.hop_arq(l1));
    }
}
