//! Statistics: latency distributions, network-wide counters, per-router
//! epoch features, and per-router energy event counters.
//!
//! Three kinds of accounting coexist:
//!
//! * [`NetworkStats`] — cumulative network-wide results (packets, latency,
//!   retransmissions) used for the paper's figures.
//! * [`RouterEpochStats`] — per-router counters reset every control epoch
//!   (1 000 cycles in the paper); these are the raw material of the RL
//!   agent's state features and reward.
//! * [`EventCounters`] — per-router micro-architectural event counts
//!   (buffer accesses, crossbar traversals, link traversals, ECC/CRC
//!   operations…) consumed by the ORION-style power model.

use crate::topology::{MAX_PORTS, NUM_PORTS};
use serde::{Deserialize, Serialize};

/// Streaming latency statistics with a fixed-bucket histogram.
///
/// # Example
///
/// ```
/// use noc_sim::stats::LatencyStats;
///
/// let mut lat = LatencyStats::new();
/// lat.record(10);
/// lat.record(30);
/// assert_eq!(lat.count(), 2);
/// assert_eq!(lat.mean(), 20.0);
/// assert_eq!(lat.max(), 30);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyStats {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Bucket `i` counts samples in `[8i, 8(i+1))`; the last bucket is
    /// open-ended.
    histogram: Vec<u64>,
}

/// Histogram bucket width in cycles.
pub const LATENCY_BUCKET_WIDTH: u64 = 8;
/// Number of histogram buckets (last one open-ended).
pub const LATENCY_BUCKETS: usize = 128;

impl LatencyStats {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            histogram: vec![0; LATENCY_BUCKETS],
        }
    }

    /// Records one latency sample (in cycles).
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
        let bucket = ((latency / LATENCY_BUCKET_WIDTH) as usize).min(LATENCY_BUCKETS - 1);
        self.histogram[bucket] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (0.0..=1.0) from the histogram; the returned
    /// value is the upper edge of the bucket containing the percentile.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.histogram.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (i as u64 + 1) * LATENCY_BUCKET_WIDTH;
            }
        }
        self.max
    }

    /// The raw histogram buckets.
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Cumulative network-wide results.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Data packets offered by the workload (first attempts only).
    pub packets_injected: u64,
    /// Data packets accepted intact at their destination.
    pub packets_delivered: u64,
    /// Data flits accepted at destinations (including retransmissions).
    pub flits_delivered: u64,
    /// Packets that failed the end-to-end CRC check at ejection.
    pub packets_failed_crc: u64,
    /// Full-packet source retransmissions triggered by CRC failures.
    pub packet_retransmissions: u64,
    /// Hop-level flit retransmissions triggered by NACKs.
    pub flit_retransmissions: u64,
    /// Pre-retransmission copies that were actually used (original flit
    /// rejected, copy accepted).
    pub pre_retransmit_hits: u64,
    /// Hop-level NACK signals raised.
    pub hop_nacks: u64,
    /// Flits corrected in place by link SECDED decoders.
    pub ecc_corrections: u64,
    /// Control (retransmit-request) packets injected.
    pub control_packets: u64,
    /// Packets accepted although their payload was silently corrupted
    /// (multi-bit escapes past all checks); should be ~0.
    pub silent_corruptions: u64,
    /// End-to-end packet latency (injection to full ejection, across
    /// retransmissions).
    pub latency: LatencyStats,
    /// Cycle of the most recent packet delivery (makespan probe).
    pub last_delivery_cycle: u64,
    /// Hard-fault events applied (links/routers that died permanently).
    pub hard_fault_events: u64,
    /// Fault-adaptive route-table recomputations (one per fault batch).
    pub reroute_events: u64,
    /// Ordered live node pairs with no route on the surviving topology
    /// (a gauge: the value after the most recent reroute).
    pub unreachable_pairs: u64,
    /// Data packets lost to hard faults: a flit died with a link/router,
    /// the source or destination died, or the destination became
    /// unreachable mid-flight. Counted once per packet.
    pub packets_lost_hard_fault: u64,
    /// Data packets refused at injection because source and destination
    /// were already mutually unreachable.
    pub packets_refused_unreachable: u64,
}

impl NetworkStats {
    /// Total retransmission traffic: hop-level flit retransmissions plus
    /// full-packet source retransmissions expressed in packets.
    ///
    /// This is the quantity plotted in the paper's Fig. 6.
    pub fn retransmitted_packets_equivalent(&self, flits_per_packet: u8) -> f64 {
        self.packet_retransmissions as f64
            + self.flit_retransmissions as f64 / f64::from(flits_per_packet.max(1))
    }

    /// Fraction of injected packets delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.packets_injected == 0 {
            0.0
        } else {
            self.packets_delivered as f64 / self.packets_injected as f64
        }
    }
}

/// Per-router, per-epoch counters: the observable state of the RL agent.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RouterEpochStats {
    /// Cycles elapsed in the epoch.
    pub cycles: u64,
    /// Flits received per input port (trailing entries unused on
    /// topologies with fewer than [`MAX_PORTS`] ports).
    pub flits_in: [u64; MAX_PORTS],
    /// Flits sent per output port.
    pub flits_out: [u64; MAX_PORTS],
    /// Sum over cycles of the number of occupied input VCs.
    pub occupied_vc_cycles: u64,
    /// NACKs received (this router's transmissions were rejected
    /// downstream).
    pub nacks_in: u64,
    /// NACKs sent (this router rejected received flits).
    pub nacks_out: u64,
    /// Sum of end-to-end latencies of packets whose path traversed this
    /// router.
    pub latency_sum: u64,
    /// Number of such packets.
    pub latency_count: u64,
    /// Committed local work: first-attempt flit injections plus accepted
    /// ejections. Unlike `flits_in[Local]`, retransmission attempts do
    /// not count — this drives the core-activity power proxy (cores do
    /// not re-execute when the NoC retries).
    pub core_activity_flits: u64,
}

impl RouterEpochStats {
    /// Mean input-port utilization in flits/cycle.
    ///
    /// Normalized by the 2D-mesh port count ([`NUM_PORTS`] = 5)
    /// regardless of topology so the RL feature scale — and every
    /// 2D-mesh golden fixture — is unchanged by the topology zoo;
    /// higher-radix routers can legitimately exceed 1.0.
    pub fn mean_input_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let total: u64 = self.flits_in.iter().sum();
        total as f64 / (self.cycles as f64 * NUM_PORTS as f64)
    }

    /// Mean output-port utilization in flits/cycle.
    pub fn mean_output_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let total: u64 = self.flits_out.iter().sum();
        total as f64 / (self.cycles as f64 * NUM_PORTS as f64)
    }

    /// Mean number of occupied input VCs per cycle.
    pub fn mean_buffer_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.occupied_vc_cycles as f64 / self.cycles as f64
        }
    }

    /// NACKs received per transmitted flit (input NACK rate feature).
    pub fn input_nack_rate(&self) -> f64 {
        let sent: u64 = self.flits_out.iter().sum();
        if sent == 0 {
            0.0
        } else {
            self.nacks_in as f64 / sent as f64
        }
    }

    /// NACKs issued per received flit (output NACK rate feature).
    pub fn output_nack_rate(&self) -> f64 {
        let recv: u64 = self.flits_in.iter().sum();
        if recv == 0 {
            0.0
        } else {
            self.nacks_out as f64 / recv as f64
        }
    }

    /// Mean end-to-end latency of packets that traversed this router, or
    /// `fallback` when no packet finished this epoch.
    pub fn mean_traversal_latency(&self, fallback: f64) -> f64 {
        if self.latency_count == 0 {
            fallback
        } else {
            self.latency_sum as f64 / self.latency_count as f64
        }
    }

    /// Clears all counters for the next epoch.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Per-router micro-architectural event counts for the power model.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounters {
    /// Flits written into input VC buffers.
    pub buffer_writes: u64,
    /// Flits read out of input VC buffers.
    pub buffer_reads: u64,
    /// Crossbar traversals.
    pub crossbar_traversals: u64,
    /// Switch-allocation grants.
    pub sa_grants: u64,
    /// Virtual-channel allocations.
    pub va_allocations: u64,
    /// Flit link traversals per output port (pre-retransmission copies
    /// included).
    pub link_traversals: [u64; MAX_PORTS],
    /// CRC encode operations (source injection).
    pub crc_encodes: u64,
    /// CRC check operations (destination ejection).
    pub crc_checks: u64,
    /// SECDED encode operations (ECC-enabled link transmissions).
    pub ecc_encodes: u64,
    /// SECDED decode operations (ECC-enabled link receptions).
    pub ecc_decodes: u64,
    /// ACK/NACK side-band signals sent.
    pub ack_signals: u64,
    /// Flits re-sent from the ARQ retransmit buffer.
    pub retransmit_sends: u64,
    /// Retransmit-buffer writes (copies stored on ECC links).
    pub retransmit_buffer_writes: u64,
}

impl EventCounters {
    /// Total link traversals over all ports.
    pub fn total_link_traversals(&self) -> u64 {
        self.link_traversals.iter().sum()
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &EventCounters) {
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.crossbar_traversals += other.crossbar_traversals;
        self.sa_grants += other.sa_grants;
        self.va_allocations += other.va_allocations;
        for (a, b) in self.link_traversals.iter_mut().zip(&other.link_traversals) {
            *a += b;
        }
        self.crc_encodes += other.crc_encodes;
        self.crc_checks += other.crc_checks;
        self.ecc_encodes += other.ecc_encodes;
        self.ecc_decodes += other.ecc_decodes;
        self.ack_signals += other.ack_signals;
        self.retransmit_sends += other.retransmit_sends;
        self.retransmit_buffer_writes += other.retransmit_buffer_writes;
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_basic() {
        let mut s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0);
        s.record(5);
        s.record(15);
        s.record(100);
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 120);
        assert_eq!(s.mean(), 40.0);
        assert_eq!(s.min(), 5);
        assert_eq!(s.max(), 100);
    }

    #[test]
    fn latency_percentile_monotone() {
        let mut s = LatencyStats::new();
        for i in 0..100 {
            s.record(i);
        }
        assert!(s.percentile(0.5) <= s.percentile(0.9));
        assert!(s.percentile(0.9) <= s.percentile(1.0).max(s.max()));
    }

    #[test]
    fn latency_histogram_open_ended_bucket() {
        let mut s = LatencyStats::new();
        s.record(1_000_000);
        assert_eq!(s.histogram()[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn epoch_stats_utilizations() {
        let e = RouterEpochStats {
            cycles: 100,
            flits_in: [10, 20, 0, 0, 20, 0, 0],
            flits_out: [5, 5, 5, 5, 5, 0, 0],
            ..RouterEpochStats::default()
        };
        assert!((e.mean_input_utilization() - 0.1).abs() < 1e-12);
        assert!((e.mean_output_utilization() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn epoch_stats_nack_rates() {
        let e = RouterEpochStats {
            flits_out: [10, 10, 10, 10, 10, 0, 0],
            flits_in: [25, 25, 0, 0, 0, 0, 0],
            nacks_in: 5,
            nacks_out: 10,
            ..RouterEpochStats::default()
        };
        assert!((e.input_nack_rate() - 0.1).abs() < 1e-12);
        assert!((e.output_nack_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn epoch_stats_zero_cycles_safe() {
        let e = RouterEpochStats::default();
        assert_eq!(e.mean_input_utilization(), 0.0);
        assert_eq!(e.mean_buffer_occupancy(), 0.0);
        assert_eq!(e.input_nack_rate(), 0.0);
        assert_eq!(e.mean_traversal_latency(42.0), 42.0);
    }

    #[test]
    fn epoch_stats_reset_clears() {
        let mut e = RouterEpochStats {
            cycles: 10,
            nacks_in: 3,
            ..Default::default()
        };
        e.reset();
        assert_eq!(e, RouterEpochStats::default());
    }

    #[test]
    fn network_stats_retransmission_equivalent() {
        let stats = NetworkStats {
            packet_retransmissions: 10,
            flit_retransmissions: 8,
            ..Default::default()
        };
        assert!((stats.retransmitted_packets_equivalent(4) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn network_stats_delivery_ratio() {
        let stats = NetworkStats {
            packets_injected: 100,
            packets_delivered: 97,
            ..Default::default()
        };
        assert!((stats.delivery_ratio() - 0.97).abs() < 1e-12);
        assert_eq!(NetworkStats::default().delivery_ratio(), 0.0);
    }

    #[test]
    fn event_counters_merge_and_total() {
        let mut a = EventCounters {
            buffer_writes: 1,
            link_traversals: [1, 2, 3, 4, 5, 0, 0],
            ..Default::default()
        };
        let b = EventCounters {
            buffer_writes: 2,
            ecc_encodes: 7,
            link_traversals: [5, 4, 3, 2, 1, 0, 0],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.buffer_writes, 3);
        assert_eq!(a.ecc_encodes, 7);
        assert_eq!(a.total_link_traversals(), 30);
        a.reset();
        assert_eq!(a, EventCounters::default());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn mean_within_min_max(samples in proptest::collection::vec(0u64..100_000, 1..100)) {
            let mut s = LatencyStats::new();
            for &v in &samples {
                s.record(v);
            }
            prop_assert!(s.mean() >= s.min() as f64);
            prop_assert!(s.mean() <= s.max() as f64);
            prop_assert_eq!(s.count(), samples.len() as u64);
        }

        #[test]
        fn histogram_total_equals_count(samples in proptest::collection::vec(0u64..5_000, 0..200)) {
            let mut s = LatencyStats::new();
            for &v in &samples {
                s.record(v);
            }
            let total: u64 = s.histogram().iter().sum();
            prop_assert_eq!(total, s.count());
        }
    }
}
