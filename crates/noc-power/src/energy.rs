//! Energy accounting: event counters → joules, plus gateable static
//! power.

use crate::params::PowerParams;
use noc_sim::stats::EventCounters;
use serde::{Deserialize, Serialize};

/// Dynamic energy split by router component, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Input buffer read/write energy.
    pub buffers: f64,
    /// Crossbar traversal energy.
    pub crossbar: f64,
    /// SA + VA arbitration energy.
    pub arbitration: f64,
    /// Link traversal energy.
    pub links: f64,
    /// CRC + SECDED coding energy.
    pub coding: f64,
    /// ARQ energy: acknowledgements, retransmit-buffer writes.
    pub arq: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy.
    pub fn total(&self) -> f64 {
        self.buffers + self.crossbar + self.arbitration + self.links + self.coding + self.arq
    }
}

/// Which leakage-bearing components a router instantiates (and how many
/// of its ECC links are currently powered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticConfig {
    /// Number of ECC link codec pairs currently powered on (0..=4).
    pub ecc_links_enabled: u8,
    /// Router has the output retransmit buffers (any ARQ-capable design).
    pub has_retransmit_buffer: bool,
    /// Router has the Q-table SRAM + RL controller.
    pub has_q_table: bool,
    /// Router has the decision-tree logic.
    pub has_dt_logic: bool,
}

impl StaticConfig {
    /// The static CRC baseline router: no ECC, no ARQ, no learning logic.
    pub fn crc_router() -> Self {
        Self {
            ecc_links_enabled: 0,
            has_retransmit_buffer: false,
            has_q_table: false,
            has_dt_logic: false,
        }
    }

    /// The static ARQ+ECC router: all four link codecs always on.
    pub fn arq_router() -> Self {
        Self {
            ecc_links_enabled: 4,
            has_retransmit_buffer: true,
            has_q_table: false,
            has_dt_logic: false,
        }
    }

    /// The decision-tree router: ECC hardware plus DT logic.
    pub fn dt_router() -> Self {
        Self {
            ecc_links_enabled: 4,
            has_retransmit_buffer: true,
            has_q_table: false,
            has_dt_logic: true,
        }
    }

    /// The proposed RL router with all ECC links currently enabled.
    pub fn rl_router() -> Self {
        Self {
            ecc_links_enabled: 4,
            has_retransmit_buffer: true,
            has_q_table: true,
            has_dt_logic: false,
        }
    }
}

/// Converts simulator event counts into energy, ORION-style.
///
/// # Example
///
/// ```
/// use noc_power::energy::EnergyModel;
/// use noc_sim::stats::EventCounters;
///
/// let model = EnergyModel::default();
/// let mut c = EventCounters::default();
/// c.buffer_writes = 4;
/// c.buffer_reads = 4;
/// c.sa_grants = 4;
/// c.crossbar_traversals = 4;
/// c.link_traversals[1] = 4;
/// c.va_allocations = 1;
/// // One 4-flit packet over one hop ≈ 4 × 13.3 pJ.
/// let e = model.dynamic_energy(&c);
/// assert!((50e-12..60e-12).contains(&e));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    params: PowerParams,
}

impl EnergyModel {
    /// Creates a model from explicit parameters.
    pub fn new(params: PowerParams) -> Self {
        Self { params }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &PowerParams {
        &self.params
    }

    /// Dynamic energy (joules) for one router's event counts.
    pub fn dynamic_energy(&self, counters: &EventCounters) -> f64 {
        self.dynamic_breakdown(counters).total()
    }

    /// Component-wise dynamic energy for one router's event counts.
    pub fn dynamic_breakdown(&self, c: &EventCounters) -> EnergyBreakdown {
        let p = &self.params;
        EnergyBreakdown {
            buffers: c.buffer_writes as f64 * p.buffer_write_energy
                + c.buffer_reads as f64 * p.buffer_read_energy,
            crossbar: c.crossbar_traversals as f64 * p.crossbar_energy,
            arbitration: c.sa_grants as f64 * p.sa_grant_energy
                + c.va_allocations as f64 * p.va_energy,
            links: c.total_link_traversals() as f64 * p.link_energy,
            coding: c.crc_encodes as f64 * p.crc_encode_energy
                + c.crc_checks as f64 * p.crc_check_energy
                + c.ecc_encodes as f64 * p.ecc_encode_energy
                + c.ecc_decodes as f64 * p.ecc_decode_energy,
            arq: c.ack_signals as f64 * p.ack_energy
                + c.retransmit_buffer_writes as f64 * p.retransmit_buffer_energy
                + c.retransmit_sends as f64 * p.buffer_read_energy,
        }
    }

    /// Control-policy dynamic energy for one epoch: `lookups` Q-table (or
    /// DT) reads and `updates` TD updates.
    pub fn control_energy(&self, lookups: u64, updates: u64, dt: bool) -> f64 {
        let p = &self.params;
        if dt {
            lookups as f64 * p.dt_inference_energy
        } else {
            lookups as f64 * p.q_lookup_energy + updates as f64 * p.q_update_energy
        }
    }

    /// Static (leakage) power in watts for a router with the given
    /// component configuration.
    pub fn static_power(&self, config: &StaticConfig) -> f64 {
        let p = &self.params;
        let mut w = p.router_leakage + p.crc_leakage;
        w += f64::from(config.ecc_links_enabled.min(4)) * p.ecc_link_leakage;
        if config.has_retransmit_buffer {
            w += p.retransmit_buffer_leakage;
        }
        if config.has_q_table {
            w += p.q_table_leakage;
        }
        if config.has_dt_logic {
            w += p.dt_leakage;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters_one_packet_one_hop() -> EventCounters {
        let mut c = EventCounters {
            buffer_writes: 4,
            buffer_reads: 4,
            sa_grants: 4,
            crossbar_traversals: 4,
            va_allocations: 1,
            ..EventCounters::default()
        };
        c.link_traversals[1] = 4;
        c
    }

    #[test]
    fn empty_counters_cost_nothing() {
        let m = EnergyModel::default();
        assert_eq!(m.dynamic_energy(&EventCounters::default()), 0.0);
    }

    #[test]
    fn one_packet_hop_matches_anchor() {
        let m = EnergyModel::default();
        let e = m.dynamic_energy(&counters_one_packet_one_hop());
        let expect = 4.0 * PowerParams::BASELINE_FLIT_ENERGY;
        assert!(
            (e - expect).abs() / expect < 0.02,
            "energy {e:.3e} vs {expect:.3e}"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = EnergyModel::default();
        let mut c = counters_one_packet_one_hop();
        c.ecc_encodes = 4;
        c.ecc_decodes = 4;
        c.ack_signals = 4;
        c.crc_encodes = 4;
        c.crc_checks = 4;
        c.retransmit_buffer_writes = 4;
        c.retransmit_sends = 1;
        let b = m.dynamic_breakdown(&c);
        assert!((b.total() - m.dynamic_energy(&c)).abs() < 1e-18);
        assert!(b.coding > 0.0 && b.arq > 0.0 && b.links > 0.0);
    }

    #[test]
    fn ecc_traffic_costs_extra() {
        let m = EnergyModel::default();
        let plain = counters_one_packet_one_hop();
        let mut ecc = plain.clone();
        ecc.ecc_encodes = 4;
        ecc.ecc_decodes = 4;
        ecc.retransmit_buffer_writes = 4;
        assert!(m.dynamic_energy(&ecc) > m.dynamic_energy(&plain));
    }

    #[test]
    fn static_power_ordering_across_variants() {
        let m = EnergyModel::default();
        let crc = m.static_power(&StaticConfig::crc_router());
        let arq = m.static_power(&StaticConfig::arq_router());
        let dt = m.static_power(&StaticConfig::dt_router());
        let rl = m.static_power(&StaticConfig::rl_router());
        assert!(crc < arq, "ECC hardware leaks");
        assert!(arq < dt, "DT adds logic");
        assert!(arq < rl, "Q-table adds SRAM");
        // Gating ECC links recovers leakage.
        let gated = m.static_power(&StaticConfig {
            ecc_links_enabled: 0,
            ..StaticConfig::rl_router()
        });
        assert!(gated < rl);
    }

    #[test]
    fn control_energy_rl_vs_dt() {
        let m = EnergyModel::default();
        let rl = m.control_energy(10, 10, false);
        let dt = m.control_energy(10, 0, true);
        assert!(rl > 0.0 && dt > 0.0);
        assert!(rl > dt, "RL pays for TD updates; DT is inference-only");
    }

    #[test]
    fn ecc_links_clamped_to_four() {
        let m = EnergyModel::default();
        let four = m.static_power(&StaticConfig {
            ecc_links_enabled: 4,
            ..StaticConfig::arq_router()
        });
        let many = m.static_power(&StaticConfig {
            ecc_links_enabled: 9,
            ..StaticConfig::arq_router()
        });
        assert_eq!(four, many);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    prop_compose! {
        fn arb_counters()(
            a in 0u64..10_000, b in 0u64..10_000, c in 0u64..10_000,
            d in 0u64..10_000, e in 0u64..10_000,
        ) -> EventCounters {
            EventCounters {
                buffer_writes: a,
                buffer_reads: b,
                crossbar_traversals: c,
                sa_grants: d,
                link_traversals: [e, e / 2, e / 3, e / 4, e / 5, 0, 0],
                ..Default::default()
            }
        }
    }

    proptest! {
        #[test]
        fn energy_is_monotone_in_events(base in arb_counters()) {
            let m = EnergyModel::default();
            let e0 = m.dynamic_energy(&base);
            let mut more = base.clone();
            more.buffer_writes += 1;
            prop_assert!(m.dynamic_energy(&more) > e0);
        }

        #[test]
        fn energy_is_additive(a in arb_counters(), b in arb_counters()) {
            let m = EnergyModel::default();
            let mut sum = a.clone();
            sum.merge(&b);
            let lhs = m.dynamic_energy(&sum);
            let rhs = m.dynamic_energy(&a) + m.dynamic_energy(&b);
            prop_assert!((lhs - rhs).abs() < 1e-15 * lhs.max(1e-30));
        }
    }
}
