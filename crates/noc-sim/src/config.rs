//! Simulator configuration.
//!
//! [`NocConfig::default`] reproduces Table II of the paper: an 8×8 2D mesh
//! with X-Y routing, 4-stage routers, 4 virtual channels per port, and
//! 4-flit packets of 128 bits per flit at 1.0 V / 2.0 GHz.

use crate::topology::Topo;
use serde::{Deserialize, Serialize};

/// Static parameters of a simulated network.
///
/// Construct with [`NocConfig::builder`] or use [`NocConfig::default`] for
/// the paper's Table II configuration.
///
/// # Example
///
/// ```
/// use noc_sim::config::NocConfig;
///
/// let config = NocConfig::builder()
///     .mesh(4, 4)
///     .vcs_per_port(2)
///     .vc_depth(8)
///     .build();
/// assert_eq!(config.mesh.num_nodes(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Network topology (default 8×8 2D mesh). The field keeps its
    /// historical name; it carries any member of the topology zoo.
    pub mesh: Topo,
    /// Virtual channels per input port (default 4).
    pub vcs_per_port: u8,
    /// Buffer depth per virtual channel, in flits (default 4).
    pub vc_depth: u8,
    /// Flits per data packet (default 4, 128 bits each).
    pub flits_per_packet: u8,
    /// Link traversal latency in cycles (default 1).
    pub link_latency: u32,
    /// One-way latency of the side-band ACK/NACK wires (default 1).
    pub ack_latency: u32,
    /// Capacity of each output port's ARQ retransmission buffer, in flits
    /// (default 8 — the paper's added "output flit buffers").
    pub retransmit_buffer_depth: usize,
    /// Supply voltage in volts (default 1.0; feeds the power model).
    pub voltage: f64,
    /// Clock frequency in Hz (default 2.0 GHz).
    pub frequency: f64,
}

impl NocConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> NocConfigBuilder {
        NocConfigBuilder {
            config: Self::default(),
        }
    }

    /// Clock period in seconds.
    pub fn clock_period(&self) -> f64 {
        1.0 / self.frequency
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vcs_per_port == 0 {
            return Err(ConfigError("vcs_per_port must be positive".into()));
        }
        if self.vcs_per_port < self.mesh.min_vcs() {
            return Err(ConfigError(
                "vcs_per_port below the topology's deadlock-avoidance minimum \
                 (tori need at least 2 VCs for the date-line split)"
                    .into(),
            ));
        }
        // The router keeps one bit per input VC in a `u64` stage mask.
        let (ports, vcs) = (self.mesh.num_ports(), self.vcs_per_port);
        if ports * vcs as usize > 64 {
            return Err(ConfigError(
                format!(
                    "{ports} ports x {vcs} vcs_per_port exceeds the 64 input VCs a router tracks"
                )
                .into(),
            ));
        }
        if self.vc_depth == 0 {
            return Err(ConfigError("vc_depth must be positive".into()));
        }
        if self.flits_per_packet == 0 {
            return Err(ConfigError("flits_per_packet must be positive".into()));
        }
        if self.link_latency == 0 {
            return Err(ConfigError("link_latency must be positive".into()));
        }
        if self.retransmit_buffer_depth == 0 {
            return Err(ConfigError(
                "retransmit_buffer_depth must be positive".into(),
            ));
        }
        if self.voltage <= 0.0 || self.voltage.is_nan() {
            return Err(ConfigError("voltage must be positive".into()));
        }
        if self.frequency <= 0.0 || self.frequency.is_nan() {
            return Err(ConfigError("frequency must be positive".into()));
        }
        Ok(())
    }
}

impl Default for NocConfig {
    /// The paper's Table II parameters.
    fn default() -> Self {
        Self {
            mesh: Topo::mesh(8, 8),
            vcs_per_port: 4,
            vc_depth: 4,
            flits_per_packet: 4,
            link_latency: 1,
            ack_latency: 1,
            retransmit_buffer_depth: 8,
            voltage: 1.0,
            frequency: 2.0e9,
        }
    }
}

/// A configuration constraint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(std::borrow::Cow<'static, str>);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid NoC configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`NocConfig`].
#[derive(Debug, Clone)]
pub struct NocConfigBuilder {
    config: NocConfig,
}

impl NocConfigBuilder {
    /// Sets a `width × height` 2D mesh topology.
    pub fn mesh(mut self, width: u16, height: u16) -> Self {
        self.config.mesh = Topo::mesh(width, height);
        self
    }

    /// Sets the topology to any member of the zoo.
    pub fn topology(mut self, topo: impl Into<Topo>) -> Self {
        self.config.mesh = topo.into();
        self
    }

    /// Sets the number of virtual channels per port.
    pub fn vcs_per_port(mut self, vcs: u8) -> Self {
        self.config.vcs_per_port = vcs;
        self
    }

    /// Sets the per-VC buffer depth in flits.
    pub fn vc_depth(mut self, depth: u8) -> Self {
        self.config.vc_depth = depth;
        self
    }

    /// Sets the number of flits per data packet.
    pub fn flits_per_packet(mut self, flits: u8) -> Self {
        self.config.flits_per_packet = flits;
        self
    }

    /// Sets the link traversal latency in cycles.
    pub fn link_latency(mut self, cycles: u32) -> Self {
        self.config.link_latency = cycles;
        self
    }

    /// Sets the ACK/NACK side-band latency in cycles.
    pub fn ack_latency(mut self, cycles: u32) -> Self {
        self.config.ack_latency = cycles;
        self
    }

    /// Sets the ARQ retransmission buffer depth per output port.
    pub fn retransmit_buffer_depth(mut self, flits: usize) -> Self {
        self.config.retransmit_buffer_depth = flits;
        self
    }

    /// Sets the supply voltage in volts.
    pub fn voltage(mut self, volts: f64) -> Self {
        self.config.voltage = volts;
        self
    }

    /// Sets the clock frequency in Hz.
    pub fn frequency(mut self, hz: f64) -> Self {
        self.config.frequency = hz;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`NocConfig::validate`]).
    pub fn build(self) -> NocConfig {
        if let Err(e) = self.config.validate() {
            panic!("{e}");
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let c = NocConfig::default();
        assert_eq!(c.mesh.width(), 8);
        assert_eq!(c.mesh.height(), 8);
        assert_eq!(c.vcs_per_port, 4);
        assert_eq!(c.flits_per_packet, 4);
        assert_eq!(c.voltage, 1.0);
        assert_eq!(c.frequency, 2.0e9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn clock_period_inverse_of_frequency() {
        let c = NocConfig::default();
        assert!((c.clock_period() - 0.5e-9).abs() < 1e-18);
    }

    #[test]
    fn builder_overrides_fields() {
        let c = NocConfig::builder()
            .mesh(4, 2)
            .vcs_per_port(2)
            .vc_depth(8)
            .flits_per_packet(2)
            .link_latency(2)
            .ack_latency(3)
            .retransmit_buffer_depth(16)
            .voltage(0.9)
            .frequency(1.0e9)
            .build();
        assert_eq!(c.mesh.num_nodes(), 8);
        assert_eq!(c.vcs_per_port, 2);
        assert_eq!(c.vc_depth, 8);
        assert_eq!(c.flits_per_packet, 2);
        assert_eq!(c.link_latency, 2);
        assert_eq!(c.ack_latency, 3);
        assert_eq!(c.retransmit_buffer_depth, 16);
        assert_eq!(c.voltage, 0.9);
        assert_eq!(c.frequency, 1.0e9);
    }

    #[test]
    #[should_panic(expected = "vcs_per_port")]
    fn zero_vcs_panics() {
        let _ = NocConfig::builder().vcs_per_port(0).build();
    }

    #[test]
    fn more_than_64_input_vcs_is_rejected_naming_both_numbers() {
        // 5 ports x 12 VCs = 60 fits the stage masks; 13 does not.
        let fits = NocConfig {
            vcs_per_port: 12,
            ..NocConfig::default()
        };
        assert!(fits.validate().is_ok());
        let err = NocConfig {
            vcs_per_port: 13,
            ..fits
        }
        .validate()
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("5 ports") && err.contains("13 vcs_per_port"),
            "{err}"
        );
        // Seven ports with vertical links: 9 VCs fit, 10 do not.
        let stacked = NocConfig::builder()
            .topology(Topo::mesh3d(2, 2, 2))
            .vcs_per_port(9)
            .build();
        let err = NocConfig {
            vcs_per_port: 10,
            ..stacked
        }
        .validate()
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("7 ports") && err.contains("10 vcs_per_port"),
            "{err}"
        );
    }

    #[test]
    fn topology_builder_accepts_the_zoo() {
        let c = NocConfig::builder().topology(Topo::torus(16, 16)).build();
        assert_eq!(c.mesh, Topo::torus(16, 16));
        assert_eq!(c.mesh.num_nodes(), 256);
        let c = NocConfig::builder().topology(Topo::mesh3d(4, 4, 2)).build();
        assert_eq!(c.mesh.num_ports(), 7);
    }

    #[test]
    #[should_panic(expected = "deadlock-avoidance minimum")]
    fn torus_with_one_vc_panics() {
        let _ = NocConfig::builder()
            .topology(Topo::torus(4, 4))
            .vcs_per_port(1)
            .build();
    }

    #[test]
    fn mesh_with_one_vc_is_fine() {
        let c = NocConfig::builder().mesh(4, 4).vcs_per_port(1).build();
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_values() {
        let c = NocConfig {
            vc_depth: 0,
            ..NocConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NocConfig {
            voltage: -1.0,
            ..NocConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NocConfig {
            link_latency: 0,
            ..NocConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_error_displays() {
        let err = NocConfig {
            vc_depth: 0,
            ..NocConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("vc_depth"));
    }
}
