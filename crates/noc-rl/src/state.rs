//! The RL state space: Table I's features and their discretization.
//!
//! The paper's Table I lists six per-router features. Features 1–5 are
//! observed per port; to keep the state-action table tabular (the paper's
//! own requirement that "Q-learning converges in feasible time") they are
//! aggregated across ports before discretization — see DESIGN.md for the
//! full argument.
//!
//! Discretization follows §IV-B: features 1–3 and 6 use five bins each,
//! features 4–5 (NACK rates) use four; bins are equal-width in linear
//! space for utilizations/temperature and in log space for NACK rates.
//! The observed ranges quoted by the paper fix the scales: temperature in
//! [50, 100] °C and link utilization up to 0.3 flits/cycle.

use serde::{Deserialize, Serialize};

/// The six observed features of one router (Table I), aggregated over
/// ports.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RouterFeatures {
    /// Mean number of occupied input VCs (0..=20 for a 5-port, 4-VC
    /// router).
    pub buffer_occupancy: f64,
    /// Mean input link utilization, flits/cycle (0..~0.3).
    pub input_utilization: f64,
    /// Mean output link utilization, flits/cycle.
    pub output_utilization: f64,
    /// NACKs received per transmitted flit.
    pub input_nack_rate: f64,
    /// NACKs issued per received flit.
    pub output_nack_rate: f64,
    /// Router temperature, °C (50..100 observed).
    pub temperature_c: f64,
    /// Local hard-fault degree: the fraction of this router's existing
    /// compass links that have permanently failed (1.0 if the router
    /// itself is dead). 0.0 on a healthy mesh — beyond the paper's
    /// Table I, so the default state space ignores it (one bin) and
    /// fault-aware policies opt in via
    /// [`StateSpace::with_fault_bins`].
    pub fault_degree: f64,
}

/// Maps [`RouterFeatures`] to a dense state index.
///
/// # Example
///
/// ```
/// use noc_rl::state::{RouterFeatures, StateSpace};
///
/// let space = StateSpace::paper_default();
/// assert_eq!(space.num_states(), 10_000);
/// let idle = space.discretize(&RouterFeatures::default());
/// assert!(idle < space.num_states());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateSpace {
    /// Bin counts per feature, in Table I order.
    bins: [usize; 6],
    /// Linear ranges for features 1–3 and 6: `(min, max)`.
    buffer_range: (f64, f64),
    util_range: (f64, f64),
    temp_range: (f64, f64),
    /// Log-space NACK-rate bin edges (shared by features 4–5): a rate
    /// below `nack_log_min` falls in bin 0; each decade above moves up a
    /// bin.
    nack_log_min: f64,
    /// Bin count for the local hard-fault degree, appended as the
    /// *last* (least-significant) index dimension so that `1` — the
    /// paper's fault-free default — leaves every state index and the
    /// total state count exactly as they were before the feature
    /// existed.
    fault_bins: usize,
}

impl StateSpace {
    /// The paper's discretization: bins {5,5,5,4,4,5}, utilization scaled
    /// to the observed 0.3 flits/cycle maximum, temperature bins of 10 °C
    /// over the observed operating range, NACK-rate decades starting at
    /// 10⁻⁴.
    ///
    /// The temperature edges are anchored at [45, 95] °C so that the
    /// mode-0/mode-1 cost crossover of the default calibration (~65 °C)
    /// falls on a bin boundary — with the crossover mid-bin, one bin
    /// would mix both regimes and the tabular policy could not separate
    /// them.
    pub fn paper_default() -> Self {
        Self {
            bins: [5, 5, 5, 4, 4, 5],
            buffer_range: (0.0, 20.0),
            util_range: (0.0, 0.3),
            temp_range: (45.0, 95.0),
            nack_log_min: 1e-4,
            fault_bins: 1,
        }
    }

    /// Extends this space with `fault_bins` bins for the local
    /// hard-fault degree (healthy → partially amputated → dead). `1`
    /// returns the space unchanged; `3` is the recommended granularity
    /// for degradation sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `fault_bins == 0`.
    pub fn with_fault_bins(mut self, fault_bins: usize) -> Self {
        assert!(fault_bins > 0, "need at least one fault bin");
        self.fault_bins = fault_bins;
        self
    }

    /// A custom space with uniform `bins_per_feature` everywhere (used by
    /// the bin-granularity ablation).
    ///
    /// # Panics
    ///
    /// Panics if `bins_per_feature == 0`.
    pub fn with_uniform_bins(bins_per_feature: usize) -> Self {
        assert!(bins_per_feature > 0, "need at least one bin");
        Self {
            bins: [bins_per_feature; 6],
            ..Self::paper_default()
        }
    }

    /// Total number of discrete states (the product of bin counts,
    /// including the fault-degree dimension).
    pub fn num_states(&self) -> usize {
        self.bins.iter().product::<usize>() * self.fault_bins
    }

    /// The per-feature bin counts (Table I features; the fault-degree
    /// bin count is reported by [`fault_bins`](Self::fault_bins)).
    pub fn bins(&self) -> &[usize; 6] {
        &self.bins
    }

    /// Bin count of the appended fault-degree dimension (`1` = the
    /// feature is ignored, the paper's default).
    pub fn fault_bins(&self) -> usize {
        self.fault_bins
    }

    /// Discretizes a feature vector into a dense state index in
    /// `[0, num_states)`.
    pub fn discretize(&self, f: &RouterFeatures) -> usize {
        let d = [
            linear_bin(f.buffer_occupancy, self.buffer_range, self.bins[0]),
            linear_bin(f.input_utilization, self.util_range, self.bins[1]),
            linear_bin(f.output_utilization, self.util_range, self.bins[2]),
            log_bin(f.input_nack_rate, self.nack_log_min, self.bins[3]),
            log_bin(f.output_nack_rate, self.nack_log_min, self.bins[4]),
            linear_bin(f.temperature_c, self.temp_range, self.bins[5]),
        ];
        let mut index = 0;
        for (bin, &count) in d.iter().zip(&self.bins) {
            index = index * count + bin;
        }
        // Fault degree rides last so `fault_bins == 1` leaves every
        // index exactly as it was before the feature existed.
        index * self.fault_bins + linear_bin(f.fault_degree, (0.0, 1.0), self.fault_bins)
    }
}

/// Equal-width bin over `[min, max]`, clamped at the ends.
fn linear_bin(value: f64, (min, max): (f64, f64), bins: usize) -> usize {
    if bins <= 1 || !value.is_finite() {
        return 0;
    }
    let t = ((value - min) / (max - min)).clamp(0.0, 1.0);
    ((t * bins as f64) as usize).min(bins - 1)
}

/// Log-decade bin: values below `min_rate` are bin 0; each decade above
/// occupies the next bin.
fn log_bin(rate: f64, min_rate: f64, bins: usize) -> usize {
    if bins <= 1 || rate <= min_rate || rate.is_nan() {
        return 0;
    }
    let decades = (rate / min_rate).log10();
    (decades.floor() as usize + 1).min(bins - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_has_10000_states() {
        assert_eq!(StateSpace::paper_default().num_states(), 10_000);
    }

    #[test]
    fn index_always_in_range() {
        let space = StateSpace::paper_default();
        let extremes = [
            RouterFeatures::default(),
            RouterFeatures {
                buffer_occupancy: 1e9,
                input_utilization: 1e9,
                output_utilization: 1e9,
                input_nack_rate: 1.0,
                output_nack_rate: 1.0,
                temperature_c: 1e9,
                fault_degree: 2.0,
            },
            RouterFeatures {
                buffer_occupancy: -5.0,
                input_utilization: -1.0,
                output_utilization: -1.0,
                input_nack_rate: -1.0,
                output_nack_rate: -1.0,
                temperature_c: -100.0,
                fault_degree: -1.0,
            },
        ];
        for f in extremes {
            assert!(space.discretize(&f) < space.num_states());
        }
    }

    #[test]
    fn hotter_router_lands_in_higher_temp_bin() {
        let space = StateSpace::paper_default();
        let cold = RouterFeatures {
            temperature_c: 47.0,
            ..Default::default()
        };
        let hot = RouterFeatures {
            temperature_c: 98.0,
            ..Default::default()
        };
        assert!(space.discretize(&hot) > space.discretize(&cold));
    }

    #[test]
    fn distinct_features_usually_distinct_states() {
        let space = StateSpace::paper_default();
        let a = RouterFeatures {
            buffer_occupancy: 1.0,
            input_utilization: 0.02,
            ..Default::default()
        };
        let b = RouterFeatures {
            buffer_occupancy: 18.0,
            input_utilization: 0.28,
            ..Default::default()
        };
        assert_ne!(space.discretize(&a), space.discretize(&b));
    }

    #[test]
    fn nack_rate_bins_are_log_spaced() {
        // 0, 2e-4, 2e-3, 2e-2 should land in bins 0,1,2,3.
        assert_eq!(log_bin(0.0, 1e-4, 4), 0);
        assert_eq!(log_bin(2e-4, 1e-4, 4), 1);
        assert_eq!(log_bin(2e-3, 1e-4, 4), 2);
        assert_eq!(log_bin(2e-2, 1e-4, 4), 3);
        assert_eq!(log_bin(0.5, 1e-4, 4), 3, "saturates at top bin");
    }

    #[test]
    fn linear_bin_edges() {
        assert_eq!(linear_bin(0.0, (0.0, 1.0), 5), 0);
        assert_eq!(linear_bin(0.19, (0.0, 1.0), 5), 0);
        assert_eq!(linear_bin(0.21, (0.0, 1.0), 5), 1);
        assert_eq!(linear_bin(0.99, (0.0, 1.0), 5), 4);
        assert_eq!(
            linear_bin(1.0, (0.0, 1.0), 5),
            4,
            "max clamps into last bin"
        );
        assert_eq!(linear_bin(f64::NAN, (0.0, 1.0), 5), 0, "NaN is bin 0");
    }

    #[test]
    fn uniform_bins_scale_state_count() {
        assert_eq!(StateSpace::with_uniform_bins(3).num_states(), 729);
        assert_eq!(StateSpace::with_uniform_bins(1).num_states(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = StateSpace::with_uniform_bins(0);
    }

    #[test]
    fn fault_bins_scale_state_count() {
        let space = StateSpace::paper_default().with_fault_bins(3);
        assert_eq!(space.num_states(), 30_000);
        assert_eq!(space.fault_bins(), 3);
    }

    #[test]
    fn fault_degree_only_matters_with_fault_bins() {
        let healthy = RouterFeatures {
            temperature_c: 60.0,
            ..Default::default()
        };
        let amputated = RouterFeatures {
            fault_degree: 1.0,
            ..healthy
        };

        let blind = StateSpace::paper_default();
        assert_eq!(blind.discretize(&healthy), blind.discretize(&amputated));

        let aware = StateSpace::paper_default().with_fault_bins(3);
        let h = aware.discretize(&healthy);
        let a = aware.discretize(&amputated);
        assert_ne!(h, a);
        assert!(a > h, "higher fault degree lands in a higher bin");
    }

    #[test]
    fn fault_blind_indices_unchanged_by_feature_addition() {
        // fault_bins == 1 must reproduce the pre-hard-fault indexing
        // exactly, so existing policy snapshots keep their meaning.
        let space = StateSpace::paper_default();
        let f = RouterFeatures {
            buffer_occupancy: 7.0,
            input_utilization: 0.12,
            output_utilization: 0.05,
            input_nack_rate: 3e-3,
            output_nack_rate: 0.0,
            temperature_c: 72.0,
            fault_degree: 0.75,
        };
        // Hand-computed mixed-radix index: (bins, digit) per feature.
        let expected = [(5, 1), (5, 2), (5, 0), (4, 2), (4, 0), (5, 2)]
            .iter()
            .fold(0, |index, (bins, digit)| index * bins + digit);
        assert_eq!(space.discretize(&f), expected);
    }

    #[test]
    #[should_panic(expected = "at least one fault bin")]
    fn zero_fault_bins_panics() {
        let _ = StateSpace::paper_default().with_fault_bins(0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn discretize_total(b in -10.0f64..50.0, iu in -1.0f64..2.0, ou in -1.0f64..2.0,
                            inr in -1.0f64..2.0, onr in -1.0f64..2.0, t in -50.0f64..200.0) {
            let space = StateSpace::paper_default();
            let f = RouterFeatures {
                buffer_occupancy: b,
                input_utilization: iu,
                output_utilization: ou,
                input_nack_rate: inr,
                output_nack_rate: onr,
                temperature_c: t,
                fault_degree: 0.0,
            };
            prop_assert!(space.discretize(&f) < space.num_states());
        }

        #[test]
        fn discretize_is_deterministic(t in 40.0f64..110.0, u in 0.0f64..0.4) {
            let space = StateSpace::paper_default();
            let f = RouterFeatures {
                input_utilization: u,
                temperature_c: t,
                ..Default::default()
            };
            prop_assert_eq!(space.discretize(&f), space.discretize(&f));
        }
    }
}
