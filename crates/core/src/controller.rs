//! Per-router fault-tolerant controllers.
//!
//! A [`ControllerBank`] holds one controller per router and maps each
//! epoch's observed [`RouterFeatures`] (plus the reward earned by the
//! previous action) to the next [`OperationMode`]:
//!
//! * [`ControllerBank::statically`] — the CRC and ARQ+ECC baselines: a
//!   fixed mode forever.
//! * [`ControllerBank::rl`] — the proposed design: one tabular Q-learning
//!   agent per router (§IV).
//! * [`ControllerBank::dt`] — the supervised baseline: a CART tree
//!   predicts the link error rate from the features; fixed thresholds map
//!   the prediction to a mode (DiTomaso et al.). The tree is trained once
//!   from pre-training samples and frozen, exactly as the paper describes
//!   ("the training result of DT is no longer updated during testing").

use crate::modes::OperationMode;
use noc_rl::agent::{AgentConfig, QLearningAgent};
use noc_rl::decision_tree::{DecisionTree, TreeParams};
use noc_rl::snapshot::PolicySnapshot;
use noc_rl::state::{RouterFeatures, StateSpace};

/// Why a [`PolicySnapshot`] could not be loaded into a bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyLoadError {
    /// The bank is not the RL bank — there is nothing to load a Q-table
    /// policy into.
    NotRlBank,
    /// The snapshot holds a different number of per-router agents than
    /// the bank.
    AgentCountMismatch {
        /// Agents in the bank.
        expected: usize,
        /// Agents in the snapshot.
        actual: usize,
    },
    /// The snapshot's tables discretize a different state space.
    StateSpaceMismatch {
        /// States per table in the bank.
        expected: usize,
        /// States per table in the snapshot.
        actual: usize,
    },
    /// The snapshot was trained with a different fault-degree bin count
    /// than the bank's state space uses.
    FaultBinsMismatch {
        /// Fault bins in the bank's state space.
        expected: usize,
        /// Fault bins recorded in the snapshot.
        actual: usize,
    },
}

impl std::fmt::Display for PolicyLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotRlBank => write!(f, "policy snapshots only apply to the RL controller bank"),
            Self::AgentCountMismatch { expected, actual } => {
                write!(f, "snapshot has {actual} agents, bank has {expected}")
            }
            Self::StateSpaceMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot tables have {actual} states, bank expects {expected}"
                )
            }
            Self::FaultBinsMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot trained with {actual} fault bins, bank uses {expected}"
                )
            }
        }
    }
}

impl std::error::Error for PolicyLoadError {}

/// Error-rate thresholds mapping a DT prediction to an operation mode.
///
/// Derived from the scheme's cost crossovers: below `t01` the ECC
/// hardware costs more than the rare full-packet retransmissions it
/// avoids (→ mode 0); above `t23` even hop retransmissions contaminate
/// the link and only timing relaxation helps (→ mode 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtThresholds {
    /// Mode 0 below this predicted per-flit error rate.
    pub t01: f64,
    /// Mode 1 below this rate.
    pub t12: f64,
    /// Mode 2 below this rate; mode 3 at or above.
    pub t23: f64,
}

impl Default for DtThresholds {
    fn default() -> Self {
        Self {
            t01: 3.2e-3,
            t12: 2.5e-2,
            t23: 6e-2,
        }
    }
}

impl DtThresholds {
    /// Maps a predicted error rate to an operation mode.
    fn mode_for(self, predicted_rate: f64) -> OperationMode {
        if predicted_rate < self.t01 {
            OperationMode::Mode0
        } else if predicted_rate < self.t12 {
            OperationMode::Mode1
        } else if predicted_rate < self.t23 {
            OperationMode::Mode2
        } else {
            OperationMode::Mode3
        }
    }
}

/// A labeled training sample for the DT baseline: Table I features plus
/// the observed (oracle) per-flit link error rate.
#[derive(Debug, Clone, PartialEq)]
pub struct DtSample {
    /// Observed features.
    pub features: RouterFeatures,
    /// Supervised label: the link's true error probability.
    pub error_rate: f64,
}

fn feature_vector(f: &RouterFeatures) -> Vec<f64> {
    vec![
        f.buffer_occupancy,
        f.input_utilization,
        f.output_utilization,
        f.input_nack_rate,
        f.output_nack_rate,
        f.temperature_c,
    ]
}

enum Bank {
    Static(OperationMode),
    Rl {
        agents: Vec<QLearningAgent>,
        space: StateSpace,
        forced: Option<OperationMode>,
    },
    Dt {
        tree: Option<DecisionTree>,
        thresholds: DtThresholds,
        samples: Vec<DtSample>,
    },
}

/// One controller per router.
pub struct ControllerBank {
    bank: Bank,
    decisions: u64,
}

impl ControllerBank {
    /// A bank that always selects `mode` (CRC baseline = mode 0, ARQ+ECC
    /// baseline = mode 1).
    pub fn statically(mode: OperationMode) -> Self {
        Self {
            bank: Bank::Static(mode),
            decisions: 0,
        }
    }

    /// The proposed per-router Q-learning bank with the paper's
    /// hyper-parameters (α = 0.1, γ = 0.5, ε = 0.1).
    pub fn rl(num_routers: usize, seed: u64) -> Self {
        Self::rl_with(
            num_routers,
            seed,
            AgentConfig::paper_default(),
            StateSpace::paper_default(),
        )
    }

    /// An RL bank with explicit hyper-parameters (used by ablations).
    pub fn rl_with(num_routers: usize, seed: u64, config: AgentConfig, space: StateSpace) -> Self {
        let agents = (0..num_routers)
            .map(|i| {
                QLearningAgent::new(
                    space.num_states(),
                    config.clone(),
                    rand::seed_stream(seed, i as u64),
                )
            })
            .collect();
        Self {
            bank: Bank::Rl {
                agents,
                space,
                forced: None,
            },
            decisions: 0,
        }
    }

    /// Forces every RL agent's next decisions to `mode` (curriculum
    /// pre-training); `None` restores ε-greedy selection. TD updates
    /// continue either way. No-op for non-RL banks.
    pub fn set_forced_mode(&mut self, mode: Option<OperationMode>) {
        if let Bank::Rl { forced, .. } = &mut self.bank {
            *forced = mode;
        }
    }

    /// The decision-tree bank (untrained; collect samples during
    /// pre-training, then call [`train_dt`](Self::train_dt)).
    pub fn dt(thresholds: DtThresholds) -> Self {
        Self {
            bank: Bank::Dt {
                tree: None,
                thresholds,
                samples: Vec::new(),
            },
            decisions: 0,
        }
    }

    /// `true` when this is the learning (RL) bank.
    pub fn is_rl(&self) -> bool {
        matches!(self.bank, Bank::Rl { .. })
    }

    /// `true` when this is the decision-tree bank.
    pub fn is_dt(&self) -> bool {
        matches!(self.bank, Bank::Dt { .. })
    }

    /// Total per-router decisions taken (Q-table or DT lookups, for the
    /// energy model).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Records a DT training sample (no-op for other banks).
    pub fn record_dt_sample(&mut self, sample: DtSample) {
        if let Bank::Dt { samples, .. } = &mut self.bank {
            samples.push(sample);
        }
    }

    /// Fits the decision tree from collected samples and freezes it.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-DT bank or with no samples collected.
    pub fn train_dt(&mut self) {
        let Bank::Dt { tree, samples, .. } = &mut self.bank else {
            panic!("train_dt on a non-DT controller bank");
        };
        assert!(!samples.is_empty(), "no DT training samples collected");
        let xs: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| feature_vector(&s.features))
            .collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.error_rate).collect();
        *tree = Some(DecisionTree::fit(&xs, &ys, TreeParams::default()));
        samples.clear();
    }

    /// Whether the DT bank has been trained.
    #[cfg(test)]
    fn dt_trained(&self) -> bool {
        matches!(&self.bank, Bank::Dt { tree: Some(_), .. })
    }

    /// One control decision for `router`: consume the epoch's `features`
    /// and the `reward` earned by the previous action, return the next
    /// mode.
    ///
    /// For the untrained DT bank this returns mode 1 (the safe static
    /// default used during its own pre-training).
    pub fn decide(
        &mut self,
        router: usize,
        features: &RouterFeatures,
        reward: f64,
    ) -> OperationMode {
        self.decisions += 1;
        match &mut self.bank {
            Bank::Static(mode) => *mode,
            Bank::Rl {
                agents,
                space,
                forced,
            } => {
                let state = space.discretize(features);
                let action = match forced {
                    Some(mode) => agents[router].observe_and_force(state, reward, mode.index()),
                    None => agents[router].observe_and_act(state, reward),
                };
                OperationMode::from_index(action)
            }
            Bank::Dt {
                tree, thresholds, ..
            } => match tree {
                Some(t) => thresholds.mode_for(t.predict(&feature_vector(features))),
                None => OperationMode::Mode1,
            },
        }
    }

    /// The RL agents and state space, when this is the RL bank — for
    /// inspecting learned policies.
    pub fn rl_agents(&self) -> Option<(&[QLearningAgent], &StateSpace)> {
        match &self.bank {
            Bank::Rl { agents, space, .. } => Some((agents, space)),
            _ => None,
        }
    }

    /// Total TD updates applied across agents (0 for non-RL banks).
    #[cfg(test)]
    fn rl_updates(&self) -> u64 {
        match &self.bank {
            Bank::Rl { agents, .. } => agents.iter().map(|a| a.q_table().updates()).sum(),
            _ => 0,
        }
    }

    /// Replaces every RL agent's exploration schedule (no-op for other
    /// banks) — e.g. annealing ε after pre-training.
    pub fn set_epsilon(&mut self, epsilon: noc_rl::schedule::Schedule) {
        if let Bank::Rl { agents, .. } = &mut self.bank {
            for a in agents {
                a.set_epsilon(epsilon);
            }
        }
    }

    /// Freezes/unfreezes RL learning (no-op for other banks).
    pub fn set_learning(&mut self, enabled: bool) {
        if let Bank::Rl { agents, .. } = &mut self.bank {
            for a in agents {
                a.set_learning(enabled);
            }
        }
    }

    /// Wires telemetry through to every RL agent (the `rl.td_update`
    /// span timer). No-op for non-RL banks or a disabled handle.
    pub fn set_telemetry(&mut self, telemetry: &rlnoc_telemetry::Telemetry) {
        if let Bank::Rl { agents, .. } = &mut self.bank {
            for a in agents {
                a.set_telemetry(telemetry);
            }
        }
    }

    /// Captures the current RL policy (every router's Q-table) as a
    /// [`PolicySnapshot`]; `None` for non-RL banks.
    pub fn policy_snapshot(&self) -> Option<PolicySnapshot> {
        match &self.bank {
            Bank::Rl { agents, space, .. } => Some(
                PolicySnapshot::new(agents.iter().map(|a| a.q_table().clone()).collect())
                    .with_fault_bins(space.fault_bins()),
            ),
            _ => None,
        }
    }

    /// Installs a previously captured policy into this RL bank, replacing
    /// every agent's Q-table and clearing pending TD credit. Learning and
    /// exploration schedules are left as-is; call [`freeze`](Self::freeze)
    /// afterwards for pure inference.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyLoadError`] when this is not the RL bank or the
    /// snapshot's shape does not match.
    pub fn load_policy(&mut self, snapshot: PolicySnapshot) -> Result<(), PolicyLoadError> {
        let Bank::Rl { agents, space, .. } = &mut self.bank else {
            return Err(PolicyLoadError::NotRlBank);
        };
        if snapshot.num_agents() != agents.len() {
            return Err(PolicyLoadError::AgentCountMismatch {
                expected: agents.len(),
                actual: snapshot.num_agents(),
            });
        }
        if snapshot.num_states() != space.num_states() {
            return Err(PolicyLoadError::StateSpaceMismatch {
                expected: space.num_states(),
                actual: snapshot.num_states(),
            });
        }
        if snapshot.fault_bins() != space.fault_bins() {
            return Err(PolicyLoadError::FaultBinsMismatch {
                expected: space.fault_bins(),
                actual: snapshot.fault_bins(),
            });
        }
        for (agent, table) in agents.iter_mut().zip(snapshot.into_tables()) {
            agent
                .import_table(table)
                .expect("shape verified against the bank above");
        }
        Ok(())
    }

    /// Freezes every RL agent for pure inference: learning off, ε = 0
    /// (greedy). No-op for non-RL banks.
    pub fn freeze(&mut self) {
        if let Bank::Rl { agents, .. } = &mut self.bank {
            for a in agents {
                a.freeze();
            }
        }
    }

    /// Per-epoch learning signals for `router`: the exploration rate its
    /// next draw will use and the magnitude of its last TD update.
    /// `(0.0, 0.0)` for non-RL banks, whose policies neither explore nor
    /// update.
    pub fn learning_signals(&self, router: usize) -> (f64, f64) {
        match &self.bank {
            Bank::Rl { agents, .. } => (
                agents[router].current_epsilon(),
                agents[router].last_td_delta(),
            ),
            _ => (0.0, 0.0),
        }
    }
}

impl std::fmt::Debug for ControllerBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.bank {
            Bank::Static(m) => format!("static({m})"),
            Bank::Rl { agents, .. } => format!("rl({} agents)", agents.len()),
            Bank::Dt { tree, .. } => format!("dt(trained: {})", tree.is_some()),
        };
        f.debug_struct("ControllerBank")
            .field("kind", &kind)
            .field("decisions", &self.decisions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(temp: f64, util: f64) -> RouterFeatures {
        RouterFeatures {
            buffer_occupancy: 2.0,
            input_utilization: util,
            output_utilization: util,
            input_nack_rate: 0.0,
            output_nack_rate: 0.0,
            temperature_c: temp,
            ..Default::default()
        }
    }

    #[test]
    fn static_bank_is_constant() {
        let mut bank = ControllerBank::statically(OperationMode::Mode1);
        for i in 0..10 {
            assert_eq!(
                bank.decide(i % 4, &features(60.0 + i as f64, 0.1), 1.0),
                OperationMode::Mode1
            );
        }
        assert_eq!(bank.decisions(), 10);
        assert!(!bank.is_rl() && !bank.is_dt());
    }

    #[test]
    fn rl_bank_starts_in_mode0_and_explores() {
        let mut bank = ControllerBank::rl(4, 7);
        assert!(bank.is_rl());
        // First decision per agent is the initial action (mode 0).
        for r in 0..4 {
            assert_eq!(
                bank.decide(r, &features(55.0, 0.05), 0.0),
                OperationMode::Mode0
            );
        }
        // Subsequent decisions are defined (any mode) and counted.
        for r in 0..4 {
            let _ = bank.decide(r, &features(90.0, 0.2), 0.5);
        }
        assert_eq!(bank.decisions(), 8);
        assert!(
            bank.rl_updates() >= 4,
            "TD updates applied after first step"
        );
    }

    #[test]
    fn rl_learns_mode_preference_under_synthetic_reward() {
        // Reward mode 3 in the hot state: the agent should converge to it.
        let mut bank = ControllerBank::rl(1, 3);
        let hot = features(95.0, 0.25);
        let mut mode = bank.decide(0, &hot, 0.0);
        for _ in 0..600 {
            let reward = if mode == OperationMode::Mode3 {
                1.0
            } else {
                -0.2
            };
            mode = bank.decide(0, &hot, reward);
        }
        // Count preference over a window (ε = 0.1 keeps some exploration).
        let mut votes = [0u32; 4];
        for _ in 0..100 {
            let m = bank.decide(
                0,
                &hot,
                if mode == OperationMode::Mode3 {
                    1.0
                } else {
                    -0.2
                },
            );
            votes[m.index()] += 1;
            mode = m;
        }
        assert!(
            votes[3] > 60,
            "mode 3 should dominate after training: {votes:?}"
        );
    }

    #[test]
    fn dt_bank_defaults_to_mode1_until_trained() {
        let mut bank = ControllerBank::dt(DtThresholds::default());
        assert!(bank.is_dt());
        assert!(!bank.dt_trained());
        assert_eq!(
            bank.decide(0, &features(99.0, 0.3), 0.0),
            OperationMode::Mode1
        );
    }

    #[test]
    fn dt_bank_learns_temperature_to_mode_mapping() {
        let mut bank = ControllerBank::dt(DtThresholds::default());
        // Synthetic oracle: error rate grows exponentially with temp.
        for i in 0..400 {
            let temp = 50.0 + (i % 51) as f64;
            let rate = 1e-3 * ((temp - 50.0) * 50f64.ln() / 50.0).exp();
            bank.record_dt_sample(DtSample {
                features: features(temp, 0.1),
                error_rate: rate,
            });
        }
        bank.train_dt();
        assert!(bank.dt_trained());
        let cold = bank.decide(0, &features(51.0, 0.1), 0.0);
        let hot = bank.decide(0, &features(100.0, 0.1), 0.0);
        assert_eq!(cold, OperationMode::Mode0, "cold router gates ECC off");
        assert!(
            hot >= OperationMode::Mode2,
            "hot router escalates, got {hot}"
        );
    }

    #[test]
    fn thresholds_partition_the_rate_axis() {
        let t = DtThresholds::default();
        assert_eq!(t.mode_for(0.0), OperationMode::Mode0);
        assert_eq!(t.mode_for(5e-3), OperationMode::Mode1);
        assert_eq!(t.mode_for(4e-2), OperationMode::Mode2);
        assert_eq!(t.mode_for(0.5), OperationMode::Mode3);
    }

    #[test]
    fn record_sample_is_noop_for_static() {
        let mut bank = ControllerBank::statically(OperationMode::Mode0);
        bank.record_dt_sample(DtSample {
            features: features(60.0, 0.1),
            error_rate: 1e-3,
        });
        // Nothing to assert beyond "does not panic" and stays static.
        assert_eq!(
            bank.decide(0, &features(60.0, 0.1), 0.0),
            OperationMode::Mode0
        );
    }

    #[test]
    #[should_panic(expected = "non-DT")]
    fn train_dt_on_rl_panics() {
        let mut bank = ControllerBank::rl(2, 0);
        bank.train_dt();
    }

    #[test]
    #[should_panic(expected = "no DT training samples")]
    fn train_dt_without_samples_panics() {
        let mut bank = ControllerBank::dt(DtThresholds::default());
        bank.train_dt();
    }

    #[test]
    fn debug_is_informative() {
        let bank = ControllerBank::rl(3, 0);
        let s = format!("{bank:?}");
        assert!(s.contains("rl(3 agents)"));
    }

    #[test]
    fn policy_snapshot_round_trips_through_a_fresh_bank() {
        // Train a 2-router bank a little, snapshot it, load into a fresh
        // bank, freeze, and check the policies coincide.
        let mut trained = ControllerBank::rl(2, 41);
        let hot = features(95.0, 0.25);
        for step in 0..400 {
            for r in 0..2 {
                let reward = if step % 4 == 3 { 1.0 } else { -0.1 };
                let _ = trained.decide(r, &hot, reward);
            }
        }
        let snap = trained.policy_snapshot().expect("rl bank snapshots");
        assert_eq!(snap.num_agents(), 2);

        let mut fresh = ControllerBank::rl(2, 999);
        fresh.load_policy(snap).expect("shapes match");
        fresh.freeze();
        trained.freeze();

        // After one priming decision each (pending credit was cleared),
        // both banks make identical greedy decisions.
        let probe = [features(95.0, 0.25), features(55.0, 0.05)];
        for f in &probe {
            for r in 0..2 {
                let _ = trained.decide(r, f, 0.0);
                let _ = fresh.decide(r, f, 0.0);
            }
        }
        for f in &probe {
            for r in 0..2 {
                assert_eq!(trained.decide(r, f, 0.0), fresh.decide(r, f, 0.0));
            }
        }
    }

    #[test]
    fn load_policy_rejects_shape_mismatches() {
        let donor = ControllerBank::rl(3, 7);
        let snap = donor.policy_snapshot().unwrap();
        let mut two = ControllerBank::rl(2, 7);
        assert_eq!(
            two.load_policy(snap.clone()),
            Err(PolicyLoadError::AgentCountMismatch {
                expected: 2,
                actual: 3
            })
        );
        let mut stat = ControllerBank::statically(OperationMode::Mode0);
        assert_eq!(stat.load_policy(snap), Err(PolicyLoadError::NotRlBank));
    }

    #[test]
    fn frozen_bank_is_deterministic() {
        let mut bank = ControllerBank::rl(1, 5);
        let hot = features(92.0, 0.2);
        for _ in 0..50 {
            let _ = bank.decide(0, &hot, 0.3);
        }
        bank.freeze();
        let _ = bank.decide(0, &hot, 0.0); // settle pending credit
        let first = bank.decide(0, &hot, 0.0);
        for _ in 0..20 {
            assert_eq!(bank.decide(0, &hot, 0.0), first);
        }
    }
}
