//! The per-router ε-greedy Q-learning agent.
//!
//! At every control epoch the agent receives the reward earned by its
//! previous action together with the newly observed state, applies the
//! temporal-difference update to `Q(s, a)`, and picks the next action —
//! greedy with probability `1 − ε`, uniformly random with probability
//! `ε` (the paper's exploration scheme with ε = 0.1).

use crate::qtable::QTable;
use crate::schedule::Schedule;
use crate::NUM_ACTIONS;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rlnoc_telemetry::{Telemetry, TimerHandle};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a Q-learning agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Learning-rate schedule (paper: constant 0.1).
    pub alpha: Schedule,
    /// Discount factor γ (paper: 0.5).
    pub gamma: f64,
    /// Exploration-probability schedule (paper: constant 0.1).
    pub epsilon: Schedule,
    /// Initial operation mode (paper: mode 0).
    pub initial_action: usize,
    /// Initial Q-value for every (state, action) pair. The paper uses 0;
    /// an optimistic value (above the best achievable return) forces the
    /// greedy policy to sample each action in a state before committing.
    pub initial_q: f64,
    /// Confidence gate: when fewer than three actions of a state have
    /// ever been updated, greedy selection returns this safe default
    /// instead of trusting one or two noisy samples. `None` disables the
    /// gate (the paper's literal behaviour). Prevents self-selecting
    /// attractors — states that only arise as a consequence of one mode's
    /// behaviour and therefore never fairly sample the alternatives.
    pub fallback_action: Option<usize>,
}

impl AgentConfig {
    /// The paper's §IV-C initialization: α = 0.1, γ = 0.5, ε = 0.1,
    /// starting in mode 0.
    pub fn paper_default() -> Self {
        Self {
            alpha: Schedule::Constant(0.1),
            gamma: 0.5,
            epsilon: Schedule::Constant(0.1),
            initial_action: 0,
            initial_q: 0.0,
            fallback_action: None,
        }
    }

    /// The paper's parameters with an optimistic initial Q-value, the
    /// configuration used by the experiment driver (see DESIGN.md).
    pub fn optimistic(initial_q: f64) -> Self {
        Self {
            initial_q,
            ..Self::paper_default()
        }
    }
}

/// One router's learning agent.
///
/// # Example
///
/// ```
/// use noc_rl::agent::{AgentConfig, QLearningAgent};
/// use noc_rl::schedule::Schedule;
///
/// let config = AgentConfig {
///     epsilon: Schedule::Constant(0.2),
///     ..AgentConfig::paper_default()
/// };
/// let mut agent = QLearningAgent::new(100, config, 7);
/// let mut action = agent.observe_and_act(0, 0.0);
/// for _ in 0..300 {
///     // Reward action 2 whenever it is taken in state 0.
///     let reward = if action == 2 { 1.0 } else { -0.1 };
///     action = agent.observe_and_act(0, reward);
/// }
/// assert_eq!(agent.q_table().best_action(0), 2);
/// ```
#[derive(Debug, Clone)]
pub struct QLearningAgent {
    q: QTable,
    config: AgentConfig,
    rng: SmallRng,
    step: u64,
    last: Option<(usize, usize)>,
    /// Actions drawn at random rather than greedily (the tests read it).
    exploration_moves: u64,
    learning: bool,
    td_timer: TimerHandle,
    last_td_delta: f64,
    /// Most recent ε observed by the runtime invariant checker; the
    /// schedule must never rise above it (`verify` feature only).
    #[cfg(feature = "verify")]
    verify_last_eps: f64,
}

/// `true` when the process opted into per-step agent-state invariant
/// checking via `RLNOC_VERIFY=1` (or `true`). Read once and cached.
#[cfg(feature = "verify")]
pub(crate) fn verify_armed() -> bool {
    static ARMED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ARMED.get_or_init(|| {
        matches!(
            std::env::var("RLNOC_VERIFY").as_deref(),
            Ok("1") | Ok("true")
        )
    })
}

impl QLearningAgent {
    /// Creates an agent over `num_states` states.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0`, `initial_action` is out of range, or
    /// `gamma` is outside `[0, 1]`.
    pub fn new(num_states: usize, config: AgentConfig, seed: u64) -> Self {
        assert!(
            config.initial_action < NUM_ACTIONS,
            "initial action out of range"
        );
        assert!(
            (0.0..=1.0).contains(&config.gamma),
            "gamma must be in [0,1]"
        );
        Self {
            q: QTable::with_initial(num_states, config.initial_q),
            config,
            rng: SmallRng::seed_from_u64(seed),
            step: 0,
            last: None,
            exploration_moves: 0,
            learning: true,
            td_timer: TimerHandle::default(),
            last_td_delta: 0.0,
            #[cfg(feature = "verify")]
            verify_last_eps: f64::INFINITY,
        }
    }

    /// Installs a telemetry handle: TD updates are timed under the
    /// `rl.td_update` span. Inert (the default) until called with an
    /// enabled handle.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.td_timer = telemetry.timer("rl.td_update");
    }

    /// The learned table.
    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    /// Control epochs observed so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Whether learning updates are applied (disabled for frozen-policy
    /// evaluation).
    pub fn learning_enabled(&self) -> bool {
        self.learning
    }

    /// One agent step: credit `reward` to the previous `(state, action)`
    /// via the TD rule, then select the action for `state`.
    ///
    /// The first call (no previous action) performs no update and returns
    /// the configured initial action.
    pub fn observe_and_act(&mut self, state: usize, reward: f64) -> usize {
        self.credit_previous(state, reward);
        let action = if self.last.is_none() {
            self.config.initial_action
        } else {
            let eps = self.config.epsilon.value(self.step);
            if self.rng.gen_bool(eps.clamp(0.0, 1.0)) {
                self.exploration_moves += 1;
                self.rng.gen_range(0..NUM_ACTIONS)
            } else {
                let greedy = self.q.best_action(state);
                match self.config.fallback_action {
                    Some(fallback) => {
                        let covered = (0..NUM_ACTIONS)
                            .filter(|&a| self.q.visit_count(state, a) > 0)
                            .count();
                        if covered < 3 {
                            fallback
                        } else {
                            greedy
                        }
                    }
                    None => greedy,
                }
            }
        };
        self.last = Some((state, action));
        self.step += 1;
        #[cfg(feature = "verify")]
        self.verify_agent_state(state, action);
        action
    }

    /// Like [`observe_and_act`](Self::observe_and_act) but with the next
    /// action imposed by the caller instead of the ε-greedy policy.
    ///
    /// Used for curriculum pre-training: forcing the whole fleet into one
    /// mode lets every agent learn that mode's *collective* value, which
    /// a single agent's unilateral deviation cannot reveal.
    ///
    /// # Panics
    ///
    /// Panics if `action >= NUM_ACTIONS`.
    pub fn observe_and_force(&mut self, state: usize, reward: f64, action: usize) -> usize {
        assert!(action < NUM_ACTIONS, "action out of range");
        self.credit_previous(state, reward);
        self.last = Some((state, action));
        self.step += 1;
        #[cfg(feature = "verify")]
        self.verify_agent_state(state, action);
        action
    }

    /// Runtime agent-state invariants (`verify` feature, armed by
    /// `RLNOC_VERIFY=1`): every stored Q-value finite, the selected action in
    /// range, ε within `[0, 1]` after clamping and non-increasing along
    /// the schedule, and the learning rate α within `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic on the first violated invariant.
    #[cfg(feature = "verify")]
    fn verify_agent_state(&mut self, state: usize, action: usize) {
        if !verify_armed() {
            return;
        }
        assert!(
            action < NUM_ACTIONS,
            "selected action {action} out of range"
        );
        assert!(
            state < self.q.num_states(),
            "state {state} outside the {}-state table",
            self.q.num_states()
        );
        self.verify_q_finite();
        let eps = self.current_epsilon();
        assert!(
            (0.0..=1.0).contains(&eps),
            "ε = {eps} escaped [0,1] at step {}",
            self.step
        );
        assert!(
            eps <= self.verify_last_eps,
            "ε rose from {} to {eps} at step {} (schedule must be non-increasing)",
            self.verify_last_eps,
            self.step
        );
        self.verify_last_eps = eps;
        let alpha = self.config.alpha.value(self.step);
        assert!(
            alpha.is_finite() && 0.0 < alpha && alpha <= 1.0,
            "α = {alpha} escaped (0,1] at step {}",
            self.step
        );
    }

    /// Every Q-value the table holds in memory, and the blank row all
    /// other states read as, is finite.
    #[cfg(feature = "verify")]
    fn verify_q_finite(&self) {
        for (s, row) in self.q.stored_values() {
            for (a, &v) in row.iter().enumerate() {
                assert!(
                    v.is_finite(),
                    "Q[{s}][{a}] diverged to {v} at step {}",
                    self.step
                );
            }
        }
    }

    /// Applies the TD update crediting `reward` to the previous
    /// `(state, action)` pair, tracking the update magnitude and timing
    /// the update under the `rl.td_update` span when telemetry is wired.
    fn credit_previous(&mut self, state: usize, reward: f64) {
        if let Some((s, a)) = self.last {
            if self.learning {
                let _span = self.td_timer.start();
                let alpha = self.config.alpha.value(self.step);
                let before = self.q.value(s, a);
                self.q.update(s, a, reward, state, alpha, self.config.gamma);
                self.last_td_delta = (self.q.value(s, a) - before).abs();
            }
        }
    }

    /// Freezes or resumes learning (ε-greedy selection continues either
    /// way; set ε to zero for fully greedy evaluation).
    pub fn set_learning(&mut self, enabled: bool) {
        self.learning = enabled;
    }

    /// Replaces the agent's Q-table with `table` — the load half of
    /// policy snapshotting. The pending `(state, action)` credit is
    /// cleared so the imported table is never updated with a reward
    /// earned under the old policy.
    ///
    /// # Errors
    ///
    /// Returns the table unchanged when its state count differs from the
    /// agent's.
    pub fn import_table(&mut self, table: QTable) -> Result<(), QTable> {
        if table.num_states() != self.q.num_states() {
            return Err(table);
        }
        self.q = table;
        self.last = None;
        self.last_td_delta = 0.0;
        Ok(())
    }

    /// Switches the agent to deployed-policy (inference-only) operation:
    /// TD updates stop and exploration is disabled, so every decision is
    /// the frozen table's greedy action.
    pub fn freeze(&mut self) {
        self.set_learning(false);
        self.set_epsilon(Schedule::Constant(0.0));
    }

    /// Replaces the exploration schedule (e.g. ε → 0 after pre-training).
    pub fn set_epsilon(&mut self, epsilon: Schedule) {
        self.config.epsilon = epsilon;
        // A deliberate schedule swap restarts the monotonicity baseline.
        #[cfg(feature = "verify")]
        {
            self.verify_last_eps = f64::INFINITY;
        }
    }

    /// The exploration probability the next action draw will use.
    pub fn current_epsilon(&self) -> f64 {
        self.config.epsilon.value(self.step).clamp(0.0, 1.0)
    }

    /// Magnitude of the most recent TD update to the Q-table (0.0 before
    /// any update). This is the convergence signal exported per epoch as
    /// `max_q_delta`.
    pub fn last_td_delta(&self) -> f64 {
        self.last_td_delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent(seed: u64) -> QLearningAgent {
        QLearningAgent::new(16, AgentConfig::paper_default(), seed)
    }

    #[test]
    fn first_action_is_initial_mode() {
        let mut a = agent(1);
        assert_eq!(a.observe_and_act(0, 0.0), 0);
    }

    #[test]
    fn learns_rewarding_action() {
        let mut a = QLearningAgent::new(
            4,
            AgentConfig {
                epsilon: Schedule::Constant(0.2),
                ..AgentConfig::paper_default()
            },
            7,
        );
        let mut action = a.observe_and_act(0, 0.0);
        for _ in 0..300 {
            let reward = if action == 3 { 1.0 } else { -0.1 };
            action = a.observe_and_act(0, reward);
        }
        assert_eq!(a.q_table().best_action(0), 3);
    }

    #[test]
    fn zero_epsilon_is_fully_greedy() {
        let mut a = QLearningAgent::new(
            4,
            AgentConfig {
                epsilon: Schedule::Constant(0.0),
                ..AgentConfig::paper_default()
            },
            9,
        );
        let mut last = a.observe_and_act(0, 0.0);
        for _ in 0..100 {
            last = a.observe_and_act(0, if last == 0 { 1.0 } else { 0.0 });
        }
        assert_eq!(a.exploration_moves, 0);
    }

    #[test]
    fn epsilon_one_always_explores() {
        let mut a = QLearningAgent::new(
            4,
            AgentConfig {
                epsilon: Schedule::Constant(1.0),
                ..AgentConfig::paper_default()
            },
            11,
        );
        a.observe_and_act(0, 0.0);
        for _ in 0..50 {
            a.observe_and_act(0, 0.0);
        }
        assert_eq!(a.exploration_moves, 50);
    }

    #[test]
    fn optimistic_init_tries_every_action_greedily() {
        // With ε = 0 and an optimistic initial value, the greedy policy
        // alone must cycle through all four actions in a revisited state.
        let mut a = QLearningAgent::new(
            4,
            AgentConfig {
                epsilon: Schedule::Constant(0.0),
                ..AgentConfig::optimistic(10.0)
            },
            5,
        );
        let mut seen = [false; 4];
        let mut action = a.observe_and_act(0, 0.0);
        for _ in 0..12 {
            seen[action] = true;
            action = a.observe_and_act(0, 1.0);
        }
        assert!(seen.iter().all(|&s| s), "not all actions tried: {seen:?}");
    }

    #[test]
    fn frozen_agent_stops_updating() {
        let mut a = agent(3);
        a.observe_and_act(0, 0.0);
        a.observe_and_act(1, 5.0);
        let snapshot = a.q_table().clone();
        a.set_learning(false);
        for _ in 0..20 {
            a.observe_and_act(1, 123.0);
        }
        assert_eq!(a.q_table(), &snapshot, "no updates while frozen");
        assert!(!a.learning_enabled());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut a = agent(seed);
            (0..100)
                .map(|i| a.observe_and_act(i % 16, (i % 3) as f64))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn steps_count_calls() {
        let mut a = agent(0);
        for i in 0..7 {
            a.observe_and_act(i, 0.0);
        }
        assert_eq!(a.steps(), 7);
    }

    #[test]
    fn import_table_replaces_policy_and_clears_pending_credit() {
        let mut a = QLearningAgent::new(
            16,
            AgentConfig {
                epsilon: Schedule::Constant(0.0),
                ..AgentConfig::paper_default()
            },
            1,
        );
        a.observe_and_act(0, 0.0); // pending credit on (0, initial)
        let mut trained = QTable::new(16);
        for _ in 0..50 {
            trained.update(0, 2, 1.0, 0, 0.5, 0.0);
        }
        a.import_table(trained.clone()).expect("state counts match");
        a.freeze();
        // The pending credit was cleared: the first post-import step is a
        // fresh start (initial action, no update), after which decisions
        // are the imported table's greedy policy.
        assert_eq!(a.observe_and_act(0, 999.0), 0, "fresh start");
        let action = a.observe_and_act(0, 999.0);
        assert_eq!(action, 2, "greedy action comes from the imported table");
        assert_eq!(a.q_table(), &trained, "no stray update applied");
    }

    #[test]
    fn import_table_rejects_mismatched_state_space() {
        let mut a = agent(1);
        let wrong = QTable::new(9);
        assert!(a.import_table(wrong).is_err());
    }

    #[test]
    fn frozen_agent_is_greedy_and_static() {
        let mut a = agent(4);
        a.observe_and_act(0, 0.0);
        a.observe_and_act(1, 2.0);
        a.freeze();
        let snapshot = a.q_table().clone();
        let explorations = a.exploration_moves;
        for _ in 0..200 {
            a.observe_and_act(1, 5.0);
        }
        assert_eq!(a.q_table(), &snapshot, "frozen agent must not learn");
        assert_eq!(a.exploration_moves, explorations, "nor explore");
        assert_eq!(a.current_epsilon(), 0.0);
    }

    #[cfg(feature = "verify")]
    #[test]
    #[should_panic(expected = "Q[3][0] diverged to inf")]
    fn non_finite_q_value_in_a_written_row_is_detected() {
        let mut a = QLearningAgent::new(10_000, AgentConfig::optimistic(5.0), 2);
        a.observe_and_act(3, 0.0);
        a.verify_q_finite(); // nothing written yet: the blank row alone passes
        a.observe_and_act(9_000, f64::INFINITY);
        a.verify_q_finite();
    }

    #[test]
    #[should_panic(expected = "initial action out of range")]
    fn bad_initial_action_panics() {
        let _ = QLearningAgent::new(
            4,
            AgentConfig {
                initial_action: 9,
                ..AgentConfig::paper_default()
            },
            0,
        );
    }
}
