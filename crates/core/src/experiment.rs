//! The experiment driver: wires the simulator, fault substrates, power
//! model, and controllers into one reproducible run.
//!
//! An [`Experiment`] executes the paper's evaluation flow:
//!
//! 1. **Pre-training** (learning schemes only) — synthetic uniform-random
//!    traffic while the RL agents learn (or the DT collects labeled
//!    samples, after which the tree is fitted and frozen).
//! 2. **Warm-up** — synthetic traffic that settles queues and the thermal
//!    state for every scheme; statistics are then discarded.
//! 3. **Measurement** — the PARSEC-like workload runs to completion and
//!    the network drains; every epoch (1 000 cycles, §V-B) the control
//!    loop observes features, pays rewards, switches modes, advances the
//!    thermal model, and accounts energy.
//!
//! The closed loop — traffic → power → temperature → timing errors →
//! retransmissions → traffic — is exactly the paper's evaluation system.

use crate::backend::SimBackend;
use crate::benchmarks::WorkloadProfile;
use crate::controller::{ControllerBank, DtSample, DtThresholds};
use crate::modes::OperationMode;
use crate::protocol::FaultTolerantProtocol;
use noc_fault::hardfault::{HardFault, HardFaultSchedule};
use noc_fault::thermal::{ThermalModel, ThermalParams};
use noc_fault::timing::{TimingErrorModel, TimingErrorParams};
use noc_fault::variation::VariationMap;
use noc_power::energy::{EnergyModel, StaticConfig};
use noc_rl::state::RouterFeatures;
use noc_sim::config::NocConfig;
use noc_sim::network::{HardFaultEvent, HardFaultKind, Network};
use noc_sim::stats::EventCounters;
use noc_sim::topology::Direction;
use noc_sim::traffic::{SyntheticSource, TrafficPattern, TrafficSource};
use rlnoc_telemetry::{EpochRecord, Phase, RunId, Telemetry};
use serde::{Deserialize, Serialize};

/// Reward normalization for Eq. (3): the product of a nominal latency
/// (~30 cycles) and a nominal router power (~15 mW), so rewards are O(1).
const REWARD_SCALE: f64 = 0.45;

/// Process-variation log-sigmas: (systematic, random).
const VARIATION_SIGMAS: (f64, f64) = (0.12, 0.06);

/// Core (tile minus router) power model: idle power, plus power per
/// flit per cycle of local core activity.
const CORE_IDLE_POWER: f64 = 0.06;
const CORE_POWER_PER_FLIT: f64 = 1.0;

/// The four compared error-control schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorControlScheme {
    /// End-to-end CRC with full-packet source retransmission (baseline).
    StaticCrc,
    /// Per-hop ARQ+ECC, always on.
    StaticArqEcc,
    /// ARQ+ECC hardware with decision-tree mode control.
    DecisionTree,
    /// ARQ+ECC hardware with per-router RL mode control (proposed).
    ProposedRl,
}

impl ErrorControlScheme {
    /// All schemes in the figures' order.
    pub const ALL: [ErrorControlScheme; 4] = [
        ErrorControlScheme::StaticCrc,
        ErrorControlScheme::StaticArqEcc,
        ErrorControlScheme::DecisionTree,
        ErrorControlScheme::ProposedRl,
    ];

    /// Whether this scheme has a learning controller.
    pub fn is_learning(self) -> bool {
        matches!(
            self,
            ErrorControlScheme::DecisionTree | ErrorControlScheme::ProposedRl
        )
    }

    /// The scheme's short name, as the figures and every text format
    /// spell it.
    pub fn token(self) -> &'static str {
        match self {
            ErrorControlScheme::StaticCrc => "CRC",
            ErrorControlScheme::StaticArqEcc => "ARQ+ECC",
            ErrorControlScheme::DecisionTree => "DT",
            ErrorControlScheme::ProposedRl => "RL",
        }
    }

    /// The scheme a [`token`](Self::token) names.
    pub fn from_token(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.token() == token)
    }
}

impl std::fmt::Display for ErrorControlScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// An invalid experiment configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildExperimentError(&'static str);

impl std::fmt::Display for BuildExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid experiment configuration: {}", self.0)
    }
}

impl std::error::Error for BuildExperimentError {}

/// Builder for [`Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    scheme: ErrorControlScheme,
    workload: WorkloadProfile,
    noc: NocConfig,
    seed: u64,
    epoch_cycles: u64,
    pretrain_cycles: u64,
    warmup_cycles: u64,
    measure_cycles: Option<u64>,
    drain_limit: u64,
    timing: TimingErrorParams,
    thermal: ThermalParams,
    rl_config: Option<noc_rl::agent::AgentConfig>,
    rl_state_space: Option<noc_rl::state::StateSpace>,
    measurement_epsilon: f64,
    rl_curriculum: bool,
    allowed_modes: [bool; 4],
    telemetry: Telemetry,
    rl_policy: Option<std::sync::Arc<noc_rl::snapshot::PolicySnapshot>>,
    hard_faults: Option<std::sync::Arc<HardFaultSchedule>>,
}

impl ExperimentBuilder {
    /// Selects the error-control scheme (default: the proposed RL).
    pub fn scheme(mut self, scheme: ErrorControlScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Selects the workload (default: `blackscholes`).
    pub fn workload(mut self, workload: WorkloadProfile) -> Self {
        self.workload = workload;
        self
    }

    /// Overrides the NoC configuration (default: Table II).
    pub fn noc(mut self, noc: NocConfig) -> Self {
        self.noc = noc;
        self
    }

    /// Master seed: payloads, faults, traffic, and exploration all derive
    /// from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Control-epoch length in cycles (default 1 000, §V-B).
    pub fn epoch_cycles(mut self, cycles: u64) -> Self {
        self.epoch_cycles = cycles;
        self
    }

    /// Pre-training cycles for learning schemes (default 600 000 — the
    /// paper uses 1 M; see DESIGN.md).
    pub fn pretrain_cycles(mut self, cycles: u64) -> Self {
        self.pretrain_cycles = cycles;
        self
    }

    /// Warm-up cycles before measurement, all schemes (default 2 000).
    pub fn warmup_cycles(mut self, cycles: u64) -> Self {
        self.warmup_cycles = cycles;
        self
    }

    /// Caps the measured injection window (default: the workload's full
    /// duration).
    pub fn measure_cycles(mut self, cycles: u64) -> Self {
        self.measure_cycles = Some(cycles);
        self
    }

    /// Cycle budget for draining in-flight traffic (default 200 000).
    pub fn drain_limit(mut self, cycles: u64) -> Self {
        self.drain_limit = cycles;
        self
    }

    /// Timing-error model override.
    pub fn timing(mut self, params: TimingErrorParams) -> Self {
        self.timing = params;
        self
    }

    /// Thermal model override.
    pub fn thermal(mut self, params: ThermalParams) -> Self {
        self.thermal = params;
        self
    }

    /// RL hyper-parameter override (ablations).
    pub fn rl_config(mut self, config: noc_rl::agent::AgentConfig) -> Self {
        self.rl_config = Some(config);
        self
    }

    /// RL state-space override (bin-granularity ablation).
    pub fn rl_state_space(mut self, space: noc_rl::state::StateSpace) -> Self {
        self.rl_state_space = Some(space);
        self
    }

    /// Enables/disables the fleet-coherent forced-mode curriculum during
    /// RL pre-training (default on; off = the paper's literal free
    /// ε-greedy pre-training). See DESIGN.md §5.
    pub fn rl_curriculum(mut self, enabled: bool) -> Self {
        self.rl_curriculum = enabled;
        self
    }

    /// Exploration probability used after pre-training (default 0.01:
    /// ε is annealed from the paper's training value of 0.1 once the
    /// policy has converged; pass 0.1 to keep the paper's constant ε).
    pub fn measurement_epsilon(mut self, epsilon: f64) -> Self {
        self.measurement_epsilon = epsilon;
        self
    }

    /// Preloads a trained RL policy for inference-only runs
    /// (train-once/eval-many). Pre-training is skipped entirely and every
    /// agent is frozen greedy (learning off, ε = 0) before the first
    /// cycle. Only valid with [`ErrorControlScheme::ProposedRl`]; the
    /// snapshot's shape is checked against the mesh and state space at
    /// [`build`](Self::build) time. The `Arc` lets many parallel
    /// evaluation tasks share one snapshot without copying Q-tables per
    /// task.
    pub fn rl_policy(mut self, policy: std::sync::Arc<noc_rl::snapshot::PolicySnapshot>) -> Self {
        self.rl_policy = Some(policy);
        self
    }

    /// Installs a permanent hard-fault schedule (default: none). The
    /// schedule's mesh dimensions must match the NoC configuration;
    /// each event takes effect at the start of its cycle's step and the
    /// network reroutes around the casualty (see `noc_sim`'s
    /// fault-adaptive routing). The `Arc` lets a degradation sweep
    /// share one schedule across many parallel evaluation tasks.
    pub fn hard_faults(mut self, schedule: std::sync::Arc<HardFaultSchedule>) -> Self {
        self.hard_faults = Some(schedule);
        self
    }

    /// Attaches a telemetry handle (default: disabled). An enabled
    /// handle records per-phase span timings in the simulator, ARQ and
    /// TD-update instruments, one [`EpochRecord`] per router per control
    /// epoch, and a wall-clock run summary. Clones share state, so one
    /// handle can aggregate a whole campaign.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Restricts the controller's action set (mode-ablation studies);
    /// modes outside the set fall back to mode 1.
    pub fn allowed_modes(mut self, modes: &[OperationMode]) -> Self {
        self.allowed_modes = [false; 4];
        for &m in modes {
            self.allowed_modes[m.index()] = true;
        }
        self
    }

    /// Finalizes the experiment.
    ///
    /// # Errors
    ///
    /// Returns an error when a field is out of range (zero epoch, invalid
    /// NoC configuration, no allowed modes, …).
    pub fn build(self) -> Result<Experiment, BuildExperimentError> {
        if self.epoch_cycles == 0 {
            return Err(BuildExperimentError("epoch_cycles must be positive"));
        }
        if self.noc.validate().is_err() {
            return Err(BuildExperimentError("invalid NoC configuration"));
        }
        if !self.allowed_modes.iter().any(|&b| b) {
            return Err(BuildExperimentError("at least one mode must be allowed"));
        }
        if self.drain_limit == 0 {
            return Err(BuildExperimentError("drain_limit must be positive"));
        }
        if let Some(policy) = &self.rl_policy {
            if self.scheme != ErrorControlScheme::ProposedRl {
                return Err(BuildExperimentError(
                    "rl_policy requires the ProposedRl scheme",
                ));
            }
            if policy.num_agents() != self.noc.mesh.num_nodes() {
                return Err(BuildExperimentError(
                    "rl_policy agent count does not match the mesh",
                ));
            }
            let num_states = self
                .rl_state_space
                .clone()
                .unwrap_or_else(noc_rl::state::StateSpace::paper_default)
                .num_states();
            if policy.num_states() != num_states {
                return Err(BuildExperimentError(
                    "rl_policy state space does not match the configuration",
                ));
            }
        }
        if let Some(hf) = &self.hard_faults {
            if hf.validate().is_err() {
                return Err(BuildExperimentError("invalid hard-fault schedule"));
            }
            if hf.topo != self.noc.mesh {
                return Err(BuildExperimentError(
                    "hard-fault schedule topology does not match the NoC topology",
                ));
            }
        }
        Ok(Experiment { cfg: self })
    }
}

/// A fully configured, runnable experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    cfg: ExperimentBuilder,
}

impl Experiment {
    /// Starts building an experiment with the paper's defaults.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder {
            scheme: ErrorControlScheme::ProposedRl,
            workload: WorkloadProfile::blackscholes(),
            noc: NocConfig::default(),
            seed: 0,
            epoch_cycles: 1_000,
            pretrain_cycles: 600_000,
            warmup_cycles: 2_000,
            measure_cycles: None,
            drain_limit: 200_000,
            timing: TimingErrorParams::default(),
            thermal: ThermalParams::default(),
            rl_config: None,
            rl_state_space: None,
            measurement_epsilon: 0.01,
            rl_curriculum: true,
            allowed_modes: [true; 4],
            telemetry: Telemetry::disabled(),
            rl_policy: None,
            hard_faults: None,
        }
    }

    /// Runs the experiment to completion and reports the metrics used by
    /// every figure of the paper.
    pub fn run(self) -> ExperimentReport {
        self.run_inspect().0
    }

    /// Like [`run`](Self::run) but also returns the end-of-run artifacts
    /// (learned controllers, thermal state) for inspection.
    pub fn run_inspect(self) -> (ExperimentReport, RunArtifacts) {
        self.run_inspect_with_backend::<Network<FaultTolerantProtocol>>()
    }

    /// Runs the experiment on an alternative data-plane implementation.
    ///
    /// The control plane (curriculum, controllers, thermal/energy
    /// accounting, report assembly) is byte-for-byte the code behind
    /// [`run`](Self::run); only the cycle kernel is swapped. With a
    /// conforming [`SimBackend`] the report must equal the default
    /// backend's — the differential oracle in `rlnoc-verify` checks
    /// exactly this.
    pub fn run_with_backend<B: SimBackend>(self) -> ExperimentReport {
        self.run_inspect_with_backend::<B>().0
    }

    /// [`run_inspect`](Self::run_inspect) on an alternative backend.
    fn run_inspect_with_backend<B: SimBackend>(self) -> (ExperimentReport, RunArtifacts) {
        Runner::<B>::new(self.cfg).run()
    }
}

/// End-of-run state exposed by [`Experiment::run_inspect`].
pub struct RunArtifacts {
    /// The controller bank with whatever it learned.
    pub controllers: ControllerBank,
    /// Final per-router temperatures, °C.
    pub temperatures: Vec<f64>,
}

/// Everything the paper's figures need, from one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Scheme under test.
    pub scheme: ErrorControlScheme,
    /// Workload name.
    pub workload: String,
    /// Master seed.
    pub seed: u64,
    /// Clock frequency (for power conversions).
    pub frequency_hz: f64,
    /// Data packets offered during measurement.
    pub packets_injected: u64,
    /// Data packets delivered intact.
    pub packets_delivered: u64,
    /// Data flits delivered.
    pub flits_delivered: u64,
    /// Mean end-to-end packet latency in cycles (Fig. 8).
    pub avg_latency_cycles: f64,
    /// 99th-percentile latency in cycles.
    pub p99_latency_cycles: u64,
    /// Measured makespan: first injection to last delivery (Fig. 7).
    pub execution_cycles: u64,
    /// Whether the network fully drained within the budget.
    pub drained: bool,
    /// Full-packet source retransmissions.
    pub packet_retransmissions: u64,
    /// Hop-level flit retransmissions.
    pub flit_retransmissions: u64,
    /// Combined retransmission traffic in packet equivalents (Fig. 6).
    pub retransmitted_packets_equiv: f64,
    /// Hop-level NACK signals.
    pub hop_nacks: u64,
    /// Flits corrected in place by link SECDED.
    pub ecc_corrections: u64,
    /// Packets that failed the destination CRC.
    pub crc_failures: u64,
    /// Retransmit-request control packets.
    pub control_packets: u64,
    /// Pre-retransmission copies that rescued a rejected flit.
    pub pre_retransmit_hits: u64,
    /// Accepted packets with corrupted payload (should be ≈0).
    pub silent_corruptions: u64,
    /// Dynamic energy over the measurement, joules (Fig. 10).
    pub dynamic_energy_j: f64,
    /// Static (leakage) energy, joules.
    pub static_energy_j: f64,
    /// Controller energy (Q-table / DT operations), joules.
    pub control_energy_j: f64,
    /// Router-epoch counts of each operation mode during measurement.
    pub mode_histogram: [u64; 4],
    /// Mean router temperature at measurement end, °C.
    pub mean_temperature_c: f64,
    /// Hottest router temperature observed, °C.
    pub max_temperature_c: f64,
    /// Permanent link/router failures applied during measurement.
    pub hard_fault_events: u64,
    /// Fault-adaptive route-table rebuilds.
    pub reroute_events: u64,
    /// Data packets that lost flits (or an endpoint) to a hard fault.
    pub packets_lost_hard_fault: u64,
    /// Data packets refused at injection: endpoints mutually unreachable.
    pub packets_refused_unreachable: u64,
    /// Ordered source/destination pairs unreachable after the last
    /// reroute (0 on a connected mesh).
    pub unreachable_pairs: u64,
}

impl ExperimentReport {
    /// Total energy (dynamic + static + control), joules (Fig. 9).
    pub fn total_energy_j(&self) -> f64 {
        self.dynamic_energy_j + self.static_energy_j + self.control_energy_j
    }

    /// The paper's energy-efficiency metric: delivered flits per joule.
    pub fn energy_efficiency(&self) -> f64 {
        let e = self.total_energy_j();
        if e <= 0.0 {
            0.0
        } else {
            self.flits_delivered as f64 / e
        }
    }

    /// Mean dynamic power over the measured execution, watts.
    pub fn dynamic_power_w(&self) -> f64 {
        if self.execution_cycles == 0 {
            return 0.0;
        }
        self.dynamic_energy_j / (self.execution_cycles as f64 / self.frequency_hz)
    }

    /// Delivered fraction of offered packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.packets_injected == 0 {
            0.0
        } else {
            self.packets_delivered as f64 / self.packets_injected as f64
        }
    }
}

// ---------------------------------------------------------------------------

/// Translates a validated [`HardFaultSchedule`] into the simulator's
/// event representation.
fn hard_fault_events(schedule: &HardFaultSchedule) -> Vec<HardFaultEvent> {
    schedule
        .entries
        .iter()
        .map(|e| HardFaultEvent {
            cycle: e.cycle,
            kind: match e.fault {
                HardFault::Link { node, dir } => HardFaultKind::Link {
                    node: noc_sim::topology::NodeId(node),
                    dir,
                },
                HardFault::Router { node } => HardFaultKind::Router {
                    node: noc_sim::topology::NodeId(node),
                },
            },
        })
        .collect()
}

/// Internal run state, generic over the data-plane kernel (see
/// [`SimBackend`]).
struct Runner<B: SimBackend> {
    cfg: ExperimentBuilder,
    net: B,
    thermal: ThermalModel,
    energy: EnergyModel,
    controllers: ControllerBank,
    last_counters: Vec<EventCounters>,
    last_latency: Vec<f64>,
    modes: Vec<OperationMode>,
    dynamic_j: f64,
    static_j: f64,
    control_j: f64,
    mode_histogram: [u64; 4],
    max_temp: f64,
    epoch_count: u64,
    /// Reusable per-epoch scratch buffers (features, rewards, tile
    /// powers, utilizations): cleared and refilled at every control
    /// epoch so the steady-state control loop allocates nothing.
    epoch_features: Vec<RouterFeatures>,
    epoch_rewards: Vec<f64>,
    epoch_tile_powers: Vec<f64>,
    epoch_utilizations: Vec<f64>,
    telemetry: Telemetry,
    run_id: RunId,
    phase: Phase,
}

impl<B: SimBackend> Runner<B> {
    fn new(cfg: ExperimentBuilder) -> Self {
        let mesh = cfg.noc.mesh;
        let n = mesh.num_nodes();
        let variation = VariationMap::generate(
            mesh.width(),
            mesh.height(),
            VARIATION_SIGMAS.0,
            VARIATION_SIGMAS.1,
            cfg.seed ^ 0x5EED_0001,
        );
        let net = B::build(
            cfg.noc,
            TimingErrorModel::new(cfg.timing),
            variation,
            cfg.seed ^ 0x5EED_0002,
            cfg.seed ^ 0x5EED_0003,
        );
        let thermal = ThermalModel::new(mesh.width(), mesh.height(), cfg.thermal);
        let controllers = match cfg.scheme {
            ErrorControlScheme::StaticCrc => ControllerBank::statically(OperationMode::Mode0),
            ErrorControlScheme::StaticArqEcc => ControllerBank::statically(OperationMode::Mode1),
            ErrorControlScheme::DecisionTree => ControllerBank::dt(DtThresholds::default()),
            ErrorControlScheme::ProposedRl => {
                let config = cfg.rl_config.clone().unwrap_or_else(|| {
                    // Paper hyper-parameters (zero-initialized Q-table)
                    // with a learning rate that starts high and decays to
                    // the paper's 0.1 ("α can be reduced over time",
                    // §IV-A). Exploration of all four modes is guaranteed
                    // by the pre-training curriculum, not optimism —
                    // optimistic initialization leaks through the
                    // bootstrap term and drowns the reward signal.
                    noc_rl::agent::AgentConfig {
                        alpha: noc_rl::schedule::Schedule::Exponential {
                            from: 0.4,
                            decay: 0.997,
                            floor: 0.1,
                        },
                        // Safe default (mode 1) for states with <2 covered
                        // actions — see DESIGN.md §5.
                        fallback_action: Some(1),
                        ..noc_rl::agent::AgentConfig::paper_default()
                    }
                });
                let space = cfg
                    .rl_state_space
                    .clone()
                    .unwrap_or_else(noc_rl::state::StateSpace::paper_default);
                let mut bank = ControllerBank::rl_with(n, cfg.seed ^ 0x5EED_0004, config, space);
                if let Some(policy) = &cfg.rl_policy {
                    bank.load_policy((**policy).clone())
                        .expect("policy shape validated at build time");
                    bank.freeze();
                }
                bank
            }
        };
        let initial_mode = match cfg.scheme {
            ErrorControlScheme::StaticArqEcc | ErrorControlScheme::DecisionTree => {
                OperationMode::Mode1
            }
            _ => OperationMode::Mode0,
        };
        let telemetry = cfg.telemetry.clone();
        let mut runner = Self {
            cfg,
            net,
            thermal,
            energy: EnergyModel::default(),
            controllers,
            last_counters: vec![EventCounters::default(); n],
            last_latency: vec![30.0; n],
            modes: vec![initial_mode; n],
            dynamic_j: 0.0,
            static_j: 0.0,
            control_j: 0.0,
            mode_histogram: [0; 4],
            max_temp: 0.0,
            epoch_count: 0,
            epoch_features: Vec::with_capacity(n),
            epoch_rewards: Vec::with_capacity(n),
            epoch_tile_powers: Vec::with_capacity(n),
            epoch_utilizations: Vec::with_capacity(n),
            telemetry,
            run_id: RunId::DISABLED,
            phase: Phase::Measure,
        };
        runner.net.set_telemetry(&runner.telemetry);
        runner.controllers.set_telemetry(&runner.telemetry);
        runner.net.set_all_modes(initial_mode);
        if let Some(schedule) = &runner.cfg.hard_faults {
            runner.net.set_hard_faults(hard_fault_events(schedule));
        }
        runner
    }

    /// Runs the paper's flow to completion — pre-train, warm up, measure,
    /// drain — and hands back the report with the end-of-run artifacts.
    fn run(mut self) -> (ExperimentReport, RunArtifacts) {
        self.run_id = self.telemetry.begin_run(&format!(
            "{}/{}/seed{}",
            self.cfg.scheme, self.cfg.workload.name, self.cfg.seed
        ));
        let start_cycle = self.net.cycle();
        self.phase = Phase::Pretrain;
        // Phase 1: pre-training (learning schemes). The synthetic traffic
        // intensity tracks the workload's mean so the visited state bins
        // match the measurement phase.
        let synthetic_rate = self.cfg.workload.mean_injection_rate().clamp(0.002, 0.03);
        // A preloaded (frozen) RL policy skips pre-training entirely:
        // the run is inference-only.
        if self.cfg.scheme.is_learning()
            && self.cfg.pretrain_cycles > 0
            && self.cfg.rl_policy.is_none()
        {
            let mut source = SyntheticSource::new(
                self.cfg.noc.mesh,
                TrafficPattern::UniformRandom,
                synthetic_rate,
                self.cfg.seed ^ 0x5EED_0005,
            );
            if self.controllers.is_rl() && self.cfg.rl_curriculum {
                self.pretrain_curriculum(&mut source);
            } else {
                self.drive(self.cfg.pretrain_cycles, &mut source, true);
            }
            self.finish_pretrain();
        }
        // Phase 2: warm-up (all schemes).
        self.phase = Phase::Warmup;
        if self.cfg.warmup_cycles > 0 {
            let mut source = SyntheticSource::new(
                self.cfg.noc.mesh,
                TrafficPattern::UniformRandom,
                synthetic_rate,
                self.cfg.seed ^ 0x5EED_0006,
            );
            self.drive(self.cfg.warmup_cycles, &mut source, false);
        }
        // Drain leftovers, then clear the books.
        self.drain();
        self.reset_accounting();

        // Phase 3: measurement.
        self.phase = Phase::Measure;
        let measure_start = self.net.cycle();
        let window = self
            .cfg
            .measure_cycles
            .unwrap_or(u64::MAX)
            .min(self.cfg.workload.duration_cycles);
        let mut source = self
            .cfg
            .workload
            .source(self.cfg.noc.mesh, self.cfg.seed ^ 0x5EED_0007);
        self.drive(window, &mut source, false);
        let drained = self.drain();
        // Account the final partial epoch.
        self.control_epoch(false);
        self.telemetry
            .finish_run(self.run_id, self.net.cycle().saturating_sub(start_cycle));
        let report = self.assemble_report(drained, measure_start);
        (
            report,
            RunArtifacts {
                controllers: self.controllers,
                temperatures: self.thermal.temperatures().to_vec(),
            },
        )
    }

    /// RL pre-training under the forced-mode curriculum.
    fn pretrain_curriculum(&mut self, source: &mut SyntheticSource) {
        // Curriculum: for the first two-thirds of the budget the whole
        // fleet is forced through the allowed modes, cycling one mode
        // per epoch. Fleet-coherent forcing exposes each mode's
        // *collective* value (a lone agent's deviation barely moves its
        // own reward), and per-epoch interleaving samples every
        // recurring state under every action — including congestion
        // states that only arise under a particular mode. The final
        // third is free ε-greedy refinement.
        let allowed: Vec<OperationMode> = OperationMode::ALL
            .into_iter()
            .filter(|m| self.cfg.allowed_modes[m.index()])
            .collect();
        let forced_epochs = (self.cfg.pretrain_cycles * 2 / 3) / self.cfg.epoch_cycles;
        // The forced mode is drawn at random per 4-epoch block: random
        // (not cyclic) so states — which partly encode the previous
        // mode through the NACK features — do not correlate with one
        // action; blocks (not single epochs) so a mode's delayed damage
        // (retransmissions delivering an epoch later) is still credited
        // to the mode that caused it.
        use rand::{Rng, SeedableRng};
        let mut curriculum_rng = rand::rngs::SmallRng::seed_from_u64(self.cfg.seed ^ 0x5EED_0008);
        const BLOCK_EPOCHS: u64 = 4;
        let mut remaining = forced_epochs;
        while remaining > 0 {
            let mode = allowed[curriculum_rng.gen_range(0..allowed.len())];
            self.controllers.set_forced_mode(Some(mode));
            let block = BLOCK_EPOCHS.min(remaining);
            self.drive(block * self.cfg.epoch_cycles, source, true);
            remaining -= block;
        }
        self.controllers.set_forced_mode(None);
        self.drive(
            self.cfg
                .pretrain_cycles
                .saturating_sub(forced_epochs * self.cfg.epoch_cycles),
            source,
            true,
        );
    }

    /// Pre-training → warm-up transition: fits the DT on the collected
    /// samples and pins the measurement exploration rate.
    fn finish_pretrain(&mut self) {
        if self.controllers.is_dt() {
            self.controllers.train_dt();
        }
        self.controllers
            .set_epsilon(noc_rl::schedule::Schedule::Constant(
                self.cfg.measurement_epsilon,
            ));
    }

    /// Assembles the final report after the measurement drain.
    fn assemble_report(&self, drained: bool, measure_start: u64) -> ExperimentReport {
        let stats = self.net.stats();
        let execution_cycles = if stats.packets_delivered > 0 {
            stats.last_delivery_cycle.saturating_sub(measure_start)
        } else {
            self.net.cycle().saturating_sub(measure_start)
        };
        let temps = self.thermal.temperatures();
        let mean_temp = temps.iter().sum::<f64>() / temps.len() as f64;
        ExperimentReport {
            scheme: self.cfg.scheme,
            workload: self.cfg.workload.name.to_string(),
            seed: self.cfg.seed,
            frequency_hz: self.cfg.noc.frequency,
            packets_injected: stats.packets_injected,
            packets_delivered: stats.packets_delivered,
            flits_delivered: stats.flits_delivered,
            avg_latency_cycles: stats.latency.mean(),
            p99_latency_cycles: stats.latency.percentile(0.99),
            execution_cycles,
            drained,
            packet_retransmissions: stats.packet_retransmissions,
            flit_retransmissions: stats.flit_retransmissions,
            retransmitted_packets_equiv: stats
                .retransmitted_packets_equivalent(self.cfg.noc.flits_per_packet),
            hop_nacks: stats.hop_nacks,
            ecc_corrections: stats.ecc_corrections,
            crc_failures: stats.packets_failed_crc,
            control_packets: stats.control_packets,
            pre_retransmit_hits: stats.pre_retransmit_hits,
            silent_corruptions: stats.silent_corruptions,
            dynamic_energy_j: self.dynamic_j,
            static_energy_j: self.static_j,
            control_energy_j: self.control_j,
            mode_histogram: self.mode_histogram,
            mean_temperature_c: mean_temp,
            max_temperature_c: self.max_temp,
            hard_fault_events: stats.hard_fault_events,
            reroute_events: stats.reroute_events,
            packets_lost_hard_fault: stats.packets_lost_hard_fault,
            packets_refused_unreachable: stats.packets_refused_unreachable,
            unreachable_pairs: stats.unreachable_pairs,
        }
    }

    /// Runs `cycles` cycles, offering traffic from `source` and executing
    /// the control loop at every epoch boundary. It steps in chunks that
    /// end at the next boundary, so the boundary test costs one division
    /// per epoch, not one per cycle.
    fn drive(&mut self, cycles: u64, source: &mut SyntheticSource, pretrain: bool) {
        let mut left = cycles;
        while left > 0 {
            let to_boundary = self.cfg.epoch_cycles - self.net.cycle() % self.cfg.epoch_cycles;
            let chunk = to_boundary.min(left);
            for _ in 0..chunk {
                let net = &mut self.net;
                source.generate(net.cycle(), &mut |s, d| {
                    net.offer(s, d);
                });
                self.net.step();
            }
            left -= chunk;
            if chunk == to_boundary {
                self.control_epoch(pretrain);
            }
        }
    }

    /// Drains in-flight traffic (no new offers); returns `true` on full
    /// quiescence.
    fn drain(&mut self) -> bool {
        for _ in 0..self.cfg.drain_limit / self.cfg.epoch_cycles + 1 {
            if self.net.is_quiescent() {
                return true;
            }
            for _ in 0..self.cfg.epoch_cycles {
                self.net.step();
                if self.net.is_quiescent() {
                    break;
                }
            }
            self.control_epoch(false);
        }
        self.net.is_quiescent()
    }

    /// Zeroes all measurement accounting (after warm-up).
    fn reset_accounting(&mut self) {
        self.net.reset_stats();
        self.net.reset_epoch_stats();
        for c in &mut self.last_counters {
            c.reset();
        }
        self.dynamic_j = 0.0;
        self.static_j = 0.0;
        self.control_j = 0.0;
        self.mode_histogram = [0; 4];
        self.max_temp = 0.0;
    }

    /// Per-router local hard-fault degree at the current cycle: the
    /// fraction of each router's existing compass links that have
    /// permanently failed (`1.0` for a dead router), or `None` without a
    /// schedule. Computed from the *schedule* — not queried from the
    /// backend — so the production and reference data planes feed the
    /// controllers byte-identical features by construction. An event
    /// applies at the start of its cycle's step, so after stepping
    /// cycle `c` every event with `cycle <= c` (strictly `< cycle()`)
    /// is in force.
    fn fault_degrees(&self) -> Option<Vec<f64>> {
        let schedule = self.cfg.hard_faults.as_ref()?;
        let now = self.net.cycle();
        let mesh = self.cfg.noc.mesh;
        let n = mesh.num_nodes();
        let mut node_dead = vec![false; n];
        let mut link_dead = vec![[false; noc_sim::topology::MAX_PORTS]; n];
        let kill_link = |link_dead: &mut Vec<[bool; noc_sim::topology::MAX_PORTS]>,
                         node: usize,
                         dir: Direction| {
            if let Some(peer) = mesh.neighbor(noc_sim::topology::NodeId(node as u16), dir) {
                link_dead[node][dir.index()] = true;
                link_dead[peer.index()][dir.opposite().index()] = true;
            }
        };
        for e in schedule.entries.iter().take_while(|e| e.cycle < now) {
            match e.fault {
                HardFault::Link { node, dir } => {
                    kill_link(&mut link_dead, usize::from(node), dir);
                }
                HardFault::Router { node } => {
                    let node = usize::from(node);
                    node_dead[node] = true;
                    for &dir in mesh.compass() {
                        kill_link(&mut link_dead, node, dir);
                    }
                }
            }
        }
        let degrees = (0..n)
            .map(|i| {
                if node_dead[i] {
                    return 1.0;
                }
                let mut existing = 0u32;
                let mut dead = 0u32;
                for &dir in mesh.compass() {
                    if mesh
                        .neighbor(noc_sim::topology::NodeId(i as u16), dir)
                        .is_some()
                    {
                        existing += 1;
                        if link_dead[i][dir.index()] {
                            dead += 1;
                        }
                    }
                }
                if existing == 0 {
                    0.0
                } else {
                    f64::from(dead) / f64::from(existing)
                }
            })
            .collect();
        Some(degrees)
    }

    /// The per-epoch control loop: features → reward → mode decision →
    /// thermal step → energy accounting.
    fn control_epoch(&mut self, pretrain: bool) {
        let n = self.cfg.noc.mesh.num_nodes();
        self.net.finish_epoch();
        let epoch_stats = self.net.epoch_stats();
        let elapsed = epoch_stats[0].cycles;
        if elapsed == 0 {
            return;
        }
        let epoch_time = elapsed as f64 / self.cfg.noc.frequency;

        // Take the reusable scratch buffers (returned before the epoch
        // counter advances) so repeated epochs reuse their capacity.
        let mut features = std::mem::take(&mut self.epoch_features);
        let mut rewards = std::mem::take(&mut self.epoch_rewards);
        let mut tile_powers = std::mem::take(&mut self.epoch_tile_powers);
        let mut utilizations = std::mem::take(&mut self.epoch_utilizations);
        features.clear();
        rewards.clear();
        tile_powers.clear();
        utilizations.clear();
        let fault_degrees = self.fault_degrees();
        {
            let counters = self.net.counters();
            for i in 0..n {
                let es = &epoch_stats[i];
                let f = RouterFeatures {
                    buffer_occupancy: es.mean_buffer_occupancy(),
                    input_utilization: es.mean_input_utilization(),
                    output_utilization: es.mean_output_utilization(),
                    input_nack_rate: es.input_nack_rate(),
                    output_nack_rate: es.output_nack_rate(),
                    temperature_c: self.thermal.temperature(i),
                    fault_degree: fault_degrees.as_ref().map_or(0.0, |d| d[i]),
                };
                let dyn_e = self.energy.dynamic_energy(&counters[i])
                    - self.energy.dynamic_energy(&self.last_counters[i]);
                let static_p = self.energy.static_power(&self.static_config(self.modes[i]));
                let router_power = dyn_e / epoch_time + static_p;
                let latency = es.mean_traversal_latency(self.last_latency[i]);
                self.last_latency[i] = latency;
                // Eq. (3): r = [E2E-latency(i) · Power(i)]⁻¹, scaled so a
                // nominal healthy router (≈30 cycles, ≈15 mW) earns ≈1.
                let reward = REWARD_SCALE / (latency * router_power).max(1e-9);
                let local_flits = es.core_activity_flits as f64 / elapsed as f64;
                let tile_power = CORE_IDLE_POWER + CORE_POWER_PER_FLIT * local_flits + router_power;
                features.push(f);
                rewards.push(reward);
                tile_powers.push(tile_power);
                utilizations.push(es.mean_output_utilization());
                self.dynamic_j += dyn_e;
                self.static_j += static_p * epoch_time;
                self.last_counters[i] = counters[i].clone();
            }
        }

        // DT pre-training collects (features, oracle error rate) samples.
        // The oracle rates come straight from the protocol's per-epoch
        // cache — one slice borrow, no per-router VARIUS evaluation.
        if pretrain && self.controllers.is_dt() {
            let rates = self.net.raw_error_probabilities();
            for (i, f) in features.iter().enumerate() {
                self.controllers.record_dt_sample(DtSample {
                    features: *f,
                    error_rate: rates[i],
                });
            }
        }

        // Decide modes and apply them.
        let mut updates = 0;
        for i in 0..n {
            let mut mode = self.controllers.decide(i, &features[i], rewards[i]);
            if !self.cfg.allowed_modes[mode.index()] {
                mode = OperationMode::Mode1;
            }
            self.modes[i] = mode;
            self.net.set_mode(i, mode);
            self.mode_histogram[mode.index()] += 1;
            updates += 1;
        }
        self.control_j += self.energy.control_energy(
            updates,
            if self.controllers.is_rl() { updates } else { 0 },
            self.controllers.is_dt(),
        );

        // Advance the physical substrate.
        self.thermal
            .update_with_telemetry(&tile_powers, epoch_time, &self.telemetry);
        for &t in self.thermal.temperatures() {
            self.max_temp = self.max_temp.max(t);
        }
        self.net.set_temperatures(self.thermal.temperatures());
        self.net.set_utilizations(&utilizations);

        // Export one record per router into the telemetry epoch series.
        if self.telemetry.is_enabled() {
            for i in 0..n {
                let (epsilon, max_q_delta) = self.controllers.learning_signals(i);
                self.telemetry.record_epoch(EpochRecord {
                    run: self.run_id,
                    phase: self.phase,
                    epoch: self.epoch_count,
                    router: i as u16,
                    utilization: features[i].output_utilization,
                    nack_rate: features[i].output_nack_rate,
                    temperature_c: self.thermal.temperature(i),
                    mode: self.modes[i].index() as u8,
                    reward: rewards[i],
                    epsilon,
                    max_q_delta,
                });
            }
        }

        self.net.reset_epoch_stats();
        self.epoch_features = features;
        self.epoch_rewards = rewards;
        self.epoch_tile_powers = tile_powers;
        self.epoch_utilizations = utilizations;
        self.epoch_count += 1;
    }

    fn static_config(&self, mode: OperationMode) -> StaticConfig {
        let base = match self.cfg.scheme {
            ErrorControlScheme::StaticCrc => StaticConfig::crc_router(),
            ErrorControlScheme::StaticArqEcc => StaticConfig::arq_router(),
            ErrorControlScheme::DecisionTree => StaticConfig::dt_router(),
            ErrorControlScheme::ProposedRl => StaticConfig::rl_router(),
        };
        // Dynamic schemes gate the ECC link codecs with the mode.
        if self.cfg.scheme.is_learning() {
            StaticConfig {
                ecc_links_enabled: if mode.ecc_enabled() { 4 } else { 0 },
                ..base
            }
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast configuration for unit tests.
    fn quick(scheme: ErrorControlScheme) -> ExperimentReport {
        Experiment::builder()
            .scheme(scheme)
            .workload(WorkloadProfile::blackscholes())
            .noc(NocConfig::builder().mesh(4, 4).build())
            .pretrain_cycles(6_000)
            .warmup_cycles(1_000)
            .measure_cycles(6_000)
            .drain_limit(40_000)
            .seed(11)
            .build()
            .expect("valid test configuration")
            .run()
    }

    #[test]
    fn drive_runs_one_control_epoch_per_boundary_it_crosses() {
        const EPOCH: u64 = 7;
        let cfg = Experiment::builder()
            .scheme(ErrorControlScheme::StaticArqEcc)
            .noc(NocConfig::builder().mesh(3, 3).build())
            .epoch_cycles(EPOCH)
            .seed(5)
            .build()
            .expect("valid test configuration")
            .cfg;
        let mesh = cfg.noc.mesh;
        let mut runner = Runner::<Network<FaultTolerantProtocol>>::new(cfg);
        let mut source = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.05, 9);
        runner.drive(40, &mut source, false);
        assert!(runner.drain(), "light load drains");
        assert_ne!(
            runner.net.cycle() % EPOCH,
            0,
            "the drain stops off a boundary"
        );
        // `0` stands for the cycles left to the next boundary, so the run
        // after it starts on one.
        for n in [3, 0, EPOCH, 1, 20, 0, 2 * EPOCH + 5, 1, 0] {
            let c0 = runner.net.cycle();
            let n = if n == 0 { EPOCH - c0 % EPOCH } else { n };
            let before = runner.epoch_count;
            runner.drive(n, &mut source, false);
            assert_eq!(runner.net.cycle(), c0 + n);
            assert_eq!(
                runner.epoch_count - before,
                (c0 + n) / EPOCH - c0 / EPOCH,
                "drive({n}) from cycle {c0}"
            );
        }
        assert_eq!(runner.net.cycle() % EPOCH, 0);
    }

    #[test]
    fn crc_scheme_runs_and_delivers() {
        let r = quick(ErrorControlScheme::StaticCrc);
        assert!(r.packets_injected > 0);
        assert!(r.drained, "network must drain");
        assert_eq!(r.packets_delivered, r.packets_injected);
        assert!(r.avg_latency_cycles > 0.0);
        assert!(r.total_energy_j() > 0.0);
        assert_eq!(r.mode_histogram[1..], [0, 0, 0], "CRC never leaves mode 0");
        assert_eq!(r.ecc_corrections, 0, "no ECC hardware in CRC scheme");
    }

    #[test]
    fn arq_scheme_corrects_and_rarely_fails_crc() {
        let r = quick(ErrorControlScheme::StaticArqEcc);
        assert!(r.drained);
        assert_eq!(r.packets_delivered, r.packets_injected);
        assert_eq!(r.mode_histogram[0], 0, "ARQ never uses mode 0");
        assert_eq!(r.mode_histogram[2], 0);
    }

    #[test]
    fn rl_scheme_runs_with_all_modes_available() {
        let r = quick(ErrorControlScheme::ProposedRl);
        assert!(r.drained);
        assert_eq!(r.packets_delivered, r.packets_injected);
        let total: u64 = r.mode_histogram.iter().sum();
        assert!(total > 0, "control loop executed");
    }

    #[test]
    fn dt_scheme_trains_and_runs() {
        let r = quick(ErrorControlScheme::DecisionTree);
        assert!(r.drained);
        assert_eq!(r.packets_delivered, r.packets_injected);
    }

    #[test]
    fn reports_are_reproducible() {
        let a = quick(ErrorControlScheme::ProposedRl);
        let b = quick(ErrorControlScheme::ProposedRl);
        assert_eq!(a, b, "identical seeds must give identical reports");
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick(ErrorControlScheme::StaticCrc);
        let b = Experiment::builder()
            .scheme(ErrorControlScheme::StaticCrc)
            .workload(WorkloadProfile::blackscholes())
            .noc(NocConfig::builder().mesh(4, 4).build())
            .pretrain_cycles(6_000)
            .warmup_cycles(1_000)
            .measure_cycles(6_000)
            .drain_limit(40_000)
            .seed(12)
            .build()
            .expect("valid")
            .run();
        assert_ne!(a.packets_injected, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn energy_efficiency_is_positive_and_finite() {
        let r = quick(ErrorControlScheme::StaticArqEcc);
        let eff = r.energy_efficiency();
        assert!(eff.is_finite() && eff > 0.0);
        assert!(r.dynamic_power_w() > 0.0);
        assert!((0.99..=1.0).contains(&r.delivery_ratio()));
    }

    #[test]
    fn temperatures_in_plausible_band() {
        let r = quick(ErrorControlScheme::StaticCrc);
        assert!(
            (45.0..120.0).contains(&r.mean_temperature_c),
            "mean temperature {}",
            r.mean_temperature_c
        );
        assert!(r.max_temperature_c >= r.mean_temperature_c);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(Experiment::builder().epoch_cycles(0).build().is_err());
        assert!(Experiment::builder().drain_limit(0).build().is_err());
        assert!(Experiment::builder().allowed_modes(&[]).build().is_err());
    }

    #[test]
    fn mode_ablation_restricts_action_set() {
        let r = Experiment::builder()
            .scheme(ErrorControlScheme::ProposedRl)
            .workload(WorkloadProfile::blackscholes())
            .noc(NocConfig::builder().mesh(4, 4).build())
            .pretrain_cycles(4_000)
            .warmup_cycles(1_000)
            .measure_cycles(4_000)
            .allowed_modes(&[OperationMode::Mode0, OperationMode::Mode1])
            .seed(3)
            .build()
            .expect("valid")
            .run();
        assert_eq!(r.mode_histogram[2], 0);
        assert_eq!(r.mode_histogram[3], 0);
    }

    #[test]
    fn telemetry_records_epochs_runs_and_spans() {
        let telemetry = Telemetry::enabled();
        let report = Experiment::builder()
            .scheme(ErrorControlScheme::ProposedRl)
            .workload(WorkloadProfile::blackscholes())
            .noc(NocConfig::builder().mesh(4, 4).build())
            .pretrain_cycles(4_000)
            .warmup_cycles(1_000)
            .measure_cycles(4_000)
            .drain_limit(40_000)
            .seed(11)
            .telemetry(telemetry.clone())
            .build()
            .expect("valid test configuration")
            .run();

        // One record per router per control epoch, covering every router.
        let records = telemetry.epoch_records();
        assert!(!records.is_empty());
        assert_eq!(records.len() % 16, 0, "records come in full-mesh batches");
        let routers: std::collections::BTreeSet<u16> = records.iter().map(|r| r.router).collect();
        assert_eq!(routers.len(), 16, "all routers covered");
        for r in &records {
            assert!((0.0..=1.0).contains(&r.utilization), "utilization {r:?}");
            assert!((0.0..=1.0).contains(&r.nack_rate));
            assert!(r.temperature_c > 0.0 && r.temperature_c < 200.0);
            assert!(r.mode < 4);
            assert!(r.reward.is_finite());
            assert!((0.0..=1.0).contains(&r.epsilon));
            assert!(r.max_q_delta >= 0.0);
        }
        assert!(
            records
                .iter()
                .any(|r| r.phase == rlnoc_telemetry::Phase::Pretrain),
            "pretrain epochs recorded"
        );
        assert!(
            records
                .iter()
                .any(|r| r.phase == rlnoc_telemetry::Phase::Measure),
            "measurement epochs recorded"
        );

        // Run summary: wall clock and simulated-cycle throughput.
        let runs = telemetry.run_summaries();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "RL/blackscholes/seed11");
        assert!(runs[0].cycles > 0);
        assert!(runs[0].wall_seconds > 0.0);

        // Hot-path instruments saw traffic.
        let cycles = telemetry.counter("sim.cycles").get();
        assert_eq!(runs[0].cycles, cycles, "run cycles match the counter");
        assert!(telemetry.timer("sim.phase.sa_st").snapshot().count >= cycles);
        assert!(telemetry.timer("rl.td_update").snapshot().count > 0);
        assert!(telemetry.timer("thermal.update").snapshot().count > 0);

        // Telemetry must not perturb the simulation itself: the same
        // configuration without telemetry produces an identical report.
        let bare = Experiment::builder()
            .scheme(ErrorControlScheme::ProposedRl)
            .workload(WorkloadProfile::blackscholes())
            .noc(NocConfig::builder().mesh(4, 4).build())
            .pretrain_cycles(4_000)
            .warmup_cycles(1_000)
            .measure_cycles(4_000)
            .drain_limit(40_000)
            .seed(11)
            .build()
            .expect("valid test configuration")
            .run();
        assert_eq!(report, bare, "telemetry must be observation-only");
    }

    #[test]
    fn rl_policy_preload_skips_pretraining_and_is_deterministic() {
        use std::sync::Arc;
        // Train once, snapshot the learned policy.
        let (_, artifacts) = Experiment::builder()
            .scheme(ErrorControlScheme::ProposedRl)
            .workload(WorkloadProfile::blackscholes())
            .noc(NocConfig::builder().mesh(4, 4).build())
            .pretrain_cycles(6_000)
            .warmup_cycles(1_000)
            .measure_cycles(4_000)
            .drain_limit(40_000)
            .seed(11)
            .build()
            .expect("valid")
            .run_inspect();
        let policy = Arc::new(
            artifacts
                .controllers
                .policy_snapshot()
                .expect("RL bank snapshots"),
        );

        // Evaluate twice with the frozen policy: identical reports, and
        // no TD updates during the run (inference only).
        let eval = |seed: u64| {
            Experiment::builder()
                .scheme(ErrorControlScheme::ProposedRl)
                .workload(WorkloadProfile::blackscholes())
                .noc(NocConfig::builder().mesh(4, 4).build())
                .pretrain_cycles(6_000) // ignored: policy preloaded
                .warmup_cycles(1_000)
                .measure_cycles(4_000)
                .drain_limit(40_000)
                .seed(seed)
                .rl_policy(Arc::clone(&policy))
                .build()
                .expect("valid")
                .run_inspect()
        };
        let (a, art_a) = eval(23);
        let (b, _) = eval(23);
        assert_eq!(a, b, "inference runs are reproducible");
        assert!(a.drained);
        assert_eq!(a.packets_delivered, a.packets_injected);
        let (loaded, _) = art_a.controllers.rl_agents().expect("rl bank");
        assert!(
            loaded.iter().all(|ag| !ag.learning_enabled()),
            "preloaded agents stay frozen"
        );
        let trained_updates: u64 = artifacts
            .controllers
            .rl_agents()
            .unwrap()
            .0
            .iter()
            .map(|ag| ag.q_table().updates())
            .sum();
        let eval_updates: u64 = loaded.iter().map(|ag| ag.q_table().updates()).sum();
        assert_eq!(
            eval_updates, trained_updates,
            "no TD updates during inference"
        );
    }

    #[test]
    fn rl_policy_preload_is_validated_at_build_time() {
        use std::sync::Arc;
        let small = Arc::new(noc_rl::snapshot::PolicySnapshot::new(vec![
            noc_rl::qtable::QTable::new(
                10
            );
            4
        ]));
        // Wrong scheme.
        assert!(Experiment::builder()
            .scheme(ErrorControlScheme::StaticCrc)
            .rl_policy(Arc::clone(&small))
            .build()
            .is_err());
        // Wrong agent count for the 8x8 default mesh.
        assert!(Experiment::builder()
            .scheme(ErrorControlScheme::ProposedRl)
            .rl_policy(Arc::clone(&small))
            .build()
            .is_err());
        // Wrong state-space size for a 2x2 mesh.
        assert!(Experiment::builder()
            .scheme(ErrorControlScheme::ProposedRl)
            .noc(NocConfig::builder().mesh(2, 2).build())
            .rl_policy(small)
            .build()
            .is_err());
    }

    #[test]
    fn scheme_display_and_variants() {
        assert_eq!(ErrorControlScheme::StaticCrc.to_string(), "CRC");
        assert_eq!(ErrorControlScheme::ProposedRl.to_string(), "RL");
        assert!(ErrorControlScheme::ProposedRl.is_learning());
        assert!(!ErrorControlScheme::StaticArqEcc.is_learning());
    }
}
