//! Differential fuzz cases: generation, replayable serialization, and
//! report diffing.
//!
//! The `rlnoc-verify` oracle runs the optimized kernel and a reference
//! kernel on the *same* randomly drawn configuration and demands
//! bit-identical [`ExperimentReport`]s. This module owns the pieces that
//! belong to the core crate: the case description itself (everything
//! needed to rebuild the [`Experiment`]), a stable text serialization so
//! a failing case can be committed and replayed, and a field-by-field
//! report differ whose output names exactly which metric diverged.
//!
//! ## Case-file format (`rlnoc-case v1`)
//!
//! Plain text, one `key=value` per line, CRC-32 trailer over everything
//! above it (the same corruption armor as the runner's checkpoints):
//!
//! ```text
//! rlnoc-case v1
//! mesh=3x2
//! scheme=RL
//! ...
//! ```
//!
//! The `mesh=` line carries a topology-zoo encoding (`3x2`,
//! `torus:4x4`, `ftorus:3x3`, `3d:4x2x2`), so plain-mesh case files
//! keep the original byte layout:
//!
//! ```text
//! rlnoc-case v1
//! mesh=3x2
//! scheme=RL
//! workload=canneal
//! seed=00000000deadbeef
//! epoch=500
//! pretrain=2000
//! warmup=500
//! measure=4000
//! drain=50000
//! modes=1011
//! p_ref_scale=3fd0000000000000
//! ambient=4044000000000000
//! hardfaults=2 1 00000000c0ffee00
//! crc=4a17c3b2
//! ```
//!
//! Floats are serialized as f64 bit patterns in hex so a replay is
//! exact, not merely close. The `hardfaults` line is optional (absent =
//! fault-free run); it stores the *generation parameters* — link-fault
//! quota, router-fault quota, schedule seed — and the replay regenerates
//! the identical [`HardFaultSchedule`]
//! deterministically, which keeps case files small and the format v1.

use crate::benchmarks::WorkloadProfile;
use crate::experiment::{ErrorControlScheme, Experiment, ExperimentReport};
use noc_coding::textfmt::{self, Lines, TextError, Trailer};
use noc_fault::hardfault::HardFaultSchedule;
use noc_fault::thermal::ThermalParams;
use noc_fault::timing::TimingErrorParams;
use noc_sim::config::NocConfig;
use noc_sim::flit::splitmix64;
use noc_sim::topology::{FoldedTorus, Mesh, Mesh3d, Topo, Torus};
use std::fmt::Write as _;

/// Everything needed to rebuild one differential experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Topology under test (projection dimensions ≥ 2).
    pub topo: Topo,
    /// Error-control scheme under test.
    pub scheme: ErrorControlScheme,
    /// PARSEC workload name (resolved via [`WorkloadProfile::all`]).
    pub workload: String,
    /// Master experiment seed.
    pub seed: u64,
    /// Control-epoch length in cycles.
    pub epoch_cycles: u64,
    /// Pre-training budget (learning schemes).
    pub pretrain_cycles: u64,
    /// Warm-up cycles.
    pub warmup_cycles: u64,
    /// Measurement injection window.
    pub measure_cycles: u64,
    /// Drain budget.
    pub drain_limit: u64,
    /// Mode-ablation schedule: which of the four operation modes the
    /// controller may select.
    pub allowed_modes: [bool; 4],
    /// Multiplier on the timing model's `p_ref` (the fault pattern:
    /// from nearly fault-free to error storms).
    pub p_ref_scale: f64,
    /// Thermal ambient, °C (shifts the whole temperature field).
    pub ambient_c: f64,
    /// Hard-fault generation parameters: `(link_faults, router_faults,
    /// schedule_seed)`, or `None` for a fault-free run. The schedule
    /// itself is regenerated deterministically via
    /// [`HardFaultSchedule::random`] over the full run window.
    pub hard_faults: Option<(u16, u16, u64)>,
}

/// A parse/validation failure for a case file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCaseError(pub String);

impl std::fmt::Display for ParseCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid case file: {}", self.0)
    }
}

impl std::error::Error for ParseCaseError {}

impl From<TextError> for ParseCaseError {
    fn from(e: TextError) -> Self {
        Self(e.to_string())
    }
}

const MAGIC: &str = "rlnoc-case v1";

impl FuzzCase {
    /// Draws case `index` from the SplitMix64 stream rooted at
    /// `root_seed`. Every field is derived from an independent mix so
    /// adjacent indices decorrelate; the same `(root_seed, index)` pair
    /// always yields the same case.
    pub fn generate(root_seed: u64, index: u64) -> Self {
        let base = rand::seed_stream(root_seed, index);
        let mut k = 0u64;
        let mut draw = move || {
            k += 1;
            splitmix64(base.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        };
        let mesh_w = 2 + (draw() % 3) as u16; // 2..=4
        let mesh_h = 2 + (draw() % 3) as u16;
        // The whole zoo, uniformly: the oracle must exercise wrap links
        // and date-line VC classes (tori), the folded wiring, and the
        // vertical dimension (stacked meshes) as hard as plain meshes.
        let topo: Topo = match draw() % 4 {
            0 => Mesh::new(mesh_w, mesh_h).into(),
            1 => Torus::new(mesh_w, mesh_h).into(),
            2 => FoldedTorus::new(mesh_w, mesh_h).into(),
            _ => Mesh3d::new(mesh_w, mesh_h, 2).into(),
        };
        let scheme = ErrorControlScheme::ALL[(draw() % 4) as usize];
        // Only workloads whose traffic patterns fit the drawn topology
        // (streamcluster pins a hotspot node that small meshes lack).
        let workloads: Vec<WorkloadProfile> = WorkloadProfile::all()
            .into_iter()
            .filter(|w| w.fits_mesh(topo))
            .collect();
        let workload = workloads[(draw() % workloads.len() as u64) as usize]
            .name
            .to_string();
        let seed = draw();
        let epoch_cycles = [250, 500, 1_000][(draw() % 3) as usize];
        let pretrain_cycles = [0, 2_000, 4_000, 6_000][(draw() % 4) as usize];
        let warmup_cycles = [0, 500, 1_000][(draw() % 3) as usize];
        let measure_cycles = [2_000, 4_000, 6_000][(draw() % 3) as usize];
        // Mode 1 stays allowed (it is the fallback for disallowed
        // decisions); the other three toggle freely.
        let mode_bits = draw();
        let allowed_modes = [
            mode_bits & 1 != 0,
            true,
            mode_bits & 2 != 0,
            mode_bits & 4 != 0,
        ];
        let p_ref_scale = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0][(draw() % 6) as usize];
        let ambient_c = 40.0 + (draw() % 21) as f64;
        // Roughly half the stream carries permanent failures, so the
        // oracle continuously exercises both the zero-fault fast path
        // and the fault-adaptive machinery.
        let hard_faults = if draw() % 2 == 0 {
            None
        } else {
            let links = 1 + (draw() % 2) as u16;
            let routers = (draw() % 2) as u16;
            Some((links, routers, draw()))
        };
        Self {
            topo,
            scheme,
            workload,
            seed,
            epoch_cycles,
            pretrain_cycles,
            warmup_cycles,
            measure_cycles,
            drain_limit: 50_000,
            allowed_modes,
            p_ref_scale,
            ambient_c,
            hard_faults,
        }
    }

    /// Builds the runnable experiment this case describes.
    ///
    /// # Panics
    ///
    /// Panics if the case is internally inconsistent (unknown workload,
    /// invalid dimensions) — [`FuzzCase::validate`] reports the same
    /// conditions as an error.
    pub fn experiment(&self) -> Experiment {
        self.validate().expect("invalid fuzz case");
        let workload = WorkloadProfile::all()
            .into_iter()
            .find(|w| w.name == self.workload)
            .expect("validated workload");
        let allowed: Vec<crate::modes::OperationMode> = crate::modes::OperationMode::ALL
            .into_iter()
            .filter(|m| self.allowed_modes[m.index()])
            .collect();
        let timing = TimingErrorParams {
            p_ref: TimingErrorParams::default().p_ref * self.p_ref_scale,
            ..TimingErrorParams::default()
        };
        let thermal = ThermalParams {
            ambient_c: self.ambient_c,
            ..ThermalParams::default()
        };
        let mut builder = Experiment::builder()
            .scheme(self.scheme)
            .workload(workload)
            .noc(NocConfig::builder().topology(self.topo).build())
            .seed(self.seed)
            .epoch_cycles(self.epoch_cycles)
            .pretrain_cycles(self.pretrain_cycles)
            .warmup_cycles(self.warmup_cycles)
            .measure_cycles(self.measure_cycles)
            .drain_limit(self.drain_limit)
            .timing(timing)
            .thermal(thermal)
            .allowed_modes(&allowed);
        if let Some(schedule) = self.hard_fault_schedule() {
            builder = builder.hard_faults(std::sync::Arc::new(schedule));
        }
        builder.build().expect("fuzz case must build")
    }

    /// Regenerates the hard-fault schedule this case describes (`None`
    /// for fault-free cases). Events land anywhere in the run, from the
    /// first pre-training cycle to the end of the injection window, so
    /// every phase of the experiment can be hit by a failure.
    pub fn hard_fault_schedule(&self) -> Option<HardFaultSchedule> {
        let (links, routers, seed) = self.hard_faults?;
        let horizon = (self.pretrain_cycles + self.warmup_cycles + self.measure_cycles).max(1);
        Some(HardFaultSchedule::random(
            self.topo,
            usize::from(links),
            usize::from(routers),
            (1, horizon),
            seed,
        ))
    }

    /// Checks internal consistency without building the experiment.
    pub fn validate(&self) -> Result<(), ParseCaseError> {
        self.check().map_err(|(_, message)| ParseCaseError(message))
    }

    /// [`validate`](Self::validate), with each error naming the text
    /// field it is about.
    fn check(&self) -> Result<(), (&'static str, String)> {
        let refuse = |field, message: &str| Err((field, message.to_string()));
        if self.topo.width() < 2 || self.topo.height() < 2 {
            return refuse("mesh", "topology dimensions must be ≥ 2");
        }
        if self.epoch_cycles == 0 {
            return refuse("epoch", "cycle budgets must be positive");
        }
        if self.drain_limit == 0 {
            return refuse("drain", "cycle budgets must be positive");
        }
        if !self.allowed_modes.iter().any(|&b| b) {
            return refuse("modes", "no operation mode allowed");
        }
        if !self.p_ref_scale.is_finite() || self.p_ref_scale < 0.0 {
            return refuse("p_ref_scale", "p_ref_scale must be finite and ≥ 0");
        }
        if !self.ambient_c.is_finite() {
            return refuse("ambient", "ambient_c must be finite");
        }
        match WorkloadProfile::all()
            .iter()
            .find(|w| w.name == self.workload)
        {
            None => Err(("workload", format!("unknown workload `{}`", self.workload))),
            Some(w) if !w.fits_mesh(self.topo) => Err((
                "workload",
                format!(
                    "workload `{}` references nodes outside a {} topology",
                    self.workload,
                    self.topo.encode()
                ),
            )),
            Some(_) => Ok(()),
        }
    }

    /// Reduction candidates for shrinking, ordered most-aggressive
    /// first. Each candidate is a strictly "smaller" case; the driver
    /// keeps a candidate only if it still reproduces the divergence.
    pub fn shrink_candidates(&self) -> Vec<FuzzCase> {
        let mut out = Vec::new();
        let mut push = |c: FuzzCase| {
            if c != *self && c.validate().is_ok() {
                out.push(c);
            }
        };
        if self.hard_faults.is_some() {
            push(FuzzCase {
                hard_faults: None,
                ..self.clone()
            });
        }
        if self.pretrain_cycles > 0 {
            push(FuzzCase {
                pretrain_cycles: 0,
                ..self.clone()
            });
            push(FuzzCase {
                pretrain_cycles: self.pretrain_cycles / 2,
                ..self.clone()
            });
        }
        if self.warmup_cycles > 0 {
            push(FuzzCase {
                warmup_cycles: 0,
                ..self.clone()
            });
        }
        if self.measure_cycles > 500 {
            push(FuzzCase {
                measure_cycles: self.measure_cycles / 2,
                ..self.clone()
            });
        }
        // Topology shrinks: drop the exotic wiring first (same node
        // grid, plain mesh), then shrink each base dimension while
        // keeping the topology kind.
        let (w, h) = match self.topo {
            Topo::Mesh3d(m) => (m.width(), m.height()),
            t => (t.width(), t.height()),
        };
        let rebuild = |w: u16, h: u16, topo: Topo| -> Topo {
            match topo {
                Topo::Mesh(_) => Mesh::new(w, h).into(),
                Topo::Torus(_) => Torus::new(w, h).into(),
                Topo::FoldedTorus(_) => FoldedTorus::new(w, h).into(),
                Topo::Mesh3d(m) => Mesh3d::new(w, h, m.depth()).into(),
            }
        };
        if !matches!(self.topo, Topo::Mesh(_)) {
            push(FuzzCase {
                topo: Mesh::new(w, h).into(),
                ..self.clone()
            });
        }
        if let Topo::Mesh3d(m) = self.topo {
            if m.depth() > 2 {
                push(FuzzCase {
                    topo: Mesh3d::new(w, h, m.depth() - 1).into(),
                    ..self.clone()
                });
            }
        }
        if w > 2 {
            push(FuzzCase {
                topo: rebuild(w - 1, h, self.topo),
                ..self.clone()
            });
        }
        if h > 2 {
            push(FuzzCase {
                topo: rebuild(w, h - 1, self.topo),
                ..self.clone()
            });
        }
        if self.epoch_cycles > 250 {
            push(FuzzCase {
                epoch_cycles: self.epoch_cycles / 2,
                ..self.clone()
            });
        }
        out
    }

    /// Serializes the case to the `rlnoc-case v1` text format.
    pub fn to_text(&self) -> String {
        let modes: String = self
            .allowed_modes
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        let mut text = format!(
            "{MAGIC}\nmesh={}\nscheme={}\nworkload={}\nseed={:016x}\nepoch={}\npretrain={}\n\
             warmup={}\nmeasure={}\ndrain={}\nmodes={modes}\np_ref_scale={:016x}\nambient={:016x}\n",
            self.topo.encode(),
            self.scheme,
            self.workload,
            self.seed,
            self.epoch_cycles,
            self.pretrain_cycles,
            self.warmup_cycles,
            self.measure_cycles,
            self.drain_limit,
            self.p_ref_scale.to_bits(),
            self.ambient_c.to_bits(),
        );
        if let Some((links, routers, seed)) = self.hard_faults {
            writeln!(text, "hardfaults={links} {routers} {seed:016x}").expect("write to string");
        }
        textfmt::seal(&mut text, Trailer::CrcEq);
        text
    }

    /// Parses and validates an `rlnoc-case v1` file, including its
    /// CRC-32 trailer.
    ///
    /// # Errors
    ///
    /// [`ParseCaseError`] naming the line of any structural, checksum,
    /// or semantic failure.
    pub fn from_text(text: &str) -> Result<Self, ParseCaseError> {
        let body = textfmt::unseal(text, Trailer::CrcEq)?;
        let mut lines = Lines::open(body, MAGIC)?;
        let topo = Topo::parse(lines.field("mesh")?).map_err(|e| lines.error(e))?;
        let scheme = lines.field("scheme")?;
        let scheme = ErrorControlScheme::from_token(scheme)
            .ok_or_else(|| lines.error(format!("unknown scheme `{scheme}`")))?;
        let workload = lines.field("workload")?.to_string();
        let seed = lines.hex("seed")?;
        let epoch_cycles = lines.dec("epoch")?;
        let pretrain_cycles = lines.dec("pretrain")?;
        let warmup_cycles = lines.dec("warmup")?;
        let measure_cycles = lines.dec("measure")?;
        let drain_limit = lines.dec("drain")?;
        let modes = lines.field("modes")?.as_bytes();
        if modes.len() != 4 || !modes.iter().all(|&c| c == b'0' || c == b'1') {
            return Err(lines.error("modes must be four 0/1 flags").into());
        }
        let allowed_modes = std::array::from_fn(|i| modes[i] == b'1');
        let p_ref_scale = lines.float("p_ref_scale")?;
        let ambient_c = lines.float("ambient")?;
        let hard_faults = match lines.optional("hardfaults") {
            None => None,
            Some(value) => {
                let mut parts = value.split(' ');
                let mut quota = || parts.next().and_then(textfmt::dec)?.try_into().ok();
                let (links, routers) = (quota(), quota());
                match (
                    links,
                    routers,
                    parts.next().and_then(textfmt::hex16),
                    parts.next(),
                ) {
                    (Some(links), Some(routers), Some(seed), None) => Some((links, routers, seed)),
                    _ => {
                        let message = "expected `hardfaults=<links> <routers> <seed:016x>`";
                        return Err(lines.error(message).into());
                    }
                }
            }
        };
        lines.finish()?;
        let case = Self {
            topo,
            scheme,
            workload,
            seed,
            epoch_cycles,
            pretrain_cycles,
            warmup_cycles,
            measure_cycles,
            drain_limit,
            allowed_modes,
            p_ref_scale,
            ambient_c,
            hard_faults,
        };
        case.check()
            .map_err(|(field, message)| TextError::on_field(body, field, message))?;
        Ok(case)
    }
}

impl std::fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} {} seed={:016x} epoch={} pretrain={} warmup={} measure={} p_ref×{} ambient={}°C",
            self.topo.encode(),
            self.scheme,
            self.workload,
            self.seed,
            self.epoch_cycles,
            self.pretrain_cycles,
            self.warmup_cycles,
            self.measure_cycles,
            self.p_ref_scale,
            self.ambient_c,
        )?;
        if let Some((links, routers, seed)) = self.hard_faults {
            write!(f, " hardfaults={links}L/{routers}R@{seed:016x}")?;
        }
        Ok(())
    }
}

/// One report field that differs between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDiff {
    /// Field name in [`ExperimentReport`].
    pub field: &'static str,
    /// Value from the first (usually optimized) run.
    pub a: String,
    /// Value from the second (usually reference) run.
    pub b: String,
}

impl std::fmt::Display for FieldDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} != {}", self.field, self.a, self.b)
    }
}

impl ExperimentReport {
    /// Field-by-field comparison against `other`. Floats compare by bit
    /// pattern — the optimized kernel claims *bit*-identical behavior,
    /// so even a 1-ulp drift is a divergence worth naming.
    pub fn diff(&self, other: &ExperimentReport) -> Vec<FieldDiff> {
        let mut diffs = Vec::new();
        macro_rules! cmp {
            ($field:ident) => {
                if self.$field != other.$field {
                    diffs.push(FieldDiff {
                        field: stringify!($field),
                        a: format!("{:?}", self.$field),
                        b: format!("{:?}", other.$field),
                    });
                }
            };
        }
        macro_rules! cmp_f64 {
            ($field:ident) => {
                if self.$field.to_bits() != other.$field.to_bits() {
                    diffs.push(FieldDiff {
                        field: stringify!($field),
                        a: format!("{:?} ({:016x})", self.$field, self.$field.to_bits()),
                        b: format!("{:?} ({:016x})", other.$field, other.$field.to_bits()),
                    });
                }
            };
        }
        cmp!(scheme);
        cmp!(workload);
        cmp!(seed);
        cmp_f64!(frequency_hz);
        cmp!(packets_injected);
        cmp!(packets_delivered);
        cmp!(flits_delivered);
        cmp_f64!(avg_latency_cycles);
        cmp!(p99_latency_cycles);
        cmp!(execution_cycles);
        cmp!(drained);
        cmp!(packet_retransmissions);
        cmp!(flit_retransmissions);
        cmp_f64!(retransmitted_packets_equiv);
        cmp!(hop_nacks);
        cmp!(ecc_corrections);
        cmp!(crc_failures);
        cmp!(control_packets);
        cmp!(pre_retransmit_hits);
        cmp!(silent_corruptions);
        cmp_f64!(dynamic_energy_j);
        cmp_f64!(static_energy_j);
        cmp_f64!(control_energy_j);
        cmp!(mode_histogram);
        cmp_f64!(mean_temperature_c);
        cmp_f64!(max_temperature_c);
        cmp!(hard_fault_events);
        cmp!(reroute_events);
        cmp!(packets_lost_hard_fault);
        cmp!(packets_refused_unreachable);
        cmp!(unreachable_pairs);
        diffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_varied() {
        let a = FuzzCase::generate(7, 0);
        let b = FuzzCase::generate(7, 0);
        assert_eq!(a, b);
        let different = (0..32)
            .map(|i| FuzzCase::generate(7, i))
            .collect::<Vec<_>>();
        let schemes: std::collections::HashSet<_> =
            different.iter().map(|c| format!("{}", c.scheme)).collect();
        assert!(schemes.len() > 1, "case stream must vary the scheme");
        for c in &different {
            c.validate().expect("generated cases are always valid");
        }
    }

    #[test]
    fn generation_covers_the_topology_zoo() {
        // Any reasonable window of the stream must contain every zoo
        // member, and every member both with and without hard faults —
        // otherwise the differential oracle silently stops testing wrap
        // links, date-line VCs, or the vertical dimension.
        let cases: Vec<FuzzCase> = (0..64).map(|i| FuzzCase::generate(7, i)).collect();
        for (name, pick) in [("mesh", 0usize), ("torus", 1), ("ftorus", 2), ("3d", 3)] {
            let member = |c: &FuzzCase| {
                matches!(
                    (pick, c.topo),
                    (0, Topo::Mesh(_))
                        | (1, Topo::Torus(_))
                        | (2, Topo::FoldedTorus(_))
                        | (3, Topo::Mesh3d(_))
                )
            };
            assert!(
                cases.iter().any(|c| member(c) && c.hard_faults.is_some()),
                "no hard-faulted {name} case in the stream"
            );
            assert!(
                cases.iter().any(|c| member(c) && c.hard_faults.is_none()),
                "no fault-free {name} case in the stream"
            );
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        for i in 0..16 {
            let case = FuzzCase::generate(99, i);
            let text = case.to_text();
            let back = FuzzCase::from_text(&text).expect("round trip");
            assert_eq!(case, back);
        }
    }

    #[test]
    fn corrupt_case_file_is_rejected() {
        let text = FuzzCase::generate(1, 1).to_text();
        let mut corrupt = text.replace("mesh=", "mesh=9");
        assert!(
            FuzzCase::from_text(&corrupt).is_err(),
            "crc must catch edits"
        );
        corrupt = text[..text.len() - 2].to_string();
        assert!(FuzzCase::from_text(&corrupt).is_err());
    }

    #[test]
    fn shrink_candidates_are_smaller_and_valid() {
        let case = FuzzCase::generate(3, 5);
        for c in case.shrink_candidates() {
            assert_ne!(c, case);
            c.validate().expect("shrunk cases stay valid");
            assert!(
                c.pretrain_cycles <= case.pretrain_cycles
                    && c.warmup_cycles <= case.warmup_cycles
                    && c.measure_cycles <= case.measure_cycles
                    && c.topo.num_nodes() <= case.topo.num_nodes()
                    && c.epoch_cycles <= case.epoch_cycles
            );
        }
    }

    #[test]
    fn report_diff_names_the_changed_field() {
        let case = FuzzCase {
            topo: Mesh::new(2, 2).into(),
            scheme: ErrorControlScheme::StaticCrc,
            workload: "blackscholes".into(),
            seed: 11,
            epoch_cycles: 500,
            pretrain_cycles: 0,
            warmup_cycles: 0,
            measure_cycles: 1_000,
            drain_limit: 50_000,
            allowed_modes: [true; 4],
            p_ref_scale: 1.0,
            ambient_c: 45.0,
            hard_faults: None,
        };
        let report = case.experiment().run();
        assert!(report.diff(&report).is_empty());
        let mut other = report.clone();
        other.hop_nacks += 1;
        other.avg_latency_cycles += 1e-12;
        let diffs = report.diff(&other);
        let names: Vec<_> = diffs.iter().map(|d| d.field).collect();
        assert!(names.contains(&"hop_nacks"));
        assert!(names.contains(&"avg_latency_cycles"));
    }
}
