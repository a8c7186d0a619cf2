//! Wire-serializable campaign submissions.
//!
//! A [`Campaign`] cannot travel over a wire: it embeds resolved
//! [`WorkloadProfile`]s and a full [`NocConfig`].
//! [`CampaignSpec`] is the transferable subset — everything a remote
//! client may legitimately configure — with an exact, versioned text
//! serialization in the family of `rlnoc-case` / `rlnoc-policy`
//! (`key=value` lines, CRC-32 trailer):
//!
//! ```text
//! rlnoc-spec v1
//! schemes=CRC,RL
//! workloads=blackscholes,canneal
//! mesh=4x4
//! seed=0000000000000007
//! replicates=1
//! pretrain=8000
//! warmup=1000
//! measure=6000
//! drain=60000
//! crc=9b2f11c3
//! ```
//!
//! The `mesh=` line carries a topology-zoo encoding (`4x4`,
//! `torus:16x16`, `ftorus:8x8`, `3d:4x4x4`), so plain-mesh specs keep
//! the original byte layout. `measure=none` lifts the measurement cap. The spec resolves to a
//! [`Campaign`] via [`CampaignSpec::to_campaign`]; its identity — used
//! by the campaign service for persistence directories and result
//! deduplication — is the resolved campaign's
//! [`fingerprint`](Campaign::fingerprint), rendered by
//! [`CampaignSpec::campaign_id`] as `c-<fingerprint:016x>`. Two specs
//! with the same id produce byte-identical reports, so a service may
//! re-serve cached results for a resubmission.

use crate::benchmarks::WorkloadProfile;
use crate::campaign::Campaign;
use crate::experiment::ErrorControlScheme;
use noc_coding::textfmt::{self, Lines, TextError, Trailer};
use noc_sim::config::NocConfig;
use noc_sim::topology::{Mesh, Topo};

const MAGIC: &str = "rlnoc-spec v1";

/// The most tasks a spec may describe: 186× the 352-task, eight-seed
/// paper campaign, and 512 KiB of queue entries in a service.
pub const MAX_TASKS: usize = 1 << 16;

/// `schemes × workloads × replicates`, without overflow.
fn task_count(schemes: usize, workloads: usize, replicates: usize) -> u128 {
    schemes as u128 * workloads as u128 * replicates as u128
}

/// A spec that does not describe a runnable campaign, or text that is
/// not a valid `rlnoc-spec v1` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid campaign spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<TextError> for SpecError {
    fn from(e: TextError) -> Self {
        Self(e.to_string())
    }
}

/// The wire-transferable description of a campaign grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Schemes to compare, in run order (non-empty, no duplicates).
    pub schemes: Vec<ErrorControlScheme>,
    /// Workload names, resolved with [`WorkloadProfile::by_name`].
    pub workloads: Vec<String>,
    /// Topology of the grid (projection dimensions ≥ 2).
    pub topo: Topo,
    /// Master campaign seed.
    pub seed: u64,
    /// Seed replicates per (scheme, workload) cell (≥ 1).
    pub replicates: usize,
    /// Pre-training cycles for learning schemes.
    pub pretrain_cycles: u64,
    /// Warm-up cycles for all schemes.
    pub warmup_cycles: u64,
    /// Optional cap on the measured injection window.
    pub measure_cycles: Option<u64>,
    /// Drain budget per run.
    pub drain_limit: u64,
}

impl CampaignSpec {
    /// A minimal, fast spec: one CRC run on a 2×2 mesh with short
    /// windows. The building block of service load tests (vary `seed`
    /// for distinct campaign identities).
    pub fn tiny(seed: u64) -> Self {
        Self {
            schemes: vec![ErrorControlScheme::StaticCrc],
            workloads: vec!["blackscholes".to_string()],
            topo: Mesh::new(2, 2).into(),
            seed,
            replicates: 1,
            pretrain_cycles: 0,
            warmup_cycles: 0,
            measure_cycles: Some(300),
            drain_limit: 20_000,
        }
    }

    /// The spec equivalent of [`Campaign::quick`].
    pub fn quick(seed: u64) -> Self {
        Self {
            schemes: ErrorControlScheme::ALL.to_vec(),
            workloads: vec!["blackscholes".to_string(), "canneal".to_string()],
            topo: Mesh::new(4, 4).into(),
            seed,
            replicates: 1,
            pretrain_cycles: 8_000,
            warmup_cycles: 1_000,
            measure_cycles: Some(6_000),
            drain_limit: 60_000,
        }
    }

    /// Extracts the transferable subset of `campaign`.
    ///
    /// # Errors
    ///
    /// [`SpecError`] when the campaign uses a feature the wire format
    /// cannot carry: a [`NocConfig`] that differs from the mesh-sized
    /// default (the spec only transports the mesh dimensions). An
    /// attached telemetry handle's state is fine (not part of identity).
    pub fn from_campaign(campaign: &Campaign) -> Result<Self, SpecError> {
        let topo = campaign.noc.mesh;
        let default_for_topo = NocConfig::builder().topology(topo).build();
        if campaign.noc != default_for_topo {
            return Err(SpecError(
                "only topology-sized default NocConfigs are serializable".into(),
            ));
        }
        let spec = Self {
            schemes: campaign.schemes.clone(),
            workloads: campaign
                .workloads
                .iter()
                .map(|w| w.name.to_string())
                .collect(),
            topo,
            seed: campaign.seed,
            replicates: campaign.replicates.max(1),
            pretrain_cycles: campaign.pretrain_cycles,
            warmup_cycles: campaign.warmup_cycles,
            measure_cycles: campaign.measure_cycles,
            drain_limit: campaign.drain_limit,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec describes a runnable campaign.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.resolve_workloads()
            .map(drop)
            .map_err(|(_, message)| SpecError(message))
    }

    /// Checks the spec and builds its workload profiles, each named one
    /// once. An error names the text field it is about.
    fn resolve_workloads(&self) -> Result<Vec<WorkloadProfile>, (&'static str, String)> {
        let refuse = |field, message: &str| Err((field, message.to_string()));
        if self.schemes.is_empty() {
            return refuse("schemes", "at least one scheme required");
        }
        for (i, s) in self.schemes.iter().enumerate() {
            if self.schemes[..i].contains(s) {
                return Err(("schemes", format!("duplicate scheme `{s}`")));
            }
        }
        if self.workloads.is_empty() {
            return refuse("workloads", "at least one workload required");
        }
        if self.topo.width() < 2 || self.topo.height() < 2 {
            return refuse("mesh", "topology dimensions must be ≥ 2");
        }
        if self.replicates == 0 {
            return refuse("replicates", "replicates must be ≥ 1");
        }
        let tasks = task_count(self.schemes.len(), self.workloads.len(), self.replicates);
        if tasks > MAX_TASKS as u128 {
            let message = format!("{tasks} tasks exceed the limit of {MAX_TASKS}");
            return Err(("replicates", message));
        }
        if self.drain_limit == 0 {
            return refuse("drain", "drain_limit must be positive");
        }
        if self.measure_cycles == Some(0) {
            return refuse("measure", "measure cap must be positive");
        }
        self.workloads
            .iter()
            .map(|name| match WorkloadProfile::by_name(name) {
                None => Err(("workloads", format!("unknown workload `{name}`"))),
                Some(w) if !w.fits_mesh(self.topo) => Err((
                    "workloads",
                    format!(
                        "workload `{name}` references nodes outside a {} topology",
                        self.topo.encode()
                    ),
                )),
                Some(w) => Ok(w),
            })
            .collect()
    }

    /// Resolves the spec into a runnable [`Campaign`] (telemetry
    /// disabled).
    ///
    /// # Errors
    ///
    /// Validation errors, as [`validate`](Self::validate).
    pub fn to_campaign(&self) -> Result<Campaign, SpecError> {
        let workloads = self
            .resolve_workloads()
            .map_err(|(_, message)| SpecError(message))?;
        Ok(Campaign {
            schemes: self.schemes.clone(),
            workloads,
            noc: NocConfig::builder().topology(self.topo).build(),
            seed: self.seed,
            replicates: self.replicates,
            pretrain_cycles: self.pretrain_cycles,
            warmup_cycles: self.warmup_cycles,
            measure_cycles: self.measure_cycles,
            drain_limit: self.drain_limit,
            hard_faults: None,
            telemetry: rlnoc_telemetry::Telemetry::disabled(),
        })
    }

    /// The resolved campaign's fingerprint.
    ///
    /// # Errors
    ///
    /// Validation errors, as [`validate`](Self::validate).
    pub fn fingerprint(&self) -> Result<u64, SpecError> {
        Ok(self.to_campaign()?.fingerprint())
    }

    /// The service-facing campaign identity: `c-<fingerprint:016x>`.
    /// Doubles as the campaign's persistence directory name.
    ///
    /// # Errors
    ///
    /// Validation errors, as [`validate`](Self::validate).
    pub fn campaign_id(&self) -> Result<String, SpecError> {
        Ok(format!("c-{:016x}", self.fingerprint()?))
    }

    /// Serializes to the `rlnoc-spec v1` text format.
    pub fn to_text(&self) -> String {
        let schemes: Vec<&str> = self.schemes.iter().map(|s| s.token()).collect();
        let measure = self
            .measure_cycles
            .map_or_else(|| "none".to_string(), |c| c.to_string());
        let mut text = format!(
            "{MAGIC}\nschemes={}\nworkloads={}\nmesh={}\nseed={:016x}\nreplicates={}\n\
             pretrain={}\nwarmup={}\nmeasure={measure}\ndrain={}\n",
            schemes.join(","),
            self.workloads.join(","),
            self.topo.encode(),
            self.seed,
            self.replicates,
            self.pretrain_cycles,
            self.warmup_cycles,
            self.drain_limit,
        );
        textfmt::seal(&mut text, Trailer::CrcEq);
        text
    }

    /// Parses and validates an `rlnoc-spec v1` document, including its
    /// CRC-32 trailer. The task count is checked against [`MAX_TASKS`]
    /// before either list is built.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the line of any structural, checksum, or
    /// semantic failure.
    pub fn from_text(text: &str) -> Result<Self, SpecError> {
        let body = textfmt::unseal(text, Trailer::CrcEq)?;
        let mut lines = Lines::open(body, MAGIC)?;
        let schemes = lines.field("schemes")?;
        let workloads = lines.field("workloads")?;
        let topo = Topo::parse(lines.field("mesh")?).map_err(|e| lines.error(e))?;
        let seed = lines.hex("seed")?;
        let replicates = lines.count("replicates", MAX_TASKS)?;
        let tasks = task_count(
            schemes.split(',').count(),
            workloads.split(',').count(),
            replicates,
        );
        if tasks > MAX_TASKS as u128 {
            let message = format!("{tasks} tasks exceed the limit of {MAX_TASKS}");
            return Err(lines.error(message).into());
        }
        let pretrain_cycles = lines.dec("pretrain")?;
        let warmup_cycles = lines.dec("warmup")?;
        let measure_cycles = match lines.field("measure")? {
            "none" => None,
            cap => Some(textfmt::dec(cap).ok_or_else(|| lines.error("bad `measure=` value"))?),
        };
        let drain_limit = lines.dec("drain")?;
        lines.finish()?;
        let spec = Self {
            schemes: schemes
                .split(',')
                .map(|t| {
                    ErrorControlScheme::from_token(t).ok_or_else(|| {
                        TextError::on_field(body, "schemes", format!("unknown scheme `{t}`"))
                    })
                })
                .collect::<Result<_, _>>()?,
            workloads: workloads.split(',').map(str::to_string).collect(),
            topo,
            seed,
            replicates,
            pretrain_cycles,
            warmup_cycles,
            measure_cycles,
            drain_limit,
        };
        spec.resolve_workloads()
            .map_err(|(field, message)| TextError::on_field(body, field, message))?;
        Ok(spec)
    }
}

impl std::fmt::Display for CampaignSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} schemes={} workloads={} seed={:016x} replicates={}",
            self.topo.encode(),
            self.schemes.len(),
            self.workloads.join(","),
            self.seed,
            self.replicates,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip_is_exact() {
        for spec in [
            CampaignSpec::tiny(7),
            CampaignSpec::quick(99),
            CampaignSpec {
                measure_cycles: None,
                ..CampaignSpec::quick(3)
            },
        ] {
            let text = spec.to_text();
            let back = CampaignSpec::from_text(&text).expect("round trip");
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn zoo_specs_round_trip_and_resolve() {
        use noc_sim::topology::{FoldedTorus, Mesh3d, Torus};
        let topos: [Topo; 3] = [
            Torus::new(4, 4).into(),
            FoldedTorus::new(4, 4).into(),
            Mesh3d::new(4, 2, 2).into(),
        ];
        for topo in topos {
            let spec = CampaignSpec {
                topo,
                ..CampaignSpec::tiny(11)
            };
            let text = spec.to_text();
            assert!(
                text.contains(&format!("mesh={}\n", topo.encode())),
                "got: {text}"
            );
            let back = CampaignSpec::from_text(&text).expect("round trip");
            assert_eq!(spec, back);
            let campaign = spec.to_campaign().expect("valid");
            assert_eq!(campaign.noc.mesh, topo);
            let again = CampaignSpec::from_campaign(&campaign).expect("serializable");
            assert_eq!(spec, again);
        }
    }

    #[test]
    fn campaign_round_trip_preserves_fingerprint() {
        let spec = CampaignSpec::quick(2019);
        let campaign = spec.to_campaign().expect("valid");
        let back = CampaignSpec::from_campaign(&campaign).expect("serializable");
        assert_eq!(spec, back);
        assert_eq!(
            spec.fingerprint().unwrap(),
            campaign.fingerprint(),
            "spec identity is the campaign fingerprint"
        );
        assert_eq!(
            spec.campaign_id().unwrap(),
            format!("c-{:016x}", campaign.fingerprint())
        );
    }

    #[test]
    fn quick_spec_matches_campaign_quick() {
        // Campaign::quick seeds with 7; the spec must resolve to the
        // exact same grid so service runs re-serve runner results.
        let spec = CampaignSpec::quick(7);
        let via_spec = spec.to_campaign().expect("valid");
        let direct = Campaign::quick();
        assert_eq!(via_spec.fingerprint(), direct.fingerprint());
        assert_eq!(via_spec.tasks(), direct.tasks());
    }

    #[test]
    fn corrupt_spec_text_is_rejected() {
        let text = CampaignSpec::tiny(1).to_text();
        let corrupt = text.replace("mesh=2x2", "mesh=3x3");
        assert!(
            CampaignSpec::from_text(&corrupt).is_err(),
            "crc catches edits"
        );
        assert!(CampaignSpec::from_text(&text[..text.len() / 2]).is_err());
        assert!(CampaignSpec::from_text("").is_err());
    }

    #[test]
    fn semantic_validation_rejects_bad_specs() {
        let mut s = CampaignSpec::tiny(1);
        s.workloads = vec!["no-such-workload".into()];
        assert!(s.validate().is_err());

        let mut s = CampaignSpec::tiny(1);
        s.schemes.clear();
        assert!(s.validate().is_err());

        let mut s = CampaignSpec::tiny(1);
        s.schemes = vec![ErrorControlScheme::StaticCrc, ErrorControlScheme::StaticCrc];
        assert!(s.validate().is_err(), "duplicate schemes rejected");

        let mut s = CampaignSpec::tiny(1);
        s.topo = Mesh::new(1, 2).into();
        assert!(s.validate().is_err());

        let mut s = CampaignSpec::tiny(1);
        s.replicates = 0;
        assert!(s.validate().is_err());

        // streamcluster pins a hotspot outside a 2x2 mesh.
        let mut s = CampaignSpec::tiny(1);
        s.workloads = vec!["streamcluster".into()];
        assert!(s.validate().is_err());
    }

    #[test]
    fn task_counts_past_max_tasks_are_refused_at_the_replicates_line() {
        // 2^63 replicates × 2 schemes: a usize product wraps to 0 tasks.
        let mut s = CampaignSpec::tiny(5);
        s.schemes = vec![
            ErrorControlScheme::StaticCrc,
            ErrorControlScheme::StaticArqEcc,
        ];
        s.replicates = 1 << 63;
        let err = CampaignSpec::from_text(&s.to_text()).unwrap_err();
        assert!(err.to_string().contains("line 6: `replicates="), "{err}");
        s.replicates = MAX_TASKS / 2 + 1;
        let err = CampaignSpec::from_text(&s.to_text()).unwrap_err();
        assert!(
            err.to_string().contains("line 6: 65538 tasks exceed"),
            "{err}"
        );
        assert!(s.validate().is_err(), "one replicate past the limit");
        s.replicates = MAX_TASKS / 2;
        assert!(s.validate().is_ok());
        assert_eq!(CampaignSpec::from_text(&s.to_text()), Ok(s));
    }

    #[test]
    fn semantic_errors_name_their_line() {
        for (from, to, line) in [
            ("replicates=1", "replicates=0", 6),
            ("drain=20000", "drain=0", 10),
            ("measure=300", "measure=0", 9),
            ("workloads=blackscholes", "workloads=streamcluster", 3),
            ("schemes=CRC", "schemes=CRC,CRC", 2),
            ("schemes=CRC", "schemes=crc", 2),
            ("mesh=2x2", "mesh=1x2", 4),
        ] {
            let text = CampaignSpec::tiny(1).to_text();
            let mut text = textfmt::unseal(&text, Trailer::CrcEq)
                .unwrap()
                .replace(from, to);
            textfmt::seal(&mut text, Trailer::CrcEq);
            let err = CampaignSpec::from_text(&text).unwrap_err();
            assert!(err.0.starts_with(&format!("line {line}: ")), "{to}: {err}");
        }
    }

    #[test]
    fn non_default_noc_configs_are_not_serializable() {
        let mut c = Campaign::quick();
        c.noc = NocConfig::builder().mesh(4, 4).vc_depth(8).build();
        assert!(CampaignSpec::from_campaign(&c).is_err());
    }

    #[test]
    fn campaign_identity_is_pinned() {
        // Service dedup, journal keys and checkpoint manifests all hold
        // these values; a change to the fingerprint rendering breaks them.
        assert_eq!(
            CampaignSpec::quick(7).campaign_id().unwrap(),
            "c-d1569df80f4bb348"
        );
        let mut faulted = Campaign::quick();
        let schedule =
            noc_fault::hardfault::HardFaultSchedule::random(Mesh::new(4, 4), 2, 0, (1, 100), 9);
        faulted.hard_faults = Some(std::sync::Arc::new(schedule));
        assert_eq!(faulted.fingerprint(), 0x5e3c_2e6f_e1d2_5c86);
    }

    #[test]
    fn distinct_seeds_give_distinct_ids() {
        let a = CampaignSpec::tiny(1).campaign_id().unwrap();
        let b = CampaignSpec::tiny(2).campaign_id().unwrap();
        assert_ne!(a, b);
    }
}
