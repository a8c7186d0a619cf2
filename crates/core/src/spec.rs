//! Wire-serializable campaign submissions.
//!
//! A [`Campaign`] cannot travel over a wire: it embeds resolved
//! [`WorkloadProfile`]s and an arbitrary `customize` function pointer.
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
use noc_coding::crc::Crc32;
use noc_sim::config::NocConfig;
use noc_sim::topology::{Mesh, Topo};
use std::fmt::Write as _;

const MAGIC: &str = "rlnoc-spec v1";

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

fn scheme_token(s: ErrorControlScheme) -> &'static str {
    match s {
        ErrorControlScheme::StaticCrc => "CRC",
        ErrorControlScheme::StaticArqEcc => "ARQ+ECC",
        ErrorControlScheme::DecisionTree => "DT",
        ErrorControlScheme::ProposedRl => "RL",
    }
}

fn scheme_from_token(t: &str) -> Option<ErrorControlScheme> {
    match t {
        "CRC" => Some(ErrorControlScheme::StaticCrc),
        "ARQ+ECC" => Some(ErrorControlScheme::StaticArqEcc),
        "DT" => Some(ErrorControlScheme::DecisionTree),
        "RL" => Some(ErrorControlScheme::ProposedRl),
        _ => None,
    }
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
    /// [`SpecError`] when the campaign uses features the wire format
    /// cannot carry: a `customize` hook, an attached telemetry handle's
    /// state is fine (not part of identity), or a [`NocConfig`] that
    /// differs from the mesh-sized default (the spec only transports the
    /// mesh dimensions).
    pub fn from_campaign(campaign: &Campaign) -> Result<Self, SpecError> {
        if campaign.customize.is_some() {
            return Err(SpecError(
                "campaigns with a customize hook are not serializable".into(),
            ));
        }
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
        self.resolve_workloads().map(drop)
    }

    /// Checks the spec and builds its workload profiles, each named one
    /// once.
    fn resolve_workloads(&self) -> Result<Vec<WorkloadProfile>, SpecError> {
        if self.schemes.is_empty() {
            return Err(SpecError("at least one scheme required".into()));
        }
        for (i, s) in self.schemes.iter().enumerate() {
            if self.schemes[..i].contains(s) {
                return Err(SpecError(format!("duplicate scheme `{s}`")));
            }
        }
        if self.workloads.is_empty() {
            return Err(SpecError("at least one workload required".into()));
        }
        if self.topo.width() < 2 || self.topo.height() < 2 {
            return Err(SpecError("topology dimensions must be ≥ 2".into()));
        }
        if self.replicates == 0 {
            return Err(SpecError("replicates must be ≥ 1".into()));
        }
        if self.drain_limit == 0 {
            return Err(SpecError("drain_limit must be positive".into()));
        }
        if self.measure_cycles == Some(0) {
            return Err(SpecError("measure cap must be positive".into()));
        }
        self.workloads
            .iter()
            .map(|name| {
                let w = WorkloadProfile::by_name(name)
                    .ok_or_else(|| SpecError(format!("unknown workload `{name}`")))?;
                if !w.fits_mesh(self.topo) {
                    return Err(SpecError(format!(
                        "workload `{name}` references nodes outside a {} topology",
                        self.topo.encode()
                    )));
                }
                Ok(w)
            })
            .collect()
    }

    /// Resolves the spec into a runnable [`Campaign`] (telemetry
    /// disabled, no customize hook).
    ///
    /// # Errors
    ///
    /// Validation errors, as [`validate`](Self::validate).
    pub fn to_campaign(&self) -> Result<Campaign, SpecError> {
        let workloads = self.resolve_workloads()?;
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
            customize: None,
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
        let mut body = String::new();
        body.push_str(MAGIC);
        body.push('\n');
        let schemes: Vec<&str> = self.schemes.iter().copied().map(scheme_token).collect();
        writeln!(body, "schemes={}", schemes.join(",")).expect("write to string");
        writeln!(body, "workloads={}", self.workloads.join(",")).expect("write to string");
        writeln!(body, "mesh={}", self.topo.encode()).expect("write to string");
        writeln!(body, "seed={:016x}", self.seed).expect("write to string");
        writeln!(body, "replicates={}", self.replicates).expect("write to string");
        writeln!(body, "pretrain={}", self.pretrain_cycles).expect("write to string");
        writeln!(body, "warmup={}", self.warmup_cycles).expect("write to string");
        match self.measure_cycles {
            Some(c) => writeln!(body, "measure={c}").expect("write to string"),
            None => writeln!(body, "measure=none").expect("write to string"),
        }
        writeln!(body, "drain={}", self.drain_limit).expect("write to string");
        let crc = Crc32::new().checksum(body.as_bytes());
        writeln!(body, "crc={crc:08x}").expect("write to string");
        body
    }

    /// Parses and validates an `rlnoc-spec v1` document, including its
    /// CRC-32 trailer.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on any structural, checksum, or semantic failure.
    pub fn from_text(text: &str) -> Result<Self, SpecError> {
        let trailer_at = text
            .rfind("crc=")
            .ok_or_else(|| SpecError("missing crc trailer".into()))?;
        let (body, trailer) = text.split_at(trailer_at);
        let stated = trailer
            .trim()
            .strip_prefix("crc=")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| SpecError("malformed crc trailer".into()))?;
        let actual = Crc32::new().checksum(body.as_bytes());
        if stated != actual {
            return Err(SpecError(format!(
                "crc mismatch: file says {stated:08x}, content is {actual:08x}"
            )));
        }
        let mut lines = body.lines();
        if lines.next() != Some(MAGIC) {
            return Err(SpecError(format!("bad magic, want `{MAGIC}`")));
        }
        let mut field = |name: &str| -> Result<String, SpecError> {
            let line = lines
                .next()
                .ok_or_else(|| SpecError(format!("missing field `{name}`")))?;
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix('='))
                .map(str::to_string)
                .ok_or_else(|| SpecError(format!("expected `{name}=`, got `{line}`")))
        };
        let schemes_raw = field("schemes")?;
        let mut schemes = Vec::new();
        for token in schemes_raw.split(',') {
            schemes.push(
                scheme_from_token(token)
                    .ok_or_else(|| SpecError(format!("unknown scheme `{token}`")))?,
            );
        }
        let workloads: Vec<String> = field("workloads")?.split(',').map(str::to_string).collect();
        let topo = Topo::parse(&field("mesh")?).map_err(SpecError)?;
        let seed =
            u64::from_str_radix(&field("seed")?, 16).map_err(|_| SpecError("bad seed".into()))?;
        let parse_u64 = |s: String, what: &str| -> Result<u64, SpecError> {
            s.parse()
                .map_err(|_| SpecError(format!("bad {what} `{s}`")))
        };
        let replicates = parse_u64(field("replicates")?, "replicates")? as usize;
        let pretrain_cycles = parse_u64(field("pretrain")?, "pretrain")?;
        let warmup_cycles = parse_u64(field("warmup")?, "warmup")?;
        let measure_raw = field("measure")?;
        let measure_cycles = if measure_raw == "none" {
            None
        } else {
            Some(parse_u64(measure_raw, "measure")?)
        };
        let drain_limit = parse_u64(field("drain")?, "drain")?;
        let spec = Self {
            schemes,
            workloads,
            topo,
            seed,
            replicates,
            pretrain_cycles,
            warmup_cycles,
            measure_cycles,
            drain_limit,
        };
        spec.validate()?;
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
    fn customized_campaigns_are_not_serializable() {
        let mut c = Campaign::quick();
        c.customize = Some(|b| b);
        assert!(CampaignSpec::from_campaign(&c).is_err());
        let mut c = Campaign::quick();
        c.noc = NocConfig::builder().mesh(4, 4).vc_depth(8).build();
        assert!(CampaignSpec::from_campaign(&c).is_err());
    }

    #[test]
    fn distinct_seeds_give_distinct_ids() {
        let a = CampaignSpec::tiny(1).campaign_id().unwrap();
        let b = CampaignSpec::tiny(2).campaign_id().unwrap();
        assert_ne!(a, b);
    }
}
