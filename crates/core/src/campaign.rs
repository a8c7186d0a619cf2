//! Multi-scheme, multi-workload evaluation campaigns.
//!
//! The paper's Figs. 6–10 all share one shape: run every benchmark under
//! every scheme, then normalize each metric to the CRC baseline.
//! [`Campaign`] executes that grid reproducibly and [`CampaignResult`]
//! provides the normalization and formatting used by the figure
//! regeneration binaries in `rlnoc-bench`.
//!
//! A campaign is defined as an ordered list of independent
//! [`CampaignTask`]s — `replicate × workload × scheme` cells, each
//! carrying its own SplitMix-derived seed. [`Campaign::run`] executes
//! them serially in task order; the `rlnoc-runner` crate executes the
//! same list across worker threads and merges by task index, so a
//! parallel run is byte-identical to the serial one.

use crate::benchmarks::WorkloadProfile;
use crate::experiment::{ErrorControlScheme, Experiment, ExperimentBuilder, ExperimentReport};
use noc_fault::hardfault::HardFaultSchedule;
use noc_sim::config::NocConfig;
use rlnoc_telemetry::Telemetry;
use std::sync::Arc;

/// A grid of experiments: schemes × workloads (× seed replicates).
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Schemes to compare (default: all four).
    pub schemes: Vec<ErrorControlScheme>,
    /// Workloads to run (default: the eight PARSEC profiles).
    pub workloads: Vec<WorkloadProfile>,
    /// NoC configuration shared by every run.
    pub noc: NocConfig,
    /// Master seed; each task derives its own via
    /// [`rand::seed_stream`].
    pub seed: u64,
    /// Seed replicates per (scheme, workload) cell (default 1). Every
    /// replicate re-runs the whole grid under a fresh derived seed;
    /// [`CampaignResult::report`] resolves to replicate 0.
    pub replicates: usize,
    /// Pre-training cycles for learning schemes.
    pub pretrain_cycles: u64,
    /// Warm-up cycles for all schemes.
    pub warmup_cycles: u64,
    /// Optional cap on the measured injection window.
    pub measure_cycles: Option<u64>,
    /// Drain budget per run.
    pub drain_limit: u64,
    /// Optional hard-fault schedule shared by every run in the grid
    /// (degradation sweeps give each scheme the same dying topology).
    /// `None` leaves every experiment on its zero-fault path.
    pub hard_faults: Option<Arc<HardFaultSchedule>>,
    /// Optional customization applied to every experiment builder.
    pub customize: Option<fn(ExperimentBuilder) -> ExperimentBuilder>,
    /// Telemetry handle cloned into every run (default: disabled). All
    /// runs share it, so the epoch series and run summaries accumulate
    /// campaign-wide and can be exported once at the end.
    pub telemetry: Telemetry,
}

/// One independent cell of a campaign grid.
///
/// Tasks are self-contained: `(scheme, workload, seed)` plus the shared
/// campaign configuration fully determine the run, so tasks can execute
/// in any order — or concurrently — and still reproduce the serial
/// campaign exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTask {
    /// Position in the serial run order (and in
    /// [`CampaignResult::reports`]).
    pub index: usize,
    /// Seed replicate this task belongs to.
    pub replicate: usize,
    /// Index into [`Campaign::workloads`].
    pub workload: usize,
    /// Scheme under test.
    pub scheme: ErrorControlScheme,
    /// The derived master seed for this task's experiment.
    ///
    /// Seeds are drawn with [`rand::seed_stream`] from the campaign seed
    /// and the `(replicate, workload)` pair — deliberately *not* the raw
    /// task index: all schemes of one (replicate, workload) cell share a
    /// seed so they face the same traffic realization, variation map,
    /// and fault history, keeping the CRC-normalized comparisons paired
    /// the way the paper's figures assume.
    pub seed: u64,
}

impl Campaign {
    /// The paper's full evaluation grid with default simulation lengths.
    pub fn paper_default() -> Self {
        Self {
            schemes: ErrorControlScheme::ALL.to_vec(),
            workloads: WorkloadProfile::all(),
            noc: NocConfig::default(),
            seed: 2019,
            replicates: 1,
            pretrain_cycles: 600_000,
            warmup_cycles: 2_000,
            measure_cycles: None,
            drain_limit: 200_000,
            hard_faults: None,
            customize: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// A reduced grid for fast runs (small mesh, short windows).
    pub fn quick() -> Self {
        Self {
            schemes: ErrorControlScheme::ALL.to_vec(),
            workloads: vec![WorkloadProfile::blackscholes(), WorkloadProfile::canneal()],
            noc: NocConfig::builder().mesh(4, 4).build(),
            seed: 7,
            replicates: 1,
            pretrain_cycles: 8_000,
            warmup_cycles: 1_000,
            measure_cycles: Some(6_000),
            drain_limit: 60_000,
            hard_faults: None,
            customize: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Decomposes the grid into its independent tasks, in serial run
    /// order: replicate-major, then workload, then scheme.
    pub fn tasks(&self) -> Vec<CampaignTask> {
        let mut tasks = Vec::with_capacity(self.task_count());
        for replicate in 0..self.replicates.max(1) {
            for workload in 0..self.workloads.len() {
                let stream = (replicate * self.workloads.len() + workload) as u64;
                let seed = rand::seed_stream(self.seed, stream);
                for &scheme in &self.schemes {
                    tasks.push(CampaignTask {
                        index: tasks.len(),
                        replicate,
                        workload,
                        scheme,
                        seed,
                    });
                }
            }
        }
        tasks
    }

    /// How many tasks [`tasks`](Self::tasks) lists.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `usize`.
    pub fn task_count(&self) -> usize {
        self.replicates
            .max(1)
            .checked_mul(self.workloads.len())
            .and_then(|cells| cells.checked_mul(self.schemes.len()))
            .expect("campaign task count overflows usize")
    }

    /// Task `index` of [`tasks`](Self::tasks), derived directly: its
    /// seed is drawn without building the rest of the list.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`task_count`](Self::task_count).
    pub fn task(&self, index: usize) -> CampaignTask {
        assert!(
            index < self.task_count(),
            "task {index} of a {}-task campaign",
            self.task_count()
        );
        let cell = index / self.schemes.len();
        CampaignTask {
            index,
            replicate: cell / self.workloads.len(),
            workload: cell % self.workloads.len(),
            scheme: self.schemes[index % self.schemes.len()],
            seed: rand::seed_stream(self.seed, cell as u64),
        }
    }

    /// Builds the fully configured experiment for one task.
    ///
    /// # Panics
    ///
    /// Panics if `task.workload` is out of range or the campaign
    /// configuration is invalid.
    pub fn experiment(&self, task: &CampaignTask) -> Experiment {
        let mut builder = Experiment::builder()
            .scheme(task.scheme)
            .workload(self.workloads[task.workload].clone())
            .noc(self.noc)
            .seed(task.seed)
            .pretrain_cycles(self.pretrain_cycles)
            .warmup_cycles(self.warmup_cycles)
            .drain_limit(self.drain_limit)
            .telemetry(self.telemetry.clone());
        if let Some(cap) = self.measure_cycles {
            builder = builder.measure_cycles(cap);
        }
        if let Some(hf) = &self.hard_faults {
            builder = builder.hard_faults(hf.clone());
        }
        if let Some(f) = self.customize {
            builder = f(builder);
        }
        builder
            .build()
            .expect("campaign configuration is validated")
    }

    /// Runs one task to completion.
    ///
    /// # Panics
    ///
    /// Panics as [`experiment`](Self::experiment) does.
    pub fn run_task(&self, task: &CampaignTask) -> ExperimentReport {
        self.experiment(task).run()
    }

    /// Runs every task serially, in task order.
    pub fn run(&self) -> CampaignResult {
        CampaignResult {
            reports: self.tasks().iter().map(|t| self.run_task(t)).collect(),
        }
    }

    /// A stable fingerprint of everything that shapes the task list and
    /// its results — used by checkpoint manifests to refuse resuming a
    /// checkpoint directory against a different campaign.
    ///
    /// The `customize` hook cannot be fingerprinted (it is an arbitrary
    /// function); only its presence is folded in, so swapping one hook
    /// for another between checkpoint and resume is the caller's
    /// responsibility.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical rendering of the run-relevant fields.
        const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut canon = String::new();
        use std::fmt::Write;
        write!(
            canon,
            "seed={};replicates={};pretrain={};warmup={};measure={:?};drain={};noc={:?};custom={};",
            self.seed,
            self.replicates.max(1),
            self.pretrain_cycles,
            self.warmup_cycles,
            self.measure_cycles,
            self.drain_limit,
            self.noc,
            self.customize.is_some(),
        )
        .expect("write to string");
        if let Some(hf) = &self.hard_faults {
            // The schedule's canonical text (CRC trailer included) pins
            // the exact fault realization; fault-free campaigns render
            // nothing here so their fingerprints are unchanged.
            write!(canon, "hardfaults={};", hf.to_text()).expect("write to string");
        }
        for s in &self.schemes {
            write!(canon, "scheme={s};").expect("write to string");
        }
        for w in &self.workloads {
            write!(canon, "workload={}/{};", w.name, w.duration_cycles).expect("write to string");
        }
        canon.bytes().fold(FNV_OFFSET, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        })
    }
}

/// The results of a campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// All reports, workload-major, scheme-minor.
    pub reports: Vec<ExperimentReport>,
}

impl CampaignResult {
    /// Looks up the report for `(scheme, workload)`.
    pub fn report(&self, scheme: ErrorControlScheme, workload: &str) -> Option<&ExperimentReport> {
        self.reports
            .iter()
            .find(|r| r.scheme == scheme && r.workload == workload)
    }

    /// Workload names, in run order.
    pub fn workloads(&self) -> Vec<String> {
        let mut names = Vec::new();
        for r in &self.reports {
            if !names.contains(&r.workload) {
                names.push(r.workload.clone());
            }
        }
        names
    }

    /// `metric(scheme)/metric(CRC)` for one workload.
    ///
    /// Returns `None` when either report is missing or the baseline is
    /// non-positive.
    pub fn normalized_to_crc(
        &self,
        scheme: ErrorControlScheme,
        workload: &str,
        metric: impl Fn(&ExperimentReport) -> f64,
    ) -> Option<f64> {
        let base = metric(self.report(ErrorControlScheme::StaticCrc, workload)?);
        if base <= 0.0 {
            return None;
        }
        Some(metric(self.report(scheme, workload)?) / base)
    }

    /// Geometric mean of the CRC-normalized metric across workloads.
    pub fn geomean_normalized(
        &self,
        scheme: ErrorControlScheme,
        metric: impl Fn(&ExperimentReport) -> f64 + Copy,
    ) -> f64 {
        let values: Vec<f64> = self
            .workloads()
            .iter()
            .filter_map(|w| self.normalized_to_crc(scheme, w, metric))
            .filter(|v| *v > 0.0)
            .collect();
        if values.is_empty() {
            return 0.0;
        }
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }

    /// Renders a figure-style table: one row per workload (plus a
    /// geometric-mean row), one column per scheme, each cell the
    /// CRC-normalized metric.
    pub fn figure_table(
        &self,
        title: &str,
        metric: impl Fn(&ExperimentReport) -> f64 + Copy,
    ) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let schemes = ErrorControlScheme::ALL;
        writeln!(out, "# {title}").expect("write to string");
        write!(out, "{:<16}", "benchmark").expect("write");
        for s in schemes {
            write!(out, "{:>10}", s.to_string()).expect("write");
        }
        out.push('\n');
        for w in self.workloads() {
            write!(out, "{w:<16}").expect("write");
            for s in schemes {
                match self.normalized_to_crc(s, &w, metric) {
                    Some(v) => write!(out, "{v:>10.3}").expect("write"),
                    None => write!(out, "{:>10}", "-").expect("write"),
                }
            }
            out.push('\n');
        }
        write!(out, "{:<16}", "geomean").expect("write");
        for s in schemes {
            write!(out, "{:>10.3}", self.geomean_normalized(s, metric)).expect("write");
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> CampaignResult {
        let mut c = Campaign::quick();
        c.workloads = vec![WorkloadProfile::blackscholes()];
        c.pretrain_cycles = 4_000;
        c.measure_cycles = Some(4_000);
        c.run()
    }

    #[test]
    fn campaign_runs_full_grid() {
        let result = tiny_campaign();
        assert_eq!(result.reports.len(), 4);
        for s in ErrorControlScheme::ALL {
            let r = result.report(s, "blackscholes").expect("report exists");
            assert!(r.packets_injected > 0);
            assert_eq!(r.packets_delivered, r.packets_injected);
        }
    }

    #[test]
    fn crc_normalization_is_identity_for_crc() {
        let result = tiny_campaign();
        let v = result
            .normalized_to_crc(ErrorControlScheme::StaticCrc, "blackscholes", |r| {
                r.avg_latency_cycles
            })
            .expect("baseline exists");
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_single_workload_matches_point() {
        let result = tiny_campaign();
        let point = result
            .normalized_to_crc(ErrorControlScheme::StaticArqEcc, "blackscholes", |r| {
                r.avg_latency_cycles
            })
            .expect("exists");
        let geo =
            result.geomean_normalized(ErrorControlScheme::StaticArqEcc, |r| r.avg_latency_cycles);
        assert!((point - geo).abs() < 1e-12);
    }

    #[test]
    fn figure_table_formats_all_schemes() {
        let result = tiny_campaign();
        let table = result.figure_table("Fig test", |r| r.avg_latency_cycles);
        assert!(table.contains("Fig test"));
        assert!(table.contains("blackscholes"));
        assert!(table.contains("geomean"));
        for s in ["CRC", "ARQ+ECC", "DT", "RL"] {
            assert!(table.contains(s), "missing column {s}");
        }
    }

    #[test]
    fn missing_report_yields_none() {
        let result = tiny_campaign();
        assert!(result
            .normalized_to_crc(ErrorControlScheme::ProposedRl, "nonexistent", |r| {
                r.avg_latency_cycles
            })
            .is_none());
    }

    #[test]
    fn tasks_enumerate_the_grid_in_run_order() {
        let mut c = Campaign::quick();
        c.workloads = vec![
            WorkloadProfile::blackscholes(),
            WorkloadProfile::swaptions(),
        ];
        c.replicates = 2;
        let tasks = c.tasks();
        assert_eq!(tasks.len(), 2 * 2 * c.schemes.len());
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.index, i, "task index matches position");
        }
        // Replicate-major, workload-major, scheme-minor.
        assert_eq!(
            (tasks[0].replicate, tasks[0].workload),
            (0, 0),
            "first cell"
        );
        let per_rep = tasks.len() / 2;
        assert_eq!(tasks[per_rep].replicate, 1, "second replicate follows");
        assert_eq!(tasks[per_rep].workload, 0);
    }

    #[test]
    fn schemes_within_a_cell_share_a_seed_but_cells_differ() {
        let mut c = Campaign::quick();
        c.workloads = vec![
            WorkloadProfile::blackscholes(),
            WorkloadProfile::swaptions(),
        ];
        c.replicates = 2;
        let tasks = c.tasks();
        let n = c.schemes.len();
        // All schemes of one (replicate, workload) cell are paired on the
        // same seed so CRC-normalized comparisons see the same traffic,
        // variation map, and fault realization.
        for cell in tasks.chunks(n) {
            assert!(cell.iter().all(|t| t.seed == cell[0].seed));
        }
        // ... while distinct cells draw decorrelated seeds.
        let mut cell_seeds: Vec<u64> = tasks.chunks(n).map(|cell| cell[0].seed).collect();
        cell_seeds.sort_unstable();
        cell_seeds.dedup();
        assert_eq!(cell_seeds.len(), 4, "4 cells, 4 distinct seeds");
    }

    proptest::proptest! {
        #[test]
        fn task_by_index_equals_the_enumerated_list(
            schemes in 1usize..5,
            workloads in 1usize..12,
            replicates in 0usize..6,
            seed: u64
        ) {
            let c = Campaign {
                schemes: ErrorControlScheme::ALL[..schemes].to_vec(),
                workloads: WorkloadProfile::all()[..workloads].to_vec(),
                seed,
                replicates,
                ..Campaign::quick()
            };
            let listed = c.tasks();
            proptest::prop_assert_eq!(listed.len(), c.task_count());
            let direct: Vec<CampaignTask> = (0..c.task_count()).map(|i| c.task(i)).collect();
            proptest::prop_assert_eq!(direct, listed);
        }
    }

    #[test]
    #[should_panic(expected = "task 4 of a 4-task campaign")]
    fn task_past_the_grid_panics() {
        let mut c = Campaign::quick();
        c.workloads.truncate(1);
        let _ = c.task(4);
    }

    #[test]
    fn serial_run_equals_per_task_runs() {
        let mut c = Campaign::quick();
        c.workloads = vec![WorkloadProfile::blackscholes()];
        c.pretrain_cycles = 4_000;
        c.measure_cycles = Some(4_000);
        let serial = c.run();
        let per_task: Vec<ExperimentReport> = c.tasks().iter().map(|t| c.run_task(t)).collect();
        assert_eq!(serial.reports, per_task);
    }

    #[test]
    fn fingerprint_tracks_run_relevant_fields() {
        let a = Campaign::quick();
        let mut b = Campaign::quick();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same config, same print");
        b.seed += 1;
        assert_ne!(a.fingerprint(), b.fingerprint(), "seed changes it");
        let mut c = Campaign::quick();
        c.workloads.pop();
        assert_ne!(a.fingerprint(), c.fingerprint(), "workload set changes it");
        let mut d = Campaign::quick();
        d.replicates = 3;
        assert_ne!(a.fingerprint(), d.fingerprint(), "replicates change it");
        let mut e = Campaign::quick();
        e.hard_faults = Some(Arc::new(HardFaultSchedule::random(
            noc_sim::topology::Mesh::new(4, 4),
            2,
            0,
            (1, 100),
            9,
        )));
        assert_ne!(
            a.fingerprint(),
            e.fingerprint(),
            "fault schedule changes it"
        );
        let mut f = Campaign::quick();
        f.hard_faults = Some(Arc::new(HardFaultSchedule::random(
            noc_sim::topology::Mesh::new(4, 4),
            2,
            0,
            (1, 100),
            10,
        )));
        assert_ne!(
            e.fingerprint(),
            f.fingerprint(),
            "different fault realizations get different prints"
        );
    }

    #[test]
    fn campaign_threads_hard_faults_into_every_task() {
        use noc_fault::hardfault::{HardFault, HardFaultEntry};
        let mut c = Campaign::quick();
        c.workloads = vec![WorkloadProfile::blackscholes()];
        c.schemes = vec![
            ErrorControlScheme::StaticCrc,
            ErrorControlScheme::ProposedRl,
        ];
        c.pretrain_cycles = 4_000;
        c.measure_cycles = Some(4_000);
        // Cutting both links of corner node 0 at cycle 1 isolates a live
        // node long before any scheme's measurement window opens; the
        // unreachable-pairs gauge survives the measurement-phase stats
        // reset, so every report must see the degraded topology.
        c.hard_faults = Some(Arc::new(HardFaultSchedule::explicit(
            noc_sim::topology::Mesh::new(4, 4),
            vec![
                HardFaultEntry {
                    cycle: 1,
                    fault: HardFault::Link {
                        node: 0,
                        dir: noc_sim::topology::Direction::East,
                    },
                },
                HardFaultEntry {
                    cycle: 1,
                    fault: HardFault::Link {
                        node: 0,
                        dir: noc_sim::topology::Direction::South,
                    },
                },
            ],
        )));
        let result = c.run();
        for r in &result.reports {
            assert!(
                r.unreachable_pairs > 0,
                "{}/{} does not reflect the degraded topology",
                r.scheme,
                r.workload
            );
        }
    }
}
