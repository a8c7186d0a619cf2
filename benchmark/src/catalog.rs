//! Every metric the benchmark reports, by name and unit, in the order
//! `BENCHMARK.json` lists them. A run prints every end-to-end metric
//! untraced and every per-layer metric traced; a per-layer metric that
//! has no meaning on the workload being run reads 0.

use crate::output::Metric;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
    ("delivered_share", "share"),
    ("packet_latency_cyc", "cycles"),
    ("exec_cycles", "cycles"),
    ("energy_per_flit_pj", "pJ"),
    ("goodput_share", "share"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Ladder, hot_static_8x8.
    ("noc-coding.secded64_encode_ns", "ns"),
    ("noc-coding.secded64_decode_clean_ns", "ns"),
    ("noc-coding.secded64_decode_correct_ns", "ns"),
    ("noc-coding.crc32_words_ns", "ns"),
    ("noc-fault.error_draw_ns", "ns"),
    ("noc-sim.step_loaded_us", "us"),
    ("noc-sim.offer_ns", "ns"),
    ("noc-power.dynamic_energy_ns", "ns"),
    // Ladder, cool_adaptive_8x8.
    ("noc-rl.agent_step_ns", "ns"),
    ("noc-rl.dt_fit_ms", "ms"),
    ("noc-rl.dt_predict_ns", "ns"),
    ("noc-rl.policy_snapshot_us", "us"),
    ("noc-fault.thermal_update_us", "us"),
    ("noc-sim.step_idle_ns", "ns"),
    ("rlnoc-core.experiment_build_us", "us"),
    ("rlnoc-telemetry.disabled_timer_ns", "ns"),
    // Ladder, fault_churn_torus16.
    ("noc-sim.fault_routes_compute_ms", "ms"),
    ("noc-fault.schedule_random_ms", "ms"),
    ("noc-topo.tables_build_us", "us"),
    ("noc-topo.min_route_ns", "ns"),
    ("rlnoc-runner.checkpoint_store_us", "us"),
    ("rlnoc-runner.checkpoint_load_us", "us"),
    // Ladder, serve_mixed.
    ("rlnoc-serve.frame_roundtrip_ns", "ns"),
    ("rlnoc-serve.sched_enqueue_pop_ns", "ns"),
    ("rlnoc-core.spec_roundtrip_us", "us"),
    // Shares of op wall, simulator workloads.
    ("noc-sim.phase_events_share", "share"),
    ("noc-sim.phase_inject_share", "share"),
    ("noc-sim.phase_sa_st_share", "share"),
    ("noc-sim.phase_va_share", "share"),
    ("noc-sim.phase_rc_share", "share"),
    ("noc-sim.phase_sample_share", "share"),
    ("noc-sim.hardfault_apply_share", "share"),
    ("noc-rl.td_update_share", "share"),
    ("noc-fault.thermal_update_share", "share"),
    ("rlnoc-core.unattributed_share", "share"),
    ("rlnoc-core.pretrain_share", "share"),
    ("rlnoc-runner.overhead_share", "share"),
    // Service.
    ("rlnoc-serve.submit_rtt_us", "us"),
    ("rlnoc-serve.done_wait_ms", "ms"),
    ("rlnoc-serve.watch_wait_ms", "ms"),
    ("rlnoc-serve.watch_stall_share", "share"),
    ("rlnoc-serve.result_rtt_us", "us"),
    ("rlnoc-serve.server_latency_p50_ms", "ms"),
    ("rlnoc-serve.over_limit_share", "share"),
    ("rlnoc-serve.admit_us", "us"),
    ("rlnoc-serve.drain_task_us", "us"),
    ("rlnoc-serve.capacity_cps", "1/s"),
    // Exact counts per op.
    ("noc-sim.cycles_per_op", "count"),
    ("noc-sim.active_router_share", "share"),
    ("noc-sim.flits_delivered_per_op", "count"),
    ("noc-sim.ns_per_delivered_flit", "ns"),
    ("noc-sim.reroutes_per_op", "count"),
    ("noc-sim.packets_lost_per_op", "count"),
    ("noc-coding.ecc_corrections_per_op", "count"),
    ("noc-coding.crc_failures_per_op", "count"),
    ("noc-coding.hop_nacks_per_op", "count"),
    ("noc-coding.retx_per_kpkt", "1/1000"),
    ("noc-rl.td_updates_per_op", "count"),
    ("noc-rl.mode0_share", "share"),
    ("rlnoc-runner.checkpoint_bytes_per_op", "count"),
    ("rlnoc-runner.checkpoint_files_per_op", "count"),
    // Harness.
    ("harness.ops_timed", "count"),
    ("harness.op_iqr_pct", "%"),
    ("harness.op_p90_ms", "ms"),
    ("harness.gen_lag_p90_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
];

/// Values measured in a run, by metric name.
#[derive(Debug, Default)]
pub struct Measured(BTreeMap<&'static str, f64>);

impl Measured {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalog or is set twice: the
    /// catalog is the contract, a stray name is a bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the catalog"
        );
        assert!(
            self.0.insert(name, value).is_none(),
            "metric `{name}` set twice"
        );
    }

    /// Records ladder cells.
    pub fn extend(&mut self, cells: Vec<Metric>) {
        for m in cells {
            self.set(m.name, m.value);
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every end-to-end metric, in catalog order.
    ///
    /// # Panics
    ///
    /// Panics when one was not measured: every workload reports all.
    pub fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self
                    .get(name)
                    .unwrap_or_else(|| panic!("end-to-end metric `{name}` was not measured")),
                unit,
            })
            .collect()
    }

    /// Every per-layer metric, in catalog order; 0 where the workload
    /// has no such layer.
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.get(name).unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    /// Names of the per-layer metrics this run measured.
    pub fn measured_per_layer(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| self.0.contains_key(n))
            .collect()
    }
}
