//! Golden-report regression tests.
//!
//! Each file under `tests/golden/` is the canonical rendering
//! ([`rlnoc_runner::render_report`]) of one fixed-seed experiment —
//! one per error-control scheme on a 4×4 mesh. The simulator kernel is
//! free to change *how* it computes (arena allocation, event-wheel
//! reuse, dense packet tables), but a freshly generated report must
//! stay byte-identical to the committed fixture. Any behavioural drift
//! — an extra RNG draw, a reordered arbiter grant, a changed counter —
//! shows up here as a diff.
//!
//! To intentionally re-baseline after a semantic change:
//!
//! ```sh
//! REGEN_GOLDEN=1 cargo test --test golden_reports
//! ```

use rlnoc_core::campaign::Campaign;
use rlnoc_core::{ErrorControlScheme, WorkloadProfile};
use std::path::PathBuf;

/// The fixed campaign whose per-scheme reports are pinned. Small enough
/// for tier-1 (4×4 mesh, short phases), long enough that every scheme
/// exercises its error-control path (retransmissions, NACKs, ECC
/// corrections all non-zero at the quick-campaign fault rate).
fn golden_campaign() -> Campaign {
    let mut campaign = Campaign::quick();
    campaign.workloads = vec![WorkloadProfile::blackscholes()];
    campaign.schemes = vec![
        ErrorControlScheme::StaticCrc,
        ErrorControlScheme::StaticArqEcc,
        ErrorControlScheme::ProposedRl,
    ];
    campaign.pretrain_cycles = 4_000;
    campaign.measure_cycles = Some(4_000);
    campaign
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.report"))
}

fn fixture_name(scheme: ErrorControlScheme) -> &'static str {
    match scheme {
        ErrorControlScheme::StaticCrc => "crc",
        ErrorControlScheme::StaticArqEcc => "arq_ecc",
        ErrorControlScheme::DecisionTree => "dt",
        ErrorControlScheme::ProposedRl => "rl",
    }
}

#[test]
fn reports_match_committed_goldens_byte_for_byte() {
    let regen = std::env::var("REGEN_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0");
    let campaign = golden_campaign();
    let result = campaign.run();
    assert_eq!(result.reports.len(), 3);

    let mut mismatches = Vec::new();
    for report in &result.reports {
        let fresh = rlnoc_runner::render_report(report);
        let path = golden_path(fixture_name(report.scheme));
        if regen {
            std::fs::write(&path, &fresh).expect("write golden fixture");
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); generate with REGEN_GOLDEN=1",
                path.display()
            )
        });
        if fresh != committed {
            mismatches.push(format!(
                "{}:\n--- committed\n{committed}\n--- fresh\n{fresh}",
                path.display()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "report drift vs golden fixtures (REGEN_GOLDEN=1 re-baselines):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_fixtures_parse_back_bit_exactly() {
    // The fixtures are not just byte-stable — they round-trip through
    // the checkpoint parser, so a resume sees exactly these values.
    for name in ["crc", "arq_ecc", "rl"] {
        let path = golden_path(name);
        let Ok(text) = std::fs::read_to_string(&path) else {
            // reports_match_committed_goldens_byte_for_byte reports the
            // missing-fixture case with a regeneration hint.
            continue;
        };
        let report = rlnoc_runner::parse_report(&format!("{text}end\n")).expect("fixture parses");
        assert_eq!(rlnoc_runner::render_report(&report), text);
    }
}

/// The policy the golden RL run learned, as it goes to disk: the
/// `rlnoc-policy` bytes are pinned by their length and their own CRC-32
/// trailer, so a change to the table's storage, its row order or its
/// number formatting shows up here and not only as a drifted report.
#[test]
fn rl_policy_snapshot_bytes_are_pinned() {
    let campaign = golden_campaign();
    let task = campaign
        .tasks()
        .into_iter()
        .find(|t| t.scheme == ErrorControlScheme::ProposedRl)
        .expect("the golden campaign has an RL task");
    let (_, artifacts) = campaign.experiment(&task).run_inspect();
    let snapshot = artifacts
        .controllers
        .policy_snapshot()
        .expect("RL bank snapshots");
    let mut bytes = Vec::new();
    snapshot.write(&mut bytes).expect("write to memory");
    let text = String::from_utf8(bytes).expect("snapshots are text");
    let trailer = text.lines().last().expect("non-empty");
    assert_eq!(
        (text.len(), trailer),
        (2_200, "crc32 6255cb0a"),
        "policy snapshot bytes drifted"
    );
}
