//! Correctness checks on every operation's output.
//!
//! * Every report satisfies delivered ≤ injected and survives
//!   `parse_report(render_report(r)) == r`.
//! * All repetitions of one operation in a run render to the same
//!   bytes (an operation is a pure function of its inputs).
//! * At seed 2019 the digests equal `golden/digests-seed2019.txt`,
//!   which only `--regen-golden` rewrites: a change that moves one has
//!   changed the model, not the simulator's speed.

use rlnoc_core::ExperimentReport;
use rlnoc_runner::{parse_report, render_report};
use rlnoc_serve::render_result_text;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The seed the committed digests were taken at.
pub const GOLDEN_SEED: u64 = 2019;

const GOLDEN: &str = include_str!("../golden/digests-seed2019.txt");

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/digests-seed2019.txt")
}

/// FNV-1a, 64 bit.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Counts the operations checked and failed, and collects the digest
/// of every checked output, keyed by what produced it, and every
/// violation found.
#[derive(Debug)]
pub struct Checker {
    workload: &'static str,
    seed: u64,
    seen: BTreeMap<String, u64>,
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// What a run's checks came to.
#[derive(Debug)]
pub struct Verdict {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that errored, timed out or failed a check.
    pub failed: u64,
    /// Why, one line each.
    pub violations: Vec<String>,
}

impl Checker {
    /// A checker for one run of `workload` at `seed`.
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self {
            workload,
            seed,
            seen: BTreeMap::new(),
            violations: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one operation; `verdict` says why it failed, if it did.
    pub fn op(&mut self, what: &str, verdict: Option<String>) {
        self.ops(what, 1, verdict.map(|why| (1, why)));
    }

    /// Counts `attempted` operations at once, of which `failed` names
    /// how many failed and why.
    pub fn ops(&mut self, what: &str, attempted: u64, failed: Option<(u64, String)>) {
        self.attempted += attempted;
        if let Some((n, why)) = failed {
            self.failed += n;
            self.violations.push(format!("{what}: {why}"));
        }
    }

    /// Checks and counts one operation by its reports. `key` names the
    /// operation's inputs: every call with one key must see the same
    /// bytes.
    pub fn check_reports(&mut self, key: &str, reports: &[ExperimentReport]) {
        let before = self.violations.len();
        if reports.is_empty() {
            self.violations.push(format!("{key}: no reports"));
        }
        for (i, r) in reports.iter().enumerate() {
            if r.packets_delivered > r.packets_injected {
                self.violations.push(format!(
                    "{key} task {i}: delivered {} > injected {}",
                    r.packets_delivered, r.packets_injected
                ));
            }
            let body = format!("{}end\n", render_report(r));
            if parse_report(&body).ok().as_ref() != Some(r) {
                self.violations.push(format!(
                    "{key} task {i}: report does not survive render/parse"
                ));
            }
        }
        self.check_text(key, &render_result_text(reports));
        self.attempted += 1;
        self.failed += u64::from(self.violations.len() != before);
    }

    /// Records the digest of `text` under `key`; a second call with the
    /// same key must bring the same bytes. Returns whether it did.
    pub fn check_text(&mut self, key: &str, text: &str) -> bool {
        let d = digest(text);
        match self.seen.insert(key.to_string(), d) {
            Some(first) if first != d => {
                self.violations.push(format!(
                    "{key}: repetition rendered differently ({first:016x} then {d:016x})"
                ));
                // Keep the first digest: later repetitions compare to it.
                self.seen.insert(key.to_string(), first);
                false
            }
            _ => true,
        }
    }

    /// Compares the collected digests with the committed ones (seed
    /// 2019 only), or rewrites this workload's lines of the golden
    /// file when `regen` is set. A golden mismatch fails the run without
    /// belonging to one op.
    pub fn finish(mut self, regen: bool) -> Verdict {
        if regen {
            match self.rewrite_golden() {
                Ok(path) => println!("golden digests rewritten: {}", path.display()),
                Err(e) => self
                    .violations
                    .push(format!("cannot rewrite golden digests: {e}")),
            }
        } else if self.seed == GOLDEN_SEED {
            let golden = parse_golden(GOLDEN, self.workload);
            if golden != self.seen {
                for (key, d) in &self.seen {
                    match golden.get(key) {
                        Some(g) if g == d => {}
                        Some(g) => self.violations.push(format!(
                            "{key}: digest {d:016x} differs from golden {g:016x}"
                        )),
                        None => self
                            .violations
                            .push(format!("{key}: not in the golden file")),
                    }
                }
                for key in golden.keys().filter(|k| !self.seen.contains_key(*k)) {
                    self.violations
                        .push(format!("{key}: in the golden file, not produced"));
                }
            }
        }
        Verdict {
            attempted: self.attempted,
            failed: self.failed.max(u64::from(!self.violations.is_empty())),
            violations: self.violations,
        }
    }

    fn rewrite_golden(&self) -> std::io::Result<PathBuf> {
        if self.seed != GOLDEN_SEED {
            return Err(std::io::Error::other(format!(
                "golden digests are taken at seed {GOLDEN_SEED}"
            )));
        }
        let path = golden_path();
        let current = std::fs::read_to_string(&path).unwrap_or_default();
        let mut lines: Vec<String> = current
            .lines()
            .filter(|l| !l.starts_with('#') && l.split(' ').next() != Some(self.workload))
            .map(str::to_string)
            .collect();
        for (key, d) in &self.seen {
            lines.push(format!("{} {key} {d:016x}", self.workload));
        }
        lines.sort();
        let mut text = String::from(
            "# FNV-1a digests of every checked output at --seed 2019: <workload> <key> <digest>.\n\
             # Rewritten only by `--regen-golden`; a difference means the model changed.\n",
        );
        for l in lines {
            text.push_str(&l);
            text.push('\n');
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

fn parse_golden(text: &str, workload: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (w, key, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload).then_some((key.to_string(), u64::from_str_radix(d, 16).ok()?))
        })
        .collect()
}
