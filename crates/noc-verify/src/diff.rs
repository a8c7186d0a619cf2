//! The differential driver: run a case on two backends, diff the
//! reports, shrink failures to a minimal replayable case.

use crate::backend::ReferenceBackend;
use noc_sim::network::Network;
use rlnoc_core::backend::SimBackend;
use rlnoc_core::fuzzcase::{FieldDiff, FuzzCase};
use rlnoc_core::protocol::FaultTolerantProtocol;

/// Outcome of one differential case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The case that was run.
    pub case: FuzzCase,
    /// Report fields that differ between the two backends (empty ⇒ the
    /// backends agree bit for bit).
    pub diffs: Vec<FieldDiff>,
}

impl CaseOutcome {
    /// `true` when the backends produced bit-identical reports.
    pub fn agrees(&self) -> bool {
        self.diffs.is_empty()
    }
}

/// Runs `case` through both backends and diffs the resulting reports.
pub fn run_case_with<A: SimBackend, B: SimBackend>(case: &FuzzCase) -> CaseOutcome {
    let a = case.experiment().run_with_backend::<A>();
    let b = case.experiment().run_with_backend::<B>();
    CaseOutcome {
        case: case.clone(),
        diffs: a.diff(&b),
    }
}

/// Runs `case` on the optimized kernel and the reference model.
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    run_case_with::<Network<FaultTolerantProtocol>, ReferenceBackend>(case)
}

/// Greedily shrinks `case` while `diverges` keeps reproducing, returning
/// the smallest divergent case found. Bounded by `max_steps` shrink
/// attempts so pathological cases cannot stall a CI run.
pub fn shrink(case: &FuzzCase, max_steps: usize, diverges: impl Fn(&FuzzCase) -> bool) -> FuzzCase {
    let mut best = case.clone();
    let mut steps = 0;
    'outer: while steps < max_steps {
        for candidate in best.shrink_candidates() {
            steps += 1;
            if steps > max_steps {
                break 'outer;
            }
            if diverges(&candidate) {
                best = candidate;
                continue 'outer;
            }
        }
        break; // no candidate reproduces: local minimum
    }
    best
}

/// Runs a divergent case's shrink loop against the optimized/reference
/// pair and returns the minimal reproducing case.
pub fn shrink_divergence(case: &FuzzCase, max_steps: usize) -> FuzzCase {
    shrink(case, max_steps, |c| !run_case(c).agrees())
}
