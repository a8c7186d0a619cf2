//! Full-pipeline run with the runtime invariant checkers armed.
//!
//! Compiled only under the `verify` feature (which forwards to
//! `noc-sim/verify` and `noc-rl/verify`); arming happens in-process so
//! the test needs no special environment. Every simulated cycle of the
//! optimized backend then re-derives flit conservation, credit
//! conservation, ARQ window sanity, and the stage masks from
//! scratch — and the run must still agree with the reference model.

#![cfg(feature = "verify")]

use rlnoc_core::fuzzcase::FuzzCase;
use rlnoc_verify::run_case;

#[test]
fn full_campaigns_uphold_runtime_invariants() {
    // Must be set before the first Network::step of this process reads
    // (and caches) the arming verdict — this test binary owns the
    // process, so doing it first thing in the only test is sound.
    std::env::set_var("RLNOC_VERIFY", "1");
    for i in 0..2 {
        let case = FuzzCase::generate(0x5EED_A11A, i);
        let out = run_case(&case);
        assert!(
            out.agrees(),
            "case {i} diverged under armed invariants:\n{case}\ndiffs: {:?}",
            out.diffs
        );
    }
}
