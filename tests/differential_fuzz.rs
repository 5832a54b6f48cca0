//! Differential fuzzing lane: random KIR programs, interpreter vs. core.
//!
//! Each program is run through three independent machines — the oracle's
//! tree-walking interpreter, a straight-line trace replay of the lowered
//! program, and the out-of-order pipeline (every 4th program on the
//! one-core finite-banked machine, the hardware proxy) — and their architectural state and
//! retired-operation counts must agree exactly. This campaign is the
//! repo's substitute for the paper's Table I validation against physical
//! ThunderX2/A64FX hardware: instead of two physical machines, we cross
//! check three independently implemented semantics.
//!
//! The campaign is fixed-seed and fully deterministic. Override the
//! program count with `ARMDSE_FUZZ_PROGRAMS=N` (CI smoke uses a smaller
//! N; the acceptance campaign is the 200-program default).

use armdse::oracle::{fuzz, fuzz_with, FuzzConfig, FuzzReport};
use armdse::simcore::{Idealized, Memoized, MultiCore, SimBackend};

fn campaign_config() -> FuzzConfig {
    let mut cfg = FuzzConfig::default();
    if let Ok(n) = std::env::var("ARMDSE_FUZZ_PROGRAMS") {
        cfg.programs = n.parse().expect("ARMDSE_FUZZ_PROGRAMS must be an integer");
    }
    cfg
}

fn assert_clean(lane: &str, cfg: &FuzzConfig, report: &FuzzReport) {
    assert_eq!(report.programs, cfg.programs);
    assert!(
        report.ok(),
        "{lane} fuzz found {} divergence(s); first: program #{} on {:?}: {}",
        report.failures.len(),
        report.failures[0].index,
        report.failures[0].backend,
        report.failures[0].error,
    );
}

#[test]
fn differential_fuzz_campaign_is_clean() {
    let cfg = campaign_config();
    assert_clean("differential", &cfg, &fuzz(&cfg));
}

/// Reuse lane: the same fixed-seed program population, every program
/// forced through the run-memoizing backend. `check_kernel`
/// cross-checks the backend's memoized plain and metrics modes against
/// its own uncached trace mode and the reference interpreter, so a memo
/// key that let one program or mode answer another surfaces as a
/// divergence.
#[test]
fn differential_fuzz_reuse_lane_is_clean() {
    let cfg = campaign_config();
    let backend = Memoized::new(Idealized);
    assert_clean("reuse-lane", &cfg, &fuzz_with(&cfg, &backend));
    // The campaign must actually have exercised the memo: every program
    // runs in plain and in metrics mode.
    let rs = backend
        .reuse_stats()
        .expect("memoized backend reports stats");
    assert!(
        rs.misses > 0 && rs.insertions > 0,
        "reuse lane never touched the run memo: {rs:?}"
    );
}

/// Multicore lane: the same population on a two-core machine, so the
/// shared-handle instantiation of the one memory hierarchy is fuzzed
/// like the owned one. Core 0's commit trace is replayed against the
/// reference interpreter, and the aggregate statistics must be
/// metrics-transparent with every core-cycle attributed.
#[test]
fn differential_fuzz_multicore_lane_is_clean() {
    let cfg = campaign_config();
    assert_clean(
        "multicore-lane",
        &cfg,
        &fuzz_with(&cfg, &MultiCore::new(2, 8)),
    );
}
