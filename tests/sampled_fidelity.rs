//! Sampled-tier fidelity bounds: the SimPoint-style warmup + measured
//! interval + extrapolation backend trades cycle accuracy for speed, but
//! the trade must stay *pinned*. These tests measure the relative cycle
//! error of `Sampled` against the exact backend over a paper-shaped grid
//! (the four kernels at Small scale, on the ThunderX2 baseline and on
//! seeded Table II design points) and assert it never exceeds the stated
//! tolerance — while everything architectural (retired ops, observed op
//! summary, validation verdict) must stay exactly equal, because
//! sampling only estimates *timing*, never *what executed*.

use armdse::core::space::ParamSpace;
use armdse::core::Engine;
use armdse::kernels::{App, WorkloadScale};
use armdse::simcore::{
    Idealized, RunMode, Sampled, SimBackend, DEFAULT_INTERVAL_LEN, DEFAULT_WARMUP,
};

/// Maximum relative cycle error of the Sampled tier on the grid below.
/// Measured headroom: with the default warmup (one full interval, so the
/// measured window sits past every kernel's cold-start transient) the
/// worst observed error across the 20-point grid is ~0.035; shrinking
/// the warmup to 1024 balloons TeaLeaf points past 0.7, which is what
/// motivated the default. The bound is the screening contract the
/// explorer relies on — Sampled ranks candidates, it does not report
/// publishable cycles.
const MAX_REL_CYCLE_ERROR: f64 = 0.10;

fn rel_err(estimate: u64, exact: u64) -> f64 {
    (estimate as f64 - exact as f64).abs() / exact as f64
}

/// Cycle estimates stay within tolerance and architectural results are
/// exact, across apps × {baseline, 4 seeded design points}.
#[test]
fn sampled_error_bounded_and_architecturally_exact_on_paper_grid() {
    let engine = Engine::idealized();
    let space = ParamSpace::paper();
    let scale = WorkloadScale::Small;
    let sampled = Sampled::with_params(Idealized, DEFAULT_INTERVAL_LEN, DEFAULT_WARMUP);
    let baseline = armdse::core::DesignConfig::thunderx2();
    let mut worst: (f64, String) = (0.0, String::new());
    for app in App::ALL {
        let mut points = vec![("baseline".to_string(), baseline)];
        for i in 0..4u64 {
            points.push((format!("seed{i}"), space.sample_seeded(0x000F_1DE1 + i)));
        }
        for (tag, cfg) in &points {
            let w = engine.workload(app, scale, cfg.core.vector_length);
            let exact = Idealized
                .run(&w.program, &cfg.core, &cfg.mem, RunMode::Plain)
                .stats;
            let est = sampled
                .run(&w.program, &cfg.core, &cfg.mem, RunMode::Plain)
                .stats;
            let err = rel_err(est.cycles, exact.cycles);
            if err > worst.0 {
                worst = (err, format!("{app:?}/{tag}"));
            }
            assert!(
                err <= MAX_REL_CYCLE_ERROR,
                "{app:?}/{tag}: sampled {} vs exact {} cycles (rel err {err:.3} > {MAX_REL_CYCLE_ERROR})",
                est.cycles,
                exact.cycles
            );
            // Architectural quantities must be exact, not estimated.
            assert_eq!(est.retired, exact.retired, "{app:?}/{tag}: retired");
            assert_eq!(est.observed, exact.observed, "{app:?}/{tag}: op summary");
            assert_eq!(est.validated, exact.validated, "{app:?}/{tag}: validation");
            assert!(!est.hit_cycle_limit, "{app:?}/{tag}: wedged");
        }
    }
    eprintln!("worst sampled error on grid: {:.3} at {}", worst.0, worst.1);
}

/// When the warmup alone covers the whole dynamic stream, sampling
/// degenerates to exact simulation — zero error by construction.
#[test]
fn sampled_is_exact_when_warmup_covers_the_program() {
    let engine = Engine::idealized();
    let cfg = armdse::core::DesignConfig::thunderx2();
    for app in App::ALL {
        let w = engine.workload(app, WorkloadScale::Tiny, cfg.core.vector_length);
        let exact = Idealized
            .run(&w.program, &cfg.core, &cfg.mem, RunMode::Plain)
            .stats;
        let oversized = Sampled::with_params(Idealized, 64, exact.retired + 1);
        let est = oversized
            .run(&w.program, &cfg.core, &cfg.mem, RunMode::Plain)
            .stats;
        assert_eq!(est, exact, "{app:?}: oversized warmup must be exact");
    }
}

/// The engine-level Sampled tier rides the same bound: `Engine::sampled`
/// cycles on the baseline stay within tolerance of `Engine::idealized`.
#[test]
fn sampled_engine_tracks_exact_engine_within_tolerance() {
    let exact_engine = Engine::idealized();
    let sampled_engine = Engine::sampled(DEFAULT_INTERVAL_LEN, DEFAULT_WARMUP);
    let cfg = armdse::core::DesignConfig::thunderx2();
    let scale = WorkloadScale::Small;
    for app in App::ALL {
        let exact = exact_engine.simulate_config(app, scale, &cfg);
        let est = sampled_engine.simulate_config(app, scale, &cfg);
        let err = rel_err(est.cycles, exact.cycles);
        assert!(
            err <= MAX_REL_CYCLE_ERROR,
            "{app:?}: engine-level sampled error {err:.3}"
        );
        assert_eq!(est.retired, exact.retired);
        assert_eq!(est.observed, exact.observed);
    }
}
