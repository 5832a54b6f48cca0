//! Architectural agreement between the two memory back-ends.
//!
//! [`Idealized`] (idealised hierarchy) and the one-core [`MultiCore`]
//! (finite-banked hierarchy, the stand-in for the paper's physical
//! ThunderX2 in Table I) model the *same* machine at different timing
//! detail. Everything architectural — retired instruction count,
//! per-class retirement summary, validation verdict, and the committed
//! instruction stream itself — must be identical between them; only
//! cycle counts and memory-latency attribution may differ.

use armdse::core::space::ParamSpace;
use armdse::core::DesignConfig;
use armdse::isa::instr::DynInstr;
use armdse::kernels::{build_workload, App, Workload, WorkloadScale};
use armdse::oracle::ArchState;
use armdse::simcore::{Idealized, MultiCore, RunMode, SimBackend, SimStats};

fn plain(b: &dyn SimBackend, w: &Workload, cfg: &DesignConfig) -> SimStats {
    b.run(&w.program, &cfg.core, &cfg.mem, RunMode::Plain).stats
}

fn traced(b: &dyn SimBackend, w: &Workload, cfg: &DesignConfig) -> (SimStats, Vec<DynInstr>) {
    b.run(&w.program, &cfg.core, &cfg.mem, RunMode::Trace)
        .into_traced()
}

#[test]
fn backends_agree_architecturally_on_every_app() {
    let space = ParamSpace::paper();
    for (i, &app) in App::ALL.iter().enumerate() {
        let cfg = space.sample_seeded(0x7A6E + i as u64);
        let w = build_workload(app, WorkloadScale::Tiny, cfg.core.vector_length);
        let a = plain(&Idealized, &w, &cfg);
        let b = plain(&MultiCore::default(), &w, &cfg);

        assert_eq!(a.retired, b.retired, "{app:?}: retired count diverged");
        assert_eq!(
            a.observed, b.observed,
            "{app:?}: retirement summary diverged"
        );
        assert_eq!(
            a.validated, b.validated,
            "{app:?}: validation verdict diverged"
        );
        assert!(a.validated, "{app:?}: run failed validation");
        assert!(!a.hit_cycle_limit && !b.hit_cycle_limit);
    }
}

#[test]
fn backends_commit_the_identical_instruction_stream() {
    let cfg = DesignConfig::thunderx2();
    let w = build_workload(App::Stream, WorkloadScale::Tiny, cfg.core.vector_length);
    let (a, trace_a) = traced(&Idealized, &w, &cfg);
    let (b, trace_b) = traced(&MultiCore::default(), &w, &cfg);

    assert_eq!(
        trace_a, trace_b,
        "commit streams diverged between back-ends"
    );
    assert_eq!(trace_a.len() as u64, a.retired);

    // Same committed stream ⇒ same architectural state under the oracle's
    // value semantics.
    let mut sa = ArchState::new();
    let mut sb = ArchState::new();
    for d in &trace_a {
        sa.apply(d);
    }
    for d in &trace_b {
        sb.apply(d);
    }
    assert_eq!(sa.diff(&sb), None);
    assert_eq!(a.retired, b.retired);
}

#[test]
fn trace_mode_is_timing_transparent() {
    // Recording the trace must not perturb the statistics: it is an
    // observation channel, not a different model.
    let cfg = DesignConfig::thunderx2();
    let w = build_workload(App::TeaLeaf, WorkloadScale::Tiny, cfg.core.vector_length);
    let unobserved = plain(&MultiCore::default(), &w, &cfg);
    let (stats, trace) = traced(&MultiCore::default(), &w, &cfg);
    assert_eq!(unobserved, stats, "tracing changed the statistics");
    assert_eq!(trace.len() as u64, unobserved.retired);
}

#[test]
fn backends_differ_only_in_timing() {
    // The banked hierarchy must actually change timing somewhere in the
    // space, or the proxy is vacuous; pick the paper's reference machine
    // where contention is known to bite.
    let cfg = DesignConfig::thunderx2();
    let w = build_workload(App::Stream, WorkloadScale::Small, cfg.core.vector_length);
    let a = plain(&Idealized, &w, &cfg);
    let b = plain(&MultiCore::default(), &w, &cfg);
    assert_eq!(a.retired, b.retired);
    assert_eq!(a.observed, b.observed);
    assert_ne!(a.cycles, b.cycles, "proxy back-end never affected timing");
}
