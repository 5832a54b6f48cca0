//! Shape tests: the qualitative results of the paper's evaluation must
//! hold in this reproduction (who wins, roughly by what factor, where the
//! knees fall). Quantitative paper-vs-measured numbers live in
//! EXPERIMENTS.md; these tests pin the shapes so regressions are caught.

use armdse::analysis::sweeps;
use armdse::analysis::{fig1, table1};
use armdse::core::space::ParamSpace;
use armdse::core::{Engine, JobSpec};
use armdse::kernels::{App, WorkloadScale};

/// Small-scale campaigns; the sweeps pair 4 base configurations.
fn small(configs: usize) -> JobSpec {
    JobSpec {
        configs,
        scale: WorkloadScale::Small,
        seed: 808,
        threads: 2,
        ..JobSpec::default()
    }
}

/// Fig. 1 shape: STREAM/miniBUDE heavily vectorised at every VL;
/// TeaLeaf marginal; MiniSweep not at all.
#[test]
fn fig1_vectorisation_split() {
    let f = fig1::run(&Engine::idealized(), &small(1)).unwrap();
    for vl in fig1::VLS {
        assert!(f.sve_pct(App::Stream, vl).unwrap() > 40.0);
        assert!(f.sve_pct(App::MiniBude, vl).unwrap() > 60.0);
        assert!(f.sve_pct(App::TeaLeaf, vl).unwrap() < 10.0);
        assert!(f.sve_pct(App::MiniSweep, vl).unwrap() < 0.5);
    }
}

/// Table I shape: the simulator lands within tens of percent of the
/// hardware proxy, with error varying by app (access-pattern dependent).
#[test]
fn table1_validation_band() {
    let t = table1::run(&Engine::idealized(), &small(1)).unwrap();
    assert_eq!(t.rows.len(), 4);
    for r in &t.rows {
        assert!(
            r.pct_difference < 60.0,
            "{} diverged {}%",
            r.app,
            r.pct_difference
        );
    }
    assert!(
        t.mean_pct_difference() > 0.5,
        "proxy should not agree exactly"
    );
}

/// Fig. 6 shape: 16x longer vectors buy a 4-16x speedup on the
/// vectorised codes (paper: 7-9x), larger for STREAM than miniBUDE.
#[test]
fn fig6_vector_length_scaling() {
    let f = sweeps::fig6(&Engine::idealized(), &ParamSpace::paper(), &small(4)).unwrap();
    let stream = f.speedup(App::Stream, 2048).unwrap();
    let bude = f.speedup(App::MiniBude, 2048).unwrap();
    assert!((4.0..16.0).contains(&stream), "STREAM speedup {stream}");
    assert!((3.0..16.0).contains(&bude), "miniBUDE speedup {bude}");
    assert!(
        stream > bude,
        "paper: 'the larger speedup in the case of STREAM' ({stream} vs {bude})"
    );
    // Monotone increase along the sweep.
    let series = &f.series[0];
    for w in series.points.windows(2) {
        assert!(
            w[1].2 >= w[0].2 * 0.95,
            "VL speedup should grow: {:?}",
            series.points
        );
    }
}

/// Fig. 7 shape: ROB growth stops paying beyond a knee; the largest
/// benefit is on memory-bound STREAM.
#[test]
fn fig7_rob_saturation() {
    let f = sweeps::fig7(&Engine::idealized(), &ParamSpace::paper(), &small(4)).unwrap();
    for app in App::ALL {
        let at_152 = f.speedup(app, 152).unwrap();
        let at_512 = f.speedup(app, 512).unwrap();
        assert!(at_152 > 1.2, "{app:?}: ROB should matter ({at_152})");
        assert!(
            at_512 <= at_152 * 1.35,
            "{app:?}: speedup must saturate ({at_152} -> {at_512})"
        );
    }
    let stream = f.speedup(App::Stream, 512).unwrap();
    for app in [App::MiniBude, App::TeaLeaf, App::MiniSweep] {
        assert!(
            stream >= f.speedup(app, 512).unwrap(),
            "paper: 'We find the largest impact in STREAM'"
        );
    }
}

/// Fig. 8 shape: FP/SVE registers below ~144 bottleneck rename; beyond
/// the knee further registers buy almost nothing.
#[test]
fn fig8_fp_register_wall() {
    let f = sweeps::fig8(&Engine::idealized(), &ParamSpace::paper(), &small(4)).unwrap();
    for app in App::ALL {
        let knee = f.speedup(app, 144).unwrap();
        let max = f.speedup(app, 512).unwrap();
        assert!(knee > 1.2, "{app:?}: registers should matter ({knee})");
        assert!(
            max <= knee * 1.25,
            "{app:?}: counts beyond 144 yield minimal speedup ({knee} -> {max})"
        );
    }
}

/// The paper's §VI-B VL interaction: at VL=2048 miniBUDE sheds pressure
/// from ROB/FP registers relative to VL=128 (fewer instructions in
/// flight do the same work).
#[test]
fn long_vectors_relieve_rob_pressure_on_minibude() {
    use armdse::core::DesignConfig;
    use armdse::kernels::build_workload;

    let cycles = |vl: u32, rob: u32| {
        let mut cfg = DesignConfig::thunderx2();
        cfg.core.vector_length = vl;
        cfg.core.rob_size = rob;
        cfg.core.load_bandwidth = 256;
        cfg.core.store_bandwidth = 256;
        let w = build_workload(App::MiniBude, WorkloadScale::Small, vl);
        armdse::simcore::simulate(&w.program, &cfg.core, &cfg.mem).cycles as f64
    };
    let rob_gain_short = cycles(128, 16) / cycles(128, 256);
    let rob_gain_long = cycles(2048, 16) / cycles(2048, 256);
    assert!(
        rob_gain_long < rob_gain_short,
        "ROB pressure should relax at long vectors ({rob_gain_long} !< {rob_gain_short})"
    );
}
