//! Pause/resume byte-identity for the adaptive explorer.
//!
//! A run paused mid-round through the observer hook and resumed must
//! produce byte-identical artifacts (dataset CSV, curve CSV, curve
//! JSON) and the same selected design-point sequence as an
//! uninterrupted run — at 1 thread and at 8 threads, and across the
//! two (thread count must never leak into the artifacts).
//!
//! The uninterrupted run is also held to `tests/golden/explore_resume.txt`
//! (selected sequence, `explore.plan` fingerprint, curve CSV bytes), so
//! a refactor of the explorer is checked against what the previous code
//! selected. Regenerate with: `ARMDSE_UPDATE_GOLDEN=1 cargo test --test
//! explorer_resume`.

use armdse_core::engine::{Checkpoint, Engine};
use armdse_core::explorer::{
    ExploreControl, ExploreOptions, ExploreProgress, ExploreReport, Explorer,
};
use armdse_core::space::ParamSpace;
use armdse_kernels::{App, WorkloadScale};
use armdse_mltree::ForestParams;
use std::path::{Path, PathBuf};

fn opts(threads: usize) -> ExploreOptions {
    ExploreOptions {
        app: App::Stream,
        scale: WorkloadScale::Tiny,
        seed: 1234,
        pool: 60,
        budget: 12,
        batch: 4,
        holdout: 10,
        threads,
        pareto: false,
        forest: ForestParams {
            n_trees: 8,
            ..Default::default()
        },
        chunk_jobs: 2, // several chunks per round: mid-round pause points
        ..ExploreOptions::for_app(App::Stream)
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("armdse_explorer_resume_{name}"));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn artifact_bytes(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name} in {dir:?}: {e}"))
}

/// Hold a completed `opts()` exploration in `dir` to the golden fixture.
fn assert_golden(report: &ExploreReport, dir: &Path) {
    let selected: Vec<String> = report.selected.iter().map(u64::to_string).collect();
    let ckpt = Checkpoint::load(&dir.join("explore.ckpt")).unwrap();
    let actual = format!(
        "selected: {}\nexplore.plan: {}\n{}",
        selected.join(","),
        ckpt.extra_get("explore.plan").unwrap(),
        String::from_utf8(artifact_bytes(dir, "explore_curve.csv")).unwrap()
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/explore_resume.txt");
    if std::env::var_os("ARMDSE_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing {path:?}: {e}; regenerate with ARMDSE_UPDATE_GOLDEN=1")
    });
    assert_eq!(actual, expected, "explore_resume.txt diverged");
}

#[test]
fn paused_exploration_resumes_to_byte_identical_artifacts() {
    for threads in [1usize, 8] {
        let engine = Engine::idealized();
        let space = ParamSpace::paper();

        // Uninterrupted reference run.
        let ref_dir = fresh_dir(&format!("ref_t{threads}"));
        let reference = Explorer::new(&engine, &space, opts(threads), &ref_dir)
            .unwrap()
            .run(ExploreControl::default())
            .unwrap();
        assert!(reference.completed);
        assert_eq!(reference.samples, 12, "tiny stream runs all validate");
        assert_eq!(reference.rounds_done, 3);
        assert_golden(&reference, &ref_dir);

        // Paused run: stop mid-round-1 (after 2 of its 4 jobs), resume.
        let dir = fresh_dir(&format!("paused_t{threads}"));
        let ex = Explorer::new(&engine, &space, opts(threads), &dir).unwrap();
        let mut pause = |p: &ExploreProgress| !(p.round == 1 && p.jobs_done >= 2);
        let first = ex
            .run(ExploreControl {
                resume: false,
                observer: Some(&mut pause),
            })
            .unwrap();
        assert!(!first.completed, "observer must have paused the run");
        assert_eq!(first.rounds_done, 1, "round 0 finished, round 1 paused");

        let resumed = ex
            .run(ExploreControl {
                resume: true,
                observer: None,
            })
            .unwrap();
        assert!(resumed.completed);

        assert_eq!(
            resumed.selected, reference.selected,
            "threads={threads}: resumed run selected a different design-point sequence"
        );
        assert_eq!(resumed.curve, reference.curve);
        for artifact in [
            "explore_dataset.csv",
            "explore_curve.csv",
            "explore_curve.json",
        ] {
            assert_eq!(
                artifact_bytes(&dir, artifact),
                artifact_bytes(&ref_dir, artifact),
                "threads={threads}: {artifact} differs after pause+resume"
            );
        }

        // Resuming a completed exploration is a no-op with the same report.
        let again = ex
            .run(ExploreControl {
                resume: true,
                observer: None,
            })
            .unwrap();
        assert!(again.completed);
        assert_eq!(again.selected, reference.selected);
        assert_eq!(again.curve, reference.curve);

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }
}

#[test]
fn thread_count_never_leaks_into_the_artifacts() {
    let engine = Engine::idealized();
    let space = ParamSpace::paper();
    let d1 = fresh_dir("t1");
    let d8 = fresh_dir("t8");
    let r1 = Explorer::new(&engine, &space, opts(1), &d1)
        .unwrap()
        .run(ExploreControl::default())
        .unwrap();
    let r8 = Explorer::new(&engine, &space, opts(8), &d8)
        .unwrap()
        .run(ExploreControl::default())
        .unwrap();
    assert_eq!(r1.selected, r8.selected);
    assert_eq!(r1.curve, r8.curve);
    for artifact in [
        "explore_dataset.csv",
        "explore_curve.csv",
        "explore_curve.json",
    ] {
        assert_eq!(
            artifact_bytes(&d1, artifact),
            artifact_bytes(&d8, artifact),
            "{artifact} differs between 1 and 8 threads"
        );
    }
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d8).ok();
}

#[test]
fn resume_under_different_options_is_refused() {
    let engine = Engine::idealized();
    let space = ParamSpace::paper();
    let dir = fresh_dir("foreign");
    let ex = Explorer::new(&engine, &space, opts(1), &dir).unwrap();
    let mut pause = |p: &ExploreProgress| p.jobs_done < 2;
    ex.run(ExploreControl {
        resume: false,
        observer: Some(&mut pause),
    })
    .unwrap();
    let mut other = opts(1);
    other.seed = 9999; // a different exploration entirely
    let err = Explorer::new(&engine, &space, other, &dir)
        .unwrap()
        .run(ExploreControl {
            resume: true,
            observer: None,
        })
        .unwrap_err();
    assert!(
        err.to_string().contains("different exploration"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
