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
//!
//! The exploration is one campaign on the engine's run loop, so the
//! remaining tests hold it to that loop's resume contract: a pause on a
//! round's last chunk, what a crash leaves past the checkpoint (curve
//! and dataset both ahead of it), and a checkpoint in the layout the
//! pre-`Steer` explorer wrote, which must be refused, not misread.

use armdse_core::engine::{Checkpoint, Engine};
use armdse_core::error::ArmdseError;
use armdse_core::explorer::{
    ExploreControl, ExploreOptions, ExploreProgress, ExploreReport, Explorer,
};
use armdse_core::space::ParamSpace;
use armdse_core::JobSpec;
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
    // The threads run the simulations and then the forest (refit, pool
    // predictions), in scalar and in Pareto acquisition alike; 0 threads
    // is 1 thread.
    let engine = Engine::idealized();
    let space = ParamSpace::paper();
    for (pareto, threads) in [(false, 8usize), (true, 8), (false, 0)] {
        let run = |threads: usize| {
            let dir = fresh_dir(&format!("leak_p{pareto}_t{threads}"));
            let o = ExploreOptions {
                pareto,
                ..opts(threads)
            };
            let report = Explorer::new(&engine, &space, o, &dir)
                .unwrap()
                .run(ExploreControl::default())
                .unwrap();
            assert!(report.completed);
            (report, dir)
        };
        let (r1, d1) = run(1);
        let (rn, dn) = run(threads);
        assert_eq!(r1.selected, rn.selected);
        assert_eq!(r1.curve, rn.curve);
        let pareto_csv = pareto.then_some("explore_pareto.csv");
        for artifact in ARTIFACTS.into_iter().chain(pareto_csv) {
            assert_eq!(
                artifact_bytes(&d1, artifact),
                artifact_bytes(&dn, artifact),
                "pareto={pareto}: {artifact} differs between 1 and {threads} threads"
            );
        }
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&dn).ok();
    }
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

const ARTIFACTS: [&str; 3] = [
    "explore_dataset.csv",
    "explore_curve.csv",
    "explore_curve.json",
];

/// Run (or resume) the `opts(threads)` exploration in `dir`.
fn explore(
    dir: &Path,
    threads: usize,
    ctl: ExploreControl<'_>,
) -> Result<ExploreReport, ArmdseError> {
    Explorer::new(
        &Engine::idealized(),
        &ParamSpace::paper(),
        opts(threads),
        dir,
    )?
    .run(ctl)
}

/// An uninterrupted exploration in a fresh directory.
fn reference_run(name: &str, threads: usize) -> PathBuf {
    let dir = fresh_dir(name);
    let report = explore(&dir, threads, ExploreControl::default()).unwrap();
    assert!(report.completed);
    dir
}

/// Explore in `dir` until `go` first answers `false`.
fn run_until(dir: &Path, threads: usize, mut go: impl FnMut(&ExploreProgress) -> bool) {
    let ctl = ExploreControl {
        resume: false,
        observer: Some(&mut go),
    };
    let report = explore(dir, threads, ctl).unwrap();
    assert!(!report.completed, "observer must have paused the run");
}

fn resume(dir: &Path, threads: usize) -> Result<ExploreReport, ArmdseError> {
    let ctl = ExploreControl {
        resume: true,
        observer: None,
    };
    explore(dir, threads, ctl)
}

fn append(path: &Path, text: &str) {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    f.write_all(text.as_bytes()).unwrap();
}

#[test]
fn a_pause_on_a_rounds_last_chunk_resumes_to_byte_identical_artifacts() {
    let ref_dir = reference_run("lastchunk_ref", 1);
    let dir = fresh_dir("lastchunk");
    run_until(&dir, 1, |p| !(p.round == 0 && p.jobs_done == p.round_jobs));

    // The round boundary is a chunk boundary of one campaign: round 0 is
    // refit and on the curve, and the checkpoint already names round 1.
    let ckpt = Checkpoint::load(&dir.join("explore.ckpt")).unwrap();
    let keys: Vec<&str> = ckpt.extra.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "explore.plan",
            "explore.rng",
            "explore.selected",
            "explore.hashes"
        ]
    );
    assert_eq!((ckpt.jobs_done, ckpt.rows), (4, 4));
    assert_eq!(
        ckpt.extra_get("explore.selected")
            .unwrap()
            .split(',')
            .count(),
        8,
        "round 1's batch is already planned"
    );
    let curve = String::from_utf8(artifact_bytes(&dir, "explore_curve.csv")).unwrap();
    assert_eq!(curve.lines().count(), 2, "header + round 0");

    let resumed = resume(&dir, 8).unwrap();
    assert!(resumed.completed);
    assert_eq!((resumed.rounds_done, resumed.samples), (3, 12));
    for artifact in ARTIFACTS {
        assert_eq!(
            artifact_bytes(&dir, artifact),
            artifact_bytes(&ref_dir, artifact),
            "{artifact} differs after a round-boundary pause"
        );
    }
    // Finished: nothing left to run, and the position says so.
    let ckpt = Checkpoint::load(&dir.join("explore.ckpt")).unwrap();
    assert_eq!((ckpt.jobs_done, ckpt.rows), (12, 12), "jobs_done == budget");
    assert_eq!(ckpt.extra.len(), 4);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn what_a_crash_leaves_past_the_checkpoint_is_cut_back_on_resume() {
    for (threads, other) in [(1usize, 8usize), (8, 1)] {
        let ref_dir = reference_run(&format!("crash_ref_t{threads}"), threads);
        let dir = fresh_dir(&format!("crash_t{threads}"));
        run_until(&dir, threads, |p| !(p.round == 1 && p.jobs_done >= 2));
        let rows = Checkpoint::load(&dir.join("explore.ckpt")).unwrap().rows;
        assert_eq!(rows, 6, "paused two jobs into round 1");

        // Died after round 1's curve row and rows were durable but before
        // the checkpoint naming them: one extra complete curve row and
        // half of the one after it, the chunk's dataset rows, and half of
        // the row after them.
        let text = |name: &str| String::from_utf8(artifact_bytes(&ref_dir, name)).unwrap();
        let curve = text("explore_curve.csv");
        let torn = curve.lines().nth(3).unwrap();
        append(
            &dir.join("explore_curve.csv"),
            &format!(
                "{}\n{}",
                curve.lines().nth(2).unwrap(),
                &torn[..torn.len() / 2]
            ),
        );
        let dataset = text("explore_dataset.csv");
        let next: Vec<&str> = dataset.lines().skip(1 + rows).take(3).collect();
        append(
            &dir.join("explore_dataset.csv"),
            &format!(
                "{}\n{}\n{}",
                next[0],
                next[1],
                &next[2][..next[2].len() / 2]
            ),
        );

        let resumed = resume(&dir, other).unwrap();
        assert!(resumed.completed);
        for artifact in ARTIFACTS {
            assert_eq!(
                artifact_bytes(&dir, artifact),
                artifact_bytes(&ref_dir, artifact),
                "threads {threads}->{other}: {artifact} differs after a crash-shaped resume"
            );
        }

        // A curve *behind* its checkpoint cannot be repaired: refused.
        std::fs::write(
            dir.join("explore_curve.csv"),
            curve
                .lines()
                .take(3)
                .map(|l| format!("{l}\n"))
                .collect::<String>(),
        )
        .unwrap();
        let err = resume(&dir, other).unwrap_err();
        assert!(matches!(err, ArmdseError::Explore(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }
}

#[test]
fn a_checkpoint_in_the_pre_steer_layout_is_refused_not_misread() {
    let dir = fresh_dir("old_layout");
    run_until(&dir, 1, |p| !(p.round == 1 && p.jobs_done >= 2));
    let path = dir.join("explore.ckpt");
    let new = Checkpoint::load(&path).unwrap();
    let get = |key: &str| new.extra_get(key).unwrap().to_string();
    let selected: Vec<u64> = get("explore.selected")
        .split(',')
        .map(|i| i.parse().unwrap())
        .collect();

    // What the previous explorer forged before round 1's engine run: the
    // fingerprint of that round's plan alone, a per-round `jobs_done`,
    // and eight keys of which four were derived from the other four.
    let o = opts(1);
    let gen = JobSpec {
        configs: 4,
        scale: o.scale,
        seed: o.seed,
        threads: 1,
        apps: vec![o.app],
        ..JobSpec::default()
    };
    let round_plan = gen
        .plan(&ParamSpace::paper())
        .unwrap()
        .with_config_indices(selected[4..].to_vec())
        .unwrap();
    Checkpoint {
        fingerprint: round_plan.fingerprint(),
        jobs_done: 0,
        rows: 4,
        discarded: 0,
        extra: vec![
            ("explore.plan".into(), get("explore.plan")),
            ("explore.round".into(), "1".into()),
            ("explore.rng".into(), get("explore.rng")),
            ("explore.cursor".into(), "8".into()),
            ("explore.selected".into(), get("explore.selected")),
            ("explore.hashes".into(), get("explore.hashes")),
            ("explore.curve_rows".into(), "1".into()),
        ],
    }
    .save(&path)
    .unwrap();

    let err = resume(&dir, 1).unwrap_err();
    assert!(matches!(err, ArmdseError::Checkpoint(_)), "{err}");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
