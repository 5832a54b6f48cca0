//! Golden snapshot of *simulated numbers*: the statistics and metrics
//! counters every backend produces on a handful of sampled design
//! points. `tests/golden_emission.rs` pins formats over synthetic data;
//! this fixture pins what the simulator itself computes, so a refactor
//! of the request path or the run plumbing is checked against bytes the
//! previous code produced.
//!
//! Each backend contributes, per (config, app) job: one `plain` line
//! (the `SimStats` of an unobserved run: validation verdict, cycles,
//! retired, the full `MemStats`, the stall events, loop-buffer cycles)
//! and the job's metrics CSV rows from a metrics-on campaign (aggregate
//! first, then per-core rows on machines with more than one core).
//!
//! Regenerate with: `ARMDSE_UPDATE_GOLDEN=1 cargo test --test
//! golden_simstats`.

use armdse::core::engine::Engine;
use armdse::core::metrics::{event_values, write_metrics_header, write_metrics_row};
use armdse::core::space::ParamSpace;
use armdse::core::DseDataset;
use armdse::core::JobSpec;
use armdse::kernels::{App, WorkloadScale};
use armdse::memsim::DEFAULT_BANKS;
use armdse::simcore::{Memoized, MultiCore, SimBackend};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

const CONFIGS: usize = 3;
const SEED: u64 = 0x601D;

fn backends() -> Vec<(&'static str, Box<dyn SimBackend>)> {
    vec![
        ("idealized", Box::new(MultiCore::IDEALIZED)),
        // The hardware proxy: the section kept its label when the
        // one-core machine replaced the single-core banked backend.
        ("banked-proxy", Box::new(MultiCore::new(1, DEFAULT_BANKS))),
        ("multicore-1x8", Box::new(MultiCore::new(1, 8))),
        ("multicore-2x4", Box::new(MultiCore::new(2, 4))),
        (
            "memoized-idealized",
            Box::new(Memoized::new(MultiCore::IDEALIZED)),
        ),
    ]
}

fn emit() -> String {
    let space = ParamSpace::paper();
    let opts = JobSpec {
        configs: CONFIGS,
        scale: WorkloadScale::Tiny,
        seed: SEED,
        threads: 2,
        apps: App::ALL.to_vec(),
        ..JobSpec::default()
    };
    let plan = opts.plan(&space).unwrap();
    let mut header = Vec::new();
    write_metrics_header(&mut header).unwrap();
    let mut out = format!("# metrics: {}", String::from_utf8(header).unwrap());

    for (label, backend) in backends() {
        let engine = Engine::new(backend);
        writeln!(out, "## {label}").unwrap();
        for i in 0..CONFIGS {
            let cfg = space.sample_seeded(SEED + i as u64);
            for app in App::ALL {
                let s = engine.simulate_config(app, WorkloadScale::Tiny, &cfg);
                let mut cells = vec![u64::from(s.validated), s.cycles, s.retired];
                cells.extend(s.mem.values());
                cells.extend(event_values(&s.stalls));
                cells.push(s.stalls.loop_buffer_cycles);
                let cells: Vec<String> = cells.iter().map(u64::to_string).collect();
                writeln!(out, "plain,{i},{},{}", app.name(), cells.join(",")).unwrap();
            }
        }
        let mut sink = (DseDataset::default(), Vec::new());
        engine.run(&plan, &mut sink).unwrap();
        let (data, rows) = sink;
        assert!(data.discarded.is_empty(), "{label}: sampled config wedged");
        let mut csv = Vec::new();
        for r in &rows {
            write_metrics_row(&mut csv, r).unwrap();
        }
        out.push_str(&String::from_utf8(csv).unwrap());
    }
    out
}

#[test]
fn golden_simstats() {
    let actual = emit();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/simstats.txt");
    if std::env::var_os("ARMDSE_UPDATE_GOLDEN").is_some() {
        fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing {path:?}: {e}; regenerate with ARMDSE_UPDATE_GOLDEN=1")
    });
    for (n, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "simstats.txt line {} diverged", n + 1);
    }
    assert_eq!(expected.len(), actual.len(), "simstats.txt length changed");
}
