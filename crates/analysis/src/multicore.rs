//! Extension experiment: multi-core memory contention (paper §VII).
//!
//! "Even on a node level, this study abstracts away the memory contention
//! behaviour exhibited in multi-core systems. […] this work lays the
//! foundation for future work into the impacts of parallel execution."
//!
//! This experiment implements that future work on the contended memory
//! model: each application is simulated on the ThunderX2 baseline while
//! 0–15 phantom co-runners saturate the shared DRAM controller. The
//! paper's expectation — memory-bound codes degrade most, compute-bound
//! codes barely notice — is checked by the accompanying tests.
//!
//! The phantom-co-runner sweep is a closed-form *projection*: the
//! co-runners are synthetic DRAM traffic, not real pipelines. Since the
//! simulator grew a real multicore machine
//! ([`armdse_simcore::MultiCore`]), [`validate`] cross-checks the
//! projection against it — N real cores each running their own instance
//! of the workload over the shared banked L2 + DRAM — and the tests pin
//! the two models to agree on direction (no contention speedups) and on
//! which application is most contention-sensitive.

use crate::report;
use armdse_core::engine::Engine;
use armdse_core::DesignConfig;
use armdse_isa::Program;
use armdse_kernels::{App, WorkloadScale};
use armdse_memsim::{Hierarchy, MemParams, DEFAULT_BANKS};
use armdse_simcore::{
    run_pipeline, CoreParams, MultiCore, RunMode, RunOutput, SimBackend, Topology,
};

/// The closed-form projection as a backend: the banked hierarchy with
/// `co_runners` phantom cores saturating the shared DRAM controller
/// (paper §VII; 0 = the single-core setting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Contended {
    /// Number of phantom co-runners.
    pub co_runners: u32,
}

impl SimBackend for Contended {
    fn name(&self) -> &'static str {
        "contended"
    }

    fn run(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
        mode: RunMode,
    ) -> RunOutput {
        let mem = Hierarchy::contended(*mem, DEFAULT_BANKS, self.co_runners);
        run_pipeline(program, core, mem, mode)
    }
}

/// Co-runner counts simulated (0 = the paper's single-core setting).
pub const CO_RUNNERS: [u32; 5] = [0, 1, 3, 7, 15];

/// Slowdown series for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionSeries {
    /// Application name.
    pub app: String,
    /// (co-runners, cycles, slowdown vs solo).
    pub points: Vec<(u32, u64, f64)>,
}

/// The full contention experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticoreFig {
    /// One series per application.
    pub series: Vec<ContentionSeries>,
}

/// Run the contention sweep on the ThunderX2 baseline: one [`Contended`]
/// backend per co-runner count, all sharing the engine's workload cache.
pub fn run(engine: &Engine, scale: WorkloadScale) -> MulticoreFig {
    let cfg = DesignConfig::thunderx2();
    let series = App::ALL
        .iter()
        .map(|&app| {
            let mut points = Vec::new();
            let mut solo = 0u64;
            for &n in &CO_RUNNERS {
                let s = engine.simulate_config_on(&Contended { co_runners: n }, app, scale, &cfg);
                assert!(s.validated, "{app:?} with {n} co-runners failed validation");
                if n == 0 {
                    solo = s.cycles;
                }
                points.push((n, s.cycles, s.cycles as f64 / solo as f64));
            }
            ContentionSeries {
                app: app.name().to_string(),
                points,
            }
        })
        .collect();
    MulticoreFig { series }
}

impl MulticoreFig {
    /// Slowdown of `app` at `co_runners`.
    pub fn slowdown(&self, app: App, co_runners: u32) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.app == app.name())?
            .points
            .iter()
            .find(|(n, _, _)| *n == co_runners)
            .map(|(_, _, s)| *s)
    }

    /// Render as a text table (rows = co-runner counts, columns = apps).
    pub fn to_table(&self) -> String {
        self.table().to_text()
    }

    /// The structured artifact (rows = co-runner counts, columns = apps).
    pub fn table(&self) -> report::Table {
        let mut headers = vec!["Co-runners"];
        let names: Vec<&str> = self.series.iter().map(|s| s.app.as_str()).collect();
        headers.extend(names.iter());
        let rows: Vec<Vec<String>> = CO_RUNNERS
            .iter()
            .map(|&n| {
                let mut r = vec![n.to_string()];
                for s in &self.series {
                    let sd = s
                        .points
                        .iter()
                        .find(|(c, _, _)| *c == n)
                        .map(|(_, _, s)| *s)
                        .unwrap_or(f64::NAN);
                    r.push(format!("{sd:.2}x"));
                }
                r
            })
            .collect();
        report::Table::new(
            "Extension: slowdown under shared-DRAM contention (paper §VII future work)",
            &headers,
            rows,
        )
    }
}

/// Core counts swept by [`validate`] (1 = the uncontended baseline).
pub const VALIDATE_CORES: [u32; 3] = [1, 2, 4];

/// One application's projected-vs-measured slowdown comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementRow {
    /// Application name.
    pub app: String,
    /// (cores, projected slowdown, measured slowdown). Projected comes
    /// from [`Contended`] with `cores - 1` phantom co-runners; measured
    /// from a real [`MultiCore`] machine with `cores` pipelines.
    pub points: Vec<(u32, f64, f64)>,
}

/// The closed-form projection validated against the real machine.
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementFig {
    /// One row per application.
    pub rows: Vec<AgreementRow>,
}

/// Cross-check the phantom-co-runner projection against the real
/// multicore machine at matching core counts. Both slowdown columns are
/// normalised to their own single-core run, so the comparison isolates
/// *contention scaling* from any absolute-cycle offset between the two
/// backends.
pub fn validate(engine: &Engine, scale: WorkloadScale) -> AgreementFig {
    let cfg = DesignConfig::thunderx2();
    let banks = Topology::default().banks;
    let rows = App::ALL
        .iter()
        .map(|&app| {
            let mut solo_proj = 0u64;
            let mut solo_real = 0u64;
            let points = VALIDATE_CORES
                .iter()
                .map(|&n| {
                    let proj = engine.simulate_config_on(
                        &Contended { co_runners: n - 1 },
                        app,
                        scale,
                        &cfg,
                    );
                    let real =
                        engine.simulate_config_on(&MultiCore::new(n, banks), app, scale, &cfg);
                    assert!(proj.validated && real.validated, "{app:?} at {n} cores");
                    if n == 1 {
                        solo_proj = proj.cycles;
                        solo_real = real.cycles;
                    }
                    (
                        n,
                        proj.cycles as f64 / solo_proj as f64,
                        real.cycles as f64 / solo_real as f64,
                    )
                })
                .collect();
            AgreementRow {
                app: app.name().to_string(),
                points,
            }
        })
        .collect();
    AgreementFig { rows }
}

impl AgreementFig {
    /// Projected slowdown of `app` at `cores` (phantom co-runners).
    pub fn projected(&self, app: App, cores: u32) -> Option<f64> {
        self.point(app, cores).map(|(_, p, _)| p)
    }

    /// Measured slowdown of `app` at `cores` (real machine).
    pub fn measured(&self, app: App, cores: u32) -> Option<f64> {
        self.point(app, cores).map(|(_, _, m)| m)
    }

    fn point(&self, app: App, cores: u32) -> Option<(u32, f64, f64)> {
        self.rows
            .iter()
            .find(|r| r.app == app.name())?
            .points
            .iter()
            .find(|(n, _, _)| *n == cores)
            .copied()
    }

    /// The projection agrees with the machine when (a) neither model
    /// reports a contention *speedup* anywhere, and (b) at the largest
    /// core count, the application the projection ranks most
    /// contention-sensitive is measured at least as degraded as the one
    /// it ranks least sensitive. Magnitudes are allowed to differ — the
    /// phantom model saturates the controller harder than real
    /// co-runners do — but direction and ranking must match.
    pub fn agrees(&self) -> bool {
        let no_speedup = self
            .rows
            .iter()
            .flat_map(|r| r.points.iter())
            .all(|&(_, p, m)| p >= 0.999 && m >= 0.999);
        let top = VALIDATE_CORES[VALIDATE_CORES.len() - 1];
        let at_top = |key: fn(&(u32, f64, f64)) -> f64| {
            self.rows.iter().filter_map(move |r| {
                r.points
                    .iter()
                    .find(|(n, _, _)| *n == top)
                    .map(|pt| (r.app.as_str(), key(pt)))
            })
        };
        let extreme = |by_max: bool| -> Option<&str> {
            let mut best: Option<(&str, f64)> = None;
            for (app, p) in at_top(|&(_, p, _)| p) {
                let better = match best {
                    None => true,
                    Some((_, b)) => {
                        if by_max {
                            p > b
                        } else {
                            p < b
                        }
                    }
                };
                if better {
                    best = Some((app, p));
                }
            }
            best.map(|(a, _)| a)
        };
        let (Some(most), Some(least)) = (extreme(true), extreme(false)) else {
            return false;
        };
        let measured_of = |name: &str| {
            at_top(|&(_, _, m)| m)
                .find(|(a, _)| *a == name)
                .map(|(_, m)| m)
        };
        let ranking_holds = match (measured_of(most), measured_of(least)) {
            (Some(m_most), Some(m_least)) => m_most >= m_least,
            _ => false,
        };
        no_speedup && ranking_holds
    }

    /// Render as a text table.
    pub fn to_table(&self) -> String {
        self.table().to_text()
    }

    /// The structured artifact: one row per `(app, cores)` pair with the
    /// projected and measured slowdown columns side by side.
    pub fn table(&self) -> report::Table {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .flat_map(|r| {
                r.points.iter().map(|&(n, p, m)| {
                    vec![
                        r.app.clone(),
                        n.to_string(),
                        format!("{p:.2}x"),
                        format!("{m:.2}x"),
                    ]
                })
            })
            .collect();
        report::Table::new(
            "Extension: phantom-co-runner projection vs real multicore machine",
            &["App", "Cores", "Projected", "Measured"],
            rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_bound_codes_degrade_most() {
        // Standard scale so compulsory (cold) DRAM misses are amortised;
        // at tiny inputs even compute-bound codes are cold-miss dominated.
        let f = run(&Engine::idealized(), WorkloadScale::Standard);
        // STREAM (sustained-bandwidth) must suffer more than the
        // register/L1-resident miniBUDE.
        let stream = f.slowdown(App::Stream, 15).unwrap();
        let bude = f.slowdown(App::MiniBude, 15).unwrap();
        assert!(
            stream > bude * 1.2,
            "STREAM ({stream}) should degrade clearly more than miniBUDE ({bude})"
        );
        assert!(stream > 1.3, "STREAM should clearly degrade ({stream})");
    }

    #[test]
    fn slowdown_monotone_in_co_runners() {
        let f = run(&Engine::idealized(), WorkloadScale::Tiny);
        for s in &f.series {
            for w in s.points.windows(2) {
                assert!(
                    w[1].2 >= w[0].2 * 0.999,
                    "{}: slowdown must not shrink with contention: {:?}",
                    s.app,
                    s.points
                );
            }
        }
    }

    #[test]
    fn table_renders_all_apps() {
        let t = run(&Engine::idealized(), WorkloadScale::Tiny).to_table();
        for app in App::ALL {
            assert!(t.contains(app.name()));
        }
    }

    #[test]
    fn projection_tracks_the_real_machine() {
        // Standard scale so compulsory DRAM misses are amortised and the
        // memory-bound / compute-bound ranking is meaningful.
        let f = validate(&Engine::idealized(), WorkloadScale::Standard);
        assert!(f.agrees(), "projection diverges:\n{}", f.to_table());
        // One core is the normalisation baseline for both columns.
        for app in App::ALL {
            assert_eq!(f.projected(app, 1), Some(1.0));
            assert_eq!(f.measured(app, 1), Some(1.0));
        }
        let t = f.to_table();
        assert!(t.contains("Projected") && t.contains("Measured"));
    }

    #[test]
    fn real_machine_contention_is_monotone_in_cores() {
        let f = validate(&Engine::idealized(), WorkloadScale::Tiny);
        for r in &f.rows {
            for w in r.points.windows(2) {
                assert!(
                    w[1].2 >= w[0].2 * 0.999,
                    "{}: measured slowdown must not shrink with cores: {:?}",
                    r.app,
                    r.points
                );
            }
        }
    }
}
