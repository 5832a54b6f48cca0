//! Extension experiment: multi-core memory contention (paper §VII).
//!
//! "Even on a node level, this study abstracts away the memory contention
//! behaviour exhibited in multi-core systems. […] this work lays the
//! foundation for future work into the impacts of parallel execution."
//!
//! This experiment implements that future work on the multicore machine
//! ([`armdse_simcore::MultiCore`]): each application is simulated on the
//! ThunderX2 baseline with 1–16 cores, every core running its own
//! instance of the workload over the shared banked L2 + DRAM. The
//! paper's expectation — memory-bound codes degrade most, compute-bound
//! codes barely notice — is checked by the accompanying tests.

use crate::report;
use armdse_core::engine::Engine;
use armdse_core::DesignConfig;
use armdse_kernels::{App, WorkloadScale};
use armdse_simcore::MultiCore;

/// Core counts simulated (1 = the paper's single-core setting).
pub(crate) const CORES: [u32; 5] = [1, 2, 4, 8, 16];

/// Slowdown series for one application.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ContentionSeries {
    /// Application name.
    pub app: String,
    /// (cores, makespan cycles, slowdown vs one core).
    pub points: Vec<(u32, u64, f64)>,
}

/// The full contention experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticoreFig {
    /// One series per application.
    pub(crate) series: Vec<ContentionSeries>,
}

/// Run the contention sweep on the ThunderX2 baseline: one [`MultiCore`]
/// machine per core count in `CORES`, all sharing the engine's
/// workload cache.
pub fn run(engine: &Engine, scale: WorkloadScale) -> MulticoreFig {
    sweep(engine, scale, &CORES)
}

/// The sweep over `cores`, which must start at 1 (the normalisation
/// baseline).
fn sweep(engine: &Engine, scale: WorkloadScale, cores: &[u32]) -> MulticoreFig {
    let cfg = DesignConfig::thunderx2();
    let banks = MultiCore::default().banks;
    let series = App::ALL
        .iter()
        .map(|&app| {
            let mut solo = 0u64;
            let points = cores
                .iter()
                .map(|&n| {
                    let s = engine.simulate_config_on(&MultiCore::new(n, banks), app, scale, &cfg);
                    assert!(s.validated, "{app:?} on {n} cores failed validation");
                    if n == 1 {
                        solo = s.cycles;
                    }
                    (n, s.cycles, s.cycles as f64 / solo as f64)
                })
                .collect();
            ContentionSeries {
                app: app.name().to_string(),
                points,
            }
        })
        .collect();
    MulticoreFig { series }
}

impl MulticoreFig {
    /// Slowdown of `app` on `cores` cores.
    #[cfg(test)]
    fn slowdown(&self, app: App, cores: u32) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.app == app.name())?
            .points
            .iter()
            .find(|(n, _, _)| *n == cores)
            .map(|(_, _, s)| *s)
    }

    /// The structured artifact (rows = core counts, columns = apps).
    pub fn table(&self) -> report::Table {
        let mut headers = vec!["Cores"];
        headers.extend(self.series.iter().map(|s| s.app.as_str()));
        let swept = self.series.first().map_or(0, |s| s.points.len());
        let rows: Vec<Vec<String>> = (0..swept)
            .map(|i| {
                let mut r = vec![self.series[0].points[i].0.to_string()];
                r.extend(self.series.iter().map(|s| format!("{:.2}x", s.points[i].2)));
                r
            })
            .collect();
        report::Table::new(
            "Extension: slowdown under shared-L2/DRAM contention (paper §VII future work)",
            &headers,
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
        // N <= 4 keeps the debug-profile run short.
        let f = sweep(&Engine::idealized(), WorkloadScale::Standard, &CORES[..3]);
        for app in App::ALL {
            let s = f.slowdown(app, 4).unwrap();
            if app == App::Stream {
                assert!(s >= 2.0, "STREAM should clearly degrade on 4 cores ({s})");
            } else {
                assert!(s <= 1.05, "{app:?} should barely notice 4 cores ({s})");
            }
        }
    }

    #[test]
    fn slowdown_is_one_on_one_core_and_monotone_in_cores() {
        let f = run(&Engine::idealized(), WorkloadScale::Tiny);
        for s in &f.series {
            let swept: Vec<u32> = s.points.iter().map(|p| p.0).collect();
            assert_eq!(swept, CORES);
            assert_eq!(s.points[0].2, 1.0, "one core is the baseline");
            for w in s.points.windows(2) {
                assert!(
                    w[1].2 >= w[0].2 * 0.999,
                    "{}: slowdown must not shrink with cores: {:?}",
                    s.app,
                    s.points
                );
            }
        }
    }

    #[test]
    fn table_names_every_app_and_only_measures() {
        let t = sweep(&Engine::idealized(), WorkloadScale::Tiny, &CORES[..2])
            .table()
            .to_text();
        for app in App::ALL {
            assert!(t.contains(app.name()));
        }
        assert!(t.contains("Cores") && !t.contains("Projected"));
    }
}
