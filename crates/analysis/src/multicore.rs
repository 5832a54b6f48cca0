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
use armdse_core::dataset::Row;
use armdse_core::engine::Engine;
use armdse_core::{ArmdseError, DesignConfig, JobSpec};
use armdse_kernels::App;
use armdse_memsim::DEFAULT_BANKS;

/// Core counts simulated (1 = the paper's single-core setting).
pub(crate) const CORES: [u32; 5] = [1, 2, 4, 8, 16];

/// The full contention experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticoreFig {
    /// Per core count, its campaign's rows (one per app, [`App::ALL`]).
    runs: Vec<(u32, Vec<Row>)>,
}

/// Run the contention sweep on the ThunderX2 baseline at `spec`'s scale
/// and threads: one campaign per core count in `CORES`, each on its own
/// `Engine::multicore(n, DEFAULT_BANKS)`.
pub fn run(spec: &JobSpec) -> Result<MulticoreFig, ArmdseError> {
    sweep(spec, &CORES)
}

/// The sweep over `cores`, which must start at 1 (the normalisation
/// baseline).
fn sweep(spec: &JobSpec, cores: &[u32]) -> Result<MulticoreFig, ArmdseError> {
    let runs = cores.iter().map(|&n| {
        let what = format!("contention sweep, {n} cores");
        let engine = Engine::multicore(n, DEFAULT_BANKS);
        let rows = crate::validated(&what, &engine, vec![DesignConfig::thunderx2()], spec);
        rows.map(|rows| (n, rows))
    });
    let runs = runs.collect::<Result<_, ArmdseError>>()?;
    Ok(MulticoreFig { runs })
}

impl MulticoreFig {
    /// Slowdown of app `a` (an [`App::ALL`] index) on the `i`-th core
    /// count, relative to the first (one core).
    fn slowdown(&self, i: usize, a: usize) -> f64 {
        self.runs[i].1[a].cycles as f64 / self.runs[0].1[a].cycles as f64
    }

    /// The structured artifact (rows = core counts, columns = apps).
    pub fn table(&self) -> report::Table {
        let mut headers = vec!["Cores"];
        headers.extend(App::ALL.iter().map(|app| app.name()));
        let rows: Vec<Vec<String>> = (0..self.runs.len())
            .map(|i| {
                let mut r = vec![self.runs[i].0.to_string()];
                r.extend((0..App::ALL.len()).map(|a| format!("{:.2}x", self.slowdown(i, a))));
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
        let spec = JobSpec {
            scale: armdse_kernels::WorkloadScale::Standard,
            ..crate::test_support::quick(1)
        };
        let f = sweep(&spec, &CORES[..3]).unwrap();
        for (a, app) in App::ALL.into_iter().enumerate() {
            let s = f.slowdown(2, a);
            if app == App::Stream {
                assert!(s >= 2.0, "STREAM should clearly degrade on 4 cores ({s})");
            } else {
                assert!(s <= 1.05, "{app:?} should barely notice 4 cores ({s})");
            }
        }
    }

    #[test]
    fn slowdown_is_one_on_one_core_and_monotone_in_cores() {
        let f = run(&crate::test_support::quick(1)).unwrap();
        let swept: Vec<u32> = f.runs.iter().map(|(n, _)| *n).collect();
        assert_eq!(swept, CORES);
        for (a, app) in App::ALL.iter().enumerate() {
            let slowdowns: Vec<f64> = (0..CORES.len()).map(|i| f.slowdown(i, a)).collect();
            assert_eq!(slowdowns[0], 1.0, "one core is the baseline");
            for w in slowdowns.windows(2) {
                assert!(
                    w[1] >= w[0] * 0.999,
                    "{app:?}: slowdown must not shrink with cores: {slowdowns:?}"
                );
            }
        }
    }

    #[test]
    fn table_names_every_app_and_only_measures() {
        let t = sweep(&crate::test_support::quick(1), &CORES[..2])
            .unwrap()
            .table()
            .to_text();
        for app in App::ALL {
            assert!(t.contains(app.name()));
        }
        assert!(t.contains("Cores") && !t.contains("Projected"));
    }
}
