//! Fig. 1 — percentage of retired instructions that are SVE instructions
//! across vector lengths.
//!
//! The paper measures this by counting retired instructions with at least
//! one Z register operand in SimEng (validated against A64FX
//! `SVE_INST_RETIRED`). Here the workload generators define the
//! instruction stream, so the fraction is measured from the simulated
//! retirement stream and cross-checked against the analytic summary.

use crate::report;
use armdse_core::engine::Engine;
use armdse_core::DesignConfig;
use armdse_kernels::{App, WorkloadScale};

/// Vector lengths plotted in Fig. 1.
pub const VLS: [u32; 5] = [128, 256, 512, 1024, 2048];

/// Result: per app, per VL, the SVE percentage of retired instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// (app name, [(vl, sve %)]).
    pub series: Vec<(String, Vec<(u32, f64)>)>,
}

/// Run the experiment on `engine`. Uses the simulated retirement stream
/// on the ThunderX2 baseline (with bandwidth raised to admit every VL).
pub fn run(engine: &Engine, scale: WorkloadScale) -> Fig1 {
    let mut series = Vec::new();
    for app in App::ALL {
        let mut points = Vec::new();
        for vl in VLS {
            let mut cfg = DesignConfig::thunderx2();
            cfg.core.vector_length = vl;
            cfg.core.load_bandwidth = cfg.core.load_bandwidth.max(vl / 8);
            cfg.core.store_bandwidth = cfg.core.store_bandwidth.max(vl / 8);
            let stats = engine.simulate_config(app, scale, &cfg);
            assert!(stats.validated, "{app:?} vl={vl} failed validation");
            // Cross-check simulated vs analytic (they must agree exactly).
            debug_assert!(
                (stats.sve_fraction() - engine.workload(app, scale, vl).summary.sve_fraction())
                    .abs()
                    < 1e-12
            );
            points.push((vl, 100.0 * stats.sve_fraction()));
        }
        series.push((app.name().to_string(), points));
    }
    Fig1 { series }
}

impl Fig1 {
    /// The structured artifact (rows = apps, columns = VLs).
    pub fn table(&self) -> report::Table {
        let mut headers = vec!["App".to_string()];
        headers.extend(VLS.iter().map(|v| format!("VL={v}")));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .series
            .iter()
            .map(|(app, pts)| {
                let mut r = vec![app.clone()];
                r.extend(pts.iter().map(|(_, p)| report::pct(*p)));
                r
            })
            .collect();
        report::Table::new(
            "Fig. 1: % of retired instructions that are SVE instructions",
            &headers_ref,
            rows,
        )
    }

    /// SVE percentage for (app, vl).
    pub fn sve_pct(&self, app: App, vl: u32) -> Option<f64> {
        self.series
            .iter()
            .find(|(n, _)| n == app.name())?
            .1
            .iter()
            .find(|(v, _)| *v == vl)
            .map(|(_, p)| *p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_matches_paper_shape() {
        let f = run(&Engine::idealized(), WorkloadScale::Tiny);
        for vl in [128, 2048] {
            assert!(f.sve_pct(App::Stream, vl).unwrap() > 40.0);
            assert!(f.sve_pct(App::MiniBude, vl).unwrap() > 40.0);
            assert!(f.sve_pct(App::TeaLeaf, vl).unwrap() < 15.0);
            assert!(f.sve_pct(App::MiniSweep, vl).unwrap() < 1.0);
        }
    }

    #[test]
    fn table_renders_all_apps() {
        let f = run(&Engine::idealized(), WorkloadScale::Tiny);
        let t = f.table().to_text();
        for app in App::ALL {
            assert!(t.contains(app.name()), "{t}");
        }
    }
}
