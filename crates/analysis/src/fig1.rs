//! Fig. 1 — percentage of retired instructions that are SVE instructions
//! across vector lengths.
//!
//! The paper measures this by counting retired instructions with at least
//! one Z register operand in SimEng (validated against A64FX
//! `SVE_INST_RETIRED`). Here the workload generators define the
//! instruction stream, so the fraction is measured from the simulated
//! retirement stream, which a validated run has matched against the
//! analytic summary op for op.

use crate::report;
use armdse_core::engine::Engine;
use armdse_core::{ArmdseError, DesignConfig, JobSpec};
use armdse_kernels::App;

/// Vector lengths plotted in Fig. 1.
pub const VLS: [u32; 5] = [128, 256, 512, 1024, 2048];

/// Result: per app, per VL, the SVE percentage of retired instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// (app name, [(vl, sve %)]).
    pub series: Vec<(String, Vec<(u32, f64)>)>,
}

/// Run the experiment on `engine` at `spec`'s scale and threads: one
/// campaign over the ThunderX2 baseline at every VL, bandwidth raised to fit.
pub fn run(engine: &Engine, spec: &JobSpec) -> Result<Fig1, ArmdseError> {
    let points = VLS.map(|vl| {
        let mut cfg = DesignConfig::thunderx2();
        cfg.core.vector_length = vl;
        cfg.core.load_bandwidth = cfg.core.load_bandwidth.max(vl / 8);
        cfg.core.store_bandwidth = cfg.core.store_bandwidth.max(vl / 8);
        cfg
    });
    let rows = crate::validated("Fig. 1", engine, points.to_vec(), spec)?;
    let series = App::ALL.iter().map(|&app| {
        let sve = rows.iter().filter(|r| r.app == app);
        let points = VLS.into_iter().zip(sve.map(|r| 100.0 * r.sve_fraction));
        (app.name().to_string(), points.collect())
    });
    let series = series.collect();
    Ok(Fig1 { series })
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
        let f = run(&Engine::idealized(), &crate::test_support::quick(1)).unwrap();
        for vl in [128, 2048] {
            assert!(f.sve_pct(App::Stream, vl).unwrap() > 40.0);
            assert!(f.sve_pct(App::MiniBude, vl).unwrap() > 40.0);
            assert!(f.sve_pct(App::TeaLeaf, vl).unwrap() < 15.0);
            assert!(f.sve_pct(App::MiniSweep, vl).unwrap() < 1.0);
        }
    }

    #[test]
    fn table_renders_all_apps() {
        let f = run(&Engine::idealized(), &crate::test_support::quick(1)).unwrap();
        let t = f.table().to_text();
        for app in App::ALL {
            assert!(t.contains(app.name()), "{t}");
        }
    }
}
