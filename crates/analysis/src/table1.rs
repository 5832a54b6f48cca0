//! Table I — simulated single-core cycles compared to hardware cycles on
//! the ThunderX2 baseline.
//!
//! The paper compares SimEng+SST against a physical Marvell ThunderX2
//! node. We have no hardware, so the "hardware" side is played by the
//! finite-banked, prefetch-free one-core machine (see DESIGN.md
//! substitution table); what this experiment preserves is the
//! *validation procedure* and the per-application,
//! access-pattern-dependent error structure the paper reports.

use crate::report;
use armdse_core::engine::Engine;
use armdse_core::{ArmdseError, DesignConfig, JobSpec};
use armdse_memsim::DEFAULT_BANKS;

/// One validation row.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// Application name.
    pub app: String,
    /// Cycles on the default (SST-like) hierarchy.
    pub simulated_cycles: u64,
    /// Cycles on the hardware-proxy hierarchy.
    pub hardware_cycles: u64,
    /// Percentage difference `|sim - hw| / hw`.
    pub pct_difference: f64,
}

/// The reproduced Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// One row per application.
    pub rows: Vec<ValidationRow>,
}

/// Run the validation experiment on the ThunderX2 baseline at `spec`'s
/// scale and threads: one campaign on `engine`, and the same on the
/// finite-banked one-core machine for the "hardware" column.
pub fn run(engine: &Engine, spec: &JobSpec) -> Result<Table1, ArmdseError> {
    let point = || vec![DesignConfig::thunderx2()];
    let sim = crate::validated("Table I", engine, point(), spec)?;
    let proxy = Engine::multicore(1, DEFAULT_BANKS);
    let hw = crate::validated("Table I (proxy)", &proxy, point(), spec)?;
    let rows = sim.iter().zip(&hw).map(|(sim, hw)| ValidationRow {
        app: sim.app.name().to_string(),
        simulated_cycles: sim.cycles,
        hardware_cycles: hw.cycles,
        pct_difference: 100.0 * (sim.cycles as f64 - hw.cycles as f64).abs() / hw.cycles as f64,
    });
    let rows = rows.collect();
    Ok(Table1 { rows })
}

impl Table1 {
    /// The structured artifact mirroring the paper's layout.
    pub fn table(&self) -> report::Table {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.app.clone(),
                    r.simulated_cycles.to_string(),
                    r.hardware_cycles.to_string(),
                    report::pct(r.pct_difference),
                ]
            })
            .collect();
        report::Table::new(
            "Table I: simulated vs hardware-proxy cycles (ThunderX2 baseline)",
            &["App", "Simulated Cycles", "Hardware Cycles", "% Difference"],
            rows,
        )
    }

    /// Mean absolute percentage difference across apps.
    pub fn mean_pct_difference(&self) -> f64 {
        self.rows.iter().map(|r| r.pct_difference).sum::<f64>() / self.rows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's published Table I values (for EXPERIMENTS.md comparison).
    const PAPER_TABLE1: [(&str, u64, u64, f64); 4] = [
        ("STREAM", 25_078_088, 26_665_221, 5.95),
        ("MiniBude", 42_436_227, 48_778_524, 13.05),
        ("TeaLeaf", 19_966_725, 14_607_184, 36.69),
        ("MiniSweep", 6_529_912, 10_374_617, 37.05),
    ];

    #[test]
    fn produces_four_rows_with_nonzero_divergence() {
        let t = run(&Engine::idealized(), &crate::test_support::quick(1)).unwrap();
        assert_eq!(t.rows.len(), 4);
        for r in &t.rows {
            assert!(r.simulated_cycles > 0 && r.hardware_cycles > 0);
        }
        // The proxy must diverge somewhere (else it isn't a proxy).
        assert!(t.rows.iter().any(|r| r.pct_difference > 0.1));
    }

    #[test]
    fn divergence_in_papers_order_of_magnitude() {
        // The paper sees 6%–37%; we only require the same order: below 60%
        // everywhere at Small scale.
        let spec = JobSpec {
            scale: armdse_kernels::WorkloadScale::Small,
            ..crate::test_support::quick(1)
        };
        let t = run(&Engine::idealized(), &spec).unwrap();
        for r in &t.rows {
            assert!(
                r.pct_difference < 60.0,
                "{}: {}% divergence is out of band",
                r.app,
                r.pct_difference
            );
        }
    }

    #[test]
    fn table_mentions_every_app() {
        let t = run(&Engine::idealized(), &crate::test_support::quick(1))
            .unwrap()
            .table()
            .to_text();
        for (app, ..) in PAPER_TABLE1 {
            assert!(t.contains(app));
        }
    }
}
