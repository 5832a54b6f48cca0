//! # armdse-analysis — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`fig1`] | Fig. 1 — SVE fraction of retired instructions per VL per app |
//! | [`table1`] | Table I — simulated vs (proxy-)hardware cycles, ThunderX2 baseline |
//! | [`accuracy`] | Fig. 2 — % of predictions within confidence intervals |
//! | [`importance`] | Figs. 3/4/5 — permutation feature importances (free / VL=128 / VL=2048) |
//! | [`sweeps`] | Figs. 6/7/8 — speedup vs vector length / ROB size / FP registers |
//! | [`headline`] | §VI headline numbers — mean accuracy, VL weighting, ROB & FP-reg knees |
//! | [`unseen`] | Extension: leave-one-app-out transfer (the paper's §VII limitation) |
//! | [`multicore`] | Extension: shared-DRAM contention (the paper's §VII future work) |
//! | [`crossval`] | Extension: surrogate partial dependence vs fresh simulation |
//!
//! `plot` renders any figure's data as ASCII bar/line charts (the
//! artifact's `graph-generation.py` stand-in).
//!
//! Each experiment returns a structured result that renders to an aligned
//! text table (and CSV rows) so `repro <experiment>` output can be diffed
//! against EXPERIMENTS.md.
//!
//! Every simulating experiment is a [`RunPlan`] campaign on `--threads`:
//! sampled (the dataset, Figs. 4/5) or [listed](RunPlan::listed) (Figs.
//! 1, 6–8, Table I, contention); a discarded run a figure needs is an error.

#![warn(missing_docs)]

use armdse_core::dataset::Row;
use armdse_core::{ArmdseError, DesignConfig, DseDataset, Engine, JobSpec, RunPlan};
use armdse_kernels::App;

pub mod accuracy;
pub mod bottleneck;
pub mod crossval;
pub mod fig1;
pub mod headline;
pub mod importance;
pub mod multicore;
mod plot;
pub mod report;
pub mod sweeps;
pub mod table1;
pub mod unseen;

/// `points` × `apps` as one listed campaign on `engine`, at `spec`'s
/// scale, threads and chunk size.
fn campaign(
    engine: &Engine,
    points: Vec<DesignConfig>,
    apps: &[App],
    spec: &JobSpec,
) -> Result<DseDataset, ArmdseError> {
    let plan = RunPlan::listed(points, apps, spec.scale, spec.threads)?;
    let mut data = DseDataset::default();
    engine.run(&plan.with_chunk_jobs(spec.chunk_jobs), &mut data)?;
    Ok(data)
}

/// [`campaign`] over [`App::ALL`] for a figure (`what`) that needs every
/// run: its rows in job order, or an error naming a discarded run.
fn validated(
    what: &str,
    engine: &Engine,
    points: Vec<DesignConfig>,
    spec: &JobSpec,
) -> Result<Vec<Row>, ArmdseError> {
    let data = campaign(engine, points, &App::ALL, spec)?;
    let Some(d) = data.discarded.first() else {
        return Ok(data.rows);
    };
    let (app, slot, cycles) = (d.app.name(), d.config_index, d.cycles);
    let why = format!("{what}: {app} on list slot {slot} was discarded after {cycles} cycles");
    Err(ArmdseError::InvalidPlan(why))
}

#[cfg(test)]
mod test_support {
    use armdse_core::engine::Engine;
    use armdse_core::{DseDataset, JobSpec};
    use armdse_kernels::WorkloadScale;

    /// The unit tests' campaign: `configs` design points of the paper's
    /// four apps at tiny scale.
    pub(crate) fn quick(configs: usize) -> JobSpec {
        JobSpec {
            configs,
            scale: WorkloadScale::Tiny,
            seed: 7,
            threads: 2,
            ..JobSpec::default()
        }
    }

    /// Simulate `spec` on the paper's engine into a dataset.
    pub(crate) fn dataset(spec: &JobSpec) -> DseDataset {
        let plan = spec.plan().unwrap();
        let mut data = DseDataset::default();
        Engine::idealized().run(&plan, &mut data).unwrap();
        data
    }
}

#[cfg(test)]
mod tests {
    use crate::test_support::quick;
    use crate::{fig1, multicore, sweeps, table1};
    use armdse_core::{DesignConfig, Engine, JobSpec};

    #[test]
    fn every_figure_is_the_same_at_any_thread_count() {
        let engine = Engine::idealized();
        let at = |threads| JobSpec {
            threads,
            ..quick(2)
        };
        let (one, two) = (at(1), at(2));
        assert_eq!(
            fig1::run(&engine, &one).unwrap(),
            fig1::run(&engine, &two).unwrap()
        );
        assert_eq!(
            table1::run(&engine, &one).unwrap(),
            table1::run(&engine, &two).unwrap()
        );
        let fig7 = |spec| sweeps::fig7(&engine, spec).unwrap();
        assert_eq!(fig7(&one), fig7(&two));
        assert_eq!(multicore::run(&one).unwrap(), multicore::run(&two).unwrap());
    }

    #[test]
    fn a_discarded_run_is_an_error_naming_its_app_and_list_slot() {
        // Validates, but wedges against the cycle limit.
        let mut wedged = DesignConfig::thunderx2();
        wedged.mem.l1_latency = 100_000;
        wedged.mem.l2_latency = 200_000;
        let points = vec![DesignConfig::thunderx2(), wedged];
        let e = Engine::idealized();
        let err = crate::validated("Fig. T", &e, points, &quick(1))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("Fig. T: STREAM on list slot 1 was discarded"),
            "{err}"
        );
    }
}
