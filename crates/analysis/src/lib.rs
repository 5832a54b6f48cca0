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

#![warn(missing_docs)]

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

#[cfg(test)]
mod test_support {
    use armdse_core::engine::Engine;
    use armdse_core::space::ParamSpace;
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
        let plan = spec.plan(&ParamSpace::paper()).unwrap();
        let mut data = DseDataset::default();
        Engine::idealized().run(&plan, &mut data).unwrap();
        data
    }
}
