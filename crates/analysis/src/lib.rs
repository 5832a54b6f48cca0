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
//! [`plot`] renders any figure's data as ASCII bar/line charts (the
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
pub mod plot;
pub mod report;
pub mod sweeps;
pub mod table1;
pub mod unseen;

use armdse_core::engine::{Engine, RunPlan};
use armdse_core::orchestrator::GenOptions;
use armdse_core::space::ParamSpace;
use armdse_core::{ArmdseError, DseDataset};
use armdse_kernels::{App, WorkloadScale};

/// Shared experiment options.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Design points sampled for dataset-driven experiments.
    pub configs: usize,
    /// Workload input scale.
    pub scale: WorkloadScale,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for dataset generation.
    pub threads: usize,
    /// Base design points per sweep experiment (each is re-simulated at
    /// every sweep value, paired-sample style).
    pub sweep_configs: usize,
    /// Applications included in dataset-driven experiments. Defaults to
    /// the paper's four ([`App::ALL`]); switch to [`App::EXTENDED`] to
    /// fold the SpMV/GEMM/Graph kernels into the dataset and every
    /// experiment that derives its app set from it.
    pub apps: Vec<App>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            configs: 400,
            scale: WorkloadScale::Standard,
            seed: 20240931, // arbitrary fixed seed for reproducibility
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            sweep_configs: 12,
            apps: App::ALL.to_vec(),
        }
    }
}

impl ExpOptions {
    /// A reduced option set for fast tests.
    pub fn quick() -> ExpOptions {
        ExpOptions {
            configs: 40,
            scale: WorkloadScale::Tiny,
            seed: 7,
            threads: 2,
            sweep_configs: 4,
            apps: App::ALL.to_vec(),
        }
    }
}

impl ExpOptions {
    /// The dataset-generation options these experiment options imply.
    pub fn gen_options(&self) -> GenOptions {
        GenOptions {
            configs: self.configs,
            scale: self.scale,
            seed: self.seed,
            threads: self.threads,
            apps: self.apps.clone(),
        }
    }
}

/// Generate (or regenerate) the shared dataset used by the model-driven
/// experiments (Figs. 2/3 and the headline numbers) on `engine`,
/// sharing its workload cache with every other experiment in the
/// process.
pub fn build_dataset(engine: &Engine, opts: &ExpOptions) -> Result<DseDataset, ArmdseError> {
    let plan = RunPlan::new(&ParamSpace::paper(), &opts.gen_options())?;
    let mut data = DseDataset::default();
    engine.run(&plan, &mut data)?;
    Ok(data)
}
