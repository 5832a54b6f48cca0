//! The benchmark's whole view of the product: the only file in this
//! package that names a layer crate.
//!
//! Everything here is surface ROADMAP items 2–3 promise to keep, so the
//! PRs that collapse the simulator's parallel variants or merge the two
//! campaign drivers need not edit the benchmark: `Engine::{idealized,
//! memoized, multicore, workload, simulate_config,
//! simulate_config_metrics, run_controlled}`, `RunPlan`,
//! `CsvSink`/`RowSink`, `Checkpoint::save`, `ParamSpace::sample_seeded`,
//! `DseDataset::load_csv`, `write_csv_row`, `SurrogateSuite::train`,
//! `RandomForest::{warm_start, partial_refit, predict_variance}` (plus
//! the `Regressor` trait it predicts through), `permutation_importance`,
//! `Explorer`, `acquisition_scores`/`select_top_k`,
//! `JobSpec`/`JobStatus`/`JobStore::{create, open}`, `Server`, and
//! `client::{request, stream}`; plus the two leaf utilities every JSON
//! speaker and every sampler in the product already shares, `core::json`
//! and `rng::SplitMix64`. Deliberately absent, because they are
//! named for deletion: the free `simulate*` shims,
//! `orchestrator::generate_dataset*`, `Contended`, `Sampled`, and any
//! direct `Hierarchy`/`BankedHierarchy`/`SharedL2` construction.
//! (`GenOptions` is imported only because `RunPlan::new` takes it.)

pub use armdse_core::config::FEATURE_NAMES;
pub use armdse_core::dataset::{write_csv_row, DseDataset, Row};
pub use armdse_core::engine::{
    Checkpoint, CsvSink, Engine, Progress, ReuseMode, RowSink, RunControl, RunPlan,
};
pub use armdse_core::explorer::{
    acquisition_scores, select_top_k, ExploreControl, ExploreOptions, ExploreReport, Explorer,
};
pub use armdse_core::jobstore::{JobSpec, JobState, JobStatus, JobStore};
pub use armdse_core::json::{json_num, parse_json, Json};
pub use armdse_core::space::ParamSpace;
pub use armdse_core::surrogate::SurrogateSuite;
pub use armdse_core::DesignConfig;
pub use armdse_kernels::{App, WorkloadScale};
pub use armdse_mltree::{
    permutation_importance, r2, train_test_split, DecisionTreeRegressor, ForestParams, Matrix,
    RandomForest, Regressor,
};
pub use armdse_rng::SplitMix64;
pub use armdse_server::{client, Server, ServerConfig};
pub use armdse_simcore::DEFAULT_INTERVAL_LEN;

use armdse_core::orchestrator::GenOptions;

/// A campaign the benchmark generated from its seed: what the product
/// receives as a [`RunPlan`], kept in plain fields so the traced run can
/// walk the same jobs one by one.
#[derive(Debug, Clone)]
pub struct PlanDesc {
    /// Design points sampled.
    pub configs: usize,
    /// Workload input scale.
    pub scale: WorkloadScale,
    /// Base seed: config slot `i` samples with `seed + offset(i)`.
    pub seed: u64,
    /// Applications simulated per configuration.
    pub apps: Vec<App>,
    /// Jobs per checkpointable chunk.
    pub chunk_jobs: usize,
    /// Explicit config indices (the Explorer's per-round batches).
    pub indices: Option<Vec<u64>>,
}

impl PlanDesc {
    /// A sweep of `configs` consecutive design points over `apps`.
    pub fn sweep(configs: usize, scale: WorkloadScale, seed: u64, apps: &[App]) -> PlanDesc {
        PlanDesc {
            configs,
            scale,
            seed,
            apps: apps.to_vec(),
            chunk_jobs: 128,
            indices: None,
        }
    }

    /// Simulation jobs: one per (configuration, application) pair.
    pub fn jobs(&self) -> usize {
        self.configs * self.apps.len()
    }

    /// The seed offset config slot `slot` samples with.
    pub fn offset(&self, slot: usize) -> u64 {
        match &self.indices {
            Some(ix) => ix[slot],
            None => slot as u64,
        }
    }

    /// The validated plan the product executes.
    pub fn run_plan(&self, space: &ParamSpace, threads: usize) -> RunPlan {
        let opts = GenOptions {
            configs: self.configs,
            scale: self.scale,
            seed: self.seed,
            threads,
            apps: self.apps.clone(),
        };
        let plan = RunPlan::new(space, &opts)
            .expect("generated plans are valid")
            .with_chunk_jobs(self.chunk_jobs);
        match &self.indices {
            Some(ix) => plan
                .with_config_indices(ix.clone())
                .expect("generated index lists are non-empty"),
            None => plan,
        }
    }

    /// The same campaign as a job-server submission.
    pub fn job_spec(&self) -> JobSpec {
        JobSpec {
            configs: self.configs,
            scale: self.scale,
            seed: self.seed,
            threads: 1,
            apps: self.apps.clone(),
            chunk_jobs: self.chunk_jobs,
            ..JobSpec::default()
        }
    }
}
