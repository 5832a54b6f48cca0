//! Campaign options — the inputs of the paper's `xci_launcher.sh` /
//! `run_xci.sh` orchestration (artifact A₂, task T₁).
//!
//! [`GenOptions`] is what the benchmark package validates into a plan
//! with [`crate::engine::RunPlan::new`]; it has no other user. The
//! product, its tests and examples build a sampled plan one way,
//! [`crate::JobSpec::plan`].

use armdse_kernels::{App, WorkloadScale};

/// Dataset-generation options.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Number of design points to sample.
    pub configs: usize,
    /// Workload input scale.
    pub scale: WorkloadScale,
    /// Base seed; config `i` uses `seed + i`.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Applications to simulate per configuration (duplicates are
    /// ignored — plan validation deduplicates order-preserving).
    pub apps: Vec<App>,
}
