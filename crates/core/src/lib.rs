//! # armdse-core — the design-space exploration framework
//!
//! The paper's contribution C1/C2 as a library: a thirty-feature
//! constrained design space over the core and memory simulators, seeded
//! uniform sampling, a parallel simulation orchestrator, dataset
//! persistence, and the per-application decision-tree surrogate pipeline.
//!
//! ## Pipeline (paper workflow T1 → T2 → T3)
//!
//! ```text
//! ParamSpace::paper() ──sample──► DesignConfig ──SimBackend──► SimStats
//!        │                                                        │
//!        └──────── Engine::run(RunPlan, &mut dyn RowSink) ────────┘
//!                              │
//!              DseDataset / CsvSink (+ checkpoint/resume)
//!                              │
//!               SurrogateSuite::train (per-app trees,
//!               tolerance curves, permutation importances)
//! ```
//!
//! Campaigns run through the [`engine`]: a validated [`engine::RunPlan`]
//! executed by an [`engine::Engine`] (pluggable simulation backend plus a
//! shared workload cache) that streams rows in deterministic job order
//! into any [`engine::RowSink`], checkpointing after each chunk so an
//! interrupted run resumes to byte-identical output.
//!
//! ## Example
//!
//! ```
//! use armdse_core::engine::Engine;
//! use armdse_core::surrogate::SurrogateSuite;
//! use armdse_core::{DseDataset, JobSpec};
//! use armdse_kernels::{App, WorkloadScale};
//!
//! let spec = JobSpec {
//!     configs: 40,
//!     scale: WorkloadScale::Tiny,
//!     seed: 1,
//!     threads: 2,
//!     apps: vec![App::Stream],
//!     ..JobSpec::default()
//! };
//! let plan = spec.plan().unwrap();
//! let mut data = DseDataset::default();
//! Engine::idealized().run(&plan, &mut data).unwrap();
//! assert!(data.rows.len() <= 40 && !data.rows.is_empty());
//! let suite = SurrogateSuite::train(&data, 0.2, 7);
//! assert_eq!(suite.models.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod dataset;
mod durable;
pub mod engine;
pub mod error;
pub mod explorer;
pub mod jobstore;
pub mod json;
pub mod metrics;
// `GenOptions`, the benchmark's input to `RunPlan::new`.
pub mod orchestrator;
pub mod scheduler;
pub mod space;
mod summary;
pub mod surrogate;

pub use config::DesignConfig;
pub use dataset::DseDataset;
pub use durable::{Campaign, CampaignFiles};
pub use engine::{CsvSink, Engine, Progress, RunControl, RunPlan, RunSummary};
pub use error::ArmdseError;
pub use jobstore::{JobSpec, JobState};
pub use scheduler::JobScheduler;
pub use summary::DatasetSummary;
pub use surrogate::SurrogateSuite;
