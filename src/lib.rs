//! # armdse — AI-Assisted Design-Space Analysis of High-Performance Arm Processors
//!
//! Umbrella crate re-exporting the full reproduction stack:
//!
//! * [`isa`] — Arm-like ISA model, kernel IR, trace cursor.
//! * [`memsim`] — SST-like memory hierarchy (L1D/L2/DRAM).
//! * [`kernels`] — VLA workload generators (STREAM, miniBUDE, TeaLeaf,
//!   MiniSweep, plus the extended SpMV / GEMM / Graph kernels).
//! * [`simcore`] — SimEng-like out-of-order core simulator and the
//!   multicore machine layer (N cores over a shared banked L2 + DRAM;
//!   docs/MULTICORE.md).
//! * [`rng`] — zero-dependency deterministic PRNG (SplitMix64 seeding,
//!   xoshiro256++ streams) behind a `rand`-shaped API.
//! * [`mltree`] — decision-tree regression, random forest, linear regression,
//!   permutation feature importance.
//! * [`core`] — design-space parameter space, constrained sampling, the
//!   resumable [`core::engine::Engine`] run path (pluggable backends,
//!   streaming row sinks, checkpoint/resume), dataset handling, and the
//!   surrogate-analysis pipeline.
//! * [`analysis`] — experiment harness regenerating every table and figure.
//! * [`server`] — DSE-as-a-service: std-only HTTP/1.1 server exposing the
//!   core job scheduler (submit campaigns as JSON, stream rows back
//!   byte-identically, pause/resume/cancel across restarts) plus the
//!   matching client (`armdse-client`); wire protocol in docs/SERVER.md.
//! * [`oracle`] — architecturally exact reference interpreter, random
//!   KIR program generator, and differential fuzzer (the repo's stand-in
//!   for the paper's Table I hardware validation).
//!
//! ## Quickstart
//!
//! ```
//! use armdse::core::{space::ParamSpace, Engine};
//! use armdse::kernels::{App, WorkloadScale};
//!
//! // Sample one design point and simulate STREAM on it. The engine
//! // caches workloads, so repeated queries rebuild nothing.
//! let space = ParamSpace::paper();
//! let cfg = space.sample_seeded(42);
//! let engine = Engine::idealized();
//! let stats = engine.simulate_config(App::Stream, WorkloadScale::Tiny, &cfg);
//! assert!(stats.cycles > 0);
//! ```

/// The README's Rust examples, compiled as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use armdse_analysis as analysis;
pub use armdse_core as core;
pub use armdse_isa as isa;
pub use armdse_kernels as kernels;
pub use armdse_memsim as memsim;
pub use armdse_mltree as mltree;
pub use armdse_oracle as oracle;
pub use armdse_rng as rng;
pub use armdse_server as server;
pub use armdse_simcore as simcore;
