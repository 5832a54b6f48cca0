//! # armdse-oracle — correctness oracle for the core model
//!
//! The paper validates its simulator against physical ThunderX2 hardware
//! (Table I). This reproduction has no hardware to compare against, so
//! this crate provides the software substitute: a differential-testing
//! oracle that checks the out-of-order core model against an
//! architecturally exact in-order reference, over both the four HPC
//! kernels and unbounded seeded random programs.
//!
//! * `arch` — a deterministic *value semantics* for the KIR ISA
//!   ([`ArchState`]): every retired instruction hashes its operands into
//!   its destinations and memory words, so two executions agree on the
//!   final register file and memory image iff they retired the same
//!   operations in the same (per-location) order with the same addresses.
//! * `interp` — an in-order reference interpreter walking the kernel
//!   IR tree directly, independently re-deriving the lowering layout.
//! * `gen` — a seeded random generator of valid kernels (mixed
//!   scalar/SVE compute, aliasing loads/stores, gathers/scatters,
//!   branches, nested loops) and of random Table II design points.
//! * `diff` — the differential check and fuzz campaign driver:
//!   interpreter vs trace-cursor replay vs the pipeline's commit-order
//!   retirement stream.
//!
//! Built with `--features check-invariants`, every simulated cycle in a
//! campaign additionally runs the pipeline's structural invariant
//! assertions (in-order commit, free-list conservation, LSQ capacities,
//! forwarding legality, memory bandwidth accounting), so a passing
//! campaign certifies zero violations.

#![warn(missing_docs)]

mod arch;
mod diff;
mod gen;
mod interp;

pub use arch::ArchState;
pub use diff::{fuzz, fuzz_with, FuzzConfig, FuzzFailure, FuzzReport};
