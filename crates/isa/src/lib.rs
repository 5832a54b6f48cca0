//! # armdse-isa — Arm-like ISA model
//!
//! This crate defines the vocabulary shared between the workload generators
//! (`armdse-kernels`) and the out-of-order core model (`armdse-simcore`):
//!
//! * [`reg`] — architectural register classes (general-purpose, FP/SVE,
//!   SVE predicate, condition flags) mirroring the four physical register
//!   files the paper varies (Table II).
//! * [`op`] — instruction operation classes with their fixed execution
//!   latencies and port bindings. The paper fixes the execution-unit design
//!   ("the design of the execution units, ports, reservation stations, and
//!   instruction execution latency are fixed"), so latencies live here as
//!   constants rather than design-space parameters.
//! * [`instr`] — static instruction templates and dynamic (per-retirement)
//!   instruction instances.
//! * [`kir`] — a tiny kernel IR: affine loop nests over instruction
//!   templates, the form in which the four HPC workloads are expressed.
//! * [`program`] — the lowered, flat representation executed by the core
//!   model, with explicit loop-end branches and static program counters.
//! * `cursor` — a lazy trace cursor producing the dynamic instruction
//!   stream (the stand-in for the statically compiled Arm binary's
//!   instruction stream).
//! * `summary` — static operation-count summaries used for workload
//!   validation (the stand-in for each app's built-in output validation).
//!
//! ## Vector-length agnosticism
//!
//! The paper compiles every binary with `-msve-vector-bits=scalable` so one
//! binary serves every vector length. We mirror that: kernel generators take
//! the vector length as a parameter and emit loop trip counts of
//! `ceil(elements / lanes)`, exactly what a VLA binary's `whilelo`-governed
//! loop retires at runtime. An SVE instruction is a single macro-op whatever
//! the vector length; only its memory footprint (`VL/8` bytes for a
//! contiguous load) scales.

#![warn(missing_docs)]

mod cursor;
pub mod instr;
pub mod kir;
pub mod op;
pub mod program;
pub mod reg;
mod summary;

pub use cursor::{FetchSlot, TraceCursor};
pub use instr::InstrTemplate;
pub use kir::{Kernel, Stmt};
pub use op::OpClass;
pub use program::Program;
pub use reg::Reg;
pub use summary::OpSummary;

/// Number of bytes occupied by one (fixed-width) Arm instruction.
///
/// Fetch-block sizes in the design space are expressed in bytes; dividing by
/// this constant yields the number of instructions a fetch block delivers.
pub const INSTR_BYTES: u64 = 4;

/// Lanes of `elem_bits`-wide elements in a vector of `vl_bits` bits.
///
/// This is the VLA trip-count divisor: a loop over `n` double-precision
/// elements retires `ceil(n / lanes(vl, 64))` governed vector iterations.
#[inline]
pub fn lanes(vl_bits: u32, elem_bits: u32) -> u64 {
    debug_assert!(vl_bits >= elem_bits, "vector shorter than element");
    u64::from(vl_bits / elem_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_of_common_widths() {
        assert_eq!(lanes(128, 64), 2);
        assert_eq!(lanes(512, 64), 8);
        assert_eq!(lanes(2048, 64), 32);
        assert_eq!(lanes(128, 32), 4);
        assert_eq!(lanes(2048, 32), 64);
    }
}
