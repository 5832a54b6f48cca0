//! Static instruction templates and dynamic instruction instances.

use crate::kir::AddrExpr;
use crate::op::OpClass;
use crate::reg::{Reg, RegList};

/// Load or store direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Read from memory.
    Load,
    /// Write to memory.
    Store,
}

/// Spatial pattern of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPattern {
    /// One contiguous byte range (scalar and unit-stride vector accesses).
    Contiguous,
    /// SVE gather/scatter approximated as a strided element walk: `count`
    /// elements of `elem_bytes`, `stride` bytes apart. Each element is a
    /// separate memory request — the defining cost of gathers.
    Strided {
        /// Bytes per element.
        elem_bytes: u32,
        /// Byte distance between consecutive element addresses.
        stride: i64,
        /// Number of elements (the vector's lane count).
        count: u32,
    },
}

/// Memory behaviour of an instruction template: where it touches memory (an
/// affine function of loop indices) and how many bytes per access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTemplate {
    /// Address expression over enclosing loop indices.
    pub expr: AddrExpr,
    /// Total access size in bytes (for vector accesses, `VL/8`).
    pub bytes: u32,
    /// Load or store.
    pub kind: MemKind,
    /// Spatial pattern.
    pub pattern: MemPattern,
}

/// A resolved memory reference carried by a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Concrete byte address (base element for strided patterns).
    pub addr: u64,
    /// Total access size in bytes.
    pub bytes: u32,
    /// Load or store.
    pub kind: MemKind,
    /// Spatial pattern.
    pub pattern: MemPattern,
}

/// A static instruction template, the unit the kernel IR is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrTemplate {
    /// Operation class (determines port, latency, memory behaviour).
    pub op: OpClass,
    /// Destination registers (renamed; at most 2 used in practice).
    pub dests: RegList,
    /// Source registers (at most 4).
    pub srcs: RegList,
    /// Memory behaviour, for load/store classes.
    pub mem: Option<MemTemplate>,
}

impl InstrTemplate {
    /// A compute (non-memory, non-branch) instruction.
    pub fn compute(op: OpClass, dests: &[Reg], srcs: &[Reg]) -> InstrTemplate {
        assert!(!op.is_mem() && !op.is_branch());
        InstrTemplate {
            op,
            dests: RegList::from_slice(dests),
            srcs: RegList::from_slice(srcs),
            mem: None,
        }
    }

    /// A load instruction writing `dest`, addressed by `expr`, reading
    /// `bytes` bytes. `addr_srcs` are the address-generation source
    /// registers (typically a GP base register).
    pub fn load(
        op: OpClass,
        dest: Reg,
        addr_srcs: &[Reg],
        expr: AddrExpr,
        bytes: u32,
    ) -> InstrTemplate {
        assert!(op.is_load());
        InstrTemplate {
            op,
            dests: RegList::from_slice(&[dest]),
            srcs: RegList::from_slice(addr_srcs),
            mem: Some(MemTemplate {
                expr,
                bytes,
                kind: MemKind::Load,
                pattern: MemPattern::Contiguous,
            }),
        }
    }

    /// A gather load: `count` elements of `elem_bytes`, `stride` bytes
    /// apart, starting at `expr` (SVE `ld1d {z}, [z.d]`-style, approximated
    /// as a strided walk).
    pub fn gather(
        dest: Reg,
        addr_srcs: &[Reg],
        expr: AddrExpr,
        elem_bytes: u32,
        stride: i64,
        count: u32,
    ) -> InstrTemplate {
        InstrTemplate {
            op: OpClass::VecGather,
            dests: RegList::from_slice(&[dest]),
            srcs: RegList::from_slice(addr_srcs),
            mem: Some(MemTemplate {
                expr,
                bytes: elem_bytes * count,
                kind: MemKind::Load,
                pattern: MemPattern::Strided {
                    elem_bytes,
                    stride,
                    count,
                },
            }),
        }
    }

    /// A scatter store, the mirror of [`InstrTemplate::gather`].
    pub fn scatter(
        data_srcs: &[Reg],
        expr: AddrExpr,
        elem_bytes: u32,
        stride: i64,
        count: u32,
    ) -> InstrTemplate {
        InstrTemplate {
            op: OpClass::VecScatter,
            dests: RegList::empty(),
            srcs: RegList::from_slice(data_srcs),
            mem: Some(MemTemplate {
                expr,
                bytes: elem_bytes * count,
                kind: MemKind::Store,
                pattern: MemPattern::Strided {
                    elem_bytes,
                    stride,
                    count,
                },
            }),
        }
    }

    /// A store instruction reading `data_srcs` (data + address registers),
    /// addressed by `expr`, writing `bytes` bytes.
    pub fn store(op: OpClass, data_srcs: &[Reg], expr: AddrExpr, bytes: u32) -> InstrTemplate {
        assert!(op.is_store());
        InstrTemplate {
            op,
            dests: RegList::empty(),
            srcs: RegList::from_slice(data_srcs),
            mem: Some(MemTemplate {
                expr,
                bytes,
                kind: MemKind::Store,
                pattern: MemPattern::Contiguous,
            }),
        }
    }

    /// A branch instruction (loop-control branches are added by lowering,
    /// but kernels may also include explicit branches).
    pub fn branch(srcs: &[Reg]) -> InstrTemplate {
        InstrTemplate {
            op: OpClass::Branch,
            dests: RegList::empty(),
            srcs: RegList::from_slice(srcs),
            mem: None,
        }
    }
}

/// A dynamic instruction: one element of the retired instruction stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInstr {
    /// Static program counter (byte address of the instruction).
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Destination registers.
    pub dests: RegList,
    /// Source registers.
    pub srcs: RegList,
    /// Resolved memory reference, if any.
    pub mem: Option<MemRef>,
    /// For branches: whether this dynamic instance is taken, and its
    /// target PC. `None` for non-branches.
    pub branch: Option<BranchInfo>,
}

/// Dynamic branch outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Whether the branch is taken.
    pub taken: bool,
    /// Target PC when taken (fall-through otherwise).
    pub target: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn compute_template_has_no_mem() {
        let t = InstrTemplate::compute(OpClass::FpFma, &[Reg::fp(0)], &[Reg::fp(1), Reg::fp(2)]);
        assert!(t.mem.is_none());
        assert_eq!(t.dests.len(), 1);
        assert_eq!(t.srcs.len(), 2);
    }

    #[test]
    fn load_template_records_footprint() {
        let t = InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(0),
            &[Reg::gp(1)],
            AddrExpr::linear(0x1000, 0, 64),
            64,
        );
        let m = t.mem.unwrap();
        assert_eq!(m.kind, MemKind::Load);
        assert_eq!(m.bytes, 64);
        assert_eq!(m.expr.eval(&[2]), 0x1080);
    }

    #[test]
    fn store_template_has_no_dest() {
        let t = InstrTemplate::store(
            OpClass::Store,
            &[Reg::gp(2), Reg::gp(1)],
            AddrExpr::fixed(0x2000),
            8,
        );
        assert_eq!(t.dests.len(), 0);
        assert_eq!(t.mem.unwrap().kind, MemKind::Store);
    }

    #[test]
    #[should_panic]
    fn load_constructor_rejects_non_load_class() {
        // The op-class assert fires in every profile, release included.
        let _ = InstrTemplate::load(OpClass::IntAlu, Reg::gp(0), &[], AddrExpr::fixed(0), 8);
    }
}
