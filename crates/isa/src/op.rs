//! Instruction operation classes, fixed latencies, and port bindings.
//!
//! The paper fixes the execution-unit design: "seven execution units with a
//! single unified reservation station shared between them with a width of 60
//! and a dispatch rate of four instructions per cycle. [...] Three of them
//! are exclusive to load and store instructions, two support NEON and SVE
//! instructions with one additional predicate-only port, and three support a
//! mixture of integer, floating point, and branch instructions."
//!
//! We realise this as four *port classes* — load/store, vector, predicate,
//! and scalar (int/FP/branch) — and give the core model the corresponding
//! default port layout (3 LS + 2 VEC + 1 PRED + 3 SCALAR). The prose's unit
//! arithmetic is ambiguous (the clauses enumerate more ports than "seven");
//! we keep the per-class counts it states and note the discrepancy in
//! DESIGN.md. Latencies approximate a modern Arm core (Neoverse-class) and
//! are fixed across the entire design space, as in the paper.

/// Functional classes of macro-operations retired by the core model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Scalar integer ALU op (add/sub/logic/shift, address arithmetic).
    IntAlu,
    /// Scalar integer multiply.
    IntMul,
    /// Scalar integer divide (long latency, unpipelined in spirit).
    IntDiv,
    /// Scalar FP add/sub/convert/compare.
    FpAdd,
    /// Scalar FP multiply.
    FpMul,
    /// Scalar fused multiply-add.
    FpFma,
    /// Scalar FP divide / square root.
    FpDiv,
    /// SVE/NEON integer or logical vector op (including index/dup).
    VecAlu,
    /// SVE/NEON FP add/mul vector op.
    VecFp,
    /// SVE/NEON fused multiply-add vector op.
    VecFma,
    /// SVE/NEON FP divide / sqrt / reciprocal-refinement vector op.
    VecDiv,
    /// SVE predicate-generating or predicate-logic op (`whilelo`, `ptest`,
    /// predicate AND/OR) — bound to the predicate port.
    PredOp,
    /// Scalar load (consumes load-queue entry and memory bandwidth).
    Load,
    /// Scalar store (consumes store-queue entry and memory bandwidth).
    Store,
    /// SVE/NEON contiguous vector load of `VL/8` bytes.
    VecLoad,
    /// SVE/NEON contiguous vector store of `VL/8` bytes.
    VecStore,
    /// SVE gather load (per-element requests; see `MemPattern::Strided`).
    VecGather,
    /// SVE scatter store (per-element requests).
    VecScatter,
    /// Conditional or unconditional branch.
    Branch,
}

/// Execution-port classes of the fixed EU layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortClass {
    /// Load/store address-generation and data ports (3 in the layout).
    LoadStore,
    /// NEON/SVE arithmetic ports (2 in the layout).
    Vector,
    /// Predicate-only port (1 in the layout).
    Predicate,
    /// Mixed integer / scalar-FP / branch ports (3 in the layout).
    Scalar,
}

impl PortClass {
    /// Index into per-port-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            PortClass::LoadStore => 0,
            PortClass::Vector => 1,
            PortClass::Predicate => 2,
            PortClass::Scalar => 3,
        }
    }

    /// Default number of ports of this class in the paper's fixed layout.
    #[inline]
    pub fn default_count(self) -> usize {
        match self {
            PortClass::LoadStore => 3,
            PortClass::Vector => 2,
            PortClass::Predicate => 1,
            PortClass::Scalar => 3,
        }
    }
}

impl OpClass {
    /// All op classes, for statistics tables.
    pub(crate) const ALL: [OpClass; 19] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpFma,
        OpClass::FpDiv,
        OpClass::VecAlu,
        OpClass::VecFp,
        OpClass::VecFma,
        OpClass::VecDiv,
        OpClass::PredOp,
        OpClass::Load,
        OpClass::Store,
        OpClass::VecLoad,
        OpClass::VecStore,
        OpClass::VecGather,
        OpClass::VecScatter,
        OpClass::Branch,
    ];

    /// The port class this op issues to.
    #[inline]
    pub fn port(self) -> PortClass {
        match self {
            OpClass::Load
            | OpClass::Store
            | OpClass::VecLoad
            | OpClass::VecStore
            | OpClass::VecGather
            | OpClass::VecScatter => PortClass::LoadStore,
            OpClass::VecAlu | OpClass::VecFp | OpClass::VecFma | OpClass::VecDiv => {
                PortClass::Vector
            }
            OpClass::PredOp => PortClass::Predicate,
            OpClass::IntAlu
            | OpClass::IntMul
            | OpClass::IntDiv
            | OpClass::FpAdd
            | OpClass::FpMul
            | OpClass::FpFma
            | OpClass::FpDiv
            | OpClass::Branch => PortClass::Scalar,
        }
    }

    /// Fixed execution latency in core cycles (excluding memory time for
    /// loads/stores, which is supplied by the memory model).
    #[inline]
    pub fn exec_latency(self) -> u32 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 12,
            OpClass::FpAdd => 2,
            OpClass::FpMul => 3,
            OpClass::FpFma => 4,
            OpClass::FpDiv => 12,
            OpClass::VecAlu => 2,
            OpClass::VecFp => 3,
            OpClass::VecFma => 4,
            OpClass::VecDiv => 16,
            OpClass::PredOp => 1,
            // Address generation; memory latency is added by the LSQ.
            OpClass::Load | OpClass::VecLoad => 1,
            OpClass::Store | OpClass::VecStore => 1,
            // Gathers/scatters pay extra address-generation work.
            OpClass::VecGather | OpClass::VecScatter => 2,
            OpClass::Branch => 1,
        }
    }

    /// Whether the op is fully pipelined on its port (can accept a new op
    /// every cycle). Divides occupy their port for their whole latency.
    #[inline]
    pub fn pipelined(self) -> bool {
        !matches!(self, OpClass::IntDiv | OpClass::FpDiv | OpClass::VecDiv)
    }

    /// Whether the op reads memory.
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, OpClass::Load | OpClass::VecLoad | OpClass::VecGather)
    }

    /// Whether the op writes memory.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(
            self,
            OpClass::Store | OpClass::VecStore | OpClass::VecScatter
        )
    }

    /// Whether the op accesses memory at all.
    #[inline]
    pub(crate) fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether the op is an SVE/NEON vector instruction. Predicate ops
    /// count as SVE for the paper's vectorisation metric ("at least one Z
    /// register as a source or destination") only when they touch Z
    /// registers, which ours do not, so `PredOp` is excluded here and
    /// the vectorisation measurement instead inspects operand classes.
    #[inline]
    pub(crate) fn is_vector(self) -> bool {
        matches!(
            self,
            OpClass::VecAlu
                | OpClass::VecFp
                | OpClass::VecFma
                | OpClass::VecDiv
                | OpClass::VecLoad
                | OpClass::VecStore
                | OpClass::VecGather
                | OpClass::VecScatter
        )
    }

    /// Whether the op is a branch.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(self, OpClass::Branch)
    }

    /// Index into `ALL`-ordered statistics arrays: the discriminant, as
    /// `ALL` lists the classes in declaration order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_has_port_and_latency() {
        for c in OpClass::ALL {
            let _ = c.port();
            assert!(c.exec_latency() >= 1, "{c:?} latency must be >= 1");
        }
    }

    #[test]
    fn memory_predicates_consistent() {
        for c in OpClass::ALL {
            assert_eq!(c.is_mem(), c.is_load() || c.is_store());
            assert!(!(c.is_load() && c.is_store()));
            if c.is_mem() {
                assert_eq!(c.port(), PortClass::LoadStore);
            }
        }
    }

    #[test]
    fn vector_ops_issue_to_vector_or_ls_ports() {
        for c in OpClass::ALL.iter().filter(|c| c.is_vector()) {
            assert!(
                matches!(c.port(), PortClass::Vector | PortClass::LoadStore),
                "{c:?} on unexpected port"
            );
        }
    }

    #[test]
    fn divides_are_unpipelined() {
        assert!(!OpClass::IntDiv.pipelined());
        assert!(!OpClass::FpDiv.pipelined());
        assert!(!OpClass::VecDiv.pipelined());
        assert!(OpClass::FpFma.pipelined());
        assert!(OpClass::VecFma.pipelined());
    }

    #[test]
    fn default_port_layout_matches_paper_counts() {
        assert_eq!(PortClass::LoadStore.default_count(), 3);
        assert_eq!(PortClass::Vector.default_count(), 2);
        assert_eq!(PortClass::Predicate.default_count(), 1);
        assert_eq!(PortClass::Scalar.default_count(), 3);
    }

    /// `index` is each class's position in `ALL`, so the indices are a
    /// dense permutation.
    #[test]
    fn op_index_is_dense_permutation() {
        for (i, c) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }
}
