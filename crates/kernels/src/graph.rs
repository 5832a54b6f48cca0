//! Graph — pointer-chasing traversal, the latency-bound scalar kernel.
//!
//! Models the inner loop of a graph walk (random-access traversals of
//! the GUPS / Graph500 family): each step loads the next node pointer
//! *from the current node* — a scalar load whose address register is
//! the previous load's destination, so the chain serialises at full
//! memory round-trip latency and no amount of reorder window can hide
//! it — then scans the node's `degree` adjacent edge weights and folds
//! them into a scalar accumulator. The node records are laid out
//! `spread` bytes apart, defeating spatial locality and the next-line
//! prefetcher the way a randomised node ordering does.
//!
//! Like TeaLeaf and MiniSweep, the compiler cannot vectorise a pointer
//! chase: the kernel is generated fully scalar and is (correctly)
//! insensitive to vector length. Unlike either, its bottleneck is pure
//! load-to-use latency — the L2/RAM latency and clock parameters —
//! which is what makes it a distinct unseen-app probe.
//!
//! ```
//! use armdse_kernels::graph::{kernel, GraphParams};
//! use armdse_kernels::WorkloadScale;
//! use armdse_isa::{OpSummary, Program};
//!
//! let p = GraphParams::for_scale(WorkloadScale::Tiny);
//! let s = OpSummary::of(&Program::lower(&kernel(&p, 256)));
//! assert_eq!(s.sve_fraction(), 0.0, "a pointer chase cannot vectorise");
//! ```

use crate::layout::Layout;
use crate::WorkloadScale;
use armdse_isa::kir::{AddrExpr, Kernel, Stmt};
use armdse_isa::{op::OpClass, InstrTemplate, Reg};

/// Pointer-chasing graph traversal parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphParams {
    /// Nodes visited (the length of the chase).
    pub nodes: u64,
    /// Edges scanned per node.
    pub degree: u64,
    /// Byte distance between consecutive node records (the locality
    /// knob: 64 packs nodes line-per-node, hundreds defeat the
    /// prefetcher and spread the walk across the cache).
    pub spread: i64,
}

impl GraphParams {
    /// Preset for a workload scale.
    pub fn for_scale(scale: WorkloadScale) -> GraphParams {
        match scale {
            WorkloadScale::Tiny => GraphParams {
                nodes: 32,
                degree: 2,
                spread: 520,
            },
            WorkloadScale::Small => GraphParams {
                nodes: 400,
                degree: 4,
                spread: 520,
            },
            WorkloadScale::Standard => GraphParams {
                nodes: 1500,
                degree: 4,
                spread: 520,
            },
        }
    }

    /// Bytes spanned by the node records.
    pub(crate) fn footprint_bytes(&self) -> u64 {
        self.nodes * self.spread.unsigned_abs()
    }
}

/// Generate the graph-traversal kernel for a given vector length.
///
/// The vector length is accepted for interface uniformity but — as for
/// TeaLeaf and MiniSweep — the generated walk is scalar.
pub fn kernel(p: &GraphParams, _vl_bits: u32) -> Kernel {
    let mut l = Layout::new();
    // Node records: [next-pointer | degree edge weights | pad] every
    // `spread` bytes.
    let nodes = l.alloc(p.footprint_bytes() + 4096);
    let edges = nodes + 8;

    // Depths: 0 = chase step, 1 = edge within the node.
    let next = Reg::gp(10); // the chased pointer (loop-carried chain)
    let w = Reg::fp(0);
    let acc = Reg::fp(1);
    let deg_acc = Reg::gp(11);

    let edge_body = vec![
        // Edge weight, addressed off the chased pointer.
        Stmt::Instr(InstrTemplate::load(
            OpClass::Load,
            w,
            &[next],
            AddrExpr::bilinear(edges, 0, p.spread, 1, 8),
            8,
        )),
        // Fold into the scalar accumulators (visit work).
        Stmt::Instr(InstrTemplate::compute(OpClass::FpAdd, &[acc], &[acc, w])),
        Stmt::Instr(InstrTemplate::compute(
            OpClass::IntAlu,
            &[deg_acc],
            &[deg_acc],
        )),
    ];
    let chase_body = vec![
        // next = node->next: the serialising load — its address source
        // is the previous iteration's destination register.
        Stmt::Instr(InstrTemplate::load(
            OpClass::Load,
            next,
            &[next],
            AddrExpr::linear(nodes, 0, p.spread),
            8,
        )),
        Stmt::repeat(p.degree, edge_body),
    ];
    Kernel::new("graph", vec![Stmt::repeat(p.nodes, chase_body)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_isa::{OpSummary, Program};

    fn summarise(p: GraphParams) -> OpSummary {
        OpSummary::of(&Program::lower(&kernel(&p, 128)))
    }

    #[test]
    fn fully_scalar() {
        let s = summarise(GraphParams::for_scale(WorkloadScale::Standard));
        assert_eq!(s.sve_fraction(), 0.0);
    }

    #[test]
    fn loads_dominate_the_mix() {
        let s = summarise(GraphParams::for_scale(WorkloadScale::Small));
        let flops = s.count(OpClass::FpAdd) + s.count(OpClass::FpFma) + s.count(OpClass::FpMul);
        assert!(s.count(OpClass::Load) > flops, "a walk is load heavy");
        assert_eq!(s.count(OpClass::Store) + s.count(OpClass::VecStore), 0);
    }

    #[test]
    fn chase_load_depends_on_itself() {
        // The structural property the kernel exists for: the next-pointer
        // load names its own destination register as its address source.
        let p = GraphParams::for_scale(WorkloadScale::Tiny);
        let prog = Program::lower(&kernel(&p, 128));
        let chained = prog.ops.iter().any(|o| {
            let t = &o.template;
            t.op == OpClass::Load && t.dests.iter().any(|d| t.srcs.iter().any(|s| s == d))
        });
        assert!(chained, "missing the serialising pointer chain");
    }

    #[test]
    fn work_scales_with_nodes_and_degree() {
        let base = GraphParams {
            nodes: 64,
            degree: 2,
            spread: 520,
        };
        let longer = GraphParams { nodes: 128, ..base };
        let denser = GraphParams { degree: 4, ..base };
        let b = summarise(base).total();
        assert_eq!(summarise(longer).total(), 2 * b);
        assert!(summarise(denser).total() > b + b / 3);
    }
}
