//! Architecturally exact in-order reference interpreter.
//!
//! Executes a [`Kernel`] by walking its statement tree directly — *not*
//! via [`Program::lower`](armdse_isa::Program::lower) or
//! [`TraceCursor`](armdse_isa::TraceCursor) —
//! so the static layout (instruction indices, PCs), the loop-control
//! synthesis (induction increment + compare-and-branch per iteration),
//! and the affine address evaluation are all re-derived independently of
//! the production lowering path. Agreement between this interpreter and
//! a replay of the lowered program is therefore evidence that *both*
//! implementations are correct, not that one copied the other.
//!
//! The interpreter retires instructions strictly in program order,
//! applying the [`ArchState`] value semantics to each, and accumulates
//! the per-class retired-op summary.

use crate::arch::ArchState;
use armdse_isa::instr::{BranchInfo, DynInstr, InstrTemplate, MemRef};
use armdse_isa::kir::{Kernel, Stmt, MAX_LOOP_DEPTH};
use armdse_isa::op::OpClass;
use armdse_isa::program::CODE_BASE;
use armdse_isa::reg::{Reg, RegList};
use armdse_isa::{OpSummary, INSTR_BYTES};

/// Result of interpreting a kernel to completion.
#[derive(Debug, Clone)]
pub(crate) struct InterpResult {
    /// Final architectural state under the oracle value semantics.
    pub state: ArchState,
    /// Retired-op summary (per-class counts, load/store bytes).
    pub summary: OpSummary,
    /// Total retired instructions (== `summary.total()`).
    pub retired: u64,
}

/// Number of static instructions a block lowers to, counting the two
/// loop-control ops appended to every non-zero-trip loop. Zero-trip
/// loops lower to nothing.
fn static_len(stmts: &[Stmt]) -> u64 {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Instr(_) => 1,
            Stmt::Loop { trip, body } => {
                if *trip == 0 {
                    0
                } else {
                    static_len(body) + 2
                }
            }
        })
        .sum()
}

struct Interp {
    state: ArchState,
    summary: OpSummary,
    /// Current iteration index per loop depth (outermost first). Entries
    /// at depths not currently inside a loop are zero.
    indices: [u64; MAX_LOOP_DEPTH],
}

#[inline]
fn pc_of(index: u64) -> u64 {
    CODE_BASE + index * INSTR_BYTES
}

impl Interp {
    fn retire(&mut self, di: &DynInstr) {
        self.state.apply(di);
        self.summary.record(
            di.op,
            di.mem.map_or(0, |m| u64::from(m.bytes)),
            di.mem.map(|m| m.kind),
        );
    }

    /// Execute one body template instance at static index `idx`.
    fn exec_template(&mut self, t: &InstrTemplate, idx: u64) {
        let pc = pc_of(idx);
        let mem = t.mem.map(|m| MemRef {
            addr: m.expr.eval(&self.indices),
            bytes: m.bytes,
            kind: m.kind,
            pattern: m.pattern,
        });
        // Explicit kernel-body branches fall through.
        let branch = t.op.is_branch().then_some(BranchInfo {
            taken: false,
            target: pc + INSTR_BYTES,
        });
        let di = DynInstr {
            pc,
            op: t.op,
            dests: t.dests,
            srcs: t.srcs,
            mem,
            branch,
        };
        self.retire(&di);
    }

    /// Execute a statement block starting at static index `start`;
    /// returns the static index just past the block.
    fn exec_block(&mut self, stmts: &[Stmt], depth: usize, start: u64) -> u64 {
        let mut idx = start;
        for s in stmts {
            match s {
                Stmt::Instr(t) => {
                    self.exec_template(t, idx);
                    idx += 1;
                }
                Stmt::Loop { trip, body } => {
                    if *trip == 0 {
                        continue; // lowered to nothing
                    }
                    assert!(depth < MAX_LOOP_DEPTH, "loop nest too deep");
                    let header = idx;
                    let add_idx = idx + static_len(body);
                    let branch_idx = add_idx + 1;
                    let ind = Reg::gp(24 + depth as u8);
                    for it in 0..*trip {
                        self.indices[depth] = it;
                        let end = self.exec_block(body, depth + 1, header);
                        debug_assert_eq!(end, add_idx);
                        // Flag-setting induction increment.
                        self.retire(&DynInstr {
                            pc: pc_of(add_idx),
                            op: OpClass::IntAlu,
                            dests: RegList::from_slice(&[ind, Reg::nzcv()]),
                            srcs: RegList::from_slice(&[ind]),
                            mem: None,
                            branch: None,
                        });
                        // Backward compare-and-branch to the loop header;
                        // not taken on the final iteration.
                        self.retire(&DynInstr {
                            pc: pc_of(branch_idx),
                            op: OpClass::Branch,
                            dests: RegList::empty(),
                            srcs: RegList::from_slice(&[Reg::nzcv()]),
                            mem: None,
                            branch: Some(BranchInfo {
                                taken: it + 1 < *trip,
                                target: pc_of(header),
                            }),
                        });
                    }
                    self.indices[depth] = 0;
                    idx = branch_idx + 1;
                }
            }
        }
        idx
    }
}

/// Interpret `kernel` to completion in program order.
pub(crate) fn interpret(kernel: &Kernel) -> InterpResult {
    let mut interp = Interp {
        state: ArchState::new(),
        summary: OpSummary::default(),
        indices: [0; MAX_LOOP_DEPTH],
    };
    interp.exec_block(&kernel.body, 0, 0);
    let retired = interp.summary.total();
    debug_assert_eq!(retired, interp.state.retired());
    InterpResult {
        state: interp.state,
        summary: interp.summary,
        retired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_isa::kir::AddrExpr;
    use armdse_isa::{Program, TraceCursor};

    fn triad(trip: u64) -> Kernel {
        Kernel::new(
            "triad",
            vec![Stmt::repeat(
                trip,
                vec![
                    Stmt::Instr(InstrTemplate::load(
                        OpClass::VecLoad,
                        Reg::fp(0),
                        &[Reg::gp(1)],
                        AddrExpr::linear(0x1000, 0, 64),
                        64,
                    )),
                    Stmt::Instr(InstrTemplate::compute(
                        OpClass::VecFma,
                        &[Reg::fp(2)],
                        &[Reg::fp(0), Reg::fp(1)],
                    )),
                    Stmt::Instr(InstrTemplate::store(
                        OpClass::VecStore,
                        &[Reg::fp(2), Reg::gp(2)],
                        AddrExpr::linear(0x9000, 0, 64),
                        64,
                    )),
                ],
            )],
        )
    }

    #[test]
    fn summary_matches_lowered_program_analytics() {
        let k = triad(9);
        let p = Program::lower(&k);
        let r = interpret(&k);
        assert_eq!(r.summary, OpSummary::of(&p));
        assert_eq!(r.retired, p.dynamic_len());
    }

    #[test]
    fn state_matches_cursor_replay() {
        // The interpreter walks the tree; the cursor walks the lowered
        // program. Replaying the cursor stream through a fresh ArchState
        // must land on the identical final state.
        let k = triad(7);
        let p = Program::lower(&k);
        let r = interpret(&k);
        let mut replay = ArchState::new();
        for di in TraceCursor::new(&p) {
            replay.apply(&di);
        }
        assert_eq!(r.state.diff(&replay), None);
        assert_eq!(r.state.fingerprint(), replay.fingerprint());
    }

    #[test]
    fn nested_and_sibling_loops_match_cursor() {
        let inner = |base: u64| {
            Stmt::Instr(InstrTemplate::load(
                OpClass::Load,
                Reg::gp(2),
                &[Reg::gp(3)],
                AddrExpr::bilinear(base, 0, 128, 1, 8),
                8,
            ))
        };
        let k = Kernel::new(
            "nest",
            vec![
                Stmt::repeat(3, vec![Stmt::repeat(4, vec![inner(0x1000)])]),
                Stmt::repeat(2, vec![inner(0x8000)]),
                Stmt::Instr(InstrTemplate::compute(OpClass::IntAlu, &[Reg::gp(0)], &[])),
            ],
        );
        let p = Program::lower(&k);
        let r = interpret(&k);
        let mut replay = ArchState::new();
        let mut n = 0u64;
        for di in TraceCursor::new(&p) {
            replay.apply(&di);
            n += 1;
        }
        assert_eq!(r.retired, n);
        assert_eq!(r.state.diff(&replay), None);
        assert_eq!(r.summary, OpSummary::of(&p));
    }

    #[test]
    fn zero_trip_loops_retire_nothing() {
        let k = Kernel::new(
            "z",
            vec![
                Stmt::repeat(
                    0,
                    vec![Stmt::Instr(InstrTemplate::compute(
                        OpClass::IntAlu,
                        &[Reg::gp(0)],
                        &[],
                    ))],
                ),
                Stmt::Instr(InstrTemplate::compute(OpClass::IntMul, &[Reg::gp(1)], &[])),
            ],
        );
        let r = interpret(&k);
        assert_eq!(r.retired, 1);
        // And the surviving op's PC matches the lowered layout.
        let p = Program::lower(&k);
        let mut replay = ArchState::new();
        replay.apply_all(TraceCursor::new(&p).collect::<Vec<_>>().iter());
        assert_eq!(r.state.diff(&replay), None);
    }

    #[test]
    fn empty_kernel_is_a_fixed_point() {
        let r = interpret(&Kernel::new("empty", vec![]));
        assert_eq!(r.retired, 0);
        assert_eq!(r.state, ArchState::new());
    }
}
