//! Analytic operation summaries, the workloads' built-in validation.
//!
//! The paper only keeps runs whose applications pass their built-in output
//! validation. Our synthetic instruction streams have no numeric output, so
//! the equivalent check is *operation-count conservation*: the retired
//! per-class instruction counts and load/store byte totals observed by the
//! core model must equal the counts computed analytically from the program.
//! A simulation whose statistics disagree with the static summary is
//! rejected exactly as a failed validation run would be.

use crate::instr::MemKind;
use crate::kir::MAX_LOOP_DEPTH;
use crate::op::OpClass;
use crate::program::{OpRole, Program};

/// Analytic summary of a program's dynamic execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpSummary {
    /// Retired instruction count per [`OpClass`] (indexed by `OpClass::index`).
    pub per_class: [u64; OpClass::ALL.len()],
    /// Total bytes loaded.
    pub load_bytes: u64,
    /// Total bytes stored.
    pub store_bytes: u64,
}

impl OpSummary {
    /// Compute the summary analytically from a lowered program, in one
    /// allocation-free backwards walk: a loop opens at its branch (which
    /// names it) and closes after its header, and `open[d]` holds the
    /// `(header, retire multiplicity)` of the loop open at nesting `d`.
    pub fn of(program: &Program) -> OpSummary {
        let mut open = [(0u32, 1u64); MAX_LOOP_DEPTH + 1];
        let mut depth = 0;
        let mut s = OpSummary::default();
        for (i, op) in program.ops.iter().enumerate().rev() {
            if let OpRole::LoopBranch(id) = op.role {
                let lm = program.loops[id as usize];
                open[depth + 1] = (lm.header, open[depth].1 * lm.trip);
                depth += 1;
            }
            let m = open[depth].1;
            s.per_class[op.template.op.index()] += m;
            if let Some(mem) = op.template.mem {
                match mem.kind {
                    MemKind::Load => s.load_bytes += u64::from(mem.bytes) * m,
                    MemKind::Store => s.store_bytes += u64::from(mem.bytes) * m,
                }
            }
            while depth > 0 && open[depth].0 as usize == i {
                depth -= 1;
            }
        }
        s
    }

    /// Total retired instructions.
    pub fn total(&self) -> u64 {
        self.per_class.iter().sum()
    }

    /// Retired count for one class.
    #[inline]
    pub fn count(&self, c: OpClass) -> u64 {
        self.per_class[c.index()]
    }

    /// Record one retired instruction (used by the core model to build the
    /// observed-side summary).
    #[inline]
    pub fn record(&mut self, c: OpClass, mem_bytes: u64, kind: Option<MemKind>) {
        self.per_class[c.index()] += 1;
        match kind {
            Some(MemKind::Load) => self.load_bytes += mem_bytes,
            Some(MemKind::Store) => self.store_bytes += mem_bytes,
            None => {}
        }
    }

    /// Fraction of retired instructions that are SVE vector instructions —
    /// the paper's Fig. 1 vectorisation percentage.
    pub fn sve_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sve: u64 = OpClass::ALL
            .iter()
            .filter(|c| c.is_vector())
            .map(|c| self.count(*c))
            .sum();
        sve as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::InstrTemplate;
    use crate::kir::{AddrExpr, Kernel, Stmt};
    use crate::reg::Reg;
    use crate::TraceCursor;

    fn vec_triad(trip: u64) -> Program {
        let body = vec![
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
        ];
        Program::lower(&Kernel::new("triad", vec![Stmt::repeat(trip, body)]))
    }

    #[test]
    fn summary_counts_match_trace() {
        let p = vec_triad(11);
        let s = OpSummary::of(&p);
        // Cross-check against the actual trace.
        let mut observed = OpSummary::default();
        for d in TraceCursor::new(&p) {
            observed.record(
                d.op,
                d.mem.map_or(0, |m| u64::from(m.bytes)),
                d.mem.map(|m| m.kind),
            );
        }
        assert_eq!(s, observed);
        assert_eq!(s.total(), 11 * 5);
        assert_eq!(s.load_bytes, 11 * 64);
        assert_eq!(s.store_bytes, 11 * 64);
    }

    #[test]
    fn sve_fraction_of_vector_loop() {
        let p = vec_triad(10);
        let s = OpSummary::of(&p);
        // 3 of 5 retired per iteration are vector ops.
        let f = s.sve_fraction();
        assert!((f - 0.6).abs() < 1e-12, "fraction {f}");
    }

    #[test]
    fn empty_program_summary() {
        let p = Program::lower(&Kernel::new("e", vec![]));
        let s = OpSummary::of(&p);
        assert_eq!(s.total(), 0);
        assert_eq!(s.sve_fraction(), 0.0);
    }

    #[test]
    fn record_accumulates_bytes() {
        let mut s = OpSummary::default();
        s.record(OpClass::Load, 8, Some(MemKind::Load));
        s.record(OpClass::VecStore, 256, Some(MemKind::Store));
        s.record(OpClass::IntAlu, 0, None);
        assert_eq!(s.total(), 3);
        assert_eq!(s.load_bytes, 8);
        assert_eq!(s.store_bytes, 256);
    }
}
