//! Kernel IR: affine loop nests over instruction templates.
//!
//! Each HPC workload is expressed as a small loop nest whose body is a list
//! of instruction templates. Memory-accessing templates carry an
//! [`AddrExpr`] — an affine function of the enclosing loop indices — so the
//! trace cursor can materialise concrete byte addresses without storing the
//! (potentially enormous) unrolled trace.

use crate::instr::{InstrTemplate, MemPattern};
use crate::reg::RegClass;

/// Maximum loop-nest depth supported by [`AddrExpr`] and the trace cursor.
pub const MAX_LOOP_DEPTH: usize = 6;

/// An affine address expression `base + Σ stride[d] * index[d]` over the
/// enclosing loop indices (`d` = 0 for the outermost loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrExpr {
    /// Base byte address (start of the array slice this template touches).
    pub base: u64,
    /// Per-loop-depth byte strides; entries beyond the actual nest depth
    /// must be zero.
    pub strides: [i64; MAX_LOOP_DEPTH],
}

impl AddrExpr {
    /// A fixed address independent of every loop index.
    pub const fn fixed(base: u64) -> AddrExpr {
        AddrExpr {
            base,
            strides: [0; MAX_LOOP_DEPTH],
        }
    }

    /// Address varying along one loop depth.
    pub fn linear(base: u64, depth: usize, stride: i64) -> AddrExpr {
        let mut e = AddrExpr::fixed(base);
        e.strides[depth] = stride;
        e
    }

    /// Address varying along two loop depths.
    pub fn bilinear(base: u64, d0: usize, s0: i64, d1: usize, s1: i64) -> AddrExpr {
        let mut e = AddrExpr::fixed(base);
        e.strides[d0] = s0;
        e.strides[d1] = s1;
        e
    }

    /// Evaluate at the given loop-index vector (outermost first).
    #[inline]
    pub fn eval(&self, indices: &[u64]) -> u64 {
        let mut a = self.base as i64;
        for (d, &idx) in indices.iter().enumerate().take(MAX_LOOP_DEPTH) {
            a += self.strides[d] * idx as i64;
        }
        debug_assert!(a >= 0, "address expression went negative");
        a as u64
    }
}

/// A statement in the kernel IR: either a straight-line instruction template
/// or a counted loop around a sub-body.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// One instruction template.
    Instr(InstrTemplate),
    /// A counted loop executing `body` `trip` times. Lowering appends the
    /// loop-control overhead (induction increment, compare-and-branch) that
    /// a real VLA loop retires each iteration.
    Loop {
        /// Trip count (≥ 1; zero-trip loops are dropped during lowering).
        trip: u64,
        /// Loop body.
        body: Vec<Stmt>,
    },
}

impl Stmt {
    /// Convenience constructor for a counted loop.
    pub fn repeat(trip: u64, body: Vec<Stmt>) -> Stmt {
        Stmt::Loop { trip, body }
    }
}

/// A named kernel: metadata plus the IR body.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Human-readable name (e.g. `"stream-triad"`).
    pub name: String,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Create a kernel from a body.
    pub fn new(name: impl Into<String>, body: Vec<Stmt>) -> Kernel {
        Kernel {
            name: name.into(),
            body,
        }
    }

    /// Maximum loop-nest depth of the kernel body.
    pub(crate) fn max_depth(&self) -> usize {
        fn depth(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Instr(_) => 0,
                    Stmt::Loop { body, .. } => 1 + depth(body),
                })
                .max()
                .unwrap_or(0)
        }
        depth(&self.body)
    }

    /// Check that the kernel is well-formed and safe to lower and execute:
    ///
    /// * nest depth within [`MAX_LOOP_DEPTH`];
    /// * every operand register valid for its class, with no body use of
    ///   the lowering-reserved induction registers (`x24..x29`);
    /// * at most two destinations per instruction (the core's micro-op
    ///   limit);
    /// * memory templates internally consistent (non-zero sizes, strided
    ///   element walks covering exactly `bytes`), with stride entries only
    ///   at enclosing loop depths;
    /// * every reachable address non-negative for every iteration vector
    ///   (the trace cursor's address evaluation rejects negative
    ///   addresses).
    ///
    /// Random kernel generators call this before handing a kernel to the
    /// differential oracle, so a generator bug is reported as a malformed
    /// kernel rather than as a spurious simulator mismatch.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_depth() > MAX_LOOP_DEPTH {
            return Err(format!(
                "kernel '{}' nests {} deep (max {MAX_LOOP_DEPTH})",
                self.name,
                self.max_depth()
            ));
        }
        // `trips[d]` = trip count of the enclosing loop at depth d.
        fn walk(stmts: &[Stmt], trips: &mut Vec<u64>, name: &str) -> Result<(), String> {
            for s in stmts {
                match s {
                    Stmt::Instr(t) => check_template(t, trips, name)?,
                    Stmt::Loop { trip, body } => {
                        trips.push(*trip);
                        walk(body, trips, name)?;
                        trips.pop();
                    }
                }
            }
            Ok(())
        }
        fn check_template(t: &InstrTemplate, trips: &[u64], name: &str) -> Result<(), String> {
            if t.dests.len() > 2 {
                return Err(format!("kernel '{name}': more than two destinations"));
            }
            for r in t.dests.iter().chain(t.srcs.iter()) {
                if !r.is_valid() {
                    return Err(format!(
                        "kernel '{name}': register {}{} out of range",
                        r.class.tag(),
                        r.index
                    ));
                }
                if r.class == RegClass::Gp && (24..24 + MAX_LOOP_DEPTH as u8).contains(&r.index) {
                    return Err(format!(
                        "kernel '{name}': body uses reserved induction register x{}",
                        r.index
                    ));
                }
            }
            let Some(m) = t.mem else { return Ok(()) };
            if m.bytes == 0 {
                return Err(format!("kernel '{name}': zero-byte memory access"));
            }
            if let MemPattern::Strided {
                elem_bytes, count, ..
            } = m.pattern
            {
                if elem_bytes == 0 || count == 0 || elem_bytes * count != m.bytes {
                    return Err(format!(
                        "kernel '{name}': strided walk {elem_bytes}x{count} != {} bytes",
                        m.bytes
                    ));
                }
            }
            for (d, &s) in m.expr.strides.iter().enumerate() {
                if s != 0 && d >= trips.len() {
                    return Err(format!(
                        "kernel '{name}': stride at depth {d} outside a {}-deep nest",
                        trips.len()
                    ));
                }
            }
            // Minimum address over the whole iteration space: each depth
            // contributes its most negative term (index 0 or trip-1).
            let mut min_addr = m.expr.base as i64;
            for (d, &trip) in trips.iter().enumerate() {
                let span = m.expr.strides[d] * (trip.max(1) as i64 - 1);
                min_addr += span.min(0);
            }
            if let MemPattern::Strided { stride, count, .. } = m.pattern {
                min_addr += (stride * (i64::from(count) - 1)).min(0);
            }
            if min_addr < 0 {
                return Err(format!(
                    "kernel '{name}': address can go negative ({min_addr})"
                ));
            }
            Ok(())
        }
        walk(&self.body, &mut Vec::new(), &self.name)
    }

    /// Number of static instruction templates (excluding lowering-inserted
    /// loop-control ops).
    #[cfg(test)]
    fn template_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Instr(_) => 1,
                    Stmt::Loop { body, .. } => count(body),
                })
                .sum()
        }
        count(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::InstrTemplate;
    use crate::op::OpClass;

    fn nop() -> Stmt {
        Stmt::Instr(InstrTemplate::compute(OpClass::IntAlu, &[], &[]))
    }

    #[test]
    fn addr_expr_fixed_ignores_indices() {
        let e = AddrExpr::fixed(0x1000);
        assert_eq!(e.eval(&[]), 0x1000);
        assert_eq!(e.eval(&[5, 7]), 0x1000);
    }

    #[test]
    fn addr_expr_linear() {
        let e = AddrExpr::linear(0x1000, 0, 8);
        assert_eq!(e.eval(&[0]), 0x1000);
        assert_eq!(e.eval(&[3]), 0x1018);
    }

    #[test]
    fn addr_expr_bilinear_negative_stride() {
        let e = AddrExpr::bilinear(0x1000, 0, 256, 1, -8);
        assert_eq!(e.eval(&[2, 4]), 0x1000 + 512 - 32);
    }

    #[test]
    fn kernel_depth_and_template_count() {
        let k = Kernel::new(
            "k",
            vec![
                nop(),
                Stmt::repeat(4, vec![nop(), Stmt::repeat(2, vec![nop(), nop()])]),
            ],
        );
        assert_eq!(k.max_depth(), 2);
        assert_eq!(k.template_count(), 4);
    }

    #[test]
    fn empty_kernel_depth_zero() {
        let k = Kernel::new("empty", vec![]);
        assert_eq!(k.max_depth(), 0);
        assert_eq!(k.template_count(), 0);
    }

    #[test]
    fn validate_accepts_well_formed_kernel() {
        use crate::reg::Reg;
        let body = vec![Stmt::repeat(
            4,
            vec![Stmt::Instr(InstrTemplate::load(
                crate::op::OpClass::Load,
                Reg::gp(2),
                &[Reg::gp(3)],
                AddrExpr::linear(0x1000, 0, -8),
                8,
            ))],
        )];
        Kernel::new("ok", body).validate().unwrap();
    }

    #[test]
    fn validate_rejects_induction_register_use() {
        use crate::reg::Reg;
        let k = Kernel::new(
            "bad",
            vec![Stmt::Instr(InstrTemplate::compute(
                crate::op::OpClass::IntAlu,
                &[Reg::gp(24)],
                &[],
            ))],
        );
        assert!(k.validate().unwrap_err().contains("induction"));
    }

    #[test]
    fn validate_rejects_negative_reachable_address() {
        use crate::reg::Reg;
        // base 0x10 with stride -8 over 4 trips reaches -8.
        let body = vec![Stmt::repeat(
            4,
            vec![Stmt::Instr(InstrTemplate::load(
                crate::op::OpClass::Load,
                Reg::gp(2),
                &[Reg::gp(3)],
                AddrExpr::linear(0x10, 0, -8),
                8,
            ))],
        )];
        assert!(Kernel::new("neg", body).validate().is_err());
    }

    #[test]
    fn validate_rejects_stride_outside_nest() {
        use crate::reg::Reg;
        let k = Kernel::new(
            "deep-stride",
            vec![Stmt::Instr(InstrTemplate::load(
                crate::op::OpClass::Load,
                Reg::gp(2),
                &[Reg::gp(3)],
                AddrExpr::linear(0x1000, 2, 8), // depth 2 stride with no loops
                8,
            ))],
        );
        assert!(k.validate().is_err());
    }
}
