//! STREAM — sustained memory bandwidth benchmark (McCalpin).
//!
//! Four kernels over three double-precision arrays, swept `passes` times:
//!
//! * Copy:  `c[i] = a[i]`
//! * Scale: `b[i] = s * c[i]`
//! * Add:   `c[i] = a[i] + b[i]`
//! * Triad: `a[i] = b[i] + s * c[i]`
//!
//! Each loop compiles (as the Arm compiler does for VLA SVE) to a
//! `whilelo`-governed vector loop: predicate generation, contiguous vector
//! loads/stores of `VL/8` bytes, and one vector arithmetic op. The paper
//! uses an array size of 200,000 doubles (4.6 MiB total) so STREAM is "L2
//! or RAM bound depending on the configuration"; our `Standard` scale keeps
//! the same property against the scaled-down L2 range (192 KiB footprint
//! vs 64 KiB–8 MiB L2 sizes).

use crate::layout::{stream_addr, Layout};
use crate::WorkloadScale;
use armdse_isa::kir::{Kernel, Stmt};
use armdse_isa::{lanes, op::OpClass, InstrTemplate, Reg};

/// STREAM input parameters (paper Table IV: array size 200,000, OpenMP
/// single thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamParams {
    /// Elements per array (doubles).
    pub n: u64,
    /// Number of full four-kernel passes.
    pub passes: u64,
}

impl StreamParams {
    /// Preset for a workload scale.
    pub fn for_scale(scale: WorkloadScale) -> StreamParams {
        match scale {
            WorkloadScale::Tiny => StreamParams { n: 64, passes: 1 },
            WorkloadScale::Small => StreamParams { n: 1024, passes: 1 },
            WorkloadScale::Standard => StreamParams { n: 8192, passes: 1 },
        }
    }

    /// Total data footprint in bytes (three arrays of doubles).
    #[cfg(test)]
    fn footprint_bytes(&self) -> u64 {
        3 * self.n * 8
    }
}

/// Generate the STREAM kernel for a given vector length.
pub fn kernel(p: &StreamParams, vl_bits: u32) -> Kernel {
    let lanes64 = lanes(vl_bits, 64);
    let vb = vl_bits / 8; // bytes per vector access
    let step = lanes64 * 8; // bytes advanced per iteration
    let trip = p.n.div_ceil(lanes64);

    let mut l = Layout::new();
    let a = l.alloc_array(p.n, 8);
    let b = l.alloc_array(p.n, 8);
    let c = l.alloc_array(p.n, 8);

    // Inner loops sit at depth 1 when wrapped in a pass loop, else depth 0.
    let d = usize::from(p.passes > 1);

    let p0 = Reg::pred(0);
    let idx = Reg::gp(5);
    let scale_const = Reg::fp(8);
    let whilelo = InstrTemplate::compute(OpClass::PredOp, &[p0], &[idx]);

    // Copy: c[i] = a[i]
    let copy = vec![
        Stmt::Instr(whilelo),
        Stmt::Instr(InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(0),
            &[Reg::gp(1), p0],
            stream_addr(a, d, step),
            vb,
        )),
        Stmt::Instr(InstrTemplate::store(
            OpClass::VecStore,
            &[Reg::fp(0), Reg::gp(3), p0],
            stream_addr(c, d, step),
            vb,
        )),
    ];

    // Scale: b[i] = s * c[i]
    let scale = vec![
        Stmt::Instr(whilelo),
        Stmt::Instr(InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(1),
            &[Reg::gp(3), p0],
            stream_addr(c, d, step),
            vb,
        )),
        Stmt::Instr(InstrTemplate::compute(
            OpClass::VecFp,
            &[Reg::fp(2)],
            &[Reg::fp(1), scale_const, p0],
        )),
        Stmt::Instr(InstrTemplate::store(
            OpClass::VecStore,
            &[Reg::fp(2), Reg::gp(2), p0],
            stream_addr(b, d, step),
            vb,
        )),
    ];

    // Add: c[i] = a[i] + b[i]
    let add = vec![
        Stmt::Instr(whilelo),
        Stmt::Instr(InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(3),
            &[Reg::gp(1), p0],
            stream_addr(a, d, step),
            vb,
        )),
        Stmt::Instr(InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(4),
            &[Reg::gp(2), p0],
            stream_addr(b, d, step),
            vb,
        )),
        Stmt::Instr(InstrTemplate::compute(
            OpClass::VecFp,
            &[Reg::fp(5)],
            &[Reg::fp(3), Reg::fp(4), p0],
        )),
        Stmt::Instr(InstrTemplate::store(
            OpClass::VecStore,
            &[Reg::fp(5), Reg::gp(3), p0],
            stream_addr(c, d, step),
            vb,
        )),
    ];

    // Triad: a[i] = b[i] + s * c[i]
    let triad = vec![
        Stmt::Instr(whilelo),
        Stmt::Instr(InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(6),
            &[Reg::gp(2), p0],
            stream_addr(b, d, step),
            vb,
        )),
        Stmt::Instr(InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(7),
            &[Reg::gp(3), p0],
            stream_addr(c, d, step),
            vb,
        )),
        Stmt::Instr(InstrTemplate::compute(
            OpClass::VecFma,
            &[Reg::fp(9)],
            &[Reg::fp(6), Reg::fp(7), scale_const, p0],
        )),
        Stmt::Instr(InstrTemplate::store(
            OpClass::VecStore,
            &[Reg::fp(9), Reg::gp(1), p0],
            stream_addr(a, d, step),
            vb,
        )),
    ];

    let pass = vec![
        Stmt::repeat(trip, copy),
        Stmt::repeat(trip, scale),
        Stmt::repeat(trip, add),
        Stmt::repeat(trip, triad),
    ];

    let body = if p.passes > 1 {
        vec![Stmt::repeat(p.passes, pass)]
    } else {
        pass
    };
    Kernel::new("stream", body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_isa::{OpSummary, Program, TraceCursor};

    fn summarise(n: u64, passes: u64, vl: u32) -> OpSummary {
        let prog = Program::lower(&kernel(&StreamParams { n, passes }, vl));
        OpSummary::of(&prog)
    }

    #[test]
    fn byte_totals_scale_with_n_not_vl() {
        // STREAM moves (copy: 2n + scale: 2n + add: 3n + triad: 3n) * 8
        // bytes regardless of vector length when n divides the lanes.
        for vl in [128, 256, 1024, 2048] {
            let s = summarise(4096, 1, vl);
            assert_eq!(s.load_bytes, 6 * 4096 * 8, "vl={vl}");
            assert_eq!(s.store_bytes, 4 * 4096 * 8, "vl={vl}");
        }
    }

    #[test]
    fn remainder_iteration_rounds_up() {
        // n = 100 with 32 lanes (vl=2048) → 4 governed iterations, the
        // last partially predicated (bytes still counted per full vector,
        // matching how the core issues the whole VL-wide access).
        let p = Program::lower(&kernel(&StreamParams { n: 100, passes: 1 }, 2048));
        assert_eq!(p.loops.len(), 4);
        assert!(p.loops.iter().all(|l| l.trip == 4));
    }

    #[test]
    fn passes_multiply_work() {
        let one = summarise(512, 1, 256).total();
        let three = summarise(512, 3, 256).total();
        // Three passes of the same work plus the pass loop's own control
        // ops (2 per pass).
        assert_eq!(three, one * 3 + 6);
    }

    #[test]
    fn trace_addresses_stay_in_arrays() {
        let prm = StreamParams { n: 256, passes: 2 };
        let prog = Program::lower(&kernel(&prm, 512));
        let footprint = prm.footprint_bytes() + 3 * crate::layout::ARRAY_ALIGN;
        for di in TraceCursor::new(&prog) {
            if let Some(m) = di.mem {
                let off = m.addr - crate::layout::HEAP_BASE;
                assert!(off + u64::from(m.bytes) <= footprint + crate::layout::ARRAY_ALIGN);
            }
        }
    }

    #[test]
    fn vector_fraction_over_half() {
        let s = summarise(2048, 1, 128);
        assert!(s.sve_fraction() > 0.5, "{}", s.sve_fraction());
    }

    #[test]
    fn triad_uses_fma() {
        let s = summarise(512, 1, 128);
        assert!(s.count(OpClass::VecFma) > 0);
        assert!(s.count(OpClass::VecFp) > 0);
        assert!(s.count(OpClass::PredOp) > 0);
    }
}
