//! GEMM — register-blocked dense matrix multiply, the FMA-dense kernel.
//!
//! `C = A × B` over `n×n` double matrices in the shape the Arm compiler
//! emits for a VLA-SVE inner loop: the `j` dimension is vectorised in
//! `VL/64`-lane column panels, `a[i][k]` is a scalar load broadcast
//! across the panel, and the `k`-loop body is one broadcast, one
//! contiguous vector load of `B`, and one vector FMA into the panel
//! accumulator. Like miniBUDE it is compute bound and heavily
//! vectorised — its cycle count tracks FMA throughput and the
//! vector-length/frontend parameters, not the memory system — but with
//! a *denser* FMA mix and an L1-resident footprint, which is what makes
//! it a useful unseen-app probe for models trained on the original four
//! codes.
//!
//! ```
//! use armdse_kernels::gemm::{kernel, GemmParams};
//! use armdse_kernels::WorkloadScale;
//! use armdse_isa::{op::OpClass, OpSummary, Program};
//!
//! let p = GemmParams::for_scale(WorkloadScale::Tiny);
//! let s = OpSummary::of(&Program::lower(&kernel(&p, 256)));
//! assert!(s.count(OpClass::VecFma) > 0, "GEMM is FMA dense");
//! assert!(s.sve_fraction() > 0.4, "GEMM is a vector kernel");
//! ```

use crate::layout::Layout;
use crate::WorkloadScale;
use armdse_isa::kir::{AddrExpr, Kernel, Stmt};
use armdse_isa::{lanes, op::OpClass, InstrTemplate, Reg};

/// Dense GEMM input parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmParams {
    /// Matrix dimension (`n×n` for all three matrices).
    pub n: u64,
}

impl GemmParams {
    /// Preset for a workload scale.
    pub fn for_scale(scale: WorkloadScale) -> GemmParams {
        match scale {
            WorkloadScale::Tiny => GemmParams { n: 4 },
            WorkloadScale::Small => GemmParams { n: 12 },
            WorkloadScale::Standard => GemmParams { n: 24 },
        }
    }

    /// Total data footprint in bytes (three `n×n` double matrices).
    #[cfg(test)]
    fn footprint_bytes(&self) -> u64 {
        3 * self.n * self.n * 8
    }
}

/// Generate the GEMM kernel for a given vector length.
pub fn kernel(p: &GemmParams, vl_bits: u32) -> Kernel {
    let lanes64 = lanes(vl_bits, 64);
    let vb = vl_bits / 8;
    let n = p.n;
    let panels = n.div_ceil(lanes64);

    let mut l = Layout::new();
    let a = l.alloc_array(n * n, 8);
    let b = l.alloc_array(n * n, 8);
    let c = l.alloc_array(n * n, 8);

    // Depths: 0 = i (rows of C), 1 = j panel, 2 = k.
    let p0 = Reg::pred(0);
    let acc = Reg::fp(4);
    let k_body = vec![
        // Broadcast a[i][k] across the panel.
        Stmt::Instr(InstrTemplate::load(
            OpClass::Load,
            Reg::fp(0),
            &[Reg::gp(1)],
            AddrExpr::bilinear(a, 0, (n * 8) as i64, 2, 8),
            8,
        )),
        Stmt::Instr(InstrTemplate::compute(
            OpClass::VecAlu,
            &[Reg::fp(1)],
            &[Reg::fp(0)],
        )),
        // Panel of b[k][j..j+lanes].
        Stmt::Instr(InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(2),
            &[Reg::gp(2), p0],
            AddrExpr::bilinear(b, 1, (lanes64 * 8) as i64, 2, (n * 8) as i64),
            vb,
        )),
        // acc += a_broadcast * b_panel.
        Stmt::Instr(InstrTemplate::compute(
            OpClass::VecFma,
            &[acc],
            &[Reg::fp(1), Reg::fp(2), acc, p0],
        )),
    ];
    let panel_body = vec![
        // Fresh panel predicate + zeroed accumulator.
        Stmt::Instr(InstrTemplate::compute(
            OpClass::PredOp,
            &[p0],
            &[Reg::gp(5)],
        )),
        Stmt::Instr(InstrTemplate::compute(OpClass::VecAlu, &[acc], &[])),
        Stmt::repeat(n, k_body),
        Stmt::Instr(InstrTemplate::store(
            OpClass::VecStore,
            &[acc, Reg::gp(3), p0],
            AddrExpr::bilinear(c, 0, (n * 8) as i64, 1, (lanes64 * 8) as i64),
            vb,
        )),
    ];
    Kernel::new(
        "gemm",
        vec![Stmt::repeat(n, vec![Stmt::repeat(panels, panel_body)])],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_isa::{OpSummary, Program};

    fn summarise(p: GemmParams, vl: u32) -> OpSummary {
        OpSummary::of(&Program::lower(&kernel(&p, vl)))
    }

    #[test]
    fn fma_dense() {
        let s = summarise(GemmParams::for_scale(WorkloadScale::Small), 512);
        // One FMA per (i, panel, k) — as many as the B loads.
        assert_eq!(s.count(OpClass::VecFma), s.count(OpClass::VecLoad));
        assert!(s.count(OpClass::VecFma) > s.count(OpClass::Store) + s.count(OpClass::VecStore));
    }

    #[test]
    fn heavily_vectorised() {
        for vl in [128, 512, 2048] {
            let s = summarise(GemmParams::for_scale(WorkloadScale::Small), vl);
            assert!(s.sve_fraction() > 0.4, "vl={vl}: {}", s.sve_fraction());
        }
    }

    #[test]
    fn longer_vectors_shrink_the_panel_count() {
        let p = GemmParams::for_scale(WorkloadScale::Standard);
        let short = summarise(p, 128).total();
        let long = summarise(p, 2048).total();
        assert!(long * 4 < short, "{long} vs {short}");
    }

    #[test]
    fn footprint_is_l1_scale() {
        let p = GemmParams::for_scale(WorkloadScale::Standard);
        assert!(p.footprint_bytes() < 64 * 1024, "{}", p.footprint_bytes());
    }

    #[test]
    fn work_scales_cubically() {
        let small = summarise(GemmParams { n: 8 }, 128).total();
        let big = summarise(GemmParams { n: 16 }, 128).total();
        // 8× the FMA work dominates the lower-order panel overhead.
        assert!(big > 6 * small && big < 10 * small, "{big} vs {small}");
    }
}
