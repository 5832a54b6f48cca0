//! TeaLeaf — 2-D linear heat conduction mini-app (SPEChpc 2021).
//!
//! Models the conjugate-gradient solver loop (the paper's configuration:
//! 2-D, CG solver). Each CG iteration performs
//!
//! 1. `w = A·p` — a 5-point stencil over the interior cells,
//! 2. `pw = p·w` — a dot product,
//! 3. `u += α p; r -= α w` — two AXPY-style updates,
//! 4. `rr = r·r` — a dot product,
//! 5. `p = r + β p` — the direction update.
//!
//! Per Fig. 1 of the paper, the compiler vectorises TeaLeaf poorly: the
//! stencil, dot products, and AXPY updates are generated *scalar* here,
//! and only the simple direction update (step 5) is SVE-vectorised —
//! yielding the small single-digit vectorisation percentage the paper
//! measures. The working set (six `nx × ny` double arrays) straddles the
//! L1 capacity range, which is why L1 latency and L1 clock dominate
//! TeaLeaf's feature importances.

use crate::layout::{stream_addr, Layout};
use crate::WorkloadScale;
use armdse_isa::kir::{AddrExpr, Kernel, Stmt};
use armdse_isa::{lanes, op::OpClass, InstrTemplate, Reg};

/// TeaLeaf input parameters (paper Table IV uses 32×32 cells, 5 end
/// steps; scaled here per the DESIGN.md substitution note).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeaLeafParams {
    /// Cells along X.
    pub nx: u64,
    /// Cells along Y.
    pub ny: u64,
    /// Total CG iterations simulated (across all timesteps).
    pub cg_iters: u64,
}

impl TeaLeafParams {
    /// Preset for a workload scale.
    pub fn for_scale(scale: WorkloadScale) -> TeaLeafParams {
        match scale {
            WorkloadScale::Tiny => TeaLeafParams {
                nx: 6,
                ny: 6,
                cg_iters: 1,
            },
            WorkloadScale::Small => TeaLeafParams {
                nx: 12,
                ny: 12,
                cg_iters: 3,
            },
            WorkloadScale::Standard => TeaLeafParams {
                nx: 20,
                ny: 20,
                cg_iters: 5,
            },
        }
    }

    /// Data footprint: six double-precision field arrays.
    #[cfg(test)]
    fn footprint_bytes(&self) -> u64 {
        6 * self.nx * self.ny * 8
    }
}

/// Generate the TeaLeaf kernel for a given vector length.
pub fn kernel(p: &TeaLeafParams, vl_bits: u32) -> Kernel {
    let row = p.nx * 8; // row stride in bytes
    let cells = p.nx * p.ny;

    let mut l = Layout::new();
    let u = l.alloc_array(cells, 8);
    let r = l.alloc_array(cells, 8);
    let pd = l.alloc_array(cells, 8); // direction p
    let w = l.alloc_array(cells, 8);
    let kx = l.alloc_array(cells, 8);
    let ky = l.alloc_array(cells, 8);

    // Loop depths inside one CG iteration (depth 0 = CG loop):
    // stencil: j at 1, i at 2; flat loops: at 1.
    let interior_j = p.ny - 2;
    let interior_i = p.nx - 2;

    let sload = |dst: u8, expr: AddrExpr| {
        Stmt::Instr(InstrTemplate::load(
            OpClass::Load,
            Reg::fp(dst),
            &[Reg::gp(1)],
            expr,
            8,
        ))
    };
    let sstore = |src: u8, expr: AddrExpr| {
        Stmt::Instr(InstrTemplate::store(
            OpClass::Store,
            &[Reg::fp(src), Reg::gp(2)],
            expr,
            8,
        ))
    };
    let fp = |op, d: u8, s: &[u8]| {
        let srcs: Vec<Reg> = s.iter().map(|&i| Reg::fp(i)).collect();
        Stmt::Instr(InstrTemplate::compute(op, &[Reg::fp(d)], &srcs))
    };

    // Interior cell address: base + (j+1)*row + (i+1)*8, j at depth 1,
    // i at depth 2.
    let cell = |base: u64, dj: i64, di: i64| {
        AddrExpr::bilinear(
            (base as i64 + (1 + dj) * row as i64 + (1 + di) * 8) as u64,
            1,
            row as i64,
            2,
            8,
        )
    };

    // 1. Stencil: w[j,i] = (kx-weighted neighbours) — 7 loads, 6 FP, 1 store.
    let stencil_cell = vec![
        sload(0, cell(pd, 0, 0)),
        sload(1, cell(pd, -1, 0)),
        sload(2, cell(pd, 1, 0)),
        sload(3, cell(pd, 0, -1)),
        sload(4, cell(pd, 0, 1)),
        sload(5, cell(kx, 0, 0)),
        sload(6, cell(ky, 0, 0)),
        fp(OpClass::FpMul, 7, &[0, 5]),
        fp(OpClass::FpFma, 7, &[1, 6, 7]),
        fp(OpClass::FpFma, 7, &[2, 6, 7]),
        fp(OpClass::FpFma, 7, &[3, 5, 7]),
        fp(OpClass::FpFma, 7, &[4, 5, 7]),
        fp(OpClass::FpAdd, 7, &[7, 0]),
        sstore(7, cell(w, 0, 0)),
    ];
    let stencil = Stmt::repeat(interior_j, vec![Stmt::repeat(interior_i, stencil_cell)]);

    // Flat per-cell address at depth 1.
    let flat = |base: u64| stream_addr(base, 1, 8);

    // 2. Dot product pw = p·w with two accumulators (compiler unroll).
    let dot_pw = Stmt::repeat(
        cells,
        vec![
            sload(0, flat(pd)),
            sload(1, flat(w)),
            fp(OpClass::FpFma, 8, &[0, 1, 8]),
        ],
    );

    // 3. AXPY updates u += αp, r -= αw (α in fp(9)).
    let update = Stmt::repeat(
        cells,
        vec![
            sload(0, flat(u)),
            sload(1, flat(pd)),
            fp(OpClass::FpFma, 2, &[9, 1, 0]),
            sstore(2, flat(u)),
            sload(3, flat(r)),
            sload(4, flat(w)),
            fp(OpClass::FpFma, 5, &[9, 4, 3]),
            sstore(5, flat(r)),
        ],
    );

    // 4. Dot product rr = r·r.
    let dot_rr = Stmt::repeat(
        cells,
        vec![sload(0, flat(r)), fp(OpClass::FpFma, 8, &[0, 0, 8])],
    );

    // 5. Direction update p = r + βp — the one loop the compiler manages
    // to vectorise (β in fp(9)).
    let lanes64 = lanes(vl_bits, 64);
    let vb = vl_bits / 8;
    let vstep = lanes64 * 8;
    let p0 = Reg::pred(0);
    let pupdate = Stmt::repeat(
        cells.div_ceil(lanes64),
        vec![
            Stmt::Instr(InstrTemplate::compute(
                OpClass::PredOp,
                &[p0],
                &[Reg::gp(5)],
            )),
            Stmt::Instr(InstrTemplate::load(
                OpClass::VecLoad,
                Reg::fp(20),
                &[Reg::gp(1), p0],
                stream_addr(r, 1, vstep),
                vb,
            )),
            Stmt::Instr(InstrTemplate::load(
                OpClass::VecLoad,
                Reg::fp(21),
                &[Reg::gp(2), p0],
                stream_addr(pd, 1, vstep),
                vb,
            )),
            Stmt::Instr(InstrTemplate::compute(
                OpClass::VecFma,
                &[Reg::fp(22)],
                &[Reg::fp(20), Reg::fp(21), p0],
            )),
            Stmt::Instr(InstrTemplate::store(
                OpClass::VecStore,
                &[Reg::fp(22), Reg::gp(2), p0],
                stream_addr(pd, 1, vstep),
                vb,
            )),
        ],
    );

    // Scalar α/β recomputation per CG iteration (divides: α = rr / pw).
    let scalars = vec![
        fp(OpClass::FpDiv, 9, &[8, 8]),
        fp(OpClass::FpDiv, 9, &[8, 9]),
    ];

    let mut cg_body = vec![stencil, dot_pw];
    cg_body.extend(scalars.clone());
    cg_body.extend([update, dot_rr, pupdate]);

    Kernel::new("tealeaf", vec![Stmt::repeat(p.cg_iters, cg_body)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_isa::{OpSummary, Program, TraceCursor};

    fn summarise(p: TeaLeafParams, vl: u32) -> OpSummary {
        OpSummary::of(&Program::lower(&kernel(&p, vl)))
    }

    #[test]
    fn poorly_vectorised() {
        let s = summarise(TeaLeafParams::for_scale(WorkloadScale::Standard), 128);
        let f = s.sve_fraction();
        assert!(f > 0.0 && f < 0.12, "sve fraction {f}");
    }

    #[test]
    fn vectorisation_shrinks_with_vl() {
        let p = TeaLeafParams::for_scale(WorkloadScale::Standard);
        let short = summarise(p, 128).sve_fraction();
        let long = summarise(p, 2048).sve_fraction();
        assert!(long < short, "{long} !< {short}");
    }

    #[test]
    fn memory_heavy_mix() {
        let s = summarise(TeaLeafParams::for_scale(WorkloadScale::Small), 128);
        let loads = s.count(OpClass::Load);
        let flops = s.count(OpClass::FpFma) + s.count(OpClass::FpAdd) + s.count(OpClass::FpMul);
        assert!(
            loads > flops,
            "loads {loads} flops {flops}: TeaLeaf is load heavy"
        );
    }

    #[test]
    fn stencil_touches_neighbours() {
        let p = TeaLeafParams {
            nx: 6,
            ny: 6,
            cg_iters: 1,
        };
        let prog = Program::lower(&kernel(&p, 128));
        // The stencil's north/south neighbour loads are one row apart.
        let addrs: Vec<u64> = TraceCursor::new(&prog)
            .filter_map(|d| d.mem.map(|m| m.addr))
            .take(5)
            .collect();
        let row = p.nx * 8;
        assert_eq!(addrs[1], addrs[0] - row);
        assert_eq!(addrs[2], addrs[0] + row);
        assert_eq!(addrs[3], addrs[0] - 8);
        assert_eq!(addrs[4], addrs[0] + 8);
    }

    #[test]
    fn work_scales_with_cg_iterations() {
        let one = summarise(
            TeaLeafParams {
                nx: 10,
                ny: 10,
                cg_iters: 1,
            },
            128,
        )
        .total();
        let four = summarise(
            TeaLeafParams {
                nx: 10,
                ny: 10,
                cg_iters: 4,
            },
            128,
        )
        .total();
        assert_eq!(four, 4 * one);
    }

    #[test]
    fn contains_fp_divides_for_alpha_beta() {
        let s = summarise(TeaLeafParams::for_scale(WorkloadScale::Small), 128);
        assert_eq!(s.count(OpClass::FpDiv), 2 * 3); // 2 per CG iter × 3 iters
    }

    #[test]
    fn footprint_straddles_l1_range() {
        let p = TeaLeafParams::for_scale(WorkloadScale::Standard);
        let kb = p.footprint_bytes() / 1024;
        assert!((4..128).contains(&kb), "footprint {kb} KiB");
    }
}
