//! miniBUDE — molecular docking mini-app (Poenaru et al.).
//!
//! The hot kernel evaluates the energy of `poses` ligand poses against a
//! protein, vectorised across poses in single precision (lanes = VL/32):
//! for each pose block, an inner loop over ligand atoms performs the
//! distance calculation, a reciprocal-square-root estimate plus Newton
//! refinement, the electrostatic and van-der-Waals terms, and two energy
//! accumulations — an FMA-dense, register/L1-resident, compute-bound loop,
//! which is why the paper finds vector length has "by far the largest
//! impact" on miniBUDE. Paper inputs (Table IV): bm1, 26 atoms, 64 poses,
//! 1 iteration.

use crate::layout::{stream_addr, Layout};
use crate::WorkloadScale;
use armdse_isa::kir::{AddrExpr, Kernel, Stmt};
use armdse_isa::{lanes, op::OpClass, InstrTemplate, Reg};

/// miniBUDE input parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BudeParams {
    /// Number of ligand poses (vectorised dimension).
    pub poses: u64,
    /// Ligand atoms per pose evaluation.
    pub atoms: u64,
    /// Outer kernel iterations.
    pub iterations: u64,
}

impl BudeParams {
    /// Preset for a workload scale. `Standard` keeps the paper's 26 atoms.
    pub(crate) fn for_scale(scale: WorkloadScale) -> BudeParams {
        match scale {
            WorkloadScale::Tiny => BudeParams {
                poses: 16,
                atoms: 4,
                iterations: 1,
            },
            WorkloadScale::Small => BudeParams {
                poses: 64,
                atoms: 8,
                iterations: 1,
            },
            WorkloadScale::Standard => BudeParams {
                poses: 128,
                atoms: 26,
                iterations: 2,
            },
        }
    }
}

/// Generate the miniBUDE kernel for a given vector length.
pub(crate) fn kernel(p: &BudeParams, vl_bits: u32) -> Kernel {
    let lanes32 = lanes(vl_bits, 32);
    let vb = vl_bits / 8;
    let blocks = p.poses.div_ceil(lanes32);

    let mut l = Layout::new();
    // Pose transform arrays (x, y, z per pose, fp32).
    let px = l.alloc_array(p.poses, 4);
    let py = l.alloc_array(p.poses, 4);
    let pz = l.alloc_array(p.poses, 4);
    // Per-pose energies (output).
    let energies = l.alloc_array(p.poses, 4);
    // Ligand atom records (32 bytes each: coords + force-field entry).
    let lig = l.alloc_array(p.atoms, 32);

    let p0 = Reg::pred(0);
    // depth 0 = iterations, 1 = pose block, 2 = atom.
    let (d_blk, d_atom) = (1usize, 2usize);
    let step = lanes32 * 4; // bytes per pose-block advance

    let c = |op, d: u8, s: &[u8]| {
        let srcs: Vec<Reg> = s.iter().map(|&i| Reg::fp(i)).collect();
        Stmt::Instr(InstrTemplate::compute(op, &[Reg::fp(d)], &srcs))
    };

    // Per-atom inner body: 2 scalar loads of the atom record, then the
    // distance/energy vector chain.
    let atom_body = vec![
        // Ligand atom coordinates + FF params (scalar, L1-resident).
        Stmt::Instr(InstrTemplate::load(
            OpClass::Load,
            Reg::fp(10),
            &[Reg::gp(4)],
            AddrExpr::linear(lig, d_atom, 32),
            16,
        )),
        Stmt::Instr(InstrTemplate::load(
            OpClass::Load,
            Reg::fp(11),
            &[Reg::gp(4)],
            AddrExpr::linear(lig + 16, d_atom, 32),
            16,
        )),
        // dx, dy, dz = pose - atom (z0..z2 hold the pose block coords).
        c(OpClass::VecFp, 12, &[0, 10]),
        c(OpClass::VecFp, 13, &[1, 10]),
        c(OpClass::VecFp, 14, &[2, 11]),
        // r2 = dx*dx + dy*dy + dz*dz
        c(OpClass::VecFp, 15, &[12, 12]),
        c(OpClass::VecFma, 15, &[13, 13, 15]),
        c(OpClass::VecFma, 15, &[14, 14, 15]),
        // rsqrt estimate + one Newton step (what the compiler emits for
        // sqrt-free distance handling).
        c(OpClass::VecAlu, 16, &[15]),
        c(OpClass::VecFp, 17, &[16, 16]),
        c(OpClass::VecFma, 16, &[17, 15, 16]),
        // Electrostatic and van-der-Waals terms.
        c(OpClass::VecFma, 18, &[16, 10, 11]),
        c(OpClass::VecFp, 19, &[16, 18]),
        c(OpClass::VecFma, 18, &[19, 19, 18]),
        // Two energy accumulators (compiler-unrolled reduction).
        c(OpClass::VecFma, 20, &[18, 16, 20]),
        c(OpClass::VecFma, 21, &[19, 17, 21]),
    ];

    // Per-block body: load the pose block, run the atom loop, combine the
    // accumulators and store the energies.
    let block_body = vec![
        Stmt::Instr(InstrTemplate::compute(
            OpClass::PredOp,
            &[p0],
            &[Reg::gp(5)],
        )),
        Stmt::Instr(InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(0),
            &[Reg::gp(1), p0],
            stream_addr(px, d_blk, step),
            vb,
        )),
        Stmt::Instr(InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(1),
            &[Reg::gp(2), p0],
            stream_addr(py, d_blk, step),
            vb,
        )),
        Stmt::Instr(InstrTemplate::load(
            OpClass::VecLoad,
            Reg::fp(2),
            &[Reg::gp(3), p0],
            stream_addr(pz, d_blk, step),
            vb,
        )),
        Stmt::repeat(p.atoms, atom_body),
        c(OpClass::VecFp, 22, &[20, 21]),
        Stmt::Instr(InstrTemplate::store(
            OpClass::VecStore,
            &[Reg::fp(22), Reg::gp(6), p0],
            stream_addr(energies, d_blk, step),
            vb,
        )),
    ];

    let body = vec![Stmt::repeat(
        p.iterations,
        vec![Stmt::repeat(blocks, block_body)],
    )];
    Kernel::new("minibude", body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_isa::{OpSummary, Program};

    fn summarise(p: BudeParams, vl: u32) -> OpSummary {
        OpSummary::of(&Program::lower(&kernel(&p, vl)))
    }

    #[test]
    fn heavily_vectorised() {
        let s = summarise(BudeParams::for_scale(WorkloadScale::Small), 128);
        assert!(s.sve_fraction() > 0.6, "sve fraction {}", s.sve_fraction());
    }

    #[test]
    fn fma_dominates_arithmetic() {
        let s = summarise(BudeParams::for_scale(WorkloadScale::Standard), 256);
        assert!(s.count(OpClass::VecFma) > s.count(OpClass::VecFp));
        assert!(s.count(OpClass::VecFma) > s.count(OpClass::Load));
    }

    #[test]
    fn instruction_count_scales_inversely_with_vl() {
        let p = BudeParams::for_scale(WorkloadScale::Standard);
        let short = summarise(p, 128).total();
        let long = summarise(p, 2048).total();
        // 16x lanes → roughly 16x fewer block iterations.
        assert!(short as f64 / long as f64 > 8.0, "{short} vs {long}");
    }

    #[test]
    fn atom_loop_drives_work() {
        let base = BudeParams {
            poses: 64,
            atoms: 8,
            iterations: 1,
        };
        let more = BudeParams {
            poses: 64,
            atoms: 16,
            iterations: 1,
        };
        let a = summarise(base, 512).total();
        let b = summarise(more, 512).total();
        assert!(b > a + a / 2, "doubling atoms should nearly double work");
    }

    #[test]
    fn working_set_is_l1_resident() {
        // Pose + energy + ligand data fits easily in the smallest L1.
        let p = BudeParams::for_scale(WorkloadScale::Standard);
        let bytes = 4 * p.poses * 4 + p.atoms * 32;
        assert!(bytes < 4 * 1024, "footprint {bytes}");
    }
}
