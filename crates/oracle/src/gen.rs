//! Seeded random kernel and core-parameter generation for differential
//! fuzzing.
//!
//! [`random_kernel`] emits structurally valid [`Kernel`]s mixing scalar and
//! SVE compute, contiguous and gather/scatter memory accesses, explicit
//! branches, and counted loop nests (including the occasional zero-trip
//! loop, which lowering must drop). Memory templates draw their base
//! addresses from a small shared pool so independent templates alias the
//! same cache lines — the interesting case for store-to-load forwarding and
//! memory-ordering bugs.
//!
//! [`random_core_params`] draws a design point from the paper's Table II
//! ranges, constrained so [`CoreParams::validate`] always accepts it and so
//! every generated access (≤ 64 bytes) fits within one cycle's load/store
//! bandwidth.

use armdse_isa::instr::InstrTemplate;
use armdse_isa::kir::{AddrExpr, Kernel, Stmt};
use armdse_isa::op::OpClass;
use armdse_isa::reg::Reg;
use armdse_rng::Rng;
use armdse_simcore::CoreParams;

/// Shape limits for generated kernels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GenConfig {
    /// Maximum loop-nest depth (≤ `MAX_LOOP_DEPTH`).
    pub max_depth: usize,
    /// Maximum statements per block (shrinks with depth).
    pub max_body: usize,
    /// Maximum loop trip count.
    pub max_trip: u64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_depth: 3,
            max_body: 6,
            max_trip: 5,
        }
    }
}

/// Base addresses shared by all generated memory templates. A handful of
/// nearby bases (same and adjacent cache lines) maximises aliasing between
/// independently generated loads and stores.
const ADDR_POOL: [u64; 4] = [0x4_0000, 0x4_0008, 0x4_0040, 0x4_1000];

/// Per-depth stride menu (bytes). Negative strides walk arrays backwards;
/// the pool bases sit far enough above zero that no reachable address can
/// go negative within the generator's trip/depth bounds.
const STRIDES: [i64; 8] = [-64, -16, -8, 0, 8, 16, 64, 256];

/// Contiguous access sizes (bytes). Capped at 64 so every access fits the
/// generated cores' minimum load/store bandwidth.
const SCALAR_BYTES: [u32; 2] = [4, 8];
const VECTOR_BYTES: [u32; 3] = [16, 32, 64];

fn pick<T: Copy, R: Rng>(rng: &mut R, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// Kernel-usable GP registers: x24..x29 are reserved for lowering-inserted
/// induction variables (see `armdse_isa::program::induction_reg`).
fn gp<R: Rng>(rng: &mut R) -> Reg {
    const POOL: [u8; 26] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 30,
        31,
    ];
    Reg::gp(pick(rng, &POOL))
}

fn fp<R: Rng>(rng: &mut R) -> Reg {
    Reg::fp(rng.gen_range(0..32u32) as u8)
}

fn pred<R: Rng>(rng: &mut R) -> Reg {
    Reg::pred(rng.gen_range(0..17u32) as u8)
}

/// Random affine address over the enclosing `depth` loop indices.
fn gen_addr<R: Rng>(rng: &mut R, depth: usize) -> AddrExpr {
    let base = pick(rng, &ADDR_POOL) + 8 * rng.gen_range(0..8u64);
    let mut e = AddrExpr::fixed(base);
    for d in 0..depth {
        if rng.gen_bool(0.5) {
            e.strides[d] = pick(rng, &STRIDES);
        }
    }
    e
}

fn srcs<R: Rng>(rng: &mut R, n: usize, reg: fn(&mut R) -> Reg) -> Vec<Reg> {
    (0..n).map(|_| reg(rng)).collect()
}

/// One random instruction template valid at nest depth `depth`.
fn gen_instr<R: Rng>(rng: &mut R, depth: usize) -> InstrTemplate {
    match rng.gen_range(0..100u32) {
        // -- memory --
        0..=14 => InstrTemplate::load(
            OpClass::Load,
            gp(rng),
            &[gp(rng)],
            gen_addr(rng, depth),
            pick(rng, &SCALAR_BYTES),
        ),
        15..=29 => InstrTemplate::store(
            OpClass::Store,
            &[gp(rng), gp(rng)],
            gen_addr(rng, depth),
            pick(rng, &SCALAR_BYTES),
        ),
        30..=37 => InstrTemplate::load(
            OpClass::VecLoad,
            fp(rng),
            &[gp(rng)],
            gen_addr(rng, depth),
            pick(rng, &VECTOR_BYTES),
        ),
        38..=45 => InstrTemplate::store(
            OpClass::VecStore,
            &[fp(rng), gp(rng)],
            gen_addr(rng, depth),
            pick(rng, &VECTOR_BYTES),
        ),
        46..=49 => {
            let count = rng.gen_range(2..=8u32);
            InstrTemplate::gather(
                fp(rng),
                &[gp(rng), fp(rng)],
                gen_addr(rng, depth),
                pick(rng, &[4u32, 8]),
                pick(rng, &[-64i64, -16, 8, 16, 64]),
                count,
            )
        }
        50..=53 => {
            let count = rng.gen_range(2..=8u32);
            InstrTemplate::scatter(
                &[fp(rng), gp(rng), fp(rng)],
                gen_addr(rng, depth),
                pick(rng, &[4u32, 8]),
                pick(rng, &[-64i64, -16, 8, 16, 64]),
                count,
            )
        }
        // -- scalar integer --
        54..=63 => {
            // Sometimes flag-setting (adds/subs): second dest NZCV, the
            // pattern explicit branches later consume.
            let dests = if rng.gen_bool(0.3) {
                vec![gp(rng), Reg::nzcv()]
            } else {
                vec![gp(rng)]
            };
            let n = rng.gen_range(0..=2);
            InstrTemplate::compute(OpClass::IntAlu, &dests, &srcs(rng, n, gp))
        }
        64..=67 => InstrTemplate::compute(OpClass::IntMul, &[gp(rng)], &srcs(rng, 2, gp)),
        68..=69 => InstrTemplate::compute(OpClass::IntDiv, &[gp(rng)], &srcs(rng, 2, gp)),
        // -- scalar FP --
        70..=75 => {
            let (op, n) = (
                pick(rng, &[OpClass::FpAdd, OpClass::FpMul, OpClass::FpFma]),
                rng.gen_range(1..=3),
            );
            InstrTemplate::compute(op, &[fp(rng)], &srcs(rng, n, fp))
        }
        76..=77 => InstrTemplate::compute(OpClass::FpDiv, &[fp(rng)], &srcs(rng, 2, fp)),
        // -- SVE vector --
        78..=85 => {
            let (op, n) = (
                pick(rng, &[OpClass::VecAlu, OpClass::VecFp, OpClass::VecFma]),
                rng.gen_range(1..=3),
            );
            InstrTemplate::compute(op, &[fp(rng)], &srcs(rng, n, fp))
        }
        86..=87 => InstrTemplate::compute(OpClass::VecDiv, &[fp(rng)], &srcs(rng, 2, fp)),
        // -- predicate --
        88..=92 => {
            let n = rng.gen_range(1..=2);
            InstrTemplate::compute(OpClass::PredOp, &[pred(rng)], &srcs(rng, n, pred))
        }
        // -- explicit (fall-through) branch on the flags --
        _ => InstrTemplate::branch(&[Reg::nzcv()]),
    }
}

/// Generate a statement block at `depth`. At most two loops per block and
/// bodies that shrink with depth keep the dynamic length bounded (worst
/// case under the default config is a few thousand retired instructions).
fn gen_block<R: Rng>(rng: &mut R, cfg: &GenConfig, depth: usize) -> Vec<Stmt> {
    let n = rng.gen_range(1..=cfg.max_body.saturating_sub(depth).max(1));
    let mut loops = 0;
    (0..n)
        .map(|_| {
            if depth < cfg.max_depth && loops < 2 && rng.gen_bool(0.35) {
                loops += 1;
                // Occasional zero-trip loop: lowering must drop it.
                let trip = if rng.gen_bool(0.06) {
                    0
                } else {
                    rng.gen_range(1..=cfg.max_trip)
                };
                Stmt::repeat(trip, gen_block(rng, cfg, depth + 1))
            } else {
                Stmt::Instr(gen_instr(rng, depth))
            }
        })
        .collect()
}

/// Generate one random, validated kernel.
pub(crate) fn random_kernel<R: Rng>(
    rng: &mut R,
    cfg: &GenConfig,
    name: impl Into<String>,
) -> Kernel {
    let k = Kernel::new(name, gen_block(rng, cfg, 0));
    debug_assert_eq!(k.validate(), Ok(()), "generator produced an invalid kernel");
    k
}

/// Draw a random design point from the paper's Table II ranges, guaranteed
/// to pass [`CoreParams::validate`]. Load/store bandwidths are at least
/// `max(64, VL/8)` bytes per cycle so every generated access is issueable.
pub(crate) fn random_core_params<R: Rng>(rng: &mut R) -> CoreParams {
    let vector_length = pick(rng, &[128u32, 256, 512]);
    let bw_floor = 64u32.max(vector_length / 8);
    let p = CoreParams {
        vector_length,
        fetch_block_bytes: 1 << rng.gen_range(2..=7u32),
        loop_buffer_size: rng.gen_range(1..=64u32),
        gp_regs: 40 + 8 * rng.gen_range(0..=20u32),
        fp_regs: 40 + 8 * rng.gen_range(0..=20u32),
        pred_regs: 24 + 8 * rng.gen_range(0..=10u32),
        cond_regs: 8 + 8 * rng.gen_range(0..=6u32),
        commit_width: rng.gen_range(1..=8u32),
        frontend_width: rng.gen_range(1..=8u32),
        lsq_completion_width: rng.gen_range(1..=4u32),
        rob_size: 8 + 4 * rng.gen_range(0..=60u32),
        load_queue: 4 + 4 * rng.gen_range(0..=30u32),
        store_queue: 4 + 4 * rng.gen_range(0..=30u32),
        load_bandwidth: bw_floor << rng.gen_range(0..=2u32),
        store_bandwidth: bw_floor << rng.gen_range(0..=2u32),
        mem_requests_per_cycle: rng.gen_range(1..=8u32),
        loads_per_cycle: rng.gen_range(1..=8u32),
        stores_per_cycle: rng.gen_range(1..=8u32),
    };
    debug_assert_eq!(
        p.validate(),
        Ok(()),
        "generator produced invalid core params"
    );
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_isa::Program;
    use armdse_rng::{SeedableRng, Xoshiro256pp};

    #[test]
    fn generated_kernels_always_validate() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let cfg = GenConfig::default();
        for i in 0..300 {
            let k = random_kernel(&mut rng, &cfg, format!("fuzz-{i}"));
            k.validate().unwrap_or_else(|e| panic!("kernel {i}: {e}"));
        }
    }

    #[test]
    fn generated_core_params_always_validate() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for i in 0..300 {
            let p = random_core_params(&mut rng);
            p.validate().unwrap_or_else(|e| panic!("params {i}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GenConfig::default();
        let gen_all = |seed: u64| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            (0..20)
                .map(|i| {
                    let k = random_kernel(&mut rng, &cfg, format!("k{i}"));
                    Program::lower(&k)
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = (gen_all(42), gen_all(42));
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.ops, pb.ops);
            assert_eq!(pa.loops, pb.loops);
        }
        // ... and a different seed actually changes the stream.
        let c = gen_all(43);
        assert!(a.iter().zip(&c).any(|(pa, pc)| pa.ops != pc.ops));
    }

    #[test]
    fn dynamic_length_stays_bounded() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let cfg = GenConfig::default();
        for i in 0..200 {
            let k = random_kernel(&mut rng, &cfg, format!("b{i}"));
            let p = Program::lower(&k);
            assert!(
                p.dynamic_len() <= 20_000,
                "kernel {i} dynamic length {} too large",
                p.dynamic_len()
            );
        }
    }

    /// `dynamic_len` and `OpSummary::of` share one allocation-free walk;
    /// both must still equal the per-op multiplicity formula they
    /// replaced, on every workload build and on generated programs.
    #[test]
    fn dynamic_len_is_the_summary_total_and_the_multiplicity_sum() {
        use armdse_isa::OpSummary;
        use armdse_kernels::{build_workload, App, WorkloadScale};
        let multiplicity_sum = |p: &Program| {
            let mut mult = vec![1u64; p.ops.len()];
            for lm in &p.loops {
                for m in &mut mult[lm.header as usize..=lm.branch as usize] {
                    *m *= lm.trip;
                }
            }
            mult.iter().sum::<u64>()
        };
        let check = |p: &Program| {
            let want = multiplicity_sum(p);
            assert_eq!(p.dynamic_len(), want, "{}", p.name);
            assert_eq!(OpSummary::of(p).total(), want, "{}", p.name);
        };
        for app in App::EXTENDED {
            for scale in [
                WorkloadScale::Tiny,
                WorkloadScale::Small,
                WorkloadScale::Standard,
            ] {
                for vl in [128, 256, 512, 1024, 2048] {
                    check(&build_workload(app, scale, vl).program);
                }
            }
        }
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for i in 0..200 {
            check(&Program::lower(&random_kernel(
                &mut rng,
                &GenConfig::default(),
                format!("d{i}"),
            )));
        }
    }

    #[test]
    fn generator_covers_the_interesting_op_classes() {
        use armdse_isa::OpSummary;
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let cfg = GenConfig::default();
        let mut total = OpSummary::default();
        for i in 0..200 {
            let p = Program::lower(&random_kernel(&mut rng, &cfg, format!("c{i}")));
            let s = OpSummary::of(&p);
            for (acc, v) in total.per_class.iter_mut().zip(&s.per_class) {
                *acc += v;
            }
        }
        for c in [
            OpClass::Load,
            OpClass::Store,
            OpClass::VecLoad,
            OpClass::VecStore,
            OpClass::VecGather,
            OpClass::VecScatter,
            OpClass::IntAlu,
            OpClass::VecFma,
            OpClass::PredOp,
            OpClass::Branch,
        ] {
            assert!(
                total.per_class[c.index()] > 0,
                "no {c:?} generated in 200 kernels"
            );
        }
    }
}
