//! Property-style tests over the core invariants.
//!
//! Formerly `proptest`-based; rewritten as deterministic seeded sweeps
//! on `armdse-rng` so the whole workspace tests offline with zero
//! external dependencies. Each test draws its inputs from a fixed
//! xoshiro256++ stream, so every run checks the identical case set —
//! failures are reproducible by seed, and there is no shrinking phase
//! to depend on.

use armdse::core::space::ParamSpace;
use armdse::core::DesignConfig;
use armdse::isa::instr::InstrTemplate;
use armdse::isa::kir::{AddrExpr, Kernel, Stmt};
use armdse::isa::op::OpClass;
use armdse::isa::{OpSummary, Program, Reg, TraceCursor};
use armdse::memsim::{split_lines, Backside, Cache, Hierarchy, MemParams};
use armdse::mltree::{DecisionTreeRegressor, Matrix, Regressor};
use armdse::rng::{Rng, SeedableRng, Xoshiro256pp};

/// Deterministic input stream for one property; sweeps `cases` draws.
fn sweep(seed: u64, cases: usize, mut body: impl FnMut(&mut Xoshiro256pp)) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for _ in 0..cases {
        body(&mut rng);
    }
}

/// Every seed produces a valid design point (constraint satisfaction).
#[test]
fn sampler_always_valid() {
    let space = ParamSpace::paper();
    sweep(0xA11D, 256, |rng| {
        let seed = rng.gen_range(0..100_000u64);
        let cfg = space.sample_seeded(seed);
        cfg.validate()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    });
}

/// Feature flattening round-trips for any sampled config.
#[test]
fn feature_vector_roundtrip() {
    let space = ParamSpace::paper();
    sweep(0xF17, 256, |rng| {
        let seed = rng.gen_range(0..100_000u64);
        let cfg = space.sample_seeded(seed);
        let back = DesignConfig::from_features(&cfg.to_features());
        assert_eq!(cfg, back, "seed {seed}");
    });
}

/// Line splitting conserves coverage: the union of the returned lines
/// covers [addr, addr+bytes) and every line is aligned and in range.
#[test]
fn split_lines_covers_access() {
    sweep(0x5117, 512, |rng| {
        let addr = rng.gen_range(0..1_000_000u64);
        let bytes = rng.gen_range(1..4096u32);
        let line = 1u32 << rng.gen_range(4..9u32); // 16..256
        let lines: Vec<u64> = split_lines(addr, bytes, line).collect();
        assert!(!lines.is_empty());
        // Aligned, consecutive, covering.
        for w in lines.windows(2) {
            assert_eq!(w[1] - w[0], u64::from(line));
        }
        assert_eq!(lines[0] % u64::from(line), 0);
        assert!(lines[0] <= addr);
        let end = lines.last().unwrap() + u64::from(line);
        assert!(end >= addr + u64::from(bytes));
        // Minimal: removing either end line would uncover bytes.
        assert!(lines[0] + u64::from(line) > addr);
        assert!(*lines.last().unwrap() < addr + u64::from(bytes));
    });
}

/// LRU cache: after accessing any sequence, a probe of the most
/// recently accessed line always hits, and valid lines never exceed
/// capacity.
#[test]
fn cache_lru_properties() {
    sweep(0xCAC4E, 64, |rng| {
        let mut c = Cache::new(4, 2, 64); // 4 KiB, 2-way
        let n = rng.gen_range(1..200usize);
        for _ in 0..n {
            let a = rng.gen_range(0..1u64 << 20);
            let line = a & !63;
            c.access(line, false);
            assert!(c.probe(line), "just-accessed line must be resident");
            assert!(c.valid_lines() <= c.capacity_lines());
        }
    });
}

/// Memory model timing is causal and monotone: completions never
/// precede issue, and a second access to the same line at a later
/// time never completes earlier than the data's availability.
#[test]
fn hierarchy_completions_causal() {
    sweep(0x4E1, 64, |rng| {
        let mut h = Hierarchy::new(Backside::shared(MemParams::thunderx2(), 0), 0);
        let n = rng.gen_range(1..100usize);
        for now in 0..n as u64 {
            let a = rng.gen_range(0..1u64 << 18);
            let line = a & !63;
            let done = h.access(line, false, now);
            assert!(done > now, "completion {done} must follow issue {now}");
        }
    });
}

/// Tree predictions always lie within the hull of training targets.
#[test]
fn tree_prediction_hull() {
    sweep(0x7EE, 128, |rng| {
        let n = rng.gen_range(2..60usize);
        let ys: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 1e6).collect();
        let q = rng.gen_f64() * 200.0 - 100.0;
        let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let t = DecisionTreeRegressor::fit(&x, &ys);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let p = t.predict_one(&[q]);
        assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    });
}

/// The trace cursor retires exactly the analytic dynamic length for
/// arbitrary (small) loop nests.
#[test]
fn cursor_length_matches_analytic() {
    sweep(0xC5, 128, |rng| {
        let t1 = rng.gen_range(1..6u64);
        let t2 = rng.gen_range(1..6u64);
        let t3 = rng.gen_range(1..6u64);
        let tail = rng.gen_range(0..4usize);
        let body3 = vec![Stmt::Instr(InstrTemplate::compute(
            OpClass::FpAdd,
            &[Reg::fp(0)],
            &[Reg::fp(1)],
        ))];
        let mut body2 = vec![Stmt::repeat(t3, body3)];
        for _ in 0..tail {
            body2.push(Stmt::Instr(InstrTemplate::load(
                OpClass::Load,
                Reg::gp(2),
                &[Reg::gp(3)],
                AddrExpr::linear(0x1000, 1, 8),
                8,
            )));
        }
        let k = Kernel::new("p", vec![Stmt::repeat(t1, vec![Stmt::repeat(t2, body2)])]);
        let p = Program::lower(&k);
        let traced = TraceCursor::new(&p).count() as u64;
        assert_eq!(traced, p.dynamic_len());
        // And the analytic summary matches the traced one.
        let mut observed = OpSummary::default();
        for d in TraceCursor::new(&p) {
            observed.record(
                d.op,
                d.mem.map_or(0, |m| u64::from(m.bytes)),
                d.mem.map(|m| m.kind),
            );
        }
        assert_eq!(observed, OpSummary::of(&p));
    });
}

/// Simulation conserves instructions for arbitrary sampled configs:
/// retired == analytic count, and the run validates.
#[test]
fn simulation_conserves_instructions() {
    let space = ParamSpace::paper();
    sweep(0x51A1, 48, |rng| {
        let seed = rng.gen_range(0..400u64);
        let cfg = space.sample_seeded(seed);
        let w = armdse::kernels::build_workload(
            armdse::kernels::App::TeaLeaf,
            armdse::kernels::WorkloadScale::Tiny,
            cfg.core.vector_length,
        );
        let s = armdse::simcore::simulate(&w.program, &cfg.core, &cfg.mem);
        assert!(s.validated, "seed {seed} failed validation: {s:?}");
        assert_eq!(s.retired, w.summary.total());
    });
}
