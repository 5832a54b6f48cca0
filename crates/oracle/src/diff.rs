//! Differential checking: reference interpreter vs the out-of-order core.
//!
//! [`check_kernel`] runs one kernel through three independent executions —
//! the in-order reference interpreter ([`crate::interp`]), a trace-cursor
//! replay of the lowered program, and the OoO pipeline's commit-order
//! retirement stream (any [`SimBackend`]'s traced run) — applies the
//! same [`ArchState`] value semantics to each, and requires every final
//! architectural state and retired-op count to agree. Two transparency
//! lanes re-run the simulation unobserved and with cycle accounting
//! enabled and require identical statistics, plus exact cycle
//! conservation across the attribution buckets. [`fuzz`] drives
//! the seeded random generator through this check for a whole campaign.
//!
//! With the `check-invariants` feature enabled, every simulated cycle also
//! runs the pipeline's structural invariant assertions, so a clean fuzz
//! campaign certifies zero invariant violations across all its programs.

use crate::arch::ArchState;
use crate::gen::{random_core_params, random_kernel, GenConfig};
use crate::interp::interpret;
use armdse_isa::{Kernel, OpSummary, Program, TraceCursor};
use armdse_memsim::{MemParams, DEFAULT_BANKS};
use armdse_rng::{SeedableRng, Xoshiro256pp};
use armdse_simcore::{CoreParams, MultiCore, RunMode, SimBackend};

/// Run one kernel through interpreter, cursor replay, and the OoO core
/// on the given simulation backend; return `Err` describing the first
/// divergence found.
pub(crate) fn check_kernel(
    kernel: &Kernel,
    core: &CoreParams,
    mem: &MemParams,
    backend: &dyn SimBackend,
) -> Result<(), String> {
    kernel.validate()?;
    let program = Program::lower(kernel);
    let reference = interpret(kernel);

    // Lowering cross-check: the cursor walk of the lowered program must
    // reproduce the interpreter's tree walk exactly.
    let mut cursor_state = ArchState::new();
    let mut cursor_summary = OpSummary::default();
    for di in TraceCursor::new(&program) {
        cursor_state.apply(&di);
        cursor_summary.record(
            di.op,
            di.mem.map_or(0, |m| u64::from(m.bytes)),
            di.mem.map(|m| m.kind),
        );
    }
    if let Some(d) = reference.state.diff(&cursor_state) {
        return Err(format!("interpreter vs lowered-trace divergence: {d}"));
    }
    if cursor_summary != reference.summary {
        return Err(format!(
            "interpreter vs lowered-trace op summary: {:?} != {:?}",
            reference.summary, cursor_summary
        ));
    }

    // Simulated run with commit-order trace.
    let (stats, trace) = backend
        .run(&program, core, mem, RunMode::Trace)
        .into_traced();
    if stats.hit_cycle_limit {
        return Err(format!(
            "simulation wedged: hit cycle limit at {} cycles",
            stats.cycles
        ));
    }
    if !stats.validated {
        return Err(format!(
            "simulation failed op-count validation: observed {:?} != expected {:?}",
            stats.observed, reference.summary
        ));
    }
    // Every core of a multicore machine retires the whole program; the
    // trace is core 0's.
    let cores = u64::from(backend.topology().cores);
    if stats.retired != reference.retired * cores {
        return Err(format!(
            "retired count mismatch: {cores} core(s) {} != reference {}",
            stats.retired, reference.retired
        ));
    }
    if trace.len() as u64 * cores != stats.retired {
        return Err(format!(
            "commit log length {} != retired count {} on {cores} core(s)",
            trace.len(),
            stats.retired
        ));
    }

    // Architectural replay of the core's commit stream.
    let mut commit_state = ArchState::new();
    let mut commit_summary = OpSummary::default();
    for di in &trace {
        commit_state.apply(di);
        commit_summary.record(
            di.op,
            di.mem.map_or(0, |m| u64::from(m.bytes)),
            di.mem.map(|m| m.kind),
        );
    }
    if let Some(d) = reference.state.diff(&commit_state) {
        return Err(format!("interpreter vs core commit-stream divergence: {d}"));
    }
    if commit_summary != reference.summary {
        return Err(format!(
            "commit-stream op summary {:?} != reference {:?}",
            commit_summary, reference.summary
        ));
    }

    // Transparency lanes: observing the same job — recording the trace
    // above, or enabling cycle accounting — must not perturb any
    // statistic (architectural or timing) of the unobserved run, and
    // the attribution must account for every cycle.
    let plain = backend.run(&program, core, mem, RunMode::Plain).stats;
    if plain != stats {
        return Err(format!(
            "traced run perturbed the simulation: {stats:?} != {plain:?}"
        ));
    }
    let metrics = backend.run(&program, core, mem, RunMode::Metrics);
    if metrics.stats != stats {
        return Err(format!(
            "metrics run perturbed the simulation: {:?} != {stats:?}",
            metrics.stats
        ));
    }
    // The merged counters of a multicore machine attribute every
    // core-cycle; a single core's are the run's.
    let core_cycles = match metrics.per_core.as_slice() {
        [] => stats.cycles,
        per_core => per_core.iter().map(|c| c.stats.cycles).sum(),
    };
    let counters = metrics.counters.expect("metrics run returns counters");
    if counters.cycles != core_cycles {
        return Err(format!(
            "counter cycle total {} != simulated core-cycles {core_cycles}",
            counters.cycles
        ));
    }
    if !counters.conserves() {
        return Err(format!(
            "cycle attribution leak: {} cycles but {} attributed",
            counters.cycles,
            counters.attributed_cycles()
        ));
    }
    Ok(())
}

/// Configuration of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of random programs to run.
    pub programs: usize,
    /// Campaign seed; one seed fixes every kernel, design point, and
    /// backend choice in the campaign.
    pub seed: u64,
    /// Kernel shape limits.
    pub(crate) gen: GenConfig,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            programs: 200,
            seed: 0xA5C3_2024,
            gen: GenConfig::default(),
        }
    }
}

/// One divergent program from a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the program within the campaign (re-derivable from the
    /// campaign seed).
    pub index: usize,
    /// Kernel name.
    pub kernel: String,
    /// Name of the backend the program ran on (see [`SimBackend::name`]).
    pub backend: &'static str,
    /// Divergence description from `check_kernel`.
    pub error: String,
}

/// Outcome of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Programs executed.
    pub programs: usize,
    /// Divergences found (empty on a clean campaign).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Whether the campaign found no divergence.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run a differential fuzz campaign: every program is generated, checked
/// against the reference interpreter, and simulated on a random design
/// point. Every fourth program runs on the hardware proxy (the one-core
/// finite-banked [`MultiCore`]); memory parameters are the fixed
/// ThunderX2-like baseline.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    fuzz_campaign(cfg, None)
}

/// Like [`fuzz`], but every program runs on the one supplied backend
/// instead of the default idealized/proxy alternation. The reuse lane
/// pushes the run-memoizing backend through the same fixed-seed
/// campaign this way: `check_kernel` cross-checks the backend's
/// cached modes (plain, metrics) against its uncached trace mode and
/// the reference interpreter, so any memoization unsoundness surfaces
/// as a divergence.
pub fn fuzz_with(cfg: &FuzzConfig, backend: &dyn SimBackend) -> FuzzReport {
    fuzz_campaign(cfg, Some(backend))
}

/// The shared campaign loop: program generation and design-point
/// sampling are identical whichever backend selection is in force, so
/// `fuzz` and `fuzz_with` exercise the same program population.
fn fuzz_campaign(cfg: &FuzzConfig, fixed: Option<&dyn SimBackend>) -> FuzzReport {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let mem = MemParams::thunderx2();
    let proxy = MultiCore::new(1, DEFAULT_BANKS);
    let mut failures = Vec::new();
    for i in 0..cfg.programs {
        let kernel = random_kernel(&mut rng, &cfg.gen, format!("fuzz-{:#x}-{i}", cfg.seed));
        let core = random_core_params(&mut rng);
        let backend: &dyn SimBackend = match fixed {
            Some(b) => b,
            None if i % 4 == 3 => &proxy,
            None => &MultiCore::IDEALIZED,
        };
        if let Err(error) = check_kernel(&kernel, &core, &mem, backend) {
            failures.push(FuzzFailure {
                index: i,
                kernel: kernel.name.clone(),
                backend: backend.name(),
                error,
            });
        }
    }
    FuzzReport {
        programs: cfg.programs,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_kernels::{minisweep, stream, tealeaf, WorkloadScale};

    fn baseline() -> (CoreParams, MemParams) {
        (CoreParams::thunderx2(), MemParams::thunderx2())
    }

    #[test]
    fn hpc_kernels_pass_on_both_backends() {
        let (core, mem) = baseline();
        let kernels = [
            stream::kernel(&stream::StreamParams::for_scale(WorkloadScale::Tiny), 128),
            tealeaf::kernel(&tealeaf::TeaLeafParams::for_scale(WorkloadScale::Tiny), 128),
            minisweep::kernel(&minisweep::SweepParams::for_scale(WorkloadScale::Tiny), 128),
        ];
        for k in &kernels {
            check_kernel(k, &core, &mem, &MultiCore::IDEALIZED).unwrap();
            check_kernel(k, &core, &mem, &MultiCore::new(1, DEFAULT_BANKS)).unwrap();
        }
    }

    #[test]
    fn invalid_kernel_is_rejected_not_simulated() {
        use armdse_isa::instr::InstrTemplate;
        use armdse_isa::{OpClass, Reg, Stmt};
        let (core, mem) = baseline();
        let bad = Kernel::new(
            "bad",
            vec![Stmt::Instr(InstrTemplate::compute(
                OpClass::IntAlu,
                &[Reg::gp(24)], // reserved induction register
                &[],
            ))],
        );
        assert!(check_kernel(&bad, &core, &mem, &MultiCore::IDEALIZED).is_err());
    }

    #[test]
    fn short_fuzz_campaign_is_clean_and_deterministic() {
        let cfg = FuzzConfig {
            programs: 40,
            ..FuzzConfig::default()
        };
        let a = fuzz(&cfg);
        assert!(a.ok(), "fuzz failures: {:#?}", a.failures);
        assert_eq!(a.programs, 40);
        let b = fuzz(&cfg);
        assert!(b.ok());
    }

    #[test]
    fn different_seeds_explore_different_programs() {
        // Indirect but cheap determinism check: two seeds must generate
        // different first kernels.
        let mut r1 = Xoshiro256pp::seed_from_u64(1);
        let mut r2 = Xoshiro256pp::seed_from_u64(2);
        let g = GenConfig::default();
        let k1 = random_kernel(&mut r1, &g, "a");
        let k2 = random_kernel(&mut r2, &g, "b");
        let p1 = Program::lower(&k1);
        let p2 = Program::lower(&k2);
        assert!(p1.ops != p2.ops || p1.loops != p2.loops);
    }
}
