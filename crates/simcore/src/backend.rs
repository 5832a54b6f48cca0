//! Pluggable simulation backends.
//!
//! The backend choice is a *value*, so orchestration code (the
//! `armdse-core` engine, the analysis harnesses, the oracle's
//! differential checker) is written once against [`SimBackend`] and
//! handed whichever executor a campaign needs. This is the
//! ArchGym-style standardized interface between the explorer and
//! interchangeable simulators: one call, [`SimBackend::run`], whose
//! [`RunMode`] selects what is observed alongside the statistics.
//!
//! Provided backends:
//!
//! * [`MultiCore`] — the one machine: N cores over one shared L2 +
//!   DRAM. [`MultiCore::IDEALIZED`] (one core, infinite banks, the
//!   next-line prefetcher) is the paper's simulation path;
//!   `MultiCore::new(1, DEFAULT_BANKS)` is the "hardware proxy"
//!   standing in for the physical ThunderX2 of Table I.
//! * [`crate::Memoized`] — the exact run-memoizing wrapper.
//!
//! The machine builds each core's pipeline with `Pipeline::new` and
//! collects it with `finish`; the latter owns the only copy of the
//! validation epilogue.

use crate::counters::Counters;
use crate::multicore::{MultiCore, PerCoreMetrics};
use crate::params::CoreParams;
use crate::pipeline::Pipeline;
use crate::reuse::ReuseStats;
use crate::stats::SimStats;
use armdse_isa::instr::DynInstr;
use armdse_isa::{OpSummary, Program};
use armdse_memsim::MemParams;

/// What a run observes besides its [`SimStats`]. Observation never
/// perturbs the simulation: the statistics of a [`RunMode::Trace`] or
/// [`RunMode::Metrics`] run are identical to the [`RunMode::Plain`]
/// run's (the oracle's differential lanes check this on every backend).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RunMode {
    /// Statistics only — the zero-cost default.
    #[default]
    Plain,
    /// Also record the commit-order retirement stream (on a multicore
    /// machine: core 0's — every core runs the same program).
    Trace,
    /// Also attribute every cycle to a [`Counters`] bucket; machines
    /// with more than one core additionally report each core's share.
    Metrics,
}

/// The result of [`SimBackend::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The run statistics (machine-level on a multicore backend).
    pub stats: SimStats,
    /// The commit-order retirement stream; `Some` iff [`RunMode::Trace`].
    pub trace: Option<Vec<DynInstr>>,
    /// The cycle-attribution counters; `Some` iff [`RunMode::Metrics`].
    /// They satisfy [`Counters::conserves`].
    pub counters: Option<Counters>,
    /// One entry per core under [`RunMode::Metrics`] on machines with
    /// more than one core; empty otherwise (the aggregate *is* the
    /// single-core machine).
    pub per_core: Vec<PerCoreMetrics>,
}

impl RunOutput {
    /// Statistics and trace of a [`RunMode::Trace`] run.
    pub fn into_traced(self) -> (SimStats, Vec<DynInstr>) {
        (self.stats, self.trace.expect("not a RunMode::Trace run"))
    }

    /// Statistics and counters of a [`RunMode::Metrics`] run.
    pub fn into_metrics(self) -> (SimStats, Counters) {
        let counters = self.counters.expect("not a RunMode::Metrics run");
        (self.stats, counters)
    }
}

/// A simulation executor: how a lowered program is run against one
/// `(core, mem)` design point.
///
/// Backends are cheap values (`Send + Sync`) so one instance can be
/// shared by every worker thread of a campaign. All backends model the
/// *same* architectural machine — only timing may differ — which is
/// what the differential oracle and the proxy-agreement tests pin down.
pub trait SimBackend: Send + Sync {
    /// Stable backend name for reports, labels, and failure records.
    fn name(&self) -> &'static str;

    /// Simulate, observing what `mode` asks for.
    fn run(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
        mode: RunMode,
    ) -> RunOutput;

    /// Run-memo counters, for backends that reuse computation across
    /// runs ([`crate::reuse::Memoized`]). `None` for backends with no
    /// reuse state (the default).
    fn reuse_stats(&self) -> Option<ReuseStats> {
        None
    }

    /// Drop any memoized run results so the next run starts cold.
    /// No-op for backends without reuse state (the default).
    fn clear_reuse_cache(&self) {}

    /// The machine shape this backend simulates, so orchestration code
    /// can label rows and checkpoints without downcasting.
    fn topology(&self) -> MultiCore;
}

/// Collect a pipeline that finished or hit the cycle limit. A run
/// validates iff it finished within the limit and retired exactly the
/// statically expected operation mix, `expected` (the program's
/// [`OpSummary::of`]).
pub(crate) fn finish(mut pipeline: Pipeline<'_>, expected: &OpSummary) -> RunOutput {
    let mut stats = pipeline.stats().clone();
    stats.validated = !stats.hit_cycle_limit && stats.observed == *expected;
    RunOutput {
        stats,
        trace: pipeline.take_trace(),
        counters: pipeline.take_counters_finalized().map(|c| *c),
        per_core: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_kernels::{build_workload, App, WorkloadScale};
    use armdse_memsim::DEFAULT_BANKS;

    const PROXY: MultiCore = MultiCore {
        cores: 1,
        banks: DEFAULT_BANKS,
    };

    fn fixture() -> (Program, CoreParams, MemParams) {
        let core = CoreParams::thunderx2();
        let w = build_workload(App::Stream, WorkloadScale::Tiny, core.vector_length);
        (w.program, core, MemParams::thunderx2())
    }

    #[test]
    fn backend_choice_works_through_dyn_dispatch() {
        let (p, c, m) = fixture();
        let backends: [&dyn SimBackend; 2] = [&MultiCore::IDEALIZED, &PROXY];
        let mut names = Vec::new();
        for b in backends {
            let s = b.run(&p, &c, &m, RunMode::Plain).stats;
            assert!(s.validated, "{} failed validation", b.name());
            names.push(b.name());
        }
        assert_eq!(names, ["idealized", "multicore"]);
    }

    #[test]
    fn plain_runs_observe_nothing() {
        let (p, c, m) = fixture();
        let out = MultiCore::IDEALIZED.run(&p, &c, &m, RunMode::Plain);
        assert!(out.trace.is_none() && out.counters.is_none() && out.per_core.is_empty());
    }

    #[test]
    fn metrics_runs_are_transparent_and_conserve_cycles() {
        let (p, c, m) = fixture();
        let backends: [&dyn SimBackend; 2] = [&MultiCore::IDEALIZED, &PROXY];
        for b in backends {
            let plain = b.run(&p, &c, &m, RunMode::Plain).stats;
            let (stats, counters) = b.run(&p, &c, &m, RunMode::Metrics).into_metrics();
            assert_eq!(stats, plain, "{}: metrics perturbed the run", b.name());
            assert_eq!(counters.cycles, stats.cycles);
            assert!(
                counters.conserves(),
                "{}: {} cycles but {} attributed",
                b.name(),
                counters.cycles,
                counters.attributed_cycles()
            );
            assert!(
                counters.retire_cycles() > 0,
                "{}: nothing retired",
                b.name()
            );
        }
    }

    #[test]
    fn traced_runs_match_untraced_timing() {
        let (p, c, m) = fixture();
        let plain = PROXY.run(&p, &c, &m, RunMode::Plain).stats;
        let (stats, trace) = PROXY.run(&p, &c, &m, RunMode::Trace).into_traced();
        assert_eq!(stats, plain);
        assert_eq!(trace.len() as u64, stats.retired);
    }
}
