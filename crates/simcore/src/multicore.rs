//! The one machine: N core pipelines over one shared L2 + DRAM
//! backside, stepped in a bounded round-robin slice loop.
//!
//! The paper simulates one core over an infinite-bank SST hierarchy
//! with a next-line prefetcher: [`MultiCore::IDEALIZED`], one core over
//! `banks == 0`. The same machine with finite banks and no prefetcher
//! is Table I's hardware proxy (`MultiCore::new(1, DEFAULT_BANKS)`) and,
//! with more cores, the multicore extension the paper leaves to future
//! work (§VII). Each of the N cores runs its own instance of the same
//! workload (homogeneous-rate model) on a private [`crate::Pipeline`]
//! whose memory front ([`armdse_memsim::Hierarchy::new`]) forwards L1
//! misses into one [`armdse_memsim::Backside`]. Contention is
//! *emergent*: cores evict each other's L2 lines and queue on the same
//! finite DRAM banks, and the costs land in the existing per-core
//! accounting — `MemData` stall cycles in the [`Counters`] buckets,
//! `dram_queue_*` and MSHR occupancy in each core's `MemStats`.
//!
//! ## The slice loop and aggregation
//!
//! Every [`SLICE_CYCLES`] cycles the machine drives each core, in core
//! order, up to a global boundary via `Pipeline::drive_to`; all
//! cross-core interaction goes through the backside, so results depend
//! only on (program, params, topology), never on host threads. A
//! one-core machine has nothing to interleave and drives to the end in
//! one call. `cycles` is the makespan, counters are summed, `validated`
//! needs every core, and under [`RunMode::Metrics`]
//! [`RunOutput::per_core`] carries each core's own statistics.
//! docs/MULTICORE.md §2–§3 specify both.

use crate::backend::{finish, RunMode, RunOutput, SimBackend};
use crate::counters::Counters;
use crate::cycle_limit;
use crate::params::CoreParams;
use crate::pipeline::Pipeline;
use crate::stats::{SimStats, StallStats};
use armdse_isa::{OpSummary, Program};
use armdse_memsim::{Backside, Hierarchy, MemParams};
use std::rc::Rc;

/// Global slice length of the round-robin loop, in core cycles: every
/// core reaches each multiple of this boundary before any core passes
/// it. Small enough to bound cross-core causality skew well below the
/// DRAM round-trip, large enough that slice bookkeeping is invisible in
/// the profile.
pub(crate) const SLICE_CYCLES: u64 = 128;

/// One core's share of a multicore metrics run: its own statistics
/// (cycles, retired, memory and stall counters for *its* memory front and
/// pipeline) and its own conservation-checked attribution counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PerCoreMetrics {
    /// Core index, 0-based (core 0 is the address-offset-free core).
    pub core: u32,
    /// The core's own run statistics.
    pub stats: SimStats,
    /// The core's own cycle-attribution counters.
    pub counters: Counters,
}

/// The machine (see the module docs), and the shape every backend
/// reports through [`SimBackend::topology`].
///
/// ```
/// use armdse_simcore::{CoreParams, MultiCore, RunMode, SimBackend};
/// use armdse_memsim::MemParams;
/// use armdse_kernels::{build_workload, App, WorkloadScale};
///
/// let core = CoreParams::thunderx2();
/// let mem = MemParams::thunderx2();
/// let w = build_workload(App::Stream, WorkloadScale::Tiny, core.vector_length);
///
/// let paper = MultiCore::IDEALIZED.run(&w.program, &core, &mem, RunMode::Plain).stats;
/// let solo = MultiCore::new(1, 8).run(&w.program, &core, &mem, RunMode::Plain).stats;
/// let duo = MultiCore::new(2, 8).run(&w.program, &core, &mem, RunMode::Plain).stats;
/// assert!(paper.validated && solo.validated && duo.validated);
/// // Two streaming cores share the banks: the makespan cannot shrink.
/// assert!(duo.cycles >= solo.cycles);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiCore {
    /// Core count (>= 1; each runs its own instance of the workload).
    pub cores: u32,
    /// Shared DRAM bank count. 0 is the paper's infinite banks, with
    /// the next-line prefetcher of [`MemParams::prefetch_depth`]; any
    /// other count is the shared-bandwidth axis (fewer banks = a
    /// narrower shared memory pipe) and runs without a prefetcher.
    pub banks: u32,
}

impl MultiCore {
    /// The paper's simulated machine: one core over infinite DRAM banks
    /// with the next-line prefetcher.
    pub const IDEALIZED: MultiCore = MultiCore { cores: 1, banks: 0 };

    /// A machine with `cores` cores over `banks` finite shared DRAM
    /// banks.
    pub fn new(cores: u32, banks: u32) -> MultiCore {
        assert!(cores >= 1, "a machine needs at least one core");
        assert!(banks >= 1, "infinite banks are MultiCore::IDEALIZED");
        MultiCore { cores, banks }
    }
}

/// Fold one more core's statistics into the machine view: makespan
/// cycles, summed retirement/memory/stall counters, all-cores
/// validation.
fn fold_core(agg: &mut SimStats, s: &SimStats) {
    agg.cycles = agg.cycles.max(s.cycles);
    agg.retired += s.retired;
    agg.mem.merge(&s.mem);
    agg.stalls = sum_stalls(&agg.stalls, &s.stalls);
    agg.validated &= s.validated;
    agg.hit_cycle_limit |= s.hit_cycle_limit;
}

fn sum_stalls(a: &StallStats, b: &StallStats) -> StallStats {
    StallStats {
        rename_gp: a.rename_gp + b.rename_gp,
        rename_fp: a.rename_fp + b.rename_fp,
        rename_pred: a.rename_pred + b.rename_pred,
        rename_cond: a.rename_cond + b.rename_cond,
        rob_full: a.rob_full + b.rob_full,
        rs_full: a.rs_full + b.rs_full,
        lq_full: a.lq_full + b.lq_full,
        sq_full: a.sq_full + b.sq_full,
        fetch_starved: a.fetch_starved + b.fetch_starved,
        loop_buffer_cycles: a.loop_buffer_cycles + b.loop_buffer_cycles,
    }
}

impl SimBackend for MultiCore {
    fn name(&self) -> &'static str {
        if *self == MultiCore::IDEALIZED {
            "idealized"
        } else {
            "multicore"
        }
    }

    fn run(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
        mode: RunMode,
    ) -> RunOutput {
        // The two differences between the paper's machine and a banked
        // one: finite banks run without the prefetcher, and one core
        // needs no slice loop.
        let mem = match self.banks {
            0 => *mem,
            _ => MemParams {
                prefetch_depth: 0,
                ..*mem
            },
        };
        let shared = Backside::shared(mem, self.banks as usize);
        // One walk of the program serves the cycle limit and validation.
        let expected = OpSummary::of(program);
        let max_cycles = cycle_limit(&expected);
        // The trace is captured on core 0 only: every core runs the
        // same program, and the oracle replays one architectural stream.
        let mut pipes: Vec<_> = (0..self.cores)
            .map(|i| {
                let mode = match mode {
                    RunMode::Trace if i > 0 => RunMode::Plain,
                    m => m,
                };
                Pipeline::new(program, core, Hierarchy::new(Rc::clone(&shared), i), mode)
            })
            .collect();

        // The bounded round-robin slice loop: every core reaches the
        // global boundary (in fixed core order) before any core passes
        // it. See the module docs for the determinism argument.
        let mut boundary = if self.cores == 1 {
            u64::MAX
        } else {
            SLICE_CYCLES
        };
        loop {
            let mut all_done = true;
            for p in pipes.iter_mut() {
                if !p.finished() {
                    p.drive_to(max_cycles, boundary);
                    all_done &= p.finished();
                }
            }
            if all_done || pipes.iter().any(|p| p.stats().hit_cycle_limit) {
                break;
            }
            boundary += SLICE_CYCLES;
        }

        let runs: Vec<RunOutput> = pipes.into_iter().map(|p| finish(p, &expected)).collect();
        // Per-core rows are only interesting when there is more than
        // one core: the single-core machine IS its aggregate.
        let per_core = if mode == RunMode::Metrics && runs.len() > 1 {
            runs.iter()
                .zip(0u32..)
                .map(|(r, core)| PerCoreMetrics {
                    core,
                    stats: r.stats.clone(),
                    counters: r.counters.clone().expect("counters enabled on every core"),
                })
                .collect()
        } else {
            Vec::new()
        };
        // Core 0's output (it carries the trace) becomes the machine's;
        // the other cores fold in.
        let mut runs = runs.into_iter();
        let mut out = runs.next().expect("at least one core");
        for r in runs {
            fold_core(&mut out.stats, &r.stats);
            if let (Some(merged), Some(c)) = (&mut out.counters, &r.counters) {
                merged.merge(c);
            }
        }
        out.per_core = per_core;
        out
    }

    fn topology(&self) -> MultiCore {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_kernels::{build_workload, App, WorkloadScale};

    fn fixture(app: App) -> (Program, CoreParams, MemParams) {
        let core = CoreParams::thunderx2();
        let w = build_workload(app, WorkloadScale::Tiny, core.vector_length);
        (w.program, core, MemParams::thunderx2())
    }

    fn plain(mc: MultiCore, p: &Program, c: &CoreParams, m: &MemParams) -> SimStats {
        mc.run(p, c, m, RunMode::Plain).stats
    }

    #[test]
    fn more_cores_never_shrink_the_makespan() {
        let (p, c, m) = fixture(App::Stream);
        let solo_retired = plain(MultiCore::new(1, 8), &p, &c, &m).retired;
        let mut prev = 0;
        for cores in [1u32, 2, 4] {
            let s = plain(MultiCore::new(cores, 8), &p, &c, &m);
            assert!(s.validated, "{cores} cores failed validation");
            assert!(
                s.cycles >= prev,
                "{cores} cores ran in {} cycles, fewer cores took {prev}",
                s.cycles
            );
            assert_eq!(s.retired, u64::from(cores) * solo_retired);
            prev = s.cycles;
        }
    }

    /// The shared-bandwidth axis: shrinking the bank count must not
    /// speed the machine up (satellite: contention monotonicity).
    #[test]
    fn fewer_banks_never_shrink_the_makespan() {
        let (p, c, m) = fixture(App::Stream);
        let mut prev = 0;
        for &banks in [1u32, 2, 4, 8].iter().rev() {
            let s = plain(MultiCore::new(2, banks), &p, &c, &m);
            assert!(s.validated);
            assert!(
                s.cycles >= prev,
                "{banks} banks ran in {} cycles, more banks took {prev}",
                s.cycles
            );
            prev = s.cycles;
        }
    }

    #[test]
    fn metrics_are_transparent_and_conserve_per_core_and_aggregate() {
        let (p, c, m) = fixture(App::TeaLeaf);
        let mc = MultiCore::new(2, 4);
        let out = mc.run(&p, &c, &m, RunMode::Metrics);
        let (stats, agg, per_core) = (out.stats, out.counters.unwrap(), out.per_core);
        assert_eq!(
            stats,
            plain(mc, &p, &c, &m),
            "metrics perturbed the multicore run"
        );
        assert!(agg.conserves());
        assert_eq!(per_core.len(), 2);
        let mut cycle_sum = 0;
        for pc in &per_core {
            assert!(pc.counters.conserves(), "core {} leaked a cycle", pc.core);
            assert_eq!(pc.counters.cycles, pc.stats.cycles);
            assert!(pc.stats.validated);
            cycle_sum += pc.stats.cycles;
        }
        assert_eq!(
            agg.cycles, cycle_sum,
            "aggregate attributes all core-cycles"
        );
        assert!(stats.cycles <= cycle_sum && stats.cycles >= cycle_sum / 2);
        // Per-core rows are suppressed for the single-core machine.
        let solo = MultiCore::new(1, 8).run(&p, &c, &m, RunMode::Metrics);
        assert!(solo.per_core.is_empty());
    }

    #[test]
    fn deterministic_across_repeat_runs() {
        let (p, c, m) = fixture(App::MiniSweep);
        let mc = MultiCore::new(3, 4);
        let a = plain(mc, &p, &c, &m);
        let b = plain(mc, &p, &c, &m);
        assert_eq!(a, b);
        assert!(a.validated);
    }

    #[test]
    fn contention_charges_the_memory_buckets() {
        let (p, c, m) = fixture(App::Stream);
        let (_, solo_c) = MultiCore::new(1, 2)
            .run(&p, &c, &m, RunMode::Metrics)
            .into_metrics();
        let duo = MultiCore::new(2, 2).run(&p, &c, &m, RunMode::Metrics);
        assert!(duo.stats.validated);
        let (duo_c, per_core) = (duo.counters.unwrap(), duo.per_core);
        use crate::counters::CycleBucket;
        let solo_mem = solo_c.bucket(CycleBucket::MemData);
        let duo_mem = duo_c.bucket(CycleBucket::MemData);
        assert!(
            duo_mem > solo_mem,
            "shared-bank contention must surface as MemData stalls: {duo_mem} !> {solo_mem}"
        );
        // The queueing the cores suffered is visible in their memory fronts.
        let waits: u64 = per_core
            .iter()
            .map(|pc| pc.stats.mem.dram_queue_wait_cycles)
            .sum();
        assert!(waits > 0, "two streaming cores on two banks must queue");
    }

    /// The prefetcher is the idealized machine's alone: a finite-banked
    /// machine issues no prefetch whatever the depth says.
    #[test]
    fn banked_machines_ignore_prefetch_depth() {
        let (p, c, mut m) = fixture(App::Stream);
        m.prefetch_depth = 4;
        for mc in [MultiCore::new(1, 8), MultiCore::new(2, 4)] {
            assert_eq!(plain(mc, &p, &c, &m).mem.prefetches, 0, "{mc:?}");
        }
        assert!(plain(MultiCore::IDEALIZED, &p, &c, &m).mem.prefetches > 0);
    }

    #[test]
    fn topology_reports_the_shape() {
        assert_eq!(
            MultiCore::IDEALIZED.topology(),
            MultiCore { cores: 1, banks: 0 }
        );
        assert_eq!(MultiCore::IDEALIZED.name(), "idealized");
        let t = MultiCore::new(4, 2).topology();
        assert_eq!((t.cores, t.banks), (4, 2));
    }
}
