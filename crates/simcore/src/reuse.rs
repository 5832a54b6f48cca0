//! Segment-level computation reuse: the interval-memoizing fidelity
//! tier.
//!
//! The paper's campaigns re-simulate the *same* `(workload, config)`
//! neighbourhoods over and over: the explorer's acquisition loop
//! revisits near-identical design points, resumed campaigns replay
//! prefixes, and the differential harness runs every program at least
//! twice. This module exploits the simulator's determinism to reuse
//! work at *interval* granularity instead of whole runs:
//!
//! [`Memoized`] is an exact tier. The dynamic instruction stream is
//! split into fixed-size retirement intervals; each interval's timing
//! result is keyed by a hash chain over `(program, relevant parameter
//! slice, interval index, architectural entry state)` and cached in a
//! bounded, shard-locked [`ShardedCache`]. A warm cache replays a run
//! as a chain of lookups; results are **bit-identical** to the
//! uncached backend (pinned by `tests/reuse_equivalence.rs` and the
//! differential fuzz reuse lane). There is no approximate tier: every
//! row any backend emits is an exact simulation.
//!
//! ## Reuse legality
//!
//! Memoization is sound because the pipeline is a deterministic function
//! of `(program, CoreParams, memory model)` and
//! [`Pipeline::state_hash`] fingerprints every architectural *and*
//! micro-architectural input an interval's timing depends on. The key
//! chain is:
//!
//! ```text
//! base     = fnv(program | param-slice | interval_len | metrics)
//! key[i]   = fnv(base, i, entry_hash[i])
//! entry_hash[0]   = base
//! entry_hash[i+1] = exit state hash stored with interval i
//! ```
//!
//! A lookup can only hit when the whole prefix chain matched, so a hit's
//! cached exit state is exactly what simulation would have produced.
//! See `docs/DESIGN.md` §13 for the full argument (including why the
//! parameter slice may soundly *exclude* parameters a program provably
//! never exercises).

use std::sync::Arc;

use crate::backend::{finish, start, IntervalBackend, RunMode, RunOutput, SimBackend};
use crate::cycle_limit;
use crate::params::CoreParams;
use crate::pipeline::{Pipeline, PipelineSnapshot};
use armdse_isa::{Program, RegClass};
use armdse_kernels::{CacheStats, ShardedCache};
use armdse_memsim::fasthash::Fnv1a;
use armdse_memsim::{Hierarchy, MemParams};

/// Re-exported cache counters surfaced through
/// [`SimBackend::reuse_stats`] (hits, misses, insertions, evictions).
pub type ReuseStats = CacheStats;

/// Default retirement-interval length for the memoizing tier
/// (instructions per interval).
pub const DEFAULT_INTERVAL_LEN: u64 = 4096;

/// Default interval-cache bound (entries across all shards). Interval
/// snapshots are large (tens of kilobytes: cache tag arrays dominate),
/// so this is deliberately far below the generic
/// [`ShardedCache`] default.
pub const DEFAULT_INTERVAL_CACHE_ENTRIES: usize = 1024;

/// Shard count for the interval cache (matches the workload cache's
/// lock-splitting granularity).
pub const DEFAULT_INTERVAL_CACHE_SHARDS: usize = 16;

/// Simulation fidelity tier a backend runs at, reported via
/// [`SimBackend::fidelity`] so orchestration layers (checkpoints, the
/// repro CLI, the benchmark) can record what produced a number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Exact, uncached cycle-approximate simulation (the default).
    Full,
    /// Exact simulation with interval-level memoization ([`Memoized`]).
    Memoized {
        /// Retirement-interval length in instructions.
        interval_len: u64,
    },
}

impl Fidelity {
    /// Stable lowercase tag for checkpoints and CLI flags
    /// (`full` / `memoized`).
    pub fn tag(&self) -> &'static str {
        match self {
            Fidelity::Full => "full",
            Fidelity::Memoized { .. } => "memoized",
        }
    }
}

// ---------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------

/// Which design-space parameters a program can actually exercise.
/// Derived by a conservative static scan of the lowered program; see
/// `docs/DESIGN.md` §13 ("relevant parameter slice").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ParamRelevance {
    /// Any op allocates an FP/SVE destination register.
    fp: bool,
    /// Any op allocates a predicate destination register.
    pred: bool,
    /// Any op allocates a condition-flag destination register.
    cond: bool,
    /// Any op touches memory (load or store).
    mem: bool,
}

impl ParamRelevance {
    fn of(program: &Program) -> ParamRelevance {
        let mut r = ParamRelevance {
            fp: false,
            pred: false,
            cond: false,
            mem: false,
        };
        for op in &program.ops {
            for d in op.template.dests.iter() {
                match d.class {
                    RegClass::Gp => {}
                    RegClass::Fp => r.fp = true,
                    RegClass::Pred => r.pred = true,
                    RegClass::Cond => r.cond = true,
                }
            }
            r.mem |= op.template.mem.is_some();
        }
        r
    }
}

/// Hash the *relevant slice* of the design point: parameters the static
/// scan proves the program cannot exercise are excluded, so two design
/// points differing only in provably-irrelevant parameters share one
/// interval chain. Exclusion is sound because a physical register file
/// that is never allocated from and a memory hierarchy that is never
/// accessed cannot influence any pipeline transition.
fn param_slice_hash(relevance: ParamRelevance, core: &CoreParams, mem: &MemParams) -> u64 {
    let mut h = Fnv1a::new();
    // Always-relevant core parameters (fetch, rename, commit, window).
    h.u64(u64::from(core.vector_length))
        .u64(u64::from(core.fetch_block_bytes))
        .u64(u64::from(core.loop_buffer_size))
        .u64(u64::from(core.gp_regs))
        .u64(u64::from(core.commit_width))
        .u64(u64::from(core.frontend_width))
        .u64(u64::from(core.lsq_completion_width))
        .u64(u64::from(core.rob_size));
    if relevance.fp {
        h.u64(u64::from(core.fp_regs));
    }
    if relevance.pred {
        h.u64(u64::from(core.pred_regs));
    }
    if relevance.cond {
        h.u64(u64::from(core.cond_regs));
    }
    if relevance.mem {
        h.u64(u64::from(core.load_queue))
            .u64(u64::from(core.store_queue))
            .u64(u64::from(core.load_bandwidth))
            .u64(u64::from(core.store_bandwidth))
            .u64(u64::from(core.mem_requests_per_cycle))
            .u64(u64::from(core.loads_per_cycle))
            .u64(u64::from(core.stores_per_cycle));
        h.u64(u64::from(mem.line_bytes))
            .u64(u64::from(mem.l1_size_kib))
            .u64(u64::from(mem.l1_assoc))
            .u64(u64::from(mem.l1_latency))
            .u64(mem.l1_clock_ghz.to_bits())
            .u64(u64::from(mem.l2_size_kib))
            .u64(u64::from(mem.l2_assoc))
            .u64(u64::from(mem.l2_latency))
            .u64(mem.l2_clock_ghz.to_bits())
            .u64(mem.ram_access_ns.to_bits())
            .u64(mem.ram_clock_ghz.to_bits())
            .u64(u64::from(mem.prefetch_depth));
    }
    h.finish()
}

/// The run-level base key: program identity, relevant parameter slice,
/// interval length, and whether counters are enabled (a metrics machine
/// carries extra state, so metrics and plain chains never alias).
fn base_key(
    program: &Program,
    core: &CoreParams,
    mem: &MemParams,
    interval_len: u64,
    metrics: bool,
) -> u64 {
    let mut h = Fnv1a::new();
    // The Debug rendering covers every field of the lowered program
    // (ops, loop table, trip counts) — the full static identity.
    h.bytes(format!("{program:?}").as_bytes());
    h.u64(param_slice_hash(ParamRelevance::of(program), core, mem));
    h.u64(interval_len);
    h.u64(u64::from(metrics));
    h.finish()
}

/// Key of interval `i` given the chained architectural entry hash.
fn interval_key(base: u64, i: u64, entry_hash: u64) -> u64 {
    Fnv1a::new().u64(base).u64(i).u64(entry_hash).finish()
}

// ---------------------------------------------------------------------
// Memoized tier
// ---------------------------------------------------------------------

/// One cached interval result.
struct IntervalEntry {
    /// [`Pipeline::state_hash`] at the interval's end — the next link of
    /// the key chain.
    exit_hash: u64,
    payload: IntervalPayload,
}

enum IntervalPayload {
    /// The run ended inside this interval (finished or hit the cycle
    /// limit): the run's output, with finalized counters when the chain
    /// is a metrics chain.
    Terminal(Box<RunOutput>),
    /// The run continues: a full machine snapshot at the interval
    /// boundary, sufficient to resume simulation on a later miss.
    Snapshot(Box<PipelineSnapshot<Hierarchy>>),
}

/// Exact interval-memoizing wrapper around an [`IntervalBackend`].
///
/// Plain and metrics runs walk the interval key chain described in the
/// module docs: every interval boundary does one cache lookup; a hit
/// *adopts* the cached result (dropping any live machine — the cached
/// exit state is bit-identical to what simulation would produce); a miss
/// materializes a machine (fresh at interval 0, or restored from the
/// previous interval's snapshot) and simulates exactly one interval.
/// Because lookups happen every interval even while a machine is live,
/// a partially evicted chain heals itself: the first re-simulated
/// interval's exit hash rejoins the surviving suffix.
///
/// [`RunMode::Trace`] intentionally bypasses the cache (the commit log
/// borrows the program and is not snapshotable) and delegates to the
/// inner backend — traces are an oracle-only path where caching would
/// buy nothing.
pub struct Memoized<B: IntervalBackend> {
    inner: B,
    interval_len: u64,
    cache: ShardedCache<u64, IntervalEntry>,
}

impl<B: IntervalBackend> Memoized<B> {
    /// Memoizing wrapper with the default interval length and cache
    /// bound.
    pub fn new(inner: B) -> Memoized<B> {
        Memoized::with_interval_len(inner, DEFAULT_INTERVAL_LEN)
    }

    /// Memoizing wrapper with an explicit interval length (instructions
    /// per interval; must be ≥ 1).
    pub fn with_interval_len(inner: B, interval_len: u64) -> Memoized<B> {
        assert!(interval_len >= 1, "interval length must be at least 1");
        Memoized {
            inner,
            interval_len,
            cache: ShardedCache::new(
                DEFAULT_INTERVAL_CACHE_SHARDS,
                DEFAULT_INTERVAL_CACHE_ENTRIES,
            ),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Configured interval length in instructions.
    pub fn interval_len(&self) -> u64 {
        self.interval_len
    }

    /// Cache hit/miss/insertion/eviction counters since construction or
    /// the last [`SimBackend::clear_reuse_cache`].
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The chain walk of a plain or metrics run.
    fn run_cached(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
        mode: RunMode,
    ) -> RunOutput {
        let limit = cycle_limit(program);
        let metrics = mode == RunMode::Metrics;
        let base = base_key(program, core, mem, self.interval_len, metrics);
        let mut entry_hash = base;
        let mut prev: Option<Arc<IntervalEntry>> = None;
        let mut machine: Option<Pipeline<'_, Hierarchy>> = None;
        let mut i: u64 = 0;
        loop {
            let key = interval_key(base, i, entry_hash);
            let entry = match self.cache.get(&key) {
                Some(hit) => {
                    // Adopt the cached interval: the chain proves its
                    // inputs matched bit-for-bit, so any live machine is
                    // redundant.
                    machine = None;
                    hit
                }
                None => {
                    let mut m = match machine.take() {
                        Some(m) => m,
                        None => match &prev {
                            Some(p) => match &p.payload {
                                IntervalPayload::Snapshot(snap) => Pipeline::restore(program, snap),
                                IntervalPayload::Terminal(_) => {
                                    unreachable!("terminal entries return below")
                                }
                            },
                            None => {
                                debug_assert_eq!(i, 0, "interval 0 starts from a fresh machine");
                                start(program, core, self.inner.build_mem(mem), mode)
                            }
                        },
                    };
                    let target = (i + 1).saturating_mul(self.interval_len);
                    m.drive_until_retired(limit, target);
                    let exit_hash = m.state_hash();
                    let payload = if m.is_finished() || m.stats().hit_cycle_limit {
                        IntervalPayload::Terminal(Box::new(finish(m, program)))
                    } else {
                        let snap = IntervalPayload::Snapshot(Box::new(m.snapshot()));
                        machine = Some(m);
                        snap
                    };
                    self.cache.insert(key, IntervalEntry { exit_hash, payload })
                }
            };
            match &entry.payload {
                IntervalPayload::Terminal(out) => return RunOutput::clone(out),
                IntervalPayload::Snapshot(_) => {
                    entry_hash = entry.exit_hash;
                    prev = Some(entry);
                    i += 1;
                }
            }
        }
    }
}

impl<B: IntervalBackend> SimBackend for Memoized<B> {
    fn name(&self) -> &'static str {
        "memoized"
    }

    fn run(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
        mode: RunMode,
    ) -> RunOutput {
        match mode {
            RunMode::Trace => self.inner.run(program, core, mem, mode),
            RunMode::Plain | RunMode::Metrics => self.run_cached(program, core, mem, mode),
        }
    }

    fn reuse_stats(&self) -> Option<ReuseStats> {
        Some(self.cache.stats())
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::Memoized {
            interval_len: self.interval_len,
        }
    }

    fn clear_reuse_cache(&self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BankedProxy, Idealized};
    use crate::counters::Counters;
    use crate::stats::SimStats;
    use armdse_kernels::{build_workload, App, WorkloadScale};

    fn fixture(app: App) -> (Program, CoreParams, MemParams) {
        let core = CoreParams::thunderx2();
        let w = build_workload(app, WorkloadScale::Tiny, core.vector_length);
        (w.program, core, MemParams::thunderx2())
    }

    fn plain(b: &dyn SimBackend, p: &Program, c: &CoreParams, m: &MemParams) -> SimStats {
        b.run(p, c, m, RunMode::Plain).stats
    }

    fn metrics(
        b: &dyn SimBackend,
        p: &Program,
        c: &CoreParams,
        m: &MemParams,
    ) -> (SimStats, Counters) {
        b.run(p, c, m, RunMode::Metrics).into_metrics()
    }

    fn traced(
        b: &dyn SimBackend,
        p: &Program,
        c: &CoreParams,
        m: &MemParams,
    ) -> (SimStats, Vec<armdse_isa::instr::DynInstr>) {
        b.run(p, c, m, RunMode::Trace).into_traced()
    }

    #[test]
    fn memoized_is_bit_identical_to_plain_backends() {
        for app in [App::Stream, App::MiniBude] {
            let (p, c, m) = fixture(app);
            let uncached: [&dyn SimBackend; 2] = [&Idealized, &BankedProxy];
            let cached: [&dyn SimBackend; 2] = [
                &Memoized::with_interval_len(Idealized, 64),
                &Memoized::with_interval_len(BankedProxy, 64),
            ];
            for (&b, &cb) in uncached.iter().zip(&cached) {
                let want = plain(b, &p, &c, &m);
                assert!(want.validated);
                // Cold pass, then a fully warm pass: both bit-identical.
                assert_eq!(plain(cb, &p, &c, &m), want, "{} cold", b.name());
                assert_eq!(plain(cb, &p, &c, &m), want, "{} warm", b.name());
                let rs = cb.reuse_stats().expect("memoized reports reuse stats");
                assert!(rs.hits > 0, "{}: warm pass produced no hits", b.name());
                assert!(rs.misses > 0, "{}: cold pass produced no misses", b.name());
            }
        }
    }

    #[test]
    fn memoized_metrics_are_transparent_and_cached() {
        let (p, c, m) = fixture(App::TeaLeaf);
        let mem = Memoized::with_interval_len(Idealized, 128);
        let (want_stats, want_counters) = metrics(&Idealized, &p, &c, &m);
        let (cold_stats, cold_counters) = metrics(&mem, &p, &c, &m);
        assert_eq!(cold_stats, want_stats);
        assert_eq!(cold_counters, want_counters);
        assert!(cold_counters.conserves());
        let (warm_stats, warm_counters) = metrics(&mem, &p, &c, &m);
        assert_eq!(warm_stats, want_stats);
        assert_eq!(warm_counters, want_counters);
        let rs = mem.cache_stats();
        assert!(rs.hits > 0, "warm metrics pass must hit");
        // The plain (non-metrics) chain is disjoint: running it now
        // must miss even though the metrics chain is warm.
        let before = mem.cache_stats().misses;
        assert_eq!(plain(&mem, &p, &c, &m), want_stats);
        assert!(mem.cache_stats().misses > before);
    }

    #[test]
    fn memoized_heals_a_partially_evicted_chain_via_restore() {
        let (p, c, m) = fixture(App::Stream);
        let interval = 64;
        let mem = Memoized::with_interval_len(Idealized, interval);
        let want = plain(&Idealized, &p, &c, &m);
        assert_eq!(plain(&mem, &p, &c, &m), want);
        // Walk the key chain exactly as run_cached does and collect the
        // keys of every cached interval.
        let base = base_key(&p, &c, &m, interval, false);
        let mut keys = Vec::new();
        let mut entry_hash = base;
        let mut i = 0u64;
        loop {
            let key = interval_key(base, i, entry_hash);
            let entry = mem.cache.get(&key).expect("cold run cached the chain");
            keys.push(key);
            match &entry.payload {
                IntervalPayload::Terminal { .. } => break,
                IntervalPayload::Snapshot(_) => {
                    entry_hash = entry.exit_hash;
                    i += 1;
                }
            }
        }
        assert!(keys.len() > 3, "fixture too short to exercise the chain");
        // Evict the tail: keep the first half, drop the rest. The warm
        // run must hit the surviving prefix, restore a machine from the
        // last surviving snapshot, and re-simulate the tail.
        let keep = keys.len() / 2;
        for k in &keys[keep..] {
            mem.cache.remove(k);
        }
        let before = mem.cache_stats();
        assert_eq!(plain(&mem, &p, &c, &m), want, "healed run must stay exact");
        let after = mem.cache_stats();
        assert_eq!(
            (after.hits - before.hits) as usize,
            keep,
            "surviving prefix must hit"
        );
        assert_eq!(
            (after.misses - before.misses) as usize,
            keys.len() - keep,
            "evicted tail must re-simulate"
        );
        // The re-simulated tail rejoined the same chain: the keys are
        // all present again and a further run is pure hits.
        let before = mem.cache_stats();
        assert_eq!(plain(&mem, &p, &c, &m), want);
        let after = mem.cache_stats();
        assert_eq!((after.hits - before.hits) as usize, keys.len());
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn irrelevant_params_share_the_chain_and_relevant_ones_split_it() {
        let (p, c, m) = fixture(App::MiniSweep);
        // MiniSweep's scalar sweep allocates FP, GP, and condition-flag
        // destinations and touches memory, but never writes a predicate
        // register — so pred_regs must be sliced out while rob_size and
        // l1_size_kib stay in.
        let rel = ParamRelevance::of(&p);
        assert!(rel.fp && rel.cond && rel.mem && !rel.pred);
        let base = base_key(&p, &c, &m, 64, false);
        let mut c2 = c;
        c2.pred_regs *= 2;
        assert_eq!(base_key(&p, &c2, &m, 64, false), base);
        let mut c3 = c;
        c3.rob_size += 4;
        assert_ne!(base_key(&p, &c3, &m, 64, false), base);
        let mut m2 = m;
        m2.l1_size_kib *= 2;
        assert_ne!(base_key(&p, &c, &m2, 64, false), base);
        // And the shared chain is observable: a run at c2 on a warm
        // cache is pure hits.
        let mem_b = Memoized::with_interval_len(Idealized, 64);
        let want = plain(&mem_b, &p, &c, &m);
        let before = mem_b.cache_stats().misses;
        assert_eq!(plain(&mem_b, &p, &c2, &m), want);
        assert_eq!(
            mem_b.cache_stats().misses,
            before,
            "c2 must reuse c's chain"
        );
    }

    #[test]
    fn clear_reuse_cache_forces_cold_start() {
        let (p, c, m) = fixture(App::Stream);
        let mem = Memoized::with_interval_len(Idealized, 256);
        let want = plain(&mem, &p, &c, &m);
        mem.clear_reuse_cache();
        let rs = mem.cache_stats();
        assert_eq!((rs.hits, rs.misses), (0, 0), "clear resets counters");
        assert_eq!(plain(&mem, &p, &c, &m), want);
        let rs = mem.cache_stats();
        assert_eq!(rs.hits, 0, "cleared cache cannot hit");
        assert!(rs.misses > 0);
    }

    #[test]
    fn memoized_fidelity_and_default_methods() {
        let mem = Memoized::with_interval_len(BankedProxy, 512);
        assert_eq!(mem.fidelity(), Fidelity::Memoized { interval_len: 512 });
        assert_eq!(mem.fidelity().tag(), "memoized");
        assert_eq!(mem.name(), "memoized");
        assert_eq!(mem.inner().name(), "banked-proxy");
        // Plain backends report the Full tier and no reuse stats.
        assert_eq!(Idealized.fidelity(), Fidelity::Full);
        assert_eq!(Idealized.fidelity().tag(), "full");
        assert!(Idealized.reuse_stats().is_none());
        Idealized.clear_reuse_cache(); // no-op, must not panic
    }

    #[test]
    fn memoized_traced_runs_are_exact_and_uncached() {
        let (p, c, m) = fixture(App::Stream);
        let mem = Memoized::with_interval_len(Idealized, 64);
        let (want_stats, want_trace) = traced(&Idealized, &p, &c, &m);
        let (stats, trace) = traced(&mem, &p, &c, &m);
        assert_eq!(stats, want_stats);
        assert_eq!(trace, want_trace);
        let rs = mem.cache_stats();
        assert_eq!(
            (rs.hits, rs.misses),
            (0, 0),
            "traced path bypasses the cache"
        );
    }

    #[test]
    fn interval_keys_chain_deterministically() {
        let (p, c, m) = fixture(App::Stream);
        let b1 = base_key(&p, &c, &m, 64, false);
        assert_eq!(b1, base_key(&p, &c, &m, 64, false));
        assert_ne!(b1, base_key(&p, &c, &m, 128, false), "interval length keys");
        assert_ne!(b1, base_key(&p, &c, &m, 64, true), "metrics flag keys");
        let (p2, ..) = fixture(App::MiniBude);
        assert_ne!(b1, base_key(&p2, &c, &m, 64, false), "program keys");
        assert_ne!(
            interval_key(b1, 0, b1),
            interval_key(b1, 1, b1),
            "interval index keys"
        );
    }
}
