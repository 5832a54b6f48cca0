//! Run-level computation reuse: the exact run-memoizing machine.
//!
//! A campaign can ask for the *same* `(workload, design point)` run more
//! than once: resubmitted jobs, an identical re-run, the differential
//! harness running every program at least twice. [`Memoized`] keeps the
//! finished [`RunOutput`] of each plain or metrics run in one bounded
//! map over its [`MultiCore`] and answers a repeat with a clone of it.
//! There is no approximate tier: every row any backend emits is an
//! exact simulation.
//!
//! ## Reuse legality
//!
//! A run is a deterministic function of `(program, CoreParams,
//! MemParams, RunMode)` and the memo is keyed by that whole input, so a
//! hit returns exactly what the machine would compute again (pinned by
//! `tests/reuse_equivalence.rs` and the differential fuzz reuse lane).
//! The key is a 64-bit hash; each entry also stores the design point it
//! was computed for and a hit requires it to be equal, so a colliding
//! design point reads as a miss, never as a wrong row. See `DESIGN.md`
//! §13.

use crate::backend::{RunMode, RunOutput, SimBackend};
use crate::multicore::MultiCore;
use crate::params::CoreParams;
use armdse_isa::Program;
use armdse_memsim::fasthash::Fnv1a;
use armdse_memsim::MemParams;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::sync::{Mutex, MutexGuard};

/// Running totals of a [`Memoized`] memo's traffic, surfaced through
/// [`SimBackend::reuse_stats`]. Monotone until
/// [`SimBackend::clear_reuse_cache`] resets them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Lookups that found their key (even when the stored design point
    /// differs and the memo answers a miss).
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Runs stored (a run whose key another thread stored first counts
    /// as no insertion).
    pub insertions: u64,
    /// Entries dropped, oldest first, to keep the memo within its bound.
    pub evictions: u64,
}

/// Unread. It was the retirement-interval length of the deleted
/// interval-memoizing design and stays exported only because
/// `benchmark/src/e2e/sweep.rs` passes it to `Engine::memoized`; the
/// next `benchmark` PR drops both.
pub const DEFAULT_INTERVAL_LEN: u64 = 4096;

/// Entry bound of the memo: as many runs as fit in 64 MiB. A
/// single-core plain or metrics [`RunOutput`] owns no heap (no trace,
/// no per-core split), so an entry is its inline bytes — 1 192 for the
/// output and 136 for the two parameter structs — plus about 100 of
/// bookkeeping (allocator header, a map slot and a FIFO slot, each in a
/// table that may be half empty): 64 MiB / 1 428 B ≈ 47 000 runs.
const MEMO_ENTRIES: usize = (64 << 20) / (std::mem::size_of::<Entry>() + 100);

/// The memo key: the program's static identity, the whole design point
/// and the mode (a metrics run carries counters a plain run lacks, so
/// the two never answer each other). The `Debug` renderings cover every
/// field of each — for the lowered program that is ops, loop table and
/// trip counts.
fn run_key(program: &Program, core: &CoreParams, mem: &MemParams, mode: RunMode) -> u64 {
    let mut h = HashWriter(Fnv1a::new());
    write!(h, "{program:?}{core:?}{mem:?}{mode:?}").expect("hashing cannot fail");
    h.0.finish()
}

/// Feeds formatted text straight into the hash: a lowered program
/// renders to tens of kilobytes, and building the `String` first costs
/// as much again as hashing it.
struct HashWriter(Fnv1a);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.bytes(s.as_bytes());
        Ok(())
    }
}

/// One memoized run: its output and the design point it was computed
/// for, which a hit must match.
struct Entry {
    core: CoreParams,
    mem: MemParams,
    out: RunOutput,
}

/// The memo's one lock: the entries (boxed, so a half-empty table's
/// spare slots cost a pointer, not an entry), their FIFO insertion
/// order for eviction, and the traffic counters.
#[derive(Default)]
struct Memo {
    map: HashMap<u64, Box<Entry>>,
    order: VecDeque<u64>,
    stats: ReuseStats,
}

/// Exact run-memoizing wrapper around the one machine, [`MultiCore`].
///
/// A plain or metrics run is one lookup: a hit clones the stored
/// output, a miss runs the machine outside the lock and stores what it
/// returned (runs that hit the cycle limit included — they are as
/// deterministic as any other) unless another thread stored it first.
/// Beyond `capacity` entries the oldest insertion is evicted.
/// [`RunMode::Trace`] bypasses the memo and delegates to the machine:
/// traces are an oracle-only path, large, and never repeated.
pub struct Memoized {
    inner: MultiCore,
    capacity: usize,
    memo: Mutex<Memo>,
}

impl Memoized {
    /// Memoizing wrapper around `inner`.
    pub fn new(inner: MultiCore) -> Memoized {
        Memoized {
            inner,
            capacity: MEMO_ENTRIES,
            memo: Mutex::default(),
        }
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().expect("run memo poisoned")
    }

    /// The output stored under `key`, if it was computed for exactly
    /// this design point. A present key counts as a hit either way.
    fn lookup(&self, key: u64, core: &CoreParams, mem: &MemParams) -> Option<RunOutput> {
        let mut memo = self.memo();
        let Some(entry) = memo.map.get(&key) else {
            memo.stats.misses += 1;
            return None;
        };
        let out = (entry.core == *core && entry.mem == *mem).then(|| entry.out.clone());
        memo.stats.hits += 1;
        out
    }

    /// Store `entry` under `key` unless the key is present, evicting
    /// the oldest insertions to stay within the bound.
    fn insert(&self, key: u64, entry: Entry) {
        let mut memo = self.memo();
        if memo.map.contains_key(&key) {
            return;
        }
        while memo.order.len() >= self.capacity {
            let victim = memo.order.pop_front().expect("order matches map");
            memo.map.remove(&victim);
            memo.stats.evictions += 1;
        }
        memo.order.push_back(key);
        memo.map.insert(key, Box::new(entry));
        memo.stats.insertions += 1;
    }
}

impl SimBackend for Memoized {
    fn name(&self) -> &'static str {
        "memoized"
    }

    fn topology(&self) -> MultiCore {
        self.inner
    }

    fn run(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
        mode: RunMode,
    ) -> RunOutput {
        if mode == RunMode::Trace {
            return self.inner.run(program, core, mem, mode);
        }
        let key = run_key(program, core, mem, mode);
        if let Some(out) = self.lookup(key, core, mem) {
            return out;
        }
        let out = self.inner.run(program, core, mem, mode);
        let entry = Entry {
            core: *core,
            mem: *mem,
            out: out.clone(),
        };
        self.insert(key, entry);
        out
    }

    fn reuse_stats(&self) -> Option<ReuseStats> {
        Some(self.memo().stats)
    }

    fn clear_reuse_cache(&self) {
        *self.memo() = Memo::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
    use crate::stats::SimStats;
    use armdse_kernels::{build_workload, App, WorkloadScale};
    use armdse_memsim::DEFAULT_BANKS;

    const IDEALIZED: MultiCore = MultiCore::IDEALIZED;
    const PROXY: MultiCore = MultiCore {
        cores: 1,
        banks: DEFAULT_BANKS,
    };

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

    /// A memo over the paper's machine bounded at `capacity` entries.
    fn bounded(capacity: usize) -> Memoized {
        Memoized {
            capacity,
            ..Memoized::new(IDEALIZED)
        }
    }

    /// `(hits, misses, insertions, evictions)` of a backend's memo.
    fn counts(b: &dyn SimBackend) -> (u64, u64, u64, u64) {
        let rs = b.reuse_stats().expect("memoized reports reuse stats");
        (rs.hits, rs.misses, rs.insertions, rs.evictions)
    }

    #[test]
    fn memoized_is_bit_identical_to_plain_backends() {
        for app in [App::Stream, App::MiniBude] {
            let (p, c, m) = fixture(app);
            let uncached: [&dyn SimBackend; 2] = [&IDEALIZED, &PROXY];
            let cached: [&dyn SimBackend; 2] = [&Memoized::new(IDEALIZED), &Memoized::new(PROXY)];
            for (&b, &cb) in uncached.iter().zip(&cached) {
                let want = plain(b, &p, &c, &m);
                assert!(want.validated);
                // Cold pass, then a fully warm pass: both bit-identical.
                assert_eq!(plain(cb, &p, &c, &m), want, "{} cold", b.name());
                assert_eq!(plain(cb, &p, &c, &m), want, "{} warm", b.name());
                assert_eq!(counts(cb), (1, 1, 1, 0), "{}", b.name());
            }
        }
    }

    #[test]
    fn memoized_metrics_are_transparent_and_cached() {
        let (p, c, m) = fixture(App::TeaLeaf);
        let mem = Memoized::new(IDEALIZED);
        let (want_stats, want_counters) = metrics(&IDEALIZED, &p, &c, &m);
        let (cold_stats, cold_counters) = metrics(&mem, &p, &c, &m);
        assert_eq!(cold_stats, want_stats);
        assert_eq!(cold_counters, want_counters);
        assert!(cold_counters.conserves());
        let (warm_stats, warm_counters) = metrics(&mem, &p, &c, &m);
        assert_eq!(warm_stats, want_stats);
        assert_eq!(warm_counters, want_counters);
        assert_eq!(counts(&mem), (1, 1, 1, 0), "warm metrics pass must hit");
    }

    #[test]
    fn plain_and_metrics_runs_never_answer_each_other() {
        let (p, c, m) = fixture(App::Stream);
        let pairs: [(&dyn SimBackend, &dyn SimBackend); 2] = [
            (&IDEALIZED, &Memoized::new(IDEALIZED)),
            (&PROXY, &Memoized::new(PROXY)),
        ];
        for (inner, memo) in pairs {
            let modes = [RunMode::Plain, RunMode::Metrics];
            let want = modes.map(|mode| inner.run(&p, &c, &m, mode));
            assert_ne!(want[0], want[1], "a metrics output carries counters");
            // Cold: each mode misses and is stored under its own key...
            for (mode, want) in modes.iter().zip(&want) {
                assert_eq!(&memo.run(&p, &c, &m, *mode), want, "{} cold", inner.name());
            }
            assert_eq!(counts(memo), (0, 2, 2, 0), "{}", inner.name());
            // ...warm: each is answered by its own entry, field for field.
            for (mode, want) in modes.iter().zip(&want) {
                assert_eq!(&memo.run(&p, &c, &m, *mode), want, "{} warm", inner.name());
            }
            assert_eq!(counts(memo), (2, 2, 2, 0), "{}", inner.name());
        }
    }

    #[test]
    fn an_entry_for_another_design_point_under_the_same_key_is_a_miss() {
        let (p, a, m) = fixture(App::Stream);
        let mut b = a;
        b.rob_size += 4;
        let memo = Memoized::new(IDEALIZED);
        let want_a = memo.run(&p, &a, &m, RunMode::Plain);
        let key = run_key(&p, &a, &m, RunMode::Plain);
        assert_ne!(
            key,
            run_key(&p, &b, &m, RunMode::Plain),
            "design point keys"
        );
        assert_eq!(memo.lookup(key, &a, &m), Some(want_a));
        // What a 64-bit collision would look like: A's key, B's point.
        assert_eq!(memo.lookup(key, &b, &m), None);
        let mut m2 = m;
        m2.l1_size_kib *= 2;
        assert_eq!(memo.lookup(key, &a, &m2), None);
    }

    #[test]
    fn a_full_memo_evicts_and_stays_exact() {
        let (p, c, m) = fixture(App::Stream);
        // An 8-entry memo, 12 distinct design points, visited twice in
        // the same order: the worst case for FIFO eviction.
        let memo = bounded(8);
        let points: Vec<CoreParams> = (0..12)
            .map(|i| CoreParams {
                rob_size: c.rob_size + 4 * i,
                ..c
            })
            .collect();
        for pass in ["first", "second"] {
            for core in &points {
                assert_eq!(
                    memo.run(&p, core, &m, RunMode::Plain),
                    IDEALIZED.run(&p, core, &m, RunMode::Plain),
                    "{pass} pass, rob_size {}",
                    core.rob_size
                );
            }
        }
        assert_eq!(counts(&memo), (0, 24, 24, 16));
    }

    #[test]
    fn concurrent_repeats_agree_and_store_one_entry() {
        let (p, c, m) = fixture(App::Stream);
        let want = IDEALIZED.run(&p, &c, &m, RunMode::Plain);
        let memo = Memoized::new(IDEALIZED);
        // All four start the same run together; whatever the
        // interleaving, get-or-insert keeps one entry.
        let gate = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        memo.run(&p, &c, &m, RunMode::Plain)
                    })
                })
                .collect();
            for r in racers {
                assert_eq!(r.join().expect("racer panicked"), want);
            }
        });
        let (hits, misses, insertions, _) = counts(&memo);
        assert_eq!(
            (hits + misses, insertions),
            (4, 1),
            "get-or-insert keeps one"
        );
    }

    #[test]
    fn clear_reuse_cache_forces_cold_start() {
        let (p, c, m) = fixture(App::Stream);
        let mem = Memoized::new(IDEALIZED);
        let want = plain(&mem, &p, &c, &m);
        mem.clear_reuse_cache();
        assert_eq!(counts(&mem), (0, 0, 0, 0), "clear resets counters");
        assert_eq!(plain(&mem, &p, &c, &m), want);
        assert_eq!(counts(&mem), (0, 1, 1, 0), "cleared memo cannot hit");
    }

    #[test]
    fn memoized_name_and_default_methods() {
        let mem = Memoized::new(PROXY);
        assert_eq!(mem.name(), "memoized");
        // The memo reports its inner machine's shape.
        assert_eq!(mem.topology(), PROXY);
        assert_eq!(Memoized::new(IDEALIZED).topology(), IDEALIZED);
        // Plain backends report no reuse stats.
        assert!(IDEALIZED.reuse_stats().is_none());
        IDEALIZED.clear_reuse_cache(); // no-op, must not panic
    }

    #[test]
    fn memoized_traced_runs_are_exact_and_uncached() {
        let (p, c, m) = fixture(App::Stream);
        let mem = Memoized::new(IDEALIZED);
        let (want_stats, want_trace) = traced(&IDEALIZED, &p, &c, &m);
        let (stats, trace) = traced(&mem, &p, &c, &m);
        assert_eq!(stats, want_stats);
        assert_eq!(trace, want_trace);
        assert_eq!(counts(&mem), (0, 0, 0, 0), "traced path bypasses the memo");
    }
}
