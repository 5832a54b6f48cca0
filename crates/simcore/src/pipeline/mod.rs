//! The out-of-order pipeline model.
//!
//! A cycle-driven model of a modern superscalar out-of-order core in the
//! style of SimEng: fetch (fetch-block windows plus a loop buffer), decode/
//! rename (four physical register files with free lists), dispatch into a
//! unified 60-entry reservation station at 4 instructions/cycle, issue to
//! the paper's fixed port layout (3 load/store, 2 vector, 1 predicate,
//! 3 scalar), a load/store queue with store-to-load forwarding and
//! in-order store drain at commit, and in-order commit from the reorder
//! buffer.
//!
//! Branches are resolved at fetch (the instruction stream is the retired
//! path, i.e. perfect branch prediction); the frontend is instead
//! throttled by the fetch-block size, the loop buffer, and the frontend
//! width — the structures the paper varies. This matches the paper's
//! focus: its design space contains no branch-predictor parameters.
//!
//! One module per stage. Each owns the predicate that says whether, and
//! why, it acts this cycle (`dispatch_block`, `rename_block`,
//! `store_drainable`, …); [`Pipeline::step`] runs the stages, the
//! `attribution` module charges the cycle to a bucket from the same
//! predicates, and `fast_forward` skips a cycle only when every stage's
//! own predicate says it would not act.

use crate::backend::RunMode;
use crate::counters::Counters;
use crate::events::EventQueue;
use crate::params::{CoreParams, FETCH_QUEUE_CAP, RENAME_BUFFER_CAP, RS_SIZE};
use crate::regfile::{RenameUnit, RenamedDest, Seq};
use crate::stats::SimStats;
use armdse_isa::instr::{DynInstr, MemRef};
use armdse_isa::op::{OpClass, PortClass};
use armdse_isa::reg::RegClass;
use armdse_isa::{FetchSlot, Program, TraceCursor};
use armdse_memsim::Hierarchy;
use lsq::{RequestPlan, SqEntry, EMPTY_SPAN};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

mod attribution;
mod commit;
mod dispatch;
mod fast_forward;
mod fetch;
#[cfg(feature = "check-invariants")]
mod invariants;
mod lsq;
mod rename;
mod writeback;

/// Lifecycle stage of an in-flight micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Renamed, waiting in the rename buffer for dispatch.
    Renamed,
    /// In the reservation station (ready when `srcs_remaining == 0`).
    InRs,
    /// Issued to a port, executing.
    Issued,
    /// Load: address generated, waiting to issue memory requests.
    PendingMem,
    /// Load: all line requests issued, waiting for data.
    MemWait,
    /// Load: data arrived, waiting for an LSQ completion slot.
    WbWait,
    /// Finished; eligible for commit.
    Done,
}

/// An in-flight micro-op.
#[derive(Debug, Clone)]
struct Uop {
    op: OpClass,
    stage: Stage,
    dests: [RenamedDest; 2],
    ndests: u8,
    srcs_remaining: u8,
    mem: Option<MemRef>,
    /// Loads: the line requests still to issue.
    plan: RequestPlan,
    mem_complete: u64,
    /// The SQ ordinal, given at dispatch, of the store this uop's memory
    /// stage reads: a store's own; a load's youngest older overlapping
    /// store (`None`: no store can block it).
    sq_ord: Option<u64>,
}

/// The in-flight window: uops `base..next`, oldest first, in a ring of
/// `mask + 1` slots (a power of two), uop `seq` at `seq & mask`. Slots
/// outside the live range are stale and never read. The ring is
/// recycled per thread and grows into a slot on its first use.
struct Window {
    ring: Vec<Uop>,
    mask: usize,
    base: Seq,
    next: Seq,
}

thread_local! {
    static RINGS: RefCell<Vec<Vec<Uop>>> = const { RefCell::new(Vec::new()) };
}

impl Window {
    fn new(cap: usize) -> Window {
        Window {
            ring: RINGS.with(|r| r.borrow_mut().pop()).unwrap_or_default(),
            mask: cap.next_power_of_two() - 1,
            base: 0,
            next: 0,
        }
    }

    #[cfg(any(test, feature = "check-invariants"))]
    fn len(&self) -> usize {
        (self.next - self.base) as usize
    }

    fn is_empty(&self) -> bool {
        self.base == self.next
    }

    #[inline]
    fn front(&self) -> Option<&Uop> {
        (!self.is_empty()).then(|| &self[self.base])
    }

    #[cfg(any(test, feature = "check-invariants"))]
    fn iter(&self) -> impl Iterator<Item = &Uop> {
        (self.base..self.next).map(|seq| &self[seq])
    }

    #[inline]
    fn push(&mut self, u: Uop) {
        match self.ring.get_mut(self.next as usize & self.mask) {
            Some(slot) => *slot = u,
            None => self.ring.push(u),
        }
        self.next += 1;
    }
}

impl Index<Seq> for Window {
    type Output = Uop;
    #[inline]
    fn index(&self, seq: Seq) -> &Uop {
        &self.ring[seq as usize & self.mask]
    }
}

impl IndexMut<Seq> for Window {
    #[inline]
    fn index_mut(&mut self, seq: Seq) -> &mut Uop {
        &mut self.ring[seq as usize & self.mask]
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        let ring = std::mem::take(&mut self.ring);
        let _ = RINGS.try_with(|r| r.borrow_mut().push(ring));
    }
}

#[cfg(feature = "check-invariants")]
thread_local! {
    static FAST_FORWARD: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };
}

/// Whether machines built on this thread from now on skip idle cycles
/// (the default) or step every one; the fuzz lane runs both to check
/// that the skip is exact. `check-invariants` builds only.
#[cfg(feature = "check-invariants")]
pub fn set_fast_forward(on: bool) {
    FAST_FORWARD.with(|f| f.set(on));
}

/// Commit-order record of retired instructions, kept only when tracing
/// is enabled ([`RunMode::Trace`]). `pending` mirrors the
/// in-flight window (pushed at rename, popped at commit), so `committed`
/// is exactly the architectural retirement stream the oracle replays.
#[derive(Debug, Default)]
struct CommitLog {
    pending: VecDeque<DynInstr>,
    committed: Vec<DynInstr>,
}

impl CommitLog {
    // Oracle runs only: kept out of the rename and commit loops.
    #[cold]
    #[inline(never)]
    fn renamed(&mut self, di: DynInstr) {
        self.pending.push_back(di);
    }

    #[cold]
    #[inline(never)]
    fn retired(&mut self) {
        let di = self.pending.pop_front().expect("renamed before commit");
        self.committed.push(di);
    }
}

/// The pipeline state machine.
pub(crate) struct Pipeline<'p> {
    params: CoreParams,
    mem: Hierarchy,
    cursor: TraceCursor<'p>,
    now: u64,

    // Frontend.
    fetch_q: VecDeque<FetchSlot>,
    loop_mode: Option<(u64, u64)>,
    loop_candidate: Option<u64>,

    /// Renamed, not yet retired uops: the ROB, then (dispatch being in
    /// order) the rename buffer.
    window: Window,
    rename: RenameUnit,

    // Backend.
    /// Reservation-station occupancy (uops in [`Stage::InRs`]). The RS
    /// itself is represented by the per-class ready queues plus the
    /// not-yet-ready uops' window entries — no central entry list is
    /// scanned on the issue path.
    rs_count: u32,
    /// Per port class: RS entries whose sources are all resolved, in age
    /// (sequence) order. Issue pops from the front while ports are free;
    /// a ready uop that misses a port simply stays queued, so a cycle's
    /// issue work is O(issued), never O(RS). Port classes contend only
    /// within themselves, so per-class age order issues the same uops to
    /// the same ports as the old oldest-first scan of the whole RS.
    ready_q: [VecDeque<Seq>; 4],
    /// Total ready RS entries (sum of `ready_q` lengths), kept for the
    /// O(1) issue early-out and the fast-forward legality check.
    rs_ready: u32,
    rob_count: u32,
    /// Per port class, per port: the cycle the port frees. A class has
    /// at most three ports; the slots it lacks are busy forever.
    port_busy: [[u64; 3]; 4],
    /// Single completion-timer queue for both event kinds: execution
    /// completions (uop stage [`Stage::Issued`]) and memory completions
    /// (stage [`Stage::MemWait`]). The kind is recovered from the uop's
    /// stage at drain time; sharing one queue halves the per-cycle
    /// drain/peek overhead. Merging is timing-exact: the two kinds feed
    /// different queues (`pending_loads` vs `completed_loads`), each of
    /// which still receives its events in ascending `(t, seq)` order,
    /// and wakeup order within a cycle is commutative (ready-queue
    /// inserts are age-sorted).
    done: EventQueue,

    // LSQ.
    lq_count: u32,
    /// In program order: entry `i` has ordinal `sq_popped + i`.
    sq: VecDeque<SqEntry>,
    /// SQ entries drained so far: a lower ordinal has drained.
    sq_popped: u64,
    /// Conservative bounding box over the byte spans of every store
    /// currently in the SQ: grows on dispatch, resets only when the SQ
    /// drains empty (pops leave it stale-but-conservative). A load
    /// dispatched with its span outside the box overlaps no queued store
    /// and skips the one SQ walk that finds its hazard store.
    sq_span: (u64, u64),
    pending_loads: VecDeque<Seq>,
    completed_loads: VecDeque<Seq>,

    /// Commit-order trace, kept only under [`RunMode::Trace`].
    log: Option<CommitLog>,

    /// Cycle-accounting counters, enabled only via
    /// [`RunMode::Metrics`]. `None` is the zero-cost default:
    /// the attribution pass is skipped entirely. Collection is read-only
    /// with respect to architectural and timing state.
    counters: Option<Box<Counters>>,
    /// Attribution breadcrumb: a load was deferred this cycle because a
    /// per-cycle memory request/bandwidth budget ran out (set by
    /// `lsq_memory`, read at the commit edge of the same cycle).
    mem_budget_exhausted: bool,
    /// Attribution breadcrumb: rename was blocked on an empty free list
    /// during the *previous* cycle's rename stage (rename runs after the
    /// attribution point, so the flag is consumed one cycle later).
    rename_blocked: bool,

    /// Skip provably idle cycles in bulk (see `try_fast_forward`).
    /// Always on; the twin tests below clear it to compare.
    fast_forward: bool,

    // Per-cycle scratch buffers, hoisted out of the hot loop so the
    // writeback stage allocates nothing in steady state. Both are empty
    // between cycles.
    scratch_woken: Vec<Seq>,
    scratch_due: Vec<(u64, Seq)>,

    stats: SimStats,
}

impl<'p> Pipeline<'p> {
    /// A cold pipeline over `program`, observing what `mode` asks for:
    /// under [`RunMode::Trace`] the commit-order retirement stream the
    /// oracle replays, under [`RunMode::Metrics`] the [`Counters`] that
    /// attribute every cycle to exactly one bucket. Neither changes the
    /// run's timing or statistics.
    pub(crate) fn new(
        program: &'p Program,
        params: &CoreParams,
        mem: Hierarchy,
        mode: RunMode,
    ) -> Pipeline<'p> {
        params.validate().expect("core parameters must validate");
        let params = *params;
        Pipeline {
            rename: RenameUnit::new(RegClass::ALL.map(|c| params.phys_regs(c))),
            port_busy: [
                PortClass::LoadStore,
                PortClass::Vector,
                PortClass::Predicate,
                PortClass::Scalar,
            ]
            .map(|c| std::array::from_fn(|i| if i < c.default_count() { 0 } else { u64::MAX })),
            params,
            mem,
            cursor: TraceCursor::new(program),
            now: 0,
            fetch_q: VecDeque::with_capacity(FETCH_QUEUE_CAP),
            loop_mode: None,
            loop_candidate: None,
            window: Window::new(params.rob_size as usize + RENAME_BUFFER_CAP),
            rs_count: 0,
            ready_q: std::array::from_fn(|_| VecDeque::with_capacity(RS_SIZE)),
            rs_ready: 0,
            rob_count: 0,
            done: EventQueue::new(),
            lq_count: 0,
            sq: VecDeque::with_capacity(params.store_queue as usize),
            sq_popped: 0,
            sq_span: EMPTY_SPAN,
            pending_loads: VecDeque::new(),
            completed_loads: VecDeque::new(),
            log: (mode == RunMode::Trace).then(CommitLog::default),
            counters: (mode == RunMode::Metrics).then(|| Box::new(Counters::new(&params))),
            mem_budget_exhausted: false,
            rename_blocked: false,
            #[cfg(not(feature = "check-invariants"))]
            fast_forward: true,
            #[cfg(feature = "check-invariants")]
            fast_forward: FAST_FORWARD.get(),
            scratch_woken: Vec::new(),
            scratch_due: Vec::new(),
            stats: SimStats::default(),
        }
    }

    /// Uops renamed, not dispatched: the window's tail past the ROB.
    #[inline]
    fn renamed_len(&self) -> usize {
        (self.window.next - self.window.base) as usize - self.rob_count as usize
    }

    /// The oldest renamed, undispatched uop.
    #[inline]
    fn renamed_front(&self) -> Option<Seq> {
        let seq = self.window.base + Seq::from(self.rob_count);
        (seq < self.window.next).then_some(seq)
    }

    #[inline]
    fn uop(&self, seq: Seq) -> &Uop {
        &self.window[seq]
    }

    #[inline]
    fn uop_mut(&mut self, seq: Seq) -> &mut Uop {
        &mut self.window[seq]
    }

    /// The one cycle loop: step until the run finishes or the clock
    /// reaches `cycle_target`, pausing only between cycles, never inside
    /// one. `max_cycles` guards against modelling deadlocks — if it
    /// fires, `hit_cycle_limit` is set and the run must be discarded
    /// (failed validation). The epilogue (`cycles = now`, memory stats
    /// copy) is idempotent, so a run driven as any sequence of segments
    /// performs *exactly* the cycle steps of one uninterrupted run.
    ///
    /// The multicore slice loop drives every core to the same global
    /// `cycle_target` before any core proceeds past it. The fast-forward
    /// jump is clamped to that boundary, and the clamp is timing-exact:
    /// the bulk advance is linear in the number of skipped cycles, so
    /// two clamped jumps accumulate exactly what one unclamped jump
    /// would.
    pub(crate) fn drive_to(&mut self, max_cycles: u64, cycle_target: u64) {
        let bound = max_cycles.min(cycle_target);
        while !self.finished() && self.now < bound {
            if !(self.fast_forward && self.try_fast_forward(bound)) {
                self.step();
            }
        }
        // Stopped short of both the end of the run and the slice
        // boundary: the deadlock guard fired.
        if !self.finished() && self.now < cycle_target {
            self.stats.hit_cycle_limit = true;
        }
        self.stats.cycles = self.now;
        self.stats.mem = *self.mem.stats();
    }

    /// Take the commit-order retirement stream (`None` when tracing was
    /// never enabled).
    pub(crate) fn take_trace(&mut self) -> Option<Vec<DynInstr>> {
        self.log.take().map(|l| l.committed)
    }

    /// The statistics accumulated so far. Between
    /// [`drive_to`](Self::drive_to) calls the epilogue has run, so
    /// `cycles` and `mem` are current.
    pub(crate) fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Take the counters with `cycles`/`loop_buffer_cycles` fixed up to
    /// the statistics. `None` when counters were never enabled.
    /// Conservation holds only once the run is finished (every elapsed
    /// cycle has been attributed).
    pub(crate) fn take_counters_finalized(&mut self) -> Option<Box<Counters>> {
        let mut c = self.counters.take()?;
        c.cycles = self.stats.cycles;
        c.loop_buffer_cycles = self.stats.stalls.loop_buffer_cycles;
        debug_assert!(
            !self.finished() || c.conserves(),
            "cycle attribution leaked a cycle"
        );
        Some(c)
    }

    /// Whether the run has completed (all instructions fetched, retired,
    /// and every store drained to memory).
    pub(crate) fn finished(&self) -> bool {
        !self.cursor.has_next()
            && self.fetch_q.is_empty()
            && self.window.is_empty()
            && self.sq.is_empty()
    }

    /// Advance one core cycle: the stages in reverse pipeline order, with
    /// the cycle attributed at the commit edge (docs/METRICS.md §3.1).
    fn step(&mut self) {
        self.writeback();
        self.lsq_memory();
        let (retired, first_op) = self.commit();
        if self.counters.is_some() {
            self.attribute_cycles(1, retired, first_op);
        }
        self.issue();
        self.dispatch();
        self.rename_stage();
        self.fetch();
        self.now += 1;
        #[cfg(feature = "check-invariants")]
        self.check_invariants();
    }
}

#[cfg(test)]
mod tests {
    //! The idle-cycle fast-forward is timing-exact: a pipeline with
    //! `fast_forward` cleared must end with the same `SimStats` and
    //! finalized `Counters`, for every app, in plain and metrics mode.
    //! Every dataset and metrics-CSV byte of a campaign is a function of
    //! those two values (`Engine::run_job`), so this also pins the
    //! campaign bytes. The points are the six crippled ones of
    //! `tests/metrics_accounting.rs`, each starving a different structure
    //! (so each exercises a different idle shape), and six spread over
    //! Table II.
    //!
    //! The stage modules' own tests build machine states by hand with
    //! [`machine`] and [`Pipeline::place`].

    use super::*;
    use crate::backend::finish;
    use crate::cycle_limit;
    use armdse_isa::instr::{MemKind, MemPattern};
    use armdse_isa::kir::{Kernel, Stmt};
    use armdse_isa::{InstrTemplate, Reg};
    use armdse_kernels::{build_workload, App, WorkloadScale};
    use armdse_memsim::{Backside, MemParams};

    fn assert_exact(core: CoreParams, mem: MemParams) {
        for app in App::ALL {
            let w = build_workload(app, WorkloadScale::Tiny, core.vector_length);
            for mode in [RunMode::Plain, RunMode::Metrics] {
                let run = |fast_forward| {
                    let mut p = Pipeline::new(
                        &w.program,
                        &core,
                        Hierarchy::new(Backside::shared(mem, 0), 0),
                        mode,
                    );
                    p.fast_forward = fast_forward;
                    p.drive_to(cycle_limit(&w.summary), u64::MAX);
                    finish(p, &w.summary)
                };
                let (on, off) = (run(true), run(false));
                assert!(on.stats.validated, "{app:?}/{mode:?} failed validation");
                assert_eq!(on, off, "{app:?}/{mode:?}: fast-forward changed the run");
                if let Some(c) = &on.counters {
                    assert!(c.conserves(), "{app:?}: attribution leak");
                }
            }
        }
    }

    fn tx2() -> (CoreParams, MemParams) {
        (CoreParams::thunderx2(), MemParams::thunderx2())
    }

    #[test]
    fn tiny_rob() {
        let (mut core, mem) = tx2();
        core.rob_size = 8;
        assert_exact(core, mem);
    }

    #[test]
    fn tiny_lsq() {
        let (mut core, mem) = tx2();
        core.load_queue = 4;
        core.store_queue = 4;
        assert_exact(core, mem);
    }

    #[test]
    fn narrow() {
        let (mut core, mem) = tx2();
        core.commit_width = 1;
        core.frontend_width = 1;
        assert_exact(core, mem);
    }

    #[test]
    fn few_regs() {
        let (mut core, mem) = tx2();
        core.gp_regs = 40;
        core.fp_regs = 40;
        assert_exact(core, mem);
    }

    #[test]
    fn choked_mem() {
        let (mut core, mem) = tx2();
        core.mem_requests_per_cycle = 1;
        core.loads_per_cycle = 1;
        core.stores_per_cycle = 1;
        assert_exact(core, mem);
    }

    #[test]
    fn slow_ram() {
        let (core, mut mem) = tx2();
        mem.ram_access_ns = 500.0;
        assert_exact(core, mem);
    }

    /// The widest bandwidths, so every vector length validates.
    fn wide() -> (CoreParams, MemParams) {
        let (mut core, mem) = tx2();
        core.load_bandwidth = 512;
        core.store_bandwidth = 512;
        (core, mem)
    }

    #[test]
    fn shortest_vectors() {
        let (mut core, mem) = wide();
        core.vector_length = 128;
        assert_exact(core, mem);
    }

    #[test]
    fn longest_vectors() {
        let (mut core, mem) = wide();
        core.vector_length = 2048;
        assert_exact(core, mem);
    }

    #[test]
    fn smallest_caches() {
        let (core, mut mem) = tx2();
        mem.l1_size_kib = 2;
        mem.l2_size_kib = 64;
        assert_exact(core, mem);
    }

    #[test]
    fn largest_caches() {
        let (core, mut mem) = tx2();
        mem.l1_size_kib = 128;
        mem.l2_size_kib = 8192;
        assert_exact(core, mem);
    }

    #[test]
    fn smallest_rob_longest_vectors() {
        let (mut core, mem) = wide();
        core.rob_size = 8;
        core.vector_length = 2048;
        assert_exact(core, mem);
    }

    #[test]
    fn largest_rob() {
        let (mut core, mem) = tx2();
        core.rob_size = 512;
        assert_exact(core, mem);
    }

    /// Drive `app` at Tiny to its end as `drive_to` does, counting the
    /// cycles stepped one by one: `(cycles, stepped)`.
    fn stepped(core: CoreParams, mem: MemParams, app: App) -> (u64, u64) {
        let w = build_workload(app, WorkloadScale::Tiny, core.vector_length);
        let mem = Hierarchy::new(Backside::shared(mem, 0), 0);
        let mut p = Pipeline::new(&w.program, &core, mem, RunMode::Plain);
        let mut stepped = 0;
        while !p.finished() {
            if !p.try_fast_forward(u64::MAX) {
                p.step();
                stepped += 1;
            }
        }
        (p.now, stepped)
    }

    /// The work the fast-forward saves, pinned in counts rather than
    /// host time: ThunderX2 for every app, and STREAM on the paper's
    /// space sampled at seed 2024, where its loads park on stores
    /// (without the skip over parked loads it steps all 371 cycles).
    #[test]
    fn each_apps_stepped_cycles_are_pinned() {
        let (core, mem) = tx2();
        let counts = App::ALL.map(|app| stepped(core, mem, app));
        assert_eq!(counts, [(857, 279), (402, 179), (1458, 529), (382, 157)]);
        let core = CoreParams {
            vector_length: 512,
            fetch_block_bytes: 16,
            loop_buffer_size: 125,
            gp_regs: 232,
            fp_regs: 392,
            pred_regs: 424,
            cond_regs: 504,
            commit_width: 43,
            frontend_width: 7,
            lsq_completion_width: 25,
            rob_size: 304,
            load_queue: 420,
            store_queue: 276,
            load_bandwidth: 256,
            store_bandwidth: 128,
            mem_requests_per_cycle: 28,
            loads_per_cycle: 12,
            stores_per_cycle: 9,
        };
        let mem = MemParams {
            line_bytes: 256,
            l1_size_kib: 64,
            l1_assoc: 8,
            l1_latency: 3,
            l1_clock_ghz: 2.5,
            l2_size_kib: 1024,
            l2_assoc: 8,
            l2_latency: 4,
            l2_clock_ghz: 1.5,
            ram_access_ns: 111.0,
            ram_clock_ghz: 1.6,
            prefetch_depth: 3,
        };
        assert_eq!(stepped(core, mem, App::Stream), (371, 84));
    }

    // ------------------------------------------------- recycled storage

    /// A machine built on a thread that has run others reuses their
    /// storage: cache tags, merge windows, rename files, event wheels.
    /// The reuse must be invisible. A pipeline is stopped at its cycle
    /// limit mid-flight on the largest geometry (an 8 MiB L2 and a 128
    /// KiB L1 at 16 B lines), and then each run of a sequence that
    /// leaves the storage dirty in another way (wedged, smaller, lined
    /// differently, the 2-core machine before and after the paper's)
    /// must equal the same run on a fresh thread, whose free lists are
    /// empty.
    #[test]
    fn recycled_runs_equal_fresh_thread_runs() {
        use crate::multicore::MultiCore;
        use crate::SimBackend;
        let (core, tx2) = tx2();
        let largest = MemParams {
            l1_size_kib: 128,
            l2_size_kib: 8192,
            line_bytes: 16,
            ..tx2
        };
        let w = build_workload(App::Stream, WorkloadScale::Tiny, core.vector_length);
        let mut p = Pipeline::new(
            &w.program,
            &core,
            Hierarchy::new(Backside::shared(largest, 0), 0),
            RunMode::Plain,
        );
        // The first limit at which an execution completion (always a
        // wheel event) and a queued store are both pending.
        let mut limit = 300;
        p.drive_to(limit, u64::MAX);
        while p.sq.is_empty() || !p.window.iter().any(|u| u.stage == Stage::Issued) {
            limit += 1;
            p.drive_to(limit, u64::MAX);
        }
        assert!(p.stats.hit_cycle_limit && p.done.next_time().is_some());
        drop(p);

        // Latencies far past the CPI guard: the run stops at its cycle
        // limit with loads in flight and stores queued.
        let wedged = MemParams {
            l1_latency: 100_000,
            l2_latency: 200_000,
            ..largest
        };
        let small = MemParams {
            l1_size_kib: 4,
            l2_size_kib: 64,
            line_bytes: 128,
            ..tx2
        };
        let (ideal, duo) = (MultiCore::IDEALIZED, MultiCore::new(2, 4));
        let sequence = [
            (ideal, App::TeaLeaf, WorkloadScale::Small, largest),
            (ideal, App::Stream, WorkloadScale::Tiny, wedged),
            (ideal, App::MiniSweep, WorkloadScale::Tiny, small),
            (ideal, App::MiniBude, WorkloadScale::Tiny, tx2),
            (ideal, App::Stream, WorkloadScale::Tiny, largest),
            (duo, App::TeaLeaf, WorkloadScale::Tiny, tx2),
            (ideal, App::TeaLeaf, WorkloadScale::Tiny, tx2),
            (duo, App::Stream, WorkloadScale::Tiny, wedged),
            (duo, App::MiniSweep, WorkloadScale::Tiny, small),
        ];
        let run = move |i: usize, mode| {
            let (machine, app, scale, mem) = sequence[i];
            let w = build_workload(app, scale, core.vector_length);
            machine.run(&w.program, &core, &mem, mode)
        };
        for mode in [RunMode::Plain, RunMode::Metrics, RunMode::Trace] {
            for (i, &(machine, app, _, mem)) in sequence.iter().enumerate() {
                let recycled = run(i, mode);
                let fresh = std::thread::spawn(move || run(i, mode)).join().unwrap();
                assert_eq!(recycled, fresh, "run {i} ({machine:?} {app:?} {mode:?})");
                let wedges = mem.l1_latency == wedged.l1_latency;
                assert_eq!(recycled.stats.hit_cycle_limit, wedges, "run {i}");
                assert_eq!(recycled.stats.validated, !wedges, "run {i}");
            }
        }
    }

    // ------------------------------------------------------ window ring

    /// Sequence numbers run twenty times round the window's ring, whose
    /// 32 slots are exactly a 16-entry ROB plus the rename buffer, and
    /// the ring is full whenever a divide holds commit up: no two
    /// in-flight uops may share a slot, so every retired op is the one
    /// renamed (the observed mix is the program's, divides included).
    #[test]
    fn the_window_wraps_its_ring_through_full_occupancy() {
        let div = InstrTemplate::compute(OpClass::IntDiv, &[Reg::gp(0)], &[Reg::gp(0)]);
        let mut body = vec![Stmt::Instr(div)];
        body.extend((1..14).map(|i| {
            let alu = InstrTemplate::compute(OpClass::IntAlu, &[Reg::gp(i)], &[Reg::gp(16)]);
            Stmt::Instr(alu)
        }));
        let program = Program::lower(&Kernel::new("ring", vec![Stmt::repeat(40, body)]));
        let core = CoreParams {
            rob_size: 16,
            ..CoreParams::thunderx2()
        };
        let mem = Hierarchy::new(Backside::shared(MemParams::thunderx2(), 0), 0);
        let mut p = Pipeline::new(&program, &core, mem, RunMode::Plain);
        let cap = p.window.mask + 1;
        assert_eq!(cap, 16 + RENAME_BUFFER_CAP);
        let mut full = 0;
        while !p.finished() {
            p.step();
            let w = &p.window;
            full += u32::from(w.len() == cap);
        }
        assert!(full > 40, "the ring filled in only {full} cycles");
        assert_eq!(p.window.next, 640);
        assert_eq!(p.stats.observed, armdse_isa::OpSummary::of(&program));
    }

    // ------------------------------------------ hand-built machine states

    /// A ThunderX2 core over the default hierarchy, before cycle 0, about
    /// to fetch `n` independent ALU instructions (none when `n == 0`).
    pub(super) fn machine(n: usize) -> Pipeline<'static> {
        let body = (0..n)
            .map(|i| {
                let (d, s) = (Reg::gp(i as u8 % 8), Reg::gp(8 + i as u8 % 8));
                Stmt::Instr(InstrTemplate::compute(OpClass::IntAlu, &[d], &[s]))
            })
            .collect();
        let program = Box::leak(Box::new(Program::lower(&Kernel::new("hand", body))));
        let mem = Hierarchy::new(Backside::shared(MemParams::thunderx2(), 0), 0);
        Pipeline::new(program, &CoreParams::thunderx2(), mem, RunMode::Plain)
    }

    /// Attribute cycles from here on (a `RunMode::Metrics` run).
    pub(super) fn count_cycles(p: &mut Pipeline<'static>) {
        p.counters = Some(Box::new(Counters::new(&p.params)));
    }

    /// A contiguous access of `bytes` at `addr`.
    pub(super) fn access(kind: MemKind, addr: u64, bytes: u32) -> MemRef {
        MemRef {
            addr,
            bytes,
            kind,
            pattern: MemPattern::Contiguous,
        }
    }

    impl Pipeline<'static> {
        /// Append a uop of class `op` (with no register operands) to the
        /// window in `stage`, keeping every occupancy count, the ready
        /// queues, the store queue and a load's remembered store as the
        /// stages would have left them: a store past `Issued` has its
        /// data ready, one at `Done` is still uncommitted. Memory ops
        /// take `mem`.
        pub(super) fn place(&mut self, op: OpClass, stage: Stage, mem: Option<MemRef>) -> Seq {
            // The ROB is the window's head and the rename buffer its tail.
            assert!(
                stage == Stage::Renamed || self.renamed_len() == 0,
                "place ROB uops before renamed ones"
            );
            let seq = self.window.next;
            let plan = match mem {
                Some(m) if op.is_load() => RequestPlan::new(&m, self.mem.line_bytes()),
                _ => RequestPlan::default(),
            };
            self.window.push(Uop {
                op,
                stage,
                dests: [RenamedDest {
                    class: armdse_isa::reg::RegClass::Gp,
                    phys: 0,
                    prev: 0,
                }; 2],
                ndests: 0,
                srcs_remaining: 0,
                mem,
                plan,
                mem_complete: 0,
                sq_ord: None,
            });
            if stage == Stage::Renamed {
                return seq;
            }
            self.rob_count += 1;
            if stage == Stage::InRs {
                self.rs_count += 1;
                self.push_ready(op.port(), seq);
            }
            if op.is_load() {
                self.lq_push(seq, &mem.expect("load has mem"));
            }
            if op.is_store() {
                let ord = self.sq_push(seq, &mem.expect("store has mem"));
                self.uop_mut(seq).sq_ord = Some(ord);
                self.sq.back_mut().expect("pushed").data_ready =
                    !matches!(stage, Stage::InRs | Stage::Issued);
            }
            seq
        }
    }
}
