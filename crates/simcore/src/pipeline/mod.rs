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
use armdse_isa::{Program, TraceCursor};
use armdse_memsim::Hierarchy;
use lsq::{RequestPlan, SqEntry, EMPTY_SPAN};
use std::collections::VecDeque;

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
    /// One-instruction lookahead between the cursor and fetch.
    pending_fetch: Option<DynInstr>,
    now: u64,

    // Frontend.
    fetch_q: VecDeque<DynInstr>,
    loop_mode: Option<(u64, u64)>,
    loop_candidate: Option<u64>,

    // In-flight window: uops from `window_base` (oldest, next to commit).
    window: VecDeque<Uop>,
    window_base: Seq,
    next_seq: Seq,
    rename: RenameUnit,
    rename_q: VecDeque<Seq>,

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
    port_busy: [Vec<u64>; 4],
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
    sq: VecDeque<SqEntry>,
    /// Conservative bounding box over the byte spans of every store
    /// currently in the SQ: grows on dispatch, resets only when the SQ
    /// drains empty (pops leave it stale-but-conservative). Loads whose
    /// span misses the box provably overlap no store and skip the
    /// store-hazard scan — the common case when a kernel's loads and
    /// stores touch different arrays.
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
    // writeback and LSQ stages allocate nothing in steady state. Both
    // are empty between cycles.
    scratch_woken: Vec<Seq>,
    scratch_pending: VecDeque<Seq>,
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
        let mut cursor = TraceCursor::new(program);
        let pending_fetch = cursor.next_instr();
        Pipeline {
            rename: RenameUnit::new(RegClass::ALL.map(|c| params.phys_regs(c))),
            port_busy: [
                vec![0; PortClass::LoadStore.default_count()],
                vec![0; PortClass::Vector.default_count()],
                vec![0; PortClass::Predicate.default_count()],
                vec![0; PortClass::Scalar.default_count()],
            ],
            params,
            mem,
            cursor,
            pending_fetch,
            now: 0,
            fetch_q: VecDeque::with_capacity(FETCH_QUEUE_CAP),
            loop_mode: None,
            loop_candidate: None,
            window: VecDeque::with_capacity(params.rob_size as usize + RENAME_BUFFER_CAP),
            window_base: 0,
            next_seq: 0,
            rename_q: VecDeque::with_capacity(RENAME_BUFFER_CAP),
            rs_count: 0,
            ready_q: std::array::from_fn(|_| VecDeque::with_capacity(RS_SIZE)),
            rs_ready: 0,
            rob_count: 0,
            done: EventQueue::new(),
            lq_count: 0,
            sq: VecDeque::with_capacity(params.store_queue as usize),
            sq_span: EMPTY_SPAN,
            pending_loads: VecDeque::new(),
            completed_loads: VecDeque::new(),
            log: (mode == RunMode::Trace).then(CommitLog::default),
            counters: (mode == RunMode::Metrics).then(|| Box::new(Counters::new(&params))),
            mem_budget_exhausted: false,
            rename_blocked: false,
            fast_forward: true,
            scratch_woken: Vec::new(),
            scratch_pending: VecDeque::new(),
            scratch_due: Vec::new(),
            stats: SimStats::default(),
        }
    }

    #[inline]
    fn uop(&self, seq: Seq) -> &Uop {
        &self.window[(seq - self.window_base) as usize]
    }

    #[inline]
    fn uop_mut(&mut self, seq: Seq) -> &mut Uop {
        &mut self.window[(seq - self.window_base) as usize]
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
        self.pending_fetch.is_none()
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
                    p.drive_to(cycle_limit(&w.program), u64::MAX);
                    finish(p, &w.program)
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
        /// queues and the store queue as the stages would have left them:
        /// a store past `Issued` has its data ready, one at `Done` is
        /// still uncommitted. Memory ops take `mem`.
        pub(super) fn place(&mut self, op: OpClass, stage: Stage, mem: Option<MemRef>) -> Seq {
            let seq = self.next_seq;
            self.next_seq += 1;
            let plan = match mem {
                Some(m) if op.is_load() => RequestPlan::new(&m, self.mem.line_bytes()),
                _ => RequestPlan::default(),
            };
            self.window.push_back(Uop {
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
            });
            if stage == Stage::Renamed {
                self.rename_q.push_back(seq);
                return seq;
            }
            self.rob_count += 1;
            if stage == Stage::InRs {
                self.rs_count += 1;
                self.push_ready(op.port(), seq);
            }
            if op.is_load() {
                self.lq_count += 1;
            }
            if op.is_store() {
                self.sq_push(seq, &mem.expect("store has mem"));
                self.sq.back_mut().expect("pushed").data_ready =
                    !matches!(stage, Stage::InRs | Stage::Issued);
            }
            seq
        }
    }
}
