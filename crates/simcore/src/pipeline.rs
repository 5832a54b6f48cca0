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

use crate::counters::{Counters, CycleBucket, Structure};
use crate::events::EventQueue;
use crate::params::{
    CoreParams, DISPATCH_RATE, FETCH_QUEUE_CAP, MIN_FORWARD_LATENCY, RENAME_BUFFER_CAP, RS_SIZE,
};
use crate::regfile::{RenameUnit, RenamedDest, Seq};
use crate::stats::SimStats;
use armdse_isa::instr::{DynInstr, MemPattern, MemRef};
use armdse_isa::op::{OpClass, PortClass};
use armdse_isa::reg::RegClass;
use armdse_isa::{Program, TraceCursor, INSTR_BYTES};
use armdse_memsim::{split_lines, MemoryModel};
use std::collections::VecDeque;

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
    /// Memory request-issue state: next request address, requests left,
    /// byte step between requests (line width for contiguous accesses,
    /// element stride for gathers), and bandwidth debit per request.
    next_addr: u64,
    reqs_left: u16,
    req_step: i64,
    bytes_share: u32,
    mem_complete: u64,
}

/// A store-queue entry (lives from dispatch until drained to memory).
#[derive(Debug, Clone, Copy)]
struct SqEntry {
    seq: Seq,
    /// Base address and the span of bytes the store may touch.
    span_lo: u64,
    span_hi: u64,
    /// Whether the store is a scatter (no forwarding from scatters).
    scattered: bool,
    /// Store executed: address and data known (forwarding possible).
    data_ready: bool,
    /// Store committed: eligible to drain.
    committed: bool,
    /// Drain state (mirrors the load-side request plan).
    next_addr: u64,
    reqs_left: u16,
    req_step: i64,
    bytes_share: u32,
}

impl SqEntry {
    fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.span_lo < hi && lo < self.span_hi
    }

    fn covers(&self, lo: u64, hi: u64) -> bool {
        !self.scattered && self.span_lo <= lo && self.span_hi >= hi
    }
}

/// Request-issue plan for a memory access: (first request address,
/// request count, byte step between requests, bandwidth debit/request).
fn request_plan(m: &MemRef, line_bytes: u32) -> (u64, u16, i64, u32) {
    match m.pattern {
        MemPattern::Contiguous => {
            let lines = split_lines(m.addr, m.bytes, line_bytes).count() as u16;
            (
                m.addr & !(u64::from(line_bytes) - 1),
                lines,
                i64::from(line_bytes),
                m.bytes.div_ceil(u32::from(lines)),
            )
        }
        MemPattern::Strided {
            elem_bytes,
            stride,
            count,
        } => {
            // One request per element: the defining gather/scatter cost.
            (m.addr, count as u16, stride, elem_bytes)
        }
    }
}

/// Byte span `[lo, hi)` an access may touch.
fn span_of(m: &MemRef) -> (u64, u64) {
    match m.pattern {
        MemPattern::Contiguous => (m.addr, m.addr + u64::from(m.bytes)),
        MemPattern::Strided {
            elem_bytes,
            stride,
            count,
        } => {
            let last = m.addr as i64 + stride * (i64::from(count) - 1);
            let lo = (m.addr as i64).min(last).max(0) as u64;
            let hi = (m.addr as i64).max(last) as u64 + u64::from(elem_bytes);
            (lo, hi)
        }
    }
}

/// Commit-order record of retired instructions, kept only when tracing
/// is enabled (see [`Pipeline::enable_trace`]). `pending` mirrors the
/// in-flight window (pushed at rename, popped at commit), so `committed`
/// is exactly the architectural retirement stream the oracle replays.
#[derive(Debug, Default)]
struct CommitLog {
    pending: VecDeque<DynInstr>,
    committed: Vec<DynInstr>,
}

/// The pipeline state machine.
pub(crate) struct Pipeline<'p, M: MemoryModel> {
    params: CoreParams,
    mem: M,
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

    /// Commit-order trace, enabled only via [`Pipeline::enable_trace`].
    log: Option<CommitLog>,

    /// Cycle-accounting counters, enabled only via
    /// [`Pipeline::enable_counters`]. `None` is the zero-cost default:
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
    /// Always on; the unit tests below clear it to compare.
    fast_forward: bool,

    // Per-cycle scratch buffers, hoisted out of the hot loop so the
    // writeback and LSQ stages allocate nothing in steady state. Both
    // are empty between cycles.
    scratch_woken: Vec<Seq>,
    scratch_pending: VecDeque<Seq>,
    scratch_due: Vec<(u64, Seq)>,

    stats: SimStats,
}

impl<'p, M: MemoryModel> Pipeline<'p, M> {
    /// Build a pipeline over `program` with the given core configuration
    /// and memory backend.
    pub(crate) fn new(program: &'p Program, params: CoreParams, mem: M) -> Pipeline<'p, M> {
        debug_assert!(params.validate().is_ok(), "invalid CoreParams");
        let phys = [
            params.gp_regs,
            params.fp_regs,
            params.pred_regs,
            params.cond_regs,
        ];
        let mut cursor = TraceCursor::new(program);
        let pending_fetch = cursor.next_instr();
        Pipeline {
            rename: RenameUnit::new(phys),
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
            sq_span: (u64::MAX, 0),
            pending_loads: VecDeque::new(),
            completed_loads: VecDeque::new(),
            log: None,
            counters: None,
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
    /// performs *exactly* the cycle steps of one uninterrupted
    /// [`drive`](Self::drive).
    fn drive_to(&mut self, max_cycles: u64, cycle_target: u64) {
        let ff_bound = max_cycles.min(cycle_target);
        while !self.finished() {
            // In the body, not the `while` condition: the same two
            // tests, but the whole inlined cycle compiles 3 % faster
            // this way round (`paper_grid`, `mc2_sweep`).
            if self.now >= cycle_target {
                break;
            }
            if self.now >= max_cycles {
                self.stats.hit_cycle_limit = true;
                break;
            }
            if self.fast_forward && self.try_fast_forward(ff_bound) {
                continue;
            }
            self.step();
        }
        self.stats.cycles = self.now;
        self.stats.mem = *self.mem.stats();
    }

    /// Drive to completion (or `max_cycles`).
    pub(crate) fn drive(&mut self, max_cycles: u64) {
        self.drive_to(max_cycles, u64::MAX);
    }

    /// Drive until the global clock reaches `cycle_target` (or the run
    /// finishes / hits `max_cycles`), then pause — the multicore slice
    /// loop's primitive: every core is advanced to the same global
    /// cycle boundary before any core proceeds past it.
    ///
    /// The fast-forward jump is clamped to the slice boundary. The
    /// clamp is timing-exact: the bulk advance is linear in the number
    /// of skipped cycles, so two clamped jumps accumulate exactly what
    /// one unclamped jump would.
    pub(crate) fn drive_until_cycle(&mut self, max_cycles: u64, cycle_target: u64) {
        self.drive_to(max_cycles, cycle_target);
    }

    /// Record every instruction in commit (i.e. program) order; the
    /// oracle replays this stream with value semantics to check the
    /// core's architectural behaviour. Must be called before the first
    /// cycle so the trace is complete.
    pub(crate) fn enable_trace(&mut self) {
        debug_assert_eq!(self.now, 0, "tracing must be enabled before cycle 0");
        self.log = Some(CommitLog::default());
    }

    /// Take the commit-order retirement stream (`None` when tracing was
    /// never enabled).
    pub(crate) fn take_trace(&mut self) -> Option<Vec<DynInstr>> {
        self.log.take().map(|l| l.committed)
    }

    /// Whether the run has completed (all instructions fetched, retired,
    /// and every store drained to memory).
    pub(crate) fn is_finished(&self) -> bool {
        self.finished()
    }

    /// The statistics accumulated so far. Between
    /// [`drive_until_cycle`](Self::drive_until_cycle) calls the
    /// epilogue has run, so `cycles` and `mem` are current.
    pub(crate) fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Enable cycle accounting: every cycle is attributed to exactly one
    /// [`CycleBucket`] and structure occupancies are sampled at the
    /// commit edge. Timing and statistics are identical to an uncounted
    /// run (the collection path never mutates architectural state).
    /// Must be called before the first cycle; enabling mid-run would
    /// leave earlier cycles unattributed and break conservation.
    pub(crate) fn enable_counters(&mut self) {
        debug_assert_eq!(self.now, 0, "counters must be enabled before cycle 0");
        self.counters = Some(Box::new(Counters::new(&self.params)));
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

    fn finished(&self) -> bool {
        self.pending_fetch.is_none()
            && self.fetch_q.is_empty()
            && self.window.is_empty()
            && self.sq.is_empty()
    }

    /// Advance one core cycle.
    pub(crate) fn step(&mut self) {
        self.writeback();
        self.lsq_memory();
        let (retired, first_op) = self.commit();
        if self.counters.is_some() {
            self.attribute_cycle(retired, first_op);
        }
        self.issue();
        self.dispatch();
        self.rename_stage();
        self.fetch();
        self.now += 1;
        #[cfg(feature = "check-invariants")]
        self.check_invariants();
    }

    // --------------------------------------------------- fast-forward

    /// Skip provably idle cycles in bulk. Returns `true` if at least
    /// one cycle was skipped (the caller then re-enters the drive loop
    /// at the next timer event instead of stepping).
    ///
    /// A cycle is *provably idle* when every stage of [`step`](Self::step)
    /// can be shown, from the pre-cycle state alone, to make no state
    /// change other than per-cycle stall accounting:
    ///
    /// * **writeback** — no completion (`done`) event is due and the
    ///   LSQ completion queue is empty;
    /// * **LSQ memory** — the SQ front is not drainable (not committed
    ///   with data ready) and no load is pending request issue;
    /// * **commit** — the window is non-empty and its front is not Done;
    /// * **issue** — `rs_ready == 0` (no RS entry has all sources);
    /// * **dispatch** — the rename buffer is empty or its front is
    ///   blocked by a full ROB/RS/LQ/SQ;
    /// * **rename** — the rename buffer is full, the fetch queue is
    ///   empty, or a free list cannot cover the next instruction;
    /// * **fetch** — nothing to fetch, or the fetch queue is full.
    ///
    /// Since none of these stages acts, every input to the conditions is
    /// unchanged on the next cycle: the predicates are *stable* until
    /// the next completion timer fires. The skip therefore
    /// jumps to `min(next timer, max_cycles)` and advances every
    /// per-cycle statistic — dispatch stall counters, fetch starvation,
    /// rename stalls, loop-buffer cycles, attribution buckets, and
    /// occupancy samples — in bulk by exactly the amount the skipped
    /// cycles would have accumulated one at a time. The resulting
    /// `SimStats` and `Counters` are bit-identical to a non-skipping
    /// run (pinned by this file's unit tests, which clear
    /// `fast_forward` on the pipelines they build).
    ///
    /// With no timer pending at all (a modelling deadlock), the skip
    /// runs straight to `max_cycles`, fast-pathing wedged runs to their
    /// `hit_cycle_limit` verdict.
    fn try_fast_forward(&mut self, max_cycles: u64) -> bool {
        // Commit / issue / LSQ-completion idleness.
        let Some(front) = self.window.front() else {
            return false;
        };
        if front.stage == Stage::Done
            || self.rs_ready != 0
            || !self.pending_loads.is_empty()
            || !self.completed_loads.is_empty()
        {
            return false;
        }
        // Writeback idleness: no due timer events.
        let next_done = self.done.next_time();
        if next_done.is_some_and(|t| t <= self.now) {
            return false;
        }
        // Store-drain idleness.
        if self.sq.front().is_some_and(|f| f.committed && f.data_ready) {
            return false;
        }
        // Dispatch idleness: nothing to dispatch, or the front uop is
        // structurally blocked. Record *which* stat the per-cycle break
        // would have charged (exactly one per blocked cycle).
        let dispatch_stall = match self.rename_q.front() {
            None => None,
            Some(&seq) => {
                let op = self.uop(seq).op;
                if self.rob_count >= self.params.rob_size {
                    Some(IdleDispatch::Rob)
                } else if self.rs_count as usize >= RS_SIZE {
                    Some(IdleDispatch::Rs)
                } else if op.is_load() && self.lq_count >= self.params.load_queue {
                    Some(IdleDispatch::Lq)
                } else if op.is_store() && self.sq.len() as u32 >= self.params.store_queue {
                    Some(IdleDispatch::Sq)
                } else {
                    return false; // would dispatch
                }
            }
        };
        // Rename idleness: buffer full, starved, or free-list blocked.
        let rename_idle = if self.rename_q.len() >= RENAME_BUFFER_CAP {
            IdleRename::BufferFull
        } else if let Some(di) = self.fetch_q.front() {
            match self.rename.blocked_class(di.dests.as_slice()) {
                Some(class) => IdleRename::FreeList(class),
                None => return false, // would rename
            }
        } else {
            IdleRename::Starved
        };
        // Fetch idleness.
        if self.pending_fetch.is_some() && self.fetch_q.len() < FETCH_QUEUE_CAP {
            return false;
        }

        let target = next_done.unwrap_or(u64::MAX).min(max_cycles);
        if target <= self.now {
            return false;
        }
        let n = target - self.now;

        // ---- Bulk-advance exactly what n idle step() calls would. ----

        match dispatch_stall {
            Some(IdleDispatch::Rob) => self.stats.stalls.rob_full += n,
            Some(IdleDispatch::Rs) => self.stats.stalls.rs_full += n,
            Some(IdleDispatch::Lq) => self.stats.stalls.lq_full += n,
            Some(IdleDispatch::Sq) => self.stats.stalls.sq_full += n,
            None => {}
        }
        // `stable_rename_blocked` is the value rename_stage leaves in
        // `rename_blocked` on each skipped cycle (consumed by the next
        // cycle's attribution).
        let stable_rename_blocked = match rename_idle {
            IdleRename::BufferFull => false,
            IdleRename::Starved => {
                // The window is non-empty, so the starvation condition
                // (`pending_fetch.is_some() || !window.is_empty()`) holds.
                self.stats.stalls.fetch_starved += n;
                false
            }
            IdleRename::FreeList(class) => {
                self.rename.stall_counts[class.index()] += n;
                let counts = self.rename.stall_counts;
                self.stats.stalls.rename_gp = counts[RegClass::Gp.index()];
                self.stats.stalls.rename_fp = counts[RegClass::Fp.index()];
                self.stats.stalls.rename_pred = counts[RegClass::Pred.index()];
                self.stats.stalls.rename_cond = counts[RegClass::Cond.index()];
                true
            }
        };
        if self.pending_fetch.is_some() && self.loop_mode.is_some() {
            self.stats.stalls.loop_buffer_cycles += n;
        }
        // Each skipped cycle's lsq_memory stage clears the budget flag
        // before the attribution point reads it.
        self.mem_budget_exhausted = false;

        if let Some(mut c) = self.counters.take() {
            // The first skipped cycle classifies under the
            // `rename_blocked` flag left by the last real cycle; the
            // attribution point then resets it and rename_stage re-arms
            // it to the stable value for cycles 2..n.
            c.record(self.classify_cycle(0, None));
            self.rename_blocked = stable_rename_blocked;
            if n > 1 {
                c.record_n(self.classify_cycle(0, None), n - 1);
            }
            c.observe_n(Structure::Rob, u64::from(self.rob_count), n);
            c.observe_n(Structure::Rs, u64::from(self.rs_count), n);
            c.observe_n(Structure::LoadQueue, u64::from(self.lq_count), n);
            c.observe_n(Structure::StoreQueue, self.sq.len() as u64, n);
            c.observe_n(Structure::FetchQueue, self.fetch_q.len() as u64, n);
            c.observe_n(Structure::RenameBuffer, self.rename_q.len() as u64, n);
            self.counters = Some(c);
        } else if stable_rename_blocked {
            // Without counters nothing resets the flag, so it is sticky
            // — set-only, exactly like the per-cycle path.
            self.rename_blocked = true;
        }

        self.now = target;
        #[cfg(feature = "check-invariants")]
        self.check_invariants();
        true
    }

    // ---------------------------------------------------------- writeback

    fn writeback(&mut self) {
        // Completion events, both kinds in one drain (the uop's stage
        // says which): execution-port completions are `Issued`, memory
        // completions are `MemWait`. The woken/due lists are hoisted
        // scratch buffers (empty between cycles) so steady-state cycles
        // allocate nothing.
        let mut woken = std::mem::take(&mut self.scratch_woken);
        debug_assert!(woken.is_empty());
        let mut due = std::mem::take(&mut self.scratch_due);
        self.done.take_due(self.now, &mut due);
        for &(_, seq) in &due {
            let u = self.uop(seq);
            if u.stage == Stage::MemWait {
                // Memory completion: feeds the LSQ completion stage.
                self.uop_mut(seq).stage = Stage::WbWait;
                self.completed_loads.push_back(seq);
                continue;
            }
            debug_assert_eq!(u.stage, Stage::Issued);
            let op = u.op;
            if op.is_load() {
                self.uop_mut(seq).stage = Stage::PendingMem;
                self.pending_loads.push_back(seq);
            } else if op.is_store() {
                // Store executed: data+address ready; completes in ROB now,
                // memory write happens post-commit. The SQ is in program
                // order, so the entry is found by binary search on seq.
                self.uop_mut(seq).stage = Stage::Done;
                if let Ok(i) = self.sq.binary_search_by(|e| e.seq.cmp(&seq)) {
                    self.sq[i].data_ready = true;
                }
            } else {
                self.complete_dests(seq, &mut woken);
                self.uop_mut(seq).stage = Stage::Done;
            }
        }
        due.clear();
        self.scratch_due = due;

        // LSQ completion width: loads writing back per cycle.
        for _ in 0..self.params.lsq_completion_width {
            let Some(seq) = self.completed_loads.pop_front() else {
                break;
            };
            self.complete_dests(seq, &mut woken);
            self.uop_mut(seq).stage = Stage::Done;
        }

        self.wake(&woken);
        woken.clear();
        self.scratch_woken = woken;
    }

    fn complete_dests(&mut self, seq: Seq, woken: &mut Vec<Seq>) {
        let (dests, n) = {
            let u = self.uop(seq);
            (u.dests, u.ndests as usize)
        };
        for d in &dests[..n] {
            self.rename.complete(d.class, d.phys, woken);
        }
    }

    fn wake(&mut self, woken: &[Seq]) {
        for &seq in woken {
            let u = self.uop_mut(seq);
            debug_assert!(u.srcs_remaining > 0);
            u.srcs_remaining -= 1;
            // A uop with outstanding sources is either still in the
            // rename buffer (counted ready at dispatch instead) or in
            // the RS, where resolving the last source makes it an issue
            // candidate.
            if u.srcs_remaining == 0 && u.stage == Stage::InRs {
                let class = u.op.port();
                self.push_ready(class, seq);
            }
        }
    }

    // --------------------------------------------------------- LSQ memory

    fn lsq_memory(&mut self) {
        self.mem_budget_exhausted = false;
        // Fast-out for memory-idle cycles: no load waiting to issue and
        // no committed store ready to drain. Nothing below can act.
        if self.pending_loads.is_empty()
            && !self.sq.front().is_some_and(|f| f.committed && f.data_ready)
        {
            return;
        }
        let line = u64::from(self.mem.line_bytes());
        let mut reqs = self.params.mem_requests_per_cycle;
        let mut store_reqs = self.params.stores_per_cycle;
        let mut load_reqs = self.params.loads_per_cycle;
        let mut store_bw = self.params.store_bandwidth;
        let mut load_bw = self.params.load_bandwidth;

        // Double-entry bookkeeping for the per-cycle budgets: count every
        // `mem.access` call independently of the budget decrements, then
        // check the totals against the configured limits at the end.
        #[cfg(feature = "check-invariants")]
        let (mut used_reqs, mut used_loads, mut used_stores) = (0u32, 0u32, 0u32);
        #[cfg(feature = "check-invariants")]
        let (mut used_load_bw, mut used_store_bw) = (0u32, 0u32);

        // In-order drain of committed stores. (Not a while-let: the
        // front borrow must end before `self.mem.access` below.)
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(front) = self.sq.front() else { break };
            if !(front.committed && front.data_ready) {
                break;
            }
            let share = front.bytes_share;
            loop {
                let f = self.sq.front().expect("front exists");
                if f.reqs_left == 0 || reqs == 0 || store_reqs == 0 || store_bw < share {
                    break;
                }
                reqs -= 1;
                store_reqs -= 1;
                store_bw -= share;
                #[cfg(feature = "check-invariants")]
                {
                    used_reqs += 1;
                    used_stores += 1;
                    used_store_bw += share;
                }
                let addr = f.next_addr & !(line - 1);
                // Completion time of the write is not load-bearing for the
                // pipeline (no coherence), so the return value is unused.
                let _ = self.mem.access(addr, true, self.now);
                let f = self.sq.front_mut().expect("front exists");
                f.next_addr = (f.next_addr as i64 + f.req_step) as u64;
                f.reqs_left -= 1;
            }
            if self.sq.front().expect("front exists").reqs_left == 0 {
                self.sq.pop_front();
                if self.sq.is_empty() {
                    self.sq_span = (u64::MAX, 0);
                }
            } else {
                break; // budget exhausted
            }
        }

        // Load issue (program order across pending loads, but younger
        // loads may proceed past a blocked older one — our model permits
        // this because forwarding correctness is enforced per-load).
        // `still_pending` is a hoisted scratch deque (empty between
        // cycles) that becomes the new pending list below.
        let mut still_pending = std::mem::take(&mut self.scratch_pending);
        debug_assert!(still_pending.is_empty());
        while let Some(seq) = self.pending_loads.pop_front() {
            if reqs == 0 || load_reqs == 0 {
                self.mem_budget_exhausted = true;
                still_pending.push_back(seq);
                continue;
            }
            let mref = self.uop(seq).mem.expect("load has mem");
            match self.classify_against_stores(seq, &mref) {
                StoreHazard::Blocked => {
                    still_pending.push_back(seq);
                    continue;
                }
                StoreHazard::Forward => {
                    let complete = self.now + self.mem.l1_hit_latency().max(MIN_FORWARD_LATENCY);
                    let u = self.uop_mut(seq);
                    u.mem_complete = complete;
                    u.stage = Stage::MemWait;
                    u.reqs_left = 0;
                    self.done.push(complete, seq);
                    continue;
                }
                StoreHazard::Clear => {}
            }
            // Issue as many requests as budgets allow.
            let share = self.uop(seq).bytes_share;
            let mut issued_any = false;
            loop {
                let u = self.uop(seq);
                if u.reqs_left == 0 {
                    break;
                }
                if reqs == 0 || load_reqs == 0 || load_bw < share {
                    self.mem_budget_exhausted = true;
                    break;
                }
                reqs -= 1;
                load_reqs -= 1;
                load_bw -= share;
                #[cfg(feature = "check-invariants")]
                {
                    used_reqs += 1;
                    used_loads += 1;
                    used_load_bw += share;
                }
                let addr = self.uop(seq).next_addr & !(line - 1);
                let done = self.mem.access(addr, false, self.now);
                let u = self.uop_mut(seq);
                u.next_addr = (u.next_addr as i64 + u.req_step) as u64;
                u.reqs_left -= 1;
                u.mem_complete = u.mem_complete.max(done);
                issued_any = true;
            }
            let u = self.uop_mut(seq);
            if u.reqs_left == 0 && issued_any {
                u.stage = Stage::MemWait;
                let t = u.mem_complete;
                self.done.push(t, seq);
            } else if u.reqs_left == 0 {
                // Degenerate: zero-request access (cannot happen; bytes >= 1).
                u.stage = Stage::MemWait;
                self.done.push(self.now + 1, seq);
            } else {
                still_pending.push_back(seq);
            }
        }
        // `pending_loads` was fully drained above; it becomes next
        // cycle's scratch buffer.
        std::mem::swap(&mut self.pending_loads, &mut still_pending);
        self.scratch_pending = still_pending;

        #[cfg(feature = "check-invariants")]
        {
            let p = &self.params;
            assert!(
                used_reqs <= p.mem_requests_per_cycle,
                "cycle {}: {} memory requests issued, limit {}",
                self.now,
                used_reqs,
                p.mem_requests_per_cycle
            );
            assert!(
                used_loads <= p.loads_per_cycle,
                "cycle {}: {} load requests issued, limit {}",
                self.now,
                used_loads,
                p.loads_per_cycle
            );
            assert!(
                used_stores <= p.stores_per_cycle,
                "cycle {}: {} store requests issued, limit {}",
                self.now,
                used_stores,
                p.stores_per_cycle
            );
            assert!(
                used_load_bw <= p.load_bandwidth,
                "cycle {}: {} load bytes requested, bandwidth {}",
                self.now,
                used_load_bw,
                p.load_bandwidth
            );
            assert!(
                used_store_bw <= p.store_bandwidth,
                "cycle {}: {} store bytes requested, bandwidth {}",
                self.now,
                used_store_bw,
                p.store_bandwidth
            );
        }
    }

    fn classify_against_stores(&self, seq: Seq, mref: &MemRef) -> StoreHazard {
        // Youngest older store overlapping the load's span decides.
        // Gathers never forward (their elements cannot all come from one
        // store's data), so an overlapping gather load is simply blocked
        // until the store drains.
        let (lo, hi) = span_of(mref);
        // Fast path: the load's span misses the (conservative) bounding
        // box of every SQ-resident store, so no entry can overlap.
        if !(lo < self.sq_span.1 && self.sq_span.0 < hi) {
            return StoreHazard::Clear;
        }
        let load_is_gather = !matches!(mref.pattern, MemPattern::Contiguous);
        let mut decision = StoreHazard::Clear;
        for e in self.sq.iter() {
            if e.seq >= seq {
                break;
            }
            if e.overlaps(lo, hi) {
                decision = if !load_is_gather && e.data_ready && e.covers(lo, hi) {
                    // Forwarding is only legal from an older store whose
                    // data is already known.
                    #[cfg(feature = "check-invariants")]
                    assert!(
                        e.seq < seq && e.data_ready,
                        "store-to-load forwarding from store {} to load {} \
                         (older required, data must be ready)",
                        e.seq,
                        seq
                    );
                    StoreHazard::Forward
                } else {
                    StoreHazard::Blocked
                };
            }
        }
        decision
    }

    // -------------------------------------------------------------- commit

    /// Retire up to `commit_width` finished uops from the window front.
    /// Returns the retire count and the oldest retired uop's class (the
    /// inputs of the cycle-attribution pass).
    fn commit(&mut self) -> (u32, Option<OpClass>) {
        // Batch commit: size the ready prefix of the ROB first, then
        // drain it in one pass (one VecDeque ring adjustment instead of
        // commit_width front/pop pairs).
        let retiring = self
            .window
            .iter()
            .take(self.params.commit_width as usize)
            .take_while(|u| u.stage == Stage::Done)
            .count();
        if retiring == 0 {
            return (0, None);
        }
        let base = self.window_base;
        let mut first_op = None;
        for (i, u) in self.window.drain(..retiring).enumerate() {
            let seq = base + i as Seq;
            for d in &u.dests[..u.ndests as usize] {
                self.rename.free_prev(*d);
            }
            if u.op.is_load() {
                self.lq_count -= 1;
            }
            if u.op.is_store() {
                // The SQ is in program order: binary search on seq.
                if let Ok(e) = self.sq.binary_search_by(|e| e.seq.cmp(&seq)) {
                    self.sq[e].committed = true;
                }
            }
            if let Some(log) = &mut self.log {
                let di = log.pending.pop_front().expect("renamed before commit");
                log.committed.push(di);
            }
            self.stats.observed.record(
                u.op,
                u.mem.map_or(0, |m| u64::from(m.bytes)),
                u.mem.map(|m| m.kind),
            );
            first_op.get_or_insert(u.op);
        }
        self.window_base += retiring as Seq;
        self.rob_count -= retiring as u32;
        self.stats.retired += retiring as u64;
        (retiring as u32, first_op)
    }

    // --------------------------------------------------- cycle accounting

    /// Charge the current cycle to exactly one [`CycleBucket`] and sample
    /// structure occupancies. Runs at the commit edge (after writeback/
    /// LSQ-memory/commit, before issue/dispatch/rename/fetch) and only
    /// when counters are enabled. Read-only with respect to pipeline
    /// state — metrics-on runs are timing-identical to metrics-off runs.
    fn attribute_cycle(&mut self, retired: u32, first_op: Option<OpClass>) {
        let Some(mut c) = self.counters.take() else {
            return;
        };
        c.record(self.classify_cycle(retired, first_op));
        c.observe(Structure::Rob, u64::from(self.rob_count));
        c.observe(Structure::Rs, u64::from(self.rs_count));
        c.observe(Structure::LoadQueue, u64::from(self.lq_count));
        c.observe(Structure::StoreQueue, self.sq.len() as u64);
        c.observe(Structure::FetchQueue, self.fetch_q.len() as u64);
        c.observe(Structure::RenameBuffer, self.rename_q.len() as u64);
        self.rename_blocked = false; // consumed; re-armed by rename_stage
        self.counters = Some(c);
    }

    /// The attribution decision tree (documented in docs/METRICS.md):
    /// retire buckets by the oldest retired instruction's class, stall
    /// buckets by what blocked the oldest in-flight instruction.
    fn classify_cycle(&self, retired: u32, first_op: Option<OpClass>) -> CycleBucket {
        if retired > 0 {
            let op = first_op.expect("retired > 0 implies a first op");
            return if op.is_load() {
                CycleBucket::RetireLoad
            } else if op.is_store() {
                CycleBucket::RetireStore
            } else {
                match op.port() {
                    PortClass::Vector => CycleBucket::RetireVector,
                    PortClass::Predicate => CycleBucket::RetirePredicate,
                    _ => CycleBucket::RetireScalar,
                }
            };
        }
        let Some(front) = self.window.front() else {
            // Nothing in flight: the frontend failed to deliver.
            return if self.rename_blocked {
                CycleBucket::RenameFreeList
            } else if !self.fetch_q.is_empty() {
                CycleBucket::FrontendLatency
            } else if self.pending_fetch.is_some() {
                CycleBucket::FetchStarved
            } else {
                CycleBucket::Drain
            };
        };
        match front.stage {
            Stage::Renamed => {
                // Waiting for dispatch: test the dispatch-blocking
                // conditions in dispatch() order.
                if self.rob_count >= self.params.rob_size {
                    CycleBucket::RobFull
                } else if self.rs_count as usize >= RS_SIZE {
                    CycleBucket::RsFull
                } else if front.op.is_load() && self.lq_count >= self.params.load_queue {
                    CycleBucket::LqFull
                } else if front.op.is_store() && self.sq.len() as u32 >= self.params.store_queue {
                    CycleBucket::SqFull
                } else if self.rename_blocked {
                    CycleBucket::RenameFreeList
                } else {
                    CycleBucket::FrontendLatency
                }
            }
            Stage::InRs => {
                if front.srcs_remaining > 0 {
                    CycleBucket::Dependency
                } else {
                    CycleBucket::IssueBandwidth
                }
            }
            Stage::Issued => CycleBucket::ExecLatency,
            Stage::PendingMem => {
                if self.mem_budget_exhausted {
                    CycleBucket::MemRequestCap
                } else {
                    CycleBucket::MemStoreHazard
                }
            }
            Stage::MemWait => CycleBucket::MemData,
            Stage::WbWait => CycleBucket::LsqCompletion,
            // Unreachable: commit() retires a Done front whenever
            // retired == 0 would otherwise hold (commit_width >= 1).
            Stage::Done => CycleBucket::FrontendLatency,
        }
    }

    // --------------------------------------------------------------- issue

    /// Insert a newly ready RS entry into its class queue, keeping the
    /// queue in age (sequence) order. Dispatch appends monotonically;
    /// wakeups may arrive out of order and take the binary-search path.
    fn push_ready(&mut self, class: PortClass, seq: Seq) {
        let q = &mut self.ready_q[class.index()];
        if q.back().is_none_or(|&b| b < seq) {
            q.push_back(seq);
        } else {
            let i = q.partition_point(|&s| s < seq);
            q.insert(i, seq);
        }
        self.rs_ready += 1;
    }

    fn issue(&mut self) {
        // O(1) early-out: no RS entry has all sources resolved, so no
        // port scan can issue anything this cycle.
        if self.rs_ready == 0 {
            return;
        }
        let now = self.now;
        // Per class: pop ready uops in age order while ports are free.
        // Classes contend only within themselves (a uop needs a port of
        // its own class and nothing else), so this issues the same uops
        // to the same ports as an oldest-first scan of the whole RS —
        // without ever touching the ready uops that miss out on a port.
        for ci in 0..self.ready_q.len() {
            while let Some(&seq) = self.ready_q[ci].front() {
                let Some(pi) = self.port_busy[ci].iter().position(|b| *b <= now) else {
                    break;
                };
                self.ready_q[ci].pop_front();
                let (lat, occupancy) = {
                    let u = self.uop(seq);
                    let lat = u64::from(u.op.exec_latency());
                    (lat, if u.op.pipelined() { 1 } else { lat })
                };
                self.port_busy[ci][pi] = now + occupancy;
                self.done.push(now + lat, seq);
                self.uop_mut(seq).stage = Stage::Issued;
                self.rs_ready -= 1;
                self.rs_count -= 1;
            }
        }
    }

    // ------------------------------------------------------------ dispatch

    fn dispatch(&mut self) {
        for _ in 0..DISPATCH_RATE {
            let Some(&seq) = self.rename_q.front() else {
                break;
            };
            if self.rob_count >= self.params.rob_size {
                self.stats.stalls.rob_full += 1;
                break;
            }
            if self.rs_count as usize >= RS_SIZE {
                self.stats.stalls.rs_full += 1;
                break;
            }
            let (op, mem) = {
                let u = self.uop(seq);
                (u.op, u.mem)
            };
            if op.is_load() && self.lq_count >= self.params.load_queue {
                self.stats.stalls.lq_full += 1;
                break;
            }
            if op.is_store() && self.sq.len() as u32 >= self.params.store_queue {
                self.stats.stalls.sq_full += 1;
                break;
            }
            self.rename_q.pop_front();
            self.rob_count += 1;
            self.rs_count += 1;
            let u = self.uop_mut(seq);
            u.stage = Stage::InRs;
            if u.srcs_remaining == 0 {
                self.push_ready(op.port(), seq);
            }
            if op.is_load() {
                self.lq_count += 1;
            }
            if op.is_store() {
                let m = mem.expect("store has mem");
                let (next_addr, reqs_left, req_step, bytes_share) =
                    request_plan(&m, self.mem.line_bytes());
                let (span_lo, span_hi) = span_of(&m);
                self.sq_span.0 = self.sq_span.0.min(span_lo);
                self.sq_span.1 = self.sq_span.1.max(span_hi);
                self.sq.push_back(SqEntry {
                    seq,
                    span_lo,
                    span_hi,
                    scattered: !matches!(m.pattern, MemPattern::Contiguous),
                    data_ready: false,
                    committed: false,
                    next_addr,
                    reqs_left,
                    req_step,
                    bytes_share,
                });
            }
        }
    }

    // -------------------------------------------------------------- rename

    fn rename_stage(&mut self) {
        for _ in 0..self.params.frontend_width {
            if self.rename_q.len() >= RENAME_BUFFER_CAP {
                break;
            }
            let Some(di) = self.fetch_q.front() else {
                if self.pending_fetch.is_some() || !self.window.is_empty() {
                    self.stats.stalls.fetch_starved += 1;
                }
                break;
            };
            if !self.rename.can_rename(di.dests.as_slice()) {
                self.rename_blocked = true;
                let counts = self.rename.stall_counts;
                self.stats.stalls.rename_gp = counts[RegClass::Gp.index()];
                self.stats.stalls.rename_fp = counts[RegClass::Fp.index()];
                self.stats.stalls.rename_pred = counts[RegClass::Pred.index()];
                self.stats.stalls.rename_cond = counts[RegClass::Cond.index()];
                break;
            }
            let di = self.fetch_q.pop_front().expect("front exists");
            let seq = self.next_seq;
            self.next_seq += 1;
            if let Some(log) = &mut self.log {
                log.pending.push_back(di);
            }

            // Resolve sources first (reads see the pre-rename mapping).
            let mut srcs_remaining = 0u8;
            for s in di.srcs.iter() {
                let (_, ready) = self.rename.resolve_src(s, seq);
                if !ready {
                    srcs_remaining += 1;
                }
            }
            // Rename destinations.
            let mut dests = [RenamedDest {
                class: RegClass::Gp,
                phys: 0,
                prev: 0,
            }; 2];
            let mut ndests = 0u8;
            for d in di.dests.iter() {
                dests[ndests as usize] = self.rename.rename_dest(d);
                ndests += 1;
            }

            // Request-issue plan for loads.
            let (next_addr, reqs_left, req_step, bytes_share) = match di.mem {
                Some(m) if di.op.is_load() => request_plan(&m, self.mem.line_bytes()),
                _ => (0, 0, 0, 0),
            };

            self.window.push_back(Uop {
                op: di.op,
                stage: Stage::Renamed,
                dests,
                ndests,
                srcs_remaining,
                mem: di.mem,
                next_addr,
                reqs_left,
                req_step,
                bytes_share,
                mem_complete: 0,
            });
            self.rename_q.push_back(seq);
        }
    }

    // --------------------------------------------------------------- fetch

    fn fetch(&mut self) {
        if self.pending_fetch.is_none() {
            return;
        }
        let fb = u64::from(self.params.fetch_block_bytes);
        let in_loop = self.loop_mode.is_some();
        if in_loop {
            self.stats.stalls.loop_buffer_cycles += 1;
        }
        let budget = if in_loop {
            self.params.frontend_width as usize
        } else {
            // Instructions available in the aligned fetch-block window
            // containing the next PC.
            let pc = self.pending_fetch.as_ref().expect("checked").pc;
            let window_end = (pc & !(fb - 1)) + fb;
            ((window_end - pc) / INSTR_BYTES) as usize
        };

        for _ in 0..budget {
            if self.fetch_q.len() >= FETCH_QUEUE_CAP {
                break;
            }
            let Some(di) = self.pending_fetch.take() else {
                break;
            };
            self.pending_fetch = self.cursor.next_instr();
            let taken = di.branch.map(|b| b.taken).unwrap_or(false);
            let pc = di.pc;
            self.fetch_q.push_back(di);

            if let Some(b) = di.branch {
                if b.taken && b.target < pc {
                    let body_len = (pc - b.target) / INSTR_BYTES + 1;
                    if body_len <= u64::from(self.params.loop_buffer_size) {
                        if self.loop_candidate == Some(pc) {
                            self.loop_mode = Some((b.target, pc));
                        } else {
                            self.loop_candidate = Some(pc);
                        }
                    }
                } else if !b.taken && self.loop_candidate == Some(pc) {
                    // Loop exit: leave streaming mode.
                    self.loop_mode = None;
                    self.loop_candidate = None;
                } else if !b.taken && self.loop_mode.map(|(_, bp)| bp) == Some(pc) {
                    self.loop_mode = None;
                    self.loop_candidate = None;
                }
            }

            // In block mode a taken branch ends the fetch group.
            if self.loop_mode.is_none() && taken {
                break;
            }
            // Fell out of the loop-buffer range: drop back to block fetch.
            if let (Some((lo, hi)), Some(next)) = (self.loop_mode, self.pending_fetch.as_ref()) {
                if next.pc < lo || next.pc > hi {
                    self.loop_mode = None;
                    self.loop_candidate = None;
                    break;
                }
            }
        }
    }

    // ---------------------------------------------------------- invariants

    /// Cycle-level structural invariants, checked at the end of every
    /// cycle when the `check-invariants` feature is enabled. Any violation
    /// panics, so a completed run certifies zero violations.
    #[cfg(feature = "check-invariants")]
    fn check_invariants(&self) {
        let p = &self.params;

        // Capacity bounds on every queue and buffer.
        assert!(
            self.rob_count <= p.rob_size,
            "cycle {}: ROB holds {} uops, capacity {}",
            self.now,
            self.rob_count,
            p.rob_size
        );
        assert!(
            self.rs_count as usize <= RS_SIZE,
            "cycle {}: RS holds {} uops, capacity {}",
            self.now,
            self.rs_count,
            RS_SIZE
        );
        assert!(
            self.lq_count <= p.load_queue,
            "cycle {}: load queue holds {} loads, capacity {}",
            self.now,
            self.lq_count,
            p.load_queue
        );
        assert!(
            self.sq.len() as u32 <= p.store_queue,
            "cycle {}: store queue holds {} stores, capacity {}",
            self.now,
            self.sq.len(),
            p.store_queue
        );
        assert!(
            self.rename_q.len() <= RENAME_BUFFER_CAP,
            "cycle {}: rename buffer overflow",
            self.now
        );
        assert!(
            self.fetch_q.len() <= FETCH_QUEUE_CAP,
            "cycle {}: fetch queue overflow",
            self.now
        );

        // The RS occupancy and ready counters that gate dispatch, issue,
        // and fast-forward legality must agree with a full window scan,
        // and each per-class ready queue must hold exactly the ready
        // RS-resident uops of that class, in age order.
        let rs_in_window = self
            .window
            .iter()
            .filter(|u| u.stage == Stage::InRs)
            .count() as u32;
        assert_eq!(
            rs_in_window, self.rs_count,
            "cycle {}: rs_count out of sync with window InRs population",
            self.now
        );
        let ready_in_window = self
            .window
            .iter()
            .filter(|u| u.stage == Stage::InRs && u.srcs_remaining == 0)
            .count() as u32;
        assert_eq!(
            ready_in_window, self.rs_ready,
            "cycle {}: rs_ready counter out of sync with window contents",
            self.now
        );
        let queued: u32 = self.ready_q.iter().map(|q| q.len() as u32).sum();
        assert_eq!(
            queued, self.rs_ready,
            "cycle {}: ready queues out of sync with rs_ready",
            self.now
        );
        for (ci, q) in self.ready_q.iter().enumerate() {
            let mut prev = None;
            for &s in q {
                assert!(
                    prev.is_none_or(|p| p < s),
                    "cycle {}: ready queue {ci} out of age order",
                    self.now
                );
                prev = Some(s);
                let u = self.uop(s);
                assert!(
                    u.stage == Stage::InRs && u.srcs_remaining == 0 && u.op.port().index() == ci,
                    "cycle {}: ready queue {ci} holds unready/misfiled uop {s}",
                    self.now
                );
            }
        }

        // In-order commit: the ROB pops only from the front, so the number
        // of retired instructions must equal the oldest in-flight sequence
        // number. Any out-of-order commit breaks this equality.
        assert_eq!(
            self.stats.retired, self.window_base,
            "cycle {}: retired count diverged from the commit frontier",
            self.now
        );

        // The load-queue counter must agree with the dispatched, not yet
        // committed loads actually present in the window.
        let lq_in_window = self
            .window
            .iter()
            .filter(|u| u.op.is_load() && u.stage != Stage::Renamed)
            .count() as u32;
        assert_eq!(
            lq_in_window, self.lq_count,
            "cycle {}: load-queue counter out of sync with window",
            self.now
        );

        // Store queue: program order, committed entries form a prefix, and
        // committed exactly matches "older than the commit frontier". The
        // uncommitted entries must be the dispatched stores in the window.
        let mut prev: Option<Seq> = None;
        let mut seen_uncommitted = false;
        for e in &self.sq {
            if let Some(ps) = prev {
                assert!(
                    e.seq > ps,
                    "cycle {}: store queue out of program order ({} after {})",
                    self.now,
                    e.seq,
                    ps
                );
            }
            prev = Some(e.seq);
            if e.committed {
                assert!(
                    !seen_uncommitted,
                    "cycle {}: committed store {} behind an uncommitted one",
                    self.now, e.seq
                );
                assert!(
                    e.seq < self.window_base,
                    "cycle {}: store {} committed ahead of the ROB frontier {}",
                    self.now,
                    e.seq,
                    self.window_base
                );
                assert!(
                    e.data_ready,
                    "cycle {}: store {} committed without its data",
                    self.now, e.seq
                );
            } else {
                seen_uncommitted = true;
                assert!(
                    e.seq >= self.window_base,
                    "cycle {}: uncommitted store {} already retired",
                    self.now,
                    e.seq
                );
            }
        }
        // The store-span bounding box must cover every resident entry
        // (it may over-cover: pops leave it stale until the SQ empties).
        for e in &self.sq {
            assert!(
                self.sq_span.0 <= e.span_lo && e.span_hi <= self.sq_span.1,
                "cycle {}: store {} span outside the SQ bounding box",
                self.now,
                e.seq
            );
        }

        let sq_uncommitted = self.sq.iter().filter(|e| !e.committed).count();
        let stores_in_window = self
            .window
            .iter()
            .filter(|u| u.op.is_store() && u.stage != Stage::Renamed)
            .count();
        assert_eq!(
            stores_in_window, sq_uncommitted,
            "cycle {}: store-queue entries out of sync with window",
            self.now
        );

        // Physical-register free-list conservation: mapped + free + in
        // flight (renamed, not yet committed) must cover every physical
        // register exactly once, and freed registers must be clean.
        let mut in_flight = [0usize; 4];
        for u in &self.window {
            for d in &u.dests[..u.ndests as usize] {
                in_flight[d.class.index()] += 1;
            }
        }
        for class in RegClass::ALL {
            assert!(
                self.rename
                    .check_conservation(class, in_flight[class.index()]),
                "cycle {}: {class:?} free list leaked or duplicated a register",
                self.now
            );
            assert!(
                self.rename.check_free_ready(class),
                "cycle {}: {class:?} free list holds a busy register",
                self.now
            );
        }
    }
}

/// Which full structure blocks dispatch during an idle skip (exactly
/// one stall counter is charged per blocked cycle, in dispatch-check
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdleDispatch {
    Rob,
    Rs,
    Lq,
    Sq,
}

/// Why rename makes no progress during an idle skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdleRename {
    /// Rename buffer at capacity: rename breaks before any accounting.
    BufferFull,
    /// Fetch queue empty: each cycle counts one fetch-starved stall.
    Starved,
    /// The given class's free list cannot cover the next instruction.
    FreeList(RegClass),
}

/// Store-hazard classification for a load about to access memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreHazard {
    /// No older overlapping store: go to memory.
    Clear,
    /// Youngest older overlapping store fully covers the load and its data
    /// is ready: forward from the store queue.
    Forward,
    /// Overlapping store with unknown data or partial overlap: wait.
    Blocked,
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

    use super::*;
    use crate::backend::{finish, start, RunMode};
    use crate::cycle_limit;
    use armdse_kernels::{build_workload, App, WorkloadScale};
    use armdse_memsim::{Hierarchy, MemParams};

    fn assert_exact(core: CoreParams, mem: MemParams) {
        for app in App::ALL {
            let w = build_workload(app, WorkloadScale::Tiny, core.vector_length);
            for mode in [RunMode::Plain, RunMode::Metrics] {
                let run = |fast_forward| {
                    let mut p = start(&w.program, &core, Hierarchy::new(mem), mode);
                    p.fast_forward = fast_forward;
                    p.drive(cycle_limit(&w.program));
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
}
