//! Idle-cycle fast-forward: skip, in one jump, cycles in which no stage
//! would act, charging them exactly as single steps would have.

use super::Pipeline;

impl Pipeline<'_> {
    /// Skip provably idle cycles in bulk. Returns `true` if at least
    /// one cycle was skipped (the caller then re-enters the drive loop
    /// at the next timer event instead of stepping).
    ///
    /// A cycle is *provably idle* when each stage's own predicate, read
    /// from the pre-cycle state, says it would not act:
    ///
    /// * **writeback** — `next_writeback` is in the future;
    /// * **LSQ memory** — `lsq_idle` (no load to issue, no
    ///   `store_drainable` front);
    /// * **commit** — not `commit_ready`, with the window non-empty;
    /// * **issue** — not `issue_ready`;
    /// * **dispatch** — the rename buffer is empty or `dispatch_block`
    ///   names the full structure;
    /// * **rename** — `rename_block` says why not;
    /// * **fetch** — not `fetch_ready`.
    ///
    /// Since none of these stages acts, every input to the predicates is
    /// unchanged on the next cycle: they are *stable* until the next
    /// completion timer fires. The skip therefore jumps to
    /// `min(next timer, bound)` and charges the skipped cycles through
    /// the stages' own accounting — dispatch and rename stalls, fetch
    /// starvation, loop-buffer cycles, attribution buckets, occupancy
    /// samples — exactly as the per-cycle path would. The resulting
    /// `SimStats` and `Counters` are bit-identical to a non-skipping run
    /// (pinned by the twin tests in `pipeline::tests`, which clear
    /// `fast_forward` on the pipelines they build).
    ///
    /// With no timer pending at all (a modelling deadlock), the skip
    /// runs straight to `bound`, fast-pathing wedged runs to their
    /// `hit_cycle_limit` verdict.
    #[inline]
    pub(super) fn try_fast_forward(&mut self, bound: u64) -> bool {
        // The non-empty window keeps the starvation and attribution
        // conditions constant across the skip.
        if self.window.is_empty()
            || self.commit_ready()
            || self.issue_ready()
            || !self.lsq_idle()
            || self.fetch_ready()
        {
            return false;
        }
        let next = self.next_writeback();
        if next.is_some_and(|t| t <= self.now) {
            return false;
        }
        let dispatch = match self.rename_q.front() {
            None => None,
            Some(&seq) => match self.dispatch_block(self.uop(seq).op) {
                None => return false,
                block => block,
            },
        };
        let Some(rename) = self.rename_block() else {
            return false;
        };
        let target = next.unwrap_or(u64::MAX).min(bound);
        if target <= self.now {
            return false;
        }
        let n = target - self.now;

        // Charge the skipped cycles in `step`'s order: the first under
        // the breadcrumbs the last stepped cycle left, then the other
        // n - 1 under the ones it re-armed. Every charge is linear in
        // the cycle count, so two bulk charges equal n single ones. Each
        // skipped cycle's LSQ stage clears the budget breadcrumb before
        // the attribution point reads it.
        self.mem_budget_exhausted = false;
        for cycles in [1, n - 1] {
            if cycles == 0 {
                break;
            }
            self.attribute_cycles(cycles, 0, None);
            if let Some(block) = dispatch {
                *block.stall(&mut self.stats.stalls) += cycles;
            }
            self.charge_rename(rename, cycles);
            self.count_loop_buffer(cycles);
        }

        self.now = target;
        #[cfg(feature = "check-invariants")]
        self.check_invariants();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{access, count_cycles, machine};
    use super::super::{Pipeline, Stage};
    use crate::counters::CycleBucket;
    use armdse_isa::instr::MemKind;
    use armdse_isa::op::OpClass;

    /// An exhausted program with one divide in flight, due at cycle 12:
    /// no stage acts before then.
    fn idle() -> Pipeline<'static> {
        let mut p = machine(0);
        let div = p.place(OpClass::IntDiv, Stage::Issued, None);
        p.done.push(12, div);
        p
    }

    #[test]
    fn an_idle_machine_skips_to_its_next_completion() {
        let mut p = idle();
        count_cycles(&mut p);
        assert!(p.try_fast_forward(u64::MAX));
        assert_eq!(p.now, 12);
        assert_eq!(
            p.stats.stalls.fetch_starved, 12,
            "rename starved every cycle"
        );
        let c = p.counters.as_ref().expect("enabled");
        assert_eq!(c.bucket(CycleBucket::ExecLatency), 12);
        assert!(!p.try_fast_forward(u64::MAX), "the divide completes now");
    }

    #[test]
    fn the_skip_stops_at_the_bound_and_charges_every_cycle() {
        // The rename buffer's front waits on a full ROB: each skipped
        // cycle is one ROB-full dispatch stall.
        let mut p = idle();
        p.params.rob_size = 1;
        p.place(OpClass::IntAlu, Stage::Renamed, None);
        assert!(p.try_fast_forward(5));
        assert_eq!(p.now, 5);
        assert_eq!(p.stats.stalls.rob_full, 5);
    }

    /// `idle()` with one change that makes exactly one stage act.
    fn refuses(stage: &str, wake: impl FnOnce(&mut Pipeline<'static>)) {
        let mut p = idle();
        wake(&mut p);
        let now = p.now;
        assert!(!p.try_fast_forward(u64::MAX), "{stage} would act");
        assert_eq!(p.now, now);
        assert_eq!(p.stats.stalls.fetch_starved, 0, "{stage}: nothing charged");
    }

    #[test]
    fn every_stage_that_would_act_refuses_the_skip() {
        refuses("writeback: completion due", |p| p.now = 12);
        refuses("writeback: LSQ completion", |p| {
            let m = access(MemKind::Load, 0, 8);
            let seq = p.place(OpClass::Load, Stage::WbWait, Some(m));
            p.completed_loads.push_back(seq);
        });
        refuses("lsq: load issue", |p| {
            let m = access(MemKind::Load, 0, 8);
            let seq = p.place(OpClass::Load, Stage::PendingMem, Some(m));
            p.pending_loads.push_back(seq);
        });
        refuses("lsq: store drain", |p| {
            let mut q = machine(0);
            q.place(
                OpClass::Store,
                Stage::Done,
                Some(access(MemKind::Store, 0, 8)),
            );
            q.commit();
            let div = q.place(OpClass::IntDiv, Stage::Issued, None);
            q.done.push(12, div);
            *p = q;
        });
        refuses("commit", |p| p.window[0].stage = Stage::Done);
        refuses("issue", |p| {
            p.place(OpClass::IntAlu, Stage::InRs, None);
        });
        refuses("dispatch", |p| {
            p.place(OpClass::IntAlu, Stage::Renamed, None);
        });
        refuses("rename", |p| {
            let mut q = machine(1);
            q.fetch();
            let div = q.place(OpClass::IntDiv, Stage::Issued, None);
            q.done.push(12, div);
            *p = q;
        });
        refuses("fetch", |p| {
            let mut q = machine(1);
            let div = q.place(OpClass::IntDiv, Stage::Issued, None);
            q.done.push(12, div);
            *p = q;
        });
    }
}
