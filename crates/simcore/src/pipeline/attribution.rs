//! Cycle attribution (metrics runs only): each cycle charged to exactly
//! one [`CycleBucket`] at the commit edge, and structure occupancies
//! sampled there. docs/METRICS.md §3 specifies the decision tree.

use super::{Pipeline, Stage};
use crate::counters::{Counters, CycleBucket, Structure};
use armdse_isa::op::{OpClass, PortClass};

impl Pipeline<'_> {
    /// Charge `cycles` cycles that look alike at the commit edge (one
    /// stepped cycle, or a run of skipped ones) to their bucket and
    /// sample occupancies for each. Runs after writeback/LSQ-memory/
    /// commit, before issue/dispatch/rename/fetch, and only when counters
    /// are enabled. Read-only with respect to pipeline state: metrics-on
    /// runs are timing-identical to metrics-off runs. Kept out of line so
    /// the plain run's cycle loop does not carry it.
    #[inline(never)]
    pub(super) fn attribute_cycles(
        &mut self,
        cycles: u64,
        retired: u32,
        first_op: Option<OpClass>,
    ) {
        let Some(mut c) = self.counters.take() else {
            return;
        };
        c.record_n(self.classify_cycle(retired, first_op), cycles);
        self.sample_occupancy(&mut c, cycles);
        self.rename_blocked = false; // consumed; re-armed by rename_stage
        self.counters = Some(c);
    }

    fn sample_occupancy(&self, c: &mut Counters, cycles: u64) {
        for (s, occ) in [
            (Structure::Rob, u64::from(self.rob_count)),
            (Structure::Rs, u64::from(self.rs_count)),
            (Structure::LoadQueue, u64::from(self.lq_count)),
            (Structure::StoreQueue, self.sq.len() as u64),
            (Structure::FetchQueue, self.fetch_q.len() as u64),
            (Structure::RenameBuffer, self.rename_q.len() as u64),
        ] {
            c.observe_n(s, occ, cycles);
        }
    }

    /// The attribution decision tree (documented in docs/METRICS.md):
    /// retire buckets by the oldest retired instruction's class, stall
    /// buckets by what blocked the oldest in-flight instruction.
    pub(super) fn classify_cycle(&self, retired: u32, first_op: Option<OpClass>) -> CycleBucket {
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
            // Waiting for dispatch: the rename buffer's front.
            Stage::Renamed => match self.dispatch_block(front.op) {
                Some(block) => block.bucket(),
                None if self.rename_blocked => CycleBucket::RenameFreeList,
                None => CycleBucket::FrontendLatency,
            },
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
}

#[cfg(test)]
mod tests {
    use super::super::tests::{access, count_cycles, machine};
    use super::*;
    use crate::params::RS_SIZE;
    use armdse_isa::instr::MemKind;

    #[test]
    fn retire_buckets_follow_the_oldest_retired_class() {
        let p = machine(0);
        for (op, bucket) in [
            (OpClass::VecGather, CycleBucket::RetireLoad),
            (OpClass::VecScatter, CycleBucket::RetireStore),
            (OpClass::VecFma, CycleBucket::RetireVector),
            (OpClass::PredOp, CycleBucket::RetirePredicate),
            (OpClass::Branch, CycleBucket::RetireScalar),
        ] {
            assert_eq!(p.classify_cycle(1, Some(op)), bucket, "{op:?}");
        }
    }

    #[test]
    fn an_empty_window_blames_the_frontend() {
        let mut p = machine(4);
        assert_eq!(p.classify_cycle(0, None), CycleBucket::FetchStarved);
        p.fetch();
        assert_eq!(p.classify_cycle(0, None), CycleBucket::FrontendLatency);
        p.rename_blocked = true;
        assert_eq!(p.classify_cycle(0, None), CycleBucket::RenameFreeList);
        assert_eq!(machine(0).classify_cycle(0, None), CycleBucket::Drain);
    }

    #[test]
    fn a_front_waiting_for_dispatch_reports_the_dispatch_block() {
        let mut p = machine(0);
        let m = access(MemKind::Store, 0, 8);
        p.place(OpClass::Store, Stage::Renamed, Some(m));
        assert_eq!(p.classify_cycle(0, None), CycleBucket::FrontendLatency);
        p.rename_blocked = true;
        assert_eq!(p.classify_cycle(0, None), CycleBucket::RenameFreeList);
        p.sq_push(99, &m);
        p.params.store_queue = 1;
        assert_eq!(p.classify_cycle(0, None), CycleBucket::SqFull);
        p.rs_count = RS_SIZE as u32;
        assert_eq!(p.classify_cycle(0, None), CycleBucket::RsFull);
        p.rob_count = p.params.rob_size;
        assert_eq!(p.classify_cycle(0, None), CycleBucket::RobFull);

        let mut p = machine(0);
        p.place(
            OpClass::Load,
            Stage::Renamed,
            Some(access(MemKind::Load, 0, 8)),
        );
        p.lq_count = p.params.load_queue;
        assert_eq!(p.classify_cycle(0, None), CycleBucket::LqFull);
    }

    #[test]
    fn a_dispatched_front_reports_where_it_waits() {
        let load = Some(access(MemKind::Load, 0, 8));
        for (op, stage, bucket) in [
            (OpClass::IntAlu, Stage::InRs, CycleBucket::IssueBandwidth),
            (OpClass::IntDiv, Stage::Issued, CycleBucket::ExecLatency),
            (
                OpClass::Load,
                Stage::PendingMem,
                CycleBucket::MemStoreHazard,
            ),
            (OpClass::Load, Stage::MemWait, CycleBucket::MemData),
            (OpClass::Load, Stage::WbWait, CycleBucket::LsqCompletion),
        ] {
            let mut p = machine(0);
            p.place(op, stage, if op.is_load() { load } else { None });
            assert_eq!(p.classify_cycle(0, None), bucket, "{stage:?}");
        }

        let mut p = machine(0);
        let seq = p.place(OpClass::IntAlu, Stage::InRs, None);
        p.uop_mut(seq).srcs_remaining = 1;
        assert_eq!(p.classify_cycle(0, None), CycleBucket::Dependency);

        let mut p = machine(0);
        p.place(OpClass::Load, Stage::PendingMem, load);
        p.mem_budget_exhausted = true;
        assert_eq!(p.classify_cycle(0, None), CycleBucket::MemRequestCap);
    }

    #[test]
    fn attribution_records_cycles_samples_occupancy_and_consumes_the_breadcrumb() {
        let mut p = machine(0);
        count_cycles(&mut p);
        p.place(OpClass::IntDiv, Stage::Issued, None);
        p.rename_blocked = true;
        p.attribute_cycles(3, 0, None);
        let c = p.counters.as_ref().expect("enabled");
        assert_eq!(c.bucket(CycleBucket::ExecLatency), 3);
        assert_eq!(c.occupancy[Structure::Rob.index()].sum, 3);
        assert!(!p.rename_blocked);
    }
}
