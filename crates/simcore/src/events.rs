//! Completion-event timer queue for the pipeline.
//!
//! The pipeline's completion queue (`done`) carries every issued uop
//! and every memory request. The drain order is
//! load-bearing: events must come out in ascending `(t, seq)` order —
//! same-cycle completions feed the pending-load queue in sequence
//! order, and the golden emission tests pin the resulting timing
//! exactly.
//!
//! The representation is a hybrid calendar wheel: events due within the
//! next `WHEEL` (64) cycles live in a slot ring indexed by `t % WHEEL`
//! (constant-time push and drain), everything further out waits in a
//! binary-heap overflow. Execution latencies are a handful of cycles,
//! so virtually every execution completion takes the wheel path; DRAM
//! completions land in the overflow and trickle through `take_due`
//! directly. Two details make the wheel win over both a plain heap and
//! a naive wheel (both were measured and lost):
//!
//! * a slot-occupancy **bitmask** makes [`EventQueue::next_time`] a
//!   rotate + trailing-zeros instead of a slot scan — the idle-cycle
//!   fast-forward calls it on every drive-loop iteration;
//! * slots store bare sequence numbers (the slot index implies the
//!   cycle), kept unsorted until drain — a due batch is a few entries,
//!   so one small sort per cycle restores `(t, seq)` order exactly.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sequence number payload (mirrors `regfile::Seq`).
type Seq = u64;

/// Wheel horizon in cycles (power of two; also the slot count). Events
/// scheduled at `t - now >= WHEEL` overflow into the far heap.
const WHEEL: usize = 64;

/// A `(completion cycle, sequence number)` timer queue.
///
/// Events may be scheduled at any future cycle; [`EventQueue::take_due`]
/// collects every event with `t <= now` in ascending `(t, seq)` order.
///
/// The caller must drain with a non-decreasing clock (`take_due(now)`
/// with `now` never moving backwards), which the pipeline's monotone
/// `self.now` guarantees; pushes must target the future (`t > now`).
#[derive(Debug, Clone)]
pub(crate) struct EventQueue {
    /// Ring of per-cycle slots; slot `t % WHEEL` holds the sequence
    /// numbers completing at cycle `t`, unordered.
    slots: [Vec<Seq>; WHEEL],
    /// Bit `i` set iff `slots[i]` is non-empty.
    occupied: u64,
    /// The clock value of the last `take_due` call. Every wheel event
    /// satisfies `drained_to < t <= drained_to + WHEEL - 1`, so the slot
    /// index maps back to a unique cycle.
    drained_to: u64,
    /// Events scheduled beyond the wheel horizon.
    far: BinaryHeap<Reverse<(u64, Seq)>>,
    len: usize,
}

/// A queue's storage (wheel slots, far heap), empty between owners.
type Storage = ([Vec<Seq>; WHEEL], BinaryHeap<Reverse<(u64, Seq)>>);

thread_local! {
    /// Storage of this thread's dropped queues, reused by its next ones.
    static FREE: RefCell<Vec<Storage>> = const { RefCell::new(Vec::new()) };
}

impl EventQueue {
    /// An empty queue.
    pub(crate) fn new() -> EventQueue {
        let (slots, far) = FREE
            .with(|f| f.borrow_mut().pop())
            .unwrap_or_else(|| (std::array::from_fn(|_| Vec::new()), BinaryHeap::new()));
        EventQueue {
            slots,
            occupied: 0,
            drained_to: 0,
            far,
            len: 0,
        }
    }

    /// Whether no events are scheduled.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule an event at cycle `t` (strictly after the last drain).
    #[inline]
    pub(crate) fn push(&mut self, t: u64, seq: Seq) {
        debug_assert!(t > self.drained_to, "push into the past");
        self.len += 1;
        // The wheel holds at most WHEEL-1 cycles ahead so a slot never
        // mixes two distinct cycles (see `drained_to`).
        if t - self.drained_to < WHEEL as u64 {
            let slot = (t % WHEEL as u64) as usize;
            self.slots[slot].push(seq);
            self.occupied |= 1 << slot;
        } else {
            self.far.push(Reverse((t, seq)));
        }
    }

    /// Earliest scheduled event time, if any (the fast-forward target).
    #[inline]
    pub(crate) fn next_time(&self) -> Option<u64> {
        let far = self.far.peek().map(|&Reverse((t, _))| t);
        if self.occupied == 0 {
            return far;
        }
        // Rotate the mask so the slot for `drained_to + 1` is bit 0;
        // the first set bit's position is then the distance-1 to the
        // earliest occupied cycle.
        let shift = ((self.drained_to + 1) % WHEEL as u64) as u32;
        let d = u64::from(self.occupied.rotate_right(shift).trailing_zeros());
        let wheel_next = self.drained_to + 1 + d;
        Some(far.map_or(wheel_next, |f| f.min(wheel_next)))
    }

    /// Drain every event with `t <= now` into `out` (cleared first) in
    /// ascending `(t, seq)` order.
    pub(crate) fn take_due(&mut self, now: u64, out: &mut Vec<(u64, Seq)>) {
        out.clear();
        // Wheel events due by `now`: walk occupied slots in cycle order.
        while self.occupied != 0 {
            let shift = ((self.drained_to + 1) % WHEEL as u64) as u32;
            let d = u64::from(self.occupied.rotate_right(shift).trailing_zeros());
            let t = self.drained_to + 1 + d;
            if t > now {
                break;
            }
            let slot = (t % WHEEL as u64) as usize;
            let events = &mut self.slots[slot];
            self.len -= events.len();
            out.extend(events.drain(..).map(|seq| (t, seq)));
            self.occupied &= !(1 << slot);
        }
        // Far events that have come due (and any that now fit the wheel
        // stay put — they will surface here anyway, order restored by
        // the sort below).
        while let Some(&Reverse(e)) = self.far.peek() {
            if e.0 > now {
                break;
            }
            out.push(e);
            self.far.pop();
            self.len -= 1;
        }
        // Same-cycle events were pushed in issue order, not sequence
        // order, and far events append after wheel events; one sort of
        // the (small) due batch restores the exact (t, seq) contract.
        // Most batches already are in order: those skip the sort.
        if !out.is_sorted() {
            out.sort_unstable();
        }
        self.drained_to = now.max(self.drained_to);
    }
}

impl Drop for EventQueue {
    /// Give the emptied storage, capacity kept, to the thread.
    fn drop(&mut self) {
        self.slots.iter_mut().for_each(Vec::clear);
        self.far.clear();
        let slots = std::mem::replace(&mut self.slots, std::array::from_fn(|_| Vec::new()));
        let storage = (slots, std::mem::take(&mut self.far));
        let _ = FREE.try_with(|f| f.borrow_mut().push(storage));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(5, 2);
        q.push(3, 9);
        q.push(5, 1);
        q.push(4, 0);
        let mut out = Vec::new();
        q.take_due(5, &mut out);
        assert_eq!(out, vec![(3, 9), (4, 0), (5, 1), (5, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn respects_the_clock() {
        let mut q = EventQueue::new();
        q.push(10, 1);
        q.push(2, 2);
        let mut out = Vec::new();
        q.take_due(1, &mut out);
        assert!(out.is_empty());
        assert_eq!(q.next_time(), Some(2));
        q.take_due(9, &mut out);
        assert_eq!(out, vec![(2, 2)]);
        assert_eq!(q.next_time(), Some(10));
        q.take_due(10, &mut out);
        assert_eq!(out, vec![(10, 1)]);
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn take_due_clears_stale_output() {
        let mut q = EventQueue::new();
        q.push(1, 7);
        let mut out = vec![(99, 99)];
        q.take_due(2, &mut out);
        assert_eq!(out, vec![(1, 7)]);
        q.take_due(3, &mut out);
        assert!(out.is_empty(), "empty drain must clear the buffer");
    }

    #[test]
    fn far_events_cross_the_horizon_in_order() {
        let mut q = EventQueue::new();
        // One far event (beyond WHEEL), then near events pushed later at
        // the same cycle with both smaller and larger sequence numbers.
        q.push(200, 5);
        assert_eq!(q.next_time(), Some(200));
        let mut out = Vec::new();
        q.take_due(150, &mut out);
        assert!(out.is_empty());
        q.push(200, 3);
        q.push(200, 8);
        q.push(199, 100);
        assert_eq!(q.next_time(), Some(199));
        q.take_due(200, &mut out);
        assert_eq!(out, vec![(199, 100), (200, 3), (200, 5), (200, 8)]);
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_wraps_without_mixing_cycles() {
        let mut q = EventQueue::new();
        let mut out = Vec::new();
        // March the clock far past several wheel revolutions, always
        // scheduling one event a few cycles out.
        let mut expected = Vec::new();
        let mut drained = Vec::new();
        for now in 0..1000u64 {
            let t = now + 1 + (now % 7);
            q.push(t, now);
            expected.push((t, now));
            q.take_due(now + 1, &mut out);
            drained.extend_from_slice(&out);
        }
        // Flush the tail.
        q.take_due(2000, &mut out);
        drained.extend_from_slice(&out);
        assert!(q.is_empty());
        expected.sort_unstable();
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected, "event loss or duplication");
        // And the streamed drain itself must already be (t, seq)-sorted
        // within each take_due batch with non-decreasing t across calls.
        for w in drained.windows(2) {
            assert!(w[0].0 <= w[1].0 || w[0] < w[1]);
        }
    }

    #[test]
    fn mixed_near_and_far_interleave_exactly() {
        // Exhaustive cross-check against a plain sorted list.
        let mut q = EventQueue::new();
        let mut reference = Vec::new();
        let mut seq = 0u64;
        let mut out = Vec::new();
        let mut got = Vec::new();
        for now in 0..300u64 {
            for &dt in &[1u64, 3, WHEEL as u64 - 1, WHEEL as u64, 120] {
                let t = now + dt;
                q.push(t, seq);
                reference.push((t, seq));
                seq += 1;
            }
            q.take_due(now + 1, &mut out);
            got.extend_from_slice(&out);
        }
        q.take_due(10_000, &mut out);
        got.extend_from_slice(&out);
        reference.sort_unstable();
        assert_eq!(got.len(), reference.len());
        // The streamed output is the reference order exactly: each batch
        // is sorted and batches are bounded by the clock.
        let mut resorted = got.clone();
        resorted.sort_unstable();
        assert_eq!(resorted, reference);
        for w in got.windows(2) {
            assert!(
                w[0] <= w[1],
                "stream out of (t, seq) order: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
}
