//! The heap cost of building a machine is paid once per worker thread,
//! not once per job: a thread that has run one job keeps its caches'
//! tag arrays, its hierarchy's fill maps, its rename files, its event
//! wheel and its in-flight window's ring, and the next job of no larger
//! geometry reuses them.
//! What is left is pinned here exactly, allocation by allocation, so a
//! change that puts a per-job allocation back on the run path fails
//! this test instead of only showing up as served-job CPU.
//!
//! The counters are per thread, so the test harness's own threads
//! cannot disturb a reading; the binary is still kept to this one test
//! because the allocator is process-wide.

use armdse::kernels::{build_workload, App, WorkloadScale};
use armdse::memsim::MemParams;
use armdse::simcore::{CoreParams, MultiCore, RunMode, SimBackend};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc` plus `alloc_zeroed` calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// `alloc_zeroed` calls alone: the calloc path that zero-fills.
    static ZEROED: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are bookkeeping on the side
// (const-initialised `Cell`s, which never allocate) and never influence
// a returned pointer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        bump(&ZEROED);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, zeroed allocations)` made by one plain run.
fn counted_run(app: App, scale: WorkloadScale, core: &CoreParams, mem: &MemParams) -> (u64, u64) {
    let w = build_workload(app, scale, core.vector_length);
    let (a0, z0) = (ALLOCS.with(Cell::get), ZEROED.with(Cell::get));
    let out = MultiCore::IDEALIZED.run(&w.program, core, mem, RunMode::Plain);
    let counts = (ALLOCS.with(Cell::get) - a0, ZEROED.with(Cell::get) - z0);
    assert!(out.stats.validated, "{app:?}/{scale:?} failed validation");
    counts
}

/// What a plain one-core run still allocates on a warm thread, one by
/// one:
/// * the shared backside's `Rc` (1);
/// * the machine's `Vec` of pipelines, which the per-core outputs then
///   reuse in place (1);
/// * the pipeline's queues sized from its parameters: fetch queue, the
///   four per-port-class ready queues and the store queue (6);
/// * its queues and scratch buffers that grow on first use: pending and
///   completed loads, woken waiters and due events (4).
///
/// None is zero-filled, and together they are about 10 KB.
const PER_JOB: u64 = 12;

#[test]
fn a_warm_thread_builds_machines_without_zeroing() {
    let core = CoreParams::thunderx2();
    let mem = MemParams::thunderx2();
    let (_, cold_zeroed) = counted_run(App::TeaLeaf, WorkloadScale::Small, &core, &mem);
    assert_eq!(
        cold_zeroed, 4,
        "a cold thread zero-fills L1 and L2 tags and metadata"
    );
    let smaller = MemParams {
        l1_size_kib: 16,
        l2_size_kib: 128,
        line_bytes: 128,
        ..mem
    };
    for (scale, mem) in [(WorkloadScale::Tiny, smaller), (WorkloadScale::Small, mem)] {
        let (allocs, zeroed) = counted_run(App::TeaLeaf, scale, &core, &mem);
        assert_eq!(
            zeroed, 0,
            "{scale:?}: a warm thread zero-filled machine storage"
        );
        assert_eq!(
            allocs, PER_JOB,
            "{scale:?}: the per-job allocation count moved"
        );
    }
}
