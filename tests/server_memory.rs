//! Memory held by a long-lived job server must not grow with the
//! number of jobs it has served: a terminal job holds its spec and its
//! counters, while the engine that ran it — workload cache, lowered
//! programs, run memo — is a local of that run and is gone with
//! it. When every `Job` owned its engine for the life of the process a
//! served probe job left tens of KB behind; a spec and counters are
//! about one.
//!
//! The reading is live heap bytes from a counting allocator, not
//! `VmRSS`: resident size after a job swings by several MB with which
//! malloc arena its worker threads happened to land in, which would
//! drown 150 jobs' worth of a 40 KB leak. Alone in its test binary on
//! purpose — the allocator counts the whole process.

use armdse::core::{JobScheduler, JobSpec, JobState};
use armdse::kernels::{App, WorkloadScale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is bookkeeping on the side and
// never influences a returned pointer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serve `n` probe jobs (2 configs x 4 apps, tiny) one after another.
fn serve(sched: &JobScheduler, first_seed: u64, n: u64) {
    for seed in first_seed..first_seed + n {
        let job = sched
            .submit(JobSpec {
                configs: 2,
                scale: WorkloadScale::Tiny,
                seed,
                apps: App::ALL.to_vec(),
                ..JobSpec::default()
            })
            .unwrap();
        assert_eq!(job.wait_terminal().state, JobState::Done);
    }
}

#[test]
fn terminal_jobs_release_their_engines() {
    let dir = std::env::temp_dir().join("armdse_server_memory");
    let _ = std::fs::remove_dir_all(&dir);
    let sched = JobScheduler::open(&dir, 1).unwrap();
    // Warm-up: the store's map, the queue and the runner's buffers
    // reach their steady capacity before the first reading.
    serve(&sched, 0, 50);
    let before = LIVE.load(Ordering::Relaxed);
    serve(&sched, 50, 150);
    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    sched.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let per_job_kb = grown as f64 / 150.0 / 1024.0;
    assert!(
        per_job_kb <= 15.0,
        "{per_job_kb:.1} KB of heap stayed live per served job — \
         something a run needed is outliving it"
    );
}
