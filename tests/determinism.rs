//! Determinism regression test pinning the engine's
//! `seed + config_index` contract: the generated dataset must be
//! byte-identical regardless of worker-thread count. Every scaling
//! item on the roadmap (sharding, batching, caching) leans on this.

use armdse::core::JobSpec;
use armdse::core::{DseDataset, Engine};
use armdse::kernels::{App, WorkloadScale};

fn gen_csv_bytes(threads: usize, seed: u64) -> Vec<u8> {
    let opts = JobSpec {
        configs: 16,
        scale: WorkloadScale::Tiny,
        seed,
        threads,
        apps: App::ALL.to_vec(),
        ..JobSpec::default()
    };
    let plan = opts.plan().expect("valid plan");
    let mut data = DseDataset::default();
    Engine::idealized()
        .run(&plan, &mut data)
        .expect("in-memory sink");
    assert!(!data.rows.is_empty(), "dataset must not be empty");
    let path = std::env::temp_dir().join(format!("armdse_det_{threads}threads_{seed:x}.csv"));
    data.save_csv(&path).expect("save csv");
    let bytes = std::fs::read(&path).expect("read csv back");
    std::fs::remove_file(&path).ok();
    bytes
}

const SEED: u64 = 0xD37E_2217;

/// The rows serialised with 1 worker thread and 8 worker threads must
/// be byte-for-byte identical.
#[test]
fn dataset_bytes_identical_across_thread_counts() {
    let single = gen_csv_bytes(1, SEED);
    let eight = gen_csv_bytes(8, SEED);
    assert!(
        single == eight,
        "dataset CSV differs between threads=1 ({} bytes) and threads=8 ({} bytes)",
        single.len(),
        eight.len()
    );
}

/// Sanity companion: a different seed must change the bytes (guards
/// against the comparison trivially passing on constant output).
#[test]
fn different_seed_changes_dataset_bytes() {
    let base = gen_csv_bytes(2, SEED);
    let other = gen_csv_bytes(2, 0x0DD_5EED);
    assert_ne!(base, other, "distinct seeds must give distinct datasets");
}
