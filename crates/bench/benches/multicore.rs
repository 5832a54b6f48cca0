//! Benchmarks of the multicore machine layer: simulated core-cycles
//! per second through the full `MultiCore` backend at N = 1, 2, 4
//! cores, plus a small 2-core campaign through the engine for the
//! orchestration-inclusive number.
//!
//! The N=1 point is the slice-loop overhead bound (it must track the
//! single-core backend), and the N=2/4 points record how simulation
//! throughput scales as the machine grows — a slice-loop or shared-L2
//! regression moves these before it moves anything user-visible.

use armdse_bench::harness::Harness;
use armdse_core::dataset::DseDataset;
use armdse_core::engine::{Engine, RunPlan};
use armdse_core::orchestrator::GenOptions;
use armdse_core::space::ParamSpace;
use armdse_kernels::{App, WorkloadScale};
use armdse_simcore::{CoreParams, MultiCore, RunMode, SimBackend, Topology};
use std::hint::black_box;

/// A small single-threaded campaign over the extended kernels, so the
/// measured quantity is machine time, not thread scheduling.
fn plan() -> RunPlan {
    let opts = GenOptions {
        configs: 4,
        scale: WorkloadScale::Tiny,
        seed: 0x3C0_2E24,
        threads: 1,
        apps: vec![App::Spmv, App::Gemm, App::Graph],
    };
    RunPlan::new(&ParamSpace::paper(), &opts).expect("bench plan validates")
}

fn main() {
    let mut h = Harness::from_args("multicore");

    // Single-workload machine throughput at each core count: one SpMV
    // (gather-bound, so the shared backside is actually exercised) on
    // the ThunderX2 point. Elements = total core-cycles simulated per
    // iteration (cores × makespan), so the reported rate is
    // core-cycles/sec and comparable across N.
    let engine = Engine::idealized();
    let core = CoreParams::thunderx2();
    let mem = armdse_memsim::MemParams::thunderx2();
    let w = engine.workload(App::Spmv, WorkloadScale::Tiny, core.vector_length);
    for n in [1u32, 2, 4] {
        let machine = MultiCore::new(n, Topology::default().banks);
        let plain = || {
            machine
                .run(&w.program, &core, &mem, RunMode::Plain)
                .stats
                .cycles
        };
        let cycles = plain();
        h.bench_throughput(
            &format!("multicore/n{n}_core_cycles"),
            cycles * n as u64,
            || black_box(plain()),
        );
    }

    // Campaign-level: simulated jobs/sec through the engine on the
    // 2-core machine, the number a `repro --cores 2` user experiences.
    let p = plan();
    let mc = Engine::multicore(2, 4);
    h.bench_throughput("multicore/n2_campaign_jobs", p.jobs() as u64, || {
        let mut sink = DseDataset::default();
        mc.run(&p, &mut sink).expect("bench campaign runs");
        black_box(sink.rows.len())
    });

    h.finish();
}
