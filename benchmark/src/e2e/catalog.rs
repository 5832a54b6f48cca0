//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. The smoke test holds
//! `BENCHMARK.json` at the repo root, and the names a run prints, to
//! these tables.

/// How long one driver run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u32 = 12;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// End-to-end only: share of the parent's median the metric may
    /// worsen by before it is a regression.
    pub bound: f64,
}

pub const WORKLOADS: [WorkloadDecl; 5] = [
    WorkloadDecl {
        name: "paper_grid",
        why: "The paper's pipeline: sweep x 4 apps on the idealized engine into a checkpointed CSV, then load, fit trees, rank importances. simcore+memsim dominate, mltree about a tenth.",
    },
    WorkloadDecl {
        name: "mc2_sweep",
        why: "The same sweep through the 2-core machine's slice loop and shared L2, which ROADMAP item 2 merges; a gain on paper_grid that costs the shared path shows here.",
    },
    WorkloadDecl {
        name: "reuse_sweep",
        why: "Memoized tier: a cold pass then an identical re-run, with more intervals than the 1024-entry interval cache holds; cache and hashing, not simulate, do the extra work.",
    },
    WorkloadDecl {
        name: "explore_campaign",
        why: "Explorer on STREAM: forest refits and pool-wide variance predictions dominate and simulate is the small share, the inverse of paper_grid. Guards ROADMAP item 3.",
    },
    WorkloadDecl {
        name: "served_jobs",
        why: "In-process job server, 2 runners, 2 closed-loop clients submitting 90% probe and 10% bulk jobs and streaming rows to EOF: HTTP, jobstore fsync, queue and streaming dominate.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher,
        bound,
    }
}

/// Metrics a user of the system sees; every workload reports all four.
/// Host time throughout: `wall_s` and `cpu_s` are per repetition of the
/// workload's timed body, `jobs_per_s` is simulation jobs (config x app)
/// per wall second.
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("wall_s", "s", false, 0.25),
    e2e("jobs_per_s", "1/s", true, 0.25),
    e2e("cpu_s", "s", false, 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> MetricDecl {
    e2e(name, unit, false, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDecl {
    e2e(name, unit, true, 0.0)
}

/// Metrics of single layers, from the traced run. A workload prints the
/// ones it exercises; only the driver's result line, which must carry
/// them all, reads 0 for the rest.
pub const PER_LAYER: [MetricDecl; 67] = [
    lo("core.space.sample_s", "s"),
    lo("kernels.lower_s", "s"),
    lo("kernels.workload_builds", "count"),
    hi("kernels.workload_hits", "count"),
    lo("simcore.simulate_s", "s"),
    hi("simcore.sim_instr", "count"),
    lo("simcore.sim_cycles", "count"),
    hi("simcore.ipc", "instr/cycle"),
    lo("simcore.discarded", "count"),
    lo("simcore.ns_per_instr", "ns"),
    lo("simcore.ns_per_instr.STREAM", "ns"),
    lo("simcore.ns_per_instr.MiniBude", "ns"),
    lo("simcore.ns_per_instr.TeaLeaf", "ns"),
    lo("simcore.ns_per_instr.MiniSweep", "ns"),
    lo("simcore.metrics_tax", "ratio"),
    lo("simcore.mc.ns_per_core_cycle", "ns"),
    lo("simcore.mc.n2_over_n1", "ratio"),
    hi("simcore.reuse.cold_hits", "count"),
    hi("simcore.reuse.hits", "count"),
    lo("simcore.reuse.misses", "count"),
    lo("simcore.reuse.evictions", "count"),
    hi("simcore.reuse.hit_ratio", "ratio"),
    lo("simcore.reuse.cold_over_full", "ratio"),
    lo("simcore.reuse.rerun_over_full", "ratio"),
    lo("memsim.requests", "count"),
    lo("memsim.l1_miss_ratio", "ratio"),
    lo("memsim.l2_miss_ratio", "ratio"),
    lo("memsim.mshr_peak", "count"),
    lo("memsim.dram_queue_wait_cycles", "count"),
    lo("core.dataset.encode_s", "s"),
    lo("core.dataset.csv_bytes", "bytes"),
    lo("core.dataset.load_s", "s"),
    lo("core.engine.sink_s", "s"),
    lo("core.engine.checkpoint_s", "s"),
    lo("core.engine.checkpoints", "count"),
    lo("core.scheduler.self_s", "s"),
    hi("core.scheduler.parallel_eff", "ratio"),
    lo("core.scheduler.queue_wait_p50_ms", "ms"),
    lo("mltree.tree_fit_s", "s"),
    lo("mltree.importance_s", "s"),
    lo("mltree.refit_s", "s"),
    lo("mltree.predict_s", "s"),
    lo("mltree.predictions", "count"),
    lo("core.surrogate.train_s", "s"),
    lo("core.surrogate.analysis_s", "s"),
    hi("core.surrogate.acc_pct", "%"),
    lo("core.explorer.acquire_s", "s"),
    lo("core.explorer.self_s", "s"),
    lo("core.explorer.rounds", "count"),
    hi("core.explorer.holdout_r2", "r2"),
    lo("core.jobstore.create_us", "us"),
    lo("core.jobstore.open_s", "s"),
    hi("core.jobstore.jobs", "count"),
    lo("server.submit_p50_us", "us"),
    lo("server.status_p50_us", "us"),
    hi("server.stream_rows_per_s", "1/s"),
    lo("server.tax_ms_per_job", "ms"),
    lo("server.job_latency_p50_ms", "ms"),
    lo("server.job_latency_p95_ms", "ms"),
    lo("server.job_latency_p99_ms", "ms"),
    lo("server.first_row_p50_ms", "ms"),
    lo("server.requests", "count"),
    lo("server.streams", "count"),
    lo("server.http_errors", "count"),
    lo("trace.overhead_pct", "%"),
    hi("trace.coverage_pct", "%"),
    lo("peak_rss_mb", "MiB"),
];
