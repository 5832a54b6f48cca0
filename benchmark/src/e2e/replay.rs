//! The traced run's core: execute a generated plan job by job through
//! the layers' public calls, one span per call, counting work at the
//! same boundaries. The bytes it writes must equal the untraced run's.

use super::api::*;
use super::trace::{SelfTimes, Tracer};
use super::Outcome;
use std::collections::BTreeSet;
use std::path::Path;

/// Exact counts gathered at the layer boundaries of a traced run.
#[derive(Default)]
pub struct Counts {
    pub rows: u64,
    pub discarded: u64,
    pub sim_instr: u64,
    pub sim_cycles: u64,
    /// Per paper app (by position in `App::ALL`): retired instructions and the
    /// host nanoseconds `simulate_config` took for them.
    pub app_instr: [u64; 4],
    pub app_ns: [u64; 4],
    pub mem_requests: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub mshr_peak: u64,
    pub dram_queue_wait_cycles: u64,
    pub workload_calls: u64,
    /// Distinct `(engine, app, vector length)` lowerings requested.
    pub workload_keys: BTreeSet<(u64, usize, u32)>,
    pub csv_bytes: u64,
    pub checkpoints: u64,
    /// Instructions per job from `Workload::summary`, summed: must equal
    /// what the simulator retired (per core).
    pub summary_instr: u64,
}

/// Where a replay streams its rows: the same durable CSV + checkpoint
/// pair `run_controlled` drives.
pub struct Durable<'a> {
    pub sink: &'a mut CsvSink,
    pub checkpoint: &'a Path,
}

/// Replay `desc` on `engine` (tagged `engine_id` for the workload-cache
/// count). Rows go to `durable` when given and to `keep` when given.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    tr: &mut Tracer,
    counts: &mut Counts,
    engine: &Engine,
    engine_id: u64,
    space: &ParamSpace,
    desc: &PlanDesc,
    mut durable: Option<Durable<'_>>,
    mut keep: Option<&mut Vec<Row>>,
) {
    let fingerprint = desc.run_plan(space, 1).fingerprint();
    let total = desc.jobs();
    let (mut rows, mut discarded) = (0usize, 0usize);
    let mut encoded = Vec::with_capacity(512);
    for job in 0..total {
        let op = job as u64;
        let slot = job / desc.apps.len();
        let app = desc.apps[job % desc.apps.len()];
        let (cfg, features) = tr.call("core.space", "sample", op, || {
            let cfg = space.sample_seeded(desc.seed + desc.offset(slot));
            let features = cfg.to_features();
            (cfg, features)
        });
        let vl = cfg.core.vector_length;
        let w = tr.call("kernels", "lower", op, || {
            engine.workload(app, desc.scale, vl)
        });
        counts.workload_calls += 1;
        counts.workload_keys.insert((engine_id, app.index(), vl));
        counts.summary_instr += w.summary.total();

        let sim = tr.begin("simcore", "simulate", op);
        let stats = engine.simulate_config(app, desc.scale, &cfg);
        tr.end(sim);
        counts.sim_instr += stats.retired;
        counts.sim_cycles += stats.cycles;
        if let Some(i) = App::ALL.iter().position(|a| *a == app) {
            counts.app_instr[i] += stats.retired;
            counts.app_ns[i] += (tr.seconds(sim) * 1e9) as u64;
        }
        counts.mem_requests += stats.mem.requests;
        counts.l1_hits += stats.mem.l1_hits;
        counts.l1_misses += stats.mem.l1_misses;
        counts.l2_hits += stats.mem.l2_hits;
        counts.l2_misses += stats.mem.l2_misses;
        counts.mshr_peak = counts.mshr_peak.max(stats.mem.mshr_peak);
        counts.dram_queue_wait_cycles += stats.mem.dram_queue_wait_cycles;

        if stats.validated {
            let row = Row {
                app,
                features,
                cycles: stats.cycles,
                sve_fraction: stats.sve_fraction(),
            };
            tr.call("core.dataset", "encode", op, || {
                encoded.clear();
                write_csv_row(&mut encoded, &row).expect("encoding into memory cannot fail");
            });
            counts.csv_bytes += encoded.len() as u64;
            if let Some(d) = durable.as_mut() {
                tr.call("core.engine", "sink", op, || d.sink.row(&row))
                    .expect("scratch CSV is writable");
            }
            if let Some(k) = keep.as_deref_mut() {
                k.push(row);
            }
            rows += 1;
        } else {
            discarded += 1;
        }

        let done = job + 1;
        if done % desc.chunk_jobs == 0 || done == total {
            if let Some(d) = durable.as_mut() {
                tr.call("core.engine", "sink", op, || d.sink.chunk_end())
                    .expect("scratch CSV is durable");
                let ckpt = Checkpoint {
                    fingerprint,
                    jobs_done: done,
                    rows,
                    discarded,
                    extra: Vec::new(),
                };
                tr.call("core.engine", "checkpoint", op, || ckpt.save(d.checkpoint))
                    .expect("scratch checkpoint is writable");
                counts.checkpoints += 1;
            }
        }
    }
    counts.rows += rows as u64;
    counts.discarded += discarded as u64;
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Report the per-layer metrics every replay-based workload shares.
/// `cores` scales the summary instruction count to what an N-core
/// machine retires.
pub fn report(times: &SelfTimes, counts: &Counts, cores: u64, out: &mut Outcome) {
    let self_s = |key: &str| times.get(key);
    out.set("core.space.sample_s", self_s("core.space.sample"));
    out.set("kernels.lower_s", self_s("kernels.lower"));
    let builds = counts.workload_keys.len() as u64;
    out.set("kernels.workload_builds", builds as f64);
    out.set(
        "kernels.workload_hits",
        (counts.workload_calls - builds) as f64,
    );
    let simulate_s = self_s("simcore.simulate");
    out.set("simcore.simulate_s", simulate_s);
    out.set("simcore.sim_instr", counts.sim_instr as f64);
    out.set("simcore.sim_cycles", counts.sim_cycles as f64);
    out.set("simcore.ipc", ratio(counts.sim_instr, counts.sim_cycles));
    out.set("simcore.discarded", counts.discarded as f64);
    out.set(
        "simcore.ns_per_instr",
        simulate_s * 1e9 / counts.sim_instr.max(1) as f64,
    );
    for (i, name) in [
        "simcore.ns_per_instr.STREAM",
        "simcore.ns_per_instr.MiniBude",
        "simcore.ns_per_instr.TeaLeaf",
        "simcore.ns_per_instr.MiniSweep",
    ]
    .into_iter()
    .enumerate()
    {
        if counts.app_instr[i] > 0 {
            out.set(name, ratio(counts.app_ns[i], counts.app_instr[i]));
        }
    }
    out.set("memsim.requests", counts.mem_requests as f64);
    out.set(
        "memsim.l1_miss_ratio",
        ratio(counts.l1_misses, counts.l1_hits + counts.l1_misses),
    );
    out.set(
        "memsim.l2_miss_ratio",
        ratio(counts.l2_misses, counts.l2_hits + counts.l2_misses),
    );
    out.set("memsim.mshr_peak", counts.mshr_peak as f64);
    out.set(
        "memsim.dram_queue_wait_cycles",
        counts.dram_queue_wait_cycles as f64,
    );
    out.set("core.dataset.encode_s", self_s("core.dataset.encode"));
    out.set("core.dataset.csv_bytes", counts.csv_bytes as f64);
    out.set("core.engine.sink_s", self_s("core.engine.sink"));
    out.set("core.engine.checkpoint_s", self_s("core.engine.checkpoint"));
    out.set("core.engine.checkpoints", counts.checkpoints as f64);
    out.check(
        "simulator retired exactly the instructions the workload summaries promise",
        counts.sim_instr == counts.summary_instr * cores,
    );
}

/// Report the share of the traced wall that named layer calls cover and
/// the traced wall against the untraced `threads=1` wall. Returns what is
/// left of the untraced wall once every layer span is taken out: the time
/// the product spends between its layers (floored at 0; the two walls are
/// separate runs).
pub fn report_trace(
    times: &SelfTimes,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    out: &mut Outcome,
) -> f64 {
    let covered = times.in_layers();
    out.set("trace.coverage_pct", 100.0 * covered / traced_wall_s);
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    );
    (untraced_wall_s - covered).max(0.0)
}
