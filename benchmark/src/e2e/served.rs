//! `served_jobs`: an in-process job server driven by closed-loop
//! clients — each waits for a job's last row before submitting its next,
//! as an agent in the loop does — over a seeded 90 % probe / 10 % bulk
//! schedule.

use super::api::*;
use super::compare::get;
use super::replay::{self, Counts, Durable};
use super::sweep::run_to_csv;
use super::trace::Tracer;
use super::{file_digest, fnv, median, percentile, Ctx, Outcome, Rep, Workload, FNV_INIT};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

const PROBE_SPECS: usize = 8;
/// Bulk jobs take most of the wall, so several distinct ones keep one
/// unusually slow 128-point sample from deciding a seed's result.
const BULK_SPECS: usize = 8;
const RUNNERS: usize = 2;

/// One of the 16 distinct job specs the schedule draws from.
struct Spec {
    desc: PlanDesc,
    json: String,
    bulk: bool,
    /// Digest of a direct `Engine::run_controlled` of the same plan.
    digest: u64,
}

/// What one closed-loop job observed.
#[derive(Clone, Copy, Default)]
struct Served {
    spec: usize,
    /// The id the server assigned (0 if the submission failed).
    id: u64,
    /// Submit -> last row byte.
    latency_ms: f64,
    /// Submit -> first streamed row byte.
    first_row_ms: f64,
    /// 201 -> first status that is no longer `queued` (traced run only).
    queue_wait_ms: f64,
    digest: u64,
    requests: u64,
    http_errors: u64,
    /// The job ended `done` with `rows + discarded == total_jobs`.
    done: bool,
}

/// A bound server on its own thread; shut down and joined on drop.
struct Running {
    addr: String,
    thread: Option<JoinHandle<()>>,
}

impl Running {
    fn start(jobs_dir: &Path, runners: usize) -> Running {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs_dir: jobs_dir.to_path_buf(),
            runners,
        })
        .expect("benchmark server binds an ephemeral port");
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.serve().expect("accept loop ends cleanly"));
        Running {
            addr,
            thread: Some(thread),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        // A failed shutdown request leaves the accept loop running; the
        // join below would then hang, so only join after a 200.
        let stopped =
            client::request(&self.addr, "POST", "/shutdown", None).is_ok_and(|r| r.status == 200);
        if let (true, Some(t)) = (stopped, self.thread.take()) {
            t.join().ok();
        }
    }
}

pub struct ServedJobs {
    server: Running,
    jobs_dir: PathBuf,
    space: ParamSpace,
    specs: Vec<Spec>,
    /// Spec index per job, per client.
    schedule: [Vec<usize>; 2],
    /// The most recent 2-client repetition's jobs: what a client saw
    /// while the other client's jobs competed for the runners.
    loaded: Vec<Served>,
    submitted: u64,
    http_errors: u64,
}

/// A seeded schedule of `jobs` jobs with exactly `jobs / 10` (at least
/// one) bulk jobs at shuffled positions.
fn schedule(seed: u64, jobs: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut next = || rng.next_u64() as usize;
    let bulk = (jobs / 10).max(1);
    let mut order: Vec<usize> = (0..jobs)
        .map(|i| {
            if i < bulk {
                PROBE_SPECS + next() % BULK_SPECS
            } else {
                next() % PROBE_SPECS
            }
        })
        .collect();
    for i in (1..order.len()).rev() {
        order.swap(i, next() % (i + 1));
    }
    order
}

/// Run one request as a `server.<name>` span when tracing, bare when not.
fn spanned<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    request: impl FnOnce() -> T,
) -> T {
    match tr.as_deref_mut() {
        Some(t) => t.call("server", name, op, request),
        None => request(),
    }
}

fn job_status(addr: &str, id: u64, s: &mut Served) -> Option<JobStatus> {
    s.requests += 1;
    let resp = client::request(addr, "GET", &format!("/jobs/{id}"), None).ok()?;
    if resp.status != 200 {
        s.http_errors += 1;
        return None;
    }
    JobStatus::from_json(&resp.text()).ok()
}

/// Follow a job's row stream to EOF. Returns whether it answered 200 and
/// the digest of the streamed bytes (comparable with `file_digest`);
/// `on_rows` runs at the first non-empty chunk.
fn stream_rows(addr: &str, id: u64, mut on_rows: impl FnMut()) -> (bool, u64) {
    let (mut h, mut len) = (FNV_INIT, 0u64);
    let code = client::stream(
        addr,
        "GET",
        &format!("/jobs/{id}/rows"),
        None,
        &mut |chunk| {
            if len == 0 && !chunk.is_empty() {
                on_rows();
            }
            h = fnv(h, chunk);
            len += chunk.len() as u64;
            Ok(())
        },
    );
    (code == Ok(200), fnv(h, &len.to_le_bytes()))
}

/// One closed-loop job: `POST /jobs`, then follow `GET /jobs/{id}/rows`
/// to EOF. With a tracer, each request is a span and the queue wait is
/// observed by polling the job's status.
fn serve_one(addr: &str, spec_ix: usize, spec: &Spec, mut tr: Option<&mut Tracer>) -> Served {
    let mut s = Served {
        spec: spec_ix,
        ..Served::default()
    };
    let op = spec_ix as u64;
    let t0 = Instant::now();
    s.requests += 1;
    let resp = spanned(&mut tr, "submit", op, || {
        client::request(addr, "POST", "/jobs", Some(&spec.json))
    });
    let id = match resp {
        Ok(r) if r.status == 201 => match JobStatus::from_json(&r.text()) {
            Ok(st) => st.id,
            Err(_) => return s,
        },
        _ => {
            s.http_errors += 1;
            return s;
        }
    };
    s.id = id;

    if tr.is_some() {
        let accepted = t0.elapsed();
        while spanned(&mut tr, "status", op, || job_status(addr, id, &mut s))
            .is_some_and(|st| st.state == JobState::Queued)
        {
            std::thread::yield_now();
        }
        s.queue_wait_ms = (t0.elapsed() - accepted).as_secs_f64() * 1e3;
    }

    let mut first = None;
    s.requests += 1;
    let (ok, digest) = spanned(&mut tr, "stream", op, || {
        stream_rows(addr, id, || first = Some(t0.elapsed()))
    });
    s.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    s.first_row_ms = first.unwrap_or_else(|| t0.elapsed()).as_secs_f64() * 1e3;
    s.http_errors += u64::from(!ok);
    s.digest = digest;

    let st = spanned(&mut tr, "status", op, || job_status(addr, id, &mut s));
    s.done =
        st.is_some_and(|st| st.state == JobState::Done && st.rows + st.discarded == st.total_jobs);
    s
}

impl ServedJobs {
    /// Account one pass over the schedule: checks, failures, digest.
    fn account(&mut self, served: &[Served], wall_s: f64, out: &mut Outcome) -> Rep {
        let mut rep = Rep {
            wall_s,
            artifact: FNV_INIT,
            ..Rep::default()
        };
        let (mut matching, mut done) = (true, true);
        for s in served {
            let spec = &self.specs[s.spec];
            rep.attempted += spec.desc.jobs() as u64 + s.requests;
            rep.failed += s.http_errors + u64::from(!s.done);
            rep.artifact = fnv(rep.artifact, &s.digest.to_le_bytes());
            matching &= s.digest == spec.digest;
            done &= s.done;
            self.http_errors += s.http_errors;
        }
        self.submitted += served.len() as u64;
        out.check(
            "every served job's streamed bytes == a direct Engine run of its spec",
            matching,
        );
        out.check(
            "every served job ended done with rows + discarded == jobs",
            done,
        );
        rep
    }

    /// One reading per job of `served` whose spec is (`bulk`) or is not
    /// a bulk job.
    fn readings(&self, served: &[Served], bulk: bool, of: impl Fn(&Served) -> f64) -> Vec<f64> {
        served
            .iter()
            .filter(|s| self.specs[s.spec].bulk == bulk)
            .map(of)
            .collect()
    }
}

impl Workload for ServedJobs {
    fn setup(ctx: &Ctx) -> ServedJobs {
        let dir = ctx.dir("served_jobs");
        let space = ParamSpace::paper();
        let bulk_configs = ctx.size(128, 4);
        let reference = Engine::idealized();
        let specs = (0..PROBE_SPECS + BULK_SPECS)
            .map(|k| {
                let bulk = k >= PROBE_SPECS;
                let mut desc = PlanDesc::sweep(
                    if bulk { bulk_configs } else { 2 },
                    WorkloadScale::Tiny,
                    ctx.sub_seed(10 + k as u64),
                    &App::ALL,
                );
                if bulk {
                    // 4 chunks, so rows stream while the job still runs.
                    desc.chunk_jobs = bulk_configs;
                }
                let csv = dir.join("reference.csv");
                run_to_csv(
                    &reference,
                    &desc.run_plan(&space, 1),
                    &csv,
                    &dir.join("reference.ckpt"),
                    ReuseMode::Inherit,
                );
                Spec {
                    json: desc.job_spec().to_json(),
                    bulk,
                    digest: file_digest(&csv),
                    desc,
                }
            })
            .collect();
        let per_client = ctx.size(120, 6);
        let jobs_dir = dir.join("jobs");
        ServedJobs {
            server: Running::start(&jobs_dir, RUNNERS),
            jobs_dir,
            space,
            specs,
            schedule: [
                schedule(ctx.sub_seed(30), per_client),
                schedule(ctx.sub_seed(31), per_client),
            ],
            loaded: Vec::new(),
            submitted: 0,
            http_errors: 0,
        }
    }

    fn jobs(&self) -> u64 {
        self.schedule
            .iter()
            .flatten()
            .map(|&i| self.specs[i].desc.jobs() as u64)
            .sum()
    }

    /// `threads` closed-loop clients share the two schedules.
    fn rep(&mut self, threads: usize, out: &mut Outcome) -> Rep {
        let lists: Vec<Vec<usize>> = if threads >= 2 {
            self.schedule.to_vec()
        } else {
            vec![self.schedule.concat()]
        };
        let (addr, specs) = (&self.server.addr, &self.specs);
        let t = Instant::now();
        let served: Vec<Served> = std::thread::scope(|scope| {
            let clients: Vec<_> = lists
                .iter()
                .map(|list| {
                    scope.spawn(move || {
                        list.iter()
                            .map(|&i| serve_one(addr, i, &specs[i], None))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread does not panic"))
                .collect()
        });
        let wall_s = t.elapsed().as_secs_f64();
        let rep = self.account(&served, wall_s, out);
        if threads >= 2 {
            self.loaded = served;
        }
        rep
    }

    fn traced(&mut self, ctx: &Ctx, base: &Rep, par: &Rep, out: &mut Outcome) {
        // Latencies a client saw under the 2-client load: `loaded` is the
        // `threads=2` repetition whichever order the repetitions ran in.
        let loaded = self.readings(&self.loaded, false, |s| s.latency_ms);
        out.set("server.job_latency_p50_ms", median(&loaded));
        out.set("server.job_latency_p95_ms", percentile(&loaded, 95.0));
        out.set("server.job_latency_p99_ms", percentile(&loaded, 99.0));
        let first_rows = self.readings(&self.loaded, true, |s| s.first_row_ms);
        out.set("server.first_row_p50_ms", median(&first_rows));

        // Traced pass: one client, one span per request, queue wait by
        // polling the job's status.
        let mut tr = Tracer::new();
        let root = tr.begin("bench", "traced_run", 0);
        let served: Vec<Served> = self
            .schedule
            .concat()
            .into_iter()
            .map(|i| serve_one(&self.server.addr, i, &self.specs[i], Some(&mut tr)))
            .collect();
        tr.end(root);
        let traced_wall_s = tr.seconds(root);
        let unloaded = self.readings(&served, false, |s| s.latency_ms);
        let waits: Vec<f64> = served.iter().map(|s| s.queue_wait_ms).collect();
        out.set("core.scheduler.queue_wait_p50_ms", median(&waits));
        let rep = self.account(&served, traced_wall_s, out);
        out.count(&rep);
        out.check(
            "traced threads=1 bytes == untraced threads=2 bytes",
            rep.artifact == par.artifact,
        );
        replay::report_trace(&tr.self_times(), traced_wall_s, base.wall_s, out);

        // The same scheduled jobs in-process, each on a fresh engine as
        // the server builds one per job: the layer split under the wire.
        let mut inner = Tracer::new();
        let mut counts = Counts::default();
        let replay_dir = ctx.dir("served_jobs_replay");
        let inner_root = inner.begin("bench", "inprocess_replay", 0);
        for (n, &i) in self.schedule.concat().iter().enumerate() {
            let engine = Engine::idealized();
            let csv = replay_dir.join("job.csv");
            let mut sink = inner
                .call("core.engine", "sink", n as u64, || CsvSink::create(&csv))
                .expect("scratch CSV is writable");
            replay::replay(
                &mut inner,
                &mut counts,
                &engine,
                n as u64,
                &self.space,
                &self.specs[i].desc,
                Some(Durable {
                    sink: &mut sink,
                    checkpoint: &replay_dir.join("job.ckpt"),
                }),
                None,
            );
        }
        inner.end(inner_root);
        replay::report(&inner.self_times(), &counts, 1, out);

        // What the wire and the store add to a probe job: its unloaded
        // latency against an in-process run of the same spec.
        let direct: Vec<f64> = self.specs[..PROBE_SPECS]
            .iter()
            .map(|spec| {
                let t = Instant::now();
                run_to_csv(
                    &Engine::idealized(),
                    &spec.desc.run_plan(&self.space, 1),
                    &replay_dir.join("direct.csv"),
                    &replay_dir.join("direct.ckpt"),
                    ReuseMode::Inherit,
                );
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("server.tax_ms_per_job", median(&unloaded) - median(&direct));

        self.stream_probe(out);
        self.store_probes(ctx, out);
        let stats = client::request(&self.server.addr, "GET", "/stats", None)
            .ok()
            .and_then(|r| parse_json(&r.text()).ok());
        let stat = |key: &str| {
            stats
                .as_ref()
                .and_then(|s| get(s, key)?.as_f64())
                .unwrap_or(f64::NAN)
        };
        out.set("server.requests", stat("requests"));
        out.set("server.streams", stat("streams"));
        out.set("server.http_errors", self.http_errors as f64);
        out.tracers.push(inner);
        out.tracers.push(tr);
    }
}

impl ServedJobs {
    /// Rows per second off a finished bulk job's CSV: chunked streaming
    /// with no simulation behind it.
    fn stream_probe(&mut self, out: &mut Outcome) {
        let spec = &self.specs[PROBE_SPECS];
        let done = serve_one(&self.server.addr, PROBE_SPECS, spec, None);
        self.submitted += 1;
        let id = done.id;
        let rows = spec.desc.jobs() as f64;
        let passes = 5;
        let t = Instant::now();
        let mut same = done.done;
        for _ in 0..passes {
            let (ok, digest) = stream_rows(&self.server.addr, id, || ());
            same &= ok && digest == spec.digest;
        }
        out.set(
            "server.stream_rows_per_s",
            passes as f64 * rows / t.elapsed().as_secs_f64(),
        );
        out.check("a finished job re-streams its reference bytes", same);
    }

    /// Submission and status cost with nothing executing (no runners),
    /// `JobStore::create` on its own, and the restart cost of reopening
    /// the populated store.
    fn store_probes(&self, ctx: &Ctx, out: &mut Outcome) {
        let n = ctx.size(50, 5);
        let idle = Running::start(&ctx.dir("served_jobs_idle"), 0);
        let probe = &self.specs[0];
        let mut answered = true;
        let mut timed = |method: &str, path: &str, body: Option<&str>, expect: u16| {
            let t = Instant::now();
            let resp = client::request(&idle.addr, method, path, body);
            answered &= resp.is_ok_and(|r| r.status == expect);
            t.elapsed().as_secs_f64() * 1e6
        };
        let submit_us: Vec<f64> = (0..n)
            .map(|_| timed("POST", "/jobs", Some(&probe.json), 201))
            .collect();
        let status_us: Vec<f64> = (0..n).map(|_| timed("GET", "/jobs/1", None, 200)).collect();
        out.check(
            "idle server accepts every submission and reports its queued job",
            answered,
        );
        drop(idle);
        out.set("server.submit_p50_us", median(&submit_us));
        out.set("server.status_p50_us", median(&status_us));

        let store = JobStore::open(&ctx.dir("served_jobs_store")).expect("scratch store opens");
        let create_us: Vec<f64> = (0..n)
            .map(|_| {
                let t = Instant::now();
                store
                    .create(probe.desc.job_spec())
                    .expect("generated spec is valid");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.set("core.jobstore.create_us", median(&create_us));

        let t = Instant::now();
        let reopened = JobStore::open(&self.jobs_dir);
        out.set("core.jobstore.open_s", t.elapsed().as_secs_f64());
        out.check("the populated store reopens", reopened.is_ok());
        out.set("core.jobstore.jobs", self.submitted as f64);
    }
}
