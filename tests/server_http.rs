//! End-to-end wire-level tests of the job server (docs/SERVER.md): a
//! plan submitted over HTTP must stream back row bytes identical to a
//! direct `Engine::run` of the same plan — while the job is still
//! running, at 1 and 8 worker threads, and after a pause/resume cycle
//! across a full server restart. Error responses carry the documented
//! status codes (400 / 404 / 405 / 409).

use armdse::core::jobstore::JobStatus;
use armdse::core::space::ParamSpace;
use armdse::core::{CsvSink, JobSpec, JobState};
use armdse::kernels::{App, WorkloadScale};
use armdse::server::{client, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("armdse_server_http_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(configs: usize, seed: u64, threads: usize) -> JobSpec {
    JobSpec {
        configs,
        scale: WorkloadScale::Tiny,
        seed,
        threads,
        apps: App::ALL.to_vec(),
        chunk_jobs: 8,
        ..JobSpec::default()
    }
}

fn direct_csv(spec: &JobSpec, dir: &Path, tag: &str) -> Vec<u8> {
    let plan = spec.plan(&ParamSpace::paper()).unwrap();
    let path = dir.join(format!("direct_{tag}.csv"));
    let mut sink = CsvSink::create(&path).unwrap();
    let summary = spec.engine().run(&plan, &mut sink).unwrap();
    assert!(summary.completed);
    drop(sink);
    std::fs::read(&path).unwrap()
}

/// Bind on an ephemeral port and serve on a background thread.
fn start(jobs_dir: &Path, runners: usize) -> (String, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs_dir: jobs_dir.to_path_buf(),
        runners,
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn stop(addr: &str, handle: JoinHandle<std::io::Result<()>>) {
    let resp = client::request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    handle.join().unwrap().unwrap();
}

fn submit(addr: &str, spec: &JobSpec) -> u64 {
    let resp = client::request(addr, "POST", "/jobs", Some(&spec.to_json())).unwrap();
    assert_eq!(resp.status, 201, "submit failed: {}", resp.text());
    JobStatus::from_json(&resp.text()).unwrap().id
}

fn status(addr: &str, id: u64) -> JobStatus {
    let resp = client::request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(resp.status, 200, "status failed: {}", resp.text());
    JobStatus::from_json(&resp.text()).unwrap()
}

fn stream_rows(addr: &str, id: u64) -> Vec<u8> {
    let mut streamed = Vec::new();
    let code = client::stream(
        addr,
        "GET",
        &format!("/jobs/{id}/rows"),
        None,
        &mut |chunk| {
            streamed.extend_from_slice(chunk);
            Ok(())
        },
    )
    .unwrap();
    assert_eq!(code, 200);
    streamed
}

#[test]
fn submitted_plan_streams_engine_identical_bytes_at_1_and_8_threads() {
    let dir = tmp("stream");
    let (addr, handle) = start(&dir.join("jobs"), 2);
    for threads in [1usize, 8] {
        let s = spec(10, 0xFACE ^ threads as u64, threads);
        let id = submit(&addr, &s);
        // Open the stream immediately — it follows the CSV live, at
        // chunk cadence, and terminates when the job finishes.
        let streamed = stream_rows(&addr, id);
        let st = status(&addr, id);
        assert_eq!(st.state, JobState::Done, "job {id}: {:?}", st.error);
        assert_eq!(
            streamed,
            direct_csv(&s, &dir, &format!("t{threads}")),
            "streamed bytes diverged from direct Engine::run at {threads} threads"
        );
    }
    stop(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pause_resume_across_server_restart_streams_identical_bytes() {
    let dir = tmp("restart");
    let jobs_dir = dir.join("jobs");
    let (addr, handle) = start(&jobs_dir, 1);

    // A long campaign with one job per chunk: plenty of boundaries to
    // pause between.
    let mut s = spec(60, 0x5EED_0005, 2);
    s.apps = vec![App::Stream];
    s.chunk_jobs = 1;
    let id = submit(&addr, &s);

    // Wait for real progress, then pause mid-campaign.
    loop {
        let st = status(&addr, id);
        assert!(!st.state.is_terminal(), "job finished before pause");
        if st.state == JobState::Running && st.jobs_done > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let resp = client::request(&addr, "POST", &format!("/jobs/{id}/pause"), None).unwrap();
    assert_eq!(resp.status, 200, "pause failed: {}", resp.text());

    // Full restart: shut the server down (joins runners, persists job
    // state) and bind a fresh one on the same store.
    stop(&addr, handle);
    let (addr, handle) = start(&jobs_dir, 1);
    let st = status(&addr, id);
    assert_eq!(st.state, JobState::Paused, "job must reopen paused");
    assert!(
        st.jobs_done > 0 && st.jobs_done < st.total_jobs,
        "restart must preserve mid-campaign progress (done {}/{})",
        st.jobs_done,
        st.total_jobs
    );

    let resp = client::request(&addr, "POST", &format!("/jobs/{id}/resume"), None).unwrap();
    assert_eq!(resp.status, 200, "resume failed: {}", resp.text());
    let streamed = stream_rows(&addr, id);
    let st = status(&addr, id);
    assert_eq!(st.state, JobState::Done, "job {id}: {:?}", st.error);
    assert_eq!(
        streamed,
        direct_csv(&s, &dir, "restart"),
        "pause/restart/resume must not change a single output byte"
    );
    stop(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_responses_carry_documented_status_codes() {
    let dir = tmp("errors");
    let (addr, handle) = start(&dir.join("jobs"), 1);

    // 400: not JSON / unknown key (a typo, a retired one) / a key given
    // twice / missing configs / pin out of range / integers the wire
    // would otherwise truncate (2^32 + 1 cores) or round (2^53 + 1 as a
    // seed).
    for body in [
        "not json",
        "{\"bogus\": 1}",
        "{\"configs\": 2, \"interval_len\": 64}",
        "{\"configs\": 4, \"scale\": \"tiny\", \"configs\": 4000}",
        "{\"seed\": 3}",
        "{\"configs\": 0}",
        "{\"configs\": 2, \"pins\": {\"ROB-Size\": 0}}",
        "{\"configs\": 2, \"scale\": \"tiny\", \"cores\": 4294967297}",
        "{\"configs\": 2, \"scale\": \"tiny\", \"seed\": 9007199254740993}",
    ] {
        let resp = client::request(&addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(resp.status, 400, "body {body:?} → {}", resp.text());
        assert!(resp.text().contains("\"error\""));
    }

    // 404: unknown or unparsable job id (the message quotes the path
    // segment, never a made-up id), unknown endpoint, metrics on a
    // metrics-less job.
    for (method, path, names) in [
        ("GET", "/jobs/999", "unknown job 999"),
        ("POST", "/jobs/999/pause", "unknown job 999"),
        ("GET", "/jobs/abc", "unknown job abc"),
        ("POST", "/jobs/abc/pause", "unknown job abc"),
        ("GET", "/nope", "/nope"),
    ] {
        let resp = client::request(&addr, method, path, None).unwrap();
        assert_eq!(resp.status, 404, "{method} {path} → {}", resp.text());
        assert!(
            resp.text().contains(names),
            "{method} {path} → {}",
            resp.text()
        );
    }

    // 405: wrong method on a known resource.
    let resp = client::request(&addr, "DELETE", "/jobs", None).unwrap();
    assert_eq!(resp.status, 405);

    // 409: pausing a job that already finished is a bad transition.
    let mut s = spec(1, 0x0E44, 1);
    s.apps = vec![App::Stream];
    let id = submit(&addr, &s);
    loop {
        let st = status(&addr, id);
        if st.state.is_terminal() {
            assert_eq!(st.state, JobState::Done);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let resp = client::request(&addr, "POST", &format!("/jobs/{id}/pause"), None).unwrap();
    assert_eq!(resp.status, 409, "pausing a done job → {}", resp.text());
    let resp = client::request(&addr, "GET", &format!("/jobs/{id}/metrics"), None).unwrap();
    assert_eq!(
        resp.status,
        404,
        "metrics on a metrics-less job → {}",
        resp.text()
    );

    stop(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// A pin the parser would read as infinite (`1e999`) or that RFC 8259
/// does not allow (`01`, `2.e3`) is a 400, and the store keeps no file
/// of it: an infinite pin accepted here would be stored as a spec that
/// no reopen can parse.
#[test]
fn a_non_finite_or_non_rfc_pin_is_refused_and_stores_nothing() {
    let dir = tmp("inf_pin");
    let jobs = dir.join("jobs");
    let (addr, handle) = start(&jobs, 1);
    // The parser refuses these before the plan's range check sees them.
    for (name, value) in [
        ("ROB-Size", "1e999"),
        ("Load-Bandwidth", "-1e999"),
        ("ROB-Size", "01"),
        ("Vector-Length", "2.e3"),
        ("Vector-Length", "512."),
    ] {
        let body = format!("{{\"configs\": 1, \"pins\": {{\"{name}\": {value}}}}}");
        let resp = client::request(&addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(resp.status, 400, "{name} {value} → {}", resp.text());
        assert!(resp.text().contains("number"), "{}", resp.text());
    }
    assert_no_job_files(&jobs);
    stop(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

fn assert_no_job_files(jobs: &Path) {
    let stored: Vec<_> = std::fs::read_dir(jobs)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| n.to_string_lossy().starts_with("job-"))
        .collect();
    assert!(stored.is_empty(), "refused specs left {stored:?}");
}

/// A pin outside its feature's Table II range, or a fractional pin of
/// an integer feature, is a 400 naming the feature and its range, and
/// the store keeps no file of it. (A queue of 1000 would only cost
/// memory; the plan-level test of `4e9`, which would ask a runner for
/// hundreds of GB, never submits it.)
#[test]
fn an_out_of_range_or_fractional_pin_is_refused_and_stores_nothing() {
    let dir = tmp("range_pin");
    let jobs = dir.join("jobs");
    let (addr, handle) = start(&jobs, 1);
    for (name, value, range) in [
        ("Store-Queue-Size", "1000", "[4, 512]"),
        ("ROB-Size", "152.9", "[8, 512]"),
    ] {
        let body = format!("{{\"configs\": 1, \"pins\": {{\"{name}\": {value}}}}}");
        let resp = client::request(&addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(resp.status, 400, "{name} {value} → {}", resp.text());
        let text = resp.text();
        assert!(text.contains(name) && text.contains(range), "{text}");
    }
    assert_no_job_files(&jobs);
    stop(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// A thread count one past its bound is a 400 naming the key, and the
/// store keeps no file of it. The spec is one job in one-job chunks, so
/// a server that accepted it would still start no helper thread; the
/// other bounds are tested at parse level (`jobstore.rs`).
#[test]
fn a_thread_count_past_its_bound_is_refused_and_stores_nothing() {
    let dir = tmp("threads_bound");
    let jobs = dir.join("jobs");
    let (addr, handle) = start(&jobs, 1);
    let body = "{\"configs\": 1, \"scale\": \"tiny\", \"apps\": [\"STREAM\"], \
                \"chunk_jobs\": 1, \"threads\": 8193}";
    let resp = client::request(&addr, "POST", "/jobs", Some(body)).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    let text = resp.text();
    assert!(
        text.contains("threads") && text.contains("1..=8192"),
        "{text}"
    );
    assert_no_job_files(&jobs);
    stop(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// The pin that would make a runner allocate a 4e9-entry store queue is
/// refused by the plan, before any job or machine exists.
#[test]
fn a_store_queue_pin_of_4e9_is_refused_by_the_plan() {
    let mut s = spec(1, 1, 1);
    s.pins = vec![("Store-Queue-Size".into(), 4e9)];
    let err = s.plan(&ParamSpace::paper()).unwrap_err().to_string();
    assert!(err.contains("Store-Queue-Size"), "{err}");
}

/// A body nested past the parser's depth cap is a 400, not a stack
/// overflow that takes the whole server down with it.
#[test]
fn a_deeply_nested_body_is_refused_and_the_server_lives_on() {
    let dir = tmp("deep");
    let (addr, handle) = start(&dir.join("jobs"), 1);
    let resp = client::request(&addr, "POST", "/jobs", Some(&"[".repeat(500_000))).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("nest deeper"), "{}", resp.text());
    stop(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}
