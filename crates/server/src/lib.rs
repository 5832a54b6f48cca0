//! # armdse-server — DSE-as-a-service over the core job scheduler
//!
//! The serving layer of the run path's three layers (DESIGN.md §14): a
//! std-only HTTP/1.1 server (hand-rolled over [`std::net::TcpListener`];
//! see `http.rs`) exposing the [`armdse_core::scheduler::JobScheduler`]
//! and [`armdse_core::jobstore::JobStore`] as a wire API. Campaigns are
//! submitted as JSON job specs, execute on runner threads with an
//! engine built for each run, and stream their dataset rows back
//! incrementally with chunked transfer encoding — byte-identical to the
//! CSV a direct `Engine::run` of the same plan writes, at any thread
//! count, across pause/resume cycles and server restarts.
//!
//! The wire protocol — endpoints, JSON schemas, chunked framing, error
//! codes — is specified in docs/SERVER.md. The [`client`] module and
//! the `armdse-client` binary are the matching consumer.

#![warn(missing_docs)]

pub mod client;
mod http;

use armdse_core::jobstore::{Job, JobId, JobOpError, JobSpec, JobState};
use armdse_core::json::{self, Layout, ToJson};
use armdse_core::scheduler::JobScheduler;
use armdse_core::ArmdseError;
use http::Request;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a serving process is configured.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Directory holding the job store (specs, CSVs, checkpoints).
    pub jobs_dir: PathBuf,
    /// Runner threads executing jobs.
    pub runners: usize,
}

/// Monotone service counters, reported by `GET /stats`
/// (schema `armdse-server-stats-v1`).
#[derive(Debug, Default)]
pub(crate) struct ServerStats {
    /// Requests accepted (any endpoint, any outcome).
    pub requests: AtomicU64,
    /// Jobs successfully submitted.
    pub submissions: AtomicU64,
    /// Row/metrics streams opened.
    pub streams: AtomicU64,
    /// CSV lines streamed across all streams.
    pub stream_rows: AtomicU64,
    /// Payload bytes streamed across all streams.
    pub stream_bytes: AtomicU64,
}

impl ServerStats {
    fn to_json(&self, sched: &JobScheduler) -> String {
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let jobs = |j: &mut json::Writer| {
            for (state, n) in sched.store().state_counts() {
                j.field(state, n);
            }
        };
        let doc = json::object(Layout::Spaced, |o| {
            o.field("schema", "armdse-server-stats-v1");
            o.field("requests", count(&self.requests));
            o.field("submissions", count(&self.submissions));
            o.field("streams", count(&self.streams));
            o.field("stream_rows", count(&self.stream_rows));
            o.field("stream_bytes", count(&self.stream_bytes));
            o.field("jobs", json::object(Layout::Spaced, jobs));
        });
        doc.render()
    }
}

struct Inner {
    sched: JobScheduler,
    stats: ServerStats,
    shutdown: AtomicBool,
    addr: std::net::SocketAddr,
}

/// The job server: a bound listener plus the scheduler it fronts.
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Server {
    /// Bind `config.addr`, open (or recover) the job store at
    /// `config.jobs_dir`, and start `config.runners` runner threads.
    /// Jobs interrupted by a previous shutdown reopen as `Paused`; an
    /// explicit resume request continues them byte-identically.
    pub fn bind(config: &ServerConfig) -> Result<Server, ArmdseError> {
        let sched = JobScheduler::open(&config.jobs_dir, config.runners)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            inner: Arc::new(Inner {
                sched,
                stats: ServerStats::default(),
                shutdown: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.inner.addr
    }

    /// Accept and serve connections (one thread per connection) until a
    /// `POST /shutdown` arrives. On return, running jobs have paused at
    /// a chunk boundary with their checkpoints saved, and every runner
    /// thread has been joined.
    pub fn serve(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || handle_connection(&inner, stream));
        }
        self.inner.sched.shutdown();
        Ok(())
    }
}

fn handle_connection(inner: &Inner, stream: TcpStream) {
    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // Only the request is read from the socket; row and metrics
    // streams are writes and are not timed.
    if stream.set_read_timeout(Some(http::READ_TIMEOUT)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let req = match http::read_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            let _ = respond_error(&mut writer, e.status, &e.reason);
            return;
        }
    };
    let _ = route(inner, &req, &mut writer);
}

fn respond_json(w: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    http::write_response(w, status, "application/json", body.as_bytes())
}

fn respond_error(w: &mut TcpStream, status: u16, msg: &str) -> std::io::Result<()> {
    let body = json::object(Layout::Spaced, |o| {
        o.field("error", msg);
    });
    respond_json(w, status, &body.render())
}

fn op_error(w: &mut TcpStream, e: &JobOpError) -> std::io::Result<()> {
    let status = match e {
        JobOpError::Unknown(_) => 404,
        JobOpError::BadTransition { .. } => 409,
    };
    respond_error(w, status, &e.to_string())
}

fn route(inner: &Inner, req: &Request, w: &mut TcpStream) -> std::io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => {
            let body = match std::str::from_utf8(&req.body) {
                Ok(b) => b,
                Err(_) => return respond_error(w, 400, "body is not UTF-8"),
            };
            let spec = match JobSpec::from_json(body) {
                Ok(s) => s,
                Err(e) => return respond_error(w, 400, &e.to_string()),
            };
            match inner.sched.submit(spec) {
                Ok(job) => {
                    inner.stats.submissions.fetch_add(1, Ordering::Relaxed);
                    respond_json(w, 201, &job.status().to_json())
                }
                Err(e) => respond_error(w, 400, &e.to_string()),
            }
        }
        ("GET", ["jobs"]) => {
            let jobs = inner.sched.store().list();
            let body = json::array(Layout::Spaced, jobs.iter().map(|j| j.status()));
            respond_json(w, 200, &body.render())
        }
        ("GET", ["jobs", id]) => match lookup(inner, id) {
            Ok(job) => respond_json(w, 200, &job.status().to_json()),
            Err(msg) => respond_error(w, 404, &msg),
        },
        ("GET", ["jobs", id, "rows"]) => match lookup(inner, id) {
            Ok(job) => stream_file(inner, w, &job, &job.files().csv),
            Err(msg) => respond_error(w, 404, &msg),
        },
        ("GET", ["jobs", id, "metrics"]) => match lookup(inner, id) {
            Ok(job) => match &job.files().metrics {
                Some(path) => stream_file(inner, w, &job, path),
                None => respond_error(w, 404, "job does not record metrics"),
            },
            Err(msg) => respond_error(w, 404, &msg),
        },
        ("POST", ["jobs", id, "pause"]) => job_op(inner, w, id, |s, j| s.pause(j)),
        ("POST", ["jobs", id, "resume"]) => job_op(inner, w, id, |s, j| s.resume(j)),
        ("POST", ["jobs", id, "cancel"]) => job_op(inner, w, id, |s, j| s.cancel(j)),
        ("GET", ["stats"]) => respond_json(w, 200, &inner.stats.to_json(&inner.sched)),
        ("POST", ["shutdown"]) => {
            inner.shutdown.store(true, Ordering::SeqCst);
            let body = json::object(Layout::Spaced, |o| {
                o.field("ok", true);
            });
            respond_json(w, 200, &body.render())?;
            // Pause running jobs and join runners before waking the
            // accept loop, so "shutdown acknowledged" means "state is
            // durable on disk".
            inner.sched.shutdown();
            let _ = TcpStream::connect(inner.addr); // poke the accept loop
            Ok(())
        }
        (_, ["jobs", ..]) | (_, ["stats"]) | (_, ["shutdown"]) => {
            respond_error(w, 405, &format!("method {} not allowed here", req.method))
        }
        _ => respond_error(w, 404, &format!("no such endpoint {}", req.path)),
    }
}

/// The job path segment `id` names, or the 404 message quoting it.
fn lookup(inner: &Inner, id: &str) -> Result<Arc<Job>, String> {
    id.parse::<JobId>()
        .ok()
        .and_then(|id| inner.sched.store().get(id))
        .ok_or_else(|| format!("unknown job {id}"))
}

fn job_op(
    inner: &Inner,
    w: &mut TcpStream,
    id: &str,
    op: impl Fn(&JobScheduler, JobId) -> Result<armdse_core::jobstore::JobStatus, JobOpError>,
) -> std::io::Result<()> {
    let job = match lookup(inner, id) {
        Ok(j) => j,
        Err(msg) => return respond_error(w, 404, &msg),
    };
    match op(&inner.sched, job.id()) {
        Ok(status) => respond_json(w, 200, &status.to_json()),
        Err(e) => op_error(w, &e),
    }
}

/// Stream `path` to the client with chunked transfer encoding,
/// following the file as the job appends to it. The job's CSV is
/// flushed and fsynced at every chunk boundary *before* its status
/// version bumps, so waiting on [`Job::wait_change`] and then reading
/// to EOF never observes a torn row. The stream terminates once the
/// job is no longer `Queued`/`Running` and the cursor reached the file
/// length — a stream opened on a paused job returns the prefix
/// produced so far (re-fetch after resume for the full file).
fn stream_file(inner: &Inner, w: &mut TcpStream, job: &Job, path: &Path) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    inner.stats.streams.fetch_add(1, Ordering::Relaxed);
    http::write_chunked_head(w, 200, "text/csv")?;
    let mut offset: u64 = 0;
    let mut status = job.status();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        // Drain whatever the file holds past the cursor.
        if let Ok(mut f) = std::fs::File::open(path) {
            let len = f.metadata().map(|m| m.len()).unwrap_or(0);
            if len > offset {
                f.seek(SeekFrom::Start(offset))?;
                loop {
                    let n = f.read(&mut buf)?;
                    if n == 0 {
                        break;
                    }
                    http::write_chunk(w, &buf[..n])?;
                    let rows = buf[..n].iter().filter(|&&b| b == b'\n').count();
                    inner
                        .stats
                        .stream_rows
                        .fetch_add(rows as u64, Ordering::Relaxed);
                    inner
                        .stats
                        .stream_bytes
                        .fetch_add(n as u64, Ordering::Relaxed);
                    offset += n as u64;
                }
            }
        }
        let active = matches!(status.state, JobState::Queued | JobState::Running);
        let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        if !active && offset >= len {
            break;
        }
        // Wait for the next chunk boundary (or a state change); the
        // timeout guards against a version bump between our drain and
        // this wait.
        status = job.wait_change(status.version, Duration::from_millis(250));
    }
    http::finish_chunks(w)
}
