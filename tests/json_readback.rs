//! Every JSON document the system writes reads back through
//! `parse_json`: the Explorer's curve (one with a non-finite held-out
//! R² among them), each `repro` experiment's tables at tiny size, a
//! stored job spec with a pin, and the body of every server route.
//!
//! All of them are built by `core::json`'s one writer, so this is the
//! check that the writer never emits what the reader refuses (a `-inf`,
//! an `inf.0`, an unescaped string).

use armdse::analysis::report::{discarded_table, tables_to_json, Table};
use armdse::analysis::{
    accuracy, bottleneck, crossval, fig1, headline, importance, multicore, sweeps, table1, unseen,
};
use armdse::core::explorer::{ExploreControl, ExploreOptions, Explorer};
use armdse::core::json::{parse_json, Json};
use armdse::core::space::ParamSpace;
use armdse::core::{CampaignFiles, DseDataset, Engine, JobSpec, SurrogateSuite};
use armdse::kernels::{App, WorkloadScale};
use armdse::server::{client, Server, ServerConfig};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "armdse_json_readback_{name}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `body` parsed, or a panic naming `what` and quoting the body.
fn read_back(what: &str, body: &str) -> Json {
    parse_json(body).unwrap_or_else(|e| panic!("{what} does not read back ({e}):\n{body}"))
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    &v.as_object().expect("an object")[key]
}

/// A tiny STREAM exploration's `explore_curve.json`, one point per round.
fn explore_curve(name: &str, holdout: usize) -> Vec<Json> {
    let dir = tmp(name);
    let opts = ExploreOptions {
        scale: WorkloadScale::Tiny,
        pool: 30,
        budget: 8,
        batch: 4,
        holdout,
        ..ExploreOptions::for_app(App::Stream)
    };
    let engine = Engine::idealized();
    let explorer = Explorer::new(&engine, &ParamSpace::paper(), opts, &dir).unwrap();
    assert!(explorer.run(ExploreControl::default()).unwrap().completed);
    let body = std::fs::read_to_string(dir.join("explore_curve.json")).unwrap();
    let doc = read_back("explore_curve.json", &body);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(field(&doc, "app").as_str(), Some("STREAM"));
    field(&doc, "points").as_array().unwrap().to_vec()
}

#[test]
fn the_explore_curve_reads_back() {
    let points = explore_curve("curve", 10);
    assert_eq!(points.len(), 2);
    for p in &points {
        assert!(field(p, "r2").as_f64().is_some(), "{p:?}");
        assert_eq!(field(p, "model_hash").as_str().map(str::len), Some(16));
    }
}

/// One held-out point has no variance, so every round's R² is -inf:
/// the curve writes `null` there.
#[test]
fn an_explore_curve_with_a_non_finite_r2_reads_back() {
    let points = explore_curve("curve_inf", 1);
    assert!(!points.is_empty());
    for p in &points {
        assert_eq!(field(p, "r2"), &Json::Null, "{p:?}");
    }
}

/// Every experiment `repro all` (and `dataset` under `--metrics`)
/// emits, built as `repro` builds it at `--configs 40 --scale tiny
/// --sweep-configs 2`, renders JSON that reads back table for table.
#[test]
fn every_repro_experiments_tables_read_back() {
    let dir = tmp("repro");
    let spec = JobSpec {
        configs: 40,
        scale: WorkloadScale::Tiny,
        seed: 20240931,
        threads: 2,
        ..JobSpec::default()
    };
    let sweep = JobSpec {
        configs: 2,
        seed: spec.seed ^ 0x5EED_CAFE,
        ..spec.clone()
    };
    let engine = spec.engine();

    let files = CampaignFiles {
        csv: dir.join("dataset.csv"),
        checkpoint: dir.join("dataset.ckpt"),
        metrics: Some(dir.join("metrics.csv")),
    };
    let mut campaign = files.open(true).unwrap();
    let plan = spec.plan().unwrap();
    assert!(campaign.run(&engine, &plan, None).unwrap().completed);
    let data = DseDataset::load_csv(&files.csv).unwrap();
    let suite = SurrogateSuite::train(&data, 0.2, spec.seed);
    let metrics = bottleneck::MetricsTable::load_csv(&dir.join("metrics.csv")).unwrap();
    let fig3 = importance::from_suite(&suite, "Fig. 3");
    let (fig7, fig8) = (
        sweeps::fig7(&engine, &sweep).unwrap(),
        sweeps::fig8(&engine, &sweep).unwrap(),
    );
    let half = JobSpec {
        configs: 20,
        ..spec.clone()
    };

    let experiments: Vec<(&str, Vec<Table>)> = vec![
        ("discarded", vec![discarded_table(&campaign.sink.discarded)]),
        ("bottleneck", bottleneck::run(&metrics, &fig3).tables()),
        ("fig1", vec![fig1::run(&engine, &spec).unwrap().table()]),
        ("table1", vec![table1::run(&engine, &spec).unwrap().table()]),
        ("fig2", vec![accuracy::from_suite(&suite).table()]),
        ("fig3", vec![fig3.table()]),
        (
            "fig4",
            vec![importance::fig45(&engine, &half, 128).unwrap().table()],
        ),
        (
            "fig5",
            vec![importance::fig45(&engine, &half, 2048).unwrap().table()],
        ),
        ("fig6", vec![sweeps::fig6(&engine, &sweep).unwrap().table()]),
        ("fig7", vec![fig7.table()]),
        ("fig8", vec![fig8.table()]),
        (
            "headline",
            vec![headline::from_parts(&suite, &fig7, &fig8).table()],
        ),
        ("unseen", vec![unseen::run(&data, spec.seed).table()]),
        ("multicore", vec![multicore::run(&spec).unwrap().table()]),
        ("crossval", crossval::run(&data, &suite, &fig7).tables()),
    ];
    for (name, tables) in &experiments {
        let doc = read_back(name, &tables_to_json(tables));
        let read = doc.as_array().unwrap();
        assert_eq!(read.len(), tables.len(), "{name}");
        for (t, r) in tables.iter().zip(read) {
            assert_eq!(field(r, "title").as_str(), Some(t.title.as_str()), "{name}");
            assert_eq!(field(r, "rows").as_array().unwrap().len(), t.rows.len());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Each route's body reads back: `POST /jobs`, `GET /jobs`,
/// `GET /jobs/{id}`, `GET /stats`, an error and `POST /shutdown`; and
/// so does the spec the store keeps for a job with a pin.
#[test]
fn every_server_body_and_a_stored_spec_read_back() {
    let dir = tmp("server");
    let jobs_dir = dir.join("jobs");
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs_dir: jobs_dir.clone(),
        runners: 1,
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.serve());
    let call = |method: &str, path: &str, body: Option<&str>, status: u16| {
        let resp = client::request(&addr, method, path, body).unwrap();
        assert_eq!(resp.status, status, "{method} {path}: {}", resp.text());
        read_back(&format!("{method} {path}"), &resp.text())
    };

    let spec = JobSpec {
        configs: 2,
        scale: WorkloadScale::Tiny,
        apps: vec![App::Stream],
        pins: vec![("Vector-Length".into(), 512.0)],
        ..JobSpec::default()
    };
    let submitted = call("POST", "/jobs", Some(&spec.to_json()), 201);
    let id = field(&submitted, "id").as_u64().unwrap();
    let stored = std::fs::read_to_string(jobs_dir.join(format!("job-{id}.spec.json"))).unwrap();
    read_back("job spec", &stored);
    assert!(stored.contains("\"Vector-Length\": 512.0"), "{stored}");
    assert_eq!(JobSpec::from_json(&stored).unwrap(), spec);

    let status = loop {
        let s = call("GET", &format!("/jobs/{id}"), None, 200);
        if field(&s, "state").as_str() == Some("done") {
            break s;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(field(&status, "error"), &Json::Null);
    let listed = call("GET", "/jobs", None, 200);
    assert_eq!(listed.as_array().unwrap(), [status]);
    let stats = call("GET", "/stats", None, 200);
    assert_eq!(
        field(&stats, "schema").as_str(),
        Some("armdse-server-stats-v1")
    );
    assert_eq!(field(field(&stats, "jobs"), "done").as_u64(), Some(1));
    let refused = call("POST", &format!("/jobs/{id}/pause"), None, 409);
    assert!(field(&refused, "error").as_str().is_some());
    let missing = call("GET", "/jobs/\"quoted\"", None, 404);
    assert!(field(&missing, "error")
        .as_str()
        .unwrap()
        .contains("\"quoted\""));
    assert_eq!(
        field(&call("POST", "/shutdown", None, 200), "ok"),
        &Json::Bool(true)
    );
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
