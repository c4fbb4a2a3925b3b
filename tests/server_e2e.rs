//! End-to-end campaign-server tests over a real TCP socket.
//!
//! These are the acceptance criteria of the campaign-server subsystem:
//!
//! 1. A multi-config grid submitted over HTTP polls to completion and
//!    every streamed result is digest-identical to a direct
//!    `sweep_supervised` on the same grid.
//! 2. A server killed mid-job (graceful shutdown before the queue
//!    drains, plus a torn final checkpoint line) resumes from its
//!    checkpoints on restart and converges to the same digests.
//! 3. Resubmitting an identical grid completes with zero simulations —
//!    pure cache hits, verified through `GET /stats`.
//!
//! Everything runs on an ephemeral 127.0.0.1 port; no network egress.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use deadlock_characterization::flexsim::jsonio::{parse, Json};
use deadlock_characterization::flexsim::{
    decode_result, sweep_supervised, RunConfig, SweepOptions,
};
use deadlock_characterization::server::{
    http_request, http_request_full, CampaignServer, ServerOptions, SweepGrid,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A grid small enough to finish in seconds but wide enough to spread
/// across workers: 2 loads × 2 seeds.
fn test_grid() -> SweepGrid {
    let mut base = RunConfig::small_default();
    base.warmup = 200;
    base.measure = 600;
    SweepGrid {
        base,
        seeds: vec![21, 22],
        loads: vec![0.15, 0.25],
        timeout_ms: None,
    }
}

fn start_server(data_dir: &Path, workers: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let mut opts = ServerOptions::new(data_dir);
    opts.workers = workers;
    let server = CampaignServer::bind("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let (status, _) = http_request(addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

fn submit(addr: SocketAddr, grid: &SweepGrid) -> u64 {
    let (status, body) =
        http_request(addr, "POST", "/jobs", Some(&grid.to_json().to_string())).expect("submit");
    assert_eq!(status, 200, "submit failed: {body}");
    parse(&body)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .expect("submit returns an id")
}

fn poll_done(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}"), None).expect("poll");
        assert_eq!(status, 200, "poll failed: {body}");
        let v = parse(&body).unwrap();
        if v.get("state").and_then(Json::as_str) == Some("done") {
            return v;
        }
        assert!(Instant::now() < deadline, "job {id} never settled: {body}");
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// Fetches `/jobs/:id/results` and returns per-slot digests.
fn result_digests(addr: SocketAddr, id: u64, n: usize) -> Vec<String> {
    let (status, stream) =
        http_request(addr, "GET", &format!("/jobs/{id}/results"), None).expect("results");
    assert_eq!(status, 200);
    let mut out = vec![String::new(); n];
    for line in stream.lines().filter(|l| !l.trim().is_empty()) {
        let v = parse(line).expect("every streamed line parses");
        let idx = v.get("index").and_then(Json::as_u64).unwrap() as usize;
        let r = decode_result(v.get("result").unwrap()).expect("decodable result");
        out[idx] = r.digest();
    }
    out
}

fn stats_u64(addr: SocketAddr, path: &[&str]) -> u64 {
    let (status, body) = http_request(addr, "GET", "/stats", None).expect("stats");
    assert_eq!(status, 200);
    let v = parse(&body).unwrap();
    let mut cur = &v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("stats lacks {path:?}: {body}"));
    }
    cur.as_u64().unwrap()
}

#[test]
fn http_grid_matches_direct_sweep_and_resubmission_hits_cache() {
    let dir = temp_dir("grid");
    let grid = test_grid();
    let configs = grid.expand();
    let direct = sweep_supervised(&configs, &SweepOptions::default());
    let want: Vec<String> = direct
        .iter()
        .map(|r| r.as_ref().expect("direct run succeeds").digest())
        .collect();

    let (addr, handle) = start_server(&dir, 3);

    // Round 1: everything simulates, digests match the direct sweep.
    let id = submit(addr, &grid);
    let status = poll_done(addr, id);
    assert_eq!(
        status.get("completed").and_then(Json::as_u64),
        Some(configs.len() as u64)
    );
    assert_eq!(status.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(result_digests(addr, id, configs.len()), want);
    let sims_first = stats_u64(addr, &["sims_run"]);
    assert_eq!(sims_first, configs.len() as u64);

    // Round 2: identical grid — answered from the cache, zero new sims.
    let id2 = submit(addr, &grid);
    let status2 = poll_done(addr, id2);
    assert_eq!(
        status2.get("cached").and_then(Json::as_u64),
        Some(configs.len() as u64),
        "every slot should be a cache hit: {status2:?}"
    );
    assert_eq!(
        stats_u64(addr, &["sims_run"]),
        sims_first,
        "no new simulations"
    );
    assert!(stats_u64(addr, &["cache", "hits"]) >= configs.len() as u64);
    assert_eq!(result_digests(addr, id2, configs.len()), want);

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retired `shards` / `transfer_threads` knobs must not fragment the
/// content-addressed cache: the engine ignores them and the canonical
/// config text renders both as 1, so a grid resubmitted with old values
/// set is answered entirely from cache.
#[test]
fn resubmission_at_different_shard_counts_hits_cache() {
    let dir = temp_dir("shards");
    let grid = test_grid();
    let n = grid.expand().len();
    let (addr, handle) = start_server(&dir, 3);

    // Round 1: default knobs, everything simulates.
    let id = submit(addr, &grid);
    poll_done(addr, id);
    let want = result_digests(addr, id, n);
    let sims_first = stats_u64(addr, &["sims_run"]);
    assert_eq!(sims_first, n as u64);

    // Rounds 2..: same grid with the retired knobs set — pure cache
    // hits, zero new simulations, identical results.
    for (shards, threads) in [(2, 1), (4, 2), (8, 1)] {
        let mut regrid = grid.clone();
        regrid.base.shards = shards;
        regrid.base.transfer_threads = threads;
        let id = submit(addr, &regrid);
        let status = poll_done(addr, id);
        assert_eq!(
            status.get("cached").and_then(Json::as_u64),
            Some(n as u64),
            "shards={shards} should be answered from cache: {status:?}"
        );
        assert_eq!(
            stats_u64(addr, &["sims_run"]),
            sims_first,
            "shards={shards} must not run new simulations"
        );
        assert_eq!(result_digests(addr, id, n), want);
    }
    assert!(stats_u64(addr, &["cache", "hits"]) >= 3 * n as u64);

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_server_resumes_from_checkpoints_digest_exact() {
    let dir = temp_dir("resume");
    let grid = test_grid();
    let configs = grid.expand();
    let direct = sweep_supervised(&configs, &SweepOptions::default());
    let want: Vec<String> = direct
        .iter()
        .map(|r| r.as_ref().expect("direct run succeeds").digest())
        .collect();

    // Life 1: a single slow worker; shut down as soon as the first result
    // lands, leaving the rest of the queue abandoned (the in-flight unit
    // finishes and checkpoints — that is the graceful contract).
    let (addr, handle) = start_server(&dir, 1);
    let id = submit(addr, &grid);
    let ckpt = dir.join("jobs").join(format!("job-{id}.ckpt.jsonl"));
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let done = std::fs::read_to_string(&ckpt)
            .map(|t| t.lines().filter(|l| !l.trim().is_empty()).count())
            .unwrap_or(0);
        if done >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint line ever appeared"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    shutdown(addr, handle);

    // Simulate the hard-kill signature on top: tear the final checkpoint
    // line in half (no trailing newline). The torn slot must re-run.
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint exists");
    let full_lines = text.lines().filter(|l| !l.trim().is_empty()).count();
    assert!(full_lines >= 1, "shutdown flushed at least one result");
    // Drop the trailing newline and the last 10 bytes of the final line:
    // an unparseable fragment with no newline, exactly what a writer
    // killed mid-append leaves behind.
    let body = text.trim_end();
    std::fs::write(&ckpt, &body[..body.len() - 10]).unwrap();

    // Life 2: recovery re-expands the grid, restores what survived,
    // reruns the rest, and converges to the same digests.
    let (addr2, handle2) = start_server(&dir, 3);
    let status = poll_done(addr2, id);
    assert_eq!(
        status.get("completed").and_then(Json::as_u64),
        Some(configs.len() as u64),
        "resumed job completes every slot: {status:?}"
    );
    let ckpt_report = status
        .get("checkpoint")
        .expect("status carries checkpoint accounting");
    assert_eq!(
        ckpt_report.get("torn_tail").and_then(Json::as_bool),
        Some(true),
        "the torn line must be detected and surfaced: {status:?}"
    );
    assert_eq!(result_digests(addr2, id, configs.len()), want);
    assert!(
        stats_u64(addr2, &["jobs", "resumed"]) >= 1,
        "recovery counts the resumed job"
    );
    shutdown(addr2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /jobs/:id/results` is valid *while the job runs*: the stream
/// holds only whole verified records and the `X-Job-Complete` header
/// distinguishes a partial snapshot from the final word. `POST
/// /jobs/:id/cancel` settles every not-yet-finished slot terminally.
#[test]
fn partial_results_stream_whole_lines_and_cancel_settles_job() {
    let dir = temp_dir("cancel");
    let mut grid = test_grid();
    // Long configs on one worker: the grid cannot finish before the early
    // requests land, even in an optimized build (cancellation interrupts
    // the running config, so the test stays short).
    grid.base.measure = 200_000;
    let n = grid.expand().len();
    let (addr, handle) = start_server(&dir, 1);
    let id = submit(addr, &grid);

    // Early fetch: the job is still running, so the header must say the
    // stream is partial — and every line it does carry parses whole.
    let (status, headers, stream) =
        http_request_full(addr, "GET", &format!("/jobs/{id}/results"), None).expect("results");
    assert_eq!(status, 200);
    let complete = headers
        .iter()
        .find(|(k, _)| k == "x-job-complete")
        .map(|(_, v)| v.as_str());
    assert_eq!(complete, Some("false"), "job cannot be done yet");
    for line in stream.lines().filter(|l| !l.trim().is_empty()) {
        assert!(
            parse(line).is_ok(),
            "partial stream leaked a torn line: {line}"
        );
    }

    let (status, body) =
        http_request(addr, "POST", &format!("/jobs/{id}/cancel"), None).expect("cancel");
    assert_eq!(status, 200, "cancel failed: {body}");
    let v = parse(&body).unwrap();
    assert_eq!(v.get("cancelled").and_then(Json::as_bool), Some(true));

    let status = poll_done(addr, id);
    let completed = status.get("completed").and_then(Json::as_u64).unwrap();
    let cancelled = status.get("cancelled").and_then(Json::as_u64).unwrap();
    assert_eq!(
        completed + cancelled,
        n as u64,
        "every slot settles as completed or cancelled: {status:?}"
    );
    assert!(
        cancelled >= 1,
        "something was actually cancelled: {status:?}"
    );
    assert_eq!(status.get("failed").and_then(Json::as_u64), Some(0));

    // The final stream carries exactly the completed slots' records and
    // declares itself complete.
    let (_, headers, stream) =
        http_request_full(addr, "GET", &format!("/jobs/{id}/results"), None).expect("results");
    let complete = headers
        .iter()
        .find(|(k, _)| k == "x-job-complete")
        .map(|(_, v)| v.as_str());
    assert_eq!(complete, Some("true"));
    let lines = stream.lines().filter(|l| !l.trim().is_empty()).count();
    assert_eq!(
        lines as u64, completed,
        "one result record per completed slot"
    );

    // The durable cancel marker exists — a restarted or sibling server
    // would see the decision.
    assert!(dir
        .join("jobs")
        .join(format!("job-{id}.ckpt.cancel"))
        .exists());

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A grid `timeout_ms` marks overrunning configs `timed_out` — a
/// terminal state that survives a server restart without re-running.
#[test]
fn per_config_timeout_is_terminal_across_restarts() {
    let dir = temp_dir("timeout");
    let mut base = RunConfig::small_default();
    base.warmup = 200;
    base.measure = 50_000; // far more cycles than 1 ms allows
    let grid = SweepGrid {
        base,
        seeds: vec![5],
        loads: vec![0.3],
        timeout_ms: Some(1),
    };

    let (addr, handle) = start_server(&dir, 1);
    let id = submit(addr, &grid);
    let status = poll_done(addr, id);
    assert_eq!(
        status.get("cancelled").and_then(Json::as_u64),
        Some(1),
        "the config must time out: {status:?}"
    );
    let slots = status.get("slots").and_then(Json::as_arr).unwrap();
    assert_eq!(slots[0].as_str(), Some("timed_out"));
    shutdown(addr, handle);

    // Life 2: the timed-out slot is restored from its status record, not
    // re-run — the job is settled immediately.
    let (addr2, handle2) = start_server(&dir, 1);
    let status2 = poll_done(addr2, id);
    let slots2 = status2.get("slots").and_then(Json::as_arr).unwrap();
    assert_eq!(
        slots2[0].as_str(),
        Some("timed_out"),
        "terminal: {status2:?}"
    );
    assert_eq!(stats_u64(addr2, &["sims_run"]), 0, "nothing re-ran");
    shutdown(addr2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incident_endpoints_serve_stored_incidents() {
    use deadlock_characterization::flexsim::forensics::IncidentStore;
    use deadlock_characterization::flexsim::{run, ForensicsConfig, RoutingSpec, TopologySpec};

    let dir = temp_dir("incidents");

    // Produce a real incident and persist it where the server looks.
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(8, 2, false);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    cfg.warmup = 400;
    cfg.measure = 800;
    cfg.forensics = Some(ForensicsConfig::default());
    let res = run(&cfg);
    assert!(
        !res.forensic_incidents.is_empty(),
        "the known-deadlocking config captures an incident"
    );
    let store = IncidentStore::open(dir.join("incidents")).unwrap();
    store.save(&res.forensic_incidents[0]).unwrap();

    let (addr, handle) = start_server(&dir, 1);

    let (status, body) = http_request(addr, "GET", "/incidents", None).unwrap();
    assert_eq!(status, 200);
    let index = parse(&body).unwrap();
    let entries = index.get("incidents").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].get("file").and_then(Json::as_str),
        Some("incident-00000.json")
    );

    let (status, body) = http_request(addr, "GET", "/incidents/0", None).unwrap();
    assert_eq!(status, 200);
    assert!(parse(&body).is_ok(), "incident record is valid JSON");

    let (status, dot) = http_request(addr, "GET", "/incidents/0/dot", None).unwrap();
    assert_eq!(status, 200);
    assert!(dot.starts_with("digraph"), "DOT rendering served as-is");

    let (status, _) = http_request(addr, "GET", "/incidents/7", None).unwrap();
    assert_eq!(status, 404);

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_get_clean_errors() {
    let dir = temp_dir("errors");
    let (addr, handle) = start_server(&dir, 1);

    let (status, _) = http_request(addr, "GET", "/jobs/999", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, body) = http_request(addr, "POST", "/jobs", Some("{\"no\":1}")).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("error"), "errors are JSON: {body}");
    let (status, _) = http_request(addr, "GET", "/jobs/abc", None).unwrap();
    assert_eq!(status, 400);

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
