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

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use deadlock_characterization::flexsim::jsonio::{parse, Json};
use deadlock_characterization::flexsim::RunConfig;
use deadlock_characterization::server::chaos::{grid, wait_lines};
use deadlock_characterization::server::grid::MAX_GRID_CONFIGS;
use deadlock_characterization::server::http::IO_TIMEOUT;
use deadlock_characterization::server::server::checkpoint_path;
use deadlock_characterization::server::{
    http_request, CampaignServer, Client, ServerOptions, SweepGrid,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const WAIT: Duration = Duration::from_secs(300);

/// An in-process server on an ephemeral port and the thread serving it.
struct Running {
    api: Client,
    thread: std::thread::JoinHandle<()>,
}

fn start_server(data_dir: &Path, workers: usize) -> Running {
    let mut opts = ServerOptions::new(data_dir);
    opts.workers = workers;
    let server = CampaignServer::bind("127.0.0.1:0", &opts).expect("bind");
    let api = Client(server.addr());
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    Running { api, thread }
}

impl Running {
    fn shutdown(self) {
        self.api.shutdown().expect("shutdown");
        self.thread.join().expect("server thread");
    }

    /// Submits `grid` and waits for the job to settle.
    fn run(&self, grid: &SweepGrid) -> (u64, Json) {
        let id = self.api.submit(grid).expect("submit");
        (id, self.api.wait_done(id, WAIT).expect("job settles"))
    }

    /// The settled job's digests; its stream must say it is complete.
    fn digests(&self, id: u64, n: usize) -> Vec<String> {
        let results = self.api.results(id, n).expect("results");
        assert!(results.complete, "X-Job-Complete after done");
        results.digests
    }

    fn stat(&self, path: &[&str]) -> u64 {
        self.api.stat(path).expect("stats")
    }
}

#[test]
fn http_grid_matches_direct_sweep_and_resubmission_hits_cache() {
    let dir = temp_dir("grid");
    let grid = grid();
    let want = grid.direct_digests();
    let n = want.len();

    let server = start_server(&dir, 3);

    // Round 1: everything simulates, digests match the direct sweep.
    let (id, status) = server.run(&grid);
    assert_eq!(
        status.get("completed").and_then(Json::as_u64),
        Some(n as u64)
    );
    assert_eq!(status.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(server.digests(id, n), want);
    let sims_first = server.stat(&["sims_run"]);
    assert_eq!(sims_first, n as u64);

    // Round 2: identical grid — answered from the cache, zero new sims.
    let (id2, status2) = server.run(&grid);
    assert_eq!(
        status2.get("cached").and_then(Json::as_u64),
        Some(n as u64),
        "every slot should be a cache hit: {status2:?}"
    );
    assert_eq!(server.stat(&["sims_run"]), sims_first, "no new simulations");
    assert!(server.stat(&["cache", "hits"]) >= n as u64);
    assert_eq!(server.digests(id2, n), want);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retired `shards` / `transfer_threads` knobs must not fragment the
/// content-addressed cache: the engine ignores them and the canonical
/// config text renders both as 1, so a grid resubmitted with old values
/// set is answered entirely from cache.
#[test]
fn resubmission_at_different_shard_counts_hits_cache() {
    let dir = temp_dir("shards");
    let grid = grid();
    let n = grid.expand().len();
    let server = start_server(&dir, 3);

    // Round 1: default knobs, everything simulates.
    let (id, _) = server.run(&grid);
    let want = server.digests(id, n);
    let sims_first = server.stat(&["sims_run"]);
    assert_eq!(sims_first, n as u64);

    // Rounds 2..: same grid with the retired knobs set — pure cache
    // hits, zero new simulations, identical results.
    for (shards, threads) in [(2, 1), (4, 2), (8, 1)] {
        let mut regrid = grid.clone();
        regrid.base.shards = shards;
        regrid.base.transfer_threads = threads;
        let (id, status) = server.run(&regrid);
        assert_eq!(
            status.get("cached").and_then(Json::as_u64),
            Some(n as u64),
            "shards={shards} should be answered from cache: {status:?}"
        );
        assert_eq!(
            server.stat(&["sims_run"]),
            sims_first,
            "shards={shards} must not run new simulations"
        );
        assert_eq!(server.digests(id, n), want);
    }
    assert!(server.stat(&["cache", "hits"]) >= 3 * n as u64);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_server_resumes_from_checkpoints_digest_exact() {
    let dir = temp_dir("resume");
    let grid = grid();
    let want = grid.direct_digests();
    let n = want.len();

    // Life 1: a single slow worker; shut down as soon as the first result
    // lands, leaving the rest of the queue abandoned (the in-flight unit
    // finishes and checkpoints — that is the graceful contract).
    let server = start_server(&dir, 1);
    let id = server.api.submit(&grid).expect("submit");
    let ckpt = checkpoint_path(&dir.join("jobs"), id);
    wait_lines(&ckpt, 1, WAIT).expect("a checkpoint line appears");
    server.shutdown();

    // Simulate the hard-kill signature on top: tear the final checkpoint
    // line in half (no trailing newline). The torn slot must re-run.
    // Drop the trailing newline and the last 10 bytes of the final line:
    // an unparseable fragment with no newline, exactly what a writer
    // killed mid-append leaves behind.
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint exists");
    let body = text.trim_end();
    std::fs::write(&ckpt, &body[..body.len() - 10]).unwrap();

    // Life 2: recovery re-expands the grid, restores what survived,
    // reruns the rest, and converges to the same digests.
    let server = start_server(&dir, 3);
    let status = server.api.wait_done(id, WAIT).expect("job settles");
    assert_eq!(
        status.get("completed").and_then(Json::as_u64),
        Some(n as u64),
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
    assert_eq!(server.digests(id, n), want);
    assert!(
        server.stat(&["jobs", "resumed"]) >= 1,
        "recovery counts the resumed job"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /jobs/:id/results` is valid *while the job runs*: the stream
/// holds only whole verified records and the `X-Job-Complete` header
/// distinguishes a partial snapshot from the final word. `POST
/// /jobs/:id/cancel` settles every not-yet-finished slot terminally.
#[test]
fn partial_results_stream_whole_lines_and_cancel_settles_job() {
    let dir = temp_dir("cancel");
    let mut grid = grid();
    // Long configs on one worker: the grid cannot finish before the early
    // requests land, even in an optimized build (cancellation interrupts
    // the running config, so the test stays short).
    grid.base.measure = 200_000;
    let n = grid.expand().len();
    let server = start_server(&dir, 1);
    let id = server.api.submit(&grid).expect("submit");

    // Early fetch: the job is still running, so the header must say the
    // stream is partial — and every line it does carry decodes whole.
    let early = server.api.results(id, n).expect("partial stream decodes");
    assert!(!early.complete, "job cannot be done yet");

    let (status, body) =
        http_request(server.api.0, "POST", &format!("/jobs/{id}/cancel"), None).expect("cancel");
    assert_eq!(status, 200, "cancel failed: {body}");
    let v = parse(&body).unwrap();
    assert_eq!(v.get("cancelled").and_then(Json::as_bool), Some(true));

    let status = server.api.wait_done(id, WAIT).expect("job settles");
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
    let records = server.digests(id, n);
    assert_eq!(
        records.iter().filter(|d| !d.is_empty()).count() as u64,
        completed,
        "one result record per completed slot"
    );

    // The durable cancel marker exists — a restarted or sibling server
    // would see the decision.
    assert!(dir
        .join("jobs")
        .join(format!("job-{id}.ckpt.cancel"))
        .exists());

    server.shutdown();
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

    let server = start_server(&dir, 1);
    let (id, status) = server.run(&grid);
    assert_eq!(
        status.get("cancelled").and_then(Json::as_u64),
        Some(1),
        "the config must time out: {status:?}"
    );
    let slots = status.get("slots").and_then(Json::as_arr).unwrap();
    assert_eq!(slots[0].as_str(), Some("timed_out"));
    server.shutdown();

    // Life 2: the timed-out slot is restored from its status record, not
    // re-run — the job is settled immediately.
    let server = start_server(&dir, 1);
    let status2 = server.api.wait_done(id, WAIT).expect("job settles");
    let slots2 = status2.get("slots").and_then(Json::as_arr).unwrap();
    assert_eq!(
        slots2[0].as_str(),
        Some("timed_out"),
        "terminal: {status2:?}"
    );
    assert_eq!(server.stat(&["sims_run"]), 0, "nothing re-ran");
    server.shutdown();
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

    let server = start_server(&dir, 1);
    let addr = server.api.0;

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

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_get_clean_errors() {
    let dir = temp_dir("errors");
    let server = start_server(&dir, 1);
    let addr = server.api.0;

    let (status, _) = http_request(addr, "GET", "/jobs/999", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, body) = http_request(addr, "POST", "/jobs", Some("{\"no\":1}")).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("error"), "errors are JSON: {body}");
    let (status, _) = http_request(addr, "GET", "/jobs/abc", None).unwrap();
    assert_eq!(status, 400);

    // A grid over the expansion cap is refused before anything is
    // allocated for it, and the server keeps answering.
    let mut huge = grid();
    huge.seeds = (0..100_000).collect();
    huge.loads = vec![0.5; 100_000];
    assert!(huge.seeds.len() * huge.loads.len() > MAX_GRID_CONFIGS);
    let (status, body) =
        http_request(addr, "POST", "/jobs", Some(&huge.to_json().to_string())).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("configs"), "{body}");
    let (status, _) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Clients that connect and send nothing must not hold the handler pool:
/// with both default handlers parked on idle sockets, a real request is
/// still answered once the idle reads time out.
#[test]
fn idle_clients_cannot_hold_the_handler_pool() {
    let dir = temp_dir("idle");
    let server = start_server(&dir, 1);
    let addr = server.api.0;
    assert_eq!(ServerOptions::new(&dir).http_threads, 2);

    let idle: Vec<std::net::TcpStream> = (0..2)
        .map(|_| std::net::TcpStream::connect(addr).unwrap())
        .collect();
    // Let the accept loop hand both idle sockets to the handlers.
    std::thread::sleep(Duration::from_millis(300));
    let started = Instant::now();
    let (status, body) = http_request(addr, "GET", "/stats", None).unwrap();
    let waited = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        waited < IO_TIMEOUT + Duration::from_secs(3),
        "/stats took {waited:?} behind two idle clients"
    );
    drop(idle);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
