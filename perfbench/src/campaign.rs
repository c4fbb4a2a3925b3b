//! The campaign storyline, driven as one client making one request at a
//! time against an in-process [`CampaignServer`]:
//!
//! 1. bind a server with 2 workers on a fresh private data dir;
//! 2. submit every grid, poll each job until it is done, fetch and verify
//!    its results (the fresh turnaround);
//! 3. shut down gracefully, re-bind on the same dir (recovering the
//!    finished jobs), resubmit the same grids, poll, fetch and verify
//!    (the cached turnaround);
//! 4. read `/stats` of both lifetimes: every config simulated once by the
//!    first, every config a cache hit with no simulation by the second.
//!
//! Every server is shut down through `POST /shutdown` and its serve
//! thread joined, on the failure path too, so no server thread outlives
//! the storyline.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flexsim::decode_result;
use flexsim::jsonio::{parse, Json};
use icn_server::{http_request, signal, CampaignServer, ServerOptions, SweepGrid};

use crate::stats::{cpu_seconds, ms};

/// Simulation workers of the server.
const WORKERS: usize = 2;
/// Sleep between two polls of one job.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// A job not done after this long counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(120);

/// A private directory under `<cwd>/.perfbench_tmp`, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> io::Result<ScratchDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::current_dir()?
            .join(".perfbench_tmp")
            .join(format!(
                "{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last sibling is gone.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A running server and the thread executing its serve loop.
struct Running {
    addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Running {
    /// Binds on an ephemeral port and starts serving; also returns the
    /// bind time (recovery of the jobs already in `dir` included).
    fn start(dir: &Path) -> io::Result<(Running, f64)> {
        let mut opts = ServerOptions::new(dir);
        opts.workers = WORKERS;
        // A short lease window keeps the heartbeat tick (a quarter of it)
        // from stretching each graceful shutdown.
        opts.lease_expiry = Duration::from_secs(1);
        let t = Instant::now();
        let server = CampaignServer::bind("127.0.0.1:0", &opts)?;
        let bind_s = t.elapsed().as_secs_f64();
        let addr = server.addr();
        let thread = std::thread::Builder::new()
            .name("perfbench-serve".into())
            .spawn(move || server.serve())?;
        Ok((
            Running {
                addr,
                thread: Some(thread),
            },
            bind_s,
        ))
    }

    /// Graceful shutdown; returns once every server thread has ended.
    fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let asked = http_request(self.addr, "POST", "/shutdown", None).is_ok_and(|(s, _)| s == 200);
        if !asked {
            // The HTTP path is broken: raise the process-wide latch the
            // serve loop also polls, then clear it for the next server.
            signal::trigger();
        }
        let served = thread
            .join()
            .map_err(|_| io::Error::other("serve thread panicked"))?;
        if !asked {
            signal::reset();
        }
        served
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// What one storyline measured and found.
#[derive(Default)]
pub struct Outcome {
    /// Both bind times; the second includes recovering the first job.
    pub setup_s: f64,
    /// The second bind alone.
    pub rebind_s: f64,
    /// First submit to last result verified, fresh data dir.
    pub fresh_s: f64,
    /// The same for the resubmission after the restart.
    pub cached_s: f64,
    /// Process CPU over both turnarounds.
    pub cpu_s: f64,
    pub submit_ms: Vec<f64>,
    pub poll_ms: Vec<f64>,
    pub results_ms: Vec<f64>,
    /// `/stats` of the first lifetime.
    pub sims_run: u64,
    /// `/stats` of the second lifetime.
    pub cache_hits: u64,
    pub resubmit_sims: u64,
    /// Configs attempted over both jobs, and those that failed (a non-200
    /// response, a failed, cancelled or timed-out slot, a missing result,
    /// or a digest mismatch), plus any `/stats` shortfall.
    pub attempted: u64,
    pub failed: u64,
    /// Text of the first job's checkpoint after the first lifetime.
    pub checkpoint: String,
}

/// Runs the storyline on `dir` (which must be empty) for `grids`, whose
/// expanded configs must produce the run digests `expected`.
pub fn storyline(dir: &Path, grids: &[SweepGrid], expected: &[String]) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let n = expected.len() as u64;

    let (server, bind1) = Running::start(dir)?;
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let fresh = turnaround(server.addr, grids, &mut out)?;
    out.fresh_s = t.elapsed().as_secs_f64();
    let mut cpu = cpu_seconds() - cpu0;
    out.sims_run = stat(server.addr, &["sims_run"])?;
    server.stop()?;
    out.checkpoint =
        std::fs::read_to_string(dir.join("jobs").join("job-1.ckpt.jsonl")).unwrap_or_default();

    let (server, bind2) = Running::start(dir)?;
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let cached = turnaround(server.addr, grids, &mut out)?;
    out.cached_s = t.elapsed().as_secs_f64();
    cpu += cpu_seconds() - cpu0;
    out.cache_hits = stat(server.addr, &["cache", "hits"])?;
    out.resubmit_sims = stat(server.addr, &["sims_run"])?;
    server.stop()?;

    out.setup_s = bind1 + bind2;
    out.rebind_s = bind2;
    out.cpu_s = cpu;
    for got in [&fresh, &cached] {
        out.attempted += n;
        out.failed += mismatches(got, expected);
    }
    out.failed += n.abs_diff(out.sims_run) + n.abs_diff(out.cache_hits) + out.resubmit_sims;
    Ok(out)
}

/// Configs whose result is missing or differs from `expected`.
fn mismatches(got: &[Option<String>], expected: &[String]) -> u64 {
    let missing = expected.len().saturating_sub(got.len());
    let wrong = got
        .iter()
        .zip(expected)
        .filter(|(g, e)| g.as_deref() != Some(e.as_str()))
        .count();
    (missing + wrong) as u64
}

/// Submits every grid, waits for each job, and returns the run digest of
/// every config in grid order (`None` for a config without a good result).
fn turnaround(
    addr: SocketAddr,
    grids: &[SweepGrid],
    out: &mut Outcome,
) -> io::Result<Vec<Option<String>>> {
    let mut jobs = Vec::new();
    for grid in grids {
        let body = grid.to_json().to_string();
        let t = Instant::now();
        let (status, reply) = http_request(addr, "POST", "/jobs", Some(&body))?;
        out.submit_ms.push(ms(t.elapsed()));
        let id = (status == 200)
            .then(|| parse(&reply).ok()?.get("id")?.as_u64())
            .flatten();
        jobs.push((id, grid.loads.len() * grid.seeds.len()));
    }
    let mut digests = Vec::new();
    for (id, n) in jobs {
        let start = digests.len();
        digests.resize(start + n, None);
        let Some(id) = id else { continue };
        if !wait_done(addr, id, out)? {
            continue;
        }
        let t = Instant::now();
        let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}/results"), None)?;
        out.results_ms.push(ms(t.elapsed()));
        if status != 200 {
            continue;
        }
        for line in body.lines() {
            let Ok(v) = parse(line) else { continue };
            let Some(i) = v.get("index").and_then(Json::as_u64).map(|i| i as usize) else {
                continue;
            };
            if let (true, Some(Ok(r))) = (i < n, v.get("result").map(decode_result)) {
                digests[start + i] = Some(r.digest());
            }
        }
    }
    Ok(digests)
}

/// Polls job `id` until it is settled. `false` when it settled with a
/// failed, cancelled or timed-out slot, answered non-200, or missed the
/// deadline.
fn wait_done(addr: SocketAddr, id: u64, out: &mut Outcome) -> io::Result<bool> {
    let deadline = Instant::now() + JOB_DEADLINE;
    loop {
        let t = Instant::now();
        let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}"), None)?;
        out.poll_ms.push(ms(t.elapsed()));
        let v = (status == 200).then(|| parse(&body).ok()).flatten();
        let Some(v) = v else { return Ok(false) };
        if v.get("state").and_then(Json::as_str) == Some("done") {
            let bad = ["failed", "cancelled"]
                .iter()
                .map(|k| v.get(k).and_then(Json::as_u64).unwrap_or(1))
                .sum::<u64>();
            return Ok(bad == 0);
        }
        if Instant::now() > deadline {
            return Ok(false);
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// Reads the counter at `path` in `GET /stats`.
fn stat(addr: SocketAddr, path: &[&str]) -> io::Result<u64> {
    let (status, body) = http_request(addr, "GET", "/stats", None)?;
    let v = parse(&body).map_err(|e| io::Error::other(format!("bad /stats: {e}")))?;
    path.iter()
        .try_fold(&v, |v, k| v.get(k))
        .and_then(Json::as_u64)
        .filter(|_| status == 200)
        .ok_or_else(|| io::Error::other(format!("/stats lacks {}", path.join("."))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim::{RoutingSpec, RunConfig, TopologySpec};
    use std::net::TcpStream;

    fn tiny_grid() -> SweepGrid {
        let mut base = RunConfig::small_default();
        base.topology = TopologySpec::torus(4, 2, true);
        base.routing = RoutingSpec::Tfar;
        base.sim.vcs_per_channel = 2;
        base.warmup = 50;
        base.measure = 150;
        SweepGrid {
            base,
            seeds: vec![1, 2],
            loads: vec![0.2, 0.4],
            timeout_ms: None,
        }
    }

    /// Every result is verified: a wrong expected digest is one failure
    /// per turnaround, and the counters show one simulation per config
    /// followed by one cache hit per config.
    #[test]
    fn storyline_verifies_every_result() {
        let grid = tiny_grid();
        let mut expected: Vec<String> = grid
            .expand()
            .iter()
            .map(|c| flexsim::run(c).digest())
            .collect();
        let dir = ScratchDir::new("selftest").unwrap();
        let o = storyline(dir.path(), std::slice::from_ref(&grid), &expected).unwrap();
        assert_eq!(
            (
                o.attempted,
                o.failed,
                o.sims_run,
                o.cache_hits,
                o.resubmit_sims
            ),
            (8, 0, 4, 4, 0)
        );
        assert!(!o.checkpoint.is_empty());

        expected[1].push('x');
        let dir = ScratchDir::new("selftest").unwrap();
        let o = storyline(dir.path(), &[grid], &expected).unwrap();
        assert_eq!(o.failed, 2);
    }

    /// A server stops, and stops listening, both through `stop` and when
    /// dropped on a failure path.
    #[test]
    fn servers_stop_on_every_path() {
        let dir = ScratchDir::new("selftest").unwrap();
        let (server, _) = Running::start(dir.path()).unwrap();
        let addr = server.addr;
        server.stop().unwrap();
        assert!(TcpStream::connect(addr).is_err());

        let (server, _) = Running::start(dir.path()).unwrap();
        let addr = server.addr;
        drop(server);
        assert!(TcpStream::connect(addr).is_err());
        let path = dir.path().to_path_buf();
        drop(dir);
        assert!(!path.exists());
    }
}
