//! Chaos tests: the campaign fleet under real process crashes.
//!
//! These tests spawn *real server processes* (by re-executing this test
//! binary with `--exact worker_entry` and the `ICN_CHAOS_*` environment
//! set) so a crash is an actual SIGKILL delivered to an actual process —
//! not a simulated flag. The scenarios:
//!
//! 1. Two concurrent servers share one data dir and complete a grid
//!    submitted through one of them with **zero duplicated simulations**
//!    (per-config leases arbitrate ownership; `/stats` sums prove it).
//! 2. The crash storyline of `icn_server::chaos::storyline` (the one
//!    `repro chaos` runs), once per way the first member dies: a crash
//!    injected at a durable rename, then a SIGKILL.
//!
//! Everything runs on ephemeral 127.0.0.1 ports; no network egress.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use deadlock_characterization::flexsim::jsonio::{durable, Json};
use deadlock_characterization::server::chaos::{self, Death, Member};
use deadlock_characterization::server::{CampaignServer, Client, ServerOptions};

/// Re-exec entry point, not a test of its own: the chaos tests spawn
/// this binary again with `--exact worker_entry` and `ICN_CHAOS_DATA`
/// set, and the child becomes a real campaign-server process the parent
/// can SIGKILL. Without the environment it is a no-op.
#[test]
fn worker_entry() {
    let Ok(data) = std::env::var("ICN_CHAOS_DATA") else {
        return;
    };
    let port_file = PathBuf::from(
        std::env::var("ICN_CHAOS_PORT_FILE").expect("worker_entry needs ICN_CHAOS_PORT_FILE"),
    );
    let mut opts = ServerOptions::new(&data);
    opts.workers = std::env::var("ICN_CHAOS_WORKERS")
        .expect("worker_entry needs ICN_CHAOS_WORKERS")
        .parse()
        .expect("ICN_CHAOS_WORKERS is a count");
    opts.lease_expiry = Duration::from_millis(1500);
    opts.scan_interval = Duration::from_millis(120);
    let server = CampaignServer::bind("127.0.0.1:0", &opts).expect("bind chaos worker");
    durable::write_atomic(&port_file, server.addr().to_string().as_bytes()).expect("publish port");
    server.serve().expect("serve");
}

/// Starts a fleet member on `data` by re-executing this test binary.
fn spawn_worker(
    data: &Path,
    tag: &str,
    workers: usize,
    crash_plan: Option<&str>,
) -> io::Result<Member> {
    let port_file = data.join(format!("{tag}.port"));
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["worker_entry", "--exact", "--test-threads", "1"])
        .env("ICN_CHAOS_DATA", data)
        .env("ICN_CHAOS_PORT_FILE", &port_file)
        .env("ICN_CHAOS_WORKERS", workers.to_string());
    if let Some(plan) = crash_plan {
        cmd.env("ICN_DURABLE_CRASH", plan);
    }
    Member::spawn(cmd, port_file)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("campaign-chaos-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const WAIT: Duration = Duration::from_secs(300);

#[test]
fn concurrent_fleet_completes_shared_grid_without_duplicate_sims() {
    let dir = temp_dir("shared");
    let grid = chaos::grid();
    let want = grid.direct_digests();
    let n = want.len();

    let mut a = spawn_worker(&dir, "a", 2, None).expect("spawn a");
    let mut b = spawn_worker(&dir, "b", 2, None).expect("spawn b");
    let a_api = Client(a.addr(WAIT).expect("a binds"));
    let b_api = Client(b.addr(WAIT).expect("b binds"));

    // Submit through A; poll through B — the job must cross the process
    // boundary via the shared data dir, not shared memory.
    let id = a_api.submit(&grid).expect("submit");
    let status = b_api.wait_done(id, WAIT).expect("B settles the job");
    assert_eq!(
        status.get("completed").and_then(Json::as_u64),
        Some(n as u64),
        "fleet completes every slot: {status:?}"
    );
    // A's in-memory view trails the shared dir by one scanner pass;
    // wait for its own "done" before checking its completeness header.
    a_api.wait_done(id, WAIT).expect("A settles the job");
    for api in [b_api, a_api] {
        let results = api.results(id, n).expect("results");
        assert!(results.complete, "X-Job-Complete after done");
        assert_eq!(results.digests, want);
    }

    // Zero duplicated simulations: per-config leases make the fleet-wide
    // sum exactly the grid size.
    let sims = a_api.stat(&["sims_run"]).unwrap() + b_api.stat(&["sims_run"]).unwrap();
    assert_eq!(sims, n as u64, "every config simulated exactly once");

    for (mut member, api) in [(a, a_api), (b, b_api)] {
        api.shutdown().expect("shutdown");
        let exit = member.wait_exit(WAIT).expect("member exits");
        assert!(exit.success(), "member exited uncleanly: {exit}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_survives_crashes_and_tampered_checkpoint_digest_exact() {
    let want = chaos::grid().direct_digests();
    for death in [Death::InjectedCrash, Death::Sigkill] {
        let dir = temp_dir(&format!("crash-{death:?}"));
        let mut spawn =
            |tag: &str, workers, plan: Option<&str>| spawn_worker(&dir, tag, workers, plan);
        if let Err(e) = chaos::storyline(&dir, &want, 2, death, &mut spawn) {
            panic!("{death:?}: {e}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
