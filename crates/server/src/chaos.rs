//! The campaign fleet's crash storyline, told once for every caller.
//!
//! [`storyline`] runs one grid on real server processes and breaks them
//! on purpose:
//!
//! 1. **Life 1.** One single-worker member takes the job and dies once
//!    its first result record is durable — by an abort injected at the
//!    rename of its second cache write ([`Death::InjectedCrash`]) or by
//!    SIGKILL from outside ([`Death::Sigkill`]).
//! 2. **Quiescent tampering.** With no member alive, one byte of the
//!    last checkpoint record is flipped (CRC-detectable corruption at
//!    rest) and an unterminated fragment is appended (the tail a writer
//!    killed mid-append leaves).
//! 3. **Life 2.** Two members resume the job; one is SIGKILLed as soon as
//!    the fleet makes progress, and the survivor must converge.
//!
//! The verdict: every result digest-identical to a direct in-process
//! sweep, `X-Job-Complete: true`, the garbled record counted in
//! `checkpoint.corrupt_frames` and moved to the quarantine file,
//! `reclaimed_leases` reported, and a clean exit on `POST /shutdown`.
//!
//! Callers differ only in how a server process is started: the
//! integration tests re-execute their own test binary, `repro chaos`
//! runs `repro serve`. Each passes that as the `spawn` closure.

use std::fs;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Duration;

use flexsim::jsonio::Json;
use flexsim::RunConfig;

use crate::client::{poll_until, Client};
use crate::grid::SweepGrid;
use crate::server::checkpoint_path;

/// Budget for one step: a member binding, a checkpoint reaching a line
/// count, an injected crash firing, a clean exit.
const STEP: Duration = Duration::from_secs(120);

/// Budget for the resumed fleet to settle the whole job.
const SETTLE: Duration = Duration::from_secs(300);

const POLL: Duration = Duration::from_millis(20);

/// One spawned fleet member: a server process and the file it publishes
/// its bound address in. Dropping it SIGKILLs and reaps the process, so
/// a failed check never leaks a server.
pub struct Member {
    child: Child,
    port_file: PathBuf,
}

impl Member {
    /// Starts `cmd` with its output discarded. The command must write the
    /// server's bound address to `port_file`; a stale copy is removed
    /// first.
    pub fn spawn(mut cmd: Command, port_file: PathBuf) -> io::Result<Member> {
        match fs::remove_file(&port_file) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let child = cmd.stdout(Stdio::null()).stderr(Stdio::null()).spawn()?;
        Ok(Member { child, port_file })
    }

    /// Polls the port file until it holds an address.
    pub fn addr(&mut self, timeout: Duration) -> io::Result<SocketAddr> {
        let what = format!("an address in {}", self.port_file.display());
        poll_until(timeout, POLL, &what, || {
            // The file is absent until the member has bound.
            let published = fs::read_to_string(&self.port_file).ok();
            if let Some(addr) = published.and_then(|t| t.trim().parse().ok()) {
                return Ok(Some(addr));
            }
            match self.child.try_wait()? {
                Some(status) => Err(io::Error::other(format!(
                    "member exited before binding: {status}"
                ))),
                None => Ok(None),
            }
        })
    }

    /// Waits for the process to exit on its own and reaps it.
    pub fn wait_exit(&mut self, timeout: Duration) -> io::Result<ExitStatus> {
        poll_until(timeout, POLL, "the member to exit", || {
            self.child.try_wait()
        })
    }

    /// SIGKILL (`Child::kill` on Unix) and reap. A process that already
    /// exited is left as it is.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Counts the newline-terminated, non-empty lines of a checkpoint; a
/// torn tail is not counted. A missing file has none.
pub fn full_line_count(ckpt: &Path) -> usize {
    let Ok(text) = fs::read_to_string(ckpt) else {
        return 0;
    };
    let Some(end) = text.rfind('\n') else {
        return 0;
    };
    text[..=end]
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

/// Waits until the checkpoint holds at least `want` full lines; returns
/// the count it saw.
pub fn wait_lines(ckpt: &Path, want: usize, timeout: Duration) -> io::Result<usize> {
    let what = format!("{want} records in {}", ckpt.display());
    poll_until(timeout, POLL, &what, || {
        let have = full_line_count(ckpt);
        Ok((have >= want).then_some(have))
    })
}

/// Flips one byte in the middle of the last full checkpoint line —
/// corruption at rest that the CRC framing must detect.
pub fn garble_last_record(ckpt: &Path) -> io::Result<()> {
    let mut bytes = fs::read(ckpt)?;
    let end = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .ok_or_else(|| io::Error::other("checkpoint has no full line to garble"))?;
    let start = bytes[..end]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    if end == start {
        return Err(io::Error::other("last checkpoint line is empty"));
    }
    bytes[start + (end - start) / 2] ^= 0x01;
    fs::write(ckpt, bytes)
}

/// Appends an unterminated framed fragment — what a writer killed
/// mid-append leaves. Recovery must seal it with a guard newline.
pub fn append_torn_fragment(ckpt: &Path) -> io::Result<()> {
    fs::OpenOptions::new()
        .append(true)
        .open(ckpt)?
        .write_all(b"~2a:00000000:{\"index\":99,\"resul")
}

/// The grid every fleet check runs (this storyline, the server
/// integration tests, `repro serve --smoke`): 3 loads × 3 seeds of short
/// runs on the scaled-down torus, wide enough that every kill lands
/// mid-sweep.
pub fn grid() -> SweepGrid {
    let mut base = RunConfig::small_default();
    base.warmup = 200;
    base.measure = 600;
    SweepGrid {
        base,
        seeds: vec![31, 32, 33],
        loads: vec![0.15, 0.2, 0.25],
        timeout_ms: None,
    }
}

/// How the life-1 member dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Death {
    /// It aborts itself at the rename of its second durable cache write
    /// (`ICN_DURABLE_CRASH=cache/:2`).
    InjectedCrash,
    /// It is SIGKILLed from outside.
    Sigkill,
}

/// How a caller starts a fleet member: `(tag, workers, crash_plan)`.
pub type Spawn<'a> = dyn FnMut(&str, usize, Option<&str>) -> io::Result<Member> + 'a;

/// What a passing [`storyline`] observed.
#[derive(Clone, Copy, Debug)]
pub struct ChaosReport {
    /// Corrupt checkpoint frames the survivor detected (at least 1).
    pub corrupt_frames: u64,
    /// Leases the survivor took over from dead members.
    pub reclaimed_leases: u64,
}

/// Runs the storyline of the module docs on [`grid`] in the empty data
/// dir `dir`. `want` holds the grid's direct digests
/// ([`SweepGrid::direct_digests`]); `workers` sizes each life-2 member.
/// `spawn(tag, workers, crash_plan)` starts a member on `dir`, with
/// `ICN_DURABLE_CRASH` set to `crash_plan` if there is one. Returns the
/// first broken invariant as an error.
pub fn storyline(
    dir: &Path,
    want: &[String],
    workers: usize,
    death: Death,
    spawn: &mut Spawn<'_>,
) -> Result<ChaosReport, String> {
    let at = |step: &'static str| move |e: io::Error| format!("{step}: {e}");

    // Life 1 has a single worker so the injected crash point is
    // deterministic: with two, the second store's abort can land before
    // the first worker's checkpoint append, leaving no durable record.
    let crash = (death == Death::InjectedCrash).then_some("cache/:2");
    let mut first = spawn("w1", 1, crash).map_err(at("spawning w1"))?;
    let addr = first.addr(STEP).map_err(at("w1 address"))?;
    let id = Client(addr).submit(&grid()).map_err(at("submit"))?;
    let ckpt = checkpoint_path(&dir.join("jobs"), id);
    wait_lines(&ckpt, 1, STEP).map_err(at("life 1 progress"))?;
    match death {
        Death::InjectedCrash => {
            first.wait_exit(STEP).map_err(at("injected crash"))?;
        }
        Death::Sigkill => first.kill(),
    }

    garble_last_record(&ckpt).map_err(at("garbling checkpoint"))?;
    append_torn_fragment(&ckpt).map_err(at("tearing checkpoint"))?;
    // Recovery seals the torn fragment into one garbage line, so real
    // progress in life 2 starts past `baseline + 1`.
    let baseline = full_line_count(&ckpt);

    let mut doomed = spawn("w2", workers, None).map_err(at("spawning w2"))?;
    let mut survivor = spawn("w3", workers, None).map_err(at("spawning w3"))?;
    doomed.addr(STEP).map_err(at("w2 address"))?;
    let client = Client(survivor.addr(STEP).map_err(at("w3 address"))?);
    wait_lines(&ckpt, baseline + 2, STEP).map_err(at("life 2 progress"))?;
    doomed.kill();

    let status = client.wait_done(id, SETTLE).map_err(at("settling"))?;
    let results = client.results(id, want.len()).map_err(at("results"))?;
    if !results.complete {
        return Err("a settled job streamed X-Job-Complete: false".to_string());
    }
    if results.digests != want {
        return Err(format!(
            "digest mismatch after chaos:\n  fleet: {:?}\n  direct: {want:?}",
            results.digests
        ));
    }
    let corrupt_frames = status
        .get("checkpoint")
        .and_then(|c| c.get("corrupt_frames"))
        .and_then(Json::as_u64)
        .ok_or("status lacks checkpoint.corrupt_frames")?;
    if corrupt_frames == 0 {
        return Err("the garbled record went undetected".to_string());
    }
    let reclaimed_leases = status
        .get("reclaimed_leases")
        .and_then(Json::as_u64)
        .ok_or("status lacks reclaimed_leases")?;
    if !ckpt.with_extension("quarantine").exists() {
        return Err("the garbled record was not quarantined".to_string());
    }
    client.shutdown().map_err(at("shutdown"))?;
    let exit = survivor.wait_exit(STEP).map_err(at("survivor exit"))?;
    if !exit.success() {
        return Err(format!("survivor exited uncleanly: {exit}"));
    }
    Ok(ChaosReport {
        corrupt_frames,
        reclaimed_leases,
    })
}
