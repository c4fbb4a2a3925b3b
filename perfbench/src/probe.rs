//! Direct calls into the campaign's storage layers, timed one by one on
//! the same filesystem the server uses: durable appends and atomic
//! writes, the result cache, lease files, and a checkpoint scan.

use std::io;
use std::path::Path;
use std::time::Instant;

use flexsim::jsonio::{durable, frame_record, scan_records};
use flexsim::{checkpoint_line, decode_result, RunConfig, RunResult};
use icn_server::{LeaseDir, ResultCache};

use crate::stats::{median, ms};

/// Calls per storage operation (at least; one per result when more).
const OPS: usize = 256;
/// Checkpoint scans timed.
const SCANS: usize = 15;

#[derive(Debug, Default)]
pub struct Storage {
    pub append_ms: Vec<f64>,
    pub write_atomic_ms: Vec<f64>,
    pub store_ms: Vec<f64>,
    pub lookup_ms: Vec<f64>,
    pub lease_ms: Vec<f64>,
    /// Median time to scan and decode the whole checkpoint.
    pub scan_ms: f64,
    pub checkpoint_bytes: u64,
    /// Calls that failed or returned a wrong answer.
    pub failed: u64,
    pub attempted: u64,
}

/// Times each storage call over `runs` (configs with their results)
/// in `dir`, then scans `checkpoint`, the text of a finished job's
/// checkpoint, which must hold one decodable result per record.
pub fn storage(
    dir: &Path,
    runs: &[(RunConfig, RunResult)],
    checkpoint: &str,
) -> io::Result<Storage> {
    let mut s = Storage::default();
    let cache = ResultCache::open(dir.join("cache"))?;
    let leases = LeaseDir::open(dir.join("leases"), std::time::Duration::from_secs(5))?;
    let log = dir.join("probe.ckpt.jsonl");
    let atomic = dir.join("atomic");
    std::fs::create_dir_all(&atomic)?;

    for i in 0..OPS.max(runs.len()) {
        let (cfg, r) = &runs[i % runs.len()];
        let line = frame_record(&checkpoint_line(i, &cfg.label(), r));
        s.attempted += 5;

        let t = Instant::now();
        let ok = durable::append_line(&log, &line).is_ok();
        s.append_ms.push(ms(t.elapsed()));
        s.failed += !ok as u64;

        let t = Instant::now();
        let ok = durable::write_atomic(
            &atomic.join(format!("entry-{}.json", i % 16)),
            line.as_bytes(),
        )
        .is_ok();
        s.write_atomic_ms.push(ms(t.elapsed()));
        s.failed += !ok as u64;

        let t = Instant::now();
        let ok = cache.store(cfg, r).is_ok();
        s.store_ms.push(ms(t.elapsed()));
        s.failed += !ok as u64;

        let t = Instant::now();
        let hit = cache.lookup(cfg);
        s.lookup_ms.push(ms(t.elapsed()));
        s.failed += hit.is_none_or(|h| h.digest() != r.digest()) as u64;

        let t = Instant::now();
        let ok = match leases.try_acquire(1, i)? {
            Some(a) => {
                leases.release(a.lease);
                true
            }
            None => false,
        };
        s.lease_ms.push(ms(t.elapsed()));
        s.failed += !ok as u64;
    }

    let mut scans = Vec::new();
    for _ in 0..SCANS {
        let t = Instant::now();
        let scan = scan_records(checkpoint);
        let decoded = scan
            .values
            .iter()
            .filter(|(_, v)| {
                v.get("result")
                    .map(decode_result)
                    .is_some_and(|r| r.is_ok())
            })
            .count();
        scans.push(ms(t.elapsed()));
        s.attempted += 1;
        s.failed += (decoded == 0 || decoded != scan.values.len()) as u64;
    }
    s.scan_ms = median(&scans);
    s.checkpoint_bytes = checkpoint.len() as u64;
    Ok(s)
}
