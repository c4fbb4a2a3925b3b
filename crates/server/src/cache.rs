//! Content-addressed result cache.
//!
//! Every completed configuration is stored under a key derived from its
//! *canonical digest*: the full [`config_to_json`] rendering (seed and
//! fault plan included) with `detection` normalized to snapshot — both
//! detectors are digest-identical, so the mode may not fragment the cache
//! — concatenated with [`flexsim::ENGINE_VERSION`]. The retired
//! `transfer_threads` and `shards` keys are always rendered as `1`, so
//! keys written before those knobs were removed still match.
//! Resubmitting any previously run configuration is answered from disk
//! without simulating; an engine-semantics bump invalidates everything
//! at once by changing every key.
//!
//! Entries carry the full canonical config text and are compared on
//! lookup, so a 128-bit hash collision degrades to a miss, never to a
//! wrong result.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use flexsim::forensics::config_to_json;
use flexsim::jsonio::{obj, parse, Json};
use flexsim::{decode_result, encode_result, RunConfig, RunResult, ENGINE_VERSION};

/// FNV-1a over `bytes`, seeded with `basis`.
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical config text a cache key digests: config JSON with
/// `detection` pinned to snapshot, plus the engine version. The detection
/// mode is digest-neutral (the incremental detector produces
/// byte-identical results), so leaving it in the key would fragment the
/// cache with duplicate results.
pub fn canonical_config(cfg: &RunConfig) -> String {
    let mut c = cfg.clone();
    c.detection = flexsim::DetectionMode::Snapshot;
    format!("{}\u{0}{ENGINE_VERSION}", config_to_json(&c))
}

/// 128-bit content key as 32 hex chars (two FNV-1a streams with distinct
/// bases; collisions are additionally guarded by full-text comparison).
pub fn config_key(cfg: &RunConfig) -> String {
    let canon = canonical_config(cfg);
    let h1 = fnv1a(canon.as_bytes(), 0xcbf2_9ce4_8422_2325);
    let h2 = fnv1a(canon.as_bytes(), 0x6c62_272e_07bb_0142);
    format!("{h1:016x}{h2:016x}")
}

/// A directory of cached results with hit/miss counters.
pub struct ResultCache {
    dir: PathBuf,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir: dir.as_ref().to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks up a configuration. `Some` counts as a hit, `None` (absent,
    /// undecodable, stale engine version, or canonical-text mismatch)
    /// as a miss.
    pub fn lookup(&self, cfg: &RunConfig) -> Option<RunResult> {
        let key = config_key(cfg);
        let canon = canonical_config(cfg);
        let hit = (|| {
            let text = fs::read_to_string(self.path_for(&key)).ok()?;
            let v = parse(&text).ok()?;
            if v.get("config").and_then(Json::as_str) != Some(canon.as_str()) {
                return None;
            }
            decode_result(v.get("result")?).ok()
        })();
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Stores a result through the durable atomic-write path (temp file,
    /// fsync, rename, directory fsync), so readers — in this process or a
    /// sibling sharing the cache dir — never observe a half-written
    /// entry and a crash never leaves one at rest. A same-key race ends
    /// with one winner and identical content either way (the engine is
    /// deterministic).
    pub fn store(&self, cfg: &RunConfig, result: &RunResult) -> io::Result<()> {
        let key = config_key(cfg);
        let entry = obj(vec![
            ("key", Json::Str(key.clone())),
            ("config", Json::Str(canonical_config(cfg))),
            ("label", Json::Str(cfg.label())),
            ("result", encode_result(result)),
        ]);
        flexsim::jsonio::durable::write_atomic(&self.path_for(&key), entry.to_string().as_bytes())
    }

    /// Number of entries on disk.
    pub fn entries(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().map(|x| x == "json").unwrap_or(false))
                    .count()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim::run;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icn-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_cfg() -> RunConfig {
        let mut c = RunConfig::small_default();
        c.warmup = 100;
        c.measure = 300;
        c.load = 0.2;
        c
    }

    /// Keys are durable across engine refactors: these values were
    /// computed before the retired `transfer_threads` / `shards` knobs were
    /// removed, and every stored cache entry depends on them staying put.
    #[test]
    fn keys_are_pinned() {
        assert_eq!(
            config_key(&RunConfig::paper_default()),
            "27c9cf890d8ee50fa49895efdd7e1fd6"
        );
        let mut faulted = RunConfig::paper_default();
        faulted.faults.link_outage(0, 10, 20).node_stall(50, 3, 7);
        assert_eq!(config_key(&faulted), "93e8ce8c7ee16150f823edd14cd8665b");
    }

    /// Grid and incident JSON written while the retired knobs existed may
    /// carry any value for them; both decode and land on the same key.
    #[test]
    fn retired_knobs_in_old_json_do_not_fragment() {
        let retire = |text: String| {
            let old = text.replace(
                "\"transfer_threads\":1,\"shards\":1",
                "\"shards\":4,\"transfer_threads\":3",
            );
            assert_ne!(old, text, "the retired keys are rendered");
            old
        };
        let cfg = quick_cfg();
        let grid = retire(obj(vec![("base", config_to_json(&cfg))]).to_string());
        let grid = crate::SweepGrid::from_json(&grid).unwrap();
        assert_eq!(config_key(&grid.base), config_key(&cfg));

        // A real incident from a known-deadlocking config.
        let mut dl = RunConfig::small_default();
        dl.topology = flexsim::TopologySpec::torus(8, 2, false);
        dl.load = 1.0;
        dl.warmup = 400;
        dl.measure = 800;
        dl.forensics = Some(flexsim::ForensicsConfig::default());
        let res = run(&dl);
        let inc = res
            .forensic_incidents
            .first()
            .expect("captures an incident");
        let text = retire(inc.to_json_string());
        let back = flexsim::forensics::DeadlockIncident::from_json_str(&text).unwrap();
        assert_eq!(config_key(&back.config), config_key(&dl));
    }

    #[test]
    fn key_ignores_detection_mode_but_not_seed() {
        let a = quick_cfg();
        let mut b = a.clone();
        b.detection = flexsim::DetectionMode::Incremental;
        assert_eq!(
            config_key(&a),
            config_key(&b),
            "detection mode must not fragment"
        );
        let mut c = a.clone();
        c.seed ^= 1;
        assert_ne!(
            config_key(&a),
            config_key(&c),
            "seed is part of the identity"
        );
        let mut d = a.clone();
        d.faults.link_outage(0, 10, 20);
        assert_ne!(
            config_key(&a),
            config_key(&d),
            "fault plan is part of the identity"
        );
    }

    #[test]
    fn store_then_lookup_is_digest_exact() {
        let cache = ResultCache::open(tmp_dir("roundtrip")).unwrap();
        let cfg = quick_cfg();
        let r = run(&cfg);
        assert!(cache.lookup(&cfg).is_none(), "cold cache misses");
        cache.store(&cfg, &r).unwrap();
        let back = cache.lookup(&cfg).expect("entry should hit");
        assert_eq!(back.digest(), r.digest());
        assert_eq!(cache.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn corrupt_entry_degrades_to_miss() {
        let cache = ResultCache::open(tmp_dir("corrupt")).unwrap();
        let cfg = quick_cfg();
        let r = run(&cfg);
        cache.store(&cfg, &r).unwrap();
        fs::write(cache.path_for(&config_key(&cfg)), "{\"half\":").unwrap();
        assert!(cache.lookup(&cfg).is_none());
    }
}
