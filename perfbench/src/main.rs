//! Outside-in benchmark of the deadlock-characterization workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tfar_knots|dor_knots|vc_engine|campaign|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics for `--seconds`;
//! with `--trace 1` it runs the traced replica and the layer probes once
//! and reports the per-layer metrics. Either way it checks every result
//! and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this crate.

mod campaign;
mod probe;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use flexsim::{sweep_supervised, RunConfig, RunResult, SweepOptions};
use icn_sim::Network;

use campaign::{storyline, ScratchDir};
use stats::{cpu_seconds, median, peak_rss_mb, quantile, results_digest};
use trace::{Counters, Layers};
use workload::{Workload, ALL, DEFAULT_SEED};

/// Committed results digests: `<workload> <seed> <digest>` per line.
const EXPECTED: &str = include_str!("../expected_digests.txt");
/// Repetitions of the sim workloads' set-up, whose median is reported.
const SETUP_REPS: usize = 25;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if args.bless && args.seed != DEFAULT_SEED {
        return Err(format!(
            "--bless pins digests at --seed {DEFAULT_SEED} only"
        ));
    }
    Ok(args)
}

/// One workload's measurements and checks.
struct Report {
    workload: Workload,
    seed: u64,
    iterations: usize,
    attempted: u64,
    failed: u64,
    /// Results digest of input set 0.
    digest: String,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new(workload: Workload, seed: u64) -> Report {
        Report {
            workload,
            seed,
            iterations: 0,
            attempted: 0,
            failed: 0,
            digest: String::new(),
            problems: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn fail(&mut self, configs: u64, why: String) {
        self.failed += configs;
        self.problems.push(why);
    }

    /// Checks the set-0 digest against the one pinned in `table` at the
    /// default seed (or only records it under `--bless`).
    fn check_pinned(&mut self, digest: String, configs: u64, table: &str, bless: bool) {
        if self.seed == DEFAULT_SEED && !bless {
            match pinned_digest(table, self.workload) {
                Some(want) if want == digest => {}
                want => self.fail(
                    configs,
                    format!(
                        "results digest {digest} != committed {} (rerun with --bless to re-pin)",
                        want.unwrap_or("<none>")
                    ),
                ),
            }
        }
        self.digest = digest;
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn print(&self) {
        println!(
            "workload={} seed={} iterations={} results_digest={}",
            self.workload.name(),
            self.seed,
            self.iterations,
            self.digest
        );
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<28} {:>16} fraction ({} of {})",
            "error_rate", error_rate, self.failed, self.attempted
        );
        for (name, value, unit) in &self.metrics {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        for p in &self.problems {
            println!("  FAIL: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The digest of `w` at the default seed in a digest table.
fn pinned_digest(table: &str, w: Workload) -> Option<&str> {
    table.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 3 && f[0] == w.name() && f[1] == DEFAULT_SEED.to_string()).then_some(f[2])
    })
}

/// Rewrites the committed digest of `w` at the default seed.
fn bless(w: Workload, digest: &str) -> std::io::Result<()> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected_digests.txt");
    let mut lines: Vec<String> = std::fs::read_to_string(path)?
        .lines()
        .filter(|l| !l.starts_with(&format!("{} ", w.name())))
        .map(String::from)
        .collect();
    lines.push(format!("{} {DEFAULT_SEED} {digest}", w.name()));
    lines.sort();
    std::fs::write(path, lines.join("\n") + "\n")
}

fn digests(results: &[Result<RunResult, flexsim::SweepError>]) -> Vec<Option<String>> {
    results
        .iter()
        .map(|r| r.as_ref().ok().map(RunResult::digest))
        .collect()
}

fn set_digest(d: &[Option<String>]) -> String {
    results_digest(d.iter().map(|d| d.as_deref().unwrap_or("")))
}

impl Report {
    /// Counts one sweep of input set `set`: every config attempted, every
    /// sweep error failed, and set 0 checked against the pinned digest.
    fn tally(&mut self, set: u64, got: &[Option<String>], bless: bool) {
        let n = got.len() as u64;
        let errors = got.iter().filter(|d| d.is_none()).count() as u64;
        self.attempted += n;
        if errors > 0 {
            self.fail(errors, format!("{errors} sweep errors in input set {set}"));
        }
        if set == 0 {
            self.check_pinned(set_digest(got), n - errors, EXPECTED, bless);
        }
    }
}

/// Sim workloads: input sets 0, 1, 2, ... each through the supervised
/// sweep (the path under `flexsim::sweep`) until `seconds` have passed.
fn sim_e2e(w: Workload, seed: u64, seconds: f64, bless: bool) -> Report {
    let mut rep = Report::new(w, seed);
    // Set-up: building the configs plus one network per distinct
    // topology, routing and flit-level configuration.
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let cfgs = w.configs(seed, 0);
            let mut seen: Vec<&RunConfig> = Vec::new();
            for c in &cfgs {
                if !seen
                    .iter()
                    .any(|s| s.topology == c.topology && s.routing == c.routing && s.sim == c.sim)
                {
                    seen.push(c);
                    std::hint::black_box(Network::new(
                        c.topology.build(),
                        c.routing.build(),
                        c.sim,
                    ));
                }
            }
            t.elapsed().as_secs_f64()
        })
        .collect();

    let (mut walls, mut cpus, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let run = Instant::now();
    for set in 0u64.. {
        if set >= 2 && run.elapsed().as_secs_f64() + median(&rounds) > seconds {
            break;
        }
        let round = Instant::now();
        let cfgs = w.configs(seed, set);
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let got = digests(&sweep_supervised(&cfgs, &SweepOptions::default()));
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - cpu0);
        rep.iterations += 1;
        rep.tally(set, &got, bless);
        // Outside the timed window: one config of the set, re-run alone
        // through `flexsim::run`, must reproduce the sweep's result.
        let i = (stats::mix(seed ^ set) % cfgs.len() as u64) as usize;
        if let Some(d) = &got[i] {
            if flexsim::run(&cfgs[i]).digest() != *d {
                rep.fail(
                    1,
                    format!("sweep and direct run differ on `{}`", cfgs[i].label()),
                );
            }
        }
        rounds.push(round.elapsed().as_secs_f64());
    }
    rep.metric("wall_s", median(&walls), "s");
    rep.metric("cpu_s", median(&cpus), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("setup_s", median(&setup), "s");
    rep
}

/// The campaign storyline on a fresh private data dir, repeated for
/// `seconds`, every result verified against a direct sweep of the grid.
fn campaign_e2e(w: Workload, seed: u64, seconds: f64, bless: bool) -> Report {
    let mut rep = Report::new(w, seed);
    let grids = w.grids(seed, 0);
    let cfgs = w.configs(seed, 0);
    let n = cfgs.len() as u64;
    // Reference results, computed outside every timed window.
    let direct = digests(&sweep_supervised(&cfgs, &SweepOptions::default()));
    rep.tally(0, &direct, bless);
    let expected: Vec<String> = direct.into_iter().map(Option::unwrap_or_default).collect();

    let (mut walls, mut cpus, mut setups, mut rounds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let run = Instant::now();
    while rep.iterations < 2 || run.elapsed().as_secs_f64() + median(&rounds) < seconds {
        rep.iterations += 1;
        let round = Instant::now();
        let outcome =
            ScratchDir::new("campaign").and_then(|dir| storyline(dir.path(), &grids, &expected));
        match outcome {
            Ok(o) => {
                walls.push(o.fresh_s + o.cached_s);
                cpus.push(o.cpu_s);
                setups.push(o.setup_s);
                rep.attempted += o.attempted;
                if o.failed > 0 {
                    rep.fail(
                        o.failed,
                        format!(
                            "storyline: {} failed, sims_run {}, cache hits {}, resubmit sims {}",
                            o.failed, o.sims_run, o.cache_hits, o.resubmit_sims
                        ),
                    );
                }
            }
            Err(e) => {
                rep.attempted += 2 * n;
                rep.fail(2 * n, format!("storyline aborted: {e}"));
                break;
            }
        }
        rounds.push(round.elapsed().as_secs_f64());
    }
    rep.metric("wall_s", median(&walls), "s");
    rep.metric("cpu_s", median(&cpus), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("setup_s", median(&setups), "s");
    rep
}

/// The traced run: each config of input set 0 serially, plain
/// `flexsim::run` then the traced replica; the campaign storyline over
/// the same grids; and the storage-layer probes over the results.
fn traced(w: Workload, seed: u64, bless: bool) -> Report {
    let mut rep = Report::new(w, seed);
    rep.iterations = 1;
    let grids = w.grids(seed, 0);
    let cfgs = w.configs(seed, 0);
    let n = cfgs.len() as u64;
    let mut layers = Layers::default();
    let (mut plain_s, mut traced_s) = (0.0, Vec::new());
    let mut runs = Vec::new();
    for cfg in cfgs {
        let t = Instant::now();
        let r = flexsim::run(&cfg);
        plain_s += t.elapsed().as_secs_f64();
        let before = layers.wall_s;
        let counters = trace::replay(&cfg, &mut layers);
        traced_s.push(layers.wall_s - before);
        if counters != Counters::of(&r) {
            rep.fail(
                1,
                format!(
                    "replica counters differ from flexsim::run on `{}`",
                    cfg.label()
                ),
            );
        }
        runs.push((cfg, r));
    }
    rep.attempted += n;
    let expected: Vec<String> = runs.iter().map(|(_, r)| r.digest()).collect();
    rep.check_pinned(
        results_digest(expected.iter().map(String::as_str)),
        n,
        EXPECTED,
        bless,
    );

    let l = &layers;
    let per_epoch = |x: u64| x as f64 / l.blocked_epochs.max(1) as f64;
    let per_knot = |x: u64| x as f64 / l.knots.max(1) as f64;
    rep.metric("traffic.gen_s", l.gen_s, "s");
    rep.metric("traffic.messages", l.messages as f64, "count");
    rep.metric("sim.step_s", l.step_s, "s");
    rep.metric("sim.cycles", l.cycles as f64, "count");
    rep.metric("sim.cycles_per_s", l.cycles as f64 / l.step_s, "1/s");
    rep.metric("sim.link_flits", l.link_flits as f64, "count");
    rep.metric("sim.delivered", l.delivered as f64, "count");
    rep.metric("sim.capture_s", l.capture_s, "s");
    rep.metric("sim.blocked_mean", per_epoch(l.blocked_sum), "count");
    rep.metric("cwg.rebuild_s", l.rebuild_s, "s");
    rep.metric("cwg.analyze_s", l.analyze_s, "s");
    rep.metric("cwg.epochs_analyzed", l.epochs_analyzed as f64, "count");
    rep.metric("cwg.epochs_skipped", l.epochs_skipped as f64, "count");
    rep.metric("cwg.knots", l.knots as f64, "count");
    rep.metric("cwg.knots_capped", l.knots_capped as f64, "count");
    rep.metric("cwg.capped_frac", per_knot(l.knots_capped), "fraction");
    rep.metric("cwg.knot_size_mean", per_knot(l.knot_size_sum), "count");
    rep.metric("cwg.census_s", l.census_s, "s");
    rep.metric("cwg.census_epochs", l.census_epochs as f64, "count");
    rep.metric("cwg.census_capped", l.census_capped as f64, "count");
    rep.metric("flexsim.recovery_s", l.recovery_s, "s");
    rep.metric("flexsim.victims", l.victims as f64, "count");
    rep.metric("flexsim.recovery_reanalyses", l.reanalyses as f64, "count");
    rep.metric("flexsim.config_s_p50", median(&traced_s), "s");
    rep.metric("flexsim.config_s_max", quantile(&traced_s, 1.0), "s");
    rep.metric("trace.coverage", l.timed_s() / l.wall_s, "fraction");
    rep.metric("trace.overhead_frac", l.wall_s / plain_s - 1.0, "fraction");

    let outcome = ScratchDir::new("trace").and_then(|dir| storyline(dir.path(), &grids, &expected));
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            rep.attempted += 2 * n;
            rep.fail(2 * n, format!("storyline aborted: {e}"));
            return rep;
        }
    };
    rep.attempted += o.attempted;
    if o.failed > 0 {
        rep.fail(o.failed, format!("storyline: {} failed", o.failed));
    }
    rep.metric("server.submit_ms", median(&o.submit_ms), "ms");
    rep.metric("server.poll_ms_p50", median(&o.poll_ms), "ms");
    rep.metric("server.poll_ms_p99", quantile(&o.poll_ms, 0.99), "ms");
    rep.metric("server.results_ms", median(&o.results_ms), "ms");
    rep.metric("server.fresh_s", o.fresh_s, "s");
    rep.metric("server.cached_s", o.cached_s, "s");
    rep.metric("server.rebind_s", o.rebind_s, "s");
    rep.metric("server.sims_run", o.sims_run as f64, "count");
    rep.metric("server.cache_hits", o.cache_hits as f64, "count");

    let storage =
        ScratchDir::new("probe").and_then(|dir| probe::storage(dir.path(), &runs, &o.checkpoint));
    let s = match storage {
        Ok(s) => s,
        Err(e) => {
            rep.attempted += 1;
            rep.fail(1, format!("storage probe aborted: {e}"));
            return rep;
        }
    };
    rep.attempted += s.attempted;
    if s.failed > 0 {
        rep.fail(
            s.failed,
            format!("storage probe: {} calls failed", s.failed),
        );
    }
    rep.metric("durable.append_ms_p50", median(&s.append_ms), "ms");
    rep.metric("durable.append_ms_p99", quantile(&s.append_ms, 0.99), "ms");
    rep.metric(
        "durable.write_atomic_ms_p50",
        median(&s.write_atomic_ms),
        "ms",
    );
    rep.metric(
        "durable.write_atomic_ms_p99",
        quantile(&s.write_atomic_ms, 0.99),
        "ms",
    );
    rep.metric("cache.lookup_ms", median(&s.lookup_ms), "ms");
    rep.metric("cache.store_ms", median(&s.store_ms), "ms");
    rep.metric("lease.cycle_ms", median(&s.lease_ms), "ms");
    rep.metric("checkpoint.scan_ms", s.scan_ms, "ms");
    rep.metric("checkpoint.bytes", s.checkpoint_bytes as f64, "bytes");
    rep
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1 [--bless]",
                ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for &w in &args.workloads {
        let rep = match (args.trace, w) {
            (true, _) => traced(w, args.seed, args.bless),
            (false, Workload::Campaign) => campaign_e2e(w, args.seed, args.seconds, args.bless),
            (false, _) => sim_e2e(w, args.seed, args.seconds, args.bless),
        };
        if args.bless && rep.correct() {
            match bless(w, &rep.digest) {
                Ok(()) => eprintln!(
                    "perfbench: pinned {} {DEFAULT_SEED} {}",
                    w.name(),
                    rep.digest
                ),
                Err(e) => {
                    eprintln!("perfbench: cannot write the digest file: {e}");
                    ok = false;
                }
            }
        }
        ok &= rep.correct();
        rep.print();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim::TopologySpec;
    use icn_traffic::Pattern;

    /// The pinned campaign digest is today's, and a tampered pin fails
    /// every config it covers.
    #[test]
    fn tampered_pinned_digest_is_caught() {
        let w = Workload::Campaign;
        let got = digests(&sweep_supervised(
            &w.configs(DEFAULT_SEED, 0),
            &SweepOptions::default(),
        ));
        let mut rep = Report::new(w, DEFAULT_SEED);
        rep.tally(0, &got, false);
        assert!(rep.correct(), "{:?}", rep.problems);

        let pinned = pinned_digest(EXPECTED, w).expect("campaign is pinned");
        let flipped = format!(
            "{}{}",
            &pinned[..15],
            if pinned.ends_with('0') { '1' } else { '0' }
        );
        let tampered = EXPECTED.replace(pinned, &flipped);
        let mut rep = Report::new(w, DEFAULT_SEED);
        rep.check_pinned(set_digest(&got), got.len() as u64, &tampered, false);
        assert_eq!(rep.failed, 256);
        assert!(!rep.correct());

        // Re-pinning skips the check.
        let mut rep = Report::new(w, DEFAULT_SEED);
        rep.check_pinned(set_digest(&got), got.len() as u64, &tampered, true);
        assert!(rep.correct());
    }

    /// A config that panics on every attempt is one failed config of the
    /// two attempted.
    #[test]
    fn forced_failure_counts_in_error_rate() {
        let mut good = RunConfig::small_default();
        good.warmup = 50;
        good.measure = 100;
        let mut bad = good.clone();
        bad.topology = TopologySpec::torus(3, 2, true);
        bad.pattern = Pattern::BitComplement;
        let opts = SweepOptions {
            retries: 0,
            ..SweepOptions::default()
        };
        let got = digests(&sweep_supervised(&[good, bad], &opts));
        let mut rep = Report::new(Workload::DorKnots, 99);
        rep.tally(1, &got, false);
        assert_eq!((rep.attempted, rep.failed), (2, 1));
        assert!(!rep.correct());
    }
}
