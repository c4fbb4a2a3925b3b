//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! repro [fig5] [fig6] [fig7] [fig8] [degree] [traffic] [all] [--small] [--csv]
//! repro forensics [--store DIR] [--seed N] [--max N] [--cycles N] [--no-prefix]
//! repro validate [--configs N] [--cwgs N] [--seed N] [--store DIR] [--no-explore]
//! repro faults [--seed N] [--expect-stall]
//! repro serve [--addr HOST:PORT] [--data DIR] [--workers N] [--smoke]
//!             [--port-file PATH] [--lease-ms N] [--scan-ms N]
//! repro chaos [--iterations N] [--workers N]
//! ```
//!
//! With no experiment named, runs `all`. `--small` switches to the
//! scaled-down configuration (8-ary 2-cube, short windows) used by the
//! integration tests; the default is the paper's setup (16-ary 2-cube,
//! 30,000 measured cycles — expect minutes of wall-clock). `--csv` also
//! emits machine-readable CSV after each table; `--json` writes
//! `repro_<id>.json` files next to the working directory.
//!
//! `repro forensics` runs a known-deadlocking micro-configuration (a
//! unidirectional 8-ary 2-cube under DOR, one VC, full load) with
//! incident capture enabled, then — for every captured deadlock — prints
//! the per-member formation timeline, replays the run to verify the
//! identical knot re-forms, minimizes the scenario (knot-induced sub-CWG
//! plus shortest reproducing cycle-prefix), and persists JSON + DOT
//! artifacts to the incident store. Exits non-zero if any incident fails
//! to replay or minimize, which makes it a self-checking smoke command.
//!
//! `repro faults` is the fault-injection smoke command: it builds a
//! seeded random fault plan (transient link outages, a permanent kill, a
//! router stall, an injector outage), runs it on the activity-driven
//! stepper, the dense reference stepper, and a replay, and exits
//! non-zero unless all three digests agree byte-for-byte and the run was
//! classified [`flexsim::RunOutcome::Faulted`]. With `--expect-stall` it
//! instead runs a deliberately wedged configuration (recovery disabled,
//! saturated single-VC torus) under the progress watchdog and exits 2 —
//! and only 2 — when the run ends as `Stalled` with a coherent stall
//! report, so CI can assert the watchdog actually fires.
//!
//! `repro serve` starts the campaign server (see `icn-server`): an HTTP
//! job API over the supervised sweep engine with per-job checkpoints, a
//! content-addressed result cache, and a read-only incident browser.
//! Any number of `repro serve` processes may share one `--data` dir —
//! they form a fleet arbitrated by per-config lease files, so a killed
//! member's work is reclaimed by the survivors. `--port-file` writes the
//! bound address (useful with an ephemeral `--addr ...:0`); `--lease-ms`
//! and `--scan-ms` tune the fleet's failure-detection latency. Ctrl-C
//! and `POST /shutdown` both take the graceful path — in-flight
//! configurations finish and checkpoint, queued ones resume on the next
//! start. With `--smoke` it instead runs a one-shot self-check against
//! an ephemeral port: submit a small grid, poll it to completion, verify
//! every streamed result digest-matches a direct `sweep_supervised` of
//! the same grid, resubmit and verify the whole job is answered from the
//! cache without a single new simulation, then spawn a *second server
//! process* on the same data dir and verify a third submission is served
//! entirely from the shared cache across the process boundary. Exits
//! non-zero on any divergence, which makes it CI-able without network
//! egress.
//!
//! `repro chaos` is the crash-tolerance harness: each iteration runs the
//! fleet crash storyline of `icn_server::chaos::storyline` (the one the
//! `server_chaos` tests run) on `repro serve` processes. A first member
//! dies mid-sweep — SIGKILLed on even iterations, aborting itself at an
//! injected rename-time crash on odd ones — the quiescent checkpoint is
//! garbled and torn, and a two-member fleet resumes with one of them
//! SIGKILLed too. The survivor must converge to results digest-identical
//! to a clean in-process `sweep_supervised` of the same grid, with the
//! garbled record detected and quarantined. Exits non-zero if any
//! iteration fails.
//!
//! `repro validate` runs the validation layer: the production detector
//! is differentially checked against the independent naive oracle and
//! the brute-force enumerator on randomized CWGs (`--cwgs`, default 512),
//! on every detection epoch of `--configs` (default 16) seeded random
//! live configurations (with full invariant auditing), on freshly
//! captured forensics incidents, on every incident in `--store DIR` (if
//! given), and — unless `--no-explore` — on every schedule of the
//! exhaustive small-world explorer. Any disagreement exits non-zero and
//! writes a minimized reproducer to `validate-divergence.json`.

use flexsim::experiments::{self, Scale};
use flexsim::forensics::{minimize, replay, timeline_table, IncidentStore};
use flexsim::report::Table;
use flexsim::sweep;
use flexsim::{
    run, run_reference, ForensicsConfig, RecoveryPolicy, RoutingSpec, RunConfig, RunOutcome,
    TopologySpec,
};
use icn_metrics::Histogram;
use icn_server::chaos::{self, Death, Member};
use icn_server::Client;
use std::time::Instant;

/// Parses `--flag value` from the argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses `--flag N`, or returns `default` when the flag is absent. A
/// value that does not parse exits with status 2.
fn flag_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} wants an integer, got `{v}`");
            std::process::exit(2);
        })
    })
}

fn hist_row(name: &str, h: &Histogram) -> Vec<String> {
    vec![
        name.to_string(),
        h.count().to_string(),
        format!("{:.1}", h.mean()),
        h.quantile(0.5).to_string(),
        h.quantile(0.95).to_string(),
        h.max().to_string(),
    ]
}

/// The `repro forensics` subcommand. Returns the process exit code.
fn forensics_main(args: &[String]) -> i32 {
    let store_dir = flag_value(args, "--store").unwrap_or("incidents");
    let with_prefix = !args.iter().any(|a| a == "--no-prefix");

    // The Figure-6 corner point scaled down: reliably knots within a few
    // hundred cycles and keeps every replay/minimization probe cheap.
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(8, 2, false);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    cfg.warmup = 400;
    cfg.measure = flag_num(args, "--cycles", 1_600);
    cfg.seed = flag_num(args, "--seed", cfg.seed);
    cfg.forensics = Some(ForensicsConfig {
        max_incidents: flag_num(args, "--max", 8),
        ..ForensicsConfig::default()
    });

    println!("== deadlock forensics ==");
    println!("   config: {}", cfg.label());
    let started = Instant::now();
    let res = run(&cfg);
    println!(
        "   {} deadlock epochs, {} incidents captured ({:.1?} elapsed)",
        res.deadlocks,
        res.forensic_incidents.len(),
        started.elapsed()
    );
    if res.forensic_incidents.is_empty() {
        eprintln!("no deadlock captured — nothing to analyze");
        return 1;
    }

    let store = match IncidentStore::open(store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open incident store `{store_dir}`: {e}");
            return 1;
        }
    };

    let mut ok = true;
    for inc in &res.forensic_incidents {
        let sets = inc.deadlock_sets();
        println!(
            "\n-- incident #{} @ cycle {} --  knots={} members={} fingerprint={:#018x}",
            inc.seq,
            inc.cycle,
            sets.len(),
            inc.members().len(),
            inc.fingerprint
        );
        println!(
            "formation timeline (knot closed at cycle {}):",
            inc.closure_cycle()
        );
        println!("{}", timeline_table(inc).render());

        let rep = replay(inc);
        println!(
            "replay: fingerprint {} deadlock sets {}",
            if rep.fingerprint_match() {
                "MATCH"
            } else {
                "MISMATCH"
            },
            if rep.sets_match() {
                "MATCH"
            } else {
                "MISMATCH"
            },
        );
        ok &= rep.reproduced();

        let m = minimize(inc, with_prefix);
        println!(
            "minimize: CWG {} -> {} messages ({})",
            m.original_messages,
            m.kept_messages,
            if m.verified {
                "still knots identically"
            } else {
                "VERIFICATION FAILED"
            },
        );
        ok &= m.verified;
        if with_prefix {
            match m.shortest_prefix {
                Some(p) => println!(
                    "minimize: shortest reproducing prefix = {} cycles \
                     ({} probes, {} cycles shorter than detection)",
                    p.cycle, p.probes, p.saved_cycles
                ),
                None => {
                    println!("minimize: bisection failed to reproduce the knot");
                    ok = false;
                }
            }
        }

        match store.save(inc) {
            Ok((json_path, dot_path)) => {
                println!("wrote {} and {}", json_path.display(), dot_path.display());
            }
            Err(e) => {
                eprintln!("cannot persist incident #{}: {e}", inc.seq);
                ok = false;
            }
        }
    }

    let mut summary = Table::new(vec!["stat", "count", "mean", "p50", "p95", "max"]);
    summary.row(hist_row("formation latency", &res.formation_latency));
    summary.row(hist_row("formation spread", &res.formation_spread));
    println!("\nformation-time statistics (cycles):");
    println!("{}", summary.render());

    if !ok {
        eprintln!("some incidents failed replay or minimization");
        return 1;
    }
    0
}

/// Writes the minimized divergence reproducer and reports it.
fn emit_divergence(repro: &str) {
    const PATH: &str = "validate-divergence.json";
    match std::fs::write(PATH, repro) {
        Ok(()) => eprintln!("minimized reproducer written to {PATH}"),
        Err(e) => eprintln!("cannot write {PATH}: {e}"),
    }
}

/// The `repro validate` subcommand. Returns the process exit code.
fn validate_main(args: &[String]) -> i32 {
    use flexsim::validate as v;

    let num_cwgs = flag_num(args, "--cwgs", 512);
    let num_configs = flag_num(args, "--configs", 16);
    let base_seed = flag_num(args, "--seed", 0xdeadbeef);
    let explore = !args.iter().any(|a| a == "--no-explore");
    let started = Instant::now();
    let mut ok = true;

    // Stage 1: randomized CWG snapshots, two shapes (default and dense).
    println!("== validate: randomized CWG differential ==");
    let shapes = [
        ("default", v::GenParams::default()),
        (
            "dense",
            v::GenParams {
                num_vertices: 24,
                max_messages: 12,
                max_chain: 2,
                max_requests: 2,
                blocked_prob: 0.95,
                owned_bias: 0.95,
            },
        ),
    ];
    let mut checked = 0u64;
    let mut with_knots = 0u64;
    'cwgs: for (name, params) in &shapes {
        for i in 0..num_cwgs {
            let (n, msgs) = v::random_snapshot(base_seed ^ i, params);
            let diffs = v::check_messages(n, &msgs);
            checked += 1;
            if v::oracle_analyze(n, &msgs).has_deadlock() {
                with_knots += 1;
            }
            if !diffs.is_empty() {
                eprintln!(
                    "divergence on shape `{name}` seed {}: {diffs:?}",
                    base_seed ^ i
                );
                emit_divergence(&v::divergence_repro_json(n, &msgs));
                ok = false;
                break 'cwgs;
            }
        }
    }
    println!("   {checked} snapshots checked, {with_knots} with knots — all agree");

    // Stage 2: live campaign over seeded random configurations, each run
    // under the full invariant-auditing observer.
    println!("== validate: live campaign over {num_configs} random configs ==");
    let campaign = v::campaign(num_configs, base_seed);
    println!(
        "   {} configs, {} epochs differentially checked, {} with knots",
        campaign.configs, campaign.epochs_checked, campaign.deadlock_epochs
    );
    for (label, violations, repro) in &campaign.failures {
        ok = false;
        eprintln!("config `{label}` FAILED:");
        for viol in violations {
            eprintln!("   {viol}");
        }
        if let Some(r) = repro {
            emit_divergence(r);
        }
    }

    // Stage 3: fresh forensics incidents re-audited by the oracle.
    println!("== validate: fresh forensics incidents ==");
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(8, 2, false);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    cfg.warmup = 400;
    cfg.measure = 800;
    cfg.forensics = Some(ForensicsConfig::default());
    let res = run(&cfg);
    println!("   {} incidents captured", res.forensic_incidents.len());
    if res.forensic_incidents.is_empty() {
        eprintln!("no incident captured from the known-deadlocking config");
        ok = false;
    }
    for inc in &res.forensic_incidents {
        let problems = v::check_incident(inc);
        if !problems.is_empty() {
            ok = false;
            eprintln!("incident #{} @ cycle {} FAILED:", inc.seq, inc.cycle);
            for p in &problems {
                eprintln!("   {p}");
            }
        }
    }

    // Stage 4: stored incidents, when a store directory is given.
    if let Some(dir) = flag_value(args, "--store") {
        println!("== validate: incident store `{dir}` ==");
        match v::check_incident_store(dir) {
            Ok(failures) if failures.is_empty() => println!("   all stored incidents agree"),
            Ok(failures) => {
                ok = false;
                for (file, problems) in failures {
                    eprintln!("stored incident `{file}` FAILED: {problems:?}");
                }
            }
            Err(e) => {
                ok = false;
                eprintln!("cannot read incident store `{dir}`: {e}");
            }
        }
    }

    // Stage 5: exhaustive small worlds.
    if explore {
        println!("== validate: exhaustive small-world explorer ==");
        for cfg in [
            v::ExploreConfig::uni_ring_3(),
            v::ExploreConfig::cube_2x2_tfar(),
        ] {
            let report = v::explore(&cfg);
            println!(
                "   {}ary{} {:?}: {} schedules, {} cycle audits, {} deadlocked",
                cfg.k,
                cfg.n,
                cfg.routing,
                report.schedules,
                report.cycles_checked,
                report.deadlocked
            );
            for (schedule, d) in report.divergences.iter().take(5) {
                ok = false;
                eprintln!("   schedule {schedule}: {d}");
            }
        }
    }

    println!(
        "validate: {} ({:.1?} elapsed)",
        if ok { "PASS" } else { "FAIL" },
        started.elapsed()
    );
    if ok {
        0
    } else {
        1
    }
}

/// The `repro faults` subcommand. Returns the process exit code:
/// 0 on success, 1 on any determinism or classification failure, and —
/// under `--expect-stall` — exactly 2 when the watchdog fired as
/// expected.
fn faults_main(args: &[String]) -> i32 {
    let seed = flag_num(args, "--seed", 0xfa17_5eed);

    if args.iter().any(|a| a == "--expect-stall") {
        // A saturated single-VC unidirectional torus under TFAR with
        // recovery disabled wedges permanently once the first knot forms;
        // the watchdog must cut it instead of burning the full horizon.
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(4, 2, false);
        cfg.routing = RoutingSpec::Tfar;
        cfg.sim.vcs_per_channel = 1;
        cfg.load = 1.1;
        cfg.recovery = RecoveryPolicy::None;
        cfg.warmup = 500;
        cfg.measure = 100_000;
        cfg.stall_threshold = Some(300);
        cfg.seed = seed;

        println!("== fault smoke: forced stall ==");
        println!("   config: {} (recovery disabled)", cfg.label());
        let started = Instant::now();
        let res = run(&cfg);
        println!(
            "   outcome: {} ({:.1?} elapsed)",
            res.outcome.name(),
            started.elapsed()
        );
        if res.outcome != RunOutcome::Stalled {
            eprintln!(
                "expected the watchdog to fire, run ended {}",
                res.outcome.name()
            );
            return 1;
        }
        let Some(st) = res.stall else {
            eprintln!("Stalled outcome without a stall report");
            return 1;
        };
        println!(
            "   stall report: cut at cycle {} (last progress {}), \
             {} messages in network, {} blocked, {} source-queued",
            st.cycle, st.last_progress_cycle, st.in_network, st.blocked, st.source_queued
        );
        if st.cycle >= cfg.warmup + cfg.measure {
            eprintln!("watchdog fired only at the horizon — it saved nothing");
            return 1;
        }
        return 2;
    }

    // A seeded random fault plan on a small torus: transient outages, a
    // permanent kill, a router stall, an injector outage. The run must be
    // byte-identical on the activity stepper, the dense reference
    // stepper, and a replay, and classify as `Faulted`.
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(4, 2, true);
    cfg.routing = RoutingSpec::Tfar;
    cfg.sim.vcs_per_channel = 2;
    cfg.load = 0.8;
    cfg.warmup = 200;
    cfg.measure = 1_800;
    cfg.stall_threshold = Some(1_000);
    cfg.seed = seed;
    cfg.faults = flexsim::faults::random_plan(&cfg.topology, cfg.warmup + cfg.measure, seed);

    println!("== fault smoke: injected run ==");
    println!("   config: {}", cfg.label());
    println!(
        "   routing {} fault-aware (routes_around_faults={})",
        cfg.routing.name(),
        cfg.routing.build().routes_around_faults()
    );
    for e in &cfg.faults.events {
        println!("   fault @ cycle {:>5}: {:?}", e.cycle, e.kind);
    }

    let started = Instant::now();
    let act = run(&cfg);
    let dense = run_reference(&cfg);
    let replayed = run(&cfg);
    println!(
        "   outcome: {}  fault losses: {}  source rejections: {}  ({:.1?} elapsed)",
        act.outcome.name(),
        act.fault_losses,
        act.fault_rejected,
        started.elapsed()
    );

    let mut ok = true;
    if act.digest() != dense.digest() {
        eprintln!("DIGEST MISMATCH between activity and dense steppers");
        eprintln!("   activity: {}", act.digest());
        eprintln!("   dense:    {}", dense.digest());
        ok = false;
    }
    if act.digest() != replayed.digest() {
        eprintln!("DIGEST MISMATCH between run and replay");
        ok = false;
    }
    if ok {
        println!("   digests agree across activity stepper, dense stepper, replay");
    }
    if act.outcome != RunOutcome::Faulted {
        eprintln!(
            "expected a Faulted classification, got {} — the plan never bit",
            act.outcome.name()
        );
        ok = false;
    }
    if ok {
        0
    } else {
        1
    }
}

/// Starts a `repro serve` process on `dir` as a fleet member: an
/// ephemeral port published through `<dir>/<tag>.port`, and fleet knobs
/// tightened for fast failure detection.
fn spawn_member(
    dir: &std::path::Path,
    tag: &str,
    workers: usize,
    crash_plan: Option<&str>,
) -> std::io::Result<Member> {
    let port_file = dir.join(format!("{tag}.port"));
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--data"])
        .arg(dir)
        .args([
            "--workers",
            &workers.to_string(),
            "--lease-ms",
            "1500",
            "--scan-ms",
            "120",
            "--port-file",
        ])
        .arg(&port_file);
    if let Some(plan) = crash_plan {
        cmd.env("ICN_DURABLE_CRASH", plan);
    }
    Member::spawn(cmd, port_file)
}

/// Prefixes an I/O error with the step that met it.
fn at(step: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{step}: {e}")
}

/// The `--smoke` self-check body. Returns an error description on the
/// first divergence.
fn serve_smoke(data_dir: &std::path::Path, workers: usize) -> Result<(), String> {
    let grid = chaos::grid();
    println!(
        "== campaign smoke: direct sweep of {} configs ==",
        grid.expand().len()
    );
    let want = grid.direct_digests();

    let mut opts = icn_server::ServerOptions::new(data_dir);
    opts.workers = workers;
    let server =
        icn_server::CampaignServer::bind("127.0.0.1:0", &opts).map_err(|e| format!("bind: {e}"))?;
    let api = Client(server.addr());
    println!("== campaign smoke: server on {} ==", api.0);
    let handle = std::thread::spawn(move || server.serve());
    let check = smoke_rounds(data_dir, api, &grid, &want);
    // Always take the graceful path so the worker threads exit.
    let _ = api.shutdown();
    let joined = handle.join();
    check?;
    joined
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serve: {e}"))
}

/// The three `--smoke` rounds against the in-process server at `api`.
fn smoke_rounds(
    data_dir: &std::path::Path,
    api: Client,
    grid: &icn_server::SweepGrid,
    want: &[String],
) -> Result<(), String> {
    use flexsim::jsonio::Json;
    use std::time::Duration;
    let n = want.len();
    // Submits the grid through `api`, waits for the job to settle and
    // compares every digest with the direct sweep; returns the status.
    let submit_and_check = |api: Client, round: &str, timeout| -> Result<Json, String> {
        let fail = |e: std::io::Error| format!("{round}: {e}");
        let id = api.submit(grid).map_err(fail)?;
        let status = api.wait_done(id, timeout).map_err(fail)?;
        let got = api.results(id, n).map_err(fail)?.digests;
        if got != want {
            return Err(format!(
                "{round}: digest mismatch vs direct sweep_supervised:\n  \
                 served: {got:?}\n  direct: {want:?}"
            ));
        }
        Ok(status)
    };

    // Round 1: fresh submission must simulate everything and match the
    // direct sweep digest-for-digest.
    submit_and_check(api, "first job", Duration::from_secs(300))?;
    println!("   {n} results digest-identical to the direct sweep");

    // Round 2: identical resubmission must be answered entirely from the
    // cache — zero new simulations.
    let sims_before = api.stat(&["sims_run"]).map_err(at("stats"))?;
    let status2 = submit_and_check(api, "resubmission", Duration::from_secs(60))?;
    let cached = status2.get("cached").and_then(Json::as_u64).unwrap_or(0);
    let sims_after = api.stat(&["sims_run"]).map_err(at("stats"))?;
    if sims_after != sims_before {
        return Err(format!(
            "resubmission ran {} new simulations (want 0)",
            sims_after - sims_before
        ));
    }
    if cached != n as u64 {
        return Err(format!(
            "resubmission reported {cached} cached slots (want {n})"
        ));
    }
    println!("   resubmission: {cached} cache hits, 0 new simulations");

    // Round 3: a second server *process* joins the same data dir and takes
    // a third identical submission — the content-addressed cache written
    // by this process must answer across the process boundary, still
    // without a single new simulation anywhere in the fleet.
    let mut sibling =
        spawn_member(data_dir, "smoke-sibling", 2, None).map_err(at("spawning sibling"))?;
    let sib = Client(
        sibling
            .addr(Duration::from_secs(30))
            .map_err(at("sibling address"))?,
    );
    submit_and_check(sib, "second process", Duration::from_secs(60))?;
    // /stats is per-process; either member may have answered any slot
    // (both scan the shared job), so the invariants are on the fleet-wide
    // sums.
    let fleet_sum = |path: &[&str]| -> Result<u64, String> {
        Ok(api.stat(path).map_err(at("stats"))? + sib.stat(path).map_err(at("sibling stats"))?)
    };
    let sims = fleet_sum(&["sims_run"])?;
    if sims != n as u64 {
        return Err(format!(
            "fleet ran {sims} total simulations (want {n} — the third \
             submission must be pure cache hits)"
        ));
    }
    let hits = fleet_sum(&["cache", "hits"])?;
    if hits < 2 * n as u64 {
        return Err(format!(
            "fleet reports {hits} cache hits (want at least {})",
            2 * n
        ));
    }
    sib.shutdown().map_err(at("sibling shutdown"))?;
    let exit = sibling
        .wait_exit(Duration::from_secs(60))
        .map_err(at("sibling exit"))?;
    if !exit.success() {
        return Err(format!("sibling exited uncleanly: {exit}"));
    }
    println!("   second process: cross-process cache hits, 0 new simulations");
    Ok(())
}

/// The `repro chaos` subcommand. Returns the process exit code.
fn chaos_main(args: &[String]) -> i32 {
    let iterations: usize = flag_num(args, "--iterations", 3);
    let workers: usize = flag_num(args, "--workers", 2);

    let grid = chaos::grid();
    println!(
        "== chaos: direct sweep of {} configs ==",
        grid.expand().len()
    );
    let want = grid.direct_digests();

    let root = std::env::temp_dir().join(format!("campaign-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut failures = 0usize;
    for iter in 0..iterations {
        let dir = root.join(format!("iter-{iter}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return 1;
        }
        let death = if iter % 2 == 1 {
            Death::InjectedCrash
        } else {
            Death::Sigkill
        };
        let mut spawn =
            |tag: &str, workers, plan: Option<&str>| spawn_member(&dir, tag, workers, plan);
        match chaos::storyline(&dir, &want, workers, death, &mut spawn) {
            Ok(r) => println!(
                "== chaos iteration {iter}: PASS ({death:?}; corrupt_frames={} reclaimed_leases={}) ==",
                r.corrupt_frames, r.reclaimed_leases
            ),
            Err(e) => {
                eprintln!("== chaos iteration {iter}: FAIL ({death:?}) — {e} ==");
                failures += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    if failures == 0 {
        println!("chaos: PASS ({iterations} iterations)");
        0
    } else {
        eprintln!("chaos: FAIL ({failures}/{iterations} iterations)");
        1
    }
}

/// The `repro serve` subcommand. Returns the process exit code.
fn serve_main(args: &[String]) -> i32 {
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let workers = flag_num(args, "--workers", cores);

    if args.iter().any(|a| a == "--smoke") {
        let dir = std::env::temp_dir().join(format!("campaign-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let verdict = serve_smoke(&dir, workers.min(4));
        let _ = std::fs::remove_dir_all(&dir);
        return match verdict {
            Ok(()) => {
                println!("campaign smoke: PASS");
                0
            }
            Err(e) => {
                eprintln!("campaign smoke: FAIL — {e}");
                1
            }
        };
    }

    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:8991");
    let data = flag_value(args, "--data").unwrap_or("campaign-data");
    let mut opts = icn_server::ServerOptions::new(data);
    opts.workers = workers;
    opts.handle_sigint = true;
    for (flag, knob) in [
        ("--lease-ms", &mut opts.lease_expiry),
        ("--scan-ms", &mut opts.scan_interval),
    ] {
        match flag_value(args, flag).map(|_| flag_num(args, flag, 0u64)) {
            None => {}
            Some(0) => {
                eprintln!("{flag} wants a positive integer");
                return 2;
            }
            Some(ms) => *knob = std::time::Duration::from_millis(ms),
        }
    }
    let server = match icn_server::CampaignServer::bind(addr, &opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind campaign server on {addr}: {e}");
            return 1;
        }
    };
    if let Some(path) = flag_value(args, "--port-file") {
        // Atomic write: a parent polling the file never reads a torn
        // address.
        if let Err(e) = flexsim::jsonio::durable::write_atomic(
            std::path::Path::new(path),
            server.addr().to_string().as_bytes(),
        ) {
            eprintln!("cannot write --port-file {path}: {e}");
            return 1;
        }
    }
    println!(
        "campaign server on http://{} ({} workers, data in `{data}`)",
        server.addr(),
        workers
    );
    println!("endpoints: POST /jobs  GET /jobs/:id[/results]  POST /jobs/:id/cancel  GET /stats  GET /incidents  POST /shutdown");
    match server.serve() {
        Ok(()) => {
            println!("campaign server: clean shutdown");
            0
        }
        Err(e) => {
            eprintln!("campaign server failed: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("forensics") {
        std::process::exit(forensics_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(serve_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("chaos") {
        std::process::exit(chaos_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("faults") {
        std::process::exit(faults_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("validate") {
        std::process::exit(validate_main(&args[1..]));
    }
    let small = args.iter().any(|a| a == "--small");
    let csv = args.iter().any(|a| a == "--csv");
    let json = args.iter().any(|a| a == "--json");
    let scale = if small { Scale::Small } else { Scale::Paper };

    let mut wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = vec![
            "fig5".into(),
            "fig6".into(),
            "fig7".into(),
            "fig8".into(),
            "degree".into(),
            "traffic".into(),
            "ablate-interval".into(),
            "ablate-victim".into(),
            "ext-hypercube".into(),
            "ext-misroute".into(),
            "ext-hybrid".into(),
        ];
    }

    let mut available = experiments::all(scale);
    available.extend(flexsim::ablations::all(scale));
    available.extend(flexsim::extensions::all(scale));
    let mut pass_all = true;
    for id in &wanted {
        let Some(exp) = available.iter().find(|e| e.id == id) else {
            eprintln!(
                "unknown experiment `{id}` (have: fig5 fig6 fig7 fig8 degree traffic \
                 ablate-interval ablate-victim)"
            );
            std::process::exit(2);
        };
        let started = Instant::now();
        println!("== {} ==", exp.title);
        println!(
            "   {} simulation points, scale={scale:?}",
            exp.configs.len()
        );
        let results = sweep(&exp.configs);
        let table = experiments::results_table(&results);
        println!("{}", table.render());
        if csv {
            println!("{}", table.to_csv());
        }
        if json {
            let path = format!("repro_{}.json", exp.id);
            std::fs::write(&path, flexsim::json::sweep_to_json(&results))
                .unwrap_or_else(|e| eprintln!("cannot write {path}: {e}"));
            println!("   wrote {path}");
        }
        println!("{}", experiments::figure_chart(exp, &results).render());
        println!("per-curve saturation / deadlock onset:");
        println!(
            "{}",
            experiments::saturation_summary(exp, &results).render()
        );
        println!("shape checks (paper claims vs measured):");
        let checks = if exp.id.starts_with("ext-") {
            flexsim::extensions::shape_checks(exp, &results)
        } else {
            experiments::shape_checks(exp, &results)
        };
        for c in checks {
            println!(
                "  [{}] {} ({})",
                if c.pass { "PASS" } else { "FAIL" },
                c.claim,
                c.detail
            );
            pass_all &= c.pass;
        }
        println!("   ({:.1?} elapsed)\n", started.elapsed());
    }
    if !pass_all {
        eprintln!("some shape checks failed");
        std::process::exit(1);
    }
}
