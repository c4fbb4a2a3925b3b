//! Engine-throughput comparison: the activity-driven stepper
//! ([`Network::step`]) against the dense reference stepper
//! ([`Network::step_reference`]) on the three regimes the paper's sweeps
//! spend their time in — low load (mostly idle), saturation (mostly
//! busy), and post-deadlock (mostly blocked). For each config the two
//! engines are first driven in lockstep over an identical schedule and
//! must produce identical per-cycle events and final counters; then each
//! is timed separately on its own instance. Results are printed as a
//! table; with `ICN_BENCH_BLESS=1` they also overwrite the committed
//! baseline (`BENCH_engine.json`), otherwise the baseline is only read.
//!
//! A second section compares the detection modes on a deadlock-heavy
//! regime (full `flexsim::run`s, recovery in the loop): after a digest
//! cross-check, `incremental_ratio` (incremental over snapshot
//! cycles/sec) joins the baseline and is gated at a fixed 0.9 — the
//! every-cycle detector may cost at most 10% of run throughput.
//!
//! Run with `cargo bench -p icn-bench --bench engine_throughput`. Exits
//! non-zero if any digest diverges, if `incremental_ratio` falls below
//! 0.9, or if the saturation speedup regresses more than 20% below the
//! committed `BENCH_engine.json` baseline (ratios are machine-normalized,
//! so this survives CI-runner variance); the remaining throughput checks
//! are reported as PASS/FAIL but do not fail the process (wall-clock
//! noise).
//!
//! `ICN_BENCH_QUICK=1` shrinks the verify/measure windows for CI smoke
//! runs (~seconds instead of ~minutes).

use std::fmt::Write as _;
use std::time::Instant;

use icn_routing::{Dor, RoutingAlgorithm, Tfar};
use icn_sim::{Network, SimConfig, StepEvents};
use icn_topology::{KAryNCube, NodeId};
use icn_traffic::{BernoulliInjector, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Case {
    name: &'static str,
    bidir: bool,
    routing: fn() -> Box<dyn RoutingAlgorithm>,
    vcs: usize,
    load: f64,
    /// Cycles to reach the regime's steady state before measuring.
    warmup: u64,
}

const MSG_LEN: usize = 32;

/// Window sizes, shrunk by `ICN_BENCH_QUICK=1` for CI smoke runs.
#[derive(Clone, Copy)]
struct Windows {
    verify_cycles: u64,
    measure_cycles: u64,
    reps: usize,
}

fn quick_mode() -> bool {
    std::env::var("ICN_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn windows() -> Windows {
    if quick_mode() {
        Windows {
            verify_cycles: 1_500,
            measure_cycles: 8_000,
            reps: 2,
        }
    } else {
        Windows {
            verify_cycles: 4_000,
            measure_cycles: 40_000,
            reps: 3,
        }
    }
}

/// The committed baseline (and output) lives at the repo root, not in
/// the bench crate's CWD. Quick mode measures a shorter window — the
/// saturation backlog is shallower, so its speedup ratio is a different
/// (also deterministic) number — and therefore keeps its own baseline
/// so the regression gate always compares like-for-like.
fn baseline_path() -> &'static str {
    if quick_mode() {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine_quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json")
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "low_load",
            bidir: true,
            routing: || Box::new(Tfar),
            vcs: 2,
            load: 0.15,
            warmup: 2_000,
        },
        Case {
            name: "saturation",
            bidir: true,
            routing: || Box::new(Tfar),
            vcs: 2,
            load: 1.0,
            warmup: 2_000,
        },
        // Unidirectional DOR with one VC wedges within ~1k cycles at
        // capacity and stays wedged (no recovery here): the mostly-blocked
        // regime the activity engine is built for.
        Case {
            name: "post_deadlock",
            bidir: false,
            routing: || Box::new(Dor),
            vcs: 1,
            load: 1.0,
            warmup: 3_000,
        },
    ]
}

fn build(case: &Case) -> (Network, BernoulliInjector, StdRng) {
    let topo = KAryNCube::torus(8, 2, case.bidir);
    let injector = BernoulliInjector::for_load(&topo, case.load, MSG_LEN);
    let net = Network::new(
        topo,
        (case.routing)(),
        SimConfig {
            vcs_per_channel: case.vcs,
            buffer_depth: 2,
            msg_len: MSG_LEN,
        },
    );
    (net, injector, StdRng::seed_from_u64(7))
}

fn offer_traffic(
    net: &mut Network,
    topo: &KAryNCube,
    injector: &BernoulliInjector,
    rng: &mut StdRng,
) {
    for node in 0..topo.num_nodes() as u32 {
        if injector.fires(rng) {
            if let Some(dst) = Pattern::Uniform.dest(topo, NodeId(node), rng) {
                net.enqueue(NodeId(node), dst);
            }
        }
    }
}

/// Everything a run's events and final state boil down to; two engines
/// with equal digests produced byte-identical schedules.
fn digest(net: &Network, folded: &(u64, u64, u64)) -> String {
    let (inj, flits, del) = folded;
    let mut s = String::new();
    let _ = write!(
        s,
        "inj={inj} flits={flits} del={del} totals={:?} blocked={} in_net={} queued={} ids={:?}",
        net.totals(),
        net.blocked_count(),
        net.in_network(),
        net.source_queued(),
        net.active_ids(),
    );
    s
}

fn fold(acc: &mut (u64, u64, u64), ev: &StepEvents) {
    acc.0 += ev.injected as u64;
    acc.1 += ev.link_flits as u64;
    acc.2 += ev.delivered.len() as u64;
}

/// Lockstep differential over the verify window: identical per-cycle
/// events, identical digests.
fn verify(case: &Case, w: Windows) -> bool {
    let (mut a, injector, mut rng_a) = build(case);
    let (mut b, _, mut rng_b) = build(case);
    let topo = a.topology().clone();
    let mut fa = (0, 0, 0);
    let mut fb = (0, 0, 0);
    for cycle in 0..w.verify_cycles {
        offer_traffic(&mut a, &topo, &injector, &mut rng_a);
        offer_traffic(&mut b, &topo, &injector, &mut rng_b);
        let ea = a.step();
        let eb = b.step_reference();
        if ea != eb {
            eprintln!("{}: step events diverged at cycle {cycle}", case.name);
            return false;
        }
        fold(&mut fa, &ea);
        fold(&mut fb, &eb);
    }
    let da = digest(&a, &fa);
    let db = digest(&b, &fb);
    if da != db {
        eprintln!(
            "{}: digests diverged\n  activity: {da}\n  dense:    {db}",
            case.name
        );
        return false;
    }
    true
}

/// Steady-state cycles per second for one engine; best of `w.reps` runs.
fn time_engine(case: &Case, dense: bool, w: Windows) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..w.reps {
        let (mut net, injector, mut rng) = build(case);
        let topo = net.topology().clone();
        for _ in 0..case.warmup {
            offer_traffic(&mut net, &topo, &injector, &mut rng);
            if dense {
                net.step_reference();
            } else {
                net.step();
            }
        }
        let start = Instant::now();
        for _ in 0..w.measure_cycles {
            offer_traffic(&mut net, &topo, &injector, &mut rng);
            if dense {
                net.step_reference();
            } else {
                net.step();
            }
        }
        let cps = w.measure_cycles as f64 / start.elapsed().as_secs_f64();
        best = best.max(cps);
    }
    best
}

/// Windows for the incremental-detection section: full `flexsim::run`s
/// (detection + recovery in the loop) on a deadlock-heavy 8-ary 2-cube,
/// so the windows are their own size again.
fn incremental_windows() -> (u64, u64, usize) {
    if quick_mode() {
        (500, 4_000, 2)
    } else {
        (1_000, 20_000, 3)
    }
}

/// The deadlock-recovery regime the detection modes are compared on:
/// unidirectional DOR, one VC, full load — steady knot formation and
/// recovery churn, detection at the default 50-cycle cadence.
fn incremental_cfg(warmup: u64, measure: u64) -> flexsim::RunConfig {
    let mut cfg = flexsim::RunConfig::small_default();
    cfg.topology = flexsim::TopologySpec::torus(8, 2, false);
    cfg.routing = flexsim::RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    cfg.warmup = warmup;
    cfg.measure = measure;
    cfg
}

/// Steady-state cycles/sec of a full run under `mode`; best of `reps`.
fn time_detection_mode(mode: flexsim::DetectionMode, w: (u64, u64, usize)) -> f64 {
    let (warmup, measure, reps) = w;
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut cfg = incremental_cfg(warmup, measure);
        cfg.detection = mode;
        let start = Instant::now();
        let res = flexsim::run(&cfg);
        let cps = res.cycles as f64 / start.elapsed().as_secs_f64();
        best = best.max(cps);
    }
    best
}

/// Pulls `"speedup": <x>` out of the saturation row of a committed
/// `BENCH_engine.json` (a fixed format we also write, so a two-line
/// scan beats a JSON parser here).
fn baseline_saturation_speedup(json: &str) -> Option<f64> {
    let row = json
        .lines()
        .find(|l| l.contains("\"name\": \"saturation\""))?;
    let tail = row.split("\"speedup\": ").nth(1)?;
    tail.split(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn main() {
    let w = windows();
    let baseline = std::fs::read_to_string(baseline_path())
        .ok()
        .as_deref()
        .and_then(baseline_saturation_speedup);
    println!("== engine throughput: activity stepper vs dense reference ==");
    println!(
        "   8-ary 2-cube, {MSG_LEN}-flit messages; verify {} cycles, \
         measure {} cycles x {} reps\n",
        w.verify_cycles, w.measure_cycles, w.reps
    );

    let mut rows = Vec::new();
    let mut all_match = true;
    for case in cases() {
        let matched = verify(&case, w);
        all_match &= matched;
        let dense = time_engine(&case, true, w);
        let activity = time_engine(&case, false, w);
        let speedup = activity / dense;
        println!(
            "{:>14}  dense {:>12.0} cyc/s   activity {:>12.0} cyc/s   speedup {:>5.2}x   digest {}",
            case.name,
            dense,
            activity,
            speedup,
            if matched { "MATCH" } else { "MISMATCH" },
        );
        rows.push((case.name, dense, activity, speedup, matched));
    }

    let find = |name: &str| rows.iter().find(|r| r.0 == name).unwrap();
    let post = find("post_deadlock");
    let low = find("low_load");
    println!();
    println!(
        "  [{}] post-deadlock speedup >= 2x (measured {:.2}x)",
        if post.3 >= 2.0 { "PASS" } else { "FAIL" },
        post.3
    );
    println!(
        "  [{}] low-load regression <= 5% (activity/dense = {:.2})",
        if low.3 >= 0.95 { "PASS" } else { "FAIL" },
        low.3
    );
    println!(
        "  [{}] identical digests vs dense reference on all configs",
        if all_match { "PASS" } else { "FAIL" },
    );
    // Incremental-detection section: the event-patched every-cycle
    // detector must stay digest-identical to snapshot mode and cost no
    // more than 10% of a full run's throughput on a deadlock-heavy
    // regime (a fixed gate — the ratio is machine-normalized).
    let iw = incremental_windows();
    println!();
    println!(
        "== incremental_detection: 8-ary 2-cube DOR vc=1 load=1.0, full runs ==\n   \
         warmup {} cycles, measure {} cycles x {} reps",
        iw.0, iw.1, iw.2
    );
    let inc_match = {
        let cfg = incremental_cfg(iw.0, iw.1.min(2_000));
        let want = flexsim::run(&cfg).digest();
        let mut inc = cfg.clone();
        inc.detection = flexsim::DetectionMode::Incremental;
        flexsim::run(&inc).digest() == want
    };
    println!(
        "  [{}] identical digests, snapshot vs incremental detection",
        if inc_match { "PASS" } else { "FAIL" },
    );
    let snap_cps = time_detection_mode(flexsim::DetectionMode::Snapshot, iw);
    let inc_cps = time_detection_mode(flexsim::DetectionMode::Incremental, iw);
    let incremental_ratio = inc_cps / snap_cps;
    println!(
        "{:>14}  snapshot {:>10.0} cyc/s   incremental {:>10.0} cyc/s   ratio {:.2}x",
        "detection", snap_cps, inc_cps, incremental_ratio
    );
    let inc_regressed = incremental_ratio < 0.9;
    println!(
        "  [{}] incremental_ratio >= 0.9 (measured {incremental_ratio:.2}x)",
        if inc_regressed { "FAIL" } else { "PASS" },
    );

    let sat = find("saturation");
    let sat_regressed = match baseline {
        Some(b) => {
            let ok = sat.3 >= 0.8 * b;
            println!(
                "  [{}] saturation speedup within 20% of committed baseline \
                 (measured {:.2}x vs baseline {:.2}x)",
                if ok { "PASS" } else { "FAIL" },
                sat.3,
                b
            );
            !ok
        }
        None => {
            println!("  [SKIP] no committed baseline to compare saturation speedup against");
            false
        }
    };

    let mut json = String::from("{\n  \"bench\": \"engine_throughput\",\n");
    let _ = write!(
        json,
        "  \"verify_cycles\": {},\n  \"measure_cycles\": {},\n  \"configs\": [\n",
        w.verify_cycles, w.measure_cycles
    );
    for (i, (name, dense, activity, speedup, matched)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"dense_cycles_per_sec\": {dense:.0}, \
             \"activity_cycles_per_sec\": {activity:.0}, \"speedup\": {speedup:.3}, \
             \"digest_match\": {matched}}}{}",
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"incremental_detection\": {{\"snapshot_cycles_per_sec\": {snap_cps:.0}, \
         \"incremental_cycles_per_sec\": {inc_cps:.0}, \
         \"incremental_ratio\": {incremental_ratio:.3}, \
         \"digest_match\": {inc_match}}}"
    );
    json.push_str("}\n");
    // Re-baselining is an explicit act: a plain run only compares.
    if std::env::var("ICN_BENCH_BLESS").is_ok_and(|v| v == "1") {
        match std::fs::write(baseline_path(), &json) {
            Ok(()) => println!("\nwrote {}", baseline_path()),
            Err(e) => eprintln!("\ncannot write {}: {e}", baseline_path()),
        }
    }

    if !all_match {
        eprintln!("engine digest mismatch — the activity stepper is wrong");
        std::process::exit(1);
    }
    if sat_regressed {
        eprintln!("saturation speedup regressed more than 20% vs the committed baseline");
        std::process::exit(1);
    }
    if !inc_match {
        eprintln!("detection-mode digest mismatch — the incremental detector is wrong");
        std::process::exit(1);
    }
    if inc_regressed {
        eprintln!("incremental detection costs more than 10% of full-run throughput");
        std::process::exit(1);
    }
}
