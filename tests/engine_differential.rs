//! End-to-end engine differential: a full [`run`] (traffic, detection,
//! recovery, forensics) driven by the activity engine must be
//! byte-identical — [`RunResult::digest`] equality — to [`run_reference`],
//! which drives the identical point with the dense reference stepper.
//! The sim-level differential test compares steppers cycle-by-cycle; this
//! one proves the equivalence survives everything the runner layers on
//! top: detection epochs, fingerprint skipping, Disha-style recovery
//! victim selection, and forensic capture. It also pins what the runner
//! promises across steppers beyond the digest: incident formation cycles.

use flexsim::{run, run_reference, ForensicsConfig, RoutingSpec, RunConfig, TopologySpec};

fn points() -> Vec<RunConfig> {
    let mut configs = Vec::new();
    for (routing, vcs, load) in [
        (RoutingSpec::Dor, 1, 1.0),
        (RoutingSpec::Tfar, 2, 0.8),
        (RoutingSpec::Duato, 3, 0.6),
    ] {
        let mut c = RunConfig::small_default();
        c.routing = routing;
        c.sim.vcs_per_channel = vcs;
        c.load = load;
        c.warmup = 200;
        c.measure = 600;
        configs.push(c);
    }
    configs
}

#[test]
fn activity_run_matches_reference_run() {
    for cfg in points() {
        assert_eq!(
            run(&cfg).digest(),
            run_reference(&cfg).digest(),
            "engines diverged for {}",
            cfg.label()
        );
    }
}

#[test]
fn engines_agree_through_deadlock_recovery_cycles() {
    // A saturated unidirectional DOR torus wedges repeatedly; recovery
    // keeps pulling victims. Both engines must agree on every knot,
    // victim, and resolution latency.
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(8, 2, false);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    let a = run(&cfg);
    assert!(a.deadlocks > 0, "expected deadlocks at saturation");
    assert_eq!(a.digest(), run_reference(&cfg).digest());
}

#[test]
fn engines_agree_under_forensic_capture() {
    // Forensics adds tracing and replay capture; the activity engine must
    // produce the identical trace stream for it to index.
    let mut cfg = points().remove(0);
    cfg.forensics = Some(ForensicsConfig::default());
    let a = run(&cfg);
    let b = run_reference(&cfg);
    assert!(!a.forensic_incidents.is_empty(), "expected captures");
    assert_eq!(a.digest(), b.digest());
}

/// Forensic capture rides on the detection epochs; formation cycles
/// recorded in incidents must be identical on both steppers and with
/// the fingerprint fast path disabled, and never after the detection
/// cycle.
#[test]
fn formation_cycles_are_identical_and_causal() {
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(8, 2, false);
    cfg.sim.vcs_per_channel = 1;
    cfg.warmup = 200;
    cfg.measure = 1_000;
    cfg.load = 1.0;
    cfg.forensics = Some(ForensicsConfig::default());
    let snap = run(&cfg);
    assert!(snap.deadlocks > 0, "need knots for formation coverage");
    assert!(!snap.forensic_incidents.is_empty(), "expected captures");
    for inc in &snap.incidents {
        assert!(inc.formation_cycle <= inc.cycle);
    }
    for inc in &snap.forensic_incidents {
        assert!(inc.formation_cycle <= inc.cycle);
    }
    assert!(snap.detection_lag.count() > 0);
    assert!(snap.detection_lag.max() <= cfg.detection_interval);

    let dense = run_reference(&cfg);
    cfg.fingerprint_skip = false;
    let strict = run(&cfg);
    for other in [&dense, &strict] {
        assert_eq!(other.digest(), snap.digest());
        assert_eq!(other.incidents.len(), snap.incidents.len());
        for (a, b) in snap.incidents.iter().zip(other.incidents.iter()) {
            assert_eq!(a.formation_cycle, b.formation_cycle);
        }
        assert_eq!(
            other.forensic_incidents.len(),
            snap.forensic_incidents.len()
        );
        for (a, b) in snap
            .forensic_incidents
            .iter()
            .zip(other.forensic_incidents.iter())
        {
            assert_eq!(a.formation_cycle, b.formation_cycle);
        }
    }
}
