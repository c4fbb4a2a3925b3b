//! Detection timing of snapshot-epoch detection: the formation cycle an
//! incident records is the same however the engine is stepped and
//! whether or not unchanged epochs are skipped by fingerprint, it never
//! lies after the detection cycle, and every knot is found within one
//! epoch interval of forming.

use flexsim::{run, run_reference, ForensicsConfig, RunConfig, TopologySpec};

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
