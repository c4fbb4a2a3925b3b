//! The retired transfer-thread knob: the engine has one serial transfer
//! walk, and [`flexsim::RunConfig::transfer_threads`] survives only as an
//! ignored field, so setting it must leave every result byte-identical —
//! [`flexsim::RunResult::digest`] equality.

use flexsim::experiments::{fig5, fig6, fig7, fig8, Scale};
use flexsim::{run, RunConfig};

/// The saturated (load ≥ 1.0) points of each golden figure: one per
/// curve, the densest transfer traffic the goldens produce.
fn golden_saturated_points() -> Vec<RunConfig> {
    [fig5, fig6, fig7, fig8]
        .iter()
        .flat_map(|f| f(Scale::Small).configs)
        .filter(|c| c.load >= 1.0)
        .collect()
}

#[test]
fn thread_knob_is_digest_neutral_on_any_build() {
    let mut cfg = RunConfig::small_default();
    cfg.warmup = 200;
    cfg.measure = 600;
    cfg.load = 1.0;
    let baseline = run(&cfg).digest();
    cfg.transfer_threads = 4;
    assert_eq!(run(&cfg).digest(), baseline);
}

/// Every golden figure keeps a saturated point: the regime where the
/// transfer walk does the most work per cycle.
#[test]
fn golden_saturated_points_exist() {
    assert!(golden_saturated_points().len() >= 4);
}
