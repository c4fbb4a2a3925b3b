//! The retired transfer-thread knob: the engine has one serial transfer
//! walk, and [`flexsim::RunConfig::transfer_threads`] survives only as an
//! ignored field, so setting it must leave every result byte-identical —
//! [`flexsim::RunResult::digest`] equality.

use flexsim::{run, RunConfig};

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
