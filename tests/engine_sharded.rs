//! The retired shard knob: the engine is not sharded, and
//! [`flexsim::RunConfig::shards`] survives only as an ignored field, so
//! setting it must leave every result byte-identical —
//! [`flexsim::RunResult::digest`] equality.

use flexsim::{run, RunConfig};

#[test]
fn shard_knob_is_digest_neutral_on_any_build() {
    let mut cfg = RunConfig::small_default();
    cfg.warmup = 200;
    cfg.measure = 600;
    cfg.load = 1.0;
    let baseline = run(&cfg).digest();
    cfg.shards = 4;
    assert_eq!(run(&cfg).digest(), baseline);
}
