//! Saturation-focused differential: the activity stepper's hot path (the
//! bitset transfer walk, drain-head cache, and frozen candidate
//! reuse) earns its keep above saturation — which is exactly where a
//! missed wake, a stale cached head, or a reordered move would surface.
//! Every case here offers traffic faster than the network can drain it
//! (every node enqueues every cycle) and checks the activity engine
//! against the dense reference cycle-for-cycle: same [`StepEvents`], same
//! invariants, same counters, same traces.
//!
//! The deterministic cases mirror the golden figures' regimes (fig5–fig8
//! of the paper): a 1-VC unidirectional DOR torus (the canonical deadlock
//! machine), its bidirectional twin, adaptive TFAR with 2 VCs, and a
//! deep-buffer virtual cut-through point; plus a faulted case under a
//! `random_plan`-shaped schedule of link outages, a link kill, a router
//! stall, and an injector outage. The proptest sweeps randomized
//! above-saturation points on top.

use icn_routing::{Dor, DuatoFar, RoutingAlgorithm, Tfar};
use icn_sim::{FaultPlan, Network, SimConfig};
use icn_topology::{KAryNCube, NodeId};
use proptest::prelude::*;

/// SplitMix64, as in the base differential suite.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Golden {
    topo: KAryNCube,
    routing: fn() -> Box<dyn RoutingAlgorithm>,
    cfg: SimConfig,
}

/// The four golden-regime points, at the bench's 8-ary 2-cube scale.
fn goldens() -> Vec<Golden> {
    vec![
        // fig5 regime: DOR, one VC, unidirectional — wedges hard.
        Golden {
            topo: KAryNCube::torus(8, 2, false),
            routing: || Box::new(Dor),
            cfg: SimConfig {
                vcs_per_channel: 1,
                buffer_depth: 2,
                msg_len: 8,
            },
        },
        // fig5/fig6 regime: the bidirectional twin.
        Golden {
            topo: KAryNCube::torus(8, 2, true),
            routing: || Box::new(Dor),
            cfg: SimConfig {
                vcs_per_channel: 1,
                buffer_depth: 2,
                msg_len: 8,
            },
        },
        // fig6/fig7 regime: unrestricted adaptive routing, two VCs.
        Golden {
            topo: KAryNCube::torus(8, 2, true),
            routing: || Box::new(Tfar),
            cfg: SimConfig {
                vcs_per_channel: 2,
                buffer_depth: 2,
                msg_len: 8,
            },
        },
        // fig8 regime: deep buffers (virtual cut-through).
        Golden {
            topo: KAryNCube::torus(8, 2, true),
            routing: || Box::new(DuatoFar),
            cfg: SimConfig {
                vcs_per_channel: 3,
                buffer_depth: 8,
                msg_len: 8,
            },
        },
    ]
}

/// Drives both steppers through `cycles` of above-saturation traffic
/// (every node offers a message every cycle) with periodic recovery
/// pulls, comparing everything. A non-empty `plan` is installed in both
/// instances before stepping.
fn saturated_case(g: &Golden, plan: &FaultPlan, seed: u64, cycles: u64) {
    let build = || {
        let mut net = Network::new(g.topo.clone(), (g.routing)(), g.cfg);
        if !plan.is_empty() {
            net.set_fault_plan(plan);
        }
        net
    };
    let mut a = build();
    let mut b = build();
    a.enable_trace(1 << 15);
    b.enable_trace(1 << 15);
    let nodes = g.topo.num_nodes() as u64;
    let mut arrivals = Rng(seed);
    for cycle in 0..cycles {
        for n in 0..nodes {
            // Above saturation: every node offers traffic every cycle.
            let mut dst = arrivals.below(nodes);
            if dst == n {
                dst = (dst + 1) % nodes;
            }
            a.enqueue(NodeId(n as u32), NodeId(dst as u32));
            b.enqueue(NodeId(n as u32), NodeId(dst as u32));
        }
        // Recovery pulls keep the drain path (and its cached heads) hot.
        if cycle % 48 == 47 {
            let victim = a
                .active_ids()
                .into_iter()
                .find(|&id| a.message_info(id).is_some_and(|m| m.blocked));
            if let Some(id) = victim {
                assert_eq!(a.message_info(id), b.message_info(id));
                assert_eq!(a.start_recovery(id), b.start_recovery(id));
            }
        }
        let ea = a.step();
        let eb = b.step_reference();
        assert_eq!(
            ea, eb,
            "step events diverged at cycle {cycle} (seed {seed})"
        );
        if cycle % 32 == 0 || cycle + 1 == cycles {
            a.check_invariants();
            b.check_invariants();
            assert_eq!(a.blocked_count(), b.blocked_count(), "cycle {cycle}");
            assert_eq!(a.in_network(), b.in_network(), "cycle {cycle}");
            assert_eq!(a.active_ids(), b.active_ids(), "cycle {cycle}");
        }
    }
    assert_eq!(
        a.totals(),
        b.totals(),
        "lifetime counters diverged (seed {seed})"
    );
    assert_eq!(a.fault_totals(), b.fault_totals());
    assert_eq!(a.source_queued(), b.source_queued());
    let (trace_a, dropped_a) = a.take_trace();
    let (trace_b, dropped_b) = b.take_trace();
    assert_eq!(dropped_a, dropped_b);
    assert_eq!(trace_a, trace_b, "traces diverged (seed {seed})");
}

#[test]
fn golden_regimes_agree_above_saturation() {
    for (i, g) in goldens().iter().enumerate() {
        saturated_case(g, &FaultPlan::new(), 0x5a7_0000 + i as u64, 700);
    }
}

/// A `random_plan`-shaped fault schedule (transient link outages, a
/// permanent kill, a router stall, an injector outage) on the canonical
/// wedging golden, above saturation. One extra stall freezes a router
/// while its outgoing VCs hold movable flits, so the transfer walk's
/// stalled-sender branch (move nothing, keep the channel active) runs
/// under per-cycle comparison with the reference.
#[test]
fn faulted_golden_agrees_above_saturation() {
    let g = &goldens()[0];
    let channels = g.topo.num_channels() as u64;
    let nodes = g.topo.num_nodes() as u64;
    let horizon = 700u64;
    let mut r = Rng(0xfa17_fa17);
    let lo = horizon / 10;
    let at = |r: &mut Rng| lo + r.below(horizon - lo);
    let mut plan = FaultPlan::new();
    for _ in 0..3 {
        let ch = r.below(channels) as u32;
        let down = at(&mut r);
        let dur = 1 + r.below(horizon / 10);
        plan.link_outage(ch, down, down + dur);
    }
    plan.link_kill(at(&mut r), r.below(channels) as u32);
    plan.node_stall(at(&mut r), r.below(nodes) as u32, 1 + r.below(horizon / 20));
    plan.injector_down(at(&mut r), r.below(nodes) as u32, 1 + r.below(horizon / 20));
    // The golden wedges by about cycle 30; at cycle 15 router 9's two
    // outgoing channels still carry worms with movable flits.
    plan.node_stall(15, 9, 25);
    plan.validate(channels as usize, nodes as usize);
    saturated_case(g, &plan, 0xfau64 << 8, horizon);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized above-saturation points: any golden regime, any seed.
    #[test]
    fn saturation_differential_holds(seed in any::<u64>()) {
        let gs = goldens();
        let g = &gs[(seed % gs.len() as u64) as usize];
        saturated_case(g, &FaultPlan::new(), seed, 420);
    }
}
