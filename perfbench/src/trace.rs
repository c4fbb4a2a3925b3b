//! The traced replica: the runner's snapshot-mode loop rebuilt from the
//! public calls of each layer, with a timer around every call.
//!
//! Traffic generation, the engine step, snapshot capture, the wait-graph
//! rebuild, knot analysis, the cycle census and recovery follow
//! `flexsim::run` step for step (fingerprint skip and census scheduling
//! included), so the replica's counters must equal `flexsim::run`'s on
//! every config; the benchmark checks that they do.

use std::collections::HashSet;
use std::time::Instant;

use flexsim::{DetectionMode, RecoveryPolicy, RunConfig, RunResult};
use icn_cwg::{
    count_cycles, Analysis, CycleCount, DeadlockKind, DependentKind, DetectorScratch, WaitGraph,
};
use icn_sim::{Network, SnapshotArena};
use icn_topology::NodeId;
use icn_traffic::BernoulliInjector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Busy time per layer call site plus the work counts seen there, summed
/// over every config replayed.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `BernoulliInjector::fires`, `Pattern::dest`, `MsgLenDist::sample`
    /// and `Network::enqueue_with_len`.
    pub gen_s: f64,
    pub messages: u64,
    /// `Network::step`.
    pub step_s: f64,
    pub cycles: u64,
    pub link_flits: u64,
    pub delivered: u64,
    /// `Network::wait_snapshot_into`.
    pub capture_s: f64,
    pub blocked_sum: u64,
    pub blocked_epochs: u64,
    /// `WaitGraph::reset`, `add_chain`, `add_requests`.
    pub rebuild_s: f64,
    /// `WaitGraph::analyze_with`.
    pub analyze_s: f64,
    pub epochs_analyzed: u64,
    pub epochs_skipped: u64,
    pub knots: u64,
    pub knots_capped: u64,
    pub knot_size_sum: u64,
    /// `count_cycles` / `WaitGraph::count_cycles`.
    pub census_s: f64,
    pub census_epochs: u64,
    pub census_capped: u64,
    /// Victim selection, `Network::start_recovery`,
    /// `WaitGraph::remove_requests` and `knot_deadlock_sets`.
    pub recovery_s: f64,
    pub victims: u64,
    pub reanalyses: u64,
    /// Wall time of every replay, end to end.
    pub wall_s: f64,
}

impl Layers {
    /// Time inside the timed call sites.
    pub fn timed_s(&self) -> f64 {
        self.gen_s
            + self.step_s
            + self.capture_s
            + self.rebuild_s
            + self.analyze_s
            + self.census_s
            + self.recovery_s
    }
}

/// The counters of a [`RunResult`] the replica reproduces.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub generated: u64,
    pub injected: u64,
    pub delivered: u64,
    pub delivered_flits: u64,
    pub recovered: u64,
    pub link_flits: u64,
    pub deadlocks: u64,
    pub single_cycle_deadlocks: u64,
    pub multi_cycle_deadlocks: u64,
    pub victims_started: u64,
    pub dependent_committed: u64,
    pub dependent_transient: u64,
    pub counting_epochs: u64,
    pub cyclic_nondeadlock_epochs: u64,
    pub cycles_capped: bool,
}

impl Counters {
    pub fn of(r: &RunResult) -> Counters {
        Counters {
            generated: r.generated,
            injected: r.injected,
            delivered: r.delivered,
            delivered_flits: r.delivered_flits,
            recovered: r.recovered,
            link_flits: r.link_flits,
            deadlocks: r.deadlocks,
            single_cycle_deadlocks: r.single_cycle_deadlocks,
            multi_cycle_deadlocks: r.multi_cycle_deadlocks,
            victims_started: r.victims_started,
            dependent_committed: r.dependent_committed,
            dependent_transient: r.dependent_transient,
            counting_epochs: r.counting_epochs,
            cyclic_nondeadlock_epochs: r.cyclic_nondeadlock_epochs,
            cycles_capped: r.cycles_capped,
        }
    }
}

/// Seconds since `*last`, restarting the lap.
fn lap(last: &mut Instant) -> f64 {
    let now = Instant::now();
    let s = (now - *last).as_secs_f64();
    *last = now;
    s
}

/// Replays `cfg` and adds its layer times and work counts to `t`.
///
/// Covers the configs the workloads use: snapshot detection, one shard
/// and transfer thread, no faults, forensics or stall watchdog.
pub fn replay(cfg: &RunConfig, t: &mut Layers) -> Counters {
    assert!(
        cfg.detection == DetectionMode::Snapshot
            && cfg.faults.is_empty()
            && cfg.forensics.is_none()
            && cfg.stall_threshold.is_none()
            && cfg.shards == 1
            && cfg.transfer_threads == 1,
        "the replica covers plain snapshot-mode configs only"
    );
    let start = Instant::now();
    cfg.sim.validate();
    cfg.len_dist.validate();
    let topo = cfg.topology.build();
    let mut net = Network::new(topo.clone(), cfg.routing.build(), cfg.sim);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let injector = BernoulliInjector::new(
        cfg.load * topo.capacity_flits_per_node_cycle() / cfg.len_dist.mean(),
    );
    let mut c = Counters::default();
    let mut arena = SnapshotArena::new();
    let mut graph = WaitGraph::new(0);
    let mut scratch = DetectorScratch::new();
    let mut clean_fingerprint: Option<u64> = None;
    let mut epoch: u64 = 0;
    let nodes = topo.num_nodes() as u32;

    let mut last = Instant::now();
    for cycle in 0..cfg.warmup + cfg.measure {
        let measuring = cycle >= cfg.warmup;

        for node in 0..nodes {
            if injector.fires(&mut rng) {
                if let Some(dst) = cfg.pattern.dest(&topo, NodeId(node), &mut rng) {
                    let len = cfg.len_dist.sample(&mut rng);
                    net.enqueue_with_len(NodeId(node), dst, len);
                    t.messages += 1;
                    if measuring {
                        c.generated += 1;
                    }
                }
            }
        }
        t.gen_s += lap(&mut last);

        let ev = net.step();
        t.step_s += lap(&mut last);
        t.cycles += 1;
        t.link_flits += ev.link_flits as u64;
        t.delivered += ev.delivered.len() as u64;
        if measuring {
            c.injected += ev.injected as u64;
            c.link_flits += ev.link_flits as u64;
            for d in &ev.delivered {
                c.delivered += 1;
                c.delivered_flits += d.len as u64;
                c.recovered += d.recovered as u64;
            }
        }
        lap(&mut last);

        if !net.cycle().is_multiple_of(cfg.detection_interval) {
            continue;
        }
        epoch += 1;
        let census_due = cfg
            .count_cycles_every
            .is_some_and(|every| measuring && epoch.is_multiple_of(every));
        net.wait_snapshot_into(&mut arena);
        t.capture_s += lap(&mut last);
        t.blocked_sum += arena.num_blocked() as u64;
        t.blocked_epochs += 1;

        let skip = arena.num_blocked() == 0
            || (cfg.fingerprint_skip && clean_fingerprint == Some(arena.fingerprint()));
        if !skip || (census_due && arena.num_blocked() != 0) {
            lap(&mut last);
            graph.reset(arena.num_vertices());
            for m in arena.messages() {
                graph.add_chain(m.id, m.chain);
            }
            for m in arena.messages() {
                if !m.requests.is_empty() {
                    graph.add_requests(m.id, m.requests);
                }
            }
            t.rebuild_s += lap(&mut last);
        }

        let analysis = if skip {
            t.epochs_skipped += 1;
            Analysis {
                deadlocks: Vec::new(),
                dependent: Vec::new(),
                num_blocked: arena.num_blocked(),
            }
        } else {
            lap(&mut last);
            let a = graph.analyze_with(cfg.density_cap, &mut scratch);
            t.analyze_s += lap(&mut last);
            t.epochs_analyzed += 1;
            a
        };
        clean_fingerprint = (!analysis.has_deadlock()).then(|| arena.fingerprint());
        for d in &analysis.deadlocks {
            t.knots += 1;
            t.knots_capped += d.cycle_density.is_capped() as u64;
            t.knot_size_sum += d.deadlock_set.len() as u64;
        }

        lap(&mut last);
        let census = census_due.then(|| {
            if arena.num_blocked() == 0 {
                CycleCount::Exact(0)
            } else if skip {
                graph.count_cycles(cfg.cycle_cap)
            } else {
                count_cycles(scratch.csr(), cfg.cycle_cap)
            }
        });
        t.census_s += lap(&mut last);
        if let Some(count) = census {
            t.census_epochs += 1;
            t.census_capped += count.is_capped() as u64;
        }

        if cfg.recovery != RecoveryPolicy::None && analysis.has_deadlock() {
            let mut victims: HashSet<u64> = HashSet::new();
            let mut sets: Vec<Vec<u64>> = analysis
                .deadlocks
                .iter()
                .map(|d| d.deadlock_set.clone())
                .collect();
            for _round in 0..64 {
                let mut progressed = false;
                for dset in &sets {
                    let candidates = dset.iter().filter(|m| !victims.contains(m));
                    let victim = match cfg.recovery {
                        RecoveryPolicy::RemoveOldest => candidates.min().copied(),
                        RecoveryPolicy::RemoveYoungest => candidates.max().copied(),
                        RecoveryPolicy::None => unreachable!(),
                    };
                    if let Some(v) = victim {
                        victims.insert(v);
                        graph.remove_requests(v);
                        let started = net.start_recovery(v);
                        debug_assert!(started, "victim must be an active routing message");
                        t.victims += 1;
                        c.victims_started += measuring as u64;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
                sets = graph.knot_deadlock_sets(&mut scratch);
                t.reanalyses += 1;
                if sets.is_empty() {
                    break;
                }
            }
        }
        t.recovery_s += lap(&mut last);

        if measuring {
            for d in &analysis.deadlocks {
                c.deadlocks += 1;
                match d.kind() {
                    DeadlockKind::SingleCycle => c.single_cycle_deadlocks += 1,
                    DeadlockKind::MultiCycle => c.multi_cycle_deadlocks += 1,
                }
                c.cycles_capped |= d.cycle_density.is_capped();
            }
            for &(_, kind) in &analysis.dependent {
                match kind {
                    DependentKind::Committed => c.dependent_committed += 1,
                    DependentKind::Transient => c.dependent_transient += 1,
                }
            }
        }
        if let Some(count) = census {
            c.cycles_capped |= count.is_capped();
            c.counting_epochs += 1;
            if count.value() > 0 && analysis.deadlocks.is_empty() {
                c.cyclic_nondeadlock_epochs += 1;
            }
        }
        lap(&mut last);
    }
    t.wall_s += start.elapsed().as_secs_f64();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim::{RoutingSpec, TopologySpec};

    fn small(routing: RoutingSpec, vcs: usize, load: f64, bidirectional: bool) -> RunConfig {
        let mut c = RunConfig::small_default();
        c.topology = TopologySpec::torus(8, 2, bidirectional);
        c.routing = routing;
        c.sim.vcs_per_channel = vcs;
        c.load = load;
        c.warmup = 300;
        c.measure = 1_200;
        c.count_cycles_every = Some(3);
        c
    }

    /// Counter for counter equal to `flexsim::run`, on a knot-heavy DOR
    /// point (recovery re-analysis), a TFAR point with census and capped
    /// densities, and a deadlock-free one (fingerprint skips).
    #[test]
    fn replica_matches_flexsim_run() {
        let mut capped = small(RoutingSpec::Tfar, 1, 1.0, true);
        capped.density_cap = 3;
        for cfg in [
            small(RoutingSpec::Dor, 1, 1.0, false),
            capped,
            small(RoutingSpec::Tfar, 2, 0.3, true),
        ] {
            let mut t = Layers::default();
            let got = replay(&cfg, &mut t);
            let want = Counters::of(&flexsim::run(&cfg));
            assert_eq!(got, want, "{}", cfg.label());
            assert!(t.timed_s() <= t.wall_s);
            assert_eq!(t.cycles, cfg.warmup + cfg.measure);
        }
    }
}
