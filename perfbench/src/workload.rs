//! The four workloads and the inputs each one generates from its seed.
//!
//! Every workload is a list of [`SweepGrid`]s (a base config crossed with
//! a load axis and a seed axis). The sim workloads hand the expanded
//! configs to the sweep; `campaign` submits its grid to a campaign
//! server. Config seeds are derived from the workload seed and an input
//! set number, so the same seed always gives the same inputs.

use flexsim::{RoutingSpec, RunConfig, TopologySpec};
use icn_server::SweepGrid;

use crate::stats::mix;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 6's TFAR curve: a few large knots whose density enumeration
    /// (often at `density_cap`) and cycle census dominate.
    TfarKnots,
    /// Figure 5's DOR curves: thousands of small single-cycle knots, so
    /// per-knot analysis overhead and recovery re-analysis dominate.
    DorKnots,
    /// Figure 7's deadlock-free corner: TFAR with 2 and 3 VCs, where the
    /// flit stepper dominates and analysis is a few percent.
    VcEngine,
    /// An in-process campaign server: a 256-config grid of tiny configs
    /// run fresh, then resubmitted after a restart and served from cache.
    Campaign,
}

pub const ALL: [Workload; 4] = [
    Workload::TfarKnots,
    Workload::DorKnots,
    Workload::VcEngine,
    Workload::Campaign,
];

/// Seed at which each workload's results digest is pinned in
/// `expected_digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TfarKnots => "tfar_knots",
            Workload::DorKnots => "dor_knots",
            Workload::VcEngine => "vc_engine",
            Workload::Campaign => "campaign",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// The grids of input set `set` under workload seed `seed`.
    pub fn grids(self, seed: u64, set: u64) -> Vec<SweepGrid> {
        let salt = self as u64 + 1;
        let seeds = |n: u64| -> Vec<u64> {
            (0..n)
                .map(|j| mix(mix(mix(seed) ^ salt) ^ (set << 16 | j)))
                .collect()
        };
        let paper = |routing: RoutingSpec, vcs: usize, warmup: u64, measure: u64| {
            let mut c = RunConfig::paper_default();
            c.routing = routing;
            c.sim.vcs_per_channel = vcs;
            c.warmup = warmup;
            c.measure = measure;
            c
        };
        let grid = |base: RunConfig, loads: &[f64], seeds: Vec<u64>| SweepGrid {
            base,
            seeds,
            loads: loads.to_vec(),
            timeout_ms: None,
        };
        match self {
            Workload::TfarKnots => {
                let mut base = paper(RoutingSpec::Tfar, 1, 1_500, 1_000);
                base.count_cycles_every = Some(5);
                vec![grid(base, &[0.3, 0.4, 0.6, 0.8, 1.0, 1.2], seeds(2))]
            }
            Workload::DorKnots => [false, true]
                .into_iter()
                .map(|bidirectional| {
                    let mut base = paper(RoutingSpec::Dor, 1, 500, 4_500);
                    base.topology = TopologySpec::torus(16, 2, bidirectional);
                    grid(base, &[0.3, 0.6, 1.0, 1.2], seeds(2))
                })
                .collect(),
            Workload::VcEngine => [2, 3]
                .into_iter()
                .map(|vcs| {
                    let mut base = paper(RoutingSpec::Tfar, vcs, 500, 4_500);
                    base.count_cycles_every = Some(10);
                    grid(base, &[0.3, 0.6, 1.0], seeds(2))
                })
                .collect(),
            Workload::Campaign => {
                let mut base = paper(RoutingSpec::Tfar, 2, 100, 400);
                base.topology = TopologySpec::torus(4, 2, true);
                let loads: Vec<f64> = (1..=64).map(|i| i as f64 * 0.025).collect();
                vec![grid(base, &loads, seeds(4))]
            }
        }
    }

    /// The configs of input set `set`, in grid order.
    pub fn configs(self, seed: u64, set: u64) -> Vec<RunConfig> {
        self.grids(seed, set)
            .iter()
            .flat_map(SweepGrid::expand)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        for w in ALL {
            assert_eq!(w.configs(7, 0), w.configs(7, 0), "{}", w.name());
            assert_ne!(w.configs(7, 0), w.configs(8, 0), "{}", w.name());
            assert_ne!(w.configs(7, 0), w.configs(7, 1), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::Campaign.configs(1, 0).len(), 256);
    }
}
