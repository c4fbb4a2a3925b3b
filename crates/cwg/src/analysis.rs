//! Knot detection and deadlock classification.

use crate::adjacency::{Adjacency, Csr};
use crate::cycles::{CycleCount, CycleScratch};
use crate::graph::{MessageId, VertexId, WaitGraph};
use crate::scc::SccScratch;
use std::collections::HashSet;

/// Deadlock taxonomy of §2.2: a knot containing exactly one elementary
/// cycle is a *single-cycle deadlock*; more are *multi-cycle*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlockKind {
    SingleCycle,
    MultiCycle,
}

/// Classification of blocked-but-not-deadlocked messages waiting on
/// deadlocked resources (§2.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DependentKind {
    /// Every requested VC leads into a knot: the message cannot proceed
    /// until recovery resolves the deadlock.
    Committed,
    /// At least one requested VC does not lead into a knot — the message
    /// may proceed through an alternative resource.
    Transient,
}

/// One true deadlock: a knot of the CWG with its derived descriptors.
#[derive(Clone, Debug)]
pub struct Deadlock {
    /// The knot vertices (every vertex reaches exactly this set).
    pub knot: Vec<VertexId>,
    /// Messages owning at least one knot vertex. Removing any one of these
    /// (the recovery victim) breaks the knot; removing a merely *dependent*
    /// message would not.
    pub deadlock_set: Vec<MessageId>,
    /// Every VC owned by a deadlock-set message (the paper's "resource
    /// set", e.g. 8 channels for the 4-message knot of Figure 2).
    pub resource_set: Vec<VertexId>,
    /// Number of elementary cycles inside the knot.
    pub cycle_density: CycleCount,
}

impl Deadlock {
    /// Single- vs multi-cycle classification.
    pub fn kind(&self) -> DeadlockKind {
        if self.cycle_density.value() <= 1 && !self.cycle_density.is_capped() {
            DeadlockKind::SingleCycle
        } else {
            DeadlockKind::MultiCycle
        }
    }
}

/// Full analysis of one CWG snapshot.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Every knot in the snapshot (usually zero or one; independent knots
    /// can coexist in disconnected regions).
    pub deadlocks: Vec<Deadlock>,
    /// Blocked messages outside every deadlock set that wait (directly or
    /// transitively) on deadlocked resources.
    pub dependent: Vec<(MessageId, DependentKind)>,
    /// Number of blocked messages in the snapshot.
    pub num_blocked: usize,
}

impl Analysis {
    /// True when at least one knot (true deadlock) exists.
    pub fn has_deadlock(&self) -> bool {
        !self.deadlocks.is_empty()
    }
}

/// Reusable working storage for the per-epoch detection pass.
///
/// Holds the epoch's CSR adjacency (built once from the [`WaitGraph`] and
/// shared by knot analysis, cycle counting, and the recovery loop's
/// re-analyses) plus Tarjan scratch, the terminal-component marks and the
/// cycle counter's scratch. On a knot-free epoch
/// [`WaitGraph::analyze_with`] performs no heap allocation once capacities
/// have warmed up, and neither does counting cycles.
#[derive(Clone, Debug, Default)]
pub struct DetectorScratch {
    csr: Csr,
    scc: SccScratch,
    terminal: Vec<bool>,
    cycles: CycleScratch,
}

impl DetectorScratch {
    /// Empty scratch; capacities grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The CSR adjacency of the most recently analyzed graph (valid until
    /// that graph is mutated or another graph is analyzed). Lets callers
    /// run [`count_cycles`](crate::count_cycles) on the epoch's adjacency
    /// without a rebuild.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Counts the elementary cycles of the most recently analyzed graph
    /// (the cyclic non-deadlock census), capped at `cap`. Reuses that
    /// analysis's CSR and SCC decomposition and the held cycle scratch.
    pub fn count_cycles(&mut self, cap: u64) -> CycleCount {
        self.cycles
            .count_components(&self.csr, self.scc.components(), cap)
    }

    /// Rebuilds the CSR from `g`, decomposes it, and marks which components
    /// are terminal (no leaving arc). Returns the component count.
    fn decompose(&mut self, g: &WaitGraph) -> usize {
        g.build_csr(&mut self.csr);
        self.scc.run(&self.csr);
        let nc = self.scc.num_components();
        self.terminal.clear();
        self.terminal.resize(nc, true);
        for v in 0..self.csr.num_vertices() as u32 {
            let cv = self.scc.comp_of(v);
            for &w in self.csr.neighbors(v) {
                if self.scc.comp_of(w) != cv {
                    self.terminal[cv as usize] = false;
                }
            }
        }
        nc
    }

    /// Whether component `ci` is a knot: terminal and non-trivial (more
    /// than one vertex, or a single vertex with a self-loop).
    fn is_knot(&self, ci: usize) -> bool {
        if !self.terminal[ci] {
            return false;
        }
        let comp = self.scc.component(ci as u32);
        comp.len() >= 2 || self.csr.neighbors(comp[0]).contains(&comp[0])
    }
}

impl WaitGraph {
    /// Detects every knot and classifies the snapshot.
    ///
    /// Convenience wrapper over [`analyze_with`](Self::analyze_with) that
    /// allocates fresh scratch; the detection loop holds a
    /// [`DetectorScratch`] across epochs instead.
    pub fn analyze(&self, density_cap: u64) -> Analysis {
        let mut scratch = DetectorScratch::new();
        self.analyze_with(density_cap, &mut scratch)
    }

    /// Detects every knot and classifies the snapshot, reusing `scratch`.
    ///
    /// A knot is a **non-trivial terminal SCC**: strongly connected (so every
    /// vertex reaches every other), with no arc leaving the component (so
    /// the reachable set of each member is exactly the component). This is
    /// the necessary-and-sufficient deadlock condition of \[6\] given a
    /// connected routing function.
    ///
    /// `density_cap` bounds the per-knot elementary-cycle enumeration.
    pub fn analyze_with(&self, density_cap: u64, scratch: &mut DetectorScratch) -> Analysis {
        let nc = scratch.decompose(self);

        let mut deadlocks = Vec::new();
        let mut deadlocked_msgs: HashSet<MessageId> = HashSet::new();
        let mut knot_vertices: Vec<VertexId> = Vec::new();
        for ci in 0..nc {
            if !scratch.is_knot(ci) {
                continue;
            }
            let mut knot = scratch.scc.component(ci as u32).to_vec();
            knot.sort_unstable();
            knot_vertices.extend_from_slice(&knot);

            let mut dset: Vec<MessageId> = knot.iter().filter_map(|&v| self.owner(v)).collect();
            dset.sort_unstable();
            dset.dedup();
            deadlocked_msgs.extend(dset.iter().copied());

            let mut rset: Vec<VertexId> = dset
                .iter()
                .flat_map(|m| self.chain(*m).unwrap_or(&[]).iter().copied())
                .collect();
            rset.sort_unstable();
            rset.dedup();

            // A knot is terminal, so every arc out of it stays inside: count
            // straight from the epoch CSR.
            let cycle_density = scratch
                .cycles
                .count_component(&scratch.csr, &knot, density_cap);

            deadlocks.push(Deadlock {
                knot,
                deadlock_set: dset,
                resource_set: rset,
                cycle_density,
            });
        }

        // Dependent census — only meaningful (and only paid for) when a
        // knot exists: reverse reachability from knot vertices tells which
        // blocked messages wait into a deadlock.
        let mut dependent = Vec::new();
        if !deadlocks.is_empty() {
            let n = scratch.csr.num_vertices();
            let mut radj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
            for v in 0..n as u32 {
                for &w in scratch.csr.neighbors(v) {
                    radj[w as usize].push(v);
                }
            }
            let mut reaches_knot = vec![false; n];
            let mut stack: Vec<VertexId> = knot_vertices.clone();
            for &v in &knot_vertices {
                reaches_knot[v as usize] = true;
            }
            while let Some(v) = stack.pop() {
                for &p in &radj[v as usize] {
                    if !reaches_knot[p as usize] {
                        reaches_knot[p as usize] = true;
                        stack.push(p);
                    }
                }
            }

            for msg in self.blocked_messages() {
                if deadlocked_msgs.contains(&msg) {
                    continue;
                }
                let reqs = self.requests_of(msg).unwrap();
                let hits = reqs.iter().filter(|&&t| reaches_knot[t as usize]).count();
                if hits == 0 {
                    continue;
                }
                let kind = if hits == reqs.len() {
                    DependentKind::Committed
                } else {
                    DependentKind::Transient
                };
                dependent.push((msg, kind));
            }
            dependent.sort_unstable_by_key(|&(m, _)| m);
        }

        Analysis {
            deadlocks,
            dependent,
            num_blocked: self.num_blocked(),
        }
    }

    /// The deadlock set of every knot, in component-emission order — the
    /// slimmed re-analysis the recovery loop runs after dropping victims'
    /// requests in place (it only needs new victims, not knot descriptors
    /// or the dependent census).
    pub fn knot_deadlock_sets(&self, scratch: &mut DetectorScratch) -> Vec<Vec<MessageId>> {
        let nc = scratch.decompose(self);
        let mut sets = Vec::new();
        for ci in 0..nc {
            if !scratch.is_knot(ci) {
                continue;
            }
            let mut dset: Vec<MessageId> = scratch
                .scc
                .component(ci as u32)
                .iter()
                .filter_map(|&v| self.owner(v))
                .collect();
            dset.sort_unstable();
            dset.dedup();
            sets.push(dset);
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three messages in a ring, single VC per hop: the Figure 1 shape.
    fn figure1_like() -> WaitGraph {
        let mut g = WaitGraph::new(10);
        // m1 owns 1,2 and wants 3; m2 owns 3,4,5 and wants 6;
        // m3 owns 6,7,0 and wants 1. m4/m5 own 8,9 and are moving.
        g.add_chain(1, &[1, 2]);
        g.add_chain(2, &[3, 4, 5]);
        g.add_chain(3, &[6, 7, 0]);
        g.add_chain(4, &[8]);
        g.add_chain(5, &[9]);
        g.add_requests(1, &[3]);
        g.add_requests(2, &[6]);
        g.add_requests(3, &[1]);
        g
    }

    #[test]
    fn figure1_single_cycle_deadlock() {
        let a = figure1_like().analyze(1000);
        assert!(a.has_deadlock());
        assert_eq!(a.deadlocks.len(), 1);
        let d = &a.deadlocks[0];
        assert_eq!(d.knot, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(d.deadlock_set, vec![1, 2, 3]);
        assert_eq!(d.resource_set, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(d.cycle_density, CycleCount::Exact(1));
        assert_eq!(d.kind(), DeadlockKind::SingleCycle);
        assert!(a.dependent.is_empty());
        assert_eq!(a.num_blocked, 3);
    }

    #[test]
    fn escape_resource_prevents_deadlock() {
        // Same ring, but m3 additionally waits for free vertex 8's twin 9?
        // No: give m3 an alternative request to an *unowned* vertex — the
        // knot condition fails (Figure 4's escape channel).
        let mut g = WaitGraph::new(10);
        g.add_chain(1, &[1, 2]);
        g.add_chain(2, &[3, 4, 5]);
        g.add_chain(3, &[6, 7, 0]);
        g.add_requests(1, &[3]);
        g.add_requests(2, &[6]);
        g.add_requests(3, &[1, 9]); // 9 is free: an escape
        let a = g.analyze(1000);
        assert!(!a.has_deadlock());
    }

    #[test]
    fn waiting_on_moving_message_is_not_deadlock() {
        let mut g = WaitGraph::new(4);
        g.add_chain(1, &[0, 1]); // moving: no requests
        g.add_chain(2, &[2, 3]);
        g.add_requests(2, &[0]); // waits on m1's tail VC
        let a = g.analyze(1000);
        assert!(!a.has_deadlock());
        assert_eq!(a.num_blocked, 1);
    }

    #[test]
    fn dependent_message_classified() {
        // Figure 2's m5: blocked behind the knot without owning knot
        // vertices, every request leading into the deadlock => committed.
        let mut g = WaitGraph::new(12);
        g.add_chain(1, &[1, 2]);
        g.add_chain(2, &[3, 4, 5]);
        g.add_chain(3, &[6, 7, 0]);
        g.add_requests(1, &[3]);
        g.add_requests(2, &[6]);
        g.add_requests(3, &[1]);
        g.add_chain(6, &[10, 11]);
        g.add_requests(6, &[4]);
        let a = g.analyze(1000);
        assert_eq!(a.deadlocks.len(), 1);
        assert_eq!(a.deadlocks[0].deadlock_set, vec![1, 2, 3]);
        assert_eq!(a.dependent, vec![(6, DependentKind::Committed)]);
    }

    #[test]
    fn transient_dependent_message() {
        let mut g = WaitGraph::new(14);
        g.add_chain(1, &[1, 2]);
        g.add_chain(2, &[3, 4, 5]);
        g.add_chain(3, &[6, 7, 0]);
        g.add_requests(1, &[3]);
        g.add_requests(2, &[6]);
        g.add_requests(3, &[1]);
        // m6 waits on knot vertex 4 AND free vertex 13 -> transient.
        g.add_chain(6, &[10, 11]);
        g.add_requests(6, &[4, 13]);
        let a = g.analyze(1000);
        assert_eq!(a.dependent, vec![(6, DependentKind::Transient)]);
    }

    #[test]
    fn multi_cycle_deadlock_detected() {
        // Figure 3 shape: 4 blocked messages, 2 VCs per channel; each waits
        // for both VCs of the next channel around a square, all owned.
        // Vertices: channel i has VCs 2i (tail-owned by m_i) and 2i+1... use
        // a direct construction: m_i owns {a_i, b_i}; waits for {a_{i+1}, b_{i+1}}.
        // To be a knot every vertex must be reachable: chain a->b then b
        // requests next a and b.
        let mut g = WaitGraph::new(8);
        for i in 0..4u64 {
            let a = (2 * i) as u32;
            let b = a + 1;
            g.add_chain(i + 1, &[a, b]);
        }
        for i in 0..4u64 {
            let na = (2 * ((i + 1) % 4)) as u32;
            g.add_requests(i + 1, &[na, na + 1]);
        }
        let a = g.analyze(1000);
        assert_eq!(a.deadlocks.len(), 1);
        let d = &a.deadlocks[0];
        assert_eq!(d.deadlock_set.len(), 4);
        assert_eq!(d.resource_set.len(), 8);
        assert!(d.cycle_density.value() > 1);
        assert_eq!(d.kind(), DeadlockKind::MultiCycle);
    }

    #[test]
    fn two_independent_knots() {
        let mut g = WaitGraph::new(8);
        // knot A: m1<->m2
        g.add_chain(1, &[0, 1]);
        g.add_chain(2, &[2, 3]);
        g.add_requests(1, &[2]);
        g.add_requests(2, &[0]);
        // knot B: m3<->m4
        g.add_chain(3, &[4, 5]);
        g.add_chain(4, &[6, 7]);
        g.add_requests(3, &[6]);
        g.add_requests(4, &[4]);
        let a = g.analyze(1000);
        assert_eq!(a.deadlocks.len(), 2);
        let sets: Vec<_> = a.deadlocks.iter().map(|d| d.deadlock_set.clone()).collect();
        assert!(sets.contains(&vec![1, 2]));
        assert!(sets.contains(&vec![3, 4]));
    }

    #[test]
    fn empty_graph_is_clean() {
        let g = WaitGraph::new(16);
        let a = g.analyze(10);
        assert!(!a.has_deadlock());
        assert_eq!(a.num_blocked, 0);
        assert!(a.dependent.is_empty());
    }

    #[test]
    fn minimal_uni_torus_two_message_deadlock() {
        // The paper notes a uni-torus needs only 2 messages for deadlock.
        let mut g = WaitGraph::new(4);
        g.add_chain(1, &[0, 1]);
        g.add_chain(2, &[2, 3]);
        g.add_requests(1, &[2]);
        g.add_requests(2, &[0]);
        let a = g.analyze(10);
        assert_eq!(a.deadlocks.len(), 1);
        assert_eq!(a.deadlocks[0].deadlock_set, vec![1, 2]);
    }

    #[test]
    fn scratch_reuse_across_epochs_matches_fresh() {
        let mut scratch = DetectorScratch::new();
        // Epoch 1: deadlocked graph.
        let g1 = figure1_like();
        let a1 = g1.analyze_with(1000, &mut scratch);
        let f1 = g1.analyze(1000);
        assert_eq!(a1.deadlocks.len(), f1.deadlocks.len());
        assert_eq!(a1.deadlocks[0].deadlock_set, f1.deadlocks[0].deadlock_set);
        assert_eq!(a1.deadlocks[0].knot, f1.deadlocks[0].knot);
        // Epoch 2 reuses the same scratch on a clean, differently-sized graph.
        let mut g2 = WaitGraph::new(4);
        g2.add_chain(1, &[0, 1]);
        let a2 = g2.analyze_with(1000, &mut scratch);
        assert!(!a2.has_deadlock());
        assert!(a2.dependent.is_empty());
    }

    #[test]
    fn in_place_victim_removal_matches_rebuild() {
        // Drop one victim's requests in place; the slim re-analysis must
        // agree with a full fresh analysis of the mutated graph.
        let mut scratch = DetectorScratch::new();
        let mut g = figure1_like();
        let a = g.analyze_with(1000, &mut scratch);
        let victim = a.deadlocks[0].deadlock_set[0];
        assert!(g.remove_requests(victim));
        let sets = g.knot_deadlock_sets(&mut scratch);
        assert!(sets.is_empty(), "one victim breaks the single knot");
        assert!(!g.analyze(1000).has_deadlock());
    }

    #[test]
    fn knot_deadlock_sets_reports_residual_knots() {
        let mut scratch = DetectorScratch::new();
        // Two independent knots; removing a victim from one leaves the other.
        let mut g = WaitGraph::new(8);
        g.add_chain(1, &[0, 1]);
        g.add_chain(2, &[2, 3]);
        g.add_requests(1, &[2]);
        g.add_requests(2, &[0]);
        g.add_chain(3, &[4, 5]);
        g.add_chain(4, &[6, 7]);
        g.add_requests(3, &[6]);
        g.add_requests(4, &[4]);
        g.remove_requests(1);
        let sets = g.knot_deadlock_sets(&mut scratch);
        assert_eq!(sets, vec![vec![3, 4]]);
    }
}
