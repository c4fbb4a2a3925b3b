//! Capped elementary-cycle counting (Johnson's algorithm).

use crate::adjacency::Adjacency;
use crate::scc::SccScratch;
use crate::VertexId;

/// A possibly-capped cycle count.
///
/// Deep in saturation the paper observes "hundreds of thousands" of resource
/// dependency cycles; enumeration is exponential in the worst case, so the
/// counter saturates at a configurable cap and reports that it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleCount {
    /// The exact number of elementary cycles.
    Exact(u64),
    /// At least this many cycles exist (enumeration stopped at the cap).
    AtLeast(u64),
}

impl CycleCount {
    /// The counted value (a lower bound when capped).
    pub fn value(self) -> u64 {
        match self {
            CycleCount::Exact(v) | CycleCount::AtLeast(v) => v,
        }
    }

    /// Whether enumeration hit the cap.
    pub fn is_capped(self) -> bool {
        matches!(self, CycleCount::AtLeast(_))
    }

    /// Saturating combination of counts over disjoint subgraphs.
    pub fn combine(self, other: CycleCount) -> CycleCount {
        let v = self.value() + other.value();
        if self.is_capped() || other.is_capped() {
            CycleCount::AtLeast(v)
        } else {
            CycleCount::Exact(v)
        }
    }
}

impl std::fmt::Display for CycleCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleCount::Exact(v) => write!(f, "{v}"),
            CycleCount::AtLeast(v) => write!(f, ">={v}"),
        }
    }
}

/// Counts elementary cycles of `adj`, stopping once `cap` have been found.
///
/// Cycles never span strongly connected components, so Johnson's algorithm
/// runs inside each non-trivial component only. Allocates fresh scratch;
/// the detection loop counts through its
/// [`DetectorScratch`](crate::DetectorScratch) instead.
pub fn count_cycles<A: Adjacency + ?Sized>(adj: &A, cap: u64) -> CycleCount {
    let mut comps = SccScratch::new();
    comps.run(adj);
    CycleScratch::new().count_components(adj, comps.components(), cap)
}

/// End-of-list marker for the B-lists.
const NIL: u32 = u32::MAX;

/// Reusable state for capped Johnson counting, one strongly connected
/// component at a time. Memory is O(V + E), and once capacities have
/// warmed up counting performs no heap allocation.
///
/// The component is copied into a local CSR with rows sorted ascending.
/// Starts run in ascending local order and start `s` walks only vertices
/// `>= s` (each row's suffix from `partition_point(< s)`), with no
/// per-start SCC: a vertex that cannot reach `s` is explored once and
/// stays blocked, since anything reaching an unblocked vertex reaches `s`.
/// B-set membership is one bit per arc: arc `v -> w` set means `v` is in
/// `B(w)`, and the B-lists are threaded through the same arcs.
#[derive(Clone, Debug, Default)]
pub struct CycleScratch {
    /// Global vertex -> local index, trusted only where `comp[i] == v`.
    index_of: Vec<u32>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    blocked: Vec<bool>,
    /// Start (plus one) that last visited each vertex.
    visited_by: Vec<u32>,
    /// Vertices the current start visited; reset before the next start.
    touched: Vec<u32>,
    /// First arc on each vertex's B-list, or [`NIL`].
    b_head: Vec<u32>,
    /// Per listed arc `v -> w`: `(v, next arc on w's list)`.
    b_link: Vec<(u32, u32)>,
    b_bits: Vec<u64>,
    /// CIRCUIT frames: (vertex, next arc, found a cycle).
    frames: Vec<(u32, u32, bool)>,
    cascade: Vec<u32>,
}

impl CycleScratch {
    /// Empty scratch; capacities grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sums the counts of `comps` (the strongly connected components of
    /// `adj`), skipping trivial ones and stopping at `cap`.
    pub(crate) fn count_components<'c, A: Adjacency + ?Sized>(
        &mut self,
        adj: &A,
        comps: impl Iterator<Item = &'c [VertexId]>,
        cap: u64,
    ) -> CycleCount {
        let mut total = CycleCount::Exact(0);
        for comp in comps {
            if comp.len() < 2 && !adj.neighbors(comp[0]).contains(&comp[0]) {
                continue;
            }
            let remaining = cap.saturating_sub(total.value());
            if remaining == 0 {
                return CycleCount::AtLeast(total.value());
            }
            total = total.combine(self.count_component(adj, comp, remaining));
        }
        total
    }

    /// Counts the elementary cycles inside `comp`, a non-trivial strongly
    /// connected component of `adj` such as a knot, in any vertex order.
    /// Arcs leaving `comp` are ignored; parallel arcs are distinct cycles.
    /// Returns `Exact(n)` for `n < cap` cycles, else `AtLeast(cap)`.
    pub fn count_component<A: Adjacency + ?Sized>(
        &mut self,
        adj: &A,
        comp: &[VertexId],
        cap: u64,
    ) -> CycleCount {
        if cap == 0 {
            return CycleCount::AtLeast(0);
        }
        if self.index_of.len() < adj.num_vertices() {
            self.index_of.resize(adj.num_vertices(), 0);
        }
        for (i, &v) in comp.iter().enumerate() {
            self.index_of[v as usize] = i as u32;
        }
        self.offsets.clear();
        self.offsets.push(0);
        self.targets.clear();
        for &v in comp {
            let row = self.targets.len();
            for &t in adj.neighbors(v) {
                let i = self.index_of[t as usize];
                if comp.get(i as usize) == Some(&t) {
                    self.targets.push(i);
                }
            }
            self.targets[row..].sort_unstable();
            self.offsets.push(self.targets.len() as u32);
        }
        // Strongly connected with |E| = |V|: every out-degree is 1, so one cycle.
        let n = if self.targets.len() == comp.len() {
            1
        } else {
            self.johnson(cap)
        };
        if n >= cap {
            CycleCount::AtLeast(cap)
        } else {
            CycleCount::Exact(n)
        }
    }

    /// First arc of `v`'s row whose target is `>= s`.
    fn suffix(&self, v: u32, s: u32) -> u32 {
        let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        lo + self.targets[lo as usize..hi as usize].partition_point(|&t| t < s) as u32
    }

    /// Blocks `v` and pushes its frame, noting the start's first visit.
    fn enter(&mut self, v: u32, s: u32) {
        self.blocked[v as usize] = true;
        if self.visited_by[v as usize] != s + 1 {
            self.visited_by[v as usize] = s + 1;
            self.touched.push(v);
        }
        self.frames.push((v, self.suffix(v, s), false));
    }

    /// Johnson's algorithm over the loaded component; returns the number of
    /// cycles found, stopping as soon as it reaches `cap`.
    fn johnson(&mut self, cap: u64) -> u64 {
        let (m, e) = (self.offsets.len() - 1, self.targets.len());
        self.blocked.clear();
        self.blocked.resize(m, false);
        self.visited_by.clear();
        self.visited_by.resize(m, 0);
        self.b_head.clear();
        self.b_head.resize(m, NIL);
        self.b_link.resize(e, (NIL, NIL));
        self.b_bits.clear();
        self.b_bits.resize(e.div_ceil(64), 0);
        self.touched.clear();
        self.frames.clear();

        let mut count = 0u64;
        for s in 0..m as u32 {
            for &v in &self.touched {
                self.blocked[v as usize] = false;
                self.b_head[v as usize] = NIL;
                for a in self.offsets[v as usize]..self.offsets[v as usize + 1] {
                    self.b_bits[a as usize / 64] &= !(1 << (a % 64));
                }
            }
            self.touched.clear();
            self.enter(s, s);
            while let Some(&mut (v, ref mut arc, ref mut found)) = self.frames.last_mut() {
                let end = self.offsets[v as usize + 1];
                let mut next = None;
                while *arc < end {
                    let w = self.targets[*arc as usize];
                    *arc += 1;
                    if w == s {
                        count += 1;
                        *found = true;
                        if count >= cap {
                            return count;
                        }
                    } else if !self.blocked[w as usize] {
                        next = Some(w);
                        break;
                    }
                }
                if let Some(w) = next {
                    self.enter(w, s);
                    continue;
                }
                let (v, _, found) = self.frames.pop().expect("loop runs on a frame");
                if found {
                    self.unblock(v);
                } else {
                    for a in self.suffix(v, s)..end {
                        let (word, bit) = (a as usize / 64, 1u64 << (a % 64));
                        if self.b_bits[word] & bit == 0 {
                            self.b_bits[word] |= bit;
                            let w = self.targets[a as usize] as usize;
                            self.b_link[a as usize] = (v, self.b_head[w]);
                            self.b_head[w] = a;
                        }
                    }
                }
                if let Some(parent) = self.frames.last_mut() {
                    parent.2 |= found;
                }
            }
        }
        count
    }

    /// Johnson's UNBLOCK, as an iterative cascade over the B-lists.
    fn unblock(&mut self, v: u32) {
        self.cascade.clear();
        self.cascade.push(v);
        while let Some(u) = self.cascade.pop() {
            if !std::mem::replace(&mut self.blocked[u as usize], false) {
                continue;
            }
            let mut a = std::mem::replace(&mut self.b_head[u as usize], NIL);
            while a != NIL {
                self.b_bits[a as usize / 64] &= !(1 << (a % 64));
                let (src, next) = self.b_link[a as usize];
                self.cascade.push(src);
                a = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_acyclic() {
        let empty: &[Vec<u32>] = &[];
        assert_eq!(count_cycles(empty, 100), CycleCount::Exact(0));
        let chain = vec![vec![1], vec![2], vec![]];
        assert_eq!(count_cycles(&chain, 100), CycleCount::Exact(0));
    }

    #[test]
    fn single_cycle() {
        let ring: Vec<Vec<u32>> = (0..5u32).map(|v| vec![(v + 1) % 5]).collect();
        assert_eq!(count_cycles(&ring, 100), CycleCount::Exact(1));
    }

    #[test]
    fn self_loop_counts() {
        let adj = vec![vec![0u32]];
        assert_eq!(count_cycles(&adj, 100), CycleCount::Exact(1));
    }

    #[test]
    fn two_disjoint_cycles() {
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        assert_eq!(count_cycles(&adj, 100), CycleCount::Exact(2));
    }

    #[test]
    fn complete_digraph_k3() {
        // K3 with all arcs: cycles = three 2-cycles + two 3-cycles = 5.
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        assert_eq!(count_cycles(&adj, 100), CycleCount::Exact(5));
    }

    #[test]
    fn complete_digraph_k4() {
        // K4: 6 two-cycles + 8 three-cycles + 6 four-cycles = 20.
        let adj: Vec<Vec<u32>> = (0..4u32)
            .map(|v| (0..4u32).filter(|&w| w != v).collect())
            .collect();
        assert_eq!(count_cycles(&adj, 1000), CycleCount::Exact(20));
    }

    #[test]
    fn cap_reported() {
        let adj: Vec<Vec<u32>> = (0..4u32)
            .map(|v| (0..4u32).filter(|&w| w != v).collect())
            .collect();
        let c = count_cycles(&adj, 7);
        assert!(c.is_capped());
        assert_eq!(c.value(), 7);
        // Reaching the cap exactly still reports it as capped.
        assert_eq!(count_cycles(&adj, 20), CycleCount::AtLeast(20));
        assert_eq!(count_cycles(&adj, 0), CycleCount::AtLeast(0));
        let chain = vec![vec![1], vec![2], vec![]];
        assert_eq!(count_cycles(&chain, 0), CycleCount::Exact(0));
        // The knot entry point, vertices in any order.
        let knot = |cap| CycleScratch::new().count_component(&adj, &[2, 0, 3, 1], cap);
        assert_eq!(knot(20), CycleCount::AtLeast(20));
        assert_eq!(knot(0), CycleCount::AtLeast(0));
    }

    #[test]
    fn figure_three_knot_density() {
        // Figure 3b's knot: 8 vertices {1,3,5,7,9,11,13,15} remapped to 0..8,
        // each blocked message waits for two VCs owned by neighbours around
        // the square. Construct the same shape: v -> v+1 and v -> v+3 mod 8
        // is a stand-in with multiple overlapping cycles; just verify the
        // counter sees more than one cycle in a multi-cycle knot.
        let adj: Vec<Vec<u32>> = (0..8u32).map(|v| vec![(v + 1) % 8, (v + 3) % 8]).collect();
        let c = count_cycles(&adj, 10_000);
        assert!(!c.is_capped());
        assert!(c.value() > 1);
    }

    #[test]
    fn cycles_across_bridge_not_double_counted() {
        // 0<->1 -> 2<->3: exactly two 2-cycles.
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2]];
        assert_eq!(count_cycles(&adj, 100), CycleCount::Exact(2));
    }

    #[test]
    fn combine_saturates() {
        let a = CycleCount::Exact(3);
        let b = CycleCount::AtLeast(5);
        assert_eq!(a.combine(b), CycleCount::AtLeast(8));
        assert_eq!(format!("{}", a.combine(b)), ">=8");
    }

    /// Brute-force reference: enumerate cycles by DFS over all simple paths.
    fn brute_force(adj: &[Vec<u32>]) -> u64 {
        let n = adj.len();
        let mut count = 0u64;
        fn dfs(adj: &[Vec<u32>], start: u32, v: u32, visited: &mut Vec<bool>, count: &mut u64) {
            for &w in &adj[v as usize] {
                if w == start {
                    *count += 1;
                } else if w > start && !visited[w as usize] {
                    visited[w as usize] = true;
                    dfs(adj, start, w, visited, count);
                    visited[w as usize] = false;
                }
            }
        }
        for s in 0..n as u32 {
            let mut visited = vec![false; n];
            visited[s as usize] = true;
            dfs(adj, s, s, &mut visited, &mut count);
        }
        count
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        // Self-loops and parallel arcs included: each arc is its own cycle
        // edge, exactly as the brute force walks them.
        let mut graphs: Vec<Vec<Vec<u32>>> = (0..500)
            .map(|_| {
                let n = rng.gen_range(1..11);
                let p = if rng.gen_bool(0.5) { 0.15 } else { 0.3 };
                let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
                for (v, row) in adj.iter_mut().enumerate() {
                    for w in 0..n as u32 {
                        let p = if v as u32 == w { 0.1 } else { p };
                        if rng.gen_bool(p) {
                            row.push(w);
                            if rng.gen_bool(0.1) {
                                row.push(w);
                            }
                        }
                    }
                }
                adj
            })
            .collect();
        graphs.sort_by_key(Vec::len);
        // One scratch across every graph, growing then shrinking, so stale
        // state from a larger or smaller predecessor would show.
        let mut scratch = CycleScratch::new();
        let order = graphs.iter().chain(graphs.iter().rev());
        for adj in order {
            let exact = brute_force(adj);
            assert_eq!(count_cycles(adj, u64::MAX), CycleCount::Exact(exact));
            let mut comps = SccScratch::new();
            comps.run(adj);
            for cap in [1, exact.saturating_sub(1), exact, exact + 1, u64::MAX] {
                let expect = if exact > 0 && exact >= cap {
                    CycleCount::AtLeast(cap)
                } else {
                    CycleCount::Exact(exact)
                };
                let got = scratch.count_components(adj, comps.components(), cap);
                assert_eq!(got, expect, "cap={cap} adj={adj:?}");
            }
            // The knot entry point, fed components in ascending vertex order
            // (later starts then meet regions left blocked by earlier ones).
            let mut by_component = 0;
            for comp in comps.components() {
                let mut comp = comp.to_vec();
                comp.sort_unstable();
                if comp.len() > 1 || adj[comp[0] as usize].contains(&comp[0]) {
                    by_component += scratch.count_component(adj, &comp, u64::MAX).value();
                }
            }
            assert_eq!(by_component, exact, "adj={adj:?}");
        }
    }
}
