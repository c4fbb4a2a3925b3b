//! Proof that the steady-state detection epoch performs zero heap
//! allocations: snapshot fill, wait-graph rebuild, knot analysis and knot
//! cycle counting all run in caller-owned storage once capacities have
//! warmed up.
//!
//! A counting global allocator tallies every alloc/realloc made by the
//! test's own thread. The counter is thread-local so that allocations the
//! libtest harness makes concurrently (channels, timing, output) cannot
//! pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use icn_cwg::{CycleScratch, DetectorScratch, WaitGraph};
use icn_routing::Dor;
use icn_sim::{Network, SimConfig, SnapshotArena};
use icn_topology::{KAryNCube, NodeId};

struct CountingAlloc;

thread_local! {
    // `const` init: no lazy-init allocation, safe inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The runner's per-epoch rebuild, spelled out over the public API.
fn rebuild(arena: &SnapshotArena, g: &mut WaitGraph) {
    g.reset(arena.num_vertices());
    for m in arena.messages() {
        g.add_chain(m.id, m.chain);
    }
    for m in arena.messages() {
        if !m.requests.is_empty() {
            g.add_requests(m.id, m.requests);
        }
    }
}

#[test]
fn steady_state_detection_epoch_allocates_nothing() {
    // --- Scenario 1: moving traffic only (the runner's blocked==0 skip:
    // just the snapshot fill, no graph, no analysis). ---
    let mut net = Network::new(
        KAryNCube::torus(8, 1, true),
        Box::new(Dor),
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 16,
        },
    );
    // Disjoint single-hop routes: long messages stay in flight without
    // ever contending for a channel.
    for i in [0u32, 2, 4, 6] {
        net.enqueue(NodeId(i), NodeId(i + 1));
    }
    for _ in 0..6 {
        net.step();
    }
    assert!(net.in_network() > 0, "messages must be in flight");
    assert_eq!(net.blocked_count(), 0, "forward traffic must not block");

    let mut arena = SnapshotArena::new();
    // Warm-up: first fills size the arena pools.
    for _ in 0..3 {
        net.wait_snapshot_into(&mut arena);
    }
    let snap_allocs = allocations(|| {
        for _ in 0..100 {
            net.wait_snapshot_into(&mut arena);
        }
    });
    assert_eq!(
        snap_allocs, 0,
        "snapshot fill must not allocate in steady state"
    );

    // --- Scenario 2: blocked messages but no knot (the runner's full path:
    // snapshot, in-place graph rebuild, knot analysis — all clean). ---
    let mut net = Network::new(
        KAryNCube::torus(8, 1, false),
        Box::new(Dor),
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 24,
        },
    );
    // A long leader and trailing messages that block behind it while it
    // still moves: dashed arcs exist, but every wait chain drains.
    net.enqueue(NodeId(0), NodeId(5));
    for _ in 0..4 {
        net.step();
    }
    net.enqueue(NodeId(1), NodeId(6));
    net.enqueue(NodeId(2), NodeId(7));
    let mut steps = 0;
    while net.blocked_count() == 0 && steps < 50 {
        net.step();
        steps += 1;
    }
    assert!(net.blocked_count() > 0, "trailing messages must block");

    let mut graph = WaitGraph::new(0);
    let mut scratch = DetectorScratch::new();
    net.wait_snapshot_into(&mut arena);
    rebuild(&arena, &mut graph);
    let warm = graph.analyze_with(2_000, &mut scratch);
    assert!(
        !warm.has_deadlock(),
        "scenario must be blocked-but-clean, got a knot"
    );
    // Two more warm-up rounds so every pool reaches steady capacity.
    for _ in 0..2 {
        net.wait_snapshot_into(&mut arena);
        rebuild(&arena, &mut graph);
        let _ = graph.analyze_with(2_000, &mut scratch);
    }

    let epoch_allocs = allocations(|| {
        for _ in 0..100 {
            net.wait_snapshot_into(&mut arena);
            rebuild(&arena, &mut graph);
            let a = graph.analyze_with(2_000, &mut scratch);
            assert!(!a.has_deadlock());
        }
    });
    assert_eq!(
        epoch_allocs, 0,
        "clean detection epoch must not allocate in steady state"
    );

    // --- Scenario 3: counting a multi-cycle knot (density and census) on
    // warmed scratch. Figure 3's shape: four messages each own two VCs and
    // wait for both VCs of the next message. ---
    let mut g = WaitGraph::new(8);
    for i in 0..4u32 {
        g.add_chain(i as u64, &[2 * i, 2 * i + 1]);
    }
    for i in 0..4u32 {
        let next = 2 * ((i + 1) % 4);
        g.add_requests(i as u64, &[next, next + 1]);
    }
    let knot = g.analyze_with(2_000, &mut scratch).deadlocks.remove(0);
    assert!(knot.cycle_density.value() > 1, "knot must be multi-cycle");
    let mut cycles = CycleScratch::new();
    let mut count = || {
        let c = cycles.count_component(scratch.csr(), &knot.knot, 2_000);
        assert_eq!(c, knot.cycle_density);
        assert_eq!(scratch.count_cycles(2_000), knot.cycle_density);
    };
    count();
    let count_allocs = allocations(|| (0..100).for_each(|_| count()));
    assert_eq!(count_allocs, 0, "knot cycle counting must not allocate");
}
