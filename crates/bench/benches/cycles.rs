//! Elementary-cycle enumeration cost (Johnson's algorithm) on the graph
//! shapes the study encounters: long rings (DOR single-cycle deadlocks),
//! dense multi-cycle knots (TFAR), and saturated CWG snapshots. One
//! `CycleScratch` is reused across iterations, as the detection loop does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexsim::build_wait_graph;
use icn_cwg::{CycleScratch, DetectorScratch, WaitGraph};
use icn_routing::Tfar;
use icn_sim::{Network, SimConfig};
use icn_topology::{KAryNCube, NodeId};
use icn_traffic::{BernoulliInjector, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ring(n: usize) -> Vec<Vec<u32>> {
    (0..n as u32).map(|v| vec![(v + 1) % n as u32]).collect()
}

/// A knot where each vertex waits for the next two — cycle count grows
/// fast with size, exercising the cap.
fn dense_knot(n: usize) -> Vec<Vec<u32>> {
    (0..n as u32)
        .map(|v| vec![(v + 1) % n as u32, (v + 2) % n as u32])
        .collect()
}

fn saturated_snapshot() -> WaitGraph {
    let topo = KAryNCube::torus(8, 2, true);
    let injector = BernoulliInjector::for_load(&topo, 1.0, 32);
    let mut net = Network::new(
        topo.clone(),
        Box::new(Tfar),
        SimConfig {
            vcs_per_channel: 2,
            buffer_depth: 2,
            msg_len: 32,
        },
    );
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..4_000u32 {
        for node in 0..topo.num_nodes() as u32 {
            if injector.fires(&mut rng) {
                if let Some(dst) = Pattern::Uniform.dest(&topo, NodeId(node), &mut rng) {
                    net.enqueue(NodeId(node), dst);
                }
            }
        }
        net.step();
    }
    build_wait_graph(&net.wait_snapshot())
}

fn bench_cycles(c: &mut Criterion) {
    let mut g = c.benchmark_group("cycle_counting");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));

    // Strongly connected inputs go through the knot entry point, the
    // per-knot density count in `analyze_with`.
    let mut scratch = CycleScratch::new();
    for &n in &[64usize, 1024] {
        let adj = ring(n);
        let comp: Vec<u32> = (0..n as u32).collect();
        g.bench_with_input(BenchmarkId::new("ring", n), &adj, |b, adj| {
            b.iter(|| scratch.count_component(adj, &comp, 100_000))
        });
    }
    for &n in &[12usize, 24] {
        let adj = dense_knot(n);
        let comp: Vec<u32> = (0..n as u32).collect();
        g.bench_with_input(BenchmarkId::new("dense_knot", n), &adj, |b, adj| {
            b.iter(|| scratch.count_component(adj, &comp, 100_000))
        });
    }
    // The census path: the epoch's CSR and SCCs held by the detector.
    let graph = saturated_snapshot();
    let mut detector = DetectorScratch::new();
    graph.analyze_with(2_000, &mut detector);
    g.bench_function("saturated_snapshot_cap50k", |b| {
        b.iter(|| detector.count_cycles(50_000))
    });
    g.finish();
}

criterion_group!(benches, bench_cycles);
criterion_main!(benches);
