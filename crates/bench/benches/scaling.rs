//! Scaling benchmarks (extension Ext-3): the agent-grid architecture
//! with a growing analysis pool, and the federated grid with a growing
//! shard count.
//!
//! * `scaling_analyzers/*` — DES makespans vs analysis hosts; the
//!   figures printed by `repro -- scaling`, this guards the harness
//!   cost.
//! * `scaling_shards/*` — the live grid at 1/2/4/8 domain shards over
//!   a fixed 16-site network and a fixed 8-analyzer pool, so the only
//!   variable is the partitioning. Unsharded, every site's data-ready
//!   fans into tasks that each scan the whole store; sharded, each
//!   root sees only its sites and each task scans only its shard's
//!   store — the wall-clock curve is that work reduction. It runs the
//!   builder's default rule set, `correlated-cpu` join included. The
//!   10 000-device headline numbers live in `BENCH_pr10.json`
//!   (`repro --sharded 4 --shard-bench-json …`).

use agentgrid::grid::ManagementGrid;
use agentgrid_bench::{grid_scaling_report, standard_network, ALL_SKILLS};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_analyzers");
    group.sample_size(20);
    for analyzers in [1usize, 2, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(analyzers),
            &analyzers,
            |b, &analyzers| b.iter(|| black_box(grid_scaling_report(50, analyzers).makespan())),
        );
    }
    group.finish();
}

fn bench_shards(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_shards");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut builder = ManagementGrid::builder()
                        .network(standard_network(16, 12, 42))
                        .collectors_per_site(1)
                        .shards(shards);
                    for a in 0..8 {
                        builder = builder.analyzer(format!("pg-{}", a + 1), 1.0, ALL_SKILLS);
                    }
                    let mut grid = builder.build();
                    black_box(grid.run(3 * 60_000, 60_000).records_stored)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scaling, bench_shards);
criterion_main!(benches);
