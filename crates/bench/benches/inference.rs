//! Inference benchmark: the naive reference matcher vs the incremental
//! (TREAT-style agenda + alpha-indexed) engine on the same rule set and
//! fact stream, at 10/100/1000 facts — plus the store's whole-series
//! `stats`/`latest` hot loop. The naive engine rebuilds its conflict set
//! from scratch every recognize-act cycle; the incremental engine only
//! re-matches rules touched by the previous cycle's delta, so the gap
//! widens with fact count. `repro --bench-json <path>` records the same
//! comparison without Criterion for CI artifacts.
//!
//! The `correlated-cpu` group runs the default rule set's cross-device
//! join over 1,000 and 4,000 `cpu` facts, one of them above 90. The
//! naive engine pairs every fact with every other before its guards run
//! (O(n²)); the incremental engine filters each pattern's alpha memory
//! with that pattern's own guard first, so it joins only the hot facts.

use agentgrid::grid::DEFAULT_RULES;
use agentgrid_bench::{inference_facts, inference_kb, inference_store};
use agentgrid_rules::{parse_rules, Engine, Fact, KnowledgeBase, NaiveEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

const MAX_CYCLES: u64 = 100_000;

fn bench_inference(c: &mut Criterion) {
    let kb = Arc::new(inference_kb());
    let mut group = c.benchmark_group("inference");
    group.sample_size(20);
    for n in [10usize, 100, 1000] {
        let facts = inference_facts(n);
        group.bench_with_input(BenchmarkId::new("naive", n), &facts, |b, facts| {
            b.iter(|| {
                let mut engine = NaiveEngine::new((*kb).clone()).with_max_cycles(MAX_CYCLES);
                for fact in facts {
                    engine.insert(fact.clone());
                }
                black_box(engine.run().stats.match_attempts)
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &facts, |b, facts| {
            b.iter(|| {
                let mut engine = Engine::shared(Arc::clone(&kb)).with_max_cycles(MAX_CYCLES);
                for fact in facts {
                    engine.insert(fact.clone());
                }
                black_box(engine.run().stats.match_attempts)
            })
        });
    }
    group.finish();
}

/// `n` cpu facts on distinct devices, all at or below 90 except the
/// first: the join has one hot fact and nothing to pair it with, so the
/// naive engine computes its conflict set once.
fn correlated_cpu_facts(n: usize) -> Vec<Fact> {
    (0..n)
        .map(|i| {
            let value = if i == 0 { 97.0 } else { ((i * 37) % 91) as f64 };
            Fact::new("cpu")
                .with("device", format!("dev-{i:05}"))
                .with("value", value)
        })
        .collect()
}

fn bench_correlated_cpu(c: &mut Criterion) {
    let rules = parse_rules(DEFAULT_RULES).expect("default rules parse");
    let kb = Arc::new(KnowledgeBase::from_rules(
        rules.into_iter().filter(|r| r.name() == "correlated-cpu"),
    ));
    let mut group = c.benchmark_group("correlated-cpu");
    group.sample_size(10);
    for n in [1_000usize, 4_000] {
        let facts = correlated_cpu_facts(n);
        group.bench_with_input(BenchmarkId::new("naive", n), &facts, |b, facts| {
            b.iter(|| {
                let mut engine = NaiveEngine::new((*kb).clone());
                engine.insert_all(facts.iter().cloned());
                black_box(engine.run().stats.match_attempts)
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &facts, |b, facts| {
            b.iter(|| {
                let mut engine = Engine::shared(Arc::clone(&kb));
                engine.insert_all(facts.iter().cloned());
                black_box(engine.run().stats.match_attempts)
            })
        });
    }
    group.finish();
}

fn bench_store_stats(c: &mut Criterion) {
    let store = inference_store(1000);
    c.bench_function("store_stats_hot_loop", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for device in 0..5 {
                let device = format!("host-{device}");
                for metric in ["cpu.load.1", "storage.ram.used"] {
                    let stats = store
                        .stats(&device, metric, 0, u64::MAX)
                        .expect("series populated");
                    acc += stats.mean + stats.max;
                    acc += store.latest(&device, metric).expect("series populated").1;
                }
            }
            black_box(acc)
        })
    });
}

criterion_group!(
    benches,
    bench_inference,
    bench_correlated_cpu,
    bench_store_stats
);
criterion_main!(benches);
