//! Work-counter gate for guard placement on the grid's cross-device
//! join.
//!
//! `correlated-cpu` (the default rule set's level-3 rule) joins every
//! `cpu` fact with every other one and keeps the pairs where both loads
//! exceed 90. Evaluating `?x > 90` and `?y > 90` only after the full
//! cross product made it O(n²) in the number of cpu facts: 16M match
//! attempts over 4,000 facts with no finding at all. With each guard at
//! its binding level, both single-pattern guards filter their pattern's
//! alpha memory (one linear pass each) and the join only pairs the hot
//! facts, so the cost is O(n + hot²). The counters are deterministic, so
//! these tests pin them exactly.

use agentgrid_rules::{parse_rules, Engine, Fact, KnowledgeBase, NaiveEngine};

/// The `correlated-cpu` rule of the grid's default rule set.
const CORRELATED_CPU: &str = r#"
rule "correlated-cpu" salience 6 {
    when cpu(device: ?a, value: ?x)
    when cpu(device: ?b, value: ?y)
    if ?x > 90
    if ?y > 90
    if ?a < ?b
    then emit critical ?a "correlated cpu overload on ?a and ?b"
}
"#;

fn kb() -> KnowledgeBase {
    KnowledgeBase::from_rules(parse_rules(CORRELATED_CPU).expect("rule parses"))
}

/// `n` cpu facts on distinct devices; every `n / hot`-th one is above 90,
/// the rest sweep 0..=89.
fn cpu_facts(n: usize, hot: usize) -> Vec<Fact> {
    (0..n)
        .map(|i| {
            let value = if hot > 0 && i % (n / hot) == 0 {
                91.0 + (i % 9) as f64
            } else {
                ((i * 37) % 90) as f64
            };
            Fact::new("cpu")
                .with("device", format!("dev-{i:05}"))
                .with("value", value)
        })
        .collect()
}

#[test]
fn cold_cpu_join_does_linear_work() {
    let n = 4_000;
    let mut engine = Engine::new(kb());
    engine.insert_all(cpu_facts(n, 0));
    let out = engine.run();
    assert!(out.findings.is_empty());
    // One alpha pass over the first pattern leaves nothing to join.
    assert_eq!(out.stats.alpha_tests, n as u64);
    assert_eq!(out.stats.match_attempts, 0);
    assert!(
        out.stats.match_attempts + out.stats.alpha_tests <= 2 * n as u64,
        "correlated-cpu over {n} cold facts left linear work: {:?}",
        out.stats
    );
}

#[test]
fn hot_cpu_join_is_quadratic_in_hot_facts_only() {
    let (n, hot) = (4_000, 20);
    let mut engine = Engine::new(kb());
    engine.insert_all(cpu_facts(n, hot));
    let out = engine.run();
    // Every unordered pair of hot devices fires once.
    assert_eq!(out.findings.len(), hot * (hot - 1) / 2);
    assert_eq!(out.stats.alpha_tests, 2 * n as u64);
    // `hot` level-0 tokens, then each pairs with every hot fact
    // (itself included, before the same-fact check): hot + hot².
    assert_eq!(out.stats.match_attempts, (hot + hot * hot) as u64);
}

#[test]
fn hoisted_join_matches_the_naive_reference() {
    let (n, hot) = (100, 5);
    let facts = cpu_facts(n, hot);
    let mut naive = NaiveEngine::new(kb());
    let mut engine = Engine::new(kb());
    naive.insert_all(facts.clone());
    engine.insert_all(facts);
    let reference = naive.run();
    let candidate = engine.run();
    assert_eq!(reference.findings, candidate.findings);
    assert_eq!(reference.stats.fired, candidate.stats.fired);
    assert_eq!(reference.stats.cycles, candidate.stats.cycles);
    assert_eq!(candidate.stats.fired, (hot * (hot - 1) / 2) as u64);
    // The naive engine pairs all facts before any guard runs, once per
    // cycle plus the final quiescence check.
    let cross_product = (n + n * n) as u64;
    assert_eq!(
        reference.stats.match_attempts,
        (reference.stats.cycles + 1) * cross_product
    );
    assert_eq!(candidate.stats.match_attempts, (hot + hot * hot) as u64);
}

/// A guarded pattern the join reaches through a bound variable is not
/// alpha-filtered: each partial match probes its own small bucket, and
/// the pattern's guard runs on those extensions only, so the cost does
/// not grow with the number of cpu facts.
#[test]
fn probed_guarded_pattern_skips_the_alpha_pass() {
    let kb = KnowledgeBase::from_rules(
        parse_rules(
            r#"
            rule "busy-and-unreachable" {
                when obs(device: ?d, metric: "agent.reachable", value: 0)
                when cpu(device: ?d, value: ?v)
                if ?v > 50
                then emit warning ?d "unreachable at cpu ?v"
            }
            "#,
        )
        .expect("rule parses"),
    );
    let unreachable = |i: usize| {
        Fact::new("obs")
            .with("device", format!("dev-{i:05}"))
            .with("metric", "agent.reachable")
            .with("value", 0.0)
    };
    let mut engine = Engine::new(kb);
    engine.insert_all(cpu_facts(4_000, 20));
    // dev-00000 is hot (91), dev-00001 and dev-00003 are not (37, 21).
    engine.insert_all([0, 1, 3].map(unreachable));
    let out = engine.run();
    assert_eq!(out.findings.len(), 1);
    assert_eq!(out.findings[0].device, "dev-00000");
    assert_eq!(out.stats.alpha_tests, 0);
    // Three obs tokens, each extended by the one cpu fact of its device.
    assert_eq!(out.stats.match_attempts, 3 + 3);
}
