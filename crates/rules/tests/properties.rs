//! Property-based tests for the rule engine.

use agentgrid_rules::{
    parse_rules, Bindings, Effect, Engine, Fact, FieldPattern, Guard, GuardOp, KnowledgeBase,
    NaiveEngine, Operand, Pattern, Rule, RuleSeverity, Term,
};
use proptest::prelude::*;

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        prop::num::f64::NORMAL.prop_map(Term::Num),
        "[a-z]{0,8}".prop_map(Term::Str),
        any::<bool>().prop_map(Term::Bool),
    ]
}

fn op_strategy() -> impl Strategy<Value = GuardOp> {
    prop_oneof![
        Just(GuardOp::Lt),
        Just(GuardOp::Le),
        Just(GuardOp::Gt),
        Just(GuardOp::Ge),
        Just(GuardOp::Eq),
        Just(GuardOp::Ne),
    ]
}

// --- Random rule sets over a tiny universe, tuned so patterns collide
// --- and join: two kinds, two fields, a handful of values and variables.

fn small_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..3).prop_map(|n| Term::Num(n as f64)),
        prop_oneof![Just("x"), Just("y")].prop_map(Term::from),
    ]
}

fn small_kind() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("a"), Just("b")]
}

fn small_var() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("u"), Just("v")]
}

fn small_fact() -> impl Strategy<Value = Fact> {
    (small_kind(), small_term(), small_term())
        .prop_map(|(kind, f, g)| Fact::new(kind).with("f", f).with("g", g))
}

fn small_field_pattern() -> impl Strategy<Value = FieldPattern> {
    prop_oneof![
        Just(FieldPattern::Any),
        small_term().prop_map(FieldPattern::Const),
        small_var().prop_map(|v| FieldPattern::Var(v.into())),
    ]
}

/// A pattern constraining a subset of `fields`, in order.
fn small_pattern_over(fields: &'static [&'static str]) -> impl Strategy<Value = Pattern> {
    (
        small_kind(),
        prop::collection::vec(prop::option::of(small_field_pattern()), fields.len()),
    )
        .prop_map(move |(kind, constraints)| {
            let mut p = Pattern::new(kind);
            for (name, fp) in fields.iter().zip(constraints) {
                if let Some(fp) = fp {
                    p = p.field(*name, fp);
                }
            }
            p
        })
}

fn small_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        small_term().prop_map(Operand::Const),
        small_var().prop_map(|v| Operand::Var(v.into())),
    ]
}

/// A guard operand: a constant of any type (booleans never occur in
/// facts, so they only ever compare across types), a variable patterns
/// may bind, or `w`, which no pattern binds.
fn guard_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        small_term().prop_map(Operand::Const),
        any::<bool>().prop_map(|b| Operand::Const(Term::Bool(b))),
        prop_oneof![Just("u"), Just("v"), Just("w")].prop_map(|v| Operand::Var(v.into())),
    ]
}

/// 0–3 guards: var-vs-const, var-vs-var (spanning patterns when they bind
/// `u` and `v` separately), const-vs-const and unbound-var guards.
fn small_guards() -> impl Strategy<Value = Vec<Guard>> {
    prop::collection::vec(
        (guard_operand(), op_strategy(), guard_operand())
            .prop_map(|(left, op, right)| Guard::new(left, op, right)),
        0..4,
    )
}

fn small_effect() -> impl Strategy<Value = Effect> {
    prop_oneof![
        small_operand().prop_map(|device| Effect::Emit {
            severity: RuleSeverity::Info,
            device,
            message: "saw ?u ?v".into(),
        }),
        (small_kind(), small_operand()).prop_map(|(kind, op)| Effect::Assert {
            kind: kind.into(),
            fields: vec![("f".into(), op)],
        }),
        (0usize..2).prop_map(Effect::Retract),
    ]
}

/// Everything of a random rule except its name (names are assigned by
/// index afterwards — duplicate names would alias refraction entries).
type RuleParts = (i32, Vec<Pattern>, Vec<Guard>, Vec<Effect>);

fn rule_parts() -> impl Strategy<Value = RuleParts> {
    rule_parts_over(&["f", "g"])
}

/// Rule parts whose patterns constrain only `fields`.
fn rule_parts_over(fields: &'static [&'static str]) -> impl Strategy<Value = RuleParts> {
    (
        -2i32..3,
        prop::collection::vec(small_pattern_over(fields), 0..3),
        small_guards(),
        prop::collection::vec(small_effect(), 1..3),
    )
}

/// Rule parts of a two-pattern join the probe plan indexes: the second
/// pattern probes `u`, which the first binds, and binds `v`, which a guard
/// of its own tests. Depending on how many partial matches reach it, the
/// engine filters the second pattern's alpha memory or tests the guard on
/// each extension.
fn probed_join_parts() -> impl Strategy<Value = RuleParts> {
    (
        (
            -2i32..3,
            small_kind(),
            small_kind(),
            any::<bool>(),
            any::<bool>(),
        ),
        (op_strategy(), small_term(), small_guards()),
        prop::collection::vec(small_effect(), 1..3),
    )
        .prop_map(
            |((salience, first, second, on_f, swap), (op, bound, mut guards), effects)| {
                let field = |f: bool| if f { "f" } else { "g" };
                let var = |v: &str| FieldPattern::Var(v.into());
                let patterns = vec![
                    Pattern::new(first).field(field(on_f), var("u")),
                    Pattern::new(second)
                        .field(field(swap), var("u"))
                        .field(field(!swap), var("v")),
                ];
                guards.insert(
                    0,
                    Guard::new(Operand::Var("v".into()), op, Operand::Const(bound)),
                );
                (salience, patterns, guards, effects)
            },
        )
}

fn build_rules(parts: Vec<RuleParts>) -> Vec<Rule> {
    parts
        .into_iter()
        .enumerate()
        .map(|(i, parts)| build_rule(format!("r{i}"), parts))
        .collect()
}

fn build_rule(name: impl Into<String>, parts: RuleParts) -> Rule {
    let (salience, patterns, guards, effects) = parts;
    let mut rule = Rule::new(name).salience(salience);
    for p in patterns {
        rule = rule.when(p);
    }
    for g in guards {
        rule = rule.guard(g);
    }
    for e in effects {
        rule = rule.then(e);
    }
    rule
}

/// A knowledge-base edit on the rule named `probe`.
#[derive(Debug, Clone)]
enum ProbeEdit {
    /// Learn (or replace) `probe` with a rule whose first pattern gives
    /// field `g` of a kind a constant (and at most one more pattern, which
    /// keeps the naive reference fast).
    Learn(&'static str, Term, RuleParts),
    /// Learn (or replace) `probe` with a rule constraining only `f`.
    Replace(RuleParts),
    /// Forget `probe`, if present.
    Forget,
}

fn probe_edit() -> impl Strategy<Value = ProbeEdit> {
    prop_oneof![
        (
            small_kind(),
            small_term(),
            -2i32..3,
            prop::collection::vec(small_pattern_over(&["f", "g"]), 0..2),
            small_guards(),
            prop::collection::vec(small_effect(), 1..3),
        )
            .prop_map(|(kind, value, salience, patterns, guards, effects)| {
                ProbeEdit::Learn(kind, value, (salience, patterns, guards, effects))
            }),
        rule_parts_over(&["f"]).prop_map(ProbeEdit::Replace),
        Just(ProbeEdit::Forget),
    ]
}

fn apply_edit(kb: &mut KnowledgeBase, edit: ProbeEdit) {
    match edit {
        ProbeEdit::Learn(kind, value, (salience, mut patterns, guards, effects)) => {
            patterns.insert(0, Pattern::new(kind).field("g", FieldPattern::Const(value)));
            kb.learn(build_rule("probe", (salience, patterns, guards, effects)));
        }
        ProbeEdit::Replace(parts) => kb.learn(build_rule("probe", parts)),
        ProbeEdit::Forget => {
            kb.forget("probe");
        }
    }
}

/// Runs both engines on their current memory and checks that the run is
/// observably identical; returns both match-attempt counts.
fn run_both(
    naive: &mut NaiveEngine,
    incremental: &mut Engine,
) -> Result<(u64, u64), TestCaseError> {
    let reference = naive.run();
    let candidate = incremental.run();
    prop_assert_eq!(&reference.findings, &candidate.findings);
    prop_assert_eq!(reference.stats.fired, candidate.stats.fired);
    prop_assert_eq!(reference.stats.asserted, candidate.stats.asserted);
    prop_assert_eq!(reference.stats.retracted, candidate.stats.retracted);
    prop_assert_eq!(reference.stats.cycles, candidate.stats.cycles);
    prop_assert_eq!(reference.truncated, candidate.truncated);
    Ok((
        reference.stats.match_attempts,
        candidate.stats.match_attempts,
    ))
}

/// Delivers `chunks` to both engines over the rules of `parts`, with a
/// run after each chunk, and checks every run is observably identical and
/// the incremental engine never does more match work in total.
fn check_chunked(parts: Vec<RuleParts>, chunks: Vec<Vec<Fact>>) -> Result<(), TestCaseError> {
    let kb = KnowledgeBase::from_rules(build_rules(parts));
    let mut naive = NaiveEngine::new(kb.clone()).with_max_cycles(40);
    let mut incremental = Engine::new(kb).with_max_cycles(40);
    let mut naive_attempts = 0u64;
    let mut incremental_attempts = 0u64;
    for chunk in chunks {
        for fact in chunk {
            naive.insert(fact.clone());
            incremental.insert(fact);
        }
        let (reference, candidate) = run_both(&mut naive, &mut incremental)?;
        naive_attempts += reference;
        incremental_attempts += candidate;
    }
    prop_assert!(
        incremental_attempts <= naive_attempts,
        "incremental did more match work than naive: {} > {}",
        incremental_attempts,
        naive_attempts,
    );
    Ok(())
}

proptest! {
    // The equivalence properties draw from a large space (rule shapes,
    // guard placements, fact streams), so they run more cases.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The incremental engine is observably equivalent to the retained
    /// naive reference matcher over random rule sets and fact streams
    /// (delivered in chunks with a run after each): same findings in the
    /// same order, same fired/asserted/retracted/cycle counts, same
    /// truncation — and never more match attempts.
    #[test]
    fn incremental_engine_matches_naive_reference(
        parts in prop::collection::vec(rule_parts(), 1..4),
        chunks in prop::collection::vec(prop::collection::vec(small_fact(), 0..6), 1..3),
    ) {
        check_chunked(parts, chunks)?;
    }

    /// The same equivalence on guarded joins through a probed variable,
    /// over longer fact streams, so both ways of applying a pattern's own
    /// guards (alpha filter or per extension) are taken.
    #[test]
    fn guarded_probed_joins_match_naive_reference(
        parts in prop::collection::vec(probed_join_parts(), 1..3),
        chunks in prop::collection::vec(prop::collection::vec(small_fact(), 0..10), 1..3),
    ) {
        check_chunked(parts, chunks)?;
    }

    /// Equivalence also holds through knowledge-base edits mid-stream:
    /// learning a rule between runs (a new one, or a replacement of
    /// `r0`) preserves behaviour parity.
    #[test]
    fn equivalence_survives_learning(
        parts in prop::collection::vec(rule_parts(), 1..3),
        learned in rule_parts(),
        facts in prop::collection::vec(small_fact(), 1..8),
        more in prop::collection::vec(small_fact(), 0..5),
    ) {
        let kb = KnowledgeBase::from_rules(build_rules(parts));
        let mut naive = NaiveEngine::new(kb.clone()).with_max_cycles(40);
        let mut incremental = Engine::new(kb).with_max_cycles(40);
        for fact in facts {
            naive.insert(fact.clone());
            incremental.insert(fact);
        }
        let (mut naive_attempts, mut incremental_attempts) =
            run_both(&mut naive, &mut incremental)?;

        let rule = build_rules(vec![learned]).remove(0);
        naive.knowledge_mut().learn(rule.clone());
        incremental.knowledge_mut().learn(rule);
        for fact in more {
            naive.insert(fact.clone());
            incremental.insert(fact);
        }
        let (reference, candidate) = run_both(&mut naive, &mut incremental)?;
        naive_attempts += reference;
        incremental_attempts += candidate;
        prop_assert!(incremental_attempts <= naive_attempts);
    }

    /// Equivalence holds through edits that change which `(kind, field)`
    /// pairs working memory indexes. The starting rules constrain only
    /// field `f`, so a `(kind, g)` pair is indexed only while rule `probe`
    /// gives `g` a constant: learning such a rule indexes the facts
    /// already present, replacing it with an `f`-only rule or forgetting
    /// it drops the pair, and an edit that keeps the plan (forgetting an
    /// absent rule, learning the same pair again) leaves the index as is.
    #[test]
    fn equivalence_survives_probe_plan_edits(
        parts in prop::collection::vec(rule_parts_over(&["f"]), 1..3),
        facts in prop::collection::vec(small_fact(), 1..8),
        edits in prop::collection::vec(
            (probe_edit(), prop::collection::vec(small_fact(), 0..4)),
            1..3,
        ),
    ) {
        let kb = KnowledgeBase::from_rules(build_rules(parts));
        let mut naive = NaiveEngine::new(kb.clone()).with_max_cycles(20);
        let mut incremental = Engine::new(kb).with_max_cycles(20);
        for fact in facts {
            naive.insert(fact.clone());
            incremental.insert(fact);
        }
        let (mut naive_attempts, mut incremental_attempts) =
            run_both(&mut naive, &mut incremental)?;
        for (edit, more) in edits {
            apply_edit(naive.knowledge_mut(), edit.clone());
            apply_edit(incremental.knowledge_mut(), edit);
            for fact in more {
                naive.insert(fact.clone());
                incremental.insert(fact);
            }
            let (reference, candidate) = run_both(&mut naive, &mut incremental)?;
            naive_attempts += reference;
            incremental_attempts += candidate;
        }
        prop_assert!(incremental_attempts <= naive_attempts);
    }
}

proptest! {
    /// Guards never panic, for any operand/operator combination, and
    /// `Eq`/`Ne` are complementary on resolvable operands.
    #[test]
    fn guard_eval_is_total_and_eq_ne_complement(
        l in term_strategy(),
        r in term_strategy(),
        op in op_strategy(),
    ) {
        let g = Guard::new(Operand::Const(l.clone()), op, Operand::Const(r.clone()));
        let _ = g.eval(&Bindings::new());

        let eq = Guard::new(Operand::Const(l.clone()), GuardOp::Eq, Operand::Const(r.clone()));
        let ne = Guard::new(Operand::Const(l), GuardOp::Ne, Operand::Const(r));
        prop_assert_ne!(eq.eval(&Bindings::new()), ne.eval(&Bindings::new()));
    }

    /// A threshold rule fires exactly for the observations above the
    /// threshold, once each — regardless of insertion order.
    #[test]
    fn threshold_rule_fires_exactly_on_exceeding_values(
        threshold in 0.0f64..100.0,
        values in prop::collection::vec(0.0f64..100.0, 0..40),
    ) {
        let text = format!(
            r#"rule "t" {{
                when obs(device: ?d, value: ?v)
                if ?v > {threshold}
                then emit warning ?d "over"
            }}"#
        );
        let kb = KnowledgeBase::from_rules(parse_rules(&text).unwrap());
        let mut engine = Engine::new(kb);
        for (i, v) in values.iter().enumerate() {
            engine.insert(Fact::new("obs").with("device", format!("d{i}")).with("value", *v));
        }
        let out = engine.run();
        let expected = values.iter().filter(|v| **v > threshold).count();
        prop_assert_eq!(out.findings.len(), expected);
        prop_assert!(!out.truncated);
    }

    /// Refraction: a second run with unchanged memory fires nothing.
    #[test]
    fn second_run_is_quiescent(values in prop::collection::vec(0.0f64..100.0, 0..20)) {
        let kb = KnowledgeBase::from_rules(parse_rules(
            r#"rule "any" { when obs(value: ?v) then emit info "x" "seen ?v" }"#,
        ).unwrap());
        let mut engine = Engine::new(kb);
        for v in &values {
            engine.insert(Fact::new("obs").with("value", *v));
        }
        let first = engine.run();
        prop_assert_eq!(first.findings.len(), values.len());
        let second = engine.run();
        prop_assert_eq!(second.findings.len(), 0);
        prop_assert_eq!(second.stats.fired, 0);
    }

    /// Without retract effects, working memory only grows during a run
    /// (monotonicity of pure forward chaining).
    #[test]
    fn memory_grows_monotonically_without_retraction(
        n in 0usize..20,
    ) {
        let kb = KnowledgeBase::from_rules(parse_rules(
            r#"rule "derive" { when obs(value: ?v) then assert derived(value: ?v) }"#,
        ).unwrap());
        let mut engine = Engine::new(kb);
        for i in 0..n {
            engine.insert(Fact::new("obs").with("value", i as f64));
        }
        let before = engine.memory().len();
        let out = engine.run();
        prop_assert!(engine.memory().len() >= before);
        prop_assert_eq!(engine.memory().len(), before + out.stats.asserted as usize);
    }

    /// The DSL round-trips structurally: parsing equivalent text twice
    /// gives equal rules.
    #[test]
    fn parsing_is_deterministic(
        name in "[a-z][a-z-]{0,10}",
        salience in -100i32..100,
        threshold in -1000.0f64..1000.0,
    ) {
        let text = format!(
            r#"rule "{name}" salience {salience} {{
                when m(v: ?v)
                if ?v >= {threshold}
                then emit info ?v "msg"
            }}"#
        );
        let a = parse_rules(&text).unwrap();
        let b = parse_rules(&text).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a[0].name(), name.as_str());
        prop_assert_eq!(a[0].salience_value(), salience);
    }
}
