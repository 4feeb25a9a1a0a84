//! Naive reference matcher: the original forward-chainer that recomputes
//! the full conflict set every recognize–act cycle.
//!
//! [`NaiveEngine`] is kept as the *executable specification* for the
//! incremental [`Engine`](crate::Engine): the equivalence proptests and the
//! `inference` Criterion bench run both over identical inputs and require
//! the same findings in the same order, the same fired/asserted/retracted
//! counts, and `match_attempts` no larger on the incremental side. Do not
//! optimise this type — its O(cycles × rules × facts^patterns) behaviour is
//! the point of comparison. Its working memory has no probe plan, so every
//! field probe scans the kind bucket: the reference does not depend on the
//! plan the incremental engine indexes by.

use std::collections::BTreeSet;

use crate::{
    Bindings, Effect, Fact, FactId, Finding, KnowledgeBase, Rule, RunOutcome, RunStats,
    WorkingMemory,
};

/// One fireable (rule, fact-tuple) combination.
#[derive(Debug, Clone)]
struct Activation {
    rule_index: usize,
    fact_ids: Vec<FactId>,
    bindings: Bindings,
    salience: i32,
    /// Highest fact id in the tuple — recency for conflict resolution.
    recency: FactId,
}

/// Forward-chaining inference engine that rebuilds the conflict set from
/// scratch on every cycle.
///
/// Semantics are identical to [`Engine`](crate::Engine) (same conflict
/// resolution: salience, then recency, then rule order; same refraction;
/// same cycle limit behaviour) — only the amount of match work differs.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{Fact, KnowledgeBase, NaiveEngine, parse_rules};
///
/// let kb = KnowledgeBase::from_rules(parse_rules(r#"
///     rule "chain" {
///         when seed(n: ?n)
///         then assert grown(n: ?n)
///     }
///     rule "harvest" {
///         when grown(n: ?n)
///         then emit info "field" "grew ?n"
///     }
/// "#)?);
/// let mut engine = NaiveEngine::new(kb);
/// engine.insert(Fact::new("seed").with("n", 1.0));
/// let out = engine.run();
/// assert_eq!(out.findings.len(), 1);
/// assert_eq!(out.findings[0].message, "grew 1");
/// # Ok::<(), agentgrid_rules::ParseRuleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NaiveEngine {
    kb: KnowledgeBase,
    wm: WorkingMemory,
    fired: BTreeSet<(String, Vec<FactId>)>,
    max_cycles: u64,
}

impl NaiveEngine {
    /// Creates an engine over a knowledge base with an empty working
    /// memory and the default cycle limit (10 000).
    pub fn new(kb: KnowledgeBase) -> Self {
        NaiveEngine {
            kb,
            wm: WorkingMemory::new(),
            fired: BTreeSet::new(),
            max_cycles: 10_000,
        }
    }

    /// Replaces the cycle limit (a safety net against runaway rule sets).
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Inserts a fact.
    pub fn insert(&mut self, fact: Fact) -> FactId {
        self.wm.insert(fact)
    }

    /// Inserts many facts.
    pub fn insert_all(&mut self, facts: impl IntoIterator<Item = Fact>) {
        for fact in facts {
            self.wm.insert(fact);
        }
    }

    /// Read access to the working memory.
    pub fn memory(&self) -> &WorkingMemory {
        &self.wm
    }

    /// Read access to the knowledge base.
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Mutable access to the knowledge base (to learn rules at runtime).
    pub fn knowledge_mut(&mut self) -> &mut KnowledgeBase {
        &mut self.kb
    }

    /// Clears the working memory and refraction history (e.g. between
    /// analysis batches).
    pub fn reset(&mut self) {
        self.wm = WorkingMemory::new();
        self.fired.clear();
    }

    /// Runs recognize–act cycles until quiescence or the cycle limit.
    pub fn run(&mut self) -> RunOutcome {
        let mut outcome = RunOutcome::default();
        loop {
            if outcome.stats.cycles >= self.max_cycles {
                outcome.truncated = true;
                break;
            }
            let Some(activation) = self.best_activation(&mut outcome.stats) else {
                break;
            };
            outcome.stats.cycles += 1;
            self.fire(activation, &mut outcome);
        }
        outcome
    }

    /// Computes the conflict set and returns the activation with the
    /// highest salience, breaking ties by recency then rule order.
    fn best_activation(&self, stats: &mut RunStats) -> Option<Activation> {
        let mut best: Option<Activation> = None;
        for (rule_index, rule) in self.kb.iter().enumerate() {
            for (fact_ids, bindings) in self.match_rule(rule, stats) {
                let key = (rule.name().to_owned(), fact_ids.clone());
                if self.fired.contains(&key) {
                    continue;
                }
                if !rule.guards_pass(&bindings) {
                    continue;
                }
                let recency = fact_ids.iter().copied().max().unwrap_or(FactId(0));
                let candidate = Activation {
                    rule_index,
                    fact_ids,
                    bindings,
                    salience: rule.salience_value(),
                    recency,
                };
                let better = match &best {
                    None => true,
                    Some(current) => {
                        (candidate.salience, candidate.recency, {
                            // Lower rule index wins the final tie, so invert.
                            usize::MAX - candidate.rule_index
                        }) > (
                            current.salience,
                            current.recency,
                            usize::MAX - current.rule_index,
                        )
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        best
    }

    /// Joins the rule's patterns left-to-right, producing every consistent
    /// `(fact tuple, bindings)` combination.
    fn match_rule(&self, rule: &Rule, stats: &mut RunStats) -> Vec<(Vec<FactId>, Bindings)> {
        let mut partial: Vec<(Vec<FactId>, Bindings)> = vec![(Vec::new(), Bindings::new())];
        for pattern in rule.patterns() {
            let mut next = Vec::new();
            for (ids, bindings) in &partial {
                for (id, extended) in pattern.match_all(&self.wm, bindings) {
                    stats.match_attempts += 1;
                    // A fact may not satisfy two patterns of the same rule
                    // instance (set semantics for the tuple).
                    if ids.contains(&id) {
                        continue;
                    }
                    let mut tuple = ids.clone();
                    tuple.push(id);
                    next.push((tuple, extended));
                }
            }
            partial = next;
            if partial.is_empty() {
                break;
            }
        }
        if rule.patterns().is_empty() {
            // A rule with no patterns matches once on empty tuple.
            return partial;
        }
        partial
    }

    fn fire(&mut self, activation: Activation, outcome: &mut RunOutcome) {
        let rule = self
            .kb
            .iter()
            .nth(activation.rule_index)
            .expect("activation refers to an existing rule")
            .clone();
        self.fired
            .insert((rule.name().to_owned(), activation.fact_ids.clone()));
        outcome.stats.fired += 1;

        for effect in rule.effects() {
            match effect {
                Effect::Assert { .. } => {
                    if let Some(fact) = effect.instantiate(&activation.bindings) {
                        self.wm.insert(fact);
                        outcome.stats.asserted += 1;
                    }
                }
                Effect::Retract(pattern_index) => {
                    if let Some(id) = activation.fact_ids.get(*pattern_index) {
                        if self.wm.retract(*id).is_some() {
                            outcome.stats.retracted += 1;
                        }
                    }
                }
                Effect::Emit {
                    severity,
                    device,
                    message,
                } => {
                    let device_text = device
                        .resolve(&activation.bindings)
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "unknown".to_owned());
                    outcome.findings.push(Finding {
                        rule: rule.name().to_owned(),
                        device: device_text,
                        severity: *severity,
                        message: activation.bindings.substitute(message),
                    });
                }
            }
        }
    }
}
