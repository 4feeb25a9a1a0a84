use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{Bindings, Fact, FieldPattern, Pattern, Term};

/// Severity attached to a [`Finding`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum RuleSeverity {
    /// Informational.
    #[default]
    Info,
    /// Needs attention.
    Warning,
    /// Service-affecting.
    Critical,
}

impl RuleSeverity {
    /// The DSL keyword for this severity.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleSeverity::Info => "info",
            RuleSeverity::Warning => "warning",
            RuleSeverity::Critical => "critical",
        }
    }
}

impl fmt::Display for RuleSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A problem or observation emitted by a fired rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// The rule that fired.
    pub rule: String,
    /// The device(s) concerned (post-substitution).
    pub device: String,
    /// Severity of the finding.
    pub severity: RuleSeverity,
    /// Message (post-substitution).
    pub message: String,
}

/// A value source in guards and effects: a literal or a bound variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A literal term.
    Const(Term),
    /// A variable bound by some pattern.
    Var(String),
}

impl Operand {
    /// Resolves the operand against the bindings.
    pub fn resolve(&self, bindings: &Bindings) -> Option<Term> {
        match self {
            Operand::Const(t) => Some(t.clone()),
            Operand::Var(v) => bindings.get(v).cloned(),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(t) => write!(f, "{t}"),
            Operand::Var(v) => write!(f, "?{v}"),
        }
    }
}

/// Comparison operator in a [`Guard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl GuardOp {
    /// The DSL spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            GuardOp::Lt => "<",
            GuardOp::Le => "<=",
            GuardOp::Gt => ">",
            GuardOp::Ge => ">=",
            GuardOp::Eq => "==",
            GuardOp::Ne => "!=",
        }
    }
}

impl fmt::Display for GuardOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A boolean test over bound variables. The engine evaluates it at the
/// first join level where all its operands are bound (DESIGN.md §11).
///
/// A guard whose operands cannot be resolved or compared (unbound
/// variable, mixed types under an ordering operator) evaluates to `false`
/// rather than erroring: the activation simply does not fire.
#[derive(Debug, Clone, PartialEq)]
pub struct Guard {
    /// Left operand.
    pub left: Operand,
    /// Comparison operator.
    pub op: GuardOp,
    /// Right operand.
    pub right: Operand,
}

impl Guard {
    /// Creates a guard.
    pub fn new(left: Operand, op: GuardOp, right: Operand) -> Self {
        Guard { left, op, right }
    }

    /// Evaluates the guard under `bindings`.
    pub fn eval(&self, bindings: &Bindings) -> bool {
        let (Some(l), Some(r)) = (self.left.resolve(bindings), self.right.resolve(bindings)) else {
            return false;
        };
        match self.op {
            GuardOp::Eq => l == r,
            GuardOp::Ne => l != r,
            op => match l.partial_cmp(&r) {
                Some(ord) => match op {
                    GuardOp::Lt => ord.is_lt(),
                    GuardOp::Le => ord.is_le(),
                    GuardOp::Gt => ord.is_gt(),
                    GuardOp::Ge => ord.is_ge(),
                    GuardOp::Eq | GuardOp::Ne => unreachable!("handled above"),
                },
                None => false,
            },
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// Action taken when a rule fires.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Assert a new fact built from operands.
    Assert {
        /// Kind of the asserted fact.
        kind: String,
        /// Field templates resolved against the bindings.
        fields: Vec<(String, Operand)>,
    },
    /// Retract the fact matched by the `when` clause at this index
    /// (0-based).
    Retract(usize),
    /// Emit a [`Finding`] for the interface grid.
    Emit {
        /// Severity of the finding.
        severity: RuleSeverity,
        /// Operand naming the device concerned.
        device: Operand,
        /// Message template (supports `?var` substitution).
        message: String,
    },
}

impl Effect {
    /// Instantiates an `Assert` effect into a concrete fact.
    /// Returns `None` for other effects or when a variable is unbound.
    pub fn instantiate(&self, bindings: &Bindings) -> Option<Fact> {
        match self {
            Effect::Assert { kind, fields } => {
                let mut fact = Fact::new(kind.clone());
                for (name, op) in fields {
                    fact = fact.with(name.clone(), op.resolve(bindings)?);
                }
                Some(fact)
            }
            _ => None,
        }
    }
}

/// A production rule: `when` patterns, `if` guards, `then` effects.
///
/// Build rules with [`Rule::new`] and the builder methods, or parse them
/// from the DSL with [`crate::parse_rules`].
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{FieldPattern, Guard, GuardOp, Operand, Pattern, Rule, Term};
///
/// let rule = Rule::new("link-down")
///     .salience(5)
///     .when(
///         Pattern::new("obs")
///             .field("metric", FieldPattern::Const(Term::from("if.oper-status")))
///             .field("value", FieldPattern::Var("v".into())),
///     )
///     .guard(Guard::new(
///         Operand::Var("v".into()),
///         GuardOp::Eq,
///         Operand::Const(Term::from(0.0)),
///     ));
/// assert_eq!(rule.name(), "link-down");
/// assert_eq!(rule.patterns().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    name: String,
    salience: i32,
    patterns: Vec<Pattern>,
    guards: Vec<Guard>,
    effects: Vec<Effect>,
}

impl Rule {
    /// Creates an empty rule with salience 0.
    pub fn new(name: impl Into<String>) -> Self {
        Rule {
            name: name.into(),
            salience: 0,
            patterns: Vec::new(),
            guards: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// Sets the salience (higher fires first).
    pub fn salience(mut self, salience: i32) -> Self {
        self.salience = salience;
        self
    }

    /// Adds a `when` pattern.
    pub fn when(mut self, pattern: Pattern) -> Self {
        self.patterns.push(pattern);
        self
    }

    /// Adds an `if` guard.
    pub fn guard(mut self, guard: Guard) -> Self {
        self.guards.push(guard);
        self
    }

    /// Adds a `then` effect.
    pub fn then(mut self, effect: Effect) -> Self {
        self.effects.push(effect);
        self
    }

    /// The rule name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The salience.
    pub fn salience_value(&self) -> i32 {
        self.salience
    }

    /// The `when` patterns.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// The `if` guards.
    pub fn guards(&self) -> &[Guard] {
        &self.guards
    }

    /// The `then` effects.
    pub fn effects(&self) -> &[Effect] {
        &self.effects
    }

    /// Whether all guards pass under `bindings`.
    pub fn guards_pass(&self, bindings: &Bindings) -> bool {
        self.guards.iter().all(|g| g.eval(bindings))
    }

    /// The *skill* this rule needs from a container: the kind of its first
    /// pattern (used by the broker to route analysis tasks, Fig. 3).
    pub fn skill(&self) -> Option<&str> {
        self.patterns.first().map(|p| p.kind())
    }
}

/// Where a rule's guards are evaluated during the join (DESIGN.md §11):
/// each guard at the first join level where all its operands are bound.
/// Placement never changes which activations pass, only how early the
/// join drops the ones that fail.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct GuardPlan {
    /// Guards without variables, and guards over a variable no pattern
    /// binds (they fail under every binding set), evaluated once before
    /// the join.
    pub(crate) constant: Vec<Guard>,
    /// Per pattern: guards over variables that pattern binds itself,
    /// placed at that pattern's binding level. They filter the pattern's
    /// alpha memory once, or each extension when the join probes the
    /// pattern more cheaply than that.
    pub(crate) alpha: Vec<Vec<Guard>>,
    /// Per pattern: guards spanning patterns whose last variable this
    /// pattern binds, evaluated as soon as the join extends a partial
    /// match with it.
    pub(crate) join: Vec<Vec<Guard>>,
}

impl GuardPlan {
    fn of(rule: &Rule) -> GuardPlan {
        let patterns = rule.patterns();
        let binds = |level: usize, var: &str| {
            patterns[level]
                .fields()
                .iter()
                .any(|(_, fp)| matches!(fp, FieldPattern::Var(v) if v == var))
        };
        let mut plan = GuardPlan {
            alpha: vec![Vec::new(); patterns.len()],
            join: vec![Vec::new(); patterns.len()],
            ..GuardPlan::default()
        };
        for guard in rule.guards() {
            let vars: Vec<&str> = [&guard.left, &guard.right]
                .into_iter()
                .filter_map(|op| match op {
                    Operand::Var(v) => Some(v.as_str()),
                    Operand::Const(_) => None,
                })
                .collect();
            let first_binding: Option<Vec<usize>> = vars
                .iter()
                .map(|var| (0..patterns.len()).find(|&level| binds(level, var)))
                .collect();
            match first_binding.and_then(|levels| levels.into_iter().max()) {
                None => plan.constant.push(guard.clone()),
                Some(level) if vars.iter().all(|var| binds(level, var)) => {
                    plan.alpha[level].push(guard.clone())
                }
                Some(level) => plan.join[level].push(guard.clone()),
            }
        }
        plan
    }
}

/// The `(kind, field)` pairs some pattern probes the alpha index with: a
/// field given a constant, or a variable an earlier pattern of the same
/// rule binds. Working memory indexes field values for these pairs only.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ProbePlan {
    pub(crate) fields: BTreeMap<String, BTreeSet<String>>,
}

impl ProbePlan {
    fn of<'a>(rules: impl IntoIterator<Item = &'a Rule>) -> ProbePlan {
        let mut plan = ProbePlan::default();
        for rule in rules {
            let mut bound: BTreeSet<&str> = BTreeSet::new();
            for pattern in rule.patterns() {
                for (name, fp) in pattern.fields() {
                    let probed = match fp {
                        FieldPattern::Const(_) => true,
                        FieldPattern::Var(v) => bound.contains(v.as_str()),
                        FieldPattern::Any => false,
                    };
                    if probed {
                        plan.fields
                            .entry(pattern.kind().to_owned())
                            .or_default()
                            .insert(name.clone());
                    }
                }
                bound.extend(pattern.fields().iter().filter_map(|(_, fp)| match fp {
                    FieldPattern::Var(v) => Some(v.as_str()),
                    _ => None,
                }));
            }
        }
        plan
    }
}

/// A named collection of rules — the paper's *knowledge base* (KdB).
///
/// Knowledge bases can be merged (`absorb`) and extended at runtime
/// (`learn`), which is how the interface grid feeds user-defined rules
/// back into the processor grid (§3.4).
///
/// Every edit re-derives the base's match plan — where each rule's
/// guards run and which `(kind, field)` pairs working memory indexes —
/// so engines sharing one `Arc<KnowledgeBase>` share the plan too.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{KnowledgeBase, Rule};
/// let mut kb = KnowledgeBase::new();
/// kb.learn(Rule::new("r1"));
/// kb.learn(Rule::new("r1")); // replaces, does not duplicate
/// assert_eq!(kb.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    rules: Vec<Rule>,
    /// One guard placement per rule, in rule order.
    guard_plans: Vec<GuardPlan>,
    probe_plan: Arc<ProbePlan>,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new() -> Self {
        KnowledgeBase::default()
    }

    /// Creates a knowledge base from rules (later duplicates replace
    /// earlier ones by name).
    pub fn from_rules(rules: impl IntoIterator<Item = Rule>) -> Self {
        let mut kb = KnowledgeBase::new();
        kb.extend(rules);
        kb
    }

    /// Adds a rule, replacing any existing rule with the same name.
    pub fn learn(&mut self, rule: Rule) {
        self.extend([rule]);
    }

    /// Removes a rule by name. Returns it if present.
    pub fn forget(&mut self, name: &str) -> Option<Rule> {
        let idx = self.rules.iter().position(|r| r.name() == name)?;
        let rule = self.rules.remove(idx);
        self.replan();
        Some(rule)
    }

    /// Merges all rules of `other` into `self` (the paper's "shared
    /// knowledge" across sites).
    pub fn absorb(&mut self, other: KnowledgeBase) {
        self.extend(other.rules);
    }

    /// Looks up a rule by name.
    pub fn get(&self, name: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.name() == name)
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the knowledge base has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The set of skills (first-pattern kinds) the rules need; used when a
    /// container advertises its knowledge to the directory.
    pub fn skills(&self) -> Vec<&str> {
        let mut skills: Vec<&str> = self.rules.iter().filter_map(Rule::skill).collect();
        skills.sort_unstable();
        skills.dedup();
        skills
    }

    /// Guard placement of the rule at `index`.
    pub(crate) fn guard_plan(&self, index: usize) -> &GuardPlan {
        &self.guard_plans[index]
    }

    /// The `(kind, field)` pairs working memory must index.
    pub(crate) fn probe_plan(&self) -> &Arc<ProbePlan> {
        &self.probe_plan
    }

    fn replan(&mut self) {
        self.guard_plans = self.rules.iter().map(GuardPlan::of).collect();
        let probe_plan = ProbePlan::of(&self.rules);
        if *self.probe_plan != probe_plan {
            self.probe_plan = Arc::new(probe_plan);
        }
    }
}

impl FromIterator<Rule> for KnowledgeBase {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        KnowledgeBase::from_rules(iter)
    }
}

impl Extend<Rule> for KnowledgeBase {
    fn extend<T: IntoIterator<Item = Rule>>(&mut self, iter: T) {
        for rule in iter {
            if let Some(existing) = self.rules.iter_mut().find(|r| r.name() == rule.name()) {
                *existing = rule;
            } else {
                self.rules.push(rule);
            }
        }
        self.replan();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FieldPattern;

    #[test]
    fn guard_comparisons() {
        let mut b = Bindings::new();
        b.bind("x", Term::from(5.0));
        let cases = [
            (GuardOp::Lt, 6.0, true),
            (GuardOp::Le, 5.0, true),
            (GuardOp::Gt, 4.0, true),
            (GuardOp::Ge, 5.0, true),
            (GuardOp::Eq, 5.0, true),
            (GuardOp::Ne, 5.0, false),
            (GuardOp::Lt, 5.0, false),
        ];
        for (op, rhs, expected) in cases {
            let g = Guard::new(
                Operand::Var("x".into()),
                op,
                Operand::Const(Term::from(rhs)),
            );
            assert_eq!(g.eval(&b), expected, "{g}");
        }
    }

    #[test]
    fn guard_with_unbound_var_is_false() {
        let g = Guard::new(
            Operand::Var("missing".into()),
            GuardOp::Eq,
            Operand::Const(Term::from(1.0)),
        );
        assert!(!g.eval(&Bindings::new()));
    }

    #[test]
    fn guard_on_mixed_types_is_false_for_orderings() {
        let mut b = Bindings::new();
        b.bind("s", Term::from("text"));
        let g = Guard::new(
            Operand::Var("s".into()),
            GuardOp::Gt,
            Operand::Const(Term::from(1.0)),
        );
        assert!(!g.eval(&b));
        // But inequality between different types holds.
        let ne = Guard::new(
            Operand::Var("s".into()),
            GuardOp::Ne,
            Operand::Const(Term::from(1.0)),
        );
        assert!(ne.eval(&b));
    }

    #[test]
    fn assert_effect_instantiates_with_bindings() {
        let mut b = Bindings::new();
        b.bind("d", Term::from("r1"));
        let e = Effect::Assert {
            kind: "problem".into(),
            fields: vec![
                ("device".into(), Operand::Var("d".into())),
                ("kind".into(), Operand::Const(Term::from("cpu"))),
            ],
        };
        let fact = e.instantiate(&b).unwrap();
        assert_eq!(fact.kind(), "problem");
        assert_eq!(fact.field("device").unwrap().as_str(), Some("r1"));
    }

    #[test]
    fn assert_effect_with_unbound_var_yields_none() {
        let e = Effect::Assert {
            kind: "p".into(),
            fields: vec![("d".into(), Operand::Var("nope".into()))],
        };
        assert_eq!(e.instantiate(&Bindings::new()), None);
    }

    #[test]
    fn kb_learn_replaces_by_name() {
        let mut kb = KnowledgeBase::new();
        kb.learn(Rule::new("r").salience(1));
        kb.learn(Rule::new("r").salience(9));
        assert_eq!(kb.len(), 1);
        assert_eq!(kb.get("r").unwrap().salience_value(), 9);
    }

    #[test]
    fn kb_absorb_merges() {
        let mut a = KnowledgeBase::from_rules([Rule::new("x")]);
        let b = KnowledgeBase::from_rules([Rule::new("x").salience(2), Rule::new("y")]);
        a.absorb(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("x").unwrap().salience_value(), 2);
    }

    #[test]
    fn kb_forget_removes() {
        let mut kb = KnowledgeBase::from_rules([Rule::new("x"), Rule::new("y")]);
        assert!(kb.forget("x").is_some());
        assert!(kb.forget("x").is_none());
        assert_eq!(kb.len(), 1);
    }

    #[test]
    fn kb_skills_deduplicate_first_pattern_kinds() {
        let kb = KnowledgeBase::from_rules([
            Rule::new("a").when(Pattern::new("obs")),
            Rule::new("b").when(Pattern::new("obs")),
            Rule::new("c").when(Pattern::new("problem")),
            Rule::new("d"), // no pattern, no skill
        ]);
        assert_eq!(kb.skills(), ["obs", "problem"]);
    }

    #[test]
    fn rule_skill_is_first_pattern_kind() {
        let r = Rule::new("r")
            .when(Pattern::new("disk").field("v", FieldPattern::Any))
            .when(Pattern::new("cpu"));
        assert_eq!(r.skill(), Some("disk"));
    }
}
