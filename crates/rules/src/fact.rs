use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::rule::ProbePlan;

/// A field value inside a [`Fact`].
///
/// # Examples
///
/// ```
/// use agentgrid_rules::Term;
/// assert!(Term::from(3.0) > Term::from(2.5));
/// assert_eq!(Term::from("up").as_str(), Some("up"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// A numeric value (all numbers are `f64`).
    Num(f64),
    /// A string value.
    Str(String),
    /// A boolean value.
    Bool(bool),
}

impl Term {
    /// Returns the number if this is a `Num`.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Term::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Term::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Term::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl PartialOrd for Term {
    /// Numbers order numerically, strings lexicographically, booleans
    /// false-before-true; mixed kinds are unordered.
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Term::Num(a), Term::Num(b)) => a.partial_cmp(b),
            (Term::Str(a), Term::Str(b)) => Some(a.cmp(b)),
            (Term::Bool(a), Term::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Num(x) => write!(f, "{x}"),
            Term::Str(s) => write!(f, "{s}"),
            Term::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<f64> for Term {
    fn from(x: f64) -> Self {
        Term::Num(x)
    }
}

impl From<i64> for Term {
    fn from(x: i64) -> Self {
        Term::Num(x as f64)
    }
}

impl From<&str> for Term {
    fn from(s: &str) -> Self {
        Term::Str(s.to_owned())
    }
}

impl From<String> for Term {
    fn from(s: String) -> Self {
        Term::Str(s)
    }
}

impl From<bool> for Term {
    fn from(b: bool) -> Self {
        Term::Bool(b)
    }
}

/// Identifier of a fact inside a [`WorkingMemory`].
///
/// Ids are assigned in insertion order, which the engine uses as recency
/// for conflict resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FactId(pub(crate) u64);

impl FactId {
    /// The raw id value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A typed tuple in working memory: a *kind* plus named fields.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::Fact;
/// let f = Fact::new("obs")
///     .with("device", "sw-1")
///     .with("value", 42.0);
/// assert_eq!(f.kind(), "obs");
/// assert_eq!(f.field("value").unwrap().as_num(), Some(42.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fact {
    kind: String,
    fields: BTreeMap<String, Term>,
}

impl Fact {
    /// Creates an empty fact of the given kind.
    pub fn new(kind: impl Into<String>) -> Self {
        Fact {
            kind: kind.into(),
            fields: BTreeMap::new(),
        }
    }

    /// Adds or replaces a field (builder style).
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Term>) -> Self {
        self.fields.insert(name.into(), value.into());
        self
    }

    /// The fact kind.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Looks up a field.
    pub fn field(&self, name: &str) -> Option<&Term> {
        self.fields.get(name)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Term)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the fact has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.kind)?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, ")")
    }
}

/// Index key for a [`Term`] value inside the alpha index.
///
/// `Term` itself is only `PartialOrd`/`PartialEq` (floats), so the index
/// stores a totally ordered encoding. Numbers use the IEEE-754 total-order
/// bit trick, with `-0.0` normalised to `0.0` so that the bucket for a key
/// is always a *superset* of the facts whose field compares `==` to the
/// probed value (`Pattern::matches` re-checks equality on candidates).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum TermKey {
    Bool(bool),
    Num(u64),
    Str(String),
}

impl From<&Term> for TermKey {
    fn from(term: &Term) -> Self {
        match term {
            Term::Num(x) => {
                let x = if *x == 0.0 { 0.0 } else { *x };
                let bits = x.to_bits();
                let ordered = if bits >> 63 == 1 {
                    !bits
                } else {
                    bits | (1 << 63)
                };
                TermKey::Num(ordered)
            }
            Term::Str(s) => TermKey::Str(s.clone()),
            Term::Bool(b) => TermKey::Bool(*b),
        }
    }
}

/// The fact store the engine reasons over.
///
/// Facts are never mutated in place: rules assert new facts and retract
/// old ones, which keeps activation bookkeeping sound.
///
/// Two alpha indexes are maintained alongside the id-ordered map: a
/// per-kind id set (so `of_kind` never scans unrelated facts) and a
/// `(kind, field, value)` index that `Pattern::match_all` probes for
/// literal and already-bound fields. The field index covers only the
/// `(kind, field)` pairs of the knowledge base's probe plan (an engine
/// installs it); a probe on any other pair gets the kind's id set.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{Fact, WorkingMemory};
/// let mut wm = WorkingMemory::new();
/// let id = wm.insert(Fact::new("obs").with("value", 1.0));
/// assert_eq!(wm.len(), 1);
/// wm.retract(id);
/// assert!(wm.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WorkingMemory {
    /// Slot `i` holds fact `FactId(i)` until it is retracted.
    facts: Vec<Option<Fact>>,
    live: usize,
    /// Ascending ids per kind.
    by_kind: BTreeMap<String, Vec<FactId>>,
    /// One value index (ascending ids per value) per planned
    /// `(kind, field)` pair.
    by_field: BTreeMap<String, BTreeMap<String, BTreeMap<TermKey, Vec<FactId>>>>,
    plan: Arc<ProbePlan>,
}

impl WorkingMemory {
    /// Creates an empty working memory.
    pub fn new() -> Self {
        WorkingMemory::default()
    }

    /// An empty working memory indexing the pairs of `plan`.
    pub(crate) fn with_plan(plan: &Arc<ProbePlan>) -> Self {
        let mut wm = WorkingMemory::new();
        wm.set_plan(plan);
        wm
    }

    /// Indexes exactly the pairs of `plan`: pairs it drops lose their
    /// index, pairs it adds are indexed over the facts already present.
    pub(crate) fn set_plan(&mut self, plan: &Arc<ProbePlan>) {
        if Arc::ptr_eq(&self.plan, plan) {
            return;
        }
        let mut old = std::mem::take(&mut self.by_field);
        for (kind, fields) in &plan.fields {
            let mut kind_index = old.remove(kind).unwrap_or_default();
            kind_index.retain(|field, _| fields.contains(field));
            for field in fields {
                if kind_index.contains_key(field) {
                    continue;
                }
                let mut values: BTreeMap<TermKey, Vec<FactId>> = BTreeMap::new();
                for id in self.by_kind.get(kind).into_iter().flatten() {
                    if let Some(value) = self.get(*id).and_then(|f| f.field(field)) {
                        values.entry(TermKey::from(value)).or_default().push(*id);
                    }
                }
                kind_index.insert(field.clone(), values);
            }
            self.by_field.insert(kind.clone(), kind_index);
        }
        self.plan = Arc::clone(plan);
    }

    /// Removes every fact and restarts ids at zero, keeping the plan.
    pub(crate) fn clear(&mut self) {
        self.facts.clear();
        self.live = 0;
        self.by_kind.clear();
        for values in self.by_field.values_mut().flat_map(BTreeMap::values_mut) {
            values.clear();
        }
    }

    /// Inserts a fact, returning its id.
    pub fn insert(&mut self, fact: Fact) -> FactId {
        let id = FactId(self.facts.len() as u64);
        // Ids only grow, so pushing keeps every bucket ascending.
        match self.by_kind.get_mut(&fact.kind) {
            Some(ids) => ids.push(id),
            None => {
                self.by_kind.insert(fact.kind.clone(), vec![id]);
            }
        }
        if let Some(kind_index) = self.by_field.get_mut(&fact.kind) {
            for (name, values) in kind_index.iter_mut() {
                if let Some(value) = fact.fields.get(name) {
                    values.entry(TermKey::from(value)).or_default().push(id);
                }
            }
        }
        self.facts.push(Some(fact));
        self.live += 1;
        id
    }

    /// Removes a fact. Returns the fact if it was present.
    pub fn retract(&mut self, id: FactId) -> Option<Fact> {
        let fact = self.facts.get_mut(id.0 as usize)?.take()?;
        self.live -= 1;
        if let Some(ids) = self.by_kind.get_mut(&fact.kind) {
            remove_id(ids, id);
        }
        if let Some(kind_index) = self.by_field.get_mut(&fact.kind) {
            for (name, values) in kind_index.iter_mut() {
                let Some(value) = fact.fields.get(name) else {
                    continue;
                };
                let key = TermKey::from(value);
                if let Some(ids) = values.get_mut(&key) {
                    remove_id(ids, id);
                    if ids.is_empty() {
                        values.remove(&key);
                    }
                }
            }
        }
        Some(fact)
    }

    /// Looks up a fact by id.
    pub fn get(&self, id: FactId) -> Option<&Fact> {
        self.facts.get(id.0 as usize)?.as_ref()
    }

    /// Iterates over `(id, fact)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts
            .iter()
            .enumerate()
            .filter_map(|(i, f)| Some((FactId(i as u64), f.as_ref()?)))
    }

    /// Iterates over the facts of one kind, in insertion order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = (FactId, &'a Fact)> + 'a {
        self.ids_of_kind(kind)
            .into_iter()
            .flatten()
            .map(|id| (*id, self.get(*id).expect("indexed fact exists")))
    }

    /// Id set for a kind (alpha index, level 0).
    pub(crate) fn ids_of_kind(&self, kind: &str) -> Option<&[FactId]> {
        self.by_kind.get(kind).map(Vec::as_slice)
    }

    /// Id set for facts of `kind` whose field `name` indexes equal to
    /// `value` (alpha index, level 1); for a pair outside the probe plan,
    /// the kind's id set. `None` means no candidate exists; callers must
    /// still confirm with [`Fact::field`] equality.
    pub(crate) fn ids_by_field(&self, kind: &str, name: &str, value: &Term) -> Option<&[FactId]> {
        match self.by_field.get(kind).and_then(|fields| fields.get(name)) {
            Some(values) => values.get(&TermKey::from(value)).map(Vec::as_slice),
            None => self.ids_of_kind(kind),
        }
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// Removes `id` from an ascending id bucket.
fn remove_id(ids: &mut Vec<FactId>, id: FactId) {
    if let Ok(i) = ids.binary_search(&id) {
        ids.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A working memory indexing the given `(kind, field)` pairs.
    fn planned(pairs: &[(&str, &str)]) -> WorkingMemory {
        let mut plan = ProbePlan::default();
        for (kind, field) in pairs {
            plan.fields
                .entry(kind.to_string())
                .or_default()
                .insert(field.to_string());
        }
        WorkingMemory::with_plan(&Arc::new(plan))
    }

    #[test]
    fn term_conversions_and_accessors() {
        assert_eq!(Term::from(2i64).as_num(), Some(2.0));
        assert_eq!(Term::from("x").as_str(), Some("x"));
        assert_eq!(Term::from(true).as_bool(), Some(true));
        assert_eq!(Term::from(1.0).as_str(), None);
    }

    #[test]
    fn term_ordering_within_kind_only() {
        assert!(Term::from(1.0) < Term::from(2.0));
        assert!(Term::from("a") < Term::from("b"));
        assert!(Term::from(false) < Term::from(true));
        assert_eq!(Term::from(1.0).partial_cmp(&Term::from("a")), None);
    }

    #[test]
    fn fact_builder_and_display() {
        let f = Fact::new("obs").with("b", 2.0).with("a", "x");
        assert_eq!(f.len(), 2);
        assert_eq!(f.to_string(), "obs(a: x, b: 2)");
    }

    #[test]
    fn memory_assigns_monotonic_ids() {
        let mut wm = WorkingMemory::new();
        let a = wm.insert(Fact::new("x"));
        let b = wm.insert(Fact::new("y"));
        assert!(a < b);
        assert_eq!(wm.get(a).unwrap().kind(), "x");
    }

    #[test]
    fn retract_removes_and_returns() {
        let mut wm = WorkingMemory::new();
        let id = wm.insert(Fact::new("x"));
        assert_eq!(wm.retract(id).unwrap().kind(), "x");
        assert!(wm.retract(id).is_none());
        assert!(wm.is_empty());
    }

    #[test]
    fn of_kind_filters() {
        let mut wm = WorkingMemory::new();
        wm.insert(Fact::new("a"));
        wm.insert(Fact::new("b"));
        wm.insert(Fact::new("a"));
        assert_eq!(wm.of_kind("a").count(), 2);
        assert_eq!(wm.of_kind("c").count(), 0);
    }

    #[test]
    fn ids_are_not_reused_after_retract() {
        let mut wm = WorkingMemory::new();
        let a = wm.insert(Fact::new("x"));
        wm.retract(a);
        let b = wm.insert(Fact::new("y"));
        assert_ne!(a, b);
    }

    #[test]
    fn field_index_probes_by_value() {
        let mut wm = planned(&[("obs", "device"), ("obs", "value")]);
        let a = wm.insert(Fact::new("obs").with("device", "sw-1").with("value", 10.0));
        let b = wm.insert(Fact::new("obs").with("device", "sw-2").with("value", 10.0));
        wm.insert(Fact::new("obs").with("device", "sw-3").with("value", 20.0));

        let hit = wm
            .ids_by_field("obs", "device", &Term::from("sw-1"))
            .unwrap();
        assert_eq!(hit.to_vec(), vec![a]);
        let tens = wm.ids_by_field("obs", "value", &Term::from(10.0)).unwrap();
        assert_eq!(tens.to_vec(), vec![a, b]);
        assert!(wm
            .ids_by_field("obs", "device", &Term::from("sw-9"))
            .is_none());
        assert!(wm
            .ids_by_field("link", "device", &Term::from("sw-1"))
            .is_none());
    }

    #[test]
    fn field_index_tracks_retraction() {
        let mut wm = planned(&[("obs", "device")]);
        let a = wm.insert(Fact::new("obs").with("device", "sw-1"));
        wm.retract(a);
        assert!(wm
            .ids_by_field("obs", "device", &Term::from("sw-1"))
            .is_none());
        assert_eq!(wm.of_kind("obs").count(), 0);
    }

    #[test]
    fn unplanned_pair_probes_the_kind_bucket() {
        let mut wm = planned(&[("obs", "device")]);
        let a = wm.insert(Fact::new("obs").with("device", "sw-1").with("value", 1.0));
        let b = wm.insert(Fact::new("obs").with("device", "sw-2").with("value", 2.0));
        let all = wm.ids_by_field("obs", "value", &Term::from(9.0)).unwrap();
        assert_eq!(all.to_vec(), vec![a, b]);
        // A plan that adds the pair indexes the facts already present.
        let mut plan = (*wm.plan).clone();
        plan.fields
            .get_mut("obs")
            .unwrap()
            .insert("value".to_owned());
        wm.set_plan(&Arc::new(plan));
        let twos = wm.ids_by_field("obs", "value", &Term::from(2.0)).unwrap();
        assert_eq!(twos.to_vec(), vec![b]);
        assert!(wm.ids_by_field("obs", "value", &Term::from(9.0)).is_none());
    }

    #[test]
    fn clear_keeps_the_plan_and_restarts_ids() {
        let mut wm = planned(&[("obs", "device")]);
        wm.insert(Fact::new("obs").with("device", "sw-1"));
        wm.clear();
        assert!(wm.is_empty());
        let a = wm.insert(Fact::new("obs").with("device", "sw-1"));
        assert_eq!(a.value(), 0);
        let hit = wm
            .ids_by_field("obs", "device", &Term::from("sw-1"))
            .unwrap();
        assert_eq!(hit.to_vec(), vec![a]);
    }

    #[test]
    fn negative_zero_shares_a_bucket_with_zero() {
        let mut wm = planned(&[("obs", "value")]);
        let a = wm.insert(Fact::new("obs").with("value", 0.0));
        let b = wm.insert(Fact::new("obs").with("value", -0.0));
        let zeros = wm.ids_by_field("obs", "value", &Term::from(-0.0)).unwrap();
        assert_eq!(zeros.to_vec(), vec![a, b]);
    }

    #[test]
    fn term_key_orders_numbers_totally() {
        let keys: Vec<TermKey> = [-3.5, -0.0, 0.0, 1.0, f64::INFINITY]
            .iter()
            .map(|x| TermKey::from(&Term::Num(*x)))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys[1], keys[2]);
        assert_eq!(sorted, keys);
    }
}
