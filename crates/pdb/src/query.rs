//! Conjunctive queries with inequality predicates, their evaluation to
//! lineage DNFs, and the structural classifications (hierarchical, IQ) that
//! govern tractability (Section VI of the paper).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use events::{Atom, Clause, Dnf};

use crate::database::Database;
use crate::value::Value;

/// A term in a subgoal: a query variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A named query variable.
    Var(String),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// Shorthand for a constant term.
    pub fn constant(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }
}

/// A query subgoal `R(t1, …, tk)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubGoal {
    /// Name of the relation in the [`Database`].
    pub relation: String,
    /// Positional terms.
    pub terms: Vec<Term>,
}

/// Comparison operators allowed in inequality predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IneqOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `!=`
    Neq,
}

impl IneqOp {
    fn eval(&self, l: &Value, r: &Value) -> bool {
        match self {
            IneqOp::Lt => l < r,
            IneqOp::Le => l <= r,
            IneqOp::Gt => l > r,
            IneqOp::Ge => l >= r,
            IneqOp::Neq => l != r,
        }
    }
}

/// An inequality predicate between a query variable and either another query
/// variable or a constant.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Left-hand query variable.
    pub left: String,
    /// Comparison operator.
    pub op: IneqOp,
    /// Right-hand operand.
    pub right: Operand,
}

/// Right-hand operand of a [`Predicate`].
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A query variable.
    Var(String),
    /// A constant.
    Const(Value),
}

/// One answer tuple of a query: its head values and lineage DNF.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Values of the head variables (empty for Boolean queries).
    pub head: Vec<Value>,
    /// The lineage formula of the answer.
    pub lineage: Dnf,
}

/// A conjunctive query with optional inequality predicates:
/// `Q(head) :- R1(t̄1), …, Rn(t̄n), predicates`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctiveQuery {
    /// Query name (used in reports).
    pub name: String,
    /// Head (distinguished) variables.
    pub head: Vec<String>,
    /// Subgoals.
    pub subgoals: Vec<SubGoal>,
    /// Inequality predicates.
    pub predicates: Vec<Predicate>,
}

impl ConjunctiveQuery {
    /// Creates an empty (Boolean, no-subgoal) query with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ConjunctiveQuery {
            name: name.into(),
            head: Vec::new(),
            subgoals: Vec::new(),
            predicates: Vec::new(),
        }
    }

    /// Adds head variables.
    pub fn with_head(mut self, vars: &[&str]) -> Self {
        self.head.extend(vars.iter().map(|v| (*v).to_owned()));
        self
    }

    /// Adds a subgoal.
    pub fn with_subgoal(mut self, relation: &str, terms: Vec<Term>) -> Self {
        self.subgoals.push(SubGoal { relation: relation.to_owned(), terms });
        self
    }

    /// Adds an inequality predicate between two query variables.
    pub fn with_var_predicate(mut self, left: &str, op: IneqOp, right: &str) -> Self {
        self.predicates.push(Predicate {
            left: left.to_owned(),
            op,
            right: Operand::Var(right.to_owned()),
        });
        self
    }

    /// Adds an inequality predicate between a query variable and a constant.
    pub fn with_const_predicate(mut self, left: &str, op: IneqOp, right: impl Into<Value>) -> Self {
        self.predicates.push(Predicate {
            left: left.to_owned(),
            op,
            right: Operand::Const(right.into()),
        });
        self
    }

    /// `true` when the query has no head variables (a Boolean query).
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// All query variables mentioned in subgoals.
    pub fn variables(&self) -> BTreeSet<String> {
        self.subgoals
            .iter()
            .flat_map(|sg| sg.terms.iter())
            .filter_map(|t| match t {
                Term::Var(v) => Some(v.clone()),
                Term::Const(_) => None,
            })
            .collect()
    }

    /// Indices of the subgoals mentioning a variable.
    pub fn subgoals_of(&self, var: &str) -> BTreeSet<usize> {
        self.subgoals
            .iter()
            .enumerate()
            .filter(|(_, sg)| sg.terms.iter().any(|t| matches!(t, Term::Var(v) if v == var)))
            .map(|(i, _)| i)
            .collect()
    }

    /// `true` when two subgoals reference the same relation.
    pub fn has_self_join(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.subgoals.iter().any(|sg| !seen.insert(sg.relation.clone()))
    }

    /// The hierarchical-query test of Definition 6.1 (Dalvi-Suciu): for any
    /// two *non-head* query variables, their subgoal sets are either disjoint
    /// or one contains the other. Hierarchical queries without self-joins are
    /// exactly the tractable conjunctive queries on tuple-independent
    /// databases.
    pub fn is_hierarchical(&self) -> bool {
        let head: BTreeSet<&str> = self.head.iter().map(|s| s.as_str()).collect();
        let vars: Vec<String> =
            self.variables().into_iter().filter(|v| !head.contains(v.as_str())).collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                let a = self.subgoals_of(&vars[i]);
                let b = self.subgoals_of(&vars[j]);
                let disjoint = a.is_disjoint(&b);
                let contained = a.is_subset(&b) || b.is_subset(&a);
                if !disjoint && !contained {
                    return false;
                }
            }
        }
        true
    }

    /// The IQ-query test of Definitions 6.5/6.6 (Olteanu-Huang): subgoals
    /// range over *distinct* relations, their non-head variable sets are
    /// pairwise disjoint (no equi-joins), and the inequality predicates have
    /// the *max-one* property — at most one variable per subgoal occurs in
    /// inequalities with variables of other subgoals.
    pub fn is_iq(&self) -> bool {
        if self.has_self_join() {
            return false;
        }
        let head: BTreeSet<&str> = self.head.iter().map(|s| s.as_str()).collect();
        // Per-subgoal non-head variable sets must be pairwise disjoint.
        let sets: Vec<BTreeSet<String>> = self
            .subgoals
            .iter()
            .map(|sg| {
                sg.terms
                    .iter()
                    .filter_map(|t| match t {
                        Term::Var(v) if !head.contains(v.as_str()) => Some(v.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                if !sets[i].is_disjoint(&sets[j]) {
                    return false;
                }
            }
        }
        // Max-one property: for each subgoal, at most one of its variables
        // appears in cross-subgoal inequality predicates.
        let subgoal_of = |v: &str| sets.iter().position(|s| s.contains(v));
        let mut cross_vars: Vec<BTreeSet<String>> = vec![BTreeSet::new(); sets.len()];
        for p in &self.predicates {
            let Operand::Var(rv) = &p.right else { continue };
            let (Some(li), Some(ri)) = (subgoal_of(&p.left), subgoal_of(rv)) else {
                continue;
            };
            if li != ri {
                cross_vars[li].insert(p.left.clone());
                cross_vars[ri].insert(rv.clone());
            }
        }
        cross_vars.iter().all(|s| s.len() <= 1)
    }

    /// Evaluates the query on a database, returning one [`QueryAnswer`] per
    /// distinct head-value combination (a single answer with empty head for
    /// Boolean queries, provided at least one satisfying assignment exists).
    ///
    /// The query is first compiled into a left-to-right join plan. Every
    /// variable gets a slot, numbered in order of first appearance. For
    /// each subgoal the plan fixes, once, which tuple positions probe the
    /// partial assignments (variables bound by earlier subgoals), and where
    /// each inequality predicate is decided: at the first subgoal that binds
    /// both of its operands. A *tuple-local* check — a constant in the
    /// subgoal, a variable repeated within it, or a predicate over its own
    /// new variables and constants — runs once per scanned tuple, before
    /// the probe. A *cross* predicate, which reads a slot bound earlier,
    /// runs per candidate partial on the values in place.
    ///
    /// A partial binds every slot bound so far, except after the last
    /// subgoal, where it keeps only the head: a Boolean query's final
    /// partials hold no values at all. Partials live in flat buffers, one
    /// row of values and one lineage clause each; a matched tuple whose
    /// lineage has `k` clauses yields `k` partials (∧ distributes over ∨).
    /// Nothing is built for a candidate that a check rejects. At the end,
    /// partials are grouped by head values and each group's clauses become
    /// one canonical [`Dnf`], which drops the inconsistent ones that
    /// block-independent self-joins produce. The lineage of an answer is
    /// thus the disjunction over satisfying assignments of the conjunction
    /// of the matched tuples' lineages — exactly the DNF whose probability
    /// is the answer confidence. A head value whose every assignment
    /// conjoins two alternatives of one block has the empty lineage: it is
    /// in no possible world, so it is not an answer.
    ///
    /// # Panics
    ///
    /// Panics when the query is not range-restricted: a head variable or a
    /// predicate variable that no subgoal binds. The message names the
    /// query and the variable.
    pub fn evaluate(&self, db: &Database) -> Vec<QueryAnswer> {
        // One partial that binds nothing, with the clause `true`.
        let mut partials = Partials::new(0);
        partials.ends.push(0);
        for step in &self.plan() {
            if partials.len() == 0 || db.schema(step.relation).is_none() {
                return Vec::new();
            }
            // Hash index of the *partials* on their probe key; the subgoal's
            // rows then stream past it in one storage scan. This is the
            // out-of-core orientation: the relation — possibly disk-resident
            // and much larger than RAM — is never materialized, and no row
            // is copied: the scan lends each row's values and clauses where
            // they lie (a heap store's tuple, or a disk scan's decode
            // buffers, reused row after row), and a match copies only what
            // its output partials keep. The final answers do not
            // depend on the orientation or on the order partials are built
            // in, because answer lineages are canonicalized by
            // `Dnf::from_clauses` below. Buckets are keyed by the key's hash,
            // so a probe allocates nothing; the key itself is compared per
            // candidate.
            let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
            for k in 0..partials.len() {
                let bound = partials.values(k);
                let key = key_hash(step.key.iter().map(|&(_, s)| &bound[s]));
                by_key.entry(key).or_default().push(k);
            }

            let mut out = Partials::new(step.out.len());
            let mut rows = db.rows(step.relation);
            while let Some(row) = rows.next_row() {
                let values = row.values;
                if !step.local.iter().all(|c| c.holds(&[], values)) {
                    continue;
                }
                let key = key_hash(step.key.iter().map(|&(p, _)| &values[p]));
                let Some(candidates) = by_key.get(&key) else { continue };
                for &k in candidates {
                    let bound = partials.values(k);
                    if !step.key.iter().all(|&(p, s)| bound[s] == values[p])
                        || !step.cross.iter().all(|c| c.holds(bound, values))
                    {
                        continue;
                    }
                    for clause in row.clauses() {
                        out.values
                            .extend(step.out.iter().map(|src| src.read(bound, values).clone()));
                        out.atoms.extend_from_slice(partials.atoms(k));
                        out.atoms.extend_from_slice(clause);
                        out.ends.push(out.atoms.len());
                    }
                }
            }
            partials = out;
        }

        // The last layout is the head: group by it and disjoin the clauses.
        let mut order: Vec<usize> = (0..partials.len()).collect();
        order.sort_unstable_by(|&a, &b| partials.values(a).cmp(partials.values(b)));
        order
            .chunk_by(|&a, &b| partials.values(a) == partials.values(b))
            .map(|group| QueryAnswer {
                head: partials.values(group[0]).to_vec(),
                lineage: Dnf::from_clauses(
                    group.iter().map(|&k| Clause::from_atoms(partials.atoms(k).iter().copied())),
                ),
            })
            .filter(|answer| !answer.lineage.is_empty())
            .collect()
    }

    /// Compiles the join plan [`ConjunctiveQuery::evaluate`] runs, one
    /// [`Step`] per subgoal in query order. Slots are numbered in order of
    /// first appearance; each step writes partials that bind every slot
    /// bound so far, and the last step writes the head.
    /// Panics when a head or predicate variable has no slot.
    fn plan(&self) -> Vec<Step<'_>> {
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        // `origin[s]`: the subgoal that binds slot `s`, and the position in
        // it that binds it first.
        let mut origin: Vec<(usize, usize)> = Vec::new();
        let mut steps: Vec<Step<'_>> = Vec::with_capacity(self.subgoals.len());
        for (i, sg) in self.subgoals.iter().enumerate() {
            let mut step = Step {
                relation: &sg.relation,
                local: Vec::new(),
                key: Vec::new(),
                cross: Vec::new(),
                out: Vec::new(),
            };
            for (pos, term) in sg.terms.iter().enumerate() {
                let v = match term {
                    Term::Const(c) => {
                        step.local.push(Check {
                            left: Src::Pos(pos),
                            op: None,
                            right: Src::Const(c),
                        });
                        continue;
                    }
                    Term::Var(v) => v.as_str(),
                };
                match slot_of.get(v) {
                    Some(&s) if origin[s].0 < i => step.key.push((pos, s)),
                    Some(&s) => step.local.push(Check {
                        left: Src::Pos(pos),
                        op: None,
                        right: Src::Pos(origin[s].1),
                    }),
                    None => {
                        slot_of.insert(v, origin.len());
                        origin.push((i, pos));
                    }
                }
            }
            steps.push(step);
        }

        let slot = |role: &str, v: &str| -> usize {
            *slot_of.get(v).unwrap_or_else(|| {
                panic!(
                    "query `{}`: {role} variable `{v}` is bound by no subgoal \
                     (the query is not range-restricted)",
                    self.name
                )
            })
        };
        for pred in &self.predicates {
            let left = slot("predicate", &pred.left);
            // `Ok(slot)` for a variable operand, `Err(value)` for a constant.
            let right = match &pred.right {
                Operand::Var(v) => Ok(slot("predicate", v)),
                Operand::Const(c) => Err(c),
            };
            // Decided at the first subgoal that binds both operands.
            let at = origin[left].0.max(right.map_or(0, |s| origin[s].0));
            let src = |s: usize| {
                let (sg, pos) = origin[s];
                if sg < at {
                    Src::Slot(s)
                } else {
                    Src::Pos(pos)
                }
            };
            let check = Check {
                left: src(left),
                op: Some(pred.op),
                right: right.map_or_else(Src::Const, src),
            };
            let step = &mut steps[at];
            if matches!(check.left, Src::Slot(_)) || matches!(check.right, Src::Slot(_)) {
                step.cross.push(check);
            } else {
                step.local.push(check);
            }
        }
        let head: Vec<usize> = self.head.iter().map(|v| slot("head", v)).collect();

        // Every step but the last writes all slots bound so far; the last
        // writes the head. Slots are numbered in order of first appearance,
        // so a step's input is the prefix of slots bound by earlier
        // subgoals, and `Src::Slot` indexes it directly.
        let n = steps.len();
        for (i, step) in steps.iter_mut().enumerate() {
            let output: Vec<usize> = if i + 1 == n {
                head.clone()
            } else {
                (0..origin.len()).filter(|&s| origin[s].0 <= i).collect()
            };
            step.out = output
                .into_iter()
                .map(|s| if origin[s].0 == i { Src::Pos(origin[s].1) } else { Src::Slot(s) })
                .collect();
        }
        steps
    }
}

/// The partial assignments between two join steps, in flat buffers:
/// partial `k` binds the slots of the step's layout to the row
/// `values[k * width..(k + 1) * width]` and carries one lineage clause,
/// the atoms `atoms[ends[k]..ends[k + 1]]` (unsorted, possibly
/// inconsistent).
struct Partials {
    width: usize,
    values: Vec<Value>,
    atoms: Vec<Atom>,
    ends: Vec<usize>,
}

impl Partials {
    /// No partials, in rows of `width` values.
    fn new(width: usize) -> Self {
        Partials { width, values: Vec::new(), atoms: Vec::new(), ends: vec![0] }
    }

    fn len(&self) -> usize {
        self.ends.len() - 1
    }

    fn values(&self, k: usize) -> &[Value] {
        &self.values[k * self.width..(k + 1) * self.width]
    }

    fn atoms(&self, k: usize) -> &[Atom] {
        &self.atoms[self.ends[k]..self.ends[k + 1]]
    }
}

/// One subgoal of a compiled [`ConjunctiveQuery`]. Its input partials
/// bind the slots of earlier subgoals, which `Src::Slot` and key slots
/// index.
struct Step<'q> {
    relation: &'q str,
    /// Checks that read only the scanned tuple and constants.
    local: Vec<Check<'q>>,
    /// The probe key: `(position, slot)` for each position holding a
    /// variable bound by an earlier subgoal.
    key: Vec<(usize, usize)>,
    /// Predicates that read a slot bound by an earlier subgoal.
    cross: Vec<Check<'q>>,
    /// Where each column of an output partial is read from: the input
    /// partial or the matched tuple.
    out: Vec<Src<'q>>,
}

/// Where a [`Check`] operand is read from.
#[derive(Clone, Copy)]
enum Src<'q> {
    /// A slot of the candidate partial.
    Slot(usize),
    /// A position of the scanned tuple.
    Pos(usize),
    /// A constant of the query.
    Const(&'q Value),
}

impl<'q> Src<'q> {
    fn read<'a>(self, bindings: &'a [Value], tuple: &'a [Value]) -> &'a Value
    where
        'q: 'a,
    {
        match self {
            Src::Slot(s) => &bindings[s],
            Src::Pos(p) => &tuple[p],
            Src::Const(c) => c,
        }
    }
}

/// `left op right`; `op` is `None` for equality.
struct Check<'q> {
    left: Src<'q>,
    op: Option<IneqOp>,
    right: Src<'q>,
}

impl Check<'_> {
    fn holds(&self, bindings: &[Value], tuple: &[Value]) -> bool {
        let (l, r) = (self.left.read(bindings, tuple), self.right.read(bindings, tuple));
        match self.op {
            None => l == r,
            Some(op) => op.eval(l, r),
        }
    }
}

/// Hash of a probe key, so that partials and tuples meet in one bucket
/// without building a key vector per scanned tuple.
fn key_hash<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = DefaultHasher::new();
    values.for_each(|v| v.hash(&mut h));
    h.finish()
}

#[cfg(test)]
mod tests {
    use events::LineageArena;

    use super::*;

    /// The Figure-5 social-network edge table.
    fn figure_5_database() -> Database {
        let mut db = Database::new();
        db.add_tuple_independent_table(
            "E",
            &["u", "v"],
            vec![
                (vec![Value::Int(5), Value::Int(7)], 0.9),
                (vec![Value::Int(5), Value::Int(11)], 0.8),
                (vec![Value::Int(6), Value::Int(7)], 0.1),
                (vec![Value::Int(6), Value::Int(11)], 0.9),
                (vec![Value::Int(6), Value::Int(17)], 0.5),
                (vec![Value::Int(7), Value::Int(17)], 0.2),
            ],
        );
        db
    }

    fn rst_database() -> Database {
        let mut db = Database::new();
        db.add_tuple_independent_table(
            "R",
            &["a"],
            vec![(vec![Value::Int(1)], 0.3), (vec![Value::Int(2)], 0.4)],
        );
        db.add_tuple_independent_table(
            "S",
            &["a", "b"],
            vec![
                (vec![Value::Int(1), Value::Int(10)], 0.5),
                (vec![Value::Int(1), Value::Int(20)], 0.6),
                (vec![Value::Int(2), Value::Int(10)], 0.7),
            ],
        );
        db.add_tuple_independent_table(
            "T",
            &["b"],
            vec![(vec![Value::Int(10)], 0.8), (vec![Value::Int(20)], 0.9)],
        );
        db
    }

    #[test]
    fn builder_and_classification() {
        // q1():-R1(A,B), R2(A,C) — hierarchical (Example 6.2).
        let q1 = ConjunctiveQuery::new("q1")
            .with_subgoal("R1", vec![Term::var("A"), Term::var("B")])
            .with_subgoal("R2", vec![Term::var("A"), Term::var("C")]);
        assert!(q1.is_boolean());
        assert!(q1.is_hierarchical());
        assert!(!q1.has_self_join());

        // The prototypical hard query R(X),S(X,Y),T(Y) is non-hierarchical.
        let hard = ConjunctiveQuery::new("hard")
            .with_subgoal("R", vec![Term::var("X")])
            .with_subgoal("S", vec![Term::var("X"), Term::var("Y")])
            .with_subgoal("T", vec![Term::var("Y")]);
        assert!(!hard.is_hierarchical());

        // q2(D):-R1(A,B,C), R2(A,B), R3(A,D) — hierarchical (Example 6.2).
        let q2 = ConjunctiveQuery::new("q2")
            .with_head(&["D"])
            .with_subgoal("R1", vec![Term::var("A"), Term::var("B"), Term::var("C")])
            .with_subgoal("R2", vec![Term::var("A"), Term::var("B")])
            .with_subgoal("R3", vec![Term::var("A"), Term::var("D")]);
        assert!(!q2.is_boolean());
        assert!(q2.is_hierarchical());
    }

    #[test]
    fn iq_classification_follows_example_6_7() {
        // q1():-R(E,F), T(D), T'(G,H), E < D < H.
        let q1 = ConjunctiveQuery::new("iq1")
            .with_subgoal("R", vec![Term::var("E"), Term::var("F")])
            .with_subgoal("T", vec![Term::var("D")])
            .with_subgoal("Tp", vec![Term::var("G"), Term::var("H")])
            .with_var_predicate("E", IneqOp::Lt, "D")
            .with_var_predicate("D", IneqOp::Lt, "H");
        assert!(q1.is_iq());

        // q3():-R(A), T(D) — trivially IQ (no predicates).
        let q3 = ConjunctiveQuery::new("iq3")
            .with_subgoal("R", vec![Term::var("A")])
            .with_subgoal("T", vec![Term::var("D")]);
        assert!(q3.is_iq());

        // A query with an equi-join between subgoals is not IQ.
        let eq = ConjunctiveQuery::new("eq")
            .with_subgoal("R", vec![Term::var("A")])
            .with_subgoal("S", vec![Term::var("A")]);
        assert!(!eq.is_iq());

        // Violating max-one: two variables of R occur in cross-subgoal
        // inequalities.
        let not_max_one = ConjunctiveQuery::new("nm1")
            .with_subgoal("R", vec![Term::var("E"), Term::var("F")])
            .with_subgoal("T", vec![Term::var("D")])
            .with_var_predicate("E", IneqOp::Lt, "D")
            .with_var_predicate("F", IneqOp::Lt, "D");
        assert!(!not_max_one.is_iq());

        // Self-joins are excluded.
        let selfjoin = ConjunctiveQuery::new("sj")
            .with_subgoal("E", vec![Term::var("A"), Term::var("B")])
            .with_subgoal("E", vec![Term::var("B"), Term::var("C")]);
        assert!(!selfjoin.is_iq());
        assert!(selfjoin.has_self_join());
    }

    #[test]
    fn boolean_query_lineage_matches_possible_worlds() {
        // q():-R(A), S(A,B), T(B) on the small R/S/T database.
        let db = rst_database();
        let q = ConjunctiveQuery::new("hard")
            .with_subgoal("R", vec![Term::var("A")])
            .with_subgoal("S", vec![Term::var("A"), Term::var("B")])
            .with_subgoal("T", vec![Term::var("B")]);
        let answers = q.evaluate(&db);
        assert_eq!(answers.len(), 1);
        let lineage = &answers[0].lineage;
        // Three satisfying assignments: (1,10), (1,20), (2,10).
        assert_eq!(lineage.len(), 3);
        assert!(lineage.clauses().iter().all(|c| c.len() == 3));
        // Compare against a manual possible-world computation.
        let p = lineage.exact_probability_enumeration(db.space());
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn head_variables_group_answers() {
        // q(A) :- R(A), S(A,B): one answer per R-value with S partners.
        let db = rst_database();
        let q = ConjunctiveQuery::new("per_a")
            .with_head(&["A"])
            .with_subgoal("R", vec![Term::var("A")])
            .with_subgoal("S", vec![Term::var("A"), Term::var("B")]);
        let mut answers = q.evaluate(&db);
        answers.sort_by(|a, b| a.head.cmp(&b.head));
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].head, vec![Value::Int(1)]);
        // A = 1 joins with two S tuples: lineage has two clauses.
        assert_eq!(answers[0].lineage.len(), 2);
        assert_eq!(answers[1].head, vec![Value::Int(2)]);
        assert_eq!(answers[1].lineage.len(), 1);
    }

    #[test]
    fn constants_restrict_matches() {
        let db = rst_database();
        let q = ConjunctiveQuery::new("const")
            .with_subgoal("S", vec![Term::constant(1), Term::var("B")]);
        let answers = q.evaluate(&db);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].lineage.len(), 2);
    }

    #[test]
    fn inequality_predicates_filter_assignments() {
        let db = rst_database();
        // q():-S(A,B), T(C), B < C : S-values B ∈ {10,20}, T-values C ∈ {10,20}.
        let q = ConjunctiveQuery::new("ineq")
            .with_subgoal("S", vec![Term::var("A"), Term::var("B")])
            .with_subgoal("T", vec![Term::var("C")])
            .with_var_predicate("B", IneqOp::Lt, "C");
        assert!(q.is_iq());
        let answers = q.evaluate(&db);
        assert_eq!(answers.len(), 1);
        // Only pairs with B=10, C=20 survive: S(1,10) and S(2,10) with T(20).
        assert_eq!(answers[0].lineage.len(), 2);
    }

    #[test]
    fn constant_predicates_and_empty_results() {
        let db = rst_database();
        let q = ConjunctiveQuery::new("none")
            .with_subgoal("T", vec![Term::var("B")])
            .with_const_predicate("B", IneqOp::Gt, 100);
        assert!(q.evaluate(&db).is_empty());
        let q = ConjunctiveQuery::new("some")
            .with_subgoal("T", vec![Term::var("B")])
            .with_const_predicate("B", IneqOp::Ge, 20);
        let answers = q.evaluate(&db);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].lineage.len(), 1);
    }

    #[test]
    fn missing_relation_yields_no_answers() {
        let db = rst_database();
        let q = ConjunctiveQuery::new("missing").with_subgoal("UNKNOWN", vec![Term::var("X")]);
        assert!(q.evaluate(&db).is_empty());
    }

    #[test]
    fn interned_answer_lineages_match_evaluate_bit_for_bit() {
        let db = rst_database();
        let q = ConjunctiveQuery::new("per_a")
            .with_head(&["A"])
            .with_subgoal("R", vec![Term::var("A")])
            .with_subgoal("S", vec![Term::var("A"), Term::var("B")]);
        let answers = q.evaluate(&db);
        assert_eq!(answers.len(), 2);
        let mut arena = LineageArena::new();
        for a in &answers {
            let view = arena.intern_clause_stream(a.lineage.clone().into_clauses());
            assert_eq!(view.to_dnf(&arena), a.lineage);
            assert_eq!(view.hash(&arena), a.lineage.canonical_hash());
        }
    }

    #[test]
    #[should_panic(
        expected = "query `unbound_pred`: predicate variable `Z` is bound by no subgoal"
    )]
    fn predicate_on_an_unbound_variable_is_rejected() {
        // q() :- R(A), A < Z — no subgoal binds Z, so the predicate could
        // never be applied and the lineage would be a superset of the answer.
        let q = ConjunctiveQuery::new("unbound_pred")
            .with_subgoal("R", vec![Term::var("A")])
            .with_var_predicate("A", IneqOp::Lt, "Z");
        q.evaluate(&rst_database());
    }

    #[test]
    #[should_panic(expected = "query `unbound_head`: head variable `Z` is bound by no subgoal")]
    fn head_variable_bound_by_no_subgoal_is_rejected() {
        let q = ConjunctiveQuery::new("unbound_head")
            .with_head(&["Z"])
            .with_subgoal("R", vec![Term::var("A")]);
        q.evaluate(&rst_database());
    }

    #[test]
    fn evaluation_over_a_disk_backed_database_is_bit_identical() {
        use crate::storage::testutil::TempDir;
        let dir = TempDir::new("query-parity");
        let heap = figure_5_database();
        // Tiny memtable budget: the edge table lives in runs, so evaluation
        // exercises the run-scan path rather than the memtable.
        let mut disk = crate::Database::open_disk(dir.path(), 64).expect("open");
        disk.add_tuple_independent_table(
            "E",
            &["u", "v"],
            vec![
                (vec![Value::Int(5), Value::Int(7)], 0.9),
                (vec![Value::Int(5), Value::Int(11)], 0.8),
                (vec![Value::Int(6), Value::Int(7)], 0.1),
                (vec![Value::Int(6), Value::Int(11)], 0.9),
                (vec![Value::Int(6), Value::Int(17)], 0.5),
                (vec![Value::Int(7), Value::Int(17)], 0.2),
            ],
        );
        assert!(disk.storage_stats().runs > 0, "budget must force the table into runs");
        let q = ConjunctiveQuery::new("p2")
            .with_head(&["A"])
            .with_subgoal("E", vec![Term::var("A"), Term::var("B")])
            .with_subgoal("E", vec![Term::var("B"), Term::var("C")]);
        let on_heap = q.evaluate(&heap);
        let on_disk = q.evaluate(&disk);
        assert!(!on_heap.is_empty());
        assert_eq!(on_heap.len(), on_disk.len());
        for (h, d) in on_heap.iter().zip(&on_disk) {
            assert_eq!(h.head, d.head);
            assert_eq!(h.lineage, d.lineage, "lineage must be bit-identical across stores");
        }
    }

    #[test]
    fn triangle_query_on_figure_5_graph() {
        // Triangle via a three-way self-join with ordering predicates, as in
        // Section VI-A: select conf() from E n1, E n2, E n3 where
        // n1.v = n2.u and n2.v = n3.v and n1.u = n3.u and n1.u < n2.u and n2.u < n3.v.
        let db = figure_5_database();
        let q = ConjunctiveQuery::new("triangle")
            .with_subgoal("E", vec![Term::var("A"), Term::var("B")])
            .with_subgoal("E", vec![Term::var("B"), Term::var("C")])
            .with_subgoal("E", vec![Term::var("A"), Term::var("C")])
            .with_var_predicate("A", IneqOp::Lt, "B")
            .with_var_predicate("B", IneqOp::Lt, "C");
        let answers = q.evaluate(&db);
        assert_eq!(answers.len(), 1);
        let lineage = &answers[0].lineage;
        // Figure 5 (c): the only triangle is over edges e3 ∧ e5 ∧ e6.
        assert_eq!(lineage.len(), 1);
        assert_eq!(lineage.clauses()[0].len(), 3);
        let p = lineage.exact_probability_enumeration(db.space());
        assert!((p - 0.1 * 0.5 * 0.2).abs() < 1e-9);
    }

    #[test]
    fn repeated_variable_within_subgoal() {
        // q():-E(X,X) — self-loops only; the Figure-5 graph has none.
        let db = figure_5_database();
        let q =
            ConjunctiveQuery::new("loop").with_subgoal("E", vec![Term::var("X"), Term::var("X")]);
        assert!(q.evaluate(&db).is_empty());
    }
}
