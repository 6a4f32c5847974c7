//! SPROUT-style exact confidence computation for hierarchical queries.
//!
//! SPROUT \[21\] is the exact baseline of the paper's experiments: it exploits
//! the *query* structure (not the lineage) to compute answer confidences for
//! tractable conjunctive queries without self-joins on tuple-independent
//! databases in polynomial time. This module implements the lazy safe-plan
//! evaluation:
//!
//! * **independent join** — if the subgoals split into groups that share no
//!   unbound variable, the groups are independent and their probabilities
//!   multiply;
//! * **independent project** — if some variable occurs in *every* subgoal
//!   (a "root" variable of the hierarchy), distinct values of that variable
//!   yield mutually independent sub-problems, combined as
//!   `1 − Π (1 − p_value)`;
//! * **base case** — a single subgoal: the answer is the probability that at
//!   least one matching tuple is present, `1 − Π (1 − p_tuple)` (tuples of a
//!   tuple-independent table are independent).
//!
//! For non-hierarchical queries the recursion gets stuck and the functions
//! return `None` — exactly the dichotomy of Dalvi-Suciu.

use std::collections::{BTreeMap, BTreeSet};

use events::UnionFind;

use crate::database::Database;
use crate::query::{ConjunctiveQuery, SubGoal, Term};
use crate::value::Value;

/// Exact confidence of a *Boolean* hierarchical query without self-joins.
///
/// Returns `None` when the query is not Boolean, has a self-join, uses
/// inequality predicates, or is not hierarchical (the safe-plan recursion
/// cannot complete).
pub fn boolean_confidence(query: &ConjunctiveQuery, db: &Database) -> Option<f64> {
    if !query.is_boolean() || query.has_self_join() || !query.predicates.is_empty() {
        return None;
    }
    if !query.is_hierarchical() {
        return None;
    }
    evaluate(&query.subgoals, &BTreeMap::new(), db)
}

/// Exact confidence of every answer of a hierarchical query (grouping by head
/// values). Returns `None` under the same conditions as
/// [`boolean_confidence`].
pub fn answer_confidences(
    query: &ConjunctiveQuery,
    db: &Database,
) -> Option<Vec<(Vec<Value>, f64)>> {
    if query.has_self_join() || !query.predicates.is_empty() || !query.is_hierarchical() {
        return None;
    }
    if query.is_boolean() {
        return boolean_confidence(query, db).map(|p| vec![(Vec::new(), p)]);
    }
    // Enumerate the candidate head-value combinations via ordinary query
    // evaluation, then compute each answer's confidence with the head
    // variables bound to the answer values.
    let answers = query.evaluate(db);
    let mut out = Vec::with_capacity(answers.len());
    for answer in answers {
        let bindings: BTreeMap<String, Value> =
            query.head.iter().cloned().zip(answer.head.iter().cloned()).collect();
        let p = evaluate(&query.subgoals, &bindings, db)?;
        out.push((answer.head, p));
    }
    Some(out)
}

/// Recursive safe-plan evaluation of a set of subgoals under variable
/// bindings.
fn evaluate(
    subgoals: &[SubGoal],
    bindings: &BTreeMap<String, Value>,
    db: &Database,
) -> Option<f64> {
    if subgoals.is_empty() {
        return Some(1.0);
    }

    // Base case: a single subgoal — independent union over matching tuples.
    if subgoals.len() == 1 {
        return Some(single_subgoal_probability(&subgoals[0], bindings, db));
    }

    // Independent join: group subgoals by shared *unbound* variables.
    let groups = independent_groups(subgoals, bindings);
    if groups.len() > 1 {
        let mut product = 1.0;
        for group in groups {
            let subset: Vec<SubGoal> = group.into_iter().map(|i| subgoals[i].clone()).collect();
            product *= evaluate(&subset, bindings, db)?;
        }
        return Some(product);
    }

    // Independent project: find a root variable occurring (unbound) in every
    // subgoal.
    let root = find_root_variable(subgoals, bindings)?;
    let values = candidate_values(subgoals, &root, bindings, db);
    let mut complement = 1.0;
    for value in values {
        let mut extended = bindings.clone();
        extended.insert(root.clone(), value);
        let p = evaluate(subgoals, &extended, db)?;
        complement *= 1.0 - p;
    }
    Some(1.0 - complement)
}

/// Probability that at least one tuple of the relation matches the subgoal
/// under the bindings.
fn single_subgoal_probability(
    sg: &SubGoal,
    bindings: &BTreeMap<String, Value>,
    db: &Database,
) -> f64 {
    let equal = fixed_positions(sg, bindings);
    // Repeated unbound variables: each later position must equal the first.
    let mut first: BTreeMap<&str, usize> = BTreeMap::new();
    let mut repeats: Vec<(usize, usize)> = Vec::new();
    for (pos, term) in sg.terms.iter().enumerate() {
        if let Term::Var(v) = term {
            if !bindings.contains_key(v) {
                match first.get(v.as_str()) {
                    Some(&at) => repeats.push((pos, at)),
                    None => {
                        first.insert(v, pos);
                    }
                }
            }
        }
    }
    let mut complement = 1.0;
    // Stream the subgoal's rows where they lie: SPROUT only needs each
    // tuple's values and marginal, never an owned tuple.
    let mut rows = db.rows(&sg.relation);
    while let Some(row) = rows.next_row() {
        if !equal.iter().all(|&(pos, value)| &row.values[pos] == value)
            || !repeats.iter().all(|&(pos, at)| row.values[pos] == row.values[at])
        {
            continue;
        }
        // The lineage of a base tuple is a single clause (one variable, or
        // ⊤ for deterministic tuples): its marginal is the product of its
        // atoms' marginals, which is what enumerating its worlds sums to.
        let p = match row.num_clauses() {
            1 => row.clauses().flat_map(|c| c.iter()).map(|&a| db.space().atom_prob(a)).product(),
            _ => row.to_tuple().probability(db.space()),
        };
        complement *= 1.0 - p;
    }
    1.0 - complement
}

/// The `(position, value)` pairs a tuple must match for `sg` under
/// `bindings`: its constants and its bound variables.
fn fixed_positions<'a>(
    sg: &'a SubGoal,
    bindings: &'a BTreeMap<String, Value>,
) -> Vec<(usize, &'a Value)> {
    sg.terms
        .iter()
        .enumerate()
        .filter_map(|(pos, term)| match term {
            Term::Const(c) => Some((pos, c)),
            Term::Var(v) => bindings.get(v).map(|b| (pos, b)),
        })
        .collect()
}

/// Partitions subgoal indices into groups connected through shared unbound
/// variables.
fn independent_groups(subgoals: &[SubGoal], bindings: &BTreeMap<String, Value>) -> Vec<Vec<usize>> {
    let mut uf: UnionFind<usize> = UnionFind::new();
    let mut var_owner: BTreeMap<String, usize> = BTreeMap::new();
    for (i, sg) in subgoals.iter().enumerate() {
        uf.insert(i);
        for term in &sg.terms {
            if let Term::Var(v) = term {
                if bindings.contains_key(v) {
                    continue;
                }
                match var_owner.get(v) {
                    Some(&j) => uf.union(i, j),
                    None => {
                        var_owner.insert(v.clone(), i);
                    }
                }
            }
        }
    }
    let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..subgoals.len() {
        let r = uf.find(i);
        by_root.entry(r).or_default().push(i);
    }
    by_root.into_values().collect()
}

/// Finds a variable occurring (unbound) in all subgoals — the root of the
/// hierarchy at this recursion level.
fn find_root_variable(subgoals: &[SubGoal], bindings: &BTreeMap<String, Value>) -> Option<String> {
    let mut candidates: Option<BTreeSet<String>> = None;
    for sg in subgoals {
        let vars: BTreeSet<String> = sg
            .terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) if !bindings.contains_key(v) => Some(v.clone()),
                _ => None,
            })
            .collect();
        candidates = Some(match candidates {
            None => vars,
            Some(prev) => prev.intersection(&vars).cloned().collect(),
        });
        if candidates.as_ref().map(BTreeSet::is_empty).unwrap_or(false) {
            return None;
        }
    }
    candidates.and_then(|c| c.into_iter().next())
}

/// Candidate values for the root variable: the intersection over subgoals of
/// the values appearing in the variable's column(s) among matching tuples.
fn candidate_values(
    subgoals: &[SubGoal],
    root: &str,
    bindings: &BTreeMap<String, Value>,
    db: &Database,
) -> Vec<Value> {
    let mut result: Option<BTreeSet<Value>> = None;
    for sg in subgoals {
        if db.schema(&sg.relation).is_none() {
            return Vec::new();
        }
        let equal = fixed_positions(sg, bindings);
        let at_root: Vec<usize> = sg
            .terms
            .iter()
            .enumerate()
            .filter(|(_, term)| matches!(term, Term::Var(v) if v == root))
            .map(|(pos, _)| pos)
            .collect();
        let mut values = BTreeSet::new();
        let mut rows = db.rows(&sg.relation);
        while let Some(row) = rows.next_row() {
            if !equal.iter().all(|&(pos, value)| &row.values[pos] == value) {
                continue;
            }
            for &pos in &at_root {
                if !values.contains(&row.values[pos]) {
                    values.insert(row.values[pos].clone());
                }
            }
        }
        result = Some(match result {
            None => values,
            Some(prev) => prev.intersection(&values).cloned().collect(),
        });
    }
    result.map(|s| s.into_iter().collect()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Term;
    use dtree::{exact_probability, CompileOptions};

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

    /// q():-R(A), S(A,B): hierarchical; SPROUT must agree with brute force.
    #[test]
    fn hierarchical_boolean_query_matches_lineage_probability() {
        let db = rst_database();
        let q = ConjunctiveQuery::new("q")
            .with_subgoal("R", vec![Term::var("A")])
            .with_subgoal("S", vec![Term::var("A"), Term::var("B")]);
        assert!(q.is_hierarchical());
        let p_sprout = boolean_confidence(&q, &db).expect("hierarchical query");
        let answers = q.evaluate(&db);
        let p_exact = answers[0].lineage.exact_probability_enumeration(db.space());
        assert!((p_sprout - p_exact).abs() < 1e-12, "sprout {p_sprout} exact {p_exact}");
    }

    /// A single-subgoal query is an independent union over its tuples.
    #[test]
    fn single_subgoal_probability_is_independent_union() {
        let db = rst_database();
        let q = ConjunctiveQuery::new("r").with_subgoal("R", vec![Term::var("A")]);
        let p = boolean_confidence(&q, &db).unwrap();
        assert!((p - (1.0 - 0.7 * 0.6)).abs() < 1e-12);
    }

    /// Independent join of two subgoals that share no variable.
    #[test]
    fn independent_join_multiplies() {
        let db = rst_database();
        let q = ConjunctiveQuery::new("rt")
            .with_subgoal("R", vec![Term::var("A")])
            .with_subgoal("T", vec![Term::var("B")]);
        let p = boolean_confidence(&q, &db).unwrap();
        let p_r = 1.0 - 0.7 * 0.6;
        let p_t = 1.0 - 0.2 * 0.1;
        assert!((p - p_r * p_t).abs() < 1e-12);
    }

    /// The hard pattern R(X),S(X,Y),T(Y) is rejected.
    #[test]
    fn non_hierarchical_queries_are_rejected() {
        let db = rst_database();
        let q = ConjunctiveQuery::new("hard")
            .with_subgoal("R", vec![Term::var("X")])
            .with_subgoal("S", vec![Term::var("X"), Term::var("Y")])
            .with_subgoal("T", vec![Term::var("Y")]);
        assert_eq!(boolean_confidence(&q, &db), None);
    }

    /// Self-joins and inequality predicates are out of scope for the safe
    /// plan.
    #[test]
    fn self_joins_and_predicates_are_rejected() {
        let db = rst_database();
        let sj = ConjunctiveQuery::new("sj")
            .with_subgoal("S", vec![Term::var("A"), Term::var("B")])
            .with_subgoal("S", vec![Term::var("B"), Term::var("C")]);
        assert_eq!(boolean_confidence(&sj, &db), None);
        let iq = ConjunctiveQuery::new("iq")
            .with_subgoal("R", vec![Term::var("A")])
            .with_subgoal("T", vec![Term::var("B")])
            .with_var_predicate("A", crate::query::IneqOp::Lt, "B");
        assert_eq!(boolean_confidence(&iq, &db), None);
    }

    /// Per-answer confidences of a non-Boolean hierarchical query agree with
    /// the d-tree exact evaluation of each answer's lineage.
    #[test]
    fn answer_confidences_match_dtree_exact() {
        let db = rst_database();
        let q = ConjunctiveQuery::new("per_a")
            .with_head(&["A"])
            .with_subgoal("R", vec![Term::var("A")])
            .with_subgoal("S", vec![Term::var("A"), Term::var("B")]);
        let sprout = answer_confidences(&q, &db).expect("hierarchical");
        let answers = q.evaluate(&db);
        assert_eq!(sprout.len(), answers.len());
        for ((head, p_sprout), answer) in sprout.iter().zip(answers.iter()) {
            assert_eq!(head, &answer.head);
            let p_dtree = exact_probability(
                &answer.lineage,
                db.space(),
                &CompileOptions::with_origins(db.origins().clone()),
            )
            .probability;
            assert!((p_sprout - p_dtree).abs() < 1e-9);
        }
    }

    /// Deterministic tuples (probability 1) are handled: they force the
    /// single-subgoal probability to 1.
    #[test]
    fn deterministic_tuples_saturate_probability() {
        let mut db = Database::new();
        db.add_tuple_independent_table(
            "R",
            &["a"],
            vec![(vec![Value::Int(1)], 1.0), (vec![Value::Int(2)], 0.5)],
        );
        let q = ConjunctiveQuery::new("r").with_subgoal("R", vec![Term::var("A")]);
        let p = boolean_confidence(&q, &db).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    /// Larger hierarchical query q():-R1(A,B), R2(A,C): SPROUT equals the
    /// exact lineage probability computed by the d-tree.
    #[test]
    fn two_sided_hierarchy() {
        let mut db = Database::new();
        db.add_tuple_independent_table(
            "R1",
            &["a", "b"],
            vec![
                (vec![Value::Int(1), Value::Int(1)], 0.2),
                (vec![Value::Int(1), Value::Int(2)], 0.3),
                (vec![Value::Int(2), Value::Int(1)], 0.4),
            ],
        );
        db.add_tuple_independent_table(
            "R2",
            &["a", "c"],
            vec![
                (vec![Value::Int(1), Value::Int(5)], 0.5),
                (vec![Value::Int(2), Value::Int(5)], 0.6),
                (vec![Value::Int(2), Value::Int(6)], 0.7),
            ],
        );
        let q = ConjunctiveQuery::new("q1")
            .with_subgoal("R1", vec![Term::var("A"), Term::var("B")])
            .with_subgoal("R2", vec![Term::var("A"), Term::var("C")]);
        assert!(q.is_hierarchical());
        let p_sprout = boolean_confidence(&q, &db).unwrap();
        let lineage = &q.evaluate(&db)[0].lineage;
        let p_exact = lineage.exact_probability_enumeration(db.space());
        assert!((p_sprout - p_exact).abs() < 1e-12);
    }
}
