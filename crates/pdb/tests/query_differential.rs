//! Differential test of conjunctive-query evaluation: random small queries
//! on random small tuple-independent `R(a)`, `S(a, b)`, `T(b)` databases
//! must give exactly the answers of a brute-force nested loop over every
//! combination of tuples, and a disk-backed copy of each database must give
//! answers bit-identical to the heap-backed one.

use std::collections::BTreeMap;

use events::{Clause, Dnf};
use pdb::storage::testutil::TempDir;
use pdb::{AnnotatedTuple, ConjunctiveQuery, Database, IneqOp, Operand, QueryAnswer, Term, Value};
use proptest::prelude::*;

/// The relations and their columns, in creation order.
const RELATIONS: [(&str, &[&str]); 3] = [("R", &["a"]), ("S", &["a", "b"]), ("T", &["b"])];

/// The query variables a term may use.
const VARS: [&str; 3] = ["A", "B", "C"];

const OPS: [IneqOp; 5] = [IneqOp::Lt, IneqOp::Le, IneqOp::Gt, IneqOp::Ge, IneqOp::Neq];

/// Attribute values are drawn from `0..DOMAIN`, so joins and predicates
/// both pass and fail often.
const DOMAIN: i64 = 3;

/// `(values, probability)` rows of one relation.
type Rows = Vec<(Vec<Value>, f64)>;

/// A random database and a random query over it.
#[derive(Debug, Clone)]
struct Case {
    tables: Vec<Rows>,
    query: ConjunctiveQuery,
}

/// Up to four rows per relation, values in `0..DOMAIN`.
fn rows(arity: usize) -> impl Strategy<Value = Rows> {
    let row = ((0..DOMAIN, 0..DOMAIN), 0.1f64..0.9);
    prop::collection::vec(row, 0..5).prop_map(move |rows| {
        rows.into_iter()
            .map(|((x, y), p)| ([Value::Int(x), Value::Int(y)][..arity].to_vec(), p))
            .collect()
    })
}

/// A term: one of [`VARS`] (three times in four) or a constant.
fn term() -> impl Strategy<Value = Term> {
    (0..VARS.len() + 1, 0..DOMAIN).prop_map(|(k, c)| match VARS.get(k) {
        Some(v) => Term::var(*v),
        None => Term::constant(c),
    })
}

/// A query of one to three subgoals (self-joins included), up to three
/// predicates and a head drawn from the variables its subgoals bind, so
/// the query is range-restricted.
fn query() -> impl Strategy<Value = ConjunctiveQuery> {
    let subgoal = (0..RELATIONS.len(), prop::collection::vec(term(), 2..3));
    let predicate = (0..VARS.len(), 0..OPS.len(), 0..VARS.len() + 1, 0..DOMAIN);
    (
        prop::collection::vec(subgoal, 1..4),
        prop::collection::vec(predicate, 0..4),
        prop::collection::vec(prop::bool::ANY, VARS.len()..VARS.len() + 1),
    )
        .prop_map(|(subgoals, predicates, in_head)| {
            let mut q = ConjunctiveQuery::new("random");
            for (rel, terms) in subgoals {
                let (name, columns) = RELATIONS[rel];
                q = q.with_subgoal(name, terms[..columns.len()].to_vec());
            }
            let bound: Vec<String> = VARS
                .iter()
                .filter(|v| q.variables().contains(**v))
                .map(|v| (*v).to_owned())
                .collect();
            if bound.is_empty() {
                return q;
            }
            for (l, op, r, c) in predicates {
                let left = &bound[l % bound.len()];
                q = match r {
                    r if r < VARS.len() => {
                        q.with_var_predicate(left, OPS[op], &bound[r % bound.len()])
                    }
                    _ => q.with_const_predicate(left, OPS[op], c),
                };
            }
            let head: Vec<&str> = bound
                .iter()
                .zip(in_head)
                .filter(|(_, keep)| *keep)
                .map(|(v, _)| v.as_str())
                .collect();
            q.with_head(&head)
        })
}

fn case() -> impl Strategy<Value = Case> {
    (rows(1), rows(2), rows(1), query())
        .prop_map(|(r, s, t, query)| Case { tables: vec![r, s, t], query })
}

fn load(db: &mut Database, tables: &[Rows]) {
    for ((name, columns), rows) in RELATIONS.iter().zip(tables) {
        db.add_tuple_independent_table(name, columns, rows.clone());
    }
}

fn holds(op: IneqOp, l: &Value, r: &Value) -> bool {
    match op {
        IneqOp::Lt => l < r,
        IneqOp::Le => l <= r,
        IneqOp::Gt => l > r,
        IneqOp::Ge => l >= r,
        IneqOp::Neq => l != r,
    }
}

/// The oracle: tries every combination of one tuple per subgoal, keeps
/// those that satisfy every term and predicate, and disjoins the
/// conjunctions of their lineages per head value.
fn brute_force(q: &ConjunctiveQuery, db: &Database) -> Vec<QueryAnswer> {
    let tables: Vec<Vec<AnnotatedTuple>> = q
        .subgoals
        .iter()
        .map(|sg| db.scan(&sg.relation).map(|t| t.into_owned()).collect())
        .collect();
    let combinations: usize = tables.iter().map(Vec::len).product();
    let mut grouped: BTreeMap<Vec<Value>, Vec<Clause>> = BTreeMap::new();
    'combinations: for k in 0..combinations {
        let mut rest = k;
        let picked: Vec<&AnnotatedTuple> = tables
            .iter()
            .map(|t| {
                let tuple = &t[rest % t.len()];
                rest /= t.len();
                tuple
            })
            .collect();
        let mut bindings: BTreeMap<&str, &Value> = BTreeMap::new();
        for (sg, tuple) in q.subgoals.iter().zip(&picked) {
            for (term, value) in sg.terms.iter().zip(&tuple.values) {
                let ok = match term {
                    Term::Const(c) => c == value,
                    Term::Var(v) => *bindings.entry(v).or_insert(value) == value,
                };
                if !ok {
                    continue 'combinations;
                }
            }
        }
        for p in &q.predicates {
            let right = match &p.right {
                Operand::Var(v) => bindings[v.as_str()],
                Operand::Const(c) => c,
            };
            if !holds(p.op, bindings[p.left.as_str()], right) {
                continue 'combinations;
            }
        }
        let clauses = picked.iter().fold(vec![Clause::empty()], |acc, tuple| {
            acc.iter().flat_map(|a| tuple.lineage.clauses().iter().map(move |b| a.and(b))).collect()
        });
        let head = q.head.iter().map(|v| bindings[v.as_str()].clone()).collect();
        grouped.entry(head).or_default().extend(clauses);
    }
    grouped
        .into_iter()
        .map(|(head, clauses)| QueryAnswer { head, lineage: Dnf::from_clauses(clauses) })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `evaluate` equals the brute-force nested loop: same heads, same
    /// lineages clause for clause.
    #[test]
    fn evaluate_matches_brute_force(case in case()) {
        let mut db = Database::new();
        load(&mut db, &case.tables);
        let got = case.query.evaluate(&db);
        let want = brute_force(&case.query, &db);
        prop_assert_eq!(got, want, "query {:?}", case.query);
    }

    /// A disk-backed copy whose tables live in runs (a tiny memtable)
    /// answers bit-identically to the heap-backed database.
    #[test]
    fn disk_answers_are_bit_identical_to_heap(case in case()) {
        let mut heap = Database::new();
        load(&mut heap, &case.tables);
        let dir = TempDir::new("query-differential");
        let mut disk = Database::open_disk(dir.path(), 64).expect("open disk store");
        load(&mut disk, &case.tables);
        let (on_disk, on_heap) = (case.query.evaluate(&disk), case.query.evaluate(&heap));
        prop_assert_eq!(on_disk, on_heap, "query {:?}", case.query);
    }
}
