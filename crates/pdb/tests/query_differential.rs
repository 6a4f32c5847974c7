//! Differential test of conjunctive-query evaluation: random small queries
//! on random small databases must give exactly the answers of a brute-force
//! nested loop over every combination of tuples, and a disk-backed copy of
//! each database must give answers bit-identical to the heap-backed one.
//!
//! The databases mix three kinds of table: tuple-independent `R(a)`,
//! `S(a, b)` and `T(b)`; a block-independent-disjoint `B(a, s)`, whose
//! multi-valued block variables make self-joins produce inconsistent
//! clauses; and a deterministic `D(s, b)` with constant-true lineage. The
//! `s` columns hold strings, every other column integers.

use std::collections::BTreeMap;

use events::{Clause, Dnf};
use pdb::storage::testutil::TempDir;
use pdb::{AnnotatedTuple, ConjunctiveQuery, Database, IneqOp, Operand, QueryAnswer, Term, Value};
use proptest::prelude::*;

/// How a table's tuples get their lineage.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// One fresh Boolean variable per tuple.
    Independent,
    /// One multi-valued variable per block of alternatives.
    Bid,
    /// The constant `true`.
    Deterministic,
}

/// The relations, their kinds and columns, in creation order. Columns
/// named `s` hold strings.
const RELATIONS: [(&str, Kind, &[&str]); 5] = [
    ("R", Kind::Independent, &["a"]),
    ("S", Kind::Independent, &["a", "b"]),
    ("T", Kind::Independent, &["b"]),
    ("B", Kind::Bid, &["a", "s"]),
    ("D", Kind::Deterministic, &["s", "b"]),
];

/// The query variables a term of an integer column may use.
const INT_VARS: [&str; 3] = ["A", "B", "C"];

/// The query variables a term of a string column may use.
const STR_VARS: [&str; 2] = ["X", "Y"];

const OPS: [IneqOp; 5] = [IneqOp::Lt, IneqOp::Le, IneqOp::Gt, IneqOp::Ge, IneqOp::Neq];

/// Attribute values are drawn from `0..DOMAIN` (integers) or its string
/// counterpart, so joins and predicates both pass and fail often.
const DOMAIN: i64 = 3;

/// Blocks of `(values, probability)` alternatives of one relation; every
/// block of a table that is not [`Kind::Bid`] has one row.
type Blocks = Vec<Vec<(Vec<Value>, f64)>>;

/// A random database and a random query over it.
#[derive(Debug, Clone)]
struct Case {
    tables: Vec<Blocks>,
    query: ConjunctiveQuery,
}

/// The value `x` in a column: an integer, or a string in column `s`.
fn value(column: &str, x: i64) -> Value {
    match column {
        "s" => Value::Str(format!("s{x}")),
        _ => Value::Int(x),
    }
}

/// One to five blocks of two or three alternatives (one for tables that
/// are not BID), values in `0..DOMAIN`, or, one time in five, no rows at
/// all. The alternatives of a block share their first column, the block
/// key, so a self-join on the key pairs alternatives of one block. Block
/// probabilities stay below 1.
fn table(kind: Kind, columns: &'static [&'static str]) -> impl Strategy<Value = Blocks> {
    let width = if kind == Kind::Bid { 2..4 } else { 1..2 };
    let row = (prop::collection::vec(0..DOMAIN, columns.len()), 0.05f64..0.3);
    let block = prop::collection::vec(row, width);
    (0..5, prop::collection::vec(block, 1..6)).prop_map(move |(k, blocks)| {
        let blocks = if k == 0 { Vec::new() } else { blocks };
        blocks
            .into_iter()
            .map(|block| {
                let key = block[0].0[0];
                block
                    .into_iter()
                    .map(|(mut xs, p)| {
                        xs[0] = key;
                        (columns.iter().zip(xs).map(|(c, x)| value(c, x)).collect(), p)
                    })
                    .collect()
            })
            .collect()
    })
}

/// A term of a column: a variable of the column's type (three times in
/// four) or a constant of that type.
fn term(column: &str, k: usize, x: i64) -> Term {
    let vars: &[&str] = if column == "s" { &STR_VARS } else { &INT_VARS };
    match k {
        0..3 => Term::var(vars[k % vars.len()]),
        _ => Term::Const(value(column, x)),
    }
}

/// A query of one to four subgoals (self-joins included), up to three
/// predicates and a head drawn from the variables its subgoals bind, so
/// the query is range-restricted. A predicate constant takes the type of
/// the column that first binds the predicate's variable.
fn query() -> impl Strategy<Value = ConjunctiveQuery> {
    // One extra draw goes to the BID table, so its self-joins are common.
    let subgoal = (0..RELATIONS.len() + 1, prop::collection::vec((0..4usize, 0..DOMAIN), 2..3));
    let vars = INT_VARS.len() + STR_VARS.len();
    let predicate = (0..vars, 0..OPS.len(), 0..vars + 1, 0..DOMAIN);
    (
        prop::collection::vec(subgoal, 1..5),
        prop::collection::vec(predicate, 0..4),
        prop::collection::vec(prop::bool::ANY, vars..vars + 1),
    )
        .prop_map(move |(subgoals, predicates, in_head)| {
            let mut q = ConjunctiveQuery::new("random");
            let mut column_of: BTreeMap<String, &str> = BTreeMap::new();
            for (rel, terms) in subgoals {
                let (name, _, columns) = RELATIONS.get(rel).copied().unwrap_or(RELATIONS[3]);
                let terms: Vec<Term> =
                    columns.iter().zip(terms).map(|(c, (k, x))| term(c, k, x)).collect();
                for (&column, t) in columns.iter().zip(&terms) {
                    if let Term::Var(v) = t {
                        column_of.entry(v.clone()).or_insert(column);
                    }
                }
                q = q.with_subgoal(name, terms);
            }
            let bound: Vec<&str> = column_of.keys().map(String::as_str).collect();
            if bound.is_empty() {
                return q;
            }
            for (l, op, r, x) in predicates {
                let left = bound[l % bound.len()];
                q = match r {
                    r if r < vars => q.with_var_predicate(left, OPS[op], bound[r % bound.len()]),
                    _ => q.with_const_predicate(left, OPS[op], value(column_of[left], x)),
                };
            }
            let head: Vec<&str> =
                bound.iter().zip(in_head).filter(|(_, keep)| *keep).map(|(v, _)| *v).collect();
            q.with_head(&head)
        })
}

fn case() -> impl Strategy<Value = Case> {
    let table = |i: usize| table(RELATIONS[i].1, RELATIONS[i].2);
    (table(0), table(1), table(2), table(3), table(4), query())
        .prop_map(|(r, s, t, b, d, query)| Case { tables: vec![r, s, t, b, d], query })
}

fn load(db: &mut Database, tables: &[Blocks]) {
    for (&(name, kind, columns), blocks) in RELATIONS.iter().zip(tables) {
        let rows = blocks.iter().flatten().cloned();
        match kind {
            Kind::Independent => {
                db.add_tuple_independent_table(name, columns, rows.collect());
            }
            Kind::Bid => {
                db.add_bid_table(name, columns, blocks.clone());
            }
            Kind::Deterministic => {
                db.add_deterministic_table(name, columns, rows.map(|(values, _)| values).collect());
            }
        }
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
/// conjunctions of their lineages per head value. A head value whose
/// disjunction is empty (every conjunction pairs two alternatives of one
/// BID block) is in no possible world and is dropped.
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
        .filter(|answer| !answer.lineage.is_empty())
        .collect()
}

/// A BID self-join that pairs the alternatives of one block: the heads
/// `(s0, s1)` and `(s1, s0)` only ever conjoin two alternatives of the
/// block, so they are no answer, on either store. Random cases rarely
/// produce such a head, so this one is fixed.
#[test]
fn heads_in_no_possible_world_are_dropped() {
    let blocks = vec![vec![
        (vec![Value::Int(0), Value::str("s0")], 0.3),
        (vec![Value::Int(0), Value::str("s1")], 0.5),
    ]];
    let v = Term::var;
    let pairs = ConjunctiveQuery::new("pairs")
        .with_subgoal("B", vec![v("A"), v("X")])
        .with_subgoal("B", vec![v("A"), v("Y")]);
    let pairs = pairs.with_head(&["X", "Y"]);
    let both = ConjunctiveQuery::new("both")
        .with_subgoal("B", vec![v("A"), Term::Const(Value::str("s0"))])
        .with_subgoal("B", vec![v("A"), Term::Const(Value::str("s1"))]);

    let mut heap = Database::new();
    heap.add_bid_table("B", &["a", "s"], blocks.clone());
    let dir = TempDir::new("query-no-world");
    let mut disk = Database::open_disk(dir.path(), 64).expect("open disk store");
    disk.add_bid_table("B", &["a", "s"], blocks);
    for db in [&heap, &disk] {
        let alternatives: Vec<AnnotatedTuple> = db.scan("B").map(|t| t.into_owned()).collect();
        let answer = |i: usize| QueryAnswer {
            head: vec![alternatives[i].values[1].clone(); 2],
            lineage: alternatives[i].lineage.clone(),
        };
        assert_eq!(pairs.evaluate(db), vec![answer(0), answer(1)]);
        assert_eq!(pairs.evaluate(db), brute_force(&pairs, db));
        assert_eq!(both.evaluate(db), Vec::new(), "a Boolean query with no world has no answer");
        assert_eq!(both.evaluate(db), brute_force(&both, db));
    }
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
