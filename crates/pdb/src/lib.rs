//! A probabilistic database substrate for confidence computation.
//!
//! The d-tree algorithm of the paper operates on *lineage* DNFs produced by
//! evaluating positive relational algebra queries on probabilistic databases.
//! This crate provides that substrate:
//!
//! * [`Value`], [`Schema`], [`Relation`] — relational data annotated with
//!   lineage formulas,
//! * [`Database`] — a collection of **tuple-independent** and
//!   **block-independent-disjoint (BID)** tables sharing one
//!   [`events::ProbabilitySpace`] (Figure 5 of the paper),
//! * [`algebra`] — positive relational algebra operators (select, project,
//!   join, union) that combine lineage with ∧ / ∨,
//! * [`ConjunctiveQuery`] — conjunctive queries with inequality predicates,
//!   a hash-join evaluator that returns one lineage DNF per answer tuple, the
//!   hierarchical-query test of Dalvi-Suciu (Definition 6.1), and the
//!   max-one / IQ classification of Olteanu-Huang (Definitions 6.5/6.6),
//! * [`sprout`] — the SPROUT-style exact confidence computation for
//!   hierarchical queries (the exact baseline of Section VII),
//! * [`motif`] — direct lineage constructors for the graph motif queries of
//!   the evaluation (triangle, path-2, path-3, two-degrees separation),
//! * [`confidence`] — a unified front-end dispatching to d-tree exact,
//!   d-tree approximation, SPROUT, Karp-Luby (`aconf`), or naive sampling,
//! * [`engine`] — the batched [`ConfidenceEngine`]: all answer tuples of a
//!   query in one call, parallel across lineages, with a shared sub-formula
//!   cache (per-batch by default, or long-lived across batches via
//!   [`ConfidenceEngine::with_shared_cache`]) and one batch-wide deadline,
//! * [`pool`] — streaming maintenance: [`Database::append_tuple_independent_rows`]
//!   grows tables in place, [`events::LineageDelta`]s describe the per-answer
//!   lineage growth, and the `cluster` crate's `ClusterEngine::maintain_batch`
//!   applies them to a [`ResumablePool`] of suspended d-tree frontiers so each
//!   insert round re-refines only what the new clauses actually touched,
//! * [`fault`] — deterministic failpoints ([`fault::FaultPlan`]) threaded
//!   through every fallible layer, plus the [`fault::RetryPolicy`] (bounded
//!   exponential backoff with deterministic jitter) that absorbs transient
//!   storage I/O errors — the substrate for chaos testing and graceful
//!   degradation,
//! * [`storage`] — the pluggable [`storage::TableStore`] backbone behind
//!   [`Database`]: a heap store (default, zero behavior change) and an
//!   LSM-style [`storage::DiskStore`] (WAL + byte-budgeted memtable +
//!   bloom-filtered sorted runs + compaction) whose write-ahead log doubles as
//!   the probability-space recovery log — [`Database::open_disk`] restores
//!   the exact pre-crash generation and watermark.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algebra;
pub mod confidence;
pub mod engine;
pub mod fault;
pub mod motif;
pub mod pool;
pub mod sprout;
pub mod storage;

mod database;
mod query;
mod relation;
mod value;

pub use database::{Database, TupleWriter};
pub use engine::{dedup_lineages, BatchResult, ConfidenceEngine};
pub use pool::ResumablePool;
pub use query::{ConjunctiveQuery, IneqOp, Operand, Predicate, QueryAnswer, SubGoal, Term};
pub use relation::{AnnotatedTuple, Relation, Schema};
pub use value::Value;
