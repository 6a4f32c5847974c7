//! d-trees: decomposition trees for exact and approximate confidence
//! computation in probabilistic databases.
//!
//! This crate implements the primary contribution of *Olteanu, Huang, Koch —
//! "Approximate Confidence Computation in Probabilistic Databases", ICDE
//! 2010*:
//!
//! * **Compilation of DNFs into d-trees** (Section IV, Figure 1) using three
//!   decompositions: independent-or (⊗), independent-and (⊙), and Shannon
//!   expansion / exclusive-or (⊕). See [`compile`] and [`DTree`].
//! * **Lower/upper probability bounds** for DNFs via the bucket heuristic of
//!   Figure 3 ([`dnf_bounds`]) and for partial d-trees by monotone bound
//!   propagation (Proposition 5.4, [`DTree::bounds`]).
//! * **Deterministic ε-approximation** of DNF probability, both with an
//!   absolute and a relative error guarantee (Proposition 5.8), using the
//!   incremental, memory-efficient compilation with *leaf closing* of
//!   Section V-D (Lemma 5.11 / Theorem 5.12). See [`ApproxCompiler`].
//! * **Exact confidence computation** that evaluates the d-tree on the fly
//!   without materialising it ([`exact_probability`]), which is polynomial
//!   for all known tractable conjunctive queries without self-joins
//!   (Section VI) when the lineage carries variable-origin metadata.
//! * **Shared sub-formula memoization** ([`SubformulaCache`]): a thread-safe
//!   memo of exact leaf probabilities and bucket bounds keyed by canonical
//!   DNF hash, reused within one approximation run, across the lineages of a
//!   batch, and — scoped to a probability-space generation and bounded by
//!   CLOCK/LRU eviction — across whole batches (the `cache` argument of
//!   [`ApproxCompiler::run_view`], [`exact_probability_view`] and
//!   [`ResumableCompilation::resume`]).
//!
//! Every algorithm computes on a [`events::DnfView`] over a
//! [`events::LineageArena`]; the `&Dnf` entry points ([`exact_probability`],
//! [`dnf_bounds`], [`ApproxCompiler::run`]) intern their input into a fresh
//! arena and call the view entry.
//!
//! # Quick example
//!
//! ```
//! use events::{ProbabilitySpace, Dnf, Clause};
//! use dtree::{ApproxCompiler, ApproxOptions, ErrorBound, exact_probability, CompileOptions};
//!
//! let mut space = ProbabilitySpace::new();
//! let x = space.add_bool("x", 0.3);
//! let y = space.add_bool("y", 0.2);
//! let z = space.add_bool("z", 0.7);
//! let v = space.add_bool("v", 0.8);
//! let phi = Dnf::from_clauses(vec![
//!     Clause::from_bools(&[x, y]),
//!     Clause::from_bools(&[x, z]),
//!     Clause::from_bools(&[v]),
//! ]);
//!
//! // Exact confidence.
//! let exact = exact_probability(&phi, &space, &CompileOptions::default());
//! assert!((exact.probability - 0.8456).abs() < 1e-9);
//!
//! // Absolute 0.01-approximation.
//! let approx = ApproxCompiler::new(ApproxOptions::absolute(0.01)).run(&phi, &space);
//! assert!(approx.converged);
//! assert!((approx.estimate - 0.8456).abs() <= 0.01);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod approx;
mod bounds;
mod cache;
mod compile;
mod exact;
mod node;
mod order;
mod partial;
pub mod reference;
mod resume;
mod stats;

pub use approx::{ApproxCompiler, ApproxOptions, ApproxResult, ErrorBound};
pub use bounds::{dnf_bounds, dnf_bounds_sorted, dnf_bounds_view, Bounds};
pub use cache::{CacheStats, SubformulaCache};
pub use compile::{compile, CompileOptions};
pub use exact::{exact_probability, exact_probability_view, ExactResult};
pub use node::DTree;
pub use order::{choose_iq_variable, choose_variable, VarOrder};
pub use resume::{ResumableCompilation, ResumeBudget};
pub use stats::CompileStats;
