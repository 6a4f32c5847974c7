//! Propositional event algebra over independent discrete random variables.
//!
//! This crate is the substrate underneath the d-tree confidence-computation
//! algorithm of *Olteanu, Huang, Koch — "Approximate Confidence Computation in
//! Probabilistic Databases", ICDE 2010*.  It provides:
//!
//! * [`ProbabilitySpace`] — a finite set of independent random variables, each
//!   with a finite domain and a discrete probability distribution (Section III
//!   of the paper),
//! * [`Atom`] — atomic events of the form `x = a`,
//! * [`Clause`] — conjunctions of atomic events (with consistency checking),
//! * [`Dnf`] — disjunctions of clauses, i.e. the lineage formulas produced by
//!   positive relational algebra on probabilistic databases,
//! * [`Valuation`] / possible-world enumeration (exact but exponential
//!   reference semantics used by the test-suite),
//! * independence partitioning (connected components of the variable
//!   co-occurrence graph) and product factorization, the structural analyses
//!   the d-tree compiler builds on,
//! * [`DnfHash`] — a canonical 128-bit fingerprint of a DNF (an incremental
//!   combine over per-clause fingerprints), the key under which sub-formula
//!   probabilities and bounds are memoized across the lineages of a query
//!   batch,
//! * [`LineageArena`] / [`DnfView`] — the arena-interned lineage
//!   representation every confidence algorithm computes on, decomposing with
//!   zero clause cloning,
//! * [`Formula`] — arbitrary positive ∧/∨ formulas and read-once (1OF)
//!   evaluation.
//!
//! # Quick example
//!
//! ```
//! use events::{ProbabilitySpace, Dnf, Clause};
//!
//! let mut space = ProbabilitySpace::new();
//! let x = space.add_bool("x", 0.3);
//! let y = space.add_bool("y", 0.2);
//! let z = space.add_bool("z", 0.7);
//! let v = space.add_bool("v", 0.8);
//!
//! // Φ = (x ∧ y) ∨ (x ∧ z) ∨ v   (Example 5.2 in the paper)
//! let phi = Dnf::from_clauses(vec![
//!     Clause::from_bools(&[x, y]),
//!     Clause::from_bools(&[x, z]),
//!     Clause::from_bools(&[v]),
//! ]);
//! let p = phi.exact_probability_enumeration(&space);
//! assert!((p - 0.8456).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arena;
mod atom;
mod clause;
mod dnf;
mod error;
mod formula;
mod hash;
mod partition;
mod space;
mod world;

pub use arena::{ClauseAtoms, DnfView, LineageArena, LineageDelta};
pub use atom::{Atom, VarId, FALSE_VALUE, TRUE_VALUE};
pub use clause::Clause;
pub use dnf::Dnf;
pub use error::EventError;
pub use formula::Formula;
pub use hash::DnfHash;
pub use partition::{
    connected_components, connected_components_by, product_factorization, product_factorization_by,
    UnionFind, VarOrigins,
};
pub use space::{ProbabilitySpace, VariableInfo};
pub use world::{enumerate_worlds, Valuation};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EventError>;
