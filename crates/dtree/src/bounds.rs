//! Probability bounds: the `[lower, upper]` interval abstraction and the
//! bucket heuristic of Figure 3 that computes bounds for a DNF leaf without
//! refining it.

use events::{Dnf, DnfView, LineageArena, ProbabilitySpace, VarId};

/// A closed interval `[lower, upper]` bracketing a probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Lower bound (inclusive).
    pub lower: f64,
    /// Upper bound (inclusive).
    pub upper: f64,
}

impl Bounds {
    /// A point interval `[p, p]` for an exactly known probability.
    #[inline]
    pub fn point(p: f64) -> Self {
        Bounds { lower: p, upper: p }
    }

    /// The interval `[0, 1]` (no information).
    #[inline]
    pub fn vacuous() -> Self {
        Bounds { lower: 0.0, upper: 1.0 }
    }

    /// Constructs a bounds interval, clamping both ends to `[0, 1]` and
    /// ensuring `lower ≤ upper`.
    pub fn new(lower: f64, upper: f64) -> Self {
        let lower = lower.clamp(0.0, 1.0);
        let upper = upper.clamp(0.0, 1.0);
        Bounds { lower: lower.min(upper), upper: lower.max(upper) }
    }

    /// Width of the interval.
    #[inline]
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// `true` if the interval is (numerically) a single point.
    #[inline]
    pub fn is_point(&self) -> bool {
        self.width() <= f64::EPSILON
    }

    /// The midpoint of the interval.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// `true` if `p` lies within the interval (with a small tolerance for
    /// floating-point rounding).
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lower - 1e-12 && p <= self.upper + 1e-12
    }

    /// Combines children bounds of an independent-or (⊗) node:
    /// `P = 1 - Π (1 - Pᵢ)`, applied separately to lower and upper bounds
    /// (the formula is monotone in each argument).
    pub fn combine_or<I: IntoIterator<Item = Bounds>>(children: I) -> Bounds {
        Op::Or.combine(children)
    }

    /// Combines children bounds of an independent-and (⊙) node:
    /// `P = Π Pᵢ`.
    pub fn combine_and<I: IntoIterator<Item = Bounds>>(children: I) -> Bounds {
        Op::And.combine(children)
    }

    /// Combines children bounds of an exclusive-or (⊕) node:
    /// `P = Σ Pᵢ` (children are mutually exclusive), clamped to 1.
    pub fn combine_xor<I: IntoIterator<Item = Bounds>>(children: I) -> Bounds {
        Op::Xor.combine(children)
    }
}

/// The operator of an inner d-tree node: independent-or (⊗),
/// independent-and (⊙) or exclusive-or (⊕).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Or,
    And,
    Xor,
}

impl Op {
    /// Combines children bounds by this node's rule (Proposition 5.4).
    pub(crate) fn combine<I: IntoIterator<Item = Bounds>>(self, children: I) -> Bounds {
        let mut fold = BoundsFold::new(self);
        for b in children {
            fold.push(b);
        }
        fold.finish()
    }
}

/// The running state of [`Op::combine`]'s left fold over children bounds.
/// Pushing children `c₁ … cₙ` and then finishing is bit-identical to
/// combining `[c₁, …, cₙ]`, so a prefix of the children can be folded once
/// and continued many times.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundsFold {
    op: Op,
    lower: f64,
    upper: f64,
}

impl BoundsFold {
    /// The fold over no children.
    pub(crate) fn new(op: Op) -> BoundsFold {
        let start = if op == Op::Xor { 0.0 } else { 1.0 };
        BoundsFold { op, lower: start, upper: start }
    }

    /// Folds in the next child.
    #[inline]
    pub(crate) fn push(&mut self, b: Bounds) {
        match self.op {
            Op::Or => {
                self.lower *= 1.0 - b.lower;
                self.upper *= 1.0 - b.upper;
            }
            Op::And => {
                self.lower *= b.lower;
                self.upper *= b.upper;
            }
            Op::Xor => {
                self.lower += b.lower;
                self.upper += b.upper;
            }
        }
    }

    /// The combined bounds of the children folded so far.
    pub(crate) fn finish(self) -> Bounds {
        match self.op {
            Op::Or => Bounds::new(1.0 - self.lower, 1.0 - self.upper),
            Op::And => Bounds::new(self.lower, self.upper),
            Op::Xor => Bounds::new(self.lower.min(1.0), self.upper.min(1.0)),
        }
    }
}

/// Computes lower and upper bounds on the probability of a DNF using the
/// bucket heuristic of Figure 3 (`Independent`), strengthened for monotone
/// DNFs by the independent-union upper bound:
///
/// 1. Partition the clauses into buckets of pairwise independent clauses
///    (greedy first-fit, so each bucket is maximal when it is created).
/// 2. The exact probability of a bucket is `1 - Π (1 - P(clause))`.
/// 3. The lower bound is the maximum bucket probability, the upper bound the
///    (clamped) sum of bucket probabilities.
/// 4. When every variable occurs with a single domain value throughout the
///    DNF (always the case for tuple-independent query lineage), the upper
///    bound is additionally capped by `1 - Π (1 - P(clause))` over *all*
///    clauses, which is sound by the Harris/FKG inequality because all clause
///    events are then monotone increasing in the independent atomic events.
///
/// Clauses are considered in descending order of marginal probability, the
/// refinement the paper reports to improve the lower bound (Example 5.2).
/// Runs in `O(Σ|c| · ⌈b/64⌉)` time in the worst case, where `Σ|c|` is the
/// number of atoms and `b` the number of buckets, plus one sort of the atoms
/// and one of the clauses.
pub fn dnf_bounds(dnf: &Dnf, space: &ProbabilitySpace) -> Bounds {
    let (arena, root) = LineageArena::from_dnf(dnf);
    dnf_bounds_view(&arena, &root, space)
}

/// [`dnf_bounds`] for an arena view, without materialising the sub-formula.
pub fn dnf_bounds_view(arena: &LineageArena, view: &DnfView, space: &ProbabilitySpace) -> Bounds {
    match bucket_bounds(arena, view, space, true) {
        (bounds, Some(fkg_upper)) => {
            Bounds::new(bounds.lower.min(fkg_upper), bounds.upper.min(fkg_upper))
        }
        (bounds, None) => bounds,
    }
}

/// The bucket heuristic exactly as written in Figure 3 of the paper, without
/// the monotone-DNF upper-bound strengthening applied by [`dnf_bounds`],
/// processing the clauses in descending-probability order
/// (`sort_descending`) or in their canonical order. Exposed so the ablation
/// benchmarks can quantify both refinements (Example 5.2 shows the ordering
/// can tighten both bounds substantially).
pub fn dnf_bounds_sorted(dnf: &Dnf, space: &ProbabilitySpace, sort_descending: bool) -> Bounds {
    let (arena, view) = LineageArena::from_dnf(dnf);
    bucket_bounds(&arena, &view, space, sort_descending).0
}

/// The bucket heuristic of Figure 3 over `view`'s clauses, taken in
/// descending-probability order or in their canonical order, together with
/// the independent-union upper bound `1 - Π_clauses (1 - P(clause))` when
/// the view is **monotone** (`None` otherwise).
///
/// A DNF is monotone here when every variable occurs with a single domain
/// value throughout the formula (e.g. purely positive Boolean lineage from
/// tuple-independent tables). Each clause is then a monotone increasing
/// function of the independent atomic events, so by the Harris/FKG
/// inequality the clause negations are positively associated:
/// `P(⋀ ¬cᵢ) ≥ Π P(¬cᵢ)`, i.e. `P(⋁ cᵢ) ≤ 1 - Π (1 - P(cᵢ))`. When some
/// variable occurs with two different values (as can happen with
/// block-independent-disjoint lineage) the bound would be unsound.
///
/// One sort of the view's `(variable, value)` atoms both decides
/// monotonicity and gives the variables dense local ids. First-fit then
/// keeps, per variable, a bitset of the buckets holding it: the first bucket
/// a clause is independent of is the first zero bit of the OR of its
/// variables' bitsets. Placement, the probability recurrence and the fold
/// order are those of the textbook loop (see `reference::dnf_bounds_reference`),
/// so the bounds are bit-identical to it.
fn bucket_bounds(
    arena: &LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    sort_descending: bool,
) -> (Bounds, Option<f64>) {
    if view.is_empty() {
        return (Bounds::point(0.0), None);
    }
    if view.is_tautology(arena) {
        return (Bounds::point(1.0), None);
    }
    // Clause `i`'s atoms are `local[starts[i]..starts[i + 1]]`, as dense
    // local variable ids once the sorted pass below has filled them in.
    let mut starts: Vec<usize> = Vec::with_capacity(view.len() + 1);
    let mut atoms: Vec<(VarId, u32, u32)> = Vec::new();
    for clause in view.atoms(arena) {
        starts.push(atoms.len());
        for a in clause {
            atoms.push((a.var, a.value, atoms.len() as u32));
        }
    }
    starts.push(atoms.len());
    atoms.sort_unstable();
    let mut local: Vec<u32> = vec![0; atoms.len()];
    let mut monotone = true;
    let mut num_vars = 0u32;
    for (k, &(var, value, at)) in atoms.iter().enumerate() {
        if k > 0 && atoms[k - 1].0 == var {
            monotone &= atoms[k - 1].1 == value;
        } else {
            num_vars += 1;
        }
        local[at as usize] = num_vars - 1;
    }
    let num_vars = num_vars as usize;

    let order: Vec<(usize, f64)> = if sort_descending {
        view.clauses_by_probability_desc(arena, space)
    } else {
        (0..view.len()).map(|i| (i, view.clause_probability(arena, space, i))).collect()
    };
    let fkg_upper = monotone.then(|| {
        let mut by_clause = vec![0.0; view.len()];
        for &(i, p) in &order {
            by_clause[i] = p;
        }
        1.0 - by_clause.iter().fold(1.0, |complement, p| complement * (1.0 - p))
    });

    // `occupied[w * num_vars + v]` holds bit `b % 64` iff bucket
    // `b = 64 * w + bit` contains local variable `v`; a bucket itself keeps
    // only its probability.
    let mut occupied: Vec<u64> = Vec::new();
    let mut buckets: Vec<f64> = Vec::new();
    for (i, p) in order {
        let vars = &local[starts[i]..starts[i + 1]];
        // First-fit: the first bucket the clause shares no variable with;
        // past the last bucket the first zero bit is `buckets.len()`.
        let slot = occupied
            .chunks_exact(num_vars)
            .enumerate()
            .find_map(|(w, row)| {
                let taken = vars.iter().fold(0u64, |acc, &v| acc | row[v as usize]);
                (taken != u64::MAX).then(|| 64 * w + taken.trailing_ones() as usize)
            })
            .unwrap_or(buckets.len());
        if slot == buckets.len() {
            if slot % 64 == 0 {
                occupied.resize(occupied.len() + num_vars, 0);
            }
            buckets.push(p);
        } else {
            buckets[slot] = 1.0 - (1.0 - buckets[slot]) * (1.0 - p);
        }
        let row = &mut occupied[(slot / 64) * num_vars..][..num_vars];
        for &v in vars {
            row[v as usize] |= 1 << (slot % 64);
        }
    }
    let lower = buckets.iter().copied().fold(0.0f64, f64::max);
    let upper: f64 = buckets.iter().sum();
    (Bounds::new(lower, upper.min(1.0)), fkg_upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use events::Clause;

    fn bool_space(ps: &[f64]) -> (ProbabilitySpace, Vec<VarId>) {
        let mut s = ProbabilitySpace::new();
        let vars = ps.iter().enumerate().map(|(i, &p)| s.add_bool(format!("x{i}"), p)).collect();
        (s, vars)
    }

    #[test]
    fn bounds_constructor_clamps_and_orders() {
        let b = Bounds::new(1.4, -0.2);
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 1.0);
        let b = Bounds::new(0.7, 0.3);
        assert_eq!(b.lower, 0.3);
        assert_eq!(b.upper, 0.7);
        assert!(Bounds::point(0.5).is_point());
        assert!((Bounds::new(0.2, 0.6).midpoint() - 0.4).abs() < 1e-12);
        assert!(Bounds::new(0.2, 0.6).contains(0.2));
        assert!(!Bounds::new(0.2, 0.6).contains(0.7));
        assert_eq!(Bounds::vacuous().width(), 1.0);
    }

    #[test]
    fn combine_or_matches_independent_union() {
        let b = Bounds::combine_or(vec![Bounds::point(0.3), Bounds::point(0.5)]);
        assert!((b.lower - 0.65).abs() < 1e-12);
        assert!((b.upper - 0.65).abs() < 1e-12);
        // Interval version is monotone.
        let b = Bounds::combine_or(vec![Bounds::new(0.1, 0.2), Bounds::new(0.3, 0.5)]);
        assert!((b.lower - (1.0 - 0.9 * 0.7)).abs() < 1e-12);
        assert!((b.upper - (1.0 - 0.8 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn combine_and_multiplies() {
        let b = Bounds::combine_and(vec![Bounds::new(0.5, 0.6), Bounds::new(0.4, 0.5)]);
        assert!((b.lower - 0.2).abs() < 1e-12);
        assert!((b.upper - 0.3).abs() < 1e-12);
    }

    #[test]
    fn combine_xor_sums_and_clamps() {
        let b = Bounds::combine_xor(vec![Bounds::new(0.5, 0.6), Bounds::new(0.3, 0.35)]);
        assert!((b.lower - 0.8).abs() < 1e-12);
        assert!((b.upper - 0.95).abs() < 1e-12);
        let b = Bounds::combine_xor(vec![Bounds::point(0.7), Bounds::point(0.8)]);
        assert_eq!(b.upper, 1.0);
        assert_eq!(b.lower, 1.0);
    }

    #[test]
    fn empty_combinations_are_identities() {
        assert_eq!(Bounds::combine_or(Vec::new()), Bounds::point(0.0));
        assert_eq!(Bounds::combine_and(Vec::new()), Bounds::point(1.0));
        assert_eq!(Bounds::combine_xor(Vec::new()), Bounds::point(0.0));
    }

    /// Example 5.2 from the paper: with the descending-probability ordering
    /// the first bucket is {c2, c3} with probability 0.842, which becomes the
    /// lower bound; the second bucket is {c1} with probability 0.06, so the
    /// upper bound of the algorithm written in Figure 3 is
    /// 0.842 + 0.06 = 0.902. (The paper's prose states 0.848 for the upper
    /// bound, which is not reproducible from Figure 3; we follow Figure 3.)
    /// The default [`dnf_bounds`] additionally applies the monotone-DNF
    /// independent-union cap, 1 − 0.94·0.79·0.2 = 0.85148, which is tighter.
    /// The exact probability 0.8456 is bracketed in all cases.
    #[test]
    fn example_5_2_bucket_bounds() {
        let (s, vars) = bool_space(&[0.3, 0.2, 0.7, 0.8]);
        let (x, y, z, v) = (vars[0], vars[1], vars[2], vars[3]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[x, y]),
            Clause::from_bools(&[x, z]),
            Clause::from_bools(&[v]),
        ]);
        let exact = phi.exact_probability_enumeration(&s);
        let fig3 = dnf_bounds_sorted(&phi, &s, true);
        assert!((fig3.lower - 0.842).abs() < 1e-9, "lower = {}", fig3.lower);
        assert!((fig3.upper - 0.902).abs() < 1e-9, "upper = {}", fig3.upper);
        assert!(fig3.contains(exact));
        let b = dnf_bounds(&phi, &s);
        assert!((b.lower - 0.842).abs() < 1e-9, "lower = {}", b.lower);
        assert!((b.upper - 0.85148).abs() < 1e-4, "upper = {}", b.upper);
        assert!(b.contains(exact));
    }

    /// Without sorting, the first-fit partitioning of Example 5.2 yields the
    /// looser bounds [0.812, 1.0] reported in the paper.
    #[test]
    fn example_5_2_unsorted_bounds_are_looser() {
        let (s, vars) = bool_space(&[0.3, 0.2, 0.7, 0.8]);
        let (x, y, z, v) = (vars[0], vars[1], vars[2], vars[3]);
        let phi_clauses = vec![
            Clause::from_bools(&[x, y]),
            Clause::from_bools(&[x, z]),
            Clause::from_bools(&[v]),
        ];
        let phi = Dnf::from_clauses(phi_clauses);
        let sorted = dnf_bounds_sorted(&phi, &s, true);
        let unsorted = dnf_bounds_sorted(&phi, &s, false);
        let exact = phi.exact_probability_enumeration(&s);
        assert!(sorted.contains(exact));
        assert!(unsorted.contains(exact));
        assert!(sorted.width() <= unsorted.width() + 1e-12);
        // Note: `Dnf::from_clauses` sorts clauses structurally, so the
        // "unsorted" order is the structural order, not necessarily the
        // insertion order; the bounds are still valid and generally looser.
    }

    #[test]
    fn bounds_of_constants() {
        let (s, _) = bool_space(&[0.5]);
        assert_eq!(dnf_bounds(&Dnf::empty(), &s), Bounds::point(0.0));
        assert_eq!(dnf_bounds(&Dnf::tautology(), &s), Bounds::point(1.0));
    }

    #[test]
    fn single_clause_bounds_are_exact() {
        let (s, vars) = bool_space(&[0.3, 0.6]);
        let phi = Dnf::from_clauses(vec![Clause::from_bools(&[vars[0], vars[1]])]);
        let b = dnf_bounds(&phi, &s);
        assert!(b.is_point());
        assert!((b.lower - 0.18).abs() < 1e-12);
    }

    #[test]
    fn independent_clauses_bounds_are_exact() {
        // All clauses pairwise independent: one bucket, exact probability.
        let (s, vars) = bool_space(&[0.3, 0.6, 0.2]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0]]),
            Clause::from_bools(&[vars[1]]),
            Clause::from_bools(&[vars[2]]),
        ]);
        let b = dnf_bounds(&phi, &s);
        let exact = phi.exact_probability_enumeration(&s);
        assert!(b.is_point());
        assert!((b.lower - exact).abs() < 1e-12);
    }

    /// The monotone-DNF upper bound must bracket the exact probability and
    /// tighten the Figure-3 bound when clauses are positively correlated.
    #[test]
    fn independent_or_upper_bound_is_sound_and_tighter() {
        let (s, vars) = bool_space(&[0.5, 0.4, 0.3, 0.6, 0.7]);
        // A "hard pattern" DNF R(X), S(X,Y), T(Y): clauses share variables so
        // the bucket sum saturates at 1 while the FKG bound stays below it.
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[0], vars[2]]),
            Clause::from_bools(&[vars[3], vars[1]]),
            Clause::from_bools(&[vars[3], vars[2]]),
            Clause::from_bools(&[vars[4], vars[1]]),
            Clause::from_bools(&[vars[4], vars[2]]),
        ]);
        let exact = phi.exact_probability_enumeration(&s);
        let fig3 = dnf_bounds_sorted(&phi, &s, true);
        let improved = dnf_bounds(&phi, &s);
        let (arena, view) = LineageArena::from_dnf(&phi);
        let fkg = bucket_bounds(&arena, &view, &s, true).1.expect("monotone DNF");
        assert!(exact <= fkg + 1e-12, "FKG bound {fkg} below exact {exact}");
        assert!(improved.contains(exact));
        assert!(fig3.contains(exact));
        assert!(improved.upper <= fig3.upper + 1e-12);
        assert!(improved.upper < 1.0 - 1e-9, "improved upper should not saturate at 1");
    }

    /// The FKG upper bound is refused for non-monotone DNFs (a variable used
    /// with two different domain values), where it would be unsound.
    #[test]
    fn independent_or_upper_bound_rejects_mixed_values() {
        use events::Atom;
        let mut s = ProbabilitySpace::new();
        let x = s.add_discrete("x", vec![0.5, 0.5]);
        let y = s.add_discrete("y", vec![0.5, 0.5]);
        // (x=0 ∧ y=0) ∨ (x=1 ∧ y=1): mutually exclusive clauses; the
        // independent-union bound 1 - (1-0.25)² = 0.4375 would *understate*
        // the true probability 0.5.
        let phi = Dnf::from_clauses(vec![
            Clause::from_atoms([Atom::new(x, 0), Atom::new(y, 0)]),
            Clause::from_atoms([Atom::new(x, 1), Atom::new(y, 1)]),
        ]);
        let (arena, view) = LineageArena::from_dnf(&phi);
        assert_eq!(bucket_bounds(&arena, &view, &s, true).1, None);
        let exact = phi.exact_probability_enumeration(&s);
        assert!(dnf_bounds(&phi, &s).contains(exact));
    }

    #[test]
    fn bounds_always_bracket_exact_probability() {
        // A few hand-picked correlated DNFs.
        let (s, vars) = bool_space(&[0.5, 0.4, 0.3, 0.2, 0.9]);
        let cases = vec![
            vec![
                Clause::from_bools(&[vars[0], vars[1]]),
                Clause::from_bools(&[vars[1], vars[2]]),
                Clause::from_bools(&[vars[2], vars[3]]),
            ],
            vec![
                Clause::from_bools(&[vars[0], vars[1], vars[2]]),
                Clause::from_bools(&[vars[0], vars[3]]),
                Clause::from_bools(&[vars[4]]),
            ],
        ];
        for clauses in cases {
            let phi = Dnf::from_clauses(clauses);
            let b = dnf_bounds(&phi, &s);
            let exact = phi.exact_probability_enumeration(&s);
            assert!(b.contains(exact), "bounds {b:?} exact {exact}");
        }
    }
}
