//! Variable-elimination orders for Shannon expansion.
//!
//! The order of the variable choices greatly influences the size of the
//! d-tree (Section IV). The paper uses:
//!
//! * the **IQ order** of Lemma 6.8 for lineage of inequality (IQ) queries —
//!   pick a variable that co-occurs with *all* variables of *all other*
//!   relations, which makes its positive cofactor subsume the rest,
//! * the **most frequently occurring** variable as the general fallback.

use std::collections::{BTreeMap, BTreeSet};

use events::{DnfView, LineageArena, VarId, VarOrigins};

/// Strategy for choosing the next variable to eliminate by Shannon expansion.
#[derive(Debug, Clone, Default)]
pub enum VarOrder {
    /// Choose a variable occurring in the largest number of clauses (the
    /// paper's fallback heuristic).
    #[default]
    MostFrequent,
    /// Follow a fixed order: the first variable of the list that still occurs
    /// in the DNF is chosen; falls back to `MostFrequent` when none does.
    Fixed(Vec<VarId>),
    /// Try the IQ-query order of Lemma 6.8 first (requires variable origins);
    /// falls back to `MostFrequent` when no such variable exists.
    IqThenFrequent,
}

/// Chooses the next Shannon-expansion variable for `view` according to the
/// strategy, using origin labels when provided.
///
/// Returns `None` only when the DNF mentions no variable at all.
pub fn choose_variable(
    arena: &LineageArena,
    view: &DnfView,
    order: &VarOrder,
    origins: Option<&VarOrigins>,
) -> Option<VarId> {
    match order {
        VarOrder::MostFrequent => view.most_frequent_var(arena),
        VarOrder::Fixed(vars) => {
            let present = view.vars(arena);
            vars.iter()
                .copied()
                .find(|v| present.contains(v))
                .or_else(|| view.most_frequent_var(arena))
        }
        VarOrder::IqThenFrequent => origins
            .and_then(|o| choose_iq_variable(arena, view, o))
            .or_else(|| view.most_frequent_var(arena)),
    }
}

/// Implements the variable choice of Lemma 6.8 for IQ-query lineage.
///
/// A variable `v` from relation `Rᵢ` qualifies when the clauses containing
/// `v` mention **all** distinct variables of **every other** relation that
/// appear anywhere in the DNF. For such a variable the co-factor of `v`
/// subsumes `Φ|v`, which keeps the expansion linear (Theorem 6.9).
///
/// Returns `None` when no variable qualifies (e.g. the lineage is not from an
/// IQ query), in which case the caller falls back to the most-frequent
/// heuristic.
pub fn choose_iq_variable(
    arena: &LineageArena,
    view: &DnfView,
    origins: &VarOrigins,
) -> Option<VarId> {
    if view.is_empty() || view.is_tautology(arena) {
        return None;
    }
    // Distinct variables per relation (origin group) in the whole DNF.
    let mut per_relation: BTreeMap<u32, BTreeSet<VarId>> = BTreeMap::new();
    for clause in view.atoms(arena) {
        for a in clause {
            let group = origins.get(a.var)?;
            per_relation.entry(group).or_default().insert(a.var);
        }
    }
    if per_relation.len() < 2 {
        // A single relation: any variable trivially qualifies; pick the most
        // frequent to keep behaviour sensible.
        return view.most_frequent_var(arena);
    }
    // Candidate variables, scanned in ascending id order for determinism.
    let candidates: BTreeSet<VarId> = view.vars(arena);
    for &v in &candidates {
        let v_group = origins.get(v)?;
        // Distinct variables per relation restricted to clauses containing v.
        let mut restricted: BTreeMap<u32, BTreeSet<VarId>> = BTreeMap::new();
        for i in 0..view.len() {
            if !view.mentions(arena, i, v) {
                continue;
            }
            for a in view.clause(arena, i) {
                let group = origins.get(a.var)?;
                restricted.entry(group).or_default().insert(a.var);
            }
        }
        let qualifies = per_relation.iter().all(|(group, vars)| {
            if *group == v_group {
                true
            } else {
                restricted.get(group).map(|r| r.len() == vars.len()).unwrap_or(false)
            }
        });
        if qualifies {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use events::{Clause, Dnf, ProbabilitySpace};

    fn choose(dnf: &Dnf, order: &VarOrder, origins: Option<&VarOrigins>) -> Option<VarId> {
        let (arena, view) = LineageArena::from_dnf(dnf);
        choose_variable(&arena, &view, order, origins)
    }

    fn choose_iq(dnf: &Dnf, origins: &VarOrigins) -> Option<VarId> {
        let (arena, view) = LineageArena::from_dnf(dnf);
        choose_iq_variable(&arena, &view, origins)
    }

    fn bool_space(n: usize) -> (ProbabilitySpace, Vec<VarId>) {
        let mut s = ProbabilitySpace::new();
        let vars = (0..n).map(|i| s.add_bool(format!("x{i}"), 0.5)).collect();
        (s, vars)
    }

    #[test]
    fn most_frequent_is_default() {
        let (_, vars) = bool_space(3);
        let dnf = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[0], vars[2]]),
        ]);
        assert_eq!(choose(&dnf, &VarOrder::default(), None), Some(vars[0]));
    }

    #[test]
    fn fixed_order_follows_list_then_falls_back() {
        let (_, vars) = bool_space(4);
        let dnf = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[1], vars[2]]),
            Clause::from_bools(&[vars[2]]),
        ]);
        let order = VarOrder::Fixed(vec![vars[0], vars[2], vars[1]]);
        // vars[0] is absent, vars[2] present.
        assert_eq!(choose(&dnf, &order, None), Some(vars[2]));
        // Empty fixed list falls back to most frequent.
        assert_eq!(choose(&dnf, &VarOrder::Fixed(vec![]), None), dnf.most_frequent_var());
    }

    /// Lineage of q():-R(X), S(Y), X < Y on R = {x1, x2}, S = {y1, y2} with
    /// sort order x1 < y1 < x2 < y2: clauses x1y1, x1y2, x2y2. Variable x1
    /// co-occurs with all S-variables, so it is the IQ choice of Lemma 6.8.
    #[test]
    fn iq_variable_choice_on_inequality_lineage() {
        let (_, vars) = bool_space(4);
        let (x1, x2, y1, y2) = (vars[0], vars[1], vars[2], vars[3]);
        let mut origins = VarOrigins::new();
        origins.set(x1, 0);
        origins.set(x2, 0);
        origins.set(y1, 1);
        origins.set(y2, 1);
        let dnf = Dnf::from_clauses(vec![
            Clause::from_bools(&[x1, y1]),
            Clause::from_bools(&[x1, y2]),
            Clause::from_bools(&[x2, y2]),
        ]);
        assert_eq!(choose_iq(&dnf, &origins), Some(x1));
        assert_eq!(choose(&dnf, &VarOrder::IqThenFrequent, Some(&origins)), Some(x1));
    }

    /// Lineage of the hard pattern R(X),S(X,Y),T(Y) on a complete bipartite
    /// probabilistic S has no IQ variable; the chooser falls back.
    #[test]
    fn iq_choice_fails_on_hard_pattern_lineage() {
        let (_, vars) = bool_space(6);
        let (r1, r2, s11, s22, t1, t2) = (vars[0], vars[1], vars[2], vars[3], vars[4], vars[5]);
        let mut origins = VarOrigins::new();
        for (v, g) in [(r1, 0), (r2, 0), (s11, 1), (s22, 1), (t1, 2), (t2, 2)] {
            origins.set(v, g);
        }
        // r1 s11 t1 ∨ r2 s22 t2: no variable co-occurs with all variables of
        // all other relations (r1 misses t2, etc.).
        let dnf = Dnf::from_clauses(vec![
            Clause::from_bools(&[r1, s11, t1]),
            Clause::from_bools(&[r2, s22, t2]),
        ]);
        assert_eq!(choose_iq(&dnf, &origins), None);
        // The combined strategy still returns something.
        assert!(choose(&dnf, &VarOrder::IqThenFrequent, Some(&origins)).is_some());
    }

    #[test]
    fn iq_choice_with_missing_origins_returns_none() {
        let (_, vars) = bool_space(2);
        let origins = VarOrigins::new();
        let dnf = Dnf::from_clauses(vec![Clause::from_bools(&[vars[0], vars[1]])]);
        assert_eq!(choose_iq(&dnf, &origins), None);
    }

    #[test]
    fn iq_choice_single_relation_uses_most_frequent() {
        let (_, vars) = bool_space(2);
        let mut origins = VarOrigins::new();
        origins.set(vars[0], 0);
        origins.set(vars[1], 0);
        let dnf =
            Dnf::from_clauses(vec![Clause::from_bools(&[vars[0]]), Clause::from_bools(&[vars[1]])]);
        assert_eq!(choose_iq(&dnf, &origins), dnf.most_frequent_var());
    }

    #[test]
    fn empty_dnf_has_no_variable() {
        assert_eq!(choose(&Dnf::empty(), &VarOrder::MostFrequent, None), None);
        let origins = VarOrigins::new();
        assert_eq!(choose_iq(&Dnf::tautology(), &origins), None);
    }
}
