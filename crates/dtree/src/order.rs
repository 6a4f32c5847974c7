//! Variable-elimination orders for Shannon expansion.
//!
//! The order of the variable choices greatly influences the size of the
//! d-tree (Section IV). The paper uses:
//!
//! * the **IQ order** of Lemma 6.8 for lineage of inequality (IQ) queries —
//!   pick a variable that co-occurs with *all* variables of *all other*
//!   relations, which makes its positive cofactor subsume the rest,
//! * the **most frequently occurring** variable as the general fallback.

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
        VarOrder::IqThenFrequent => match origins {
            Some(origins) if !view.is_empty() && !view.is_tautology(arena) => {
                // The fallback reads its counts off the same sort.
                let occurrences = Occurrences::new(arena, view);
                occurrences.iq_variable(origins).or_else(|| occurrences.most_frequent())
            }
            _ => view.most_frequent_var(arena),
        },
    }
}

/// Implements the variable choice of Lemma 6.8 for IQ-query lineage.
///
/// A variable `v` from relation `Rᵢ` qualifies when the clauses containing
/// `v` mention **all** distinct variables of **every other** relation that
/// appear anywhere in the DNF. For such a variable the co-factor of `v`
/// subsumes `Φ|v`, which keeps the expansion linear (Theorem 6.9).
///
/// Candidates are tested in ascending variable id order and the first that
/// qualifies is returned. With a single relation every variable qualifies
/// and the most frequent one is returned.
///
/// Returns `None` when no variable qualifies (e.g. the lineage is not from an
/// IQ query), when some variable has no origin, and for the empty and the
/// tautological view; the caller then falls back to the most-frequent
/// heuristic.
///
/// Cost: one sort of the view's `(variable, clause)` incidences, then
/// `O(Σ|c|²)` over the clauses `c` to test every candidate — each candidate
/// walks the clauses that hold it and counts the distinct variables they
/// cover with a stamp array.
pub fn choose_iq_variable(
    arena: &LineageArena,
    view: &DnfView,
    origins: &VarOrigins,
) -> Option<VarId> {
    if view.is_empty() || view.is_tautology(arena) {
        return None;
    }
    Occurrences::new(arena, view).iq_variable(origins)
}

/// The `(variable, clause)` incidences of a view, sorted once: the variables
/// get dense local ids in ascending id order, and each variable's run of
/// incidences lists the clauses that hold it.
struct Occurrences {
    /// `(variable, clause position)` per atom, sorted.
    pairs: Vec<(VarId, u32)>,
    /// Local id `k` → start of variable `k`'s run in `pairs`; the last entry
    /// is `pairs.len()`.
    starts: Vec<u32>,
    /// Number of clauses of the view.
    clauses: usize,
}

impl Occurrences {
    fn new(arena: &LineageArena, view: &DnfView) -> Occurrences {
        let mut pairs = Vec::with_capacity(view.size(arena));
        for i in 0..view.len() {
            pairs.extend(view.clause_slice(arena, i).iter().map(|a| (a.var, i as u32)));
        }
        pairs.sort_unstable();
        let distinct = pairs.windows(2).filter(|w| w[0].0 != w[1].0).count() + 1;
        let mut starts = Vec::with_capacity(distinct + 1);
        for (p, &(var, _)) in pairs.iter().enumerate() {
            if p == 0 || pairs[p - 1].0 != var {
                starts.push(p as u32);
            }
        }
        starts.push(pairs.len() as u32);
        Occurrences { pairs, starts, clauses: view.len() }
    }

    fn num_vars(&self) -> usize {
        self.starts.len() - 1
    }

    /// The incidences of local variable `k`.
    fn run(&self, k: usize) -> &[(VarId, u32)] {
        &self.pairs[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    fn var(&self, k: usize) -> VarId {
        self.pairs[self.starts[k] as usize].0
    }

    /// [`DnfView::most_frequent_var`] from the runs: the highest count wins,
    /// the smallest id among ties.
    fn most_frequent(&self) -> Option<VarId> {
        let mut best: Option<(usize, usize)> = None;
        for k in 0..self.num_vars() {
            let count = self.run(k).len();
            if best.map(|(_, c)| count > c).unwrap_or(true) {
                best = Some((k, count));
            }
        }
        best.map(|(k, _)| self.var(k))
    }

    /// [`choose_iq_variable`] on a non-empty, non-tautological view.
    fn iq_variable(&self, origins: &VarOrigins) -> Option<VarId> {
        let vars = self.num_vars();
        let mut group = Vec::with_capacity(vars);
        for k in 0..vars {
            group.push(origins.get(self.var(k))?);
        }
        let mut sorted = group.clone();
        sorted.sort_unstable();
        if sorted.first() == sorted.last() {
            // A single relation: any variable trivially qualifies; pick the
            // most frequent to keep behaviour sensible.
            return self.most_frequent();
        }
        // Local variable ids per clause, filled in variable order so each
        // clause's list ascends. `at[c]` serves as clause `c`'s write cursor
        // and ends as the start of clause `c + 1`.
        let mut at = vec![0u32; self.clauses + 1];
        for &(_, c) in &self.pairs {
            at[c as usize + 1] += 1;
        }
        for c in 0..self.clauses {
            at[c + 1] += at[c];
        }
        let mut clause_vars = vec![0u32; self.pairs.len()];
        for k in 0..vars {
            for &(_, c) in self.run(k) {
                clause_vars[at[c as usize] as usize] = k as u32;
                at[c as usize] += 1;
            }
        }
        let clause = |c: u32| {
            let end = at[c as usize] as usize;
            let start = if c == 0 { 0 } else { at[c as usize - 1] as usize };
            &clause_vars[start..end]
        };
        // Candidate `k` qualifies when the clauses holding it cover every
        // variable outside its own group; `seen[u] == k` marks the
        // variables counted for it.
        let mut seen = vec![u32::MAX; vars];
        for k in 0..vars {
            let home = group[k];
            let home_size =
                sorted.partition_point(|&g| g <= home) - sorted.partition_point(|&g| g < home);
            let need = vars - home_size;
            let mut covered = 0;
            for &(_, c) in self.run(k) {
                for &u in clause(c) {
                    if seen[u as usize] != k as u32 {
                        seen[u as usize] = k as u32;
                        covered += usize::from(group[u as usize] != home);
                    }
                }
            }
            if covered == need {
                return Some(self.var(k));
            }
        }
        None
    }
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
