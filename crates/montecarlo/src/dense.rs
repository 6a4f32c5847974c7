//! The flat, dense form of a lineage that both samplers prepare once and
//! then sample against.
//!
//! Preparation gives the view's variables dense local ids `0..n` in
//! ascending [`VarId`] order — the order the samplers draw them in, so it
//! fixes the RNG stream. Clause atoms become `(local id, value)` pairs in one
//! buffer with clause offsets, and every variable's distribution is copied
//! into one `f64` buffer with offsets. A sampled world is a `Vec<u32>` over
//! the local ids that every sample overwrites, so drawing a world and
//! scanning the clauses against it allocates nothing.

use events::{DnfView, LineageArena, ProbabilitySpace, VarId};
use rand::Rng;

/// Marks a variable the current world has not assigned yet; no domain has
/// `u32::MAX` values.
const UNSET: u32 = u32::MAX;

/// A lineage in local ids, its variables' distributions and the world
/// buffer its samples are drawn into.
#[derive(Debug, Clone)]
pub(crate) struct DenseDnf {
    /// `(local id, value)` of every atom, clause after clause.
    atoms: Vec<(u32, u32)>,
    /// Clause `i` is `atoms[clause_offsets[i]..clause_offsets[i + 1]]`.
    clause_offsets: Vec<usize>,
    /// Local variable `l`'s distribution is
    /// `probs[prob_offsets[l]..prob_offsets[l + 1]]`.
    probs: Vec<f64>,
    prob_offsets: Vec<usize>,
    /// The last sampled world: the value of every local variable.
    world: Vec<u32>,
}

impl DenseDnf {
    /// Translates the lineage `view` interned in `arena` to local ids.
    pub(crate) fn new(arena: &LineageArena, view: &DnfView, space: &ProbabilitySpace) -> Self {
        let mut vars: Vec<VarId> =
            (0..view.len()).flat_map(|i| view.clause_slice(arena, i)).map(|a| a.var).collect();
        let num_atoms = vars.len();
        vars.sort_unstable();
        vars.dedup();
        let mut atoms = Vec::with_capacity(num_atoms);
        let mut clause_offsets = Vec::with_capacity(view.len() + 1);
        clause_offsets.push(0);
        for i in 0..view.len() {
            atoms.extend(view.clause_slice(arena, i).iter().map(|a| {
                let local = vars.binary_search(&a.var).expect("every atom's variable is collected");
                (local as u32, a.value)
            }));
            clause_offsets.push(atoms.len());
        }
        let mut probs = Vec::new();
        let mut prob_offsets = Vec::with_capacity(vars.len() + 1);
        prob_offsets.push(0);
        for &var in &vars {
            probs.extend((0..space.domain_size(var)).map(|value| space.prob(var, value)));
            prob_offsets.push(probs.len());
        }
        DenseDnf { atoms, clause_offsets, probs, prob_offsets, world: vec![UNSET; vars.len()] }
    }

    /// `true` if some clause is empty, i.e. the lineage is the constant
    /// `true`.
    pub(crate) fn has_empty_clause(&self) -> bool {
        self.clause_offsets.windows(2).any(|w| w[0] == w[1])
    }

    /// Samples a world into the world buffer. The atoms of clause `pinned`,
    /// if given, are fixed; every other variable is drawn from its marginal
    /// with one `gen_range(0.0..1.0)`, in ascending local id.
    pub(crate) fn sample_world<R: Rng + ?Sized>(&mut self, pinned: Option<usize>, rng: &mut R) {
        self.world.fill(UNSET);
        if let Some(i) = pinned {
            for &(local, value) in &self.atoms[self.clause_offsets[i]..self.clause_offsets[i + 1]] {
                self.world[local as usize] = value;
            }
        }
        for (slot, range) in self.world.iter_mut().zip(self.prob_offsets.windows(2)) {
            if *slot == UNSET {
                *slot = sample_value(&self.probs[range[0]..range[1]], rng);
            }
        }
    }

    /// Number of clauses the last sampled world satisfies.
    pub(crate) fn count_satisfied(&self) -> usize {
        self.clause_offsets.windows(2).filter(|w| self.satisfies(w[0], w[1])).count()
    }

    /// Index of the first clause the last sampled world satisfies.
    pub(crate) fn first_satisfied(&self) -> Option<usize> {
        self.clause_offsets.windows(2).position(|w| self.satisfies(w[0], w[1]))
    }

    #[inline]
    fn satisfies(&self, start: usize, end: usize) -> bool {
        self.atoms[start..end].iter().all(|&(local, value)| self.world[local as usize] == value)
    }
}

/// Inverse-CDF draw of one value from `distribution`; the last value takes
/// whatever rounding leaves over.
fn sample_value<R: Rng + ?Sized>(distribution: &[f64], rng: &mut R) -> u32 {
    let mut target = rng.gen_range(0.0..1.0);
    for (value, &p) in distribution.iter().enumerate() {
        if target < p {
            return value as u32;
        }
        target -= p;
    }
    distribution.len() as u32 - 1
}
