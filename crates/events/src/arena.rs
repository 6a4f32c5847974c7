//! Arena-interned lineage: zero-copy decomposition views over a shared pool.
//!
//! The d-tree hot path (Shannon cofactors, independent-partition splits,
//! bound evaluation) used to re-materialise a fresh [`Dnf`] — a
//! `Vec<Clause>` of `Vec<Atom>` — at every decomposition step. For large
//! lineages that means one allocation per clause per step, and every memo
//! probe re-hashed the whole formula.
//!
//! [`LineageArena`] interns a lineage **once**: all atoms live in one pooled
//! `Vec<Atom>`, clauses are spans over the pool, and each clause's raw
//! 128-bit fingerprint (an order-independent, *subtractable* sum of atom
//! contributions — see [`crate::hash`]) is computed at intern time.
//!
//! [`DnfView`] then represents any sub-formula reachable by the paper's
//! decomposition steps as a list of clause ids; restrictions (Shannon
//! assignments, factored common atoms) are expressed as a **transient
//! restriction list** — a set of variables projected out of every clause —
//! that is applied and discharged inside one compaction pass.
//!
//! With that encoding the decomposition operators become index manipulation
//! over the pool:
//!
//! * `independent_components` and `remove_subsumed` only filter the id list
//!   — **no clause is ever copied**;
//! * `cofactor` / `shannon_cofactors` / `strip_vars` filter conflicting ids,
//!   mask the restricted variable, and immediately **compact**: the clauses
//!   that bind a masked variable are re-interned through the arena's
//!   content-dedup map — one flat pool append per *distinct* clause content
//!   ever touched, no per-clause heap allocations — while every other
//!   clause keeps its id and its place in canonical order, so only the
//!   touched ids are sorted and merged back in. The returned views are
//!   mask-free and every later access is a raw slice scan (masks are
//!   transient, which is what keeps deep Shannon recursions fast);
//! * `hash` combines the interned per-clause fingerprints instead of
//!   re-walking every atom — O(clauses) memo keys.
//!
//! **Canonical-order invariant.** [`Dnf::from_clauses`] sorts clauses and
//! removes duplicates; results downstream (bucket bounds, first-fit order,
//! common-atom factoring) depend on that order. Every `DnfView` maintains
//! the same invariant over its *effective* clauses (interned atoms minus the
//! restriction list): operations that can reorder or alias clauses
//! re-canonicalise the id list by comparing effective atom sequences — an
//! index sort, never a copy. A view therefore behaves **bit-identically** to
//! the owned `Dnf` the same decomposition would have produced, which is
//! pinned by the equivalence proptests in `events/tests` and
//! `pdb/tests`.
//!
//! When views copy vs share:
//!
//! * share (index-only): component splits, subsumption removal (a
//!   first-atom index over the narrower clauses, not all pairs), hashing,
//!   bounds, variable choice (one sort of the `(variable, clause)`
//!   incidences in `dtree::choose_iq_variable`), sampling;
//! * pooled append of *distinct new* clause contents only: restrictions
//!   (cofactor / Shannon / common-atom stripping — the content-dedup map
//!   makes repeats free);
//! * copy once: interning a formula ([`LineageArena::intern`]) and the
//!   relational product factorization (whose factors are *projections* — new
//!   clauses by construction — and are interned back into the arena);
//! * copy out, intern nothing: the exact fold of a view with at most 12
//!   variables (`dtree`'s dense kernel), which reads the view's clauses once
//!   into its own fixed-width entries, so its cofactors, stripped clauses
//!   and product factors never reach the arena.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::hash::{clause_fingerprint, HashCombiner};
use crate::partition::connected_components_by;
use crate::{Atom, Clause, Dnf, DnfHash, ProbabilitySpace, VarId};

/// A pooled, append-only store of interned lineage clauses.
///
/// See the module documentation in `arena.rs` for the design. An arena is
/// typically created per compilation run (or per batch item), seeded with
/// [`LineageArena::intern`], and grown by restriction compaction and the
/// product factorization — deduplicated by clause content, so the pool is
/// bounded by the number of *distinct* clauses the run ever touches.
#[derive(Debug, Clone, Default)]
pub struct LineageArena {
    /// All atoms of all interned clauses, clause by clause.
    atoms: Vec<Atom>,
    /// Clause id → `(start, end)` span into `atoms`.
    spans: Vec<(u32, u32)>,
    /// Clause id → raw additive fingerprint of the *full* clause (computed
    /// once at intern time; see [`crate::hash`]).
    fps: Vec<(u64, u64)>,
    /// Content-dedup index: clause digest → id. Shannon recursions produce
    /// the same restricted clauses over and over; interning each content
    /// once bounds the pool by the number of *distinct* clauses touched.
    dedup: std::collections::HashMap<(u64, u64), u32>,
}

impl LineageArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        LineageArena::default()
    }

    /// Creates an arena with room for roughly `clauses` clauses of width
    /// `width`.
    pub fn with_capacity(clauses: usize, width: usize) -> Self {
        LineageArena {
            atoms: Vec::with_capacity(clauses * width),
            spans: Vec::with_capacity(clauses),
            fps: Vec::with_capacity(clauses),
            dedup: std::collections::HashMap::with_capacity(clauses),
        }
    }

    /// A fresh arena holding exactly `dnf`, with the root view over it —
    /// how the `&Dnf` entry points of the compute crates reach their
    /// view-based implementations.
    pub fn from_dnf(dnf: &Dnf) -> (LineageArena, DnfView) {
        let mut arena = LineageArena::with_capacity(dnf.len(), 4);
        let root = arena.intern(dnf);
        (arena, root)
    }

    /// Number of interned clauses.
    pub fn num_clauses(&self) -> usize {
        self.spans.len()
    }

    /// Number of pooled atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Interns one clause (assumed consistent, sorted, deduplicated — the
    /// invariant [`Clause`] maintains) and returns its id. Identical clause
    /// content re-uses the existing id (verified by comparison, so a digest
    /// collision can never alias two different clauses).
    fn push_clause(&mut self, atoms: &[Atom]) -> u32 {
        let fp = clause_fingerprint(atoms.iter().copied());
        let digest = crate::hash::clause_digest(fp, atoms.len());
        if let Some(&id) = self.dedup.get(&digest) {
            if self.clause_atoms(id) == atoms {
                return id;
            }
        }
        let start = self.atoms.len() as u32;
        self.atoms.extend_from_slice(atoms);
        let end = self.atoms.len() as u32;
        let id = self.spans.len() as u32;
        self.spans.push((start, end));
        self.fps.push(fp);
        self.dedup.insert(digest, id);
        id
    }

    /// Interns a normalised [`Dnf`] (its clauses are already sorted, deduped
    /// and consistent), returning the root view over it. This is the one
    /// unavoidable copy of the lineage; every decomposition step afterwards
    /// is index manipulation.
    pub fn intern(&mut self, dnf: &Dnf) -> DnfView {
        let ids = dnf.clauses().iter().map(|c| self.push_clause(c.atoms())).collect();
        DnfView { ids }
    }

    /// Interns a **stream** of clauses in arbitrary order — the entry point
    /// for lineage construction that never materialises a `Vec<Clause>` (or
    /// an owned [`Dnf`]) first: query evaluation and storage-layer run
    /// iterators feed clauses one at a time as tuples stream by.
    ///
    /// Normalisation matches [`Dnf::from_clauses`]: inconsistent clauses are
    /// dropped, duplicate contents collapse, and the view's canonical-order
    /// invariant is maintained by binary insertion — so the returned view is
    /// bit-identical (materialisation and hash) to interning
    /// `Dnf::from_clauses(stream.collect())`, without the intermediate
    /// collection. Growing an existing view instead of starting fresh is
    /// [`LineageArena::append_clauses`], which additionally reports the
    /// [`LineageDelta`].
    pub fn intern_clause_stream<I>(&mut self, clauses: I) -> DnfView
    where
        I: IntoIterator<Item = Clause>,
    {
        let mut view = DnfView::empty();
        for clause in clauses {
            self.insert_clause(&mut view, clause.atoms());
        }
        view
    }

    /// Adds one clause to `view` **in place**, keeping its canonical order,
    /// and returns the clause's id when the view did not hold it yet. The
    /// atoms must be sorted and distinct, as a [`Clause`]'s are; an
    /// inconsistent clause is skipped, as [`Dnf::from_clauses`] drops it.
    /// This is the step [`LineageArena::intern_clause_stream`] takes per
    /// clause, for atoms borrowed from elsewhere (a storage row's, say)
    /// rather than an owned [`Clause`].
    pub fn insert_clause(&mut self, view: &mut DnfView, atoms: &[Atom]) -> Option<u32> {
        debug_assert!(atoms.windows(2).all(|w| w[0] < w[1]), "atoms must be sorted + deduped");
        if atoms.windows(2).any(|w| w[0].conflicts_with(&w[1])) {
            return None;
        }
        // An existing content is a no-op.
        let pos = view.ids.binary_search_by(|&e| self.clause_atoms(e).cmp(atoms)).err()?;
        let id = self.push_clause(atoms);
        view.ids.insert(pos, id);
        Some(id)
    }

    /// Interns an already-sorted, deduplicated, consistent clause sequence
    /// (e.g. a product-factorization factor, which arrives sorted out of a
    /// `BTreeSet`), returning a view over it.
    pub fn intern_sorted_clauses(&mut self, clauses: &[Clause]) -> DnfView {
        debug_assert!(clauses.windows(2).all(|w| w[0] < w[1]), "clauses must be sorted + deduped");
        let ids = clauses.iter().map(|c| self.push_clause(c.atoms())).collect();
        DnfView { ids }
    }

    /// The full (unmasked) atoms of clause `id`.
    #[inline]
    fn clause_atoms(&self, id: u32) -> &[Atom] {
        let (s, e) = self.spans[id as usize];
        &self.atoms[s as usize..e as usize]
    }

    /// Appends clauses to an existing view **in place**, returning the
    /// [`LineageDelta`] describing what actually changed.
    ///
    /// Inconsistent clauses and clauses whose content the view already
    /// contains are skipped (mirroring [`Dnf::from_clauses`] normalisation),
    /// so the delta carries only the genuinely new clauses. The view's
    /// canonical-order invariant is maintained by binary insertion, and the
    /// post-append fingerprint is computed incrementally from the view's
    /// previous hash — O(1) per appended clause instead of a re-combine over
    /// the whole formula.
    ///
    /// The grown view is bit-identical (materialisation and hash) to
    /// re-interning `old ∨ appended` from scratch, which is pinned by tests.
    pub fn append_clauses(&mut self, view: &mut DnfView, clauses: &[Clause]) -> LineageDelta {
        let mut hash = view.hash(self);
        let mut added: Vec<Clause> = Vec::new();
        for clause in clauses {
            if let Some(id) = self.insert_clause(view, clause.atoms()) {
                hash = hash.with_clause(self.fps[id as usize], clause.len());
                added.push(clause.clone());
            }
        }
        debug_assert_eq!(hash, view.hash(self), "incremental delta hash diverged");
        LineageDelta { clauses: added, hash_after: hash, len_after: view.ids.len() }
    }
}

/// The result of appending clauses to a lineage: the clauses that were
/// actually new, plus the incrementally updated canonical fingerprint of the
/// grown formula.
///
/// Deltas are **owned** (they carry [`Clause`] values, not arena ids), so a
/// delta produced against one arena can be replayed into another — e.g. the
/// private arena inside a suspended d-tree compilation. An empty delta means
/// the append was a no-op (every clause was inconsistent or already present).
#[derive(Debug, Clone)]
pub struct LineageDelta {
    clauses: Vec<Clause>,
    hash_after: DnfHash,
    len_after: usize,
}

impl LineageDelta {
    /// Computes the delta taking the formula `old` to the formula `new`, or
    /// `None` if the edit was **not** a pure append (some clause of `old` is
    /// missing from `new` — a destructive edit, which delta maintenance must
    /// refuse so stale bounds cannot survive it).
    pub fn between(old: &Dnf, new: &Dnf) -> Option<LineageDelta> {
        // Both clause lists are sorted and deduplicated by construction:
        // one sorted merge yields containment and the difference at once.
        let mut added = Vec::new();
        let (a, b) = (old.clauses(), new.clauses());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => return None, // a[i] dropped by `new`
                std::cmp::Ordering::Greater => {
                    added.push(b[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        if i < a.len() {
            return None;
        }
        added.extend(b[j..].iter().cloned());
        Some(LineageDelta {
            clauses: added,
            hash_after: new.canonical_hash(),
            len_after: new.len(),
        })
    }

    /// The clauses the append actually added, in sorted order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// `true` when the append changed nothing.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Number of genuinely new clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Canonical hash of the formula *after* the append.
    pub fn hash_after(&self) -> DnfHash {
        self.hash_after
    }

    /// Number of clauses of the formula after the append.
    pub fn len_after(&self) -> usize {
        self.len_after
    }
}

/// A sub-formula of interned lineage: a set of clause ids in canonical
/// order.
///
/// Restriction lists are *transient*: the restriction operators (cofactor,
/// Shannon cofactors, common-atom stripping) apply their mask during
/// `DnfView::canonicalize`'s compaction pass and return mask-free views,
/// so every stored view reads its clauses as raw pooled slices — no per-atom
/// mask check on the hot iterators.
///
/// All accessors take the owning [`LineageArena`]; a view holds no reference
/// itself, so it can be stored in work lists and tree nodes without lifetime
/// plumbing. Cloning a view copies only the id list (`u32`s), never clause
/// content.
#[derive(Debug, Clone, Default)]
pub struct DnfView {
    /// Arena clause ids, kept in canonical order (see the module docs) and
    /// free of duplicates.
    ids: Vec<u32>,
}

impl DnfView {
    /// The empty view (constant `false`).
    pub fn empty() -> Self {
        DnfView::default()
    }

    /// Number of (effective) clauses.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` for the empty view (constant `false`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The atoms of the `i`-th clause, in sorted variable order, for every
    /// clause of the view.
    #[inline]
    pub fn atoms<'a>(&'a self, arena: &'a LineageArena) -> impl Iterator<Item = ClauseAtoms<'a>> {
        self.ids.iter().map(move |&id| ClauseAtoms(arena.clause_atoms(id).iter()))
    }

    /// The atoms of the clause at position `i`, in sorted variable order.
    #[inline]
    pub fn clause<'a>(&'a self, arena: &'a LineageArena, i: usize) -> ClauseAtoms<'a> {
        ClauseAtoms(arena.clause_atoms(self.ids[i]).iter())
    }

    /// The atoms of the clause at position `i` as a raw pooled slice,
    /// borrowed straight from the arena, for scans where the iterator
    /// wrapper of [`DnfView::clause`] would cost a pointer chase per atom.
    #[inline]
    pub fn clause_slice<'a>(&self, arena: &'a LineageArena, i: usize) -> &'a [Atom] {
        arena.clause_atoms(self.ids[i])
    }

    /// Length of the clause at position `i`.
    #[inline]
    pub fn clause_len(&self, arena: &LineageArena, i: usize) -> usize {
        self.clause_slice(arena, i).len()
    }

    /// `true` if some clause is empty, i.e. the view is the constant `true`.
    pub fn is_tautology(&self, arena: &LineageArena) -> bool {
        self.ids.iter().any(|&id| arena.clause_atoms(id).is_empty())
    }

    /// The value the clause at position `i` binds `var` to.
    pub fn value_of(&self, arena: &LineageArena, i: usize, var: VarId) -> Option<u32> {
        full_value_of(self.clause_slice(arena, i), var)
    }

    /// `true` if the clause at position `i` effectively mentions `var`.
    pub fn mentions(&self, arena: &LineageArena, i: usize, var: VarId) -> bool {
        self.value_of(arena, i, var).is_some()
    }

    /// The set of variables effectively occurring in the view.
    pub fn vars(&self, arena: &LineageArena) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        for i in 0..self.len() {
            out.extend(self.clause(arena, i).map(|a| a.var));
        }
        out
    }

    /// Number of distinct effective variables.
    pub fn num_vars(&self, arena: &LineageArena) -> usize {
        self.vars(arena).len()
    }

    /// Total number of effective atoms.
    pub fn size(&self, arena: &LineageArena) -> usize {
        (0..self.len()).map(|i| self.clause_len(arena, i)).sum()
    }

    /// Counts, for each effective variable, the number of clauses it occurs
    /// in — mirrors [`Dnf::occurrence_counts`].
    pub fn occurrence_counts(&self, arena: &LineageArena) -> BTreeMap<VarId, usize> {
        let mut counts = BTreeMap::new();
        for i in 0..self.len() {
            for a in self.clause(arena, i) {
                *counts.entry(a.var).or_insert(0) += 1;
            }
        }
        counts
    }

    /// A variable occurring in the largest number of clauses, with
    /// [`Dnf::most_frequent_var`]'s exact tie-breaking (highest count wins,
    /// smallest id among ties) — computed by one flat sort + run-length scan
    /// instead of a tree map.
    pub fn most_frequent_var(&self, arena: &LineageArena) -> Option<VarId> {
        let mut vars: Vec<VarId> = Vec::new();
        for i in 0..self.len() {
            vars.extend(self.clause(arena, i).map(|a| a.var));
        }
        vars.sort_unstable();
        let mut best: Option<(VarId, usize)> = None;
        let mut i = 0;
        while i < vars.len() {
            let v = vars[i];
            let mut j = i + 1;
            while j < vars.len() && vars[j] == v {
                j += 1;
            }
            let count = j - i;
            // The owned tie-break: a higher count wins; on equal counts the
            // *smaller* variable id wins.
            if best.map(|(bv, bc)| count > bc || (count == bc && v < bv)).unwrap_or(true) {
                best = Some((v, count));
            }
            i = j;
        }
        best.map(|(v, _)| v)
    }

    /// Probability of the clause at position `i`: product of atom marginals
    /// (1 for an empty clause).
    pub fn clause_probability(
        &self,
        arena: &LineageArena,
        space: &ProbabilitySpace,
        i: usize,
    ) -> f64 {
        self.clause_slice(arena, i).iter().map(|a| space.atom_prob(*a)).product()
    }

    /// Sum of clause marginal probabilities — mirrors
    /// [`Dnf::clause_probability_sum`].
    pub fn clause_probability_sum(&self, arena: &LineageArena, space: &ProbabilitySpace) -> f64 {
        (0..self.len()).map(|i| self.clause_probability(arena, space, i)).sum()
    }

    /// Clause positions with probabilities, sorted descending by probability
    /// (stable, so ties keep canonical clause order) — mirrors
    /// [`Dnf::clauses_by_probability_desc`].
    pub fn clauses_by_probability_desc(
        &self,
        arena: &LineageArena,
        space: &ProbabilitySpace,
    ) -> Vec<(usize, f64)> {
        let mut with_p: Vec<(usize, f64)> =
            (0..self.len()).map(|i| (i, self.clause_probability(arena, space, i))).collect();
        with_p.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        with_p
    }

    /// Evaluates the view under a complete valuation — mirrors [`Dnf::eval`].
    pub fn eval(&self, arena: &LineageArena, valuation: &dyn Fn(VarId) -> u32) -> bool {
        (0..self.len()).any(|i| self.clause(arena, i).all(|a| valuation(a.var) == a.value))
    }

    /// One-past the largest variable id mentioned by the view, i.e. the
    /// smallest [`ProbabilitySpace`] watermark under which every variable of
    /// this view exists. `0` for constant views.
    pub fn required_watermark(&self, arena: &LineageArena) -> u64 {
        self.ids
            .iter()
            // Atoms are sorted by variable: the last atom carries the max.
            .filter_map(|&id| arena.clause_atoms(id).last())
            .map(|a| a.var.0 as u64 + 1)
            .max()
            .unwrap_or(0)
    }

    /// Canonical hash of the formula — **equal to [`Dnf::canonical_hash`] of
    /// the materialised sub-formula**, computed as an incremental combine
    /// over the interned per-clause fingerprints: O(clauses), never a
    /// re-walk of every atom.
    pub fn hash(&self, arena: &LineageArena) -> DnfHash {
        let mut c = HashCombiner::new();
        for &id in &self.ids {
            c.add_clause(arena.fps[id as usize], arena.clause_atoms(id).len());
        }
        c.finish()
    }

    /// Materialises the view as an owned, canonical [`Dnf`] (the compat
    /// bridge back into the owned API). The result is exactly the `Dnf` the
    /// owned decomposition path would have produced.
    pub fn to_dnf(&self, arena: &LineageArena) -> Dnf {
        Dnf::from_clauses((0..self.len()).map(|i| Clause::from_atoms(self.clause(arena, i))))
    }

    /// Applies the transient restriction list `mask` (sorted variables to
    /// project out) and restores the canonical-order invariant, by
    /// **compacting**: each clause of `touched` (every clause that binds a
    /// masked variable, possibly others, whose content comes back with its
    /// own id) is re-interned without those atoms — one flat pool append
    /// per *distinct* clause content, no per-clause allocations — so the
    /// returned view is mask-free and every later access is a raw slice
    /// scan. The clauses of `untouched` bind no masked variable and keep
    /// their ids; they are a subsequence of a canonical list, hence still in
    /// canonical order, so only the touched ids are sorted and then merged
    /// into them. Clauses that the restriction made equal are merged into
    /// one.
    ///
    /// Cost: `O(Σ|c|)` over the touched clauses `c` for the re-interning,
    /// plus a sort of the touched ids and one merge; an untouched clause
    /// costs one comparison in the merge. Keeping restriction lists
    /// transient is what makes deep Shannon recursions fast: the owned path
    /// pays the restriction once per step too, but with one heap allocation
    /// per clause.
    fn canonicalize(
        arena: &mut LineageArena,
        untouched: &[u32],
        mut touched: Vec<u32>,
        mask: &[VarId],
    ) -> DnfView {
        let mut scratch: Vec<Atom> = Vec::new();
        for id in &mut touched {
            scratch.clear();
            scratch.extend(
                arena
                    .clause_atoms(*id)
                    .iter()
                    .copied()
                    .filter(|a| mask.binary_search(&a.var).is_err()),
            );
            *id = arena.push_clause(&scratch);
        }
        touched.sort_unstable_by(|&a, &b| arena.clause_atoms(a).cmp(arena.clause_atoms(b)));
        if untouched.is_empty() {
            touched.dedup_by(|a, b| arena.clause_atoms(*a) == arena.clause_atoms(*b));
            return DnfView { ids: touched };
        }
        let mut ids = Vec::with_capacity(untouched.len() + touched.len());
        let (mut i, mut j) = (0, 0);
        while i < untouched.len() && j < touched.len() {
            if arena.clause_atoms(untouched[i]) <= arena.clause_atoms(touched[j]) {
                ids.push(untouched[i]);
                i += 1;
            } else {
                ids.push(touched[j]);
                j += 1;
            }
        }
        ids.extend_from_slice(&untouched[i..]);
        ids.extend_from_slice(&touched[j..]);
        ids.dedup_by(|a, b| arena.clause_atoms(*a) == arena.clause_atoms(*b));
        DnfView { ids }
    }

    /// The Shannon cofactor `Φ|var=value` — mirrors [`Dnf::cofactor`]:
    /// conflicting clauses are filtered out of the id list and the
    /// restriction on `var` is compacted into the pool (see [`DnfView`]
    /// docs), so the returned view is mask-free.
    pub fn cofactor(&self, arena: &mut LineageArena, var: VarId, value: u32) -> DnfView {
        let (mut untouched, mut touched) = (Vec::new(), Vec::new());
        for &id in &self.ids {
            match full_value_of(arena.clause_atoms(id), var) {
                Some(v) if v == value => touched.push(id),
                Some(_) => {}
                None => untouched.push(id),
            }
        }
        DnfView::canonicalize(arena, &untouched, touched, &[var])
    }

    /// All non-empty Shannon cofactors of `var` as `(value, cofactor)` pairs —
    /// mirrors [`Dnf::shannon_cofactors`], computed with a **single grouping
    /// pass** over the clauses (clauses binding `var` to each value, plus the
    /// unconstrained remainder) instead of one scan per domain value.
    pub fn shannon_cofactors(
        &self,
        arena: &mut LineageArena,
        var: VarId,
        space: &ProbabilitySpace,
    ) -> Vec<(u32, DnfView)> {
        // Group clause ids by the value they bind `var` to (sorted small-vec
        // grouping; domain sizes are tiny, usually 2).
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut rest: Vec<u32> = Vec::new();
        for &id in &self.ids {
            match full_value_of(arena.clause_atoms(id), var) {
                Some(v) => match groups.binary_search_by_key(&v, |g| g.0) {
                    Ok(i) => groups[i].1.push(id),
                    Err(i) => groups.insert(i, (v, vec![id])),
                },
                None => rest.push(id),
            }
        }
        let mut out = Vec::new();
        for value in 0..space.domain_size(var) {
            let group = groups
                .binary_search_by_key(&value, |g| g.0)
                .ok()
                .map(|i| groups[i].1.as_slice())
                .unwrap_or(&[]);
            if group.is_empty() && rest.is_empty() {
                continue;
            }
            out.push((value, DnfView::canonicalize(arena, &rest, group.to_vec(), &[var])));
        }
        out
    }

    /// Partitions the view into independent components — mirrors
    /// [`Dnf::independent_components`], sharing the exact grouping algorithm
    /// via [`connected_components_by`] so component order is identical.
    pub fn independent_components(&self, arena: &LineageArena) -> Vec<DnfView> {
        if self.len() <= 1 {
            return vec![self.clone()];
        }
        let groups = connected_components_by(self.len(), |i| self.clause(arena, i).map(|a| a.var));
        if groups.len() <= 1 {
            return vec![self.clone()];
        }
        groups
            .into_iter()
            .map(|idxs| DnfView {
                // An ascending subsequence of a canonically ordered id list
                // is canonically ordered: no re-sort needed.
                ids: idxs.into_iter().map(|i| self.ids[i]).collect(),
            })
            .collect()
    }

    /// Atoms effectively shared by every clause — mirrors
    /// [`Dnf::common_atoms`], computed as a running sorted-merge intersection
    /// of the first clause's atoms with every other clause (atoms are sorted
    /// by variable, so each clause shrinks the candidate set in one pass).
    pub fn common_atoms(&self, arena: &LineageArena) -> Vec<Atom> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut candidates: Vec<Atom> = self.clause(arena, 0).collect();
        for i in 1..self.len() {
            if candidates.is_empty() {
                return candidates;
            }
            let mut kept = 0;
            let mut clause = self.clause(arena, i).peekable();
            'cand: for c in 0..candidates.len() {
                let a = candidates[c];
                while let Some(&b) = clause.peek() {
                    match b.var.cmp(&a.var) {
                        std::cmp::Ordering::Less => {
                            clause.next();
                        }
                        std::cmp::Ordering::Greater => continue 'cand,
                        std::cmp::Ordering::Equal => {
                            // Same variable: the atom survives only when the
                            // clause binds it to the same value (a different
                            // binding both fails the every-clause filter and
                            // is the owned path's conflict exclusion).
                            if b.value == a.value {
                                candidates[kept] = a;
                                kept += 1;
                            }
                            continue 'cand;
                        }
                    }
                }
                // Clause exhausted: the variable is absent — drop.
            }
            candidates.truncate(kept);
        }
        candidates
    }

    /// Removes the given variables from every clause — mirrors
    /// [`Dnf::strip_atoms`]. The id list is re-sorted (removing even a
    /// *shared* atom can reorder clauses lexicographically: a mid-sequence
    /// difference can become a prefix relation, e.g. `{¬x0,¬x1}` vs `{¬x1}`
    /// stripped of `x1` becomes `{¬x0}` vs `{}`) and the restriction is
    /// compacted into the pool.
    pub fn strip_vars(&self, arena: &mut LineageArena, vars: &[VarId]) -> DnfView {
        let mut mask = vars.to_vec();
        mask.sort_unstable();
        mask.dedup();
        // Common atoms occur in every clause, so every clause counts as
        // touched; re-interning one that binds no masked variable returns
        // its own id.
        DnfView::canonicalize(arena, &[], self.ids.clone(), &mask)
    }

    /// Removes subsumed effective clauses — mirrors [`Dnf::remove_subsumed`]
    /// including its uniform-width fast path, returning `(view, removed)`.
    ///
    /// Clause contents are distinct, so a subsumer is strictly narrower and
    /// the kept clauses are exactly the minimal ones, whatever order the
    /// tests run in. The empty clause subsumes every other clause and is
    /// handled on its own. Otherwise only clauses narrower than the widest
    /// can subsume: they are indexed by their first atom, and each clause is
    /// tested only against the subsumers keyed by one of its own atoms.
    /// Cost: one sort of the candidate subsumers, then `O(Σ|c| · log n)`
    /// lookups plus one sorted-merge test per (clause, subsumer keyed by one
    /// of its atoms) pair, instead of all `n²` pairs.
    pub fn remove_subsumed(&self, arena: &LineageArena) -> (DnfView, usize) {
        let n = self.len();
        let widths = (0..n).map(|i| self.clause_len(arena, i));
        let (narrowest, widest) =
            widths.fold((usize::MAX, 0), |(lo, hi), w| (lo.min(w), hi.max(w)));
        if narrowest >= widest {
            // Uniform width (or no clause): nothing can be subsumed.
            return (self.clone(), 0);
        }
        if narrowest == 0 {
            let empty = (0..n).find(|&i| self.clause_len(arena, i) == 0).expect("narrowest is 0");
            return (DnfView { ids: vec![self.ids[empty]] }, n - 1);
        }
        let mut subsumers: Vec<(Atom, u32)> = (0..n)
            .map(|i| (self.clause_slice(arena, i), i))
            .filter(|(c, _)| c.len() < widest)
            .map(|(c, i)| (c[0], i as u32))
            .collect();
        subsumers.sort_unstable();
        let mut ids = Vec::with_capacity(n);
        for (j, &id) in self.ids.iter().enumerate() {
            let clause = self.clause_slice(arena, j);
            let subsumed = clause.len() > narrowest
                && clause.iter().enumerate().any(|(at, first)| {
                    let from = subsumers.partition_point(|(a, _)| a < first);
                    subsumers[from..].iter().take_while(|(a, _)| a == first).any(|&(_, i)| {
                        let small = self.clause_slice(arena, i as usize);
                        small.len() < clause.len() && subsumes_sorted(small, &clause[at..])
                    })
                });
            if !subsumed {
                ids.push(id);
            }
        }
        let removed = n - ids.len();
        (DnfView { ids }, removed)
    }
}

/// The value a *full* (unmasked) sorted clause binds `var` to, via binary
/// search over the sorted atom slice.
#[inline]
fn full_value_of(atoms: &[Atom], var: VarId) -> Option<u32> {
    atoms.binary_search_by_key(&var, |a| a.var).ok().map(|i| atoms[i].value)
}

/// Sorted-merge subset test over two sorted atom slices — mirrors
/// [`Clause::subsumes`].
fn subsumes_sorted(small: &[Atom], big: &[Atom]) -> bool {
    if small.len() > big.len() {
        return false;
    }
    let mut j = 0;
    'outer: for &a in small {
        while j < big.len() {
            match a.cmp(&big[j]) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
            }
        }
        return false;
    }
    true
}

/// Iterator over one clause's atoms, in sorted variable order.
#[derive(Debug, Clone)]
pub struct ClauseAtoms<'a>(std::slice::Iter<'a, Atom>);

impl Iterator for ClauseAtoms<'_> {
    type Item = Atom;

    #[inline]
    fn next(&mut self) -> Option<Atom> {
        self.0.next().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TRUE_VALUE;

    fn bool_space(ps: &[f64]) -> (ProbabilitySpace, Vec<VarId>) {
        let mut s = ProbabilitySpace::new();
        let vars = ps.iter().enumerate().map(|(i, &p)| s.add_bool(format!("x{i}"), p)).collect();
        (s, vars)
    }

    /// Asserts that a view and an owned DNF represent the same formula:
    /// same materialisation, same canonical hash.
    fn assert_matches(arena: &LineageArena, view: &DnfView, dnf: &Dnf) {
        assert_eq!(&view.to_dnf(arena), dnf, "view materialisation diverged");
        assert_eq!(view.hash(arena), dnf.canonical_hash(), "view hash diverged");
        assert_eq!(view.len(), dnf.len());
    }

    fn chain(vars: &[VarId]) -> Dnf {
        Dnf::from_clauses((0..vars.len() - 1).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])))
    }

    #[test]
    fn intern_roundtrips() {
        let (_, vars) = bool_space(&[0.5; 6]);
        let dnf = chain(&vars);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        assert_matches(&arena, &view, &dnf);
        assert_eq!(arena.num_clauses(), dnf.len());
        assert_eq!(arena.num_atoms(), dnf.size());
        assert_eq!(view.vars(&arena), dnf.vars());
        assert_eq!(view.size(&arena), dnf.size());
        assert_eq!(view.occurrence_counts(&arena), dnf.occurrence_counts());
        assert_eq!(view.most_frequent_var(&arena), dnf.most_frequent_var());
        assert_eq!(view.required_watermark(&arena), vars.last().unwrap().0 as u64 + 1);
    }

    #[test]
    fn cofactor_matches_owned_path() {
        let (s, vars) = bool_space(&[0.3, 0.4, 0.5, 0.6, 0.7]);
        let dnf = chain(&vars);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        for &var in &vars {
            for value in 0..s.domain_size(var) {
                let owned = dnf.cofactor(var, value);
                let v = view.cofactor(&mut arena, var, value);
                assert_matches(&arena, &v, &owned);
            }
        }
    }

    #[test]
    fn nested_cofactors_stay_canonical() {
        let (s, vars) = bool_space(&[0.3, 0.4, 0.5, 0.6, 0.7, 0.2]);
        let dnf = chain(&vars);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        // Walk a Shannon path two levels deep and compare against the owned
        // decomposition at every node.
        for (v1, c1) in view.shannon_cofactors(&mut arena, vars[1], &s) {
            let owned1 = dnf.cofactor(vars[1], v1);
            assert_matches(&arena, &c1, &owned1);
            for (v2, c2) in c1.shannon_cofactors(&mut arena, vars[3], &s) {
                let owned2 = owned1.cofactor(vars[3], v2);
                assert_matches(&arena, &c2, &owned2);
            }
        }
    }

    #[test]
    fn shannon_cofactors_match_owned_pairs() {
        let mut s = ProbabilitySpace::new();
        let x = s.add_discrete("x", vec![0.2, 0.3, 0.5]);
        let y = s.add_bool("y", 0.4);
        let dnf = Dnf::from_clauses(vec![
            Clause::from_atoms(vec![Atom::new(x, 1)]),
            Clause::from_atoms(vec![Atom::new(x, 2), Atom::pos(y)]),
        ]);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        let owned = dnf.shannon_cofactors(x, &s);
        let viewed = view.shannon_cofactors(&mut arena, x, &s);
        assert_eq!(owned.len(), viewed.len());
        for ((ov, od), (vv, vd)) in owned.iter().zip(&viewed) {
            assert_eq!(ov, vv);
            assert_matches(&arena, vd, od);
        }
    }

    #[test]
    fn components_match_owned_order() {
        let (_, vars) = bool_space(&[0.5; 7]);
        let dnf = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[1], vars[2]]),
            Clause::from_bools(&[vars[3]]),
            Clause::from_bools(&[vars[4], vars[5]]),
            Clause::from_bools(&[vars[5], vars[6]]),
        ]);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        let owned = dnf.independent_components();
        let viewed = view.independent_components(&arena);
        assert_eq!(owned.len(), viewed.len());
        for (o, v) in owned.iter().zip(&viewed) {
            assert_matches(&arena, v, o);
        }
    }

    #[test]
    fn common_atoms_and_strip_match_owned() {
        let (_, vars) = bool_space(&[0.3, 0.5, 0.6, 0.9]);
        let (a, b, c, d) = (vars[0], vars[1], vars[2], vars[3]);
        let dnf =
            Dnf::from_clauses(vec![Clause::from_bools(&[a, b, c]), Clause::from_bools(&[a, b, d])]);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        let common = view.common_atoms(&arena);
        assert_eq!(common, dnf.common_atoms());
        let vars_only: Vec<VarId> = common.iter().map(|at| at.var).collect();
        let stripped = view.strip_vars(&mut arena, &vars_only);
        assert_matches(&arena, &stripped, &dnf.strip_atoms(&common));
    }

    #[test]
    fn remove_subsumed_matches_owned() {
        let (_, vars) = bool_space(&[0.5; 4]);
        let dnf = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0]]),
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[2], vars[3]]),
        ]);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        let (reduced, removed) = view.remove_subsumed(&arena);
        assert_eq!(removed, 1);
        assert_matches(&arena, &reduced, &dnf.remove_subsumed());
        // Uniform width: fast path, nothing removed.
        let uni = chain(&vars);
        let root = arena.intern(&uni);
        let (same, removed) = root.remove_subsumed(&arena);
        assert_eq!(removed, 0);
        assert_matches(&arena, &same, &uni.remove_subsumed());
    }

    #[test]
    fn cofactor_dedups_aliased_clauses() {
        // {x, y} and {y} collapse onto one clause once x is assigned true.
        let (_s, vars) = bool_space(&[0.5, 0.5]);
        let (x, y) = (vars[0], vars[1]);
        let dnf = Dnf::from_clauses(vec![Clause::from_bools(&[x, y]), Clause::from_bools(&[y])]);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        let cof = view.cofactor(&mut arena, x, TRUE_VALUE);
        assert_eq!(cof.len(), 1);
        assert_matches(&arena, &cof, &dnf.cofactor(x, TRUE_VALUE));
        // Assigning x false drops the first clause.
        let cof = view.cofactor(&mut arena, x, 0);
        assert_matches(&arena, &cof, &dnf.cofactor(x, 0));
    }

    #[test]
    fn tautology_detection_through_masking() {
        let (_, vars) = bool_space(&[0.5, 0.5]);
        let dnf = Dnf::from_clauses(vec![Clause::from_bools(&[vars[0]])]);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        assert!(!view.is_tautology(&arena));
        let cof = view.cofactor(&mut arena, vars[0], TRUE_VALUE);
        assert!(cof.is_tautology(&arena));
        assert!(cof.to_dnf(&arena).is_tautology());
        assert!(view.cofactor(&mut arena, vars[0], 0).is_empty());
    }

    #[test]
    fn append_clauses_is_bit_identical_to_reintern() {
        let (_, vars) = bool_space(&[0.5; 8]);
        let base = chain(&vars[..5]);
        let mut arena = LineageArena::new();
        let mut view = arena.intern(&base);
        let extra = vec![
            Clause::from_bools(&[vars[5], vars[6]]),
            Clause::from_bools(&[vars[0], vars[7]]),
            // Duplicate of an existing clause: must be skipped.
            Clause::from_bools(&[vars[0], vars[1]]),
            // Inconsistent: must be skipped.
            Clause::from_atoms(vec![Atom::pos(vars[2]), Atom::neg(vars[2])]),
        ];
        let delta = arena.append_clauses(&mut view, &extra);
        assert_eq!(delta.len(), 2);
        let grown = Dnf::from_clauses(base.clauses().iter().chain(extra.iter()).cloned());
        assert_matches(&arena, &view, &grown);
        assert_eq!(delta.hash_after(), grown.canonical_hash());
        assert_eq!(delta.len_after(), grown.len());
        // Appending the same clauses again is a no-op.
        let again = arena.append_clauses(&mut view, &extra);
        assert!(again.is_empty());
        assert_eq!(again.len_after(), grown.len());
        assert_matches(&arena, &view, &grown);
    }

    /// Stream interning — clauses arriving one at a time, unsorted, with
    /// duplicates and inconsistencies mixed in — lands on exactly the view
    /// that collecting everything into `Dnf::from_clauses` would produce.
    #[test]
    fn intern_clause_stream_is_bit_identical_to_collected_intern() {
        let (_, vars) = bool_space(&[0.5; 8]);
        let stream = vec![
            Clause::from_bools(&[vars[5], vars[6]]),
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[0], vars[7]]),
            // Duplicate content: must collapse.
            Clause::from_bools(&[vars[1], vars[0]]),
            // Inconsistent: must be dropped.
            Clause::from_atoms(vec![Atom::pos(vars[2]), Atom::neg(vars[2])]),
            Clause::from_bools(&[vars[3]]),
        ];
        let mut arena = LineageArena::new();
        let streamed = arena.intern_clause_stream(stream.iter().cloned());
        let collected = Dnf::from_clauses(stream);
        assert_matches(&arena, &streamed, &collected);
        assert_eq!(streamed.hash(&arena), collected.canonical_hash());
        // The empty stream is the constant-false view.
        let empty = arena.intern_clause_stream(std::iter::empty());
        assert!(empty.is_empty());
    }

    #[test]
    fn delta_between_detects_appends_and_destructive_edits() {
        let (_, vars) = bool_space(&[0.5; 6]);
        let old = chain(&vars[..4]);
        let extra = Clause::from_bools(&[vars[4], vars[5]]);
        let new = old.or(&Dnf::singleton(extra.clone()));
        let delta = LineageDelta::between(&old, &new).expect("pure append");
        assert_eq!(delta.clauses(), &[extra]);
        assert_eq!(delta.hash_after(), new.canonical_hash());
        assert_eq!(delta.len_after(), new.len());
        // Identity edit: empty delta.
        let noop = LineageDelta::between(&old, &old).expect("identity is an append");
        assert!(noop.is_empty());
        // Dropping a clause is destructive.
        let shrunk = Dnf::from_clauses(old.clauses()[1..].iter().cloned());
        assert!(LineageDelta::between(&old, &shrunk).is_none());
        // Replacing a clause is destructive too.
        let mut replaced: Vec<Clause> = old.clauses()[1..].to_vec();
        replaced.push(Clause::from_bools(&[vars[5]]));
        assert!(LineageDelta::between(&old, &Dnf::from_clauses(replaced)).is_none());
    }

    #[test]
    fn eval_matches_owned() {
        let (_, vars) = bool_space(&[0.5; 3]);
        let dnf = chain(&vars);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        assert_eq!(view.eval(&arena, &|_| TRUE_VALUE), dnf.eval(&|_| TRUE_VALUE));
        assert_eq!(view.eval(&arena, &|_| 0), dnf.eval(&|_| 0));
        let pick = |v: VarId| if v == vars[0] || v == vars[1] { 1 } else { 0 };
        assert_eq!(view.eval(&arena, &pick), dnf.eval(&pick));
    }
}
