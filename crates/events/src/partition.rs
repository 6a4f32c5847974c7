//! Structural analyses of clause sets: union-find, independence partitioning
//! (connected components of the variable co-occurrence graph) and product
//! factorization (the independent-and decomposition of column-aligned DNFs).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::Hash;

use crate::{Clause, VarId};

/// A generic union-find (disjoint-set) structure over hashable keys.
///
/// Used for the independent-or decomposition: variables co-occurring in a
/// clause are merged, and each resulting set is an independent component of
/// the DNF. The paper phrases this as computing connected components with
/// Tarjan's algorithm; union-find with path compression gives the same
/// components in near-linear time.
#[derive(Debug, Clone, Default)]
pub struct UnionFind<K: Eq + Hash + Ord + Copy> {
    parent: BTreeMap<K, K>,
    rank: BTreeMap<K, u32>,
    components: usize,
}

impl<K: Eq + Hash + Ord + Copy> UnionFind<K> {
    /// Creates an empty union-find.
    pub fn new() -> Self {
        UnionFind { parent: BTreeMap::new(), rank: BTreeMap::new(), components: 0 }
    }

    /// Inserts a key as its own singleton set (no-op if already present).
    pub fn insert(&mut self, k: K) {
        if let Entry::Vacant(e) = self.parent.entry(k) {
            e.insert(k);
            self.rank.insert(k, 0);
            self.components += 1;
        }
    }

    /// Finds the representative of `k`'s set, inserting `k` if needed.
    pub fn find(&mut self, k: K) -> K {
        self.insert(k);
        let mut root = k;
        while self.parent[&root] != root {
            root = self.parent[&root];
        }
        // Path compression.
        let mut cur = k;
        while self.parent[&cur] != root {
            let next = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`.
    pub fn union(&mut self, a: K, b: K) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        self.components -= 1;
        let (ra_rank, rb_rank) = (self.rank[&ra], self.rank[&rb]);
        if ra_rank < rb_rank {
            self.parent.insert(ra, rb);
        } else if ra_rank > rb_rank {
            self.parent.insert(rb, ra);
        } else {
            self.parent.insert(rb, ra);
            *self.rank.get_mut(&ra).expect("rank exists for inserted key") += 1;
        }
    }

    /// `true` if `a` and `b` are in the same set.
    pub fn same_set(&mut self, a: K, b: K) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets currently tracked.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Number of keys tracked.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Groups all keys by their representative.
    pub fn groups(&mut self) -> Vec<Vec<K>> {
        let keys: Vec<K> = self.parent.keys().copied().collect();
        let mut by_root: BTreeMap<K, Vec<K>> = BTreeMap::new();
        for k in keys {
            let r = self.find(k);
            by_root.entry(r).or_default().push(k);
        }
        by_root.into_values().collect()
    }
}

/// Partitions the clauses (given by index) into independent groups: two
/// clauses belong to the same group iff they are connected through shared
/// variables. This is the independent-or (⊗) partitioning of the paper.
pub fn connected_components(clauses: &[Clause]) -> Vec<Vec<usize>> {
    connected_components_by(clauses.len(), |i| clauses[i].vars())
}

/// Generic form of [`connected_components`]: `n` clauses, the `i`-th yielding
/// its variables through `vars_of`. Owned [`crate::Dnf`]s and arena
/// [`crate::DnfView`]s share this exact implementation, so the two paths
/// produce components in the **same order** — a prerequisite for the
/// bit-identity of the arena-backed d-tree compiler.
pub fn connected_components_by<F, I>(n: usize, mut vars_of: F) -> Vec<Vec<usize>>
where
    F: FnMut(usize) -> I,
    I: IntoIterator<Item = VarId>,
{
    // Flat union-find over clause indices (same union-by-rank + full path
    // compression semantics as [`UnionFind`], so roots — and with them the
    // component order — are identical to the map-based structure, at a
    // fraction of the cost).
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut rank: Vec<u8> = vec![0; n];
    fn find(parent: &mut [u32], k: u32) -> u32 {
        let mut root = k;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = k;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    // Sorted flat map variable → first clause (binary-search insert; the
    // var sets of decomposition nodes are small, and even for large ones the
    // log-time probe beats a hash map's per-entry allocation churn).
    let mut var_to_first_clause: Vec<(VarId, u32)> = Vec::new();
    for i in 0..n {
        for v in vars_of(i) {
            match var_to_first_clause.binary_search_by_key(&v, |e| e.0) {
                Err(pos) => var_to_first_clause.insert(pos, (v, i as u32)),
                Ok(pos) => {
                    let (a, b) = (i as u32, var_to_first_clause[pos].1);
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        match rank[ra as usize].cmp(&rank[rb as usize]) {
                            std::cmp::Ordering::Less => parent[ra as usize] = rb,
                            std::cmp::Ordering::Greater => parent[rb as usize] = ra,
                            std::cmp::Ordering::Equal => {
                                parent[rb as usize] = ra;
                                rank[ra as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    // Group by root in ascending root order (what the `BTreeMap` grouping of
    // the map-based implementation produced).
    let mut slot: Vec<u32> = vec![u32::MAX; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut roots: Vec<u32> = Vec::new();
    for i in 0..n {
        let r = find(&mut parent, i as u32);
        if slot[r as usize] == u32::MAX {
            slot[r as usize] = roots.len() as u32;
            roots.push(r);
            groups.push(Vec::new());
        }
        groups[slot[r as usize] as usize].push(i);
    }
    // Roots are discovered in ascending clause order; a set's root is always
    // its first-inserted... not necessarily — order groups by root id to
    // match the reference grouping exactly.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_unstable_by_key(|&g| roots[g]);
    order.into_iter().map(|g| std::mem::take(&mut groups[g])).collect()
}

/// Labels mapping each variable to the "origin group" it belongs to — for
/// query lineage, the input relation (or query subgoal) the variable's tuple
/// came from. Origin information drives both the independent-and product
/// factorization and the tractable variable-elimination orders of Section VI.
///
/// Variable ids are dense (one per tuple, allocated sequentially), so the
/// table is a flat vector indexed by id — the factorization gate probes it
/// for **every atom of every decomposition step**, which a tree map made the
/// single hottest lookup of the compiler. Cloning is cheap: the table is
/// behind an [`std::sync::Arc`] that is only copied on write, so per-lineage
/// front-ends can clone the origins into their compile options without
/// paying for the whole table — millions of variables would otherwise make
/// every confidence call `O(database)`.
#[derive(Debug, Clone, Default)]
pub struct VarOrigins {
    inner: std::sync::Arc<OriginTable>,
}

/// Sentinel for "no origin recorded".
const NO_ORIGIN: u32 = u32::MAX;

#[derive(Debug, Clone, Default)]
struct OriginTable {
    /// `groups[var.index()]` is the origin group, or [`NO_ORIGIN`].
    groups: Vec<u32>,
    /// Number of variables with a recorded origin.
    known: usize,
}

impl VarOrigins {
    /// Creates an empty origin map.
    pub fn new() -> Self {
        VarOrigins::default()
    }

    /// Records that `var` originates from group `group` (e.g. relation id).
    ///
    /// # Panics
    /// Panics on the reserved group id `u32::MAX`.
    pub fn set(&mut self, var: VarId, group: u32) {
        assert_ne!(group, NO_ORIGIN, "origin group id u32::MAX is reserved");
        let table = std::sync::Arc::make_mut(&mut self.inner);
        if table.groups.len() <= var.index() {
            table.groups.resize(var.index() + 1, NO_ORIGIN);
        }
        if table.groups[var.index()] == NO_ORIGIN {
            table.known += 1;
        }
        table.groups[var.index()] = group;
    }

    /// The origin group of `var`, if known.
    #[inline]
    pub fn get(&self, var: VarId) -> Option<u32> {
        match self.inner.groups.get(var.index()) {
            Some(&g) if g != NO_ORIGIN => Some(g),
            _ => None,
        }
    }

    /// Number of variables with a recorded origin.
    pub fn len(&self) -> usize {
        self.inner.known
    }

    /// `true` if no origin is recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.known == 0
    }

    /// The set of distinct origin groups mentioned by the given clause set.
    pub fn groups_of(&self, clauses: &[Clause]) -> BTreeSet<u32> {
        clauses.iter().flat_map(|c| c.vars()).filter_map(|v| self.get(v)).collect()
    }
}

/// Attempts the *independent-and* (⊙) product factorization of a clause set
/// whose variables carry origin labels.
///
/// The lineage of a conjunctive query has one variable per subgoal in each
/// clause; a partition `{G1, …, Gk}` of the subgoals factorizes the DNF iff
/// the clause set equals the cartesian product of its projections onto each
/// `Gi`. This function:
///
/// 1. groups origins that must stay together: `g` and `h` share a factor
///    when the clauses' distinct `(π_g, π_h)` projection pairs are fewer
///    than `|π_g(Φ)| · |π_h(Φ)|`,
/// 2. verifies the candidate factorization by checking
///    `|Φ| = Π |π_{Gi}(Φ)|` and that `Φ` holds no duplicate clause,
/// 3. returns the projected factor DNFs (as clause vectors) on success.
///
/// Returns `None` when no factorization into ≥ 2 factors exists (or cannot be
/// verified) — the caller then falls back to Shannon expansion.
pub fn product_factorization(clauses: &[Clause], origins: &VarOrigins) -> Option<Vec<Vec<Clause>>> {
    product_factorization_by(clauses.len(), |i| clauses[i].atoms().iter().copied(), origins)
}

/// Generic form of [`product_factorization`]: `n` clauses, the `i`-th
/// yielding its sorted, duplicate-free atoms (as every [`Clause`] holds them)
/// through `atoms_of`. Shared by the owned [`crate::Dnf`] path and the arena
/// [`crate::DnfView`] path so both produce the same factors in the same
/// order: factors ordered as [`UnionFind::groups`] orders their origin
/// groups, each factor's clauses in ascending [`Clause`] order.
///
/// Each clause's atoms are tagged with their origin group once, into one
/// flat buffer ordered by `(group, atom)`, so a clause's projection onto a
/// group is a contiguous slice. Projections are counted by exact slice
/// equality in hash maps and `Clause`s are built only for the distinct
/// projections of each factor: allocations scale with the number of groups
/// and distinct factor clauses, not with `n`.
pub fn product_factorization_by<F, I>(
    n: usize,
    atoms_of: F,
    origins: &VarOrigins,
) -> Option<Vec<Vec<Clause>>>
where
    F: Fn(usize) -> I,
    I: Iterator<Item = crate::Atom>,
{
    if n < 2 {
        return None;
    }
    // Gate pass: every variable must have a known origin, and at least two
    // distinct groups must occur. The overwhelmingly common negative case
    // (single-relation lineage) is decided with one register — nothing is
    // allocated unless a second group actually shows up. The groups present
    // are kept ascending, and a group is named by its index in them below.
    let mut first_group: Option<u32> = None;
    let mut all_groups: Vec<u32> = Vec::new();
    for i in 0..n {
        for a in atoms_of(i) {
            let g = origins.get(a.var)?;
            match first_group {
                None => first_group = Some(g),
                Some(f) if f != g => {
                    if let Err(pos) = all_groups.binary_search(&g) {
                        all_groups.insert(pos, g);
                    }
                }
                Some(_) => {}
            }
        }
    }
    let first_group = first_group?;
    if all_groups.is_empty() {
        return None;
    }
    let pos = all_groups.binary_search(&first_group).unwrap_err();
    all_groups.insert(pos, first_group);
    let num_groups = all_groups.len();

    // Clause `c`'s projection onto group `k` is
    // `atoms[cuts[c * (num_groups + 1) + k]..cuts[c * (num_groups + 1) + k + 1]]`.
    let mut atoms: Vec<crate::Atom> = Vec::new();
    let mut cuts: Vec<usize> = Vec::with_capacity(n * (num_groups + 1));
    let mut tagged: Vec<(usize, crate::Atom)> = Vec::new();
    for c in 0..n {
        tagged.clear();
        for a in atoms_of(c) {
            let g = origins.get(a.var)?;
            tagged.push((all_groups.binary_search(&g).ok()?, a));
        }
        tagged.sort_unstable();
        let mut next = 0;
        for k in 0..num_groups {
            cuts.push(atoms.len());
            while next < tagged.len() && tagged[next].0 == k {
                atoms.push(tagged[next].1);
                next += 1;
            }
        }
        cuts.push(atoms.len());
    }
    let projection = |c: usize, k: usize| -> &[crate::Atom] {
        let at = c * (num_groups + 1) + k;
        &atoms[cuts[at]..cuts[at + 1]]
    };

    // Dense ids of the distinct projections onto each group (`ids[c *
    // num_groups + k]`), by exact slice equality.
    let mut ids: Vec<u32> = vec![0; n * num_groups];
    let mut distinct: Vec<usize> = Vec::with_capacity(num_groups);
    let mut seen: HashMap<&[crate::Atom], u32> = HashMap::new();
    for k in 0..num_groups {
        seen.clear();
        for c in 0..n {
            let next = seen.len() as u32;
            ids[c * num_groups + k] = *seen.entry(projection(c, k)).or_insert(next);
        }
        distinct.push(seen.len());
    }

    // Pairwise merging: groups g and h must stay in the same factor if the
    // projection of the clause set onto {g, h} is not the product of the
    // projections onto {g} and {h}. Group indices ascend with group ids, so
    // the union-find groups them exactly as it would the ids.
    let mut uf: UnionFind<u32> = UnionFind::new();
    for k in 0..num_groups {
        uf.insert(k as u32);
    }
    let mut pairs: HashSet<(u32, u32)> = HashSet::new();
    for k in 0..num_groups {
        for l in (k + 1)..num_groups {
            pairs.clear();
            pairs.extend((0..n).map(|c| (ids[c * num_groups + k], ids[c * num_groups + l])));
            if pairs.len() != distinct[k] * distinct[l] {
                uf.union(k as u32, l as u32);
            }
        }
    }
    let factors: Vec<Vec<u32>> = uf.groups();
    if factors.len() < 2 {
        return None;
    }

    // Each factor's distinct projections: a clause's projection onto a
    // factor is determined by its projection ids on the factor's groups.
    // Only one representative clause per distinct projection is
    // materialised.
    let mut factor_clauses: Vec<Vec<Clause>> = Vec::with_capacity(factors.len());
    let mut product_size: usize = 1;
    for members in &factors {
        let keys: Vec<u32> = ids
            .chunks_exact(num_groups)
            .flat_map(|row| members.iter().map(move |&k| row[k as usize]))
            .collect();
        let mut representatives: HashMap<&[u32], usize> = HashMap::new();
        for (c, key) in keys.chunks_exact(members.len()).enumerate() {
            representatives.entry(key).or_insert(c);
        }
        let mut clauses: Vec<Clause> = Vec::with_capacity(representatives.len());
        for &c in representatives.values() {
            let proj = Clause::from_atoms(
                members.iter().flat_map(|&k| projection(c, k as usize)).copied(),
            );
            // An empty projection in a factor means some clause has no
            // variable from this factor; the aligned-product structure does
            // not hold.
            if proj.is_empty() {
                return None;
            }
            clauses.push(proj);
        }
        clauses.sort_unstable();
        product_size = product_size.checked_mul(clauses.len())?;
        factor_clauses.push(clauses);
    }

    // Verify |Φ| = Π |π_Gi(Φ)| … Every clause is the conjunction of its
    // projections, so Φ (as a set) lies inside the product; with the sizes
    // equal it is the whole product unless Φ holds a duplicate clause. Two
    // clauses are equal iff their group-ordered atom runs are.
    if product_size != n {
        return None;
    }
    let whole: HashSet<&[crate::Atom]> = (0..n)
        .map(|c| &atoms[cuts[c * (num_groups + 1)]..cuts[(c + 1) * (num_groups + 1) - 1]])
        .collect();
    if whole.len() != n {
        return None;
    }
    Some(factor_clauses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clause, Dnf, ProbabilitySpace};

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn union_find_basic() {
        let mut uf: UnionFind<u32> = UnionFind::new();
        uf.insert(1);
        uf.insert(2);
        uf.insert(3);
        assert_eq!(uf.num_components(), 3);
        uf.union(1, 2);
        assert_eq!(uf.num_components(), 2);
        assert!(uf.same_set(1, 2));
        assert!(!uf.same_set(1, 3));
        uf.union(2, 3);
        assert_eq!(uf.num_components(), 1);
        assert!(uf.same_set(1, 3));
        assert_eq!(uf.len(), 3);
    }

    #[test]
    fn union_find_auto_inserts_on_find() {
        let mut uf: UnionFind<u32> = UnionFind::new();
        assert!(uf.is_empty());
        assert_eq!(uf.find(7), 7);
        assert_eq!(uf.num_components(), 1);
    }

    #[test]
    fn union_find_groups() {
        let mut uf: UnionFind<u32> = UnionFind::new();
        for i in 0..6 {
            uf.insert(i);
        }
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(3, 4);
        let groups = uf.groups();
        assert_eq!(groups.len(), 3);
        let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 6);
    }

    #[test]
    fn connected_components_of_clauses() {
        let clauses = vec![
            Clause::from_bools(&[v(0), v(1)]),
            Clause::from_bools(&[v(1), v(2)]),
            Clause::from_bools(&[v(3)]),
            Clause::from_bools(&[v(4), v(5)]),
            Clause::from_bools(&[v(5)]),
        ];
        let comps = connected_components(&clauses);
        assert_eq!(comps.len(), 3);
        // Component containing clause 0 also contains clause 1.
        let comp0 = comps.iter().find(|c| c.contains(&0)).unwrap();
        assert!(comp0.contains(&1));
        let comp3 = comps.iter().find(|c| c.contains(&3)).unwrap();
        assert!(comp3.contains(&4));
    }

    #[test]
    fn connected_components_all_connected() {
        let clauses = vec![
            Clause::from_bools(&[v(0), v(1)]),
            Clause::from_bools(&[v(1), v(2)]),
            Clause::from_bools(&[v(2), v(0)]),
        ];
        assert_eq!(connected_components(&clauses).len(), 1);
    }

    #[test]
    fn connected_components_empty_clause_is_isolated() {
        let clauses = vec![Clause::empty(), Clause::from_bools(&[v(0)])];
        assert_eq!(connected_components(&clauses).len(), 2);
    }

    #[test]
    fn var_origins_store_and_lookup() {
        let mut o = VarOrigins::new();
        assert!(o.is_empty());
        o.set(v(0), 10);
        o.set(v(1), 11);
        assert_eq!(o.len(), 2);
        assert_eq!(o.get(v(0)), Some(10));
        assert_eq!(o.get(v(2)), None);
        let groups = o.groups_of(&[Clause::from_bools(&[v(0), v(1)])]);
        assert_eq!(groups.len(), 2);
    }

    /// Lineage of q():-R(A),S(A,B): R joined with S on A. For R = {r1, r2},
    /// S = {s1(a1,b1), s2(a1,b2), s3(a2,b1)} the lineage of the Boolean query
    /// is r1·s1 ∨ r1·s2 ∨ r2·s3, which factorizes per connected component but
    /// not as one global product; whereas the lineage r1·s1 ∨ r1·s2 ∨ r2·s1 ∨
    /// r2·s2 (full cross product) factorizes as (r1 ∨ r2) ⊙ (s1 ∨ s2).
    #[test]
    fn product_factorization_detects_cross_product() {
        let r1 = v(0);
        let r2 = v(1);
        let s1 = v(2);
        let s2 = v(3);
        let mut origins = VarOrigins::new();
        origins.set(r1, 0);
        origins.set(r2, 0);
        origins.set(s1, 1);
        origins.set(s2, 1);
        let clauses = vec![
            Clause::from_bools(&[r1, s1]),
            Clause::from_bools(&[r1, s2]),
            Clause::from_bools(&[r2, s1]),
            Clause::from_bools(&[r2, s2]),
        ];
        let factors = product_factorization(&clauses, &origins).expect("is a product");
        assert_eq!(factors.len(), 2);
        let sizes: Vec<usize> = factors.iter().map(|f| f.len()).collect();
        assert_eq!(sizes, vec![2, 2]);
        // Semantics check: P(product) = P(factor1) * P(factor2).
        let mut space = ProbabilitySpace::new();
        let pr: Vec<_> =
            (0..4).map(|i| space.add_bool(format!("v{i}"), 0.1 * (i as f64 + 1.0))).collect();
        assert_eq!(pr[0], r1);
        let whole = Dnf::from_clauses(clauses.clone());
        let f1 = Dnf::from_clauses(factors[0].clone());
        let f2 = Dnf::from_clauses(factors[1].clone());
        let p_whole = whole.exact_probability_enumeration(&space);
        let p_product =
            f1.exact_probability_enumeration(&space) * f2.exact_probability_enumeration(&space);
        assert!((p_whole - p_product).abs() < 1e-12);
    }

    #[test]
    fn product_factorization_rejects_non_product() {
        let r1 = v(0);
        let r2 = v(1);
        let s1 = v(2);
        let s2 = v(3);
        let s3 = v(4);
        let mut origins = VarOrigins::new();
        for (var, g) in [(r1, 0), (r2, 0), (s1, 1), (s2, 1), (s3, 1)] {
            origins.set(var, g);
        }
        // r1 pairs with {s1, s2} but r2 pairs only with s3: not a product.
        let clauses = vec![
            Clause::from_bools(&[r1, s1]),
            Clause::from_bools(&[r1, s2]),
            Clause::from_bools(&[r2, s3]),
        ];
        assert!(product_factorization(&clauses, &origins).is_none());
    }

    #[test]
    fn product_factorization_requires_origins() {
        let clauses = vec![Clause::from_bools(&[v(0), v(2)]), Clause::from_bools(&[v(1), v(2)])];
        let origins = VarOrigins::new();
        assert!(product_factorization(&clauses, &origins).is_none());
    }

    #[test]
    fn product_factorization_single_group_returns_none() {
        let mut origins = VarOrigins::new();
        origins.set(v(0), 0);
        origins.set(v(1), 0);
        let clauses = vec![Clause::from_bools(&[v(0)]), Clause::from_bools(&[v(1)])];
        assert!(product_factorization(&clauses, &origins).is_none());
    }

    #[test]
    fn product_factorization_three_way() {
        // (a1 ∨ a2) ⊙ (b1) ⊙ (c1 ∨ c2): 2*1*2 = 4 clauses.
        let a1 = v(0);
        let a2 = v(1);
        let b1 = v(2);
        let c1 = v(3);
        let c2 = v(4);
        let mut origins = VarOrigins::new();
        for (var, g) in [(a1, 0), (a2, 0), (b1, 1), (c1, 2), (c2, 2)] {
            origins.set(var, g);
        }
        let mut clauses = Vec::new();
        for a in [a1, a2] {
            for c in [c1, c2] {
                clauses.push(Clause::from_bools(&[a, b1, c]));
            }
        }
        let factors = product_factorization(&clauses, &origins).expect("three-way product");
        assert_eq!(factors.len(), 3);
        let mut sizes: Vec<usize> = factors.iter().map(|f| f.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 2]);
    }
}
