//! Shared, thread-safe memoization of sub-formula results.
//!
//! The d-tree decomposition of the lineages of one query's answer tuples
//! keeps encountering the same sub-DNFs — both *within* a single DFS run
//! (a pending child is bounded by [`crate::approx`]'s `quick_bounds` and
//! later explored, which used to recompute the same exact probability),
//! *across* lineages of a batch (answer tuples of the same query overlap
//! heavily in their lineage), and *across batches* (production traffic
//! repeats whole queries).
//!
//! [`SubformulaCache`] memoizes the two expensive per-sub-DNF quantities:
//!
//! * the **exact probability** of small leaves (and, through
//!   [`crate::exact_probability_view`], of arbitrary sub-DNFs), and
//! * the **bucket bounds** of open leaves ([`crate::dnf_bounds`]).
//!
//! Entries are keyed by [`events::DnfHash`], the canonical fingerprint of a
//! normalised DNF. Both quantities are pure functions of
//! `(formula, probability space)`, so each entry is additionally tagged with
//! the **generation** of the [`events::ProbabilitySpace`]
//! ([`events::ProbabilitySpace::generation`]) it was computed under, and
//! lookups validate the tag: when the space mutates (its generation changes),
//! every previous entry silently becomes a miss and is overwritten on the
//! next store. This is what makes the cache safe to keep alive *across*
//! batches and database changes — a stale value can never leak. Each entry
//! holds the value of one generation at a time, so a cache warms best with
//! one live space at a time; feeding it several spaces concurrently stays
//! correct but lets formulas with identical hashes overwrite each other.
//! Within that contract, reusing a cached value is *bit-identical* to
//! recomputing it: all producers are deterministic, so caching never changes
//! a result, only the work done.
//!
//! A long-lived cache must also be bounded: [`SubformulaCache::with_capacity`]
//! creates a cache with a total entry budget, enforced per shard by a CLOCK
//! (second-chance LRU-approximation) eviction policy — lookups set a
//! reference bit under the shared read lock, inserts over budget sweep the
//! clock hand past recently used entries and replace the first unreferenced
//! one. [`SubformulaCache::new`] stays unbounded, which is what the batch
//! engine uses for its default per-batch cache.
//!
//! The map is sharded, each shard behind its own [`RwLock`], so the parallel
//! batch engine can probe and fill the cache from many threads with little
//! contention. Hit/miss/stale/eviction counters are atomic and can be
//! snapshotted with [`SubformulaCache::stats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

use events::DnfHash;

use crate::bounds::Bounds;

/// Maximum number of independently locked shards. A small power of two is
/// enough: the critical sections are single hash-map probes. Bounded caches
/// with a budget smaller than this use fewer shards so that the per-shard
/// budgets sum exactly to the configured total.
const MAX_SHARDS: usize = 16;

/// One memo entry: whichever of the two quantities have been computed so far
/// for a sub-formula, tagged with the space generation it is valid for, the
/// variable-count **watermark** its formula requires (one past the largest
/// `VarId` it mentions), and the CLOCK reference bit.
#[derive(Debug)]
struct CacheEntry {
    exact: Option<f64>,
    bounds: Option<Bounds>,
    generation: u64,
    /// Smallest space watermark under which every variable of the entry's
    /// formula exists. Valid while `watermark <= space.watermark()`: under
    /// one generation the space only grows by appends, so an entry computed
    /// at a lower watermark stays correct forever — the check only bites for
    /// clones that lag behind the space that stored the entry.
    watermark: u64,
    /// Set on every valid lookup (under the shard's read lock); cleared by
    /// the clock hand when the shard is over budget. An entry is only evicted
    /// after a full hand pass finds its bit still clear.
    referenced: AtomicBool,
}

impl CacheEntry {
    fn fresh(generation: u64, watermark: u64) -> Self {
        CacheEntry {
            exact: None,
            bounds: None,
            generation,
            watermark,
            referenced: AtomicBool::new(true),
        }
    }
}

/// One lock domain of the cache: a hash map plus the CLOCK ring/hand that
/// bounds it. Every key in `ring` is in `map` and vice versa.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<DnfHash, CacheEntry>,
    ring: Vec<DnfHash>,
    hand: usize,
    /// Entry budget of this shard; `None` = unbounded.
    budget: Option<usize>,
}

impl Shard {
    /// Inserts a value for an absent `key`, evicting one entry CLOCK-style
    /// when the shard is at budget. Returns `true` if an eviction happened.
    fn insert_new(&mut self, key: DnfHash, entry: CacheEntry) -> bool {
        match self.budget {
            Some(0) => false, // zero-capacity cache stores nothing
            None => {
                // Unbounded shard: eviction never runs, so don't maintain the
                // clock ring (it would duplicate every key for nothing).
                self.map.insert(key, entry);
                false
            }
            Some(budget) if self.map.len() >= budget => {
                // Second-chance sweep: clear reference bits until an entry
                // that has not been touched since the last pass comes under
                // the hand, then reuse its ring slot.
                loop {
                    let candidate = self.ring[self.hand];
                    let referenced = match self.map.get_mut(&candidate) {
                        Some(e) => std::mem::replace(e.referenced.get_mut(), false),
                        None => false,
                    };
                    if referenced {
                        self.hand = (self.hand + 1) % self.ring.len();
                    } else {
                        self.map.remove(&candidate);
                        self.ring[self.hand] = key;
                        self.hand = (self.hand + 1) % self.ring.len();
                        self.map.insert(key, entry);
                        return true;
                    }
                }
            }
            _ => {
                self.ring.push(key);
                self.map.insert(key, entry);
                false
            }
        }
    }
}

/// A thread-safe memo table for exact leaf probabilities and bucket bounds,
/// keyed by canonical DNF hash and scoped to a probability-space generation.
/// See the module documentation in `cache.rs`.
#[derive(Debug)]
pub struct SubformulaCache {
    shards: Vec<RwLock<Shard>>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SubformulaCache {
    fn default() -> Self {
        SubformulaCache::new()
    }
}

/// A point-in-time snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups that found a stored value of the current generation.
    pub hits: u64,
    /// Number of lookups that found nothing usable (including stale entries).
    pub misses: u64,
    /// Number of lookups that found an entry of an outdated generation
    /// (counted in `misses` as well). A burst of these right after a database
    /// mutation is expected; sustained stale traffic means some caller keeps
    /// using an old space.
    pub stale: u64,
    /// Number of entries evicted by the CLOCK policy to stay within the
    /// configured budget (always 0 for unbounded caches).
    pub evictions: u64,
    /// Number of distinct sub-formulas currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter deltas accumulated since an `earlier` snapshot of the same
    /// cache (`entries` is reported as-of `self`, not as a delta). This is
    /// how the batch engine reports per-batch effectiveness of a long-lived
    /// shared cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            stale: self.stale.saturating_sub(earlier.stale),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
        }
    }
}

impl SubformulaCache {
    /// Creates an empty, **unbounded** cache (the batch engine's default
    /// per-batch mode, where the batch's lifetime bounds the memory).
    pub fn new() -> Self {
        Self::build(MAX_SHARDS, None)
    }

    /// Creates an empty cache bounded to at most `capacity` entries in total,
    /// enforced per shard with CLOCK (second-chance) eviction. This is the
    /// right constructor for a long-lived cache shared across batches via
    /// [`std::sync::Arc`]; see the module documentation in `cache.rs`.
    pub fn with_capacity(capacity: usize) -> Self {
        // Shard budgets must sum exactly to `capacity`; small caches use
        // fewer shards so every shard keeps a few clock slots (a budget of 1
        // degenerates CLOCK into evict-on-every-insert).
        let shards = (capacity / 4).clamp(1, MAX_SHARDS);
        Self::build(shards, Some(capacity))
    }

    fn build(num_shards: usize, capacity: Option<usize>) -> Self {
        let shards = (0..num_shards)
            .map(|i| {
                let budget = capacity.map(|c| c / num_shards + usize::from(i < c % num_shards));
                RwLock::new(Shard { budget, ..Shard::default() })
            })
            .collect();
        SubformulaCache {
            shards,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured total entry budget (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    #[inline]
    fn shard(&self, key: DnfHash) -> &RwLock<Shard> {
        &self.shards[key.shard(self.shards.len())]
    }

    /// Shared lookup logic: probe the entry for `key`, validate its
    /// generation and watermark, extract a field, and maintain the counters.
    fn lookup<T>(
        &self,
        key: DnfHash,
        generation: u64,
        watermark: u64,
        field: impl Fn(&CacheEntry) -> Option<T>,
    ) -> Option<T> {
        let shard = self.shard(key).read().expect("cache shard poisoned");
        let found = match shard.map.get(&key) {
            Some(e) if e.generation == generation && e.watermark <= watermark => {
                let v = field(e);
                if v.is_some() {
                    e.referenced.store(true, Ordering::Relaxed);
                }
                v
            }
            Some(_) => {
                self.stale.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        };
        drop(shard);
        self.count(found.is_some());
        found
    }

    /// Shared store logic: update the entry for `key` in place when its
    /// generation matches, replace it wholesale when it is stale, insert
    /// (evicting if at budget) when absent. `watermark` is the variable-count
    /// watermark the stored formula *requires* (one past its largest
    /// `VarId`) — a pure function of the formula, so repeated stores for one
    /// key agree on it.
    fn store(
        &self,
        key: DnfHash,
        generation: u64,
        watermark: u64,
        apply: impl Fn(&mut CacheEntry),
    ) {
        let mut shard = self.shard(key).write().expect("cache shard poisoned");
        if let Some(e) = shard.map.get_mut(&key) {
            if e.generation != generation {
                *e = CacheEntry::fresh(generation, watermark);
            }
            apply(e);
            *e.referenced.get_mut() = true;
            return;
        }
        let mut entry = CacheEntry::fresh(generation, watermark);
        apply(&mut entry);
        if shard.insert_new(key, entry) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up the exact probability stored for `key`, valid under
    /// `generation` at the current space `watermark`.
    pub fn lookup_exact(&self, key: DnfHash, generation: u64, watermark: u64) -> Option<f64> {
        self.lookup(key, generation, watermark, |e| e.exact)
    }

    /// Stores the exact probability of the sub-formula identified by `key`,
    /// computed under the given space `generation`; `watermark` is the
    /// variable-count watermark the formula requires
    /// ([`events::Dnf::required_watermark`]).
    pub fn store_exact(&self, key: DnfHash, generation: u64, watermark: u64, probability: f64) {
        self.store(key, generation, watermark, |e| e.exact = Some(probability));
    }

    /// Looks up the bucket bounds stored for `key`, valid under `generation`
    /// at the current space `watermark`.
    pub fn lookup_bounds(&self, key: DnfHash, generation: u64, watermark: u64) -> Option<Bounds> {
        self.lookup(key, generation, watermark, |e| e.bounds)
    }

    /// Stores the bucket bounds of the sub-formula identified by `key`,
    /// computed under the given space `generation`; `watermark` is the
    /// variable-count watermark the formula requires.
    pub fn store_bounds(&self, key: DnfHash, generation: u64, watermark: u64, bounds: Bounds) {
        self.store(key, generation, watermark, |e| e.bounds = Some(bounds));
    }

    #[inline]
    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of distinct sub-formulas stored (across all generations).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().expect("cache shard poisoned").map.len()).sum()
    }

    /// `true` when nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept; eviction counters do not change
    /// — `clear` is bookkeeping, not policy).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.write().expect("cache shard poisoned");
            shard.map.clear();
            shard.ring.clear();
            shard.hand = 0;
        }
    }

    /// Snapshots the effectiveness counters and entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Per-run memo used by the DFS approximation: a private (lock-free) map in
/// front of an optional shared [`SubformulaCache`], pinned to the generation
/// of the space the run evaluates against.
///
/// The private layer guarantees that *within one run* every sub-formula is
/// evaluated at most once even when no shared cache is attached; the shared
/// layer extends that guarantee across the lineages of a batch and, for a
/// long-lived cache, across batches.
#[derive(Debug, Default)]
pub(crate) struct Memo<'c> {
    exact: HashMap<DnfHash, f64>,
    bounds: HashMap<DnfHash, Bounds>,
    shared: Option<&'c SubformulaCache>,
    generation: u64,
    /// Current watermark of the space the run evaluates against (used to
    /// validate shared-layer lookups).
    watermark: u64,
}

impl<'c> Memo<'c> {
    pub(crate) fn with_shared(
        shared: Option<&'c SubformulaCache>,
        generation: u64,
        watermark: u64,
    ) -> Self {
        Memo { exact: HashMap::new(), bounds: HashMap::new(), shared, generation, watermark }
    }

    /// Returns the memoized exact probability for `key`, consulting the
    /// private then the shared layer.
    pub(crate) fn get_exact(&mut self, key: DnfHash) -> Option<f64> {
        if let Some(&p) = self.exact.get(&key) {
            return Some(p);
        }
        let p = self.shared?.lookup_exact(key, self.generation, self.watermark)?;
        self.exact.insert(key, p);
        Some(p)
    }

    /// Records an exact probability in both layers; `required` is the
    /// watermark the formula requires ([`events::Dnf::required_watermark`]).
    pub(crate) fn put_exact(&mut self, key: DnfHash, required: u64, probability: f64) {
        self.exact.insert(key, probability);
        if let Some(shared) = self.shared {
            shared.store_exact(key, self.generation, required, probability);
        }
    }

    /// Returns the memoized bucket bounds for `key`.
    pub(crate) fn get_bounds(&mut self, key: DnfHash) -> Option<Bounds> {
        if let Some(&b) = self.bounds.get(&key) {
            return Some(b);
        }
        let b = self.shared?.lookup_bounds(key, self.generation, self.watermark)?;
        self.bounds.insert(key, b);
        Some(b)
    }

    /// Records bucket bounds in both layers.
    pub(crate) fn put_bounds(&mut self, key: DnfHash, required: u64, bounds: Bounds) {
        self.bounds.insert(key, bounds);
        if let Some(shared) = self.shared {
            shared.store_bounds(key, self.generation, required, bounds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use events::{Dnf, VarId};

    fn key(i: u32) -> DnfHash {
        Dnf::literal(VarId(i)).canonical_hash()
    }

    const GEN: u64 = 7;
    /// Watermark used by the plain round-trip tests: stores require it,
    /// lookups run at it, so the watermark check is always satisfied.
    const WM: u64 = 1;

    #[test]
    fn store_and_lookup_roundtrip() {
        let cache = SubformulaCache::new();
        let k = key(1);
        assert_eq!(cache.lookup_exact(k, GEN, WM), None);
        cache.store_exact(k, GEN, WM, 0.25);
        assert_eq!(cache.lookup_exact(k, GEN, WM), Some(0.25));
        assert_eq!(cache.lookup_bounds(k, GEN, WM), None);
        cache.store_bounds(k, GEN, WM, Bounds::new(0.1, 0.4));
        let b = cache.lookup_bounds(k, GEN, WM).unwrap();
        assert_eq!((b.lower, b.upper), (0.1, 0.4));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.capacity(), None);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cache = SubformulaCache::new();
        let k = key(2);
        let _ = cache.lookup_exact(k, GEN, WM); // miss (entry absent)
        cache.store_exact(k, GEN, WM, 0.5);
        let _ = cache.lookup_exact(k, GEN, WM); // hit
        let _ = cache.lookup_bounds(k, GEN, WM); // miss (entry present, bounds absent)
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.stale, 0);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.entries, 1);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stale_generations_never_leak() {
        let cache = SubformulaCache::new();
        let k = key(3);
        cache.store_exact(k, GEN, WM, 0.25);
        // A lookup under a newer generation misses and is counted as stale.
        assert_eq!(cache.lookup_exact(k, GEN + 1, WM), None);
        assert_eq!(cache.stats().stale, 1);
        // Storing under the new generation replaces the whole entry …
        cache.store_bounds(k, GEN + 1, WM, Bounds::new(0.2, 0.3));
        assert_eq!(cache.len(), 1);
        // … so the old generation's exact value is gone, not resurrected.
        assert_eq!(cache.lookup_exact(k, GEN + 1, WM), None);
        assert_eq!(cache.lookup_exact(k, GEN, WM), None);
        assert!(cache.lookup_bounds(k, GEN + 1, WM).is_some());
    }

    #[test]
    fn bounded_cache_respects_budget_and_counts_evictions() {
        let budget = 10;
        let cache = SubformulaCache::with_capacity(budget);
        assert_eq!(cache.capacity(), Some(budget));
        for i in 0..100u32 {
            cache.store_exact(key(i), GEN, WM, f64::from(i));
            assert!(cache.len() <= budget, "len {} over budget", cache.len());
        }
        let s = cache.stats();
        assert_eq!(s.entries, budget);
        assert_eq!(s.evictions, 90);
        // The budget also holds exactly when capacity < number of shards.
        let tiny = SubformulaCache::with_capacity(3);
        for i in 0..50u32 {
            tiny.store_exact(key(i), GEN, WM, 0.5);
        }
        assert_eq!(tiny.len(), 3);
        // Degenerate zero-capacity cache stores nothing and never panics.
        let none = SubformulaCache::with_capacity(0);
        none.store_exact(key(1), GEN, WM, 0.5);
        assert_eq!(none.len(), 0);
        assert_eq!(none.lookup_exact(key(1), GEN, WM), None);
    }

    #[test]
    fn clock_eviction_prefers_untouched_entries() {
        // Capacity 4 gives a single shard, so the clock order is
        // deterministic.
        let cache = SubformulaCache::with_capacity(4);
        for i in 0..4u32 {
            cache.store_exact(key(i), GEN, WM, f64::from(i));
        }
        // Touch entries 0..3 except 2; the sweep clears everyone's bit once,
        // then evicts the first entry it finds unreferenced on the second
        // pass — which is entry 0 … but entry 0 was *looked up*, so its bit
        // is set and survives the first pass. After one full clearing pass
        // the hand is back at 0 with all bits clear; 0 is evicted.
        let _ = cache.lookup_exact(key(0), GEN, WM);
        let _ = cache.lookup_exact(key(1), GEN, WM);
        let _ = cache.lookup_exact(key(3), GEN, WM);
        cache.store_exact(key(10), GEN, WM, 10.0);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 1);
        // The new key is present.
        assert_eq!(cache.lookup_exact(key(10), GEN, WM), Some(10.0));
        // A second insert now evicts an entry whose bit was cleared by the
        // first sweep — the recently stored key(10) (bit set on store)
        // survives.
        cache.store_exact(key(11), GEN, WM, 11.0);
        assert_eq!(cache.lookup_exact(key(10), GEN, WM), Some(10.0));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = SubformulaCache::with_capacity(8);
        for i in 0..8u32 {
            cache.store_exact(key(i), GEN, WM, 0.5);
        }
        cache.clear();
        assert!(cache.is_empty());
        // The cache stays usable after clearing.
        cache.store_exact(key(1), GEN, WM, 0.5);
        assert_eq!(cache.lookup_exact(key(1), GEN, WM), Some(0.5));
    }

    #[test]
    fn stats_since_reports_deltas() {
        let cache = SubformulaCache::new();
        cache.store_exact(key(1), GEN, WM, 0.5);
        let _ = cache.lookup_exact(key(1), GEN, WM);
        let before = cache.stats();
        let _ = cache.lookup_exact(key(1), GEN, WM);
        let _ = cache.lookup_exact(key(2), GEN, WM);
        let delta = cache.stats().since(&before);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.entries, 1);
    }

    #[test]
    fn concurrent_fill_is_consistent() {
        let cache = SubformulaCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..100u32 {
                        let k = key(i);
                        cache.store_exact(k, GEN, WM, f64::from(i) / 100.0);
                        let _ = cache.lookup_exact(k, GEN, WM);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 100);
        for i in 0..100u32 {
            assert_eq!(cache.lookup_exact(key(i), GEN, WM), Some(f64::from(i) / 100.0));
        }
    }

    #[test]
    fn concurrent_fill_of_bounded_cache_keeps_budget() {
        let cache = SubformulaCache::with_capacity(32);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let k = key(t * 1000 + i);
                        cache.store_exact(k, GEN, WM, 0.5);
                        let _ = cache.lookup_exact(k, GEN, WM);
                    }
                });
            }
        });
        assert!(cache.len() <= 32, "len {} over budget", cache.len());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn memo_prefers_private_layer_and_fills_shared() {
        let shared = SubformulaCache::new();
        let mut memo = Memo::with_shared(Some(&shared), GEN, WM);
        let k = key(9);
        assert_eq!(memo.get_exact(k), None);
        memo.put_exact(k, WM, 0.75);
        assert_eq!(memo.get_exact(k), Some(0.75));
        // The shared layer saw the store.
        assert_eq!(shared.lookup_exact(k, GEN, WM), Some(0.75));
        // A fresh memo over the same shared cache hits through it.
        let mut memo2 = Memo::with_shared(Some(&shared), GEN, WM);
        assert_eq!(memo2.get_exact(k), Some(0.75));
        // A memo pinned to a newer generation misses: the entry is stale.
        let mut memo3 = Memo::with_shared(Some(&shared), GEN + 1, WM);
        assert_eq!(memo3.get_exact(k), None);
    }

    #[test]
    fn memo_without_shared_layer_is_private() {
        let mut memo = Memo::with_shared(None, GEN, WM);
        let k = key(3);
        assert_eq!(memo.get_bounds(k), None);
        memo.put_bounds(k, WM, Bounds::point(0.3));
        assert!(memo.get_bounds(k).unwrap().is_point());
    }
}
