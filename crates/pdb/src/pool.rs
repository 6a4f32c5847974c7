//! A bounded cross-batch pool of suspended confidence computations.
//!
//! Streaming maintenance keeps one [`ResumableConfidence`] handle per
//! in-flight answer tuple so that each round of inserts only has to *apply a
//! delta and resume* instead of recompiling the lineage from scratch. Handles
//! own their partial d-tree (arena included), so an unbounded pool over a
//! large answer relation is a memory hazard; [`ResumablePool`] bounds the
//! number of live handles and evicts **width-aware**:
//!
//! * Handles that failed closed are never stored — a poisoned frontier can
//!   absorb no delta and answer no resume; the item must recompile anyway.
//! * **Converged** handles *are* stored: convergence is relative to the
//!   current formula, and the next round's delta applies to the handle's
//!   fully-refined d-tree in place — usually far cheaper than recompiling the
//!   grown lineage from scratch. For a streaming workload the converged
//!   handles are precisely the most invested ones.
//! * When over capacity, the handle with the **widest** remaining interval is
//!   evicted. The widest handle has made the least refinement progress toward
//!   its error guarantee, so discarding it forfeits the least accumulated
//!   narrowing — while a nearly-converged handle, one cheap slice away from
//!   its guarantee, would have to repay its whole decomposition history if
//!   recompiled. Evicted items simply fall back to scratch compilation on
//!   their next maintenance round; eviction never changes results, only work.

use crate::confidence::ResumableConfidence;

/// Bounded, width-aware store of [`ResumableConfidence`] handles keyed by the
/// item's index in its batch. See the [module documentation](self).
///
/// Keys are batch indices, so the store is a dense table: `slots[key]` holds
/// the handle pooled under `key`, which gives [`ResumablePool::slots_mut`]
/// callers one disjoint slot per item to update in place.
#[derive(Debug, Clone)]
pub struct ResumablePool {
    capacity: usize,
    slots: Vec<Option<ResumableConfidence>>,
    /// Number of `Some` slots.
    len: usize,
    evictions: u64,
}

impl ResumablePool {
    /// A pool holding at most `capacity` suspended handles. A capacity of 0
    /// stores nothing (every insert is dropped); maintenance then degrades to
    /// recompiling every item, which stays correct.
    pub fn new(capacity: usize) -> Self {
        ResumablePool { capacity, slots: Vec::new(), len: 0, evictions: 0 }
    }

    /// The configured maximum number of live handles.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of handles currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no handles are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of handles evicted (or rejected at capacity) so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Stores a handle under `key`, replacing any previous handle for the
    /// same key. Failed handles are discarded (nothing can be resumed or
    /// delta-maintained on them); converged handles are kept — the next
    /// round's delta applies to them in place. When the insert exceeds the
    /// capacity, the widest handle (possibly the new one) is evicted.
    pub fn insert(&mut self, key: usize, handle: ResumableConfidence) {
        if handle.failed() {
            return;
        }
        if self.slots.len() <= key {
            self.slots.resize_with(key + 1, || None);
        }
        if self.slots[key].replace(handle).is_none() {
            self.len += 1;
        }
        self.evict_to_capacity();
    }

    /// Evicts the widest handles until at most `capacity` remain.
    fn evict_to_capacity(&mut self) {
        while self.len > self.capacity {
            // Widest remaining interval = least invested refinement; ties
            // break toward the larger key so eviction is deterministic.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(k, h)| Some((h.as_ref()?.remaining_width(), k)))
                .max_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(_, k)| k)
                .expect("over-capacity pool is non-empty");
            self.slots[victim] = None;
            self.len -= 1;
            self.evictions += 1;
        }
    }

    /// Removes and returns the handle for `key`, if held.
    pub fn take(&mut self, key: usize) -> Option<ResumableConfidence> {
        let handle = self.slots.get_mut(key)?.take();
        self.len -= usize::from(handle.is_some());
        handle
    }

    /// The handle for `key`, if held. Maintenance callers read per-item
    /// diagnostics ([`ResumableConfidence::width_curve`],
    /// [`ResumableConfidence::remaining_width`]) through this.
    pub fn get(&self, key: usize) -> Option<&ResumableConfidence> {
        self.slots.get(key)?.as_ref()
    }

    /// `true` when a handle for `key` is held.
    pub fn contains(&self, key: usize) -> bool {
        self.get(key).is_some()
    }

    /// Keys of all held handles, in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().enumerate().filter_map(|(k, h)| h.as_ref().map(|_| k))
    }

    /// Drops every handle (the eviction counter survives).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Runs `f` on the slots of keys `0..n` — `slots[key]` is `Some` exactly
    /// when a handle is pooled under `key` — so a caller can update many
    /// handles in place, for instance from several threads over disjoint
    /// sub-slices, without a `take` and `insert` per key. Afterwards the
    /// pool upholds its invariants as [`ResumablePool::insert`] does: failed
    /// handles are dropped, and if `f` stored more handles than the
    /// capacity allows, the widest are evicted.
    pub fn slots_mut<R>(
        &mut self,
        n: usize,
        f: impl FnOnce(&mut [Option<ResumableConfidence>]) -> R,
    ) -> R {
        if self.slots.len() < n {
            self.slots.resize_with(n, || None);
        }
        let out = f(&mut self.slots[..n]);
        for slot in &mut self.slots[..n] {
            if slot.as_ref().is_some_and(ResumableConfidence::failed) {
                *slot = None;
            }
        }
        self.len = self.slots.iter().filter(|h| h.is_some()).count();
        self.evict_to_capacity();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::{confidence_resumable, ConfidenceBudget, ConfidenceMethod};
    use events::{Clause, Dnf, ProbabilitySpace};

    /// A chain lineage hard enough that a small step budget truncates;
    /// returns the space alongside the handle (resumes are pinned to it).
    fn hard_handle(steps: u64) -> (ProbabilitySpace, ResumableConfidence) {
        let mut s = ProbabilitySpace::new();
        let vars: Vec<_> =
            (0..20).map(|i| s.add_bool(format!("x{i}"), 0.2 + 0.02 * i as f64)).collect();
        let phi = Dnf::from_clauses(
            (0..19).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        let budget = ConfidenceBudget { timeout: None, max_work: Some(steps) };
        let (_, handle) = confidence_resumable(
            &phi,
            &s,
            None,
            &ConfidenceMethod::DTreeExact,
            &budget,
            None,
            None,
        );
        (s, handle.expect("budgeted run truncates"))
    }

    #[test]
    fn evicts_the_widest_handle_at_capacity() {
        let mut pool = ResumablePool::new(2);
        // Three snapshots of the same refinement at increasing depth: each
        // extra slice strictly tightens the interval on this chain.
        let (s, wide) = hard_handle(1);
        let slice = ConfidenceBudget { timeout: None, max_work: Some(5) };
        let mut mid = wide.clone();
        mid.resume(&s, &slice, None);
        let mut narrow = mid.clone();
        narrow.resume(&s, &slice, None);
        assert!(wide.remaining_width() > mid.remaining_width());
        assert!(mid.remaining_width() > narrow.remaining_width());
        pool.insert(0, wide);
        pool.insert(1, narrow);
        pool.insert(2, mid);
        // The widest (least invested) handle is the victim.
        assert_eq!(pool.evictions(), 1);
        assert!(!pool.contains(0), "widest handle must be evicted");
        assert!(pool.contains(1) && pool.contains(2));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn converged_handles_stay_pooled_for_future_deltas() {
        let mut pool = ResumablePool::new(4);
        let (s, mut h) = hard_handle(2);
        let done = h.resume(&s, &ConfidenceBudget::default(), None);
        assert!(done.converged);
        pool.insert(0, h);
        // Converged ≠ useless: the next round's delta applies to the pooled
        // d-tree in place, so the handle must survive.
        assert_eq!(pool.len(), 1);
        assert!(pool.get(0).is_some_and(ResumableConfidence::is_converged));
        // A converged handle's width is ~0, so under pressure it outlives
        // wide (barely-refined) handles.
        let (_s1, wide) = hard_handle(1);
        let (_s2, wide2) = hard_handle(1);
        let (_s3, wide3) = hard_handle(1);
        let (_s4, wide4) = hard_handle(1);
        for (k, h) in [(1, wide), (2, wide2), (3, wide3), (4, wide4)] {
            pool.insert(k, h);
        }
        assert_eq!(pool.len(), 4);
        assert!(pool.contains(0), "the converged handle must never be the eviction victim");
    }

    #[test]
    fn zero_capacity_pool_stores_nothing() {
        let mut pool = ResumablePool::new(0);
        let (_s, h) = hard_handle(1);
        pool.insert(0, h);
        assert!(pool.is_empty());
        assert_eq!(pool.evictions(), 1);
    }

    #[test]
    fn take_and_reinsert_round_trip() {
        let mut pool = ResumablePool::new(4);
        let (_s, h) = hard_handle(3);
        pool.insert(7, h);
        assert_eq!(pool.keys().collect::<Vec<_>>(), vec![7]);
        let h = pool.take(7).expect("held");
        assert!(pool.take(7).is_none());
        pool.insert(7, h);
        assert!(pool.get(7).is_some());
        pool.clear();
        assert!(pool.is_empty());
    }
}
