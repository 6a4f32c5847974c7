//! A minimal, offline, API-compatible stand-in for the [`stats_alloc`]
//! crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! the `stats_alloc` dependency pinned in the workspace manifest resolves to
//! this shim. It implements exactly the surface the workspace's allocation
//! tests use:
//!
//! * [`StatsAlloc`] — a [`GlobalAlloc`] wrapper that counts allocations
//!   and reallocations in relaxed atomics,
//! * [`Region`] — the [`Stats`] change since a starting point.
//!
//! Install it in a test binary with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: StatsAlloc<System> = StatsAlloc::new(System);
//! ```
//!
//! The counters are process-wide: a region also sees what other threads
//! allocate while it is open.
//!
//! [`stats_alloc`]: https://crates.io/crates/stats_alloc

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout};
use std::ops::Sub;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocation counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Calls to `alloc` and `alloc_zeroed`.
    pub allocations: usize,
    /// Calls to `realloc`.
    pub reallocations: usize,
}

impl Sub for Stats {
    type Output = Stats;

    fn sub(self, rhs: Stats) -> Stats {
        Stats {
            allocations: self.allocations - rhs.allocations,
            reallocations: self.reallocations - rhs.reallocations,
        }
    }
}

/// A [`GlobalAlloc`] that forwards to `T` and counts allocating calls.
#[derive(Debug, Default)]
pub struct StatsAlloc<T: GlobalAlloc> {
    allocations: AtomicUsize,
    reallocations: AtomicUsize,
    inner: T,
}

impl<T: GlobalAlloc> StatsAlloc<T> {
    /// Wraps `inner`, with every counter at zero.
    pub const fn new(inner: T) -> Self {
        StatsAlloc { allocations: AtomicUsize::new(0), reallocations: AtomicUsize::new(0), inner }
    }

    /// The counters since the allocator was created.
    pub fn stats(&self) -> Stats {
        Stats {
            allocations: self.allocations.load(Ordering::Relaxed),
            reallocations: self.reallocations.load(Ordering::Relaxed),
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to the wrapped
// allocator, whose contract the caller already upholds; the counters are
// plain atomics and never allocate.
#[allow(unsafe_code)]
unsafe impl<T: GlobalAlloc> GlobalAlloc for StatsAlloc<T> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { self.inner.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { self.inner.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { self.inner.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.reallocations.fetch_add(1, Ordering::Relaxed);
        unsafe { self.inner.realloc(ptr, layout, new_size) }
    }
}

/// A starting point on a [`StatsAlloc`]'s counters.
#[derive(Debug)]
pub struct Region<'a, T: GlobalAlloc> {
    alloc: &'a StatsAlloc<T>,
    initial: Stats,
}

impl<'a, T: GlobalAlloc> Region<'a, T> {
    /// Opens a region at the allocator's current counters.
    pub fn new(alloc: &'a StatsAlloc<T>) -> Self {
        Region { alloc, initial: alloc.stats() }
    }

    /// What was counted since the region was opened.
    pub fn change(&self) -> Stats {
        self.alloc.stats() - self.initial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::System;

    #[test]
    fn counts_calls_on_a_local_instance() {
        let counted = StatsAlloc::new(System);
        let region = Region::new(&counted);
        let layout = Layout::from_size_align(64, 8).unwrap();
        #[allow(unsafe_code)]
        unsafe {
            let p = counted.alloc(layout);
            assert!(!p.is_null());
            let p = counted.realloc(p, layout, 128);
            counted.dealloc(p, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(region.change(), Stats { allocations: 1, reallocations: 1 });
    }
}
