//! A counting global allocator for the ablation harnesses, behind the
//! `alloc-stats` feature.
//!
//! When the feature is enabled, every harness binary of this crate routes
//! allocation through a [`System`](std::alloc::System)-backed counter that
//! tracks cumulative bytes allocated, the current live-byte footprint and
//! its high-water mark. `ablation_fused` uses the deltas around each
//! pipeline run to put a measured number on the memory-bound claim: the
//! oracle's peak grows with the corpus (every owned AST resident), the
//! fused engine's with in-flight batches + distinct analyses only.
//!
//! With the feature disabled (the default) this module compiles to stubs —
//! [`snapshot`] returns `None` and no allocator is installed, so the rest
//! of the workspace keeps its `forbid(unsafe_code)` posture and its
//! allocation behaviour.

/// A point-in-time reading of the allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Cumulative bytes handed out since process start.
    pub allocated_bytes: u64,
    /// Cumulative number of allocations.
    pub allocations: u64,
    /// Bytes currently live (allocated minus freed).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start or the last
    /// [`reset_peak`].
    pub peak_live_bytes: u64,
}

impl AllocSnapshot {
    /// Peak live bytes above the given baseline snapshot — the extra
    /// residency a measured region added on top of what was already live.
    pub fn peak_above(&self, baseline: &AllocSnapshot) -> u64 {
        self.peak_live_bytes.saturating_sub(baseline.live_bytes)
    }

    /// Bytes allocated since the given baseline snapshot.
    pub fn allocated_since(&self, baseline: &AllocSnapshot) -> u64 {
        self.allocated_bytes
            .saturating_sub(baseline.allocated_bytes)
    }
}

/// Whether the counting allocator is compiled in.
pub fn enabled() -> bool {
    cfg!(feature = "alloc-stats")
}

#[cfg(feature = "alloc-stats")]
#[allow(unsafe_code)]
mod counting {
    use super::AllocSnapshot;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATED: AtomicU64 = AtomicU64::new(0);
    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    fn record_alloc(size: usize) {
        let size = size as u64;
        ALLOCATED.fetch_add(size, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn record_dealloc(size: usize) {
        LIVE.fetch_sub(size as u64, Ordering::Relaxed);
    }

    /// [`System`] with relaxed atomic byte counters around every call.
    struct CountingAllocator;

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let pointer = System.alloc(layout);
            if !pointer.is_null() {
                record_alloc(layout.size());
            }
            pointer
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let pointer = System.alloc_zeroed(layout);
            if !pointer.is_null() {
                record_alloc(layout.size());
            }
            pointer
        }

        unsafe fn dealloc(&self, pointer: *mut u8, layout: Layout) {
            System.dealloc(pointer, layout);
            record_dealloc(layout.size());
        }

        unsafe fn realloc(&self, pointer: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let grown = System.realloc(pointer, layout, new_size);
            if !grown.is_null() {
                record_dealloc(layout.size());
                record_alloc(new_size);
            }
            grown
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    pub(super) fn snapshot() -> AllocSnapshot {
        AllocSnapshot {
            allocated_bytes: ALLOCATED.load(Ordering::Relaxed),
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            live_bytes: LIVE.load(Ordering::Relaxed),
            peak_live_bytes: PEAK.load(Ordering::Relaxed),
        }
    }

    pub(super) fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Reads the counters, or `None` when built without `alloc-stats`.
pub fn snapshot() -> Option<AllocSnapshot> {
    #[cfg(feature = "alloc-stats")]
    {
        Some(counting::snapshot())
    }
    #[cfg(not(feature = "alloc-stats"))]
    {
        None
    }
}

/// Resets the peak-live high-water mark to the current live footprint, so
/// the next measured region reports its own peak. No-op without the
/// feature.
pub fn reset_peak() {
    #[cfg(feature = "alloc-stats")]
    counting::reset_peak();
}

#[cfg(all(test, feature = "alloc-stats"))]
mod tests {
    use super::*;

    #[test]
    fn counters_track_a_large_allocation() {
        reset_peak();
        let before = snapshot().expect("feature enabled");
        let buffer = vec![0u8; 1 << 20];
        let during = snapshot().expect("feature enabled");
        drop(buffer);
        let after = snapshot().expect("feature enabled");
        assert!(during.allocated_since(&before) >= 1 << 20);
        assert!(during.live_bytes >= before.live_bytes + (1 << 20));
        assert!(after.peak_above(&before) >= 1 << 20);
        assert!(after.live_bytes < during.live_bytes);
    }
}
