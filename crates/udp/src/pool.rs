//! Lane recycling: a process-wide free list of [`Lane`]s so "fresh lane"
//! call sites (fault retries, per-tile decodes in the overlap executor,
//! per-batch worker lanes) stop paying a 64 KB zeroed allocation each time.
//!
//! Correctness rests on the lane's own contract: every `run*` entry point
//! fully re-initializes architectural state, so a pooled lane is
//! indistinguishable from `Lane::new()` — the differential and fault suites
//! exercise exactly this substitution, and
//! `tests/alloc_regression.rs::trapping_block_leaves_the_lane_its_buffers`
//! pins it for a lane that has just trapped. A trap is the job's, never the
//! lane's, so every returning lane goes back on the free list.

use crate::lane::Lane;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, OnceLock};

static EVENT_HOOK: OnceLock<fn()> = OnceLock::new();

/// Installs the process-wide hook called on every checkout served by a
/// recycled lane, so a higher layer (the `recode-core` flight recorder) can
/// timestamp pool traffic without this crate depending on it. First caller
/// wins; later calls are no-ops (the hook is a `fn` pointer, so there is
/// nothing to tear down). The hook runs outside the pool lock.
pub fn set_event_hook(hook: fn()) {
    let _ = EVENT_HOOK.set(hook);
}

/// Free-lane cap per pool; beyond this, returned lanes are dropped (each
/// holds a 64 KB scratchpad — the cap bounds idle memory at ~16 MB).
pub const POOL_CAPACITY: usize = 256;

/// Monotonic pool counters, exported into telemetry as `pool.*` counters by
/// the traced exec paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total checkouts served.
    pub checkouts: u64,
    /// Checkouts served from the free list (recycled allocation).
    pub recycled_hits: u64,
    /// Checkouts that had to build a fresh lane.
    pub fresh_builds: u64,
    /// Lanes returned to the free list on guard drop.
    pub returned: u64,
    /// Lanes dropped on return because the free list was at capacity.
    pub dropped_at_capacity: u64,
}

/// Everything behind the pool's single mutex.
struct PoolInner {
    free: Vec<Lane>,
    stats: PoolStats,
}

/// A capped free list of reusable lanes. Checkout pops a recycled lane (or
/// builds one when none is free); dropping the guard pushes it back, or
/// drops it when the free list already holds [`POOL_CAPACITY`].
pub struct LanePool {
    inner: Mutex<PoolInner>,
}

impl LanePool {
    /// An empty pool.
    pub const fn new() -> Self {
        LanePool {
            inner: Mutex::new(PoolInner {
                free: Vec::new(),
                stats: PoolStats {
                    checkouts: 0,
                    recycled_hits: 0,
                    fresh_builds: 0,
                    returned: 0,
                    dropped_at_capacity: 0,
                },
            }),
        }
    }

    /// Takes a lane out of the pool, creating one if none are free. The
    /// lane rides back into the pool when the returned guard drops.
    pub fn checkout(&self) -> PooledLane<'_> {
        let recycled = {
            let mut inner = self.lock();
            inner.stats.checkouts += 1;
            let lane = inner.free.pop();
            if lane.is_some() {
                inner.stats.recycled_hits += 1;
            } else {
                inner.stats.fresh_builds += 1;
            }
            lane
        };
        let lane = match recycled {
            Some(lane) => {
                if let Some(hook) = EVENT_HOOK.get() {
                    hook();
                }
                lane
            }
            None => Lane::new(),
        };
        PooledLane { pool: self, lane: Some(lane) }
    }

    /// Number of lanes currently parked in the free list.
    pub fn idle(&self) -> usize {
        self.lock().free.len()
    }

    /// Snapshot of the pool's monotonic counters.
    pub fn stats(&self) -> PoolStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // A panicked holder can only have poisoned the state mid-push/pop
        // of whole lanes; the list is still structurally sound.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Default for LanePool {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide pool used by the accelerator batch loop, the exec
/// retry ladder, and the overlap executor.
pub fn global() -> &'static LanePool {
    static POOL: LanePool = LanePool::new();
    &POOL
}

/// Checkout guard: derefs to [`Lane`], returns the lane to its pool on drop.
pub struct PooledLane<'a> {
    pool: &'a LanePool,
    lane: Option<Lane>,
}

impl Deref for PooledLane<'_> {
    type Target = Lane;
    fn deref(&self) -> &Lane {
        self.lane.as_ref().expect("lane present until drop")
    }
}

impl DerefMut for PooledLane<'_> {
    fn deref_mut(&mut self) -> &mut Lane {
        self.lane.as_mut().expect("lane present until drop")
    }
}

impl Drop for PooledLane<'_> {
    fn drop(&mut self) {
        if let Some(lane) = self.lane.take() {
            let mut inner = self.pool.lock();
            if inner.free.len() < POOL_CAPACITY {
                inner.free.push(lane);
                inner.stats.returned += 1;
            } else {
                inner.stats.dropped_at_capacity += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_the_same_lane_allocation() {
        let pool = LanePool::new();
        assert_eq!(pool.idle(), 0);
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
        }
        assert_eq!(pool.idle(), 2);
        {
            let _c = pool.checkout();
            assert_eq!(pool.idle(), 1, "checkout must reuse a parked lane");
        }
        assert_eq!(pool.idle(), 2);
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 3);
        assert_eq!(stats.fresh_builds, 2);
        assert_eq!(stats.recycled_hits, 1);
        assert_eq!(stats.returned, 3);
    }

    #[test]
    fn global_pool_is_shared() {
        let before = global().idle();
        drop(global().checkout());
        assert!(global().idle() >= 1.min(before + 1));
    }

    #[test]
    fn capacity_bounds_the_free_list() {
        let pool = LanePool::new();
        drop((0..=POOL_CAPACITY).map(|_| pool.checkout()).collect::<Vec<_>>());
        assert_eq!(pool.idle(), POOL_CAPACITY, "free list capped at capacity");
        assert_eq!(pool.stats().dropped_at_capacity, 1);
    }

    /// Interleaving stress: many threads checkout/return against one pool
    /// from a fixed barrier. The monotonic counters must partition exactly
    /// under every schedule: each checkout is served by exactly one source,
    /// each guard drop lands in exactly one return bucket, and the parked
    /// inventory respects its cap.
    #[test]
    fn concurrent_pool_counters_partition_exactly() {
        const THREADS: usize = 8;
        const ITERS: u64 = 200;
        let pool = LanePool::new();
        // A full free list, and one lane more per thread, which the thread
        // returns before its first checkout: whichever comes back first
        // finds the free list at its cap, under every schedule.
        let mut parked: Vec<_> = (0..POOL_CAPACITY + THREADS).map(|_| pool.checkout()).collect();
        let extra = parked.split_off(POOL_CAPACITY);
        drop(parked);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for extra in extra {
                let pool = &pool;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    drop(extra);
                    for _ in 0..ITERS {
                        drop(pool.checkout());
                    }
                });
            }
        });
        let st = pool.stats();
        let total = (POOL_CAPACITY + THREADS) as u64 + THREADS as u64 * ITERS;
        assert_eq!(st.checkouts, total, "every checkout is counted exactly once");
        assert_eq!(
            st.recycled_hits + st.fresh_builds,
            total,
            "each checkout is served by exactly one source"
        );
        assert_eq!(
            st.returned + st.dropped_at_capacity,
            total,
            "each guard drop lands in exactly one return bucket"
        );
        assert!(st.dropped_at_capacity > 0, "a return past the cap is dropped");
        assert!(pool.idle() <= POOL_CAPACITY, "free list respects its cap");
        assert!(
            (pool.idle() as u64) <= st.returned,
            "parked inventory never exceeds counted returns"
        );
    }
}
