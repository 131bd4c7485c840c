//! Lane recycling: a process-wide free list of [`Lane`]s so "fresh lane"
//! call sites (fault retries, per-tile decodes in the overlap executor,
//! per-batch worker lanes) stop paying a 64 KB zeroed allocation each time.
//!
//! Correctness rests on the lane's own contract: every `run*` entry point
//! fully re-initializes architectural state, so a pooled lane is
//! indistinguishable from `Lane::new()` — the differential and fault suites
//! exercise exactly this substitution.
//!
//! ## Lane health & quarantine
//!
//! Each lane carries a [`LaneHealth`](crate::lane::LaneHealth) record that
//! the decode path updates (`note_trap` on a lane-attributable trap,
//! `note_success` on a clean decode). When a returning lane has trapped
//! [`QUARANTINE_AFTER_TRAPS`] times in a row it is parked on a quarantine
//! list instead of the free list. Every [`PROBATION_EVERY`] checkouts one
//! quarantined lane is readmitted *on probation*: it serves the checkout
//! directly, and a single further trap sends it straight back to quarantine
//! while one clean decode restores it to full health. Quarantined lanes do
//! **not** count against [`POOL_CAPACITY`] (the free-list cap); the
//! quarantine list is bounded by the same number independently.

use crate::lane::{Lane, LaneHealth};
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, OnceLock};

/// Pool lifecycle notifications fanned out through the hook installed with
/// [`set_event_hook`]. The pool itself keeps no observers — the hook exists
/// so a higher layer (the `recode-core` flight recorder) can timestamp pool
/// traffic without this crate depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolEvent {
    /// A returning lane crossed the quarantine threshold and was parked.
    Quarantined,
    /// A quarantined lane was readmitted on probation to serve a checkout.
    Readmitted,
    /// A checkout was served by recycling a parked lane.
    Recycled,
}

static EVENT_HOOK: OnceLock<fn(PoolEvent)> = OnceLock::new();

/// Installs the process-wide pool event hook. First caller wins; later
/// calls are no-ops (the hook is a `fn` pointer, so there is nothing to
/// tear down). The hook runs outside the pool lock.
pub fn set_event_hook(hook: fn(PoolEvent)) {
    let _ = EVENT_HOOK.set(hook);
}

#[inline]
fn emit(event: PoolEvent) {
    if let Some(hook) = EVENT_HOOK.get() {
        hook(event);
    }
}

/// Free-lane cap per pool; beyond this, returned lanes are dropped (each
/// holds a 64 KB scratchpad — the cap bounds idle memory at ~16 MB).
pub const POOL_CAPACITY: usize = 256;

/// Consecutive lane-attributable traps before a returning lane is
/// quarantined.
pub const QUARANTINE_AFTER_TRAPS: u32 = 3;

/// Checkouts between probation probes: every this-many checkouts one
/// quarantined lane is readmitted on probation.
pub const PROBATION_EVERY: u64 = 16;

/// Whether a returning lane goes to quarantine: after
/// [`QUARANTINE_AFTER_TRAPS`] consecutive traps, or after any trap at all on
/// probation.
fn should_quarantine(health: &LaneHealth) -> bool {
    health.consecutive_traps >= QUARANTINE_AFTER_TRAPS
        || (health.probation && health.consecutive_traps > 0)
}

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
    /// Lanes moved to the quarantine list on return.
    pub quarantined: u64,
    /// Quarantined lanes readmitted on probation.
    pub readmitted: u64,
}

/// Everything behind the pool's single mutex.
struct PoolInner {
    free: Vec<Lane>,
    quarantined: Vec<Lane>,
    stats: PoolStats,
    checkouts_since_probe: u64,
}

/// A free list of reusable lanes with health-based quarantine. Checkout
/// pops a recycled lane (or builds one on first use); dropping the guard
/// returns it — to the free list, or to quarantine when its health record
/// crossed [`QUARANTINE_AFTER_TRAPS`].
pub struct LanePool {
    inner: Mutex<PoolInner>,
}

impl LanePool {
    /// An empty pool.
    pub const fn new() -> Self {
        LanePool {
            inner: Mutex::new(PoolInner {
                free: Vec::new(),
                quarantined: Vec::new(),
                stats: PoolStats {
                    checkouts: 0,
                    recycled_hits: 0,
                    fresh_builds: 0,
                    returned: 0,
                    dropped_at_capacity: 0,
                    quarantined: 0,
                    readmitted: 0,
                },
                checkouts_since_probe: 0,
            }),
        }
    }

    /// Takes a lane out of the pool, creating one if none are free. The
    /// lane rides back into the pool when the returned guard drops.
    ///
    /// Every [`PROBATION_EVERY`] checkouts, one quarantined
    /// lane (if any) is readmitted on probation and serves the checkout
    /// directly.
    pub fn checkout(&self) -> PooledLane<'_> {
        let (lane, event) = {
            let mut inner = self.lock();
            inner.stats.checkouts += 1;
            inner.checkouts_since_probe += 1;
            if inner.checkouts_since_probe >= PROBATION_EVERY && !inner.quarantined.is_empty() {
                inner.checkouts_since_probe = 0;
                let mut lane = inner.quarantined.pop().expect("non-empty quarantine");
                lane.begin_probation();
                inner.stats.readmitted += 1;
                (lane, Some(PoolEvent::Readmitted))
            } else if let Some(lane) = inner.free.pop() {
                inner.stats.recycled_hits += 1;
                (lane, Some(PoolEvent::Recycled))
            } else {
                inner.stats.fresh_builds += 1;
                (Lane::new(), None)
            }
        };
        if let Some(event) = event {
            emit(event);
        }
        PooledLane { pool: self, lane: Some(lane) }
    }

    /// Number of lanes currently parked in the free list.
    pub fn idle(&self) -> usize {
        self.lock().free.len()
    }

    /// Number of lanes currently held in quarantine.
    pub fn quarantined_count(&self) -> usize {
        self.lock().quarantined.len()
    }

    /// Snapshot of the pool's monotonic counters.
    pub fn stats(&self) -> PoolStats {
        self.lock().stats
    }

    /// Drops every parked lane (free and quarantined) and zeroes the
    /// counters. Used by the chaos harness to isolate
    /// trials sharing the process-wide pool.
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.free.clear();
        inner.quarantined.clear();
        inner.stats = PoolStats::default();
        inner.checkouts_since_probe = 0;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // A panicked holder can only have poisoned the state mid-push/pop
        // of whole lanes; the lists are still structurally sound.
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
            let quarantined = {
                let mut inner = self.pool.lock();
                if should_quarantine(lane.health()) {
                    // Quarantined lanes are exempt from the free-list cap;
                    // their list is independently bounded by the same value.
                    if inner.quarantined.len() < POOL_CAPACITY {
                        inner.quarantined.push(lane);
                    }
                    inner.stats.quarantined += 1;
                    true
                } else {
                    if inner.free.len() < POOL_CAPACITY {
                        inner.free.push(lane);
                        inner.stats.returned += 1;
                    } else {
                        inner.stats.dropped_at_capacity += 1;
                    }
                    false
                }
            };
            if quarantined {
                emit(PoolEvent::Quarantined);
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

    /// Checks out `n` lanes at once and traps each into quarantine.
    fn quarantine(pool: &LanePool, n: usize) {
        let mut sick: Vec<_> = (0..n).map(|_| pool.checkout()).collect();
        for lane in &mut sick {
            for _ in 0..QUARANTINE_AFTER_TRAPS {
                lane.note_trap();
            }
        }
    }

    #[test]
    fn capacity_bounds_the_free_list() {
        let pool = LanePool::new();
        drop((0..=POOL_CAPACITY).map(|_| pool.checkout()).collect::<Vec<_>>());
        assert_eq!(pool.idle(), POOL_CAPACITY, "free list capped at capacity");
        assert_eq!(pool.stats().dropped_at_capacity, 1);
    }

    #[test]
    fn repeated_traps_quarantine_a_lane() {
        let pool = LanePool::new();
        {
            let mut lane = pool.checkout();
            for _ in 1..QUARANTINE_AFTER_TRAPS {
                lane.note_trap();
            }
        }
        assert_eq!(pool.idle(), 1, "a streak below the threshold stays healthy");
        assert_eq!(pool.quarantined_count(), 0);
        {
            let mut lane = pool.checkout();
            lane.note_trap();
        }
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.quarantined_count(), 1, "the threshold-th consecutive trap quarantines");
        assert_eq!(pool.stats().quarantined, 1);
    }

    #[test]
    fn a_success_resets_the_trap_streak() {
        let pool = LanePool::new();
        {
            let mut lane = pool.checkout();
            for _ in 1..QUARANTINE_AFTER_TRAPS {
                lane.note_trap();
            }
            lane.note_success();
            lane.note_trap();
        }
        assert_eq!(pool.quarantined_count(), 0, "streak broken by the success");
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn quarantined_lanes_do_not_count_against_capacity() {
        let pool = LanePool::new();
        let healthy: Vec<_> = (0..POOL_CAPACITY).map(|_| pool.checkout()).collect();
        let mut sick = pool.checkout();
        for _ in 0..QUARANTINE_AFTER_TRAPS {
            sick.note_trap();
        }
        drop(healthy);
        assert_eq!(pool.idle(), POOL_CAPACITY, "healthy lanes fill the free list");
        drop(sick);
        assert_eq!(
            pool.quarantined_count(),
            1,
            "quarantined lane retained even though the free list is full"
        );
        // And the reverse: a full quarantine list does not block a healthy
        // return.
        pool.reset();
        let healthy = pool.checkout();
        quarantine(&pool, POOL_CAPACITY);
        assert_eq!((pool.idle(), pool.quarantined_count()), (0, POOL_CAPACITY));
        drop(healthy);
        assert_eq!(pool.idle(), 1, "healthy lane parked beside a full quarantine list");
        assert_eq!(pool.quarantined_count(), POOL_CAPACITY);
    }

    #[test]
    fn probation_readmits_and_a_clean_run_restores_health() {
        let pool = LanePool::new();
        quarantine(&pool, 1);
        assert_eq!(pool.quarantined_count(), 1);
        for _ in 2..PROBATION_EVERY {
            assert!(!pool.checkout().health().probation, "no probe before the interval");
        }
        // The interval's last checkout: the quarantined lane comes back on
        // probation and serves it.
        let lane = pool.checkout();
        assert!(lane.health().probation, "readmitted lane is on probation");
        assert_eq!(pool.stats().readmitted, 1);
        drop(lane);
        // Returned without a further trap (probation with a zero streak is
        // not a quarantine offence) — but still on probation until a success.
        assert_eq!(pool.quarantined_count(), 0);
        assert_eq!(pool.idle(), 2);
        {
            let mut lane = pool.checkout();
            assert!(lane.health().probation, "the free list hands back the last return");
            lane.note_success();
            assert!(!lane.health().probation, "success clears probation");
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn a_trap_during_probation_requarantines_immediately() {
        let pool = LanePool::new();
        quarantine(&pool, 1);
        assert_eq!(pool.quarantined_count(), 1);
        for _ in 2..PROBATION_EVERY {
            drop(pool.checkout());
        }
        {
            let mut lane = pool.checkout();
            assert!(lane.health().probation);
            lane.note_trap();
        }
        assert_eq!(
            pool.quarantined_count(),
            1,
            "one trap on probation goes straight back to quarantine"
        );
        assert_eq!(pool.stats().quarantined, 2);
    }

    /// Seeded interleaving stress: many threads checkout/trap/return
    /// against one pool from a fixed barrier. The monotonic
    /// counters must partition exactly under every schedule: each checkout
    /// is served by exactly one source, each guard drop lands in exactly
    /// one return bucket, and the parked inventory respects its caps.
    #[test]
    fn concurrent_quarantine_counters_partition_exactly() {
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
            for (w, extra) in extra.into_iter().enumerate() {
                let pool = &pool;
                let barrier = &barrier;
                s.spawn(move || {
                    // Fixed per-thread xorshift seed: the trap/success mix
                    // is deterministic, only the interleaving varies.
                    let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ (w as u64 + 1);
                    barrier.wait();
                    drop(extra);
                    for _ in 0..ITERS {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let mut lane = pool.checkout();
                        match seed % 4 {
                            0 => lane.note_success(),
                            1 => {
                                for _ in 0..QUARANTINE_AFTER_TRAPS {
                                    lane.note_trap();
                                }
                            }
                            2 => lane.note_trap(),
                            _ => {}
                        }
                    }
                });
            }
        });
        let st = pool.stats();
        let total = (POOL_CAPACITY + THREADS) as u64 + THREADS as u64 * ITERS;
        assert_eq!(st.checkouts, total, "every checkout is counted exactly once");
        assert_eq!(
            st.recycled_hits + st.fresh_builds + st.readmitted,
            total,
            "each checkout is served by exactly one source"
        );
        assert_eq!(
            st.returned + st.dropped_at_capacity + st.quarantined,
            total,
            "each guard drop lands in exactly one return bucket"
        );
        assert!(st.readmitted <= st.quarantined, "cannot readmit more lanes than were parked");
        assert!(st.dropped_at_capacity > 0, "a return past the cap is dropped");
        assert!(pool.idle() <= POOL_CAPACITY, "free list respects its cap");
        assert!(pool.quarantined_count() <= POOL_CAPACITY, "quarantine list respects its cap");
        assert!(
            (pool.idle() as u64) <= st.returned,
            "parked inventory never exceeds counted returns"
        );
    }

    #[test]
    fn reset_clears_lanes_and_counters() {
        let pool = LanePool::new();
        drop(pool.checkout());
        assert_eq!(pool.idle(), 1);
        pool.reset();
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.stats(), PoolStats::default());
    }
}
