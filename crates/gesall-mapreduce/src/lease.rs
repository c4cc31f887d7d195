//! Container-slot leases: the contract between a capacity scheduler
//! (gesall-jobsvc) and the engine.
//!
//! A [`SlotLease`] is a grant of concurrent container slots for one
//! job. The engine's wave workers take a [`LeasePermit`] before running
//! each task attempt and release it after, so at any instant a job runs
//! at most `limit` attempts regardless of how many worker threads its
//! waves spawned. The grant is *elastic*: the scheduler may grow it
//! (borrowing idle cluster capacity) or shrink it at any time with
//! [`SlotLease::set_limit`]. Shrinking never interrupts a running
//! attempt — workers holding a permit finish normally and the permit
//! count drains below the new limit as they complete. That is the
//! preemption-free reclaim YARN's capacity scheduler performs when an
//! under-share queue needs containers back.
//!
//! A scheduler learns that a slot drained through the release hook
//! ([`SlotLease::on_release`]), which fires on every permit drop and on
//! nothing else: a limit change is the scheduler's own act, so it
//! already knows.
//!
//! Without a lease (`JobConfig::slot_lease = None`) the engine behaves
//! as before: every spawned worker may run an attempt, i.e. the job may
//! use the whole cluster.

use gesall_telemetry::Unpoisoned;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

struct LeaseInner {
    /// Current grant: attempts that may run concurrently. Always ≥ 1 —
    /// a zero grant would park every worker of a wave forever.
    limit: AtomicUsize,
    /// Permits held right now.
    active: AtomicUsize,
    /// High-water mark of `active` over the lease's lifetime.
    peak: AtomicUsize,
    /// Called after every permit release — the job service hooks its
    /// slot-harvesting wakeup here.
    on_release: RwLock<Option<Arc<dyn Fn() + Send + Sync>>>,
}

/// A cheaply clonable handle to one job's slot grant; clones share
/// state. See the module docs for the protocol.
#[derive(Clone)]
pub struct SlotLease {
    inner: Arc<LeaseInner>,
}

impl SlotLease {
    /// A lease granting `limit` concurrent slots (clamped to ≥ 1).
    pub fn new(limit: usize) -> SlotLease {
        SlotLease {
            inner: Arc::new(LeaseInner {
                limit: AtomicUsize::new(limit.max(1)),
                active: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                on_release: RwLock::new(None),
            }),
        }
    }

    /// Current grant.
    pub fn limit(&self) -> usize {
        self.inner.limit.load(Ordering::SeqCst)
    }

    /// Re-set the grant (clamped to ≥ 1). Growing takes effect on the
    /// next permit acquisition; shrinking drains preemption-free as
    /// running attempts release their permits.
    pub fn set_limit(&self, limit: usize) {
        self.inner.limit.store(limit.max(1), Ordering::SeqCst);
    }

    /// Permits held right now.
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Most permits ever held at once — the witness that a leased job
    /// actually ran concurrently (or was truly capped).
    pub fn peak_active(&self) -> usize {
        self.inner.peak.load(Ordering::SeqCst)
    }

    /// Register the release hook (replacing any previous one). Fired
    /// after every permit release, outside all locks.
    pub fn on_release(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.inner.on_release.write().unpoisoned() = Some(Arc::new(hook));
    }

    /// Try to take a permit; `None` when the grant is saturated.
    pub fn try_acquire(&self) -> Option<LeasePermit> {
        let inner = &self.inner;
        let mut cur = inner.active.load(Ordering::SeqCst);
        loop {
            if cur >= inner.limit.load(Ordering::SeqCst) {
                return None;
            }
            match inner.active.compare_exchange(
                cur,
                cur + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    inner.peak.fetch_max(cur + 1, Ordering::SeqCst);
                    return Some(LeasePermit {
                        inner: inner.clone(),
                    });
                }
                Err(seen) => cur = seen,
            }
        }
    }
}

impl std::fmt::Debug for SlotLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotLease")
            .field("limit", &self.limit())
            .field("active", &self.active())
            .field("peak", &self.peak_active())
            .finish()
    }
}

/// RAII permit for one running attempt; releasing (dropping) it frees
/// the slot and fires the lease's release hook.
pub struct LeasePermit {
    inner: Arc<LeaseInner>,
}

impl Drop for LeasePermit {
    fn drop(&mut self) {
        self.inner.active.fetch_sub(1, Ordering::SeqCst);
        let hook = self.inner.on_release.read().unpoisoned().clone();
        if let Some(hook) = hook {
            hook();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn permits_cap_at_limit_and_release() {
        let lease = SlotLease::new(2);
        let a = lease.try_acquire().expect("slot 1");
        let _b = lease.try_acquire().expect("slot 2");
        assert!(lease.try_acquire().is_none(), "grant saturated");
        assert_eq!(lease.active(), 2);
        drop(a);
        assert_eq!(lease.active(), 1);
        assert!(lease.try_acquire().is_some());
        assert_eq!(lease.peak_active(), 2);
    }

    #[test]
    fn zero_limit_clamps_to_one() {
        let lease = SlotLease::new(0);
        assert_eq!(lease.limit(), 1);
        lease.set_limit(0);
        assert_eq!(lease.limit(), 1);
        assert!(lease.try_acquire().is_some());
    }

    #[test]
    fn shrink_drains_without_revoking() {
        let lease = SlotLease::new(3);
        let a = lease.try_acquire().unwrap();
        let b = lease.try_acquire().unwrap();
        let c = lease.try_acquire().unwrap();
        lease.set_limit(1);
        // Held permits survive the shrink (preemption-free)…
        assert_eq!(lease.active(), 3);
        // …but no new permit is granted until active < limit.
        assert!(lease.try_acquire().is_none());
        drop(a);
        drop(b);
        assert!(lease.try_acquire().is_none(), "2 active ≥ limit 1");
        drop(c);
        assert!(lease.try_acquire().is_some());
    }

    #[test]
    fn release_hook_fires_on_permit_drop_not_on_set_limit() {
        let lease = SlotLease::new(2);
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        lease.on_release(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        let p = lease.try_acquire().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        drop(p);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        lease.set_limit(4);
        lease.set_limit(1);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "a limit change is not a release");
    }
}
