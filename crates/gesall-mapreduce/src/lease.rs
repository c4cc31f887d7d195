//! Container-slot leases: the contract between a capacity scheduler
//! (gesall-jobsvc) and the engine.
//!
//! A [`SlotLease`] is a grant of concurrent container slots for one
//! job. The engine's wave workers take a [`LeasePermit`] before running
//! each task attempt and release it after, so at any instant a job runs
//! at most `limit` attempts regardless of how many worker threads its
//! waves spawned. A worker facing a saturated grant parks in
//! [`SlotLease::acquire`] on the lease's own condvar, which every
//! release and every grant change notifies: no timer. The grant is
//! *elastic*: the scheduler may grow it
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
use std::sync::{Arc, Condvar, Mutex, RwLock};

struct LeaseInner {
    slots: Mutex<Slots>,
    /// Notified on every permit release and every grant change: what a
    /// worker parked in [`SlotLease::acquire`] waits for.
    freed: Condvar,
    /// Called after every permit release — the job service hooks its
    /// slot-harvesting wakeup here.
    on_release: RwLock<Option<Arc<dyn Fn() + Send + Sync>>>,
}

struct Slots {
    /// Current grant: attempts that may run concurrently. Always ≥ 1 —
    /// a zero grant would park every worker of a wave forever.
    limit: usize,
    /// Permits held right now.
    active: usize,
    /// High-water mark of `active` over the lease's lifetime.
    peak: usize,
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
                slots: Mutex::new(Slots {
                    limit: limit.max(1),
                    active: 0,
                    peak: 0,
                }),
                freed: Condvar::new(),
                on_release: RwLock::new(None),
            }),
        }
    }

    /// Current grant.
    pub fn limit(&self) -> usize {
        self.inner.slots.lock().unpoisoned().limit
    }

    /// Re-set the grant (clamped to ≥ 1). Growing starts parked workers
    /// at once; shrinking drains preemption-free as running attempts
    /// release their permits.
    pub fn set_limit(&self, limit: usize) {
        self.inner.slots.lock().unpoisoned().limit = limit.max(1);
        self.inner.freed.notify_all();
    }

    /// Permits held right now.
    pub fn active(&self) -> usize {
        self.inner.slots.lock().unpoisoned().active
    }

    /// Most permits ever held at once — the witness that a leased job
    /// actually ran concurrently (or was truly capped).
    pub fn peak_active(&self) -> usize {
        self.inner.slots.lock().unpoisoned().peak
    }

    /// Register the release hook (replacing any previous one). Fired
    /// after every permit release, outside all locks.
    pub fn on_release(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.inner.on_release.write().unpoisoned() = Some(Arc::new(hook));
    }

    /// Try to take a permit; `None` when the grant is saturated.
    pub fn try_acquire(&self) -> Option<LeasePermit> {
        let mut slots = self.inner.slots.lock().unpoisoned();
        (slots.active < slots.limit).then(|| self.grant(&mut slots))
    }

    /// Take a permit, parking until a release or a grown grant frees
    /// one.
    pub fn acquire(&self) -> LeasePermit {
        let mut slots = self.inner.slots.lock().unpoisoned();
        while slots.active >= slots.limit {
            slots = self.inner.freed.wait(slots).unpoisoned();
        }
        self.grant(&mut slots)
    }

    fn grant(&self, slots: &mut Slots) -> LeasePermit {
        slots.active += 1;
        slots.peak = slots.peak.max(slots.active);
        LeasePermit {
            inner: self.inner.clone(),
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
        self.inner.slots.lock().unpoisoned().active -= 1;
        self.inner.freed.notify_one();
        let hook = self.inner.on_release.read().unpoisoned().clone();
        if let Some(hook) = hook {
            hook();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn acquire_parks_until_a_release_or_a_grown_grant() {
        let lease = SlotLease::new(1);
        let held = lease.acquire();
        std::thread::scope(|s| {
            // Each parked acquire returns only once something frees a
            // slot: first a grown grant, then a release.
            let grown = s.spawn(|| lease.acquire());
            lease.set_limit(2);
            let second = grown.join().unwrap();
            let released = s.spawn(|| lease.acquire());
            drop(held);
            drop(released.join().unwrap());
            drop(second);
        });
        assert_eq!((lease.active(), lease.peak_active()), (0, 2));
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
