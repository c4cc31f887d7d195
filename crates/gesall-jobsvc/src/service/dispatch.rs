//! The dispatcher: one thread that owns every scheduling decision. It
//! parks on `Svc::wake` and is woken by submissions, job completions,
//! cancellations, retention deadlines and every [`LeasePermit`] drop
//! inside a running job (the lease's release hook), which is how a
//! shrunk lease's draining slots reach queued work without preempting
//! any running attempt.
//!
//! Each rebalance pass runs four phases under `Svc::state`:
//!
//! 1. **harvest** — slots a shrunk lease has actually drained
//!    (`granted − max(target, active)`) return to the free pool
//!    (`jobsvc.slots.reclaimed`).
//! 2. **dispatch** — while free slots remain, [`sched::pick_tenant`]
//!    chooses the most under-share tenant with queued work, and the
//!    tenant's oldest queued job starts with
//!    `min(want, quota_room, free)` slots. Fairness across tenants is
//!    `pick_tenant`'s; within a tenant the queue is FIFO.
//! 3. **grow** — still-free slots widen running jobs below their
//!    requested width, most under-share tenant first; growth beyond
//!    the tenant's entitlement counts as `jobsvc.slots.borrowed`.
//! 4. **shrink** — if work is queued and nothing is free, tenants
//!    running beyond their entitlement have their jobs' lease limits
//!    cut toward the entitlement (never below one slot). Nothing stops
//!    running; the next permit releases simply aren't re-acquired, and
//!    phase 1 of a later pass harvests them.
//!
//! # Lock order
//!
//! `Svc::state` before any `JobShared::cell`. The lease hook fires only
//! on a permit drop inside a job, never inside a pass: it takes and
//! releases `state`, holding nothing else, before it notifies (see
//! `Svc::lease_released`).
//!
//! [`LeasePermit`]: gesall_mapreduce::lease::LeasePermit

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gesall_dfs::SweepReason;
use gesall_mapreduce::lease::SlotLease;

use super::{JobStatus, Retirement, RunningJob, Svc, SvcState};
use crate::keys;
use crate::sched::{self, TenantView};

/// Interleaving points for tests: `before_park` runs on the dispatcher
/// between a pass and its park, `state` held; `before_sync` runs on a
/// releasing thread just before its lease hook takes `state`.
#[cfg(test)]
#[derive(Default)]
pub(super) struct TestHooks {
    before_park: parking_lot::Mutex<Option<ParkHook>>,
    before_sync: parking_lot::Mutex<Option<Box<dyn Fn() + Send>>>,
}

#[cfg(test)]
type ParkHook = Box<dyn FnMut(&SvcState) + Send>;

impl Svc {
    /// Entitlements over tenants that currently have work — what
    /// `shrink` pulls borrowers back toward. Idle tenants' shares stay
    /// borrowable; the moment one queues work it joins this set and
    /// the split tightens.
    fn active_entitlements(&self, st: &SvcState) -> BTreeMap<String, usize> {
        let active: Vec<(&str, u32)> = st
            .rt
            .iter()
            .filter(|(_, t)| t.queued > 0 || t.inflight > 0)
            .map(|(n, t)| (n.as_str(), t.share))
            .collect();
        sched::entitlements(self.total_slots, &active)
    }

    /// The dispatcher thread: sweep due retirements, rebalance, then park
    /// until the next event or retention deadline; on shutdown, once the
    /// last job is off the cluster, sweep what is still retained.
    pub(super) fn dispatcher(svc: Arc<Svc>) {
        let mut st = svc.state.lock();
        loop {
            svc.sweep_due_retirements(&mut st);
            svc.rebalance(&mut st);
            if st.shutdown && st.queued.is_empty() && st.running.is_empty() {
                // Final retention pass: the service owns these
                // namespaces; nobody is left to sweep them later.
                let leftover: Vec<Retirement> = st.retired.drain(..).collect();
                for r in leftover {
                    svc.platform.dfs.sweep_prefix(&r.namespace, SweepReason::Ttl);
                }
                return;
            }
            let now = Instant::now();
            let next_deadline = st
                .retired
                .iter()
                .map(|r| r.deadline.saturating_duration_since(now))
                .min();
            #[cfg(test)]
            if let Some(hook) = svc.test_hooks.before_park.lock().as_mut() {
                hook(&st);
            }
            match next_deadline {
                Some(d) => {
                    svc.wake
                        .wait_for(&mut st, d.max(Duration::from_millis(1)));
                }
                None => svc.wake.wait(&mut st),
            }
        }
    }

    /// A permit was released: wake the dispatcher to harvest. The
    /// dispatcher reads `lease.active()` under `state` and may then park
    /// with no deadline, so a bare notify landing between that read and
    /// the park would be lost — and with it the slot, until some later
    /// event. The hook therefore takes and releases `state` first, which
    /// orders it before the pass (which then sees the release) or after
    /// the park (which the notify then ends). It never runs inside a
    /// pass: `set_limit` does not fire it, and a permit is only dropped
    /// on a job's own threads.
    fn lease_released(&self) {
        #[cfg(test)]
        if let Some(hook) = self.test_hooks.before_sync.lock().as_ref() {
            hook();
        }
        drop(self.state.lock());
        self.wake.notify_all();
    }

    /// One scheduling pass: harvest → dispatch → grow → shrink, looped
    /// to a fixpoint. The loop matters because a shrink can free
    /// capacity *immediately* (a job holding fewer permits than its
    /// grant drains without waiting), and no permit drop will announce
    /// those slots: the dispatcher must hand them out in the same pass.
    fn rebalance(self: &Arc<Self>, st: &mut SvcState) {
        loop {
            self.harvest(st);
            self.dispatch_queued(st);
            self.grow(st);
            if !self.shrink(st) {
                break;
            }
        }
    }

    /// Dispatch queued jobs to free slots, most under-share tenant
    /// first. Each iteration dispatches exactly one job, so the loop
    /// terminates.
    fn dispatch_queued(self: &Arc<Self>, st: &mut SvcState) {
        while st.free > 0 && !st.queued.is_empty() {
            let views: Vec<TenantView> = st
                .rt
                .iter()
                .map(|(name, t)| TenantView {
                    name: name.clone(),
                    share: t.share,
                    inflight: t.inflight,
                    has_queued: t.queued > 0,
                    quota_room: t.max_inflight.saturating_sub(t.inflight),
                })
                .collect();
            let Some(pick) = sched::pick_tenant(&views) else {
                break;
            };
            let tenant = pick.name.clone();
            let quota_room = pick.quota_room;
            // Within the tenant: first come, first served.
            let idx = st
                .queued
                .iter()
                .position(|q| q.shared.tenant == tenant)
                .expect("picked tenant has queued work");
            let want = st.queued[idx].want;
            let grant = want.min(quota_room).min(st.free);
            if grant == 0 {
                break;
            }
            self.dispatch(st, idx, grant);
        }
    }

    /// Return drained slots from shrunk leases to the free pool. A
    /// slot is drained once the lease's limit has been cut below the
    /// granted width *and* the running attempts have actually fallen
    /// to the new limit — `granted − max(target, active)` is what the
    /// tenant no longer holds.
    fn harvest(&self, st: &mut SvcState) {
        let SvcState {
            running, rt, free, ..
        } = st;
        for job in running.iter_mut() {
            let floor = job.target.max(job.lease.active());
            let reclaim = job.granted.saturating_sub(floor);
            if reclaim > 0 {
                job.granted -= reclaim;
                let t = rt.get_mut(&job.shared.tenant).expect("tenant present");
                t.inflight -= reclaim;
                *free += reclaim;
                self.count(keys::SLOTS_RECLAIMED, &job.shared.tenant, reclaim as u64);
            }
        }
    }

    /// Widen running jobs into idle capacity.
    fn grow(&self, st: &mut SvcState) {
        while st.free > 0 {
            // Most under-share tenant's growable job first; ties keep
            // dispatch order (`min_by` keeps the earliest running entry).
            let best = st
                .running
                .iter()
                .enumerate()
                .map(|(i, job)| (i, job, &st.rt[&job.shared.tenant]))
                .filter(|(_, job, t)| job.granted < job.want && t.inflight < t.max_inflight)
                .min_by(|(_, _, a), (_, _, b)| {
                    (a.inflight as u64 * b.share as u64).cmp(&(b.inflight as u64 * a.share as u64))
                });
            let Some((i, _, _)) = best else { break };
            let tenant = st.running[i].shared.tenant.clone();
            let ent = self.configured.get(&tenant).copied().unwrap_or(0);
            let SvcState {
                running, rt, free, ..
            } = st;
            let t = rt.get_mut(&tenant).expect("tenant present");
            let job = &mut running[i];
            let g = (job.want - job.granted)
                .min(t.max_inflight - t.inflight)
                .min(*free);
            if g == 0 {
                break;
            }
            let borrowed = sched::borrowed_delta(t.inflight, g, ent);
            job.granted += g;
            job.target = job.granted;
            job.lease.set_limit(job.target);
            t.inflight += g;
            *free -= g;
            self.count(keys::SLOTS_GRANTED, &tenant, g as u64);
            if borrowed > 0 {
                self.count(keys::SLOTS_BORROWED, &tenant, borrowed as u64);
            }
        }
    }

    /// Cut over-entitled tenants' lease limits toward their entitlement
    /// when queued work is starved. No attempt is killed: the lease
    /// simply stops re-admitting work, and `harvest` reclaims each slot
    /// as it drains. Overage is measured against current *targets* (not
    /// grants), so a repeated pass is idempotent — the first cut
    /// already brought the tenant's targets to its entitlement and a
    /// slow drain doesn't provoke deeper cuts. Returns whether anything
    /// was cut (the caller reruns harvest/dispatch to pick up slots
    /// that drained instantly).
    fn shrink(&self, st: &mut SvcState) -> bool {
        // Only shrink for demand that dispatch could actually serve: a
        // queued job whose tenant still has quota room. Shrinking for
        // quota-blocked work would just churn (grow hands the slots
        // straight back).
        let starved = st.free == 0
            && st
                .rt
                .values()
                .any(|t| t.queued > 0 && t.inflight < t.max_inflight);
        if !starved {
            return false;
        }
        // Each tenant's targets beyond its active entitlement.
        let ents = self.active_entitlements(st);
        let mut over: BTreeMap<String, usize> = BTreeMap::new();
        for job in &st.running {
            *over.entry(job.shared.tenant.clone()).or_default() += job.target;
        }
        for (name, o) in over.iter_mut() {
            *o = o.saturating_sub(ents.get(name).copied().unwrap_or(0));
        }
        let mut cut_any = false;
        for job in st.running.iter_mut() {
            let Some(o) = over.get_mut(&job.shared.tenant) else {
                continue;
            };
            if *o == 0 {
                continue;
            }
            // Never cut a running job below one slot — that would
            // stall it forever (the engine's waves need at least one
            // admitted attempt to make progress).
            let cut = (*o).min(job.target.saturating_sub(1));
            if cut > 0 {
                job.target -= cut;
                job.lease.set_limit(job.target);
                *o -= cut;
                cut_any = true;
            }
        }
        cut_any
    }

    /// Start the queued job at `idx` with `grant` slots.
    fn dispatch(self: &Arc<Self>, st: &mut SvcState, idx: usize, grant: usize) {
        let q = st.queued.remove(idx);
        let tenant = q.shared.tenant.clone();
        let SvcState {
            rt,
            free,
            dispatch_seq,
            ..
        } = st;
        let t = rt.get_mut(&tenant).expect("tenant present");
        t.queued -= 1;
        *dispatch_seq += 1;
        q.shared.dispatch_seq.store(*dispatch_seq, Ordering::SeqCst);

        let waited = q.enqueued.elapsed().as_nanos() as u64;
        self.registry.histogram(keys::QUEUE_WAIT_NANOS).record(waited);
        self.registry
            .histogram(&format!("{}.{}", keys::QUEUE_WAIT_NANOS, tenant))
            .record(waited);

        let ent = self.configured.get(&tenant).copied().unwrap_or(0);
        let borrowed = sched::borrowed_delta(t.inflight, grant, ent);
        t.inflight += grant;
        *free -= grant;
        self.count(keys::SLOTS_GRANTED, &tenant, grant as u64);
        if borrowed > 0 {
            self.count(keys::SLOTS_BORROWED, &tenant, borrowed as u64);
        }
        self.set_queue_gauges(st);

        let lease = SlotLease::new(grant);
        {
            // Every permit release inside the job is a scheduling
            // event: a shrunk lease drains one slot at a time, and the
            // dispatcher must notice each one.
            let weak = Arc::downgrade(self);
            lease.on_release(move || {
                if let Some(svc) = weak.upgrade() {
                    svc.lease_released();
                }
            });
        }

        q.shared.cell.lock().status = JobStatus::Running;

        st.running.push(RunningJob {
            shared: q.shared.clone(),
            lease: lease.clone(),
            granted: grant,
            target: grant,
            want: q.want,
        });
        self.spawn_runner(st, q.shared, q.work, lease);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{service, wait_until, SetOnDrop};
    use crate::service::{JobOutput, JobSpec, TenantConfig};
    use gesall_mapreduce::GesallError;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn a_tenants_jobs_dispatch_in_submission_order() {
        // One slot, held by a blocker while a's jobs queue interleaved
        // with b's: whatever order the tenants are served in, a's own
        // jobs must leave the queue first-in, first-out.
        let svc = service(1, vec![TenantConfig::new("a", 1), TenantConfig::new("b", 1)]);
        let release = Arc::new(AtomicBool::new(false));
        let _guard = SetOnDrop(release.clone());
        let r = release.clone();
        let blocker = svc
            .submit(
                "b",
                JobSpec::new("blocker", 1, move |_ctx| {
                    while !r.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(Box::new(()))
                }),
            )
            .unwrap();
        assert!(wait_until(2000, || blocker.status() == JobStatus::Running));
        let quick = |name: &str| JobSpec::new(name, 1, |_ctx| Ok(Box::new(()) as JobOutput));
        let mut a_jobs = Vec::new();
        let mut b_jobs = Vec::new();
        for i in 0..4 {
            a_jobs.push(svc.submit("a", quick(&format!("a{i}"))).unwrap());
            if i % 2 == 0 {
                b_jobs.push(svc.submit("b", quick(&format!("b{i}"))).unwrap());
            }
            a_jobs.push(svc.submit("a", quick(&format!("a{i}-bis"))).unwrap());
        }
        assert!(a_jobs.iter().all(|h| h.dispatch_seq().is_none()), "all queued behind the blocker");
        release.store(true, Ordering::SeqCst);
        for h in a_jobs.iter().chain(&b_jobs).chain([&blocker]) {
            h.wait().unwrap();
        }
        let seqs: Vec<u64> = a_jobs.iter().map(|h| h.dispatch_seq().unwrap()).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "a's jobs out of order: {seqs:?}");
        svc.shutdown();
    }

    #[test]
    fn ready_jobs_of_one_tenant_run_side_by_side() {
        use std::sync::atomic::AtomicUsize;

        // Each job blocks until both have arrived, so both complete only
        // if the scheduler put the tenant's two ready jobs on the cluster
        // at once; a serialising scheduler leaves the first to fail at
        // its deadline.
        let svc = service(4, vec![TenantConfig::new("a", 1)]);
        let arrived = Arc::new(AtomicUsize::new(0));
        let abort = Arc::new(AtomicBool::new(false));
        let _guard = SetOnDrop(abort.clone());
        let rendezvous = |name: &str| {
            let (arrived, abort) = (arrived.clone(), abort.clone());
            JobSpec::new(name, 1, move |_ctx| {
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while arrived.load(Ordering::SeqCst) < 2 {
                    if abort.load(Ordering::SeqCst) || Instant::now() > deadline {
                        return Err(GesallError::Streaming("the other job never arrived".into()));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(Box::new(()) as JobOutput)
            })
        };
        let left = svc.submit("a", rendezvous("left")).unwrap();
        let right = svc.submit("a", rendezvous("right")).unwrap();
        left.wait().unwrap();
        right.wait().unwrap();
        svc.shutdown();
    }

    #[test]
    fn elastic_borrow_then_reclaim_for_late_tenant() {
        // Tenant a's job wants the whole cluster and gets it (borrowing
        // past its 50% entitlement) while b is idle; when b submits,
        // a's lease is shrunk and b runs with reclaimed slots — without
        // killing anything of a's.
        let svc = service(
            4,
            vec![TenantConfig::new("a", 1), TenantConfig::new("b", 1)],
        );
        let stop_a = Arc::new(AtomicBool::new(false));
        let _guard = SetOnDrop(stop_a.clone());
        let sa = stop_a.clone();
        let a = svc
            .submit(
                "a",
                JobSpec::new("wide", 4, move |ctx| {
                    // Hold permits like engine workers would: acquire up
                    // to the limit, drop + reacquire so shrinks drain.
                    let mut held = Vec::new();
                    while !sa.load(Ordering::SeqCst) {
                        while let Some(p) = ctx.lease().try_acquire() {
                            held.push(p);
                        }
                        let limit = ctx.lease().limit();
                        while held.len() > limit {
                            held.pop();
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(Box::new(()))
                }),
            )
            .unwrap();
        let m = svc.metrics();
        let a_running = wait_until(2000, || a.status() == JobStatus::Running);
        // Half the cluster is a's configured entitlement (equal shares);
        // its 4-slot grant borrows b's idle half.
        let borrowed = wait_until(2000, || m.counter("jobsvc.slots.borrowed.a").get() >= 2);
        let b = svc
            .submit("b", JobSpec::new("late", 2, |_ctx| Ok(Box::new(()))))
            .unwrap();
        let b_result = b.wait();
        // Stop a before asserting anything, so a failed expectation
        // can't hang the draining shutdown.
        stop_a.store(true, Ordering::SeqCst);
        let a_result = a.wait();
        assert!(a_running);
        assert!(borrowed, "a never borrowed b's idle share");
        b_result.unwrap();
        a_result.unwrap();
        assert!(
            m.counter(keys::SLOTS_RECLAIMED).get() >= 1,
            "b ran on slots reclaimed from a's shrunk lease"
        );
        svc.shutdown();
    }

    /// Drops a service's test hooks (and the channel ends they hold) even
    /// if the test panics first, so a job blocked on them can finish.
    struct ClearHooksOnDrop(Arc<Svc>);
    impl Drop for ClearHooksOnDrop {
        fn drop(&mut self) {
            self.0.test_hooks.before_park.lock().take();
            self.0.test_hooks.before_sync.lock().take();
        }
    }

    #[test]
    fn a_permit_released_between_pass_and_park_wakes_the_dispatcher() {
        // The lost-wakeup window, made deterministic. b's submission
        // makes the dispatcher cut a's lease from 2 slots to 1 while a
        // holds both permits. Between that pass and its park, the
        // `before_park` hook has a's job drop one permit, and waits until
        // the releasing thread is about to synchronise with the
        // dispatcher (`before_sync`) — or, if the lease hook only
        // notified, until the release is over, its notify already spent.
        // Only another pass can hand the slot to b, so b runs only if
        // that release woke the parked dispatcher.
        use std::sync::mpsc;
        let svc = service(2, vec![TenantConfig::new("a", 1), TenantConfig::new("b", 1)]);
        let _hooks = ClearHooksOnDrop(svc.svc.clone());
        let (sync_tx, sync_rx) = mpsc::channel::<&str>();
        // a's job drops one permit per `false` and stops on `true`, or
        // once every sender is gone.
        let (cmd_tx, cmd_rx) = mpsc::channel::<bool>();
        let (held_tx, held_rx) = mpsc::channel();
        let released_tx = sync_tx.clone();
        let a = svc
            .submit(
                "a",
                JobSpec::new("wide", 2, move |ctx| {
                    let mut held: Vec<_> = std::iter::from_fn(|| ctx.lease().try_acquire()).collect();
                    held_tx.send(held.len()).unwrap();
                    while let Ok(false) = cmd_rx.recv() {
                        held.pop();
                        let _ = released_tx.send("released");
                    }
                    Ok(Box::new(()))
                }),
            )
            .unwrap();
        let wait = Duration::from_secs(10);
        assert_eq!(held_rx.recv_timeout(wait), Ok(2));

        let hooks = &svc.svc.test_hooks;
        let sync_tx = parking_lot::Mutex::new(sync_tx);
        *hooks.before_sync.lock() = Some(Box::new(move || {
            let _ = sync_tx.lock().send("syncing");
        }));
        let mut release = Some(cmd_tx.clone());
        *hooks.before_park.lock() = Some(Box::new(move |st: &SvcState| {
            if st.running.iter().any(|j| j.lease.active() > j.target) {
                if let Some(release) = release.take() {
                    release.send(false).unwrap();
                    let _ = sync_rx.recv();
                }
            }
        }));
        let (ran_tx, ran_rx) = mpsc::channel();
        let b = svc
            .submit(
                "b",
                JobSpec::new("late", 1, move |_ctx| {
                    ran_tx.send(()).unwrap();
                    Ok(Box::new(()))
                }),
            )
            .unwrap();
        let b_ran = ran_rx.recv_timeout(wait);
        // Stop a before asserting anything: its last permit's release is
        // a fresh wakeup, so a failing run still drains.
        cmd_tx.send(true).unwrap();
        let (a_result, b_result) = (a.wait(), b.wait());
        assert!(b_ran.is_ok(), "the dispatcher slept through the release b was waiting for");
        a_result.unwrap();
        b_result.unwrap();
        assert_eq!(svc.metrics().counter(keys::SLOTS_RECLAIMED).get(), 1);
        svc.shutdown();
    }
}
