//! The scheduling pass, which makes every scheduling decision. It keeps
//! no thread: it runs under `Svc::state` on the thread whose event
//! changed the schedule, before that event's call returns — a submit, a
//! job's finish, a queued job's cancel, or a [`LeasePermit`] drop inside
//! a running job (the lease's release hook), which is how a shrunk
//! lease's draining slots reach queued work without preempting any
//! running attempt. Dispatch order is therefore a function of the event
//! sequence alone.
//!
//! Each pass first joins the runner of the job that finished last, then
//! runs four phases:
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
//! `Svc::state`, then a `JobShared::cell`, then a lease's own lock. The
//! lease hook fires on a permit drop only, after the drop has released
//! the lease's lock, so it takes `state` holding nothing. It never fires
//! inside a pass: `set_limit` does not fire it, and a pass holds no
//! permit.
//!
//! [`LeasePermit`]: gesall_mapreduce::lease::LeasePermit

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gesall_mapreduce::lease::SlotLease;
use gesall_telemetry::Unpoisoned;

use super::{JobStatus, RunningJob, Svc, SvcState};
use crate::keys;
use crate::sched::{self, TenantView};

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

    /// One scheduling pass: harvest → dispatch → grow → shrink, looped
    /// to a fixpoint. The loop matters because a shrink can free
    /// capacity *immediately* (a job holding fewer permits than its
    /// grant drains without waiting), and no permit drop will announce
    /// those slots: the pass must hand them out itself.
    pub(super) fn rebalance(self: &Arc<Self>, st: &mut SvcState) {
        if let Some(runner) = st.exited.take() {
            let _ = runner.join();
        }
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

    /// Start the queued job at `idx` with `grant` slots. A runner that
    /// cannot be spawned fails the job; its slots were never charged.
    fn dispatch(self: &Arc<Self>, st: &mut SvcState, idx: usize, grant: usize) {
        let q = st.queued.remove(idx);
        let tenant = q.shared.tenant.clone();
        st.rt.get_mut(&tenant).expect("tenant present").queued -= 1;
        st.dispatch_seq += 1;
        q.shared
            .dispatch_seq
            .store(st.dispatch_seq, Ordering::SeqCst);
        self.set_queue_gauges(st);

        let waited = q.enqueued.elapsed().as_nanos() as u64;
        self.registry.histogram(keys::QUEUE_WAIT_NANOS).record(waited);
        self.registry
            .histogram(&format!("{}.{}", keys::QUEUE_WAIT_NANOS, tenant))
            .record(waited);

        let lease = SlotLease::new(grant);
        {
            // Every permit release inside the job is a scheduling
            // event: a shrunk lease drains one slot at a time, and the
            // releasing thread runs the pass that hands each one on.
            let weak = Arc::downgrade(self);
            lease.on_release(move || {
                if let Some(svc) = weak.upgrade() {
                    svc.rebalance(&mut svc.state.lock().unpoisoned());
                }
            });
        }

        q.shared.cell.lock().unpoisoned().status = JobStatus::Running;
        let runner = match self.spawn_runner(q.shared.clone(), q.work, lease.clone()) {
            Ok(runner) => runner,
            Err(e) => {
                let error = format!("cannot spawn the job's runner: {e}");
                self.conclude(&q.shared, JobStatus::Failed, None, Some(error));
                return;
            }
        };
        st.runners.push(runner);

        let t = st.rt.get_mut(&tenant).expect("tenant present");
        let ent = self.configured.get(&tenant).copied().unwrap_or(0);
        let borrowed = sched::borrowed_delta(t.inflight, grant, ent);
        t.inflight += grant;
        st.free -= grant;
        self.count(keys::SLOTS_GRANTED, &tenant, grant as u64);
        if borrowed > 0 {
            self.count(keys::SLOTS_BORROWED, &tenant, borrowed as u64);
        }
        st.running.push(RunningJob {
            shared: q.shared,
            lease,
            granted: grant,
            target: grant,
            want: q.want,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{blocker, service};
    use crate::service::{JobHandle, JobOutput, JobSpec, TenantConfig};
    use std::sync::mpsc;

    #[test]
    fn a_tenants_jobs_dispatch_in_submission_order() {
        // One slot, held by a blocker while a's jobs queue interleaved
        // with b's: whatever order the tenants are served in, a's own
        // jobs must leave the queue first-in, first-out.
        let svc = service(1, vec![TenantConfig::new("a", 1), TenantConfig::new("b", 1)]);
        let (spec, started, release) = blocker(1);
        let blocker = svc.submit("b", spec).unwrap();
        started.recv().unwrap();
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
        drop(release);
        for h in a_jobs.iter().chain(&b_jobs).chain([&blocker]) {
            h.wait().unwrap();
        }
        let seqs: Vec<u64> = a_jobs.iter().map(|h| h.dispatch_seq().unwrap()).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "a's jobs out of order: {seqs:?}");
        svc.shutdown();
    }

    #[test]
    fn ready_jobs_of_one_tenant_run_side_by_side() {
        // Each job holds its slot until released, so the second starts
        // only if the scheduler put the tenant's two ready jobs on the
        // cluster at once; a serialising scheduler leaves it queued.
        let svc = service(4, vec![TenantConfig::new("a", 1)]);
        let (left_spec, left_started, release_left) = blocker(1);
        let (right_spec, right_started, release_right) = blocker(1);
        let left = svc.submit("a", left_spec).unwrap();
        let right = svc.submit("a", right_spec).unwrap();
        // Each submit's pass ran before it returned.
        assert_eq!(
            (left.status(), right.status()),
            (JobStatus::Running, JobStatus::Running),
            "the second ready job did not start beside the first"
        );
        left_started.recv().unwrap();
        right_started.recv().unwrap();
        drop((release_left, release_right));
        left.wait().unwrap();
        right.wait().unwrap();
        svc.shutdown();
    }

    /// A job that takes every permit its lease grants, reports how many,
    /// then on each `false` from the test drops permits down to the
    /// lease's current limit and reports when the drops have returned.
    /// It stops on `true`, or once the test's sender is gone.
    fn permit_holder(slots: usize) -> (JobSpec, mpsc::Receiver<usize>, mpsc::Sender<bool>) {
        let (report_tx, report) = mpsc::channel();
        let (cmd, cmd_rx) = mpsc::channel::<bool>();
        let spec = JobSpec::new("wide", slots, move |ctx| {
            let mut held: Vec<_> = std::iter::from_fn(|| ctx.lease().try_acquire()).collect();
            let _ = report_tx.send(held.len());
            while let Ok(false) = cmd_rx.recv() {
                held.truncate(ctx.lease().limit());
                let _ = report_tx.send(held.len());
            }
            Ok(Box::new(()) as JobOutput)
        });
        (spec, report, cmd)
    }

    fn lease_limit(svc: &Svc, job: &JobHandle) -> usize {
        let st = svc.state.lock().unpoisoned();
        let running = st.running.iter().find(|r| r.shared.id == job.id());
        running.expect("job is running").lease.limit()
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
        let (spec, report, cmd) = permit_holder(4);
        let a = svc.submit("a", spec).unwrap();
        let m = svc.metrics();
        assert_eq!(report.recv(), Ok(4));
        // Half the cluster is a's configured entitlement (equal shares);
        // its 4-slot grant, counted at dispatch, borrows b's idle half.
        assert_eq!(m.counter("jobsvc.slots.borrowed.a").get(), 2);
        // b holds its slots until released, so nothing but a's drops
        // moves them.
        let (b_spec, b_started, release_b) = blocker(2);
        let b = svc.submit("b", b_spec).unwrap();
        // b's submit cut a's lease to its entitlement; a still holds all
        // four permits, so b waits for them to drain.
        assert_eq!(lease_limit(&svc.svc, &a), 2);
        assert_eq!(b.dispatch_seq(), None);
        cmd.send(false).unwrap();
        let drained = report.recv();
        // Each drop's pass ran before the drop returned: the first
        // started b on one slot, the second grew it to two.
        let b_dispatched = b.dispatch_seq();
        let b_limit = lease_limit(&svc.svc, &b);
        // Release both jobs before asserting anything, so a failed
        // expectation can't hang the draining shutdown.
        drop((cmd, release_b));
        let (a_result, b_result) = (a.wait(), b.wait());
        assert_eq!(drained, Ok(2));
        assert_eq!(
            b_dispatched,
            Some(2),
            "b ran on the slots a's drops drained"
        );
        assert_eq!(b_limit, 2);
        assert_eq!(b_started.recv(), Ok(()));
        b_result.unwrap();
        a_result.unwrap();
        assert_eq!(
            m.counter(keys::SLOTS_RECLAIMED).get(),
            2,
            "b ran on slots reclaimed from a's shrunk lease"
        );
        svc.shutdown();
    }

    #[test]
    fn the_permit_drop_that_frees_a_starved_tenants_slot_dispatches_its_job() {
        // b's submission cuts a's lease from 2 slots to 1 while a holds
        // both permits. The pass runs on the thread that drops a's
        // permit, so when that drop returns b has been dispatched: no
        // other thread has to notice the freed slot.
        let svc = service(
            2,
            vec![TenantConfig::new("a", 1), TenantConfig::new("b", 1)],
        );
        let (spec, report, cmd) = permit_holder(2);
        let a = svc.submit("a", spec).unwrap();
        assert_eq!(report.recv(), Ok(2));
        let (b_spec, b_started, release_b) = blocker(1);
        let b = svc.submit("b", b_spec).unwrap();
        assert_eq!(lease_limit(&svc.svc, &a), 1);
        let queued = (b.status(), b.dispatch_seq());
        cmd.send(false).unwrap();
        let dropped = report.recv();
        let dispatched = (b.status(), b.dispatch_seq());
        // Release both jobs before asserting anything, so a failed
        // expectation can't hang the draining shutdown.
        drop((cmd, release_b));
        let (a_result, b_result) = (a.wait(), b.wait());
        assert_eq!(queued, (JobStatus::Queued, None));
        assert_eq!(dropped, Ok(1));
        assert_eq!(dispatched, (JobStatus::Running, Some(2)));
        assert_eq!(b_started.recv(), Ok(()));
        a_result.unwrap();
        b_result.unwrap();
        assert_eq!(svc.metrics().counter(keys::SLOTS_RECLAIMED).get(), 1);
        svc.shutdown();
    }
}
