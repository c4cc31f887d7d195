//! A job's own thread and its namespace lifecycle: the runner thread
//! the scheduling pass spawns for each started job — the crate's only
//! spawned thread — [`JobCtx`] (what the job's work function sees),
//! finishing and cancelling jobs, and the
//! retention of each job's DFS namespace: it lives exactly as long as
//! the job's handle, and is swept when the job is cancelled, when the
//! handle is dropped or when the service shuts down. A file a CAS pin
//! still holds is left to the DFS, which removes it at its last unpin.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use gesall_core::{GesallPlatform, RunOptions};
use gesall_dfs::{Dfs, SweepReason};
use gesall_mapreduce::error::panic_message;
use gesall_mapreduce::lease::SlotLease;
use gesall_mapreduce::{GesallError, JobConfig};
use gesall_telemetry::Unpoisoned;

use super::{JobOutput, JobShared, JobStatus, Svc, Work};
use crate::keys;

/// Handed to each job's work function: the shared platform plus the
/// job's lease and DFS namespace, pre-wired into engine/pipeline
/// configs.
pub struct JobCtx {
    platform: Arc<GesallPlatform>,
    lease: SlotLease,
    shared: Arc<JobShared>,
}

impl JobCtx {
    pub fn platform(&self) -> &GesallPlatform {
        &self.platform
    }

    pub fn dfs(&self) -> &Dfs {
        &self.platform.dfs
    }

    /// The job's private DFS prefix (`/{tenant}/{job-id}`). Everything
    /// written under it is swept by retention.
    pub fn namespace(&self) -> &str {
        &self.shared.namespace
    }

    pub fn lease(&self) -> &SlotLease {
        &self.lease
    }

    /// True once [`JobHandle::cancel`](super::JobHandle::cancel) was
    /// called. Long work functions should poll this (or call
    /// [`JobCtx::checkpoint`]) between stages; the service marks the job
    /// `Cancelled` regardless of what the function returns after the
    /// flag is set.
    pub fn cancelled(&self) -> bool {
        self.shared.cancel.load(Ordering::SeqCst)
    }

    /// Cooperative cancellation point: errors out if the job was
    /// cancelled, so `work` can simply `ctx.checkpoint()?` between
    /// stages.
    pub fn checkpoint(&self) -> Result<(), GesallError> {
        if self.cancelled() {
            Err(GesallError::Streaming(format!(
                "job {} cancelled",
                self.shared.id
            )))
        } else {
            Ok(())
        }
    }

    /// An engine [`JobConfig`] wired to this job's slot lease and
    /// shuffle namespace (transit lands under
    /// `{namespace}/shuffle-{run}/`).
    pub fn job_config(&self, name: &str, n_reducers: usize) -> JobConfig {
        JobConfig {
            name: format!("{}-{}", self.shared.id, name),
            n_reducers,
            slot_lease: Some(self.lease.clone()),
            shuffle_namespace: Some(self.shared.namespace.clone()),
            ..JobConfig::default()
        }
    }

    /// Pipeline [`RunOptions`] carrying the same lease + namespace.
    /// The content-addressed intermediate store points at the *tenant*
    /// prefix (`/{tenant}/cas/…`), not the job's own namespace, so
    /// successive jobs of one tenant hit each other's stage cache while
    /// tenants stay isolated from each other.
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            slot_lease: Some(self.lease.clone()),
            namespace: Some(self.shared.namespace.clone()),
            cas_root: Some(format!("/{}", self.shared.tenant)),
        }
    }
}

impl Svc {
    /// Start the runner thread of a job the pass is putting on the
    /// cluster: it runs `work` under `catch_unwind`, then finishes the
    /// job.
    pub(super) fn spawn_runner(
        self: &Arc<Self>,
        shared: Arc<JobShared>,
        work: Work,
        lease: SlotLease,
    ) -> std::io::Result<JoinHandle<()>> {
        let svc = self.clone();
        let platform = self.platform.clone();
        std::thread::Builder::new()
            .name(format!("jobsvc-{}", shared.id))
            .spawn(move || {
                let ctx = JobCtx {
                    platform,
                    lease,
                    shared: shared.clone(),
                };
                let result = catch_unwind(AssertUnwindSafe(|| (work)(&ctx)));
                svc.finish_job(&shared, result);
            })
    }

    fn finish_job(
        self: &Arc<Self>,
        shared: &Arc<JobShared>,
        result: std::thread::Result<Result<JobOutput, GesallError>>,
    ) {
        let mut st = self.state.lock().unpoisoned();
        let pos = st
            .running
            .iter()
            .position(|r| Arc::ptr_eq(&r.shared, shared))
            .expect("finished job is running");
        let job = st.running.remove(pos);
        st.rt.get_mut(&shared.tenant).expect("tenant present").inflight -= job.granted;
        st.free += job.granted;

        let cancelled = shared.cancel.load(Ordering::SeqCst);
        let (status, output, error) = if cancelled {
            (JobStatus::Cancelled, None, None)
        } else {
            match result {
                Ok(Ok(out)) => (JobStatus::Completed, Some(out), None),
                Ok(Err(e)) => (JobStatus::Failed, None, Some(e.to_string())),
                Err(payload) => (JobStatus::Failed, None, Some(panic_message(&*payload))),
            }
        };
        // Retention: cancelled jobs sweep now; finished jobs whose
        // handle is already gone sweep now; otherwise the namespace
        // lives until the handle drops or the service shuts down.
        let dfs = &self.platform.dfs;
        if cancelled {
            dfs.sweep_prefix(&shared.namespace, SweepReason::Cancelled);
        } else if shared.retention_released.load(Ordering::SeqCst) {
            dfs.sweep_prefix(&shared.namespace, SweepReason::Released);
        } else {
            st.retired.push(shared.namespace.clone());
        }

        self.rebalance(&mut st);
        // After its own pass, this thread has nothing left to do but
        // return: the next pass joins it.
        let me = std::thread::current().id();
        if let Some(pos) = st.runners.iter().position(|r| r.thread().id() == me) {
            st.exited = Some(st.runners.swap_remove(pos));
        }
        // Waiters wake after the pass, so a returned `wait` has seen it.
        self.conclude(shared, status, output, error);
    }

    /// Count a job's terminal state, store its outcome and wake its
    /// waiters.
    pub(super) fn conclude(
        &self,
        shared: &JobShared,
        status: JobStatus,
        output: Option<JobOutput>,
        error: Option<String>,
    ) {
        match status {
            JobStatus::Completed => self.count(keys::JOBS_COMPLETED, &shared.tenant, 1),
            JobStatus::Cancelled => self.count(keys::JOBS_CANCELLED, &shared.tenant, 1),
            _ => self.count(keys::JOBS_FAILED, &shared.tenant, 1),
        }
        {
            let mut cell = shared.cell.lock().unpoisoned();
            cell.status = status;
            cell.output = output;
            cell.error = error;
        }
        shared.done.notify_all();
    }

    pub(super) fn cancel(self: &Arc<Self>, shared: &Arc<JobShared>) -> bool {
        let mut st = self.state.lock().unpoisoned();
        if let Some(pos) = st
            .queued
            .iter()
            .position(|q| Arc::ptr_eq(&q.shared, shared))
        {
            let q = st.queued.remove(pos);
            st.rt.get_mut(&shared.tenant).expect("tenant present").queued -= 1;
            self.set_queue_gauges(&st);
            shared.cancel.store(true, Ordering::SeqCst);
            self.platform
                .dfs
                .sweep_prefix(&shared.namespace, SweepReason::Cancelled);
            self.rebalance(&mut st);
            self.conclude(shared, JobStatus::Cancelled, None, None);
            // The work goes outside the lock: whatever it owns may take
            // `state` as it drops (a `JobHandle` does).
            drop(st);
            drop(q);
            return true;
        }
        if st.running.iter().any(|r| Arc::ptr_eq(&r.shared, shared)) {
            // Cooperative: the flag is observed by `JobCtx::cancelled`
            // / `checkpoint`; `finish_job` turns whatever the work
            // function returns into `Cancelled` and sweeps.
            shared.cancel.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Handle dropped: sweep now if the job is finished and still
    /// retained, otherwise flag it so `finish_job` sweeps immediately.
    /// A file a dependent stage still holds a CAS pin on stays until
    /// that pin's release removes it.
    pub(super) fn release_retention(&self, shared: &JobShared) {
        shared.retention_released.store(true, Ordering::SeqCst);
        let mut st = self.state.lock().unpoisoned();
        if let Some(pos) = st.retired.iter().position(|ns| *ns == shared.namespace) {
            st.retired.swap_remove(pos);
            self.platform
                .dfs
                .sweep_prefix(&shared.namespace, SweepReason::Released);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{blocker, service};
    use crate::service::{JobService, JobSpec, JobSvcError, TenantConfig};

    #[test]
    fn cancel_queued_job_is_typed_and_counted() {
        let svc = service(1, vec![TenantConfig::new("a", 1)]);
        let (spec, started, release) = blocker(1);
        let blocker = svc.submit("a", spec).unwrap();
        started.recv().unwrap();
        let victim = svc
            .submit("a", JobSpec::new("victim", 1, |_ctx| Ok(Box::new(()))))
            .unwrap();
        assert!(victim.cancel());
        assert_eq!(victim.wait().unwrap_err(), JobSvcError::Cancelled);
        assert!(victim.dispatch_seq().is_none());
        assert_eq!(svc.metrics().counter(keys::JOBS_CANCELLED).get(), 1);
        drop(release);
        blocker.wait().unwrap();
        svc.shutdown();
    }

    /// Runner handles the service holds: live runners and the one that
    /// exited last.
    fn runner_handles(svc: &JobService) -> usize {
        let st = svc.svc.state.lock().unpoisoned();
        st.runners.len() + usize::from(st.exited.is_some())
    }

    #[test]
    fn the_next_pass_joins_a_finished_jobs_runner() {
        // Jobs one after another on one service: each submit's pass
        // joins the runner of the job before, so the service never holds
        // more than the running job's handle.
        let svc = service(1, vec![TenantConfig::new("a", 1)]);
        for i in 0..20 {
            let (spec, started, release) = blocker(1);
            let h = svc.submit("a", spec).unwrap();
            assert_eq!(runner_handles(&svc), 1, "after submit {i}");
            started.recv().unwrap();
            drop(release);
            h.wait().unwrap();
        }
        svc.shutdown();
    }

    #[test]
    fn a_queued_jobs_cancel_runs_a_pass() {
        // a may hold one slot, so its second job stays queued when b's
        // job finishes. The cancel's pass joins b's runner, which no
        // other event would have done.
        let svc = service(
            2,
            vec![
                TenantConfig::new("a", 1).max_inflight_slots(1),
                TenantConfig::new("b", 1),
            ],
        );
        let (spec, started, release) = blocker(1);
        let holder = svc.submit("a", spec).unwrap();
        started.recv().unwrap();
        let victim = svc
            .submit("a", JobSpec::new("victim", 1, |_ctx| Ok(Box::new(()))))
            .unwrap();
        svc.submit("b", JobSpec::new("quick", 1, |_ctx| Ok(Box::new(()))))
            .unwrap()
            .wait()
            .unwrap();
        let before = runner_handles(&svc);
        assert!(victim.cancel());
        let after = runner_handles(&svc);
        drop(release);
        holder.wait().unwrap();
        assert_eq!((before, after), (2, 1));
        assert_eq!(victim.wait().unwrap_err(), JobSvcError::Cancelled);
        svc.shutdown();
    }

    fn write_scratch(ctx: &JobCtx) -> Result<JobOutput, GesallError> {
        ctx.dfs()
            .write_file(&format!("{}/scratch/part-0", ctx.namespace()), b"tmp")
            .unwrap();
        Ok(Box::new(()))
    }

    fn released_sweeps(dfs: &Dfs) -> u64 {
        dfs.metrics()
            .counter(gesall_dfs::metrics_keys::RETENTION_SWEPT_RELEASED)
            .get()
    }

    #[test]
    fn retention_sweeps_on_handle_drop() {
        // A finished job's namespace survives until the handle goes
        // away, then is swept immediately.
        let svc = service(2, vec![TenantConfig::new("a", 1)]);
        let h = svc
            .submit("a", JobSpec::new("w", 1, write_scratch))
            .unwrap();
        h.wait().unwrap();
        let ns = h.namespace().to_string();
        let dfs = svc.platform().dfs.clone();
        assert_eq!(dfs.list(&ns).len(), 1, "retained while handle is live");
        drop(h);
        assert!(dfs.list(&ns).is_empty(), "swept on handle drop");
        assert_eq!(released_sweeps(&dfs), 1);
        svc.shutdown();
    }

    #[test]
    fn retention_sweeps_on_shutdown() {
        // The handle outlives the service: shutdown sweeps what the
        // service still retains.
        let svc = service(2, vec![TenantConfig::new("a", 1)]);
        let h = svc
            .submit("a", JobSpec::new("w", 1, write_scratch))
            .unwrap();
        h.wait().unwrap();
        let ns = h.namespace().to_string();
        let dfs = svc.platform().dfs.clone();
        assert_eq!(dfs.list(&ns).len(), 1, "retained while handle is live");
        svc.shutdown();
        assert!(dfs.list(&ns).is_empty(), "swept at shutdown");
        assert_eq!(released_sweeps(&dfs), 1);
        drop(h);
    }

    #[test]
    fn a_file_pinned_at_shutdown_goes_at_its_last_unpin() {
        // Shutdown's sweep meets a pin: the file stays for its reader,
        // and the reader's unpin is what removes it.
        let svc = service(2, vec![TenantConfig::new("a", 1)]);
        let h = svc
            .submit("a", JobSpec::new("w", 1, write_scratch))
            .unwrap();
        h.wait().unwrap();
        let ns = h.namespace().to_string();
        let path = format!("{ns}/scratch/part-0");
        let dfs = svc.platform().dfs.clone();
        dfs.pin(&path).unwrap();
        svc.shutdown();
        assert_eq!(
            dfs.list(&ns),
            vec![path.clone()],
            "a pinned file outlives the shutdown sweep"
        );
        dfs.unpin(&path);
        assert!(dfs.list(&ns).is_empty(), "the last unpin removes the file");
        dfs.check_namespace().unwrap();
        assert_eq!(released_sweeps(&dfs), 1);
        drop(h);
    }

    #[test]
    fn pinned_cas_entries_defer_namespace_sweep() {
        // A stage's entry is a directory: its manifest and a part file.
        let svc = service(2, vec![TenantConfig::new("a", 1)]);
        let h = svc
            .submit(
                "a",
                JobSpec::new("w", 1, |ctx: &JobCtx| {
                    let entry = format!("{}/cas/0000000000000001", ctx.namespace());
                    ctx.dfs().write_file(&format!("{entry}/part-00000"), b"part").unwrap();
                    ctx.dfs().write_file(&entry, b"manifest").unwrap();
                    Ok(Box::new(()) as JobOutput)
                }),
            )
            .unwrap();
        h.wait().unwrap();
        let ns = h.namespace().to_string();
        let dfs = svc.platform().dfs.clone();
        let part = format!("{ns}/cas/0000000000000001/part-00000");
        // A dependent stage still reading the part holds a pin.
        dfs.pin(&part).unwrap();
        // Handle drop releases retention — but the pinned part must
        // survive the release sweep instead of racing the reader.
        drop(h);
        assert_eq!(
            dfs.list(&ns),
            vec![part.clone()],
            "pinned part file was swept by the handle-drop release"
        );
        assert_eq!(
            dfs.metrics()
                .counter(gesall_dfs::metrics_keys::RETENTION_PIN_SKIPS)
                .get(),
            1
        );
        // The pin's release removes the part at once.
        dfs.unpin(&part);
        assert!(
            dfs.list(&ns).is_empty(),
            "the last unpin left the part behind"
        );
        dfs.check_namespace().unwrap();
        svc.shutdown();
    }
}
