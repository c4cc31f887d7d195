//! A job's own thread and its namespace lifecycle: the runner thread
//! the dispatcher spawns for each started job, [`JobCtx`] (what the
//! job's work function sees), finishing and cancelling jobs, and the
//! retention of each job's DFS namespace: it lives exactly as long as
//! the job's handle, and is swept when the job is cancelled, when the
//! handle is dropped or when the service shuts down. A file a CAS pin
//! still holds is left to the DFS, which removes it at its last unpin.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gesall_core::{GesallPlatform, RunOptions};
use gesall_dfs::{Dfs, SweepReason};
use gesall_mapreduce::lease::SlotLease;
use gesall_mapreduce::{GesallError, JobConfig};
use gesall_telemetry::Unpoisoned;

use super::{JobOutput, JobShared, JobStatus, Svc, SvcState, Work};
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
    /// Start the runner thread of a job the dispatcher just put on the
    /// cluster: it runs `work` under `catch_unwind`, then finishes the
    /// job.
    pub(super) fn spawn_runner(
        self: &Arc<Self>,
        st: &mut SvcState,
        shared: Arc<JobShared>,
        work: Work,
        lease: SlotLease,
    ) {
        let svc = self.clone();
        let platform = self.platform.clone();
        let runner = std::thread::Builder::new()
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
            .expect("spawn jobsvc runner");
        st.runners.push(runner);
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
                Err(payload) => (JobStatus::Failed, None, Some(panic_text(&*payload))),
            }
        };
        match status {
            JobStatus::Completed => self.count(keys::JOBS_COMPLETED, &shared.tenant, 1),
            JobStatus::Cancelled => self.count(keys::JOBS_CANCELLED, &shared.tenant, 1),
            _ => self.count(keys::JOBS_FAILED, &shared.tenant, 1),
        }

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

        {
            let mut cell = shared.cell.lock().unpoisoned();
            cell.status = status;
            cell.output = output;
            cell.error = error;
        }
        shared.done.notify_all();
        self.wake.notify_all();
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
            q.shared.cell.lock().unpoisoned().status = JobStatus::Cancelled;
            drop(st);
            self.count(keys::JOBS_CANCELLED, &shared.tenant, 1);
            self.platform
                .dfs
                .sweep_prefix(&shared.namespace, SweepReason::Cancelled);
            shared.done.notify_all();
            self.wake.notify_all();
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

fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{blocker, service};
    use crate::service::{JobSpec, JobSvcError, TenantConfig};

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
        let svc = service(2, vec![TenantConfig::new("a", 1)]);
        let h = svc
            .submit(
                "a",
                JobSpec::new("w", 1, |ctx: &JobCtx| {
                    ctx.dfs()
                        .write_file(
                            &format!("{}/cas/0000000000000001", ctx.namespace()),
                            b"entry",
                        )
                        .unwrap();
                    Ok(Box::new(()) as JobOutput)
                }),
            )
            .unwrap();
        h.wait().unwrap();
        let ns = h.namespace().to_string();
        let dfs = svc.platform().dfs.clone();
        let path = format!("{ns}/cas/0000000000000001");
        // A dependent stage still range-reading the entry holds a pin.
        dfs.pin(&path).unwrap();
        // Handle drop releases retention — but the pinned entry must
        // survive the release sweep instead of racing the reader.
        drop(h);
        assert_eq!(
            dfs.list(&ns),
            vec![path.clone()],
            "pinned CAS entry was swept by the handle-drop release"
        );
        assert_eq!(
            dfs.metrics()
                .counter(gesall_dfs::metrics_keys::RETENTION_PIN_SKIPS)
                .get(),
            1
        );
        // The pin's release removes the entry at once.
        dfs.unpin(&path);
        assert!(
            dfs.list(&ns).is_empty(),
            "the last unpin left the entry behind"
        );
        dfs.check_namespace().unwrap();
        svc.shutdown();
    }
}
