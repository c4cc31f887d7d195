//! The long-lived job service: the submission API, admission control
//! and quotas, and the state its scheduling pass and job runners share.
//!
//! The service is three parts around one `Svc::state` mutex:
//!
//! * this module — the public types, [`JobService`] and admission:
//!   `submit` checks the tenant's quotas synchronously and queues the
//!   job, or rejects it typed;
//! * `dispatch` — the rebalance pass, which starts queued jobs and
//!   grows and shrinks their [`SlotLease`]s. It keeps no thread: it runs
//!   on whichever thread changed the schedule, before that call returns;
//! * `runner` — a job's own thread and its namespace lifecycle: finish,
//!   cancel and retention.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use gesall_core::GesallPlatform;
use gesall_dfs::SweepReason;
use gesall_mapreduce::lease::SlotLease;
use gesall_mapreduce::{GesallError, TASK_MEMORY_MB, TASK_VCORES};
use gesall_telemetry::{MetricsRegistry, Unpoisoned};

use crate::keys;
use crate::sched;

mod dispatch;
mod runner;

pub use runner::JobCtx;

/// Whatever a job's work function chooses to return; downcast it back
/// with [`JobHandle::take_output`].
pub type JobOutput = Box<dyn Any + Send>;

type Work = Box<dyn FnOnce(&JobCtx) -> Result<JobOutput, GesallError> + Send + 'static>;

/// One tenant's registration: its share of the cluster and its
/// admission quotas.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    pub name: String,
    /// Fair-share weight; entitlement is `share / Σ shares × slots`.
    pub share: u32,
    /// Max jobs waiting in the queue before submits are rejected.
    pub max_queued: usize,
    /// Max container slots the tenant's running jobs may hold at once.
    pub max_inflight_slots: usize,
}

impl TenantConfig {
    pub fn new(name: impl Into<String>, share: u32) -> TenantConfig {
        TenantConfig {
            name: name.into(),
            share: share.max(1),
            max_queued: 1024,
            // Effectively unbounded, but finite so quota arithmetic
            // can't overflow.
            max_inflight_slots: usize::MAX / 2,
        }
    }

    pub fn max_queued(mut self, n: usize) -> TenantConfig {
        self.max_queued = n;
        self
    }

    pub fn max_inflight_slots(mut self, n: usize) -> TenantConfig {
        self.max_inflight_slots = n;
        self
    }
}

/// Service-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct JobSvcConfig {
    pub tenants: Vec<TenantConfig>,
    /// Container slots the scheduler divides among tenants. Defaults to
    /// the platform cluster's slot count for the engine's task
    /// container (1 vcore, 1 GiB).
    pub total_slots: Option<usize>,
}

/// A unit of work submitted to the service.
pub struct JobSpec {
    pub name: String,
    /// Container slots the job wants (clamped to `[1, total_slots]`).
    pub slots: usize,
    work: Work,
}

impl JobSpec {
    pub fn new(
        name: impl Into<String>,
        slots: usize,
        work: impl FnOnce(&JobCtx) -> Result<JobOutput, GesallError> + Send + 'static,
    ) -> JobSpec {
        JobSpec {
            name: name.into(),
            slots,
            work: Box::new(work),
        }
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("slots", &self.slots)
            .finish_non_exhaustive()
    }
}

/// Typed submission / wait errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSvcError {
    /// Admission control rejected the submit. `quota` names which
    /// quota tripped (`"queued-jobs"` or `"inflight-slots"`).
    QuotaExceeded {
        tenant: String,
        quota: &'static str,
        limit: usize,
    },
    /// The tenant was never registered with the service.
    TenantUnknown(String),
    /// The job was cancelled before completing.
    Cancelled,
    /// The service is shutting down and no longer admits work.
    ShuttingDown,
    /// The job's work function returned an error or panicked.
    Failed(String),
}

impl fmt::Display for JobSvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobSvcError::QuotaExceeded {
                tenant,
                quota,
                limit,
            } => write!(f, "tenant {tenant} exceeded {quota} quota (limit {limit})"),
            JobSvcError::TenantUnknown(t) => write!(f, "unknown tenant {t}"),
            JobSvcError::Cancelled => write!(f, "job cancelled"),
            JobSvcError::ShuttingDown => write!(f, "job service shutting down"),
            JobSvcError::Failed(msg) => write!(f, "job failed: {msg}"),
        }
    }
}

impl std::error::Error for JobSvcError {}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    Queued,
    Running,
    Completed,
    Failed,
    Cancelled,
}

struct StatusCell {
    status: JobStatus,
    output: Option<JobOutput>,
    error: Option<String>,
}

/// State shared between a job's handle, its runner thread, and the
/// scheduler.
struct JobShared {
    id: String,
    tenant: String,
    namespace: String,
    cell: Mutex<StatusCell>,
    done: Condvar,
    cancel: AtomicBool,
    /// Set when the handle is dropped: retention is released and the
    /// namespace may be swept as soon as the job is off the cluster.
    retention_released: AtomicBool,
    /// 0 until dispatched; then the global dispatch ordinal (1-based).
    dispatch_seq: AtomicU64,
}

struct QueuedJob {
    shared: Arc<JobShared>,
    want: usize,
    enqueued: Instant,
    work: Work,
}

struct RunningJob {
    shared: Arc<JobShared>,
    lease: SlotLease,
    /// Slots currently charged to the tenant (harvest shrinks this).
    granted: usize,
    /// The lease limit the scheduler last set (grow raises, shrink cuts).
    target: usize,
    /// The job's requested width — grow never exceeds it.
    want: usize,
}

#[derive(Debug)]
struct TenantRt {
    share: u32,
    max_queued: usize,
    max_inflight: usize,
    queued: usize,
    inflight: usize,
    /// Monotonic submission counter; job ids derive from it, never
    /// from the wall clock.
    submitted: u64,
}

struct SvcState {
    queued: Vec<QueuedJob>,
    running: Vec<RunningJob>,
    rt: BTreeMap<String, TenantRt>,
    free: usize,
    dispatch_seq: u64,
    /// Namespaces of finished jobs whose handles are still live.
    retired: Vec<String>,
    /// Runner threads of jobs that have not finished.
    runners: Vec<JoinHandle<()>>,
    /// The runner of the job that finished last. It let go of `state`
    /// with nothing left to do but return; the next pass joins it.
    exited: Option<JoinHandle<()>>,
    shutdown: bool,
}

struct Svc {
    platform: Arc<GesallPlatform>,
    total_slots: usize,
    /// Entitlements over every registered tenant — the configured fair
    /// split. Usage beyond this is *borrowed* capacity (someone else's
    /// idle share), even if nobody currently wants it back.
    configured: BTreeMap<String, usize>,
    registry: MetricsRegistry,
    state: Mutex<SvcState>,
}

/// Handle to a submitted job. A finished job's DFS namespace lives
/// exactly as long as its handle: dropping it sweeps the namespace as
/// soon as the job is finished (at once, if it already is).
pub struct JobHandle {
    svc: Weak<Svc>,
    job: Arc<JobShared>,
}

impl JobHandle {
    pub fn id(&self) -> &str {
        &self.job.id
    }

    pub fn tenant(&self) -> &str {
        &self.job.tenant
    }

    pub fn namespace(&self) -> &str {
        &self.job.namespace
    }

    pub fn status(&self) -> JobStatus {
        self.job.cell.lock().unpoisoned().status
    }

    /// The global dispatch ordinal (1-based) once the scheduler has
    /// started the job; `None` while still queued.
    pub fn dispatch_seq(&self) -> Option<u64> {
        match self.job.dispatch_seq.load(Ordering::SeqCst) {
            0 => None,
            n => Some(n),
        }
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(&self) -> Result<(), JobSvcError> {
        let mut cell = self.job.cell.lock().unpoisoned();
        loop {
            match cell.status {
                JobStatus::Completed => return Ok(()),
                JobStatus::Cancelled => return Err(JobSvcError::Cancelled),
                JobStatus::Failed => {
                    return Err(JobSvcError::Failed(
                        cell.error.clone().unwrap_or_default(),
                    ))
                }
                JobStatus::Queued | JobStatus::Running => cell = self.job.done.wait(cell).unpoisoned(),
            }
        }
    }

    /// Take the completed job's output (once).
    pub fn take_output(&self) -> Option<JobOutput> {
        self.job.cell.lock().unpoisoned().output.take()
    }

    /// Cancel the job. Queued jobs are removed and swept immediately;
    /// running jobs get the cooperative flag and are marked cancelled
    /// (and swept) when their work function returns. Returns `false`
    /// if the job had already finished.
    pub fn cancel(&self) -> bool {
        self.svc.upgrade().is_some_and(|svc| svc.cancel(&self.job))
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        if let Some(svc) = self.svc.upgrade() {
            svc.release_retention(&self.job);
        }
    }
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.job.id)
            .field("status", &self.status())
            .finish()
    }
}

/// The multi-tenant job service. See the [crate docs](crate) for the
/// full contract.
pub struct JobService {
    svc: Arc<Svc>,
}

impl JobService {
    pub fn new(platform: GesallPlatform, config: JobSvcConfig) -> JobService {
        let platform = Arc::new(platform);
        let total_slots = config
            .total_slots
            .unwrap_or_else(|| platform.engine.cluster().total_slots(TASK_VCORES, TASK_MEMORY_MB))
            .max(1);
        let mut rt = BTreeMap::new();
        for t in &config.tenants {
            rt.insert(
                t.name.clone(),
                TenantRt {
                    share: t.share,
                    max_queued: t.max_queued,
                    max_inflight: t.max_inflight_slots,
                    queued: 0,
                    inflight: 0,
                    submitted: 0,
                },
            );
        }
        let shares: Vec<(&str, u32)> = rt.iter().map(|(n, t)| (n.as_str(), t.share)).collect();
        let svc = Arc::new(Svc {
            configured: sched::entitlements(total_slots, &shares),
            platform,
            total_slots,
            registry: MetricsRegistry::new(),
            state: Mutex::new(SvcState {
                queued: Vec::new(),
                running: Vec::new(),
                rt,
                free: total_slots,
                dispatch_seq: 0,
                retired: Vec::new(),
                runners: Vec::new(),
                exited: None,
                shutdown: false,
            }),
        });
        JobService { svc }
    }

    /// Submit a job for `tenant`. Admission control runs synchronously;
    /// on acceptance the job queues, and the scheduling pass that runs
    /// before this returns starts it if its tenant's turn has come.
    pub fn submit(&self, tenant: &str, spec: JobSpec) -> Result<JobHandle, JobSvcError> {
        self.svc.submit(tenant, spec)
    }

    /// The service's `jobsvc.*` / `dfs.retention.*`-adjacent metrics.
    /// (DFS retention counters live on the platform DFS's registry.)
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.svc.registry
    }

    pub fn platform(&self) -> &GesallPlatform {
        &self.svc.platform
    }

    /// Total container slots the scheduler is dividing.
    pub fn total_slots(&self) -> usize {
        self.svc.total_slots
    }

    /// Stop admitting work, drain queued + running jobs, join their
    /// threads and sweep the namespaces live handles still retain.
    /// Dropping the service does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        let svc = &self.svc;
        svc.state.lock().unpoisoned().shutdown = true;
        // A queued job always waits behind a running one, whose
        // finishing pass dispatches it; so once no runner is left, the
        // queue is empty too.
        loop {
            let mut st = svc.state.lock().unpoisoned();
            let mut runners = std::mem::take(&mut st.runners);
            runners.extend(st.exited.take());
            if runners.is_empty() {
                // The service owns these namespaces; nobody is left to
                // sweep them later. A file still pinned goes at its last
                // unpin.
                for ns in st.retired.drain(..) {
                    svc.platform.dfs.sweep_prefix(&ns, SweepReason::Released);
                }
                return;
            }
            drop(st);
            for r in runners {
                let _ = r.join();
            }
        }
    }
}

impl fmt::Debug for JobService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.svc.state.lock().unpoisoned();
        f.debug_struct("JobService")
            .field("total_slots", &self.svc.total_slots)
            .field("queued", &st.queued.len())
            .field("running", &st.running.len())
            .finish()
    }
}

impl Svc {
    fn submit(self: &Arc<Self>, tenant: &str, spec: JobSpec) -> Result<JobHandle, JobSvcError> {
        let mut st = self.state.lock().unpoisoned();
        if st.shutdown {
            return Err(JobSvcError::ShuttingDown);
        }
        let Some(rt) = st.rt.get_mut(tenant) else {
            self.registry.counter(keys::JOBS_REJECTED).add(1);
            return Err(JobSvcError::TenantUnknown(tenant.to_string()));
        };
        // The second quota is YARN's "request exceeds queue maximum": a
        // job asking for more slots than the tenant may ever hold in
        // flight is rejected at admission rather than silently truncated.
        let want = spec.slots.clamp(1, self.total_slots);
        let tripped = if rt.queued >= rt.max_queued {
            Some(("queued-jobs", rt.max_queued))
        } else if want > rt.max_inflight {
            Some(("inflight-slots", rt.max_inflight))
        } else {
            None
        };
        if let Some((quota, limit)) = tripped {
            drop(st);
            self.count(keys::JOBS_REJECTED, tenant, 1);
            return Err(JobSvcError::QuotaExceeded {
                tenant: tenant.to_string(),
                quota,
                limit,
            });
        }
        rt.submitted += 1;
        let id = format!("{}-job{:04}", tenant, rt.submitted);
        let namespace = format!("/{}/{}", tenant, id);
        let shared = Arc::new(JobShared {
            id,
            tenant: tenant.to_string(),
            namespace,
            cell: Mutex::new(StatusCell {
                status: JobStatus::Queued,
                output: None,
                error: None,
            }),
            done: Condvar::new(),
            cancel: AtomicBool::new(false),
            retention_released: AtomicBool::new(false),
            dispatch_seq: AtomicU64::new(0),
        });
        rt.queued += 1;
        st.queued.push(QueuedJob {
            shared: shared.clone(),
            want,
            enqueued: Instant::now(),
            work: spec.work,
        });
        self.set_queue_gauges(&st);
        self.count(keys::JOBS_ADMITTED, tenant, 1);
        self.rebalance(&mut st);
        drop(st);
        Ok(JobHandle {
            svc: Arc::downgrade(self),
            job: shared,
        })
    }

    /// Bump a counter in both its global and `.{tenant}` variants.
    fn count(&self, key: &str, tenant: &str, delta: u64) {
        self.registry.counter(key).add(delta);
        self.registry.counter(&format!("{key}.{tenant}")).add(delta);
    }

    fn set_queue_gauges(&self, st: &SvcState) {
        self.registry
            .gauge(keys::QUEUE_DEPTH)
            .set(st.queued.len() as i64);
        for (name, rt) in &st.rt {
            self.registry
                .gauge(&format!("{}.{}", keys::QUEUE_DEPTH, name))
                .set(rt.queued as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_core::PlatformConfig;
    use gesall_dfs::{Dfs, DfsConfig};
    use gesall_mapreduce::{ClusterResources, MapReduceEngine};
    use std::sync::mpsc;

    pub(super) fn service(total: usize, tenants: Vec<TenantConfig>) -> JobService {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 2,
            block_size: 64 * 1024,
            replication: 1,
            ..DfsConfig::default()
        });
        let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096));
        let platform = GesallPlatform::new(dfs, engine, PlatformConfig::default());
        JobService::new(
            platform,
            JobSvcConfig {
                tenants,
                total_slots: Some(total),
            },
        )
    }

    /// A job that reports its start on the returned receiver, then holds
    /// its slots until the returned sender sends or is dropped — a
    /// failing test drops it while unwinding, so the service's draining
    /// shutdown cannot hang.
    pub(super) fn blocker(slots: usize) -> (JobSpec, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let spec = JobSpec::new("blocker", slots, move |_ctx| {
            let _ = started_tx.send(());
            let _ = release_rx.recv();
            Ok(Box::new(()) as JobOutput)
        });
        (spec, started, release)
    }

    #[test]
    fn submit_wait_output_roundtrip() {
        let svc = service(4, vec![TenantConfig::new("a", 1)]);
        let h = svc
            .submit("a", JobSpec::new("answer", 2, |_ctx| Ok(Box::new(42usize))))
            .unwrap();
        h.wait().unwrap();
        assert_eq!(h.status(), JobStatus::Completed);
        let out = h.take_output().unwrap().downcast::<usize>().unwrap();
        assert_eq!(*out, 42);
        assert_eq!(h.dispatch_seq(), Some(1));
        assert_eq!(h.id(), "a-job0001");
        assert_eq!(h.namespace(), "/a/a-job0001");
        assert_eq!(svc.metrics().counter(keys::JOBS_ADMITTED).get(), 1);
        assert_eq!(svc.metrics().counter(keys::JOBS_COMPLETED).get(), 1);
        assert_eq!(svc.metrics().counter("jobsvc.jobs.completed.a").get(), 1);
        svc.shutdown();
    }

    #[test]
    fn failures_surface_typed_with_message() {
        let svc = service(2, vec![TenantConfig::new("a", 1)]);
        let err = svc
            .submit(
                "a",
                JobSpec::new("bad", 1, |_ctx| {
                    Err(GesallError::Streaming("boom".into()))
                }),
            )
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, JobSvcError::Failed(ref m) if m.contains("boom")));
        // Panics are contained and reported, not propagated.
        let err = svc
            .submit("a", JobSpec::new("panics", 1, |_ctx| panic!("kapow")))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, JobSvcError::Failed(ref m) if m.contains("kapow")));
        assert_eq!(svc.metrics().counter(keys::JOBS_FAILED).get(), 2);
        svc.shutdown();
    }

    #[test]
    fn admission_control_rejects_typed() {
        let svc = service(1, vec![TenantConfig::new("a", 1).max_queued(1)]);
        assert!(matches!(
            svc.submit("ghost", JobSpec::new("x", 1, |_ctx| Ok(Box::new(())))),
            Err(JobSvcError::TenantUnknown(_))
        ));
        let (spec, started, release) = blocker(1);
        let blocker = svc.submit("a", spec).unwrap();
        started.recv().unwrap();
        // One slot total and it's held → this queues.
        let queued = svc
            .submit("a", JobSpec::new("waits", 1, |_ctx| Ok(Box::new(()))))
            .unwrap();
        // Queue quota is 1 → the next submit is rejected, typed.
        match svc.submit("a", JobSpec::new("over", 1, |_ctx| Ok(Box::new(())))) {
            Err(JobSvcError::QuotaExceeded {
                tenant,
                quota,
                limit,
            }) => {
                assert_eq!(tenant, "a");
                assert_eq!(quota, "queued-jobs");
                assert_eq!(limit, 1);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // The rejection didn't disturb the jobs already admitted.
        drop(release);
        blocker.wait().unwrap();
        // The blocker's finish dispatched the queued job before its
        // waiters woke.
        assert!(queued.dispatch_seq().is_some());
        queued.wait().unwrap();
        assert_eq!(svc.metrics().counter(keys::JOBS_REJECTED).get(), 2);
        svc.shutdown();
    }
}
