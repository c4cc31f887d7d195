//! The long-lived job service: submission API, dispatcher thread,
//! capacity scheduling over [`SlotLease`]s, admission control, and
//! live shuffle retention.
//!
//! # Architecture
//!
//! One dispatcher thread owns all scheduling decisions; it parks on a
//! condvar and is woken by submissions, job completions, cancellation,
//! and — crucially — by every [`LeasePermit`](crate::LeasePermit) drop
//! inside running jobs (the lease's `on_release` hook), which is how a
//! shrunk lease's draining slots flow to queued work without
//! preempting any running attempt.
//!
//! Each rebalance pass runs four phases under the service lock:
//!
//! 1. **harvest** — slots a shrunk lease has actually drained
//!    (`granted − max(target, active)`) return to the free pool
//!    (`jobsvc.slots.reclaimed`).
//! 2. **dispatch** — while free slots remain, [`sched::pick_tenant`]
//!    chooses the most under-share tenant with queued work; within the
//!    tenant the job with the highest accrued deficit (FIFO on ties)
//!    is started with `min(want, quota_room, free)` slots. Jobs passed
//!    over age their deficit by their tenant's share.
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
//! `Svc::state` before any `JobShared::cell`. A lease hook fired off
//! the dispatcher thread (a permit drop inside a job) takes and releases
//! `state`, holding nothing else, before it notifies; fired on the
//! dispatcher thread (`set_limit` inside a pass, `state` held) it only
//! notifies. See `Svc::lease_released`.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use gesall_core::{GesallPlatform, RunOptions};
use gesall_dfs::{Dfs, SweepReason};
use gesall_mapreduce::lease::SlotLease;
use gesall_mapreduce::{GesallError, JobConfig, TASK_MEMORY_MB, TASK_VCORES};
use gesall_telemetry::MetricsRegistry;
use parking_lot::{Condvar, Mutex};

use crate::keys;
use crate::sched::{self, TenantView};

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
#[derive(Debug, Clone)]
pub struct JobSvcConfig {
    pub tenants: Vec<TenantConfig>,
    /// Container slots the scheduler divides among tenants. Defaults to
    /// the platform cluster's slot count for the engine's task
    /// container (1 vcore, 1 GiB).
    pub total_slots: Option<usize>,
    /// How long a finished job's DFS namespace is retained for
    /// inspection before the TTL sweep deletes it. Dropping the
    /// [`JobHandle`] releases retention early.
    pub retention_ttl: Duration,
}

impl Default for JobSvcConfig {
    fn default() -> JobSvcConfig {
        JobSvcConfig {
            tenants: Vec::new(),
            total_slots: None,
            retention_ttl: Duration::from_secs(300),
        }
    }
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
    /// Accrued priority: aged by the tenant's share each rebalance pass
    /// the job sits queued, so passed-over work rises.
    deficit: u64,
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

struct Retirement {
    namespace: String,
    deadline: Instant,
}

struct SvcState {
    queued: Vec<QueuedJob>,
    running: Vec<RunningJob>,
    rt: BTreeMap<String, TenantRt>,
    free: usize,
    dispatch_seq: u64,
    retired: Vec<Retirement>,
    runners: Vec<JoinHandle<()>>,
    shutdown: bool,
}

struct Svc {
    platform: Arc<GesallPlatform>,
    total_slots: usize,
    retention_ttl: Duration,
    registry: MetricsRegistry,
    state: Mutex<SvcState>,
    wake: Condvar,
    /// Set by the dispatcher when it starts; lets a lease hook tell
    /// whether it fires inside a scheduling pass.
    dispatcher_thread: OnceLock<ThreadId>,
    #[cfg(test)]
    test_hooks: TestHooks,
}

/// Interleaving points for tests: `before_park` runs on the dispatcher
/// between a pass and its park, `state` held; `before_sync` runs on a
/// releasing thread just before its lease hook takes `state`.
#[cfg(test)]
#[derive(Default)]
struct TestHooks {
    before_park: Mutex<Option<ParkHook>>,
    before_sync: Mutex<Option<Box<dyn Fn() + Send>>>,
}

#[cfg(test)]
type ParkHook = Box<dyn FnMut(&SvcState) + Send>;

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

    /// True once [`JobHandle::cancel`] was called. Long work functions
    /// should poll this (or call [`JobCtx::checkpoint`]) between
    /// stages; the service marks the job `Cancelled` regardless of
    /// what the function returns after the flag is set.
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

/// Handle to a submitted job. Dropping it releases retention: the
/// job's DFS namespace is swept as soon as the job is finished (or
/// immediately, if it already is).
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
        self.job.cell.lock().status
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
        let mut cell = self.job.cell.lock();
        loop {
            match cell.status {
                JobStatus::Completed => return Ok(()),
                JobStatus::Cancelled => return Err(JobSvcError::Cancelled),
                JobStatus::Failed => {
                    return Err(JobSvcError::Failed(
                        cell.error.clone().unwrap_or_default(),
                    ))
                }
                JobStatus::Queued | JobStatus::Running => self.job.done.wait(&mut cell),
            }
        }
    }

    /// Take the completed job's output (once).
    pub fn take_output(&self) -> Option<JobOutput> {
        self.job.cell.lock().output.take()
    }

    /// Cancel the job. Queued jobs are removed and swept immediately;
    /// running jobs get the cooperative flag and are marked cancelled
    /// (and swept) when their work function returns. Returns `false`
    /// if the job had already finished.
    pub fn cancel(&self) -> bool {
        match self.svc.upgrade() {
            Some(svc) => svc.cancel(&self.job),
            None => false,
        }
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
    dispatcher: Option<JoinHandle<()>>,
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
        let svc = Arc::new(Svc {
            platform,
            total_slots,
            retention_ttl: config.retention_ttl,
            registry: MetricsRegistry::new(),
            state: Mutex::new(SvcState {
                queued: Vec::new(),
                running: Vec::new(),
                rt,
                free: total_slots,
                dispatch_seq: 0,
                retired: Vec::new(),
                runners: Vec::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            dispatcher_thread: OnceLock::new(),
            #[cfg(test)]
            test_hooks: TestHooks::default(),
        });
        let dispatcher = {
            let svc = svc.clone();
            std::thread::Builder::new()
                .name("jobsvc-dispatcher".into())
                .spawn(move || Svc::dispatcher(svc))
                .expect("spawn jobsvc dispatcher")
        };
        JobService {
            svc,
            dispatcher: Some(dispatcher),
        }
    }

    /// Submit a job for `tenant`. Admission control runs synchronously;
    /// on acceptance the job queues and the dispatcher picks it up by
    /// capacity order.
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

    /// Stop admitting work, drain queued + running jobs, sweep any
    /// namespaces still under retention, and join all threads.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        let Some(dispatcher) = self.dispatcher.take() else {
            return;
        };
        {
            let mut st = self.svc.state.lock();
            st.shutdown = true;
        }
        self.svc.wake.notify_all();
        let _ = dispatcher.join();
        let runners: Vec<_> = self.svc.state.lock().runners.drain(..).collect();
        for r in runners {
            let _ = r.join();
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

impl fmt::Debug for JobService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.svc.state.lock();
        f.debug_struct("JobService")
            .field("total_slots", &self.svc.total_slots)
            .field("queued", &st.queued.len())
            .field("running", &st.running.len())
            .finish()
    }
}

impl Svc {
    fn submit(self: &Arc<Self>, tenant: &str, spec: JobSpec) -> Result<JobHandle, JobSvcError> {
        let mut st = self.state.lock();
        if st.shutdown {
            return Err(JobSvcError::ShuttingDown);
        }
        if !st.rt.contains_key(tenant) {
            self.registry.counter(keys::JOBS_REJECTED).add(1);
            return Err(JobSvcError::TenantUnknown(tenant.to_string()));
        }
        let rt = st.rt.get_mut(tenant).expect("tenant present");
        if rt.queued >= rt.max_queued {
            let limit = rt.max_queued;
            drop(st);
            self.count(keys::JOBS_REJECTED, tenant, 1);
            return Err(JobSvcError::QuotaExceeded {
                tenant: tenant.to_string(),
                quota: "queued-jobs",
                limit,
            });
        }
        // YARN-style "request exceeds queue maximum": a job asking for
        // more slots than the tenant may ever hold in flight is
        // rejected at admission rather than silently truncated.
        if spec.slots.clamp(1, self.total_slots) > rt.max_inflight {
            let limit = rt.max_inflight;
            drop(st);
            self.count(keys::JOBS_REJECTED, tenant, 1);
            return Err(JobSvcError::QuotaExceeded {
                tenant: tenant.to_string(),
                quota: "inflight-slots",
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
            want: spec.slots.clamp(1, self.total_slots),
            deficit: 0,
            enqueued: Instant::now(),
            work: spec.work,
        });
        self.set_queue_gauges(&st);
        drop(st);
        self.count(keys::JOBS_ADMITTED, tenant, 1);
        self.wake.notify_all();
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

    /// Entitlements over every registered tenant — the configured fair
    /// split. Usage beyond this is *borrowed* capacity (someone else's
    /// idle share), even if nobody currently wants it back.
    fn configured_entitlements(&self, st: &SvcState) -> BTreeMap<String, usize> {
        let all: Vec<(&str, u32)> = st.rt.iter().map(|(n, t)| (n.as_str(), t.share)).collect();
        sched::entitlements(self.total_slots, &all)
    }

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

    fn dispatcher(svc: Arc<Svc>) {
        let _ = svc.dispatcher_thread.set(std::thread::current().id());
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

    fn sweep_due_retirements(&self, st: &mut SvcState) {
        let now = Instant::now();
        let mut due = Vec::new();
        st.retired.retain(|r| {
            if r.deadline <= now {
                due.push(r.namespace.clone());
                false
            } else {
                true
            }
        });
        for ns in due {
            self.sweep_or_defer(st, ns, SweepReason::Ttl);
        }
    }

    /// Sweep a retired namespace, pin-aware: files under the prefix
    /// with live CAS pins refuse deletion (a dependent stage may still
    /// be range-reading them), so instead of silently dropping the
    /// namespace from retention the sweep is re-queued on a short
    /// deadline and the dispatcher retries until the last pin is
    /// released. Everything unpinned under the prefix is swept
    /// immediately either way.
    fn sweep_or_defer(&self, st: &mut SvcState, namespace: String, reason: SweepReason) {
        let report = self.platform.dfs.sweep_prefix(&namespace, reason);
        if report.pinned_skipped > 0 {
            st.retired.push(Retirement {
                namespace,
                deadline: Instant::now() + Duration::from_millis(50),
            });
            self.wake.notify_all();
        }
    }

    /// A lease released a permit or changed its limit: wake the
    /// dispatcher to harvest. The dispatcher reads `lease.active()` under
    /// `state` and may then park with no deadline, so a bare notify
    /// landing between that read and the park would be lost — and with
    /// it the slot, until some later event. Off the dispatcher thread
    /// the hook therefore takes and releases `state` first, which orders
    /// it before the pass (which then sees the release) or after the
    /// park (which the notify then ends). On the dispatcher thread it
    /// fires from `set_limit` inside a pass with `state` held, and only
    /// notifies: `rebalance`'s fixpoint loop covers that case.
    fn lease_released(&self) {
        if self.dispatcher_thread.get() != Some(&std::thread::current().id()) {
            #[cfg(test)]
            if let Some(hook) = self.test_hooks.before_sync.lock().as_ref() {
                hook();
            }
            drop(self.state.lock());
        }
        self.wake.notify_all();
    }

    /// One scheduling pass: harvest → dispatch → grow → shrink, looped
    /// to a fixpoint. The loop matters because a shrink can free
    /// capacity *immediately* (a job holding fewer permits than its
    /// grant drains without waiting), and the dispatcher must hand
    /// those slots out in the same pass — the notify `set_limit` fires
    /// while the dispatcher itself is running would be lost.
    fn rebalance(self: &Arc<Self>, st: &mut SvcState) {
        loop {
            self.harvest(st);
            self.dispatch_queued(st);
            self.grow(st);
            if !self.shrink(st) {
                break;
            }
        }
        // Age the jobs still waiting so they out-rank later arrivals
        // from the same tenant even across quota stalls.
        let shares: BTreeMap<String, u64> = st
            .rt
            .iter()
            .map(|(n, t)| (n.clone(), t.share as u64))
            .collect();
        for q in st.queued.iter_mut() {
            q.deficit += shares.get(&q.shared.tenant).copied().unwrap_or(1);
        }
    }

    /// Dispatch queued jobs to free slots, most under-share tenant
    /// first. Each iteration dispatches exactly one job, so the loop
    /// terminates.
    fn dispatch_queued(self: &Arc<Self>, st: &mut SvcState) {
        loop {
            if st.free == 0 || st.queued.is_empty() {
                break;
            }
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
            // Within the tenant: highest deficit wins, FIFO on ties.
            let idx = st
                .queued
                .iter()
                .enumerate()
                .filter(|(_, q)| q.shared.tenant == tenant)
                .max_by(|(ia, qa), (ib, qb)| qa.deficit.cmp(&qb.deficit).then(ib.cmp(ia)))
                .map(|(i, _)| i)
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
        loop {
            if st.free == 0 {
                break;
            }
            let ents = self.configured_entitlements(st);
            // Most under-share tenant's growable job first; ties keep
            // dispatch order (earliest running entry).
            let mut best: Option<usize> = None;
            for (i, job) in st.running.iter().enumerate() {
                let t = &st.rt[&job.shared.tenant];
                if job.granted >= job.want || t.inflight >= t.max_inflight {
                    continue;
                }
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        let bj = &st.running[b];
                        let bt = &st.rt[&bj.shared.tenant];
                        let lhs = t.inflight as u64 * bt.share as u64;
                        let rhs = bt.inflight as u64 * t.share as u64;
                        if lhs < rhs {
                            best = Some(i);
                        }
                    }
                }
            }
            let Some(i) = best else { break };
            let tenant = st.running[i].shared.tenant.clone();
            let ent = ents.get(&tenant).copied().unwrap_or(0);
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
        let ents = self.active_entitlements(st);
        let mut target_sum: BTreeMap<&str, usize> = BTreeMap::new();
        for job in &st.running {
            *target_sum.entry(job.shared.tenant.as_str()).or_default() += job.target;
        }
        let mut over: BTreeMap<String, usize> = BTreeMap::new();
        for (name, sum) in target_sum {
            let ent = ents.get(name).copied().unwrap_or(0);
            let o = sum.saturating_sub(ent);
            if o > 0 {
                over.insert(name.to_string(), o);
            }
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
        let ents = self.configured_entitlements(st);
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

        let ent = ents.get(&tenant).copied().unwrap_or(0);
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

        {
            let mut cell = q.shared.cell.lock();
            cell.status = JobStatus::Running;
        }

        st.running.push(RunningJob {
            shared: q.shared.clone(),
            lease: lease.clone(),
            granted: grant,
            target: grant,
            want: q.want,
        });

        let svc = self.clone();
        let shared = q.shared.clone();
        let platform = self.platform.clone();
        let work = q.work;
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
        let mut st = self.state.lock();
        let pos = st
            .running
            .iter()
            .position(|r| Arc::ptr_eq(&r.shared, shared))
            .expect("finished job is running");
        let job = st.running.remove(pos);
        {
            let t = st.rt.get_mut(&shared.tenant).expect("tenant present");
            t.inflight -= job.granted;
        }
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
        // lives until its TTL or the handle drop.
        if cancelled {
            self.sweep_or_defer(&mut st, shared.namespace.clone(), SweepReason::Cancelled);
        } else if shared.retention_released.load(Ordering::SeqCst) {
            self.sweep_or_defer(&mut st, shared.namespace.clone(), SweepReason::Ttl);
        } else {
            st.retired.push(Retirement {
                namespace: shared.namespace.clone(),
                deadline: Instant::now() + self.retention_ttl,
            });
        }

        {
            let mut cell = shared.cell.lock();
            cell.status = status;
            cell.output = output;
            cell.error = error;
        }
        shared.done.notify_all();
        self.wake.notify_all();
    }

    fn cancel(self: &Arc<Self>, shared: &Arc<JobShared>) -> bool {
        let mut st = self.state.lock();
        if let Some(pos) = st
            .queued
            .iter()
            .position(|q| Arc::ptr_eq(&q.shared, shared))
        {
            let q = st.queued.remove(pos);
            {
                let t = st.rt.get_mut(&shared.tenant).expect("tenant present");
                t.queued -= 1;
            }
            self.set_queue_gauges(&st);
            shared.cancel.store(true, Ordering::SeqCst);
            {
                let mut cell = q.shared.cell.lock();
                cell.status = JobStatus::Cancelled;
            }
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
    /// "Now" is still pin-aware — a dropped handle must not yank a
    /// namespace out from under a dependent stage that holds live CAS
    /// pins into it; those entries stay until the pins release.
    fn release_retention(self: &Arc<Self>, shared: &Arc<JobShared>) {
        shared.retention_released.store(true, Ordering::SeqCst);
        let mut st = self.state.lock();
        if let Some(pos) = st
            .retired
            .iter()
            .position(|r| r.namespace == shared.namespace)
        {
            let r = st.retired.remove(pos);
            self.sweep_or_defer(&mut st, r.namespace, SweepReason::Ttl);
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
    use gesall_core::PlatformConfig;
    use gesall_dfs::DfsConfig;
    use gesall_mapreduce::{ClusterResources, MapReduceEngine};

    /// A service whose long TTL leaves sweeps to handle drops.
    fn service(total: usize, tenants: Vec<TenantConfig>) -> JobService {
        service_with_ttl(total, tenants, Duration::from_secs(600))
    }

    fn service_with_ttl(
        total: usize,
        tenants: Vec<TenantConfig>,
        retention_ttl: Duration,
    ) -> JobService {
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
                retention_ttl,
            },
        )
    }

    /// Releases a blocker job even if the test panics first, so
    /// `JobService`'s draining drop can't hang a failing test.
    struct SetOnDrop(Arc<AtomicBool>);
    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
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
        let release = Arc::new(AtomicBool::new(false));
        let _guard = SetOnDrop(release.clone());
        let r = release.clone();
        let blocker = svc
            .submit(
                "a",
                JobSpec::new("blocker", 1, move |_ctx| {
                    while !r.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(Box::new(()))
                }),
            )
            .unwrap();
        assert!(wait_until(2000, || blocker.status() == JobStatus::Running));
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
        release.store(true, Ordering::SeqCst);
        blocker.wait().unwrap();
        queued.wait().unwrap();
        assert_eq!(svc.metrics().counter(keys::JOBS_REJECTED).get(), 2);
        svc.shutdown();
    }

    #[test]
    fn cancel_queued_job_is_typed_and_counted() {
        let svc = service(1, vec![TenantConfig::new("a", 1)]);
        let release = Arc::new(AtomicBool::new(false));
        let _guard = SetOnDrop(release.clone());
        let r = release.clone();
        let blocker = svc
            .submit(
                "a",
                JobSpec::new("blocker", 1, move |_ctx| {
                    while !r.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(Box::new(()))
                }),
            )
            .unwrap();
        assert!(wait_until(2000, || blocker.status() == JobStatus::Running));
        let victim = svc
            .submit("a", JobSpec::new("victim", 1, |_ctx| Ok(Box::new(()))))
            .unwrap();
        assert!(victim.cancel());
        assert_eq!(victim.wait().unwrap_err(), JobSvcError::Cancelled);
        assert!(victim.dispatch_seq().is_none());
        assert_eq!(svc.metrics().counter(keys::JOBS_CANCELLED).get(), 1);
        release.store(true, Ordering::SeqCst);
        blocker.wait().unwrap();
        svc.shutdown();
    }

    fn write_scratch(ctx: &JobCtx) -> Result<JobOutput, GesallError> {
        ctx.dfs()
            .write_file(&format!("{}/scratch/part-0", ctx.namespace()), b"tmp")
            .unwrap();
        Ok(Box::new(()))
    }

    fn ttl_sweeps(dfs: &Dfs) -> u64 {
        dfs.metrics()
            .counter(gesall_dfs::metrics_keys::RETENTION_SWEPT_TTL)
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
        assert!(ttl_sweeps(&dfs) >= 1);
        svc.shutdown();
    }

    #[test]
    fn retention_sweeps_on_ttl() {
        // The handle stays live; the dispatcher's timer sweeps once the
        // service's 40ms TTL lapses.
        let svc = service_with_ttl(
            2,
            vec![TenantConfig::new("a", 1)],
            Duration::from_millis(40),
        );
        let h = svc
            .submit("a", JobSpec::new("w", 1, write_scratch))
            .unwrap();
        h.wait().unwrap();
        let ns = h.namespace().to_string();
        let dfs = svc.platform().dfs.clone();
        assert!(
            wait_until(2000, || dfs.list(&ns).is_empty()),
            "TTL sweep did not fire"
        );
        assert!(ttl_sweeps(&dfs) >= 1);
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
        assert!(
            !wait_until(100, || dfs.list(&ns).is_empty()),
            "pinned CAS entry was swept by the handle-drop release"
        );
        assert!(
            dfs.metrics()
                .counter(gesall_dfs::metrics_keys::RETENTION_PIN_SKIPS)
                .get()
                >= 1
        );
        // Pin released → the deferred retirement catches up and sweeps.
        dfs.unpin(&path);
        assert!(
            wait_until(2000, || dfs.list(&ns).is_empty()),
            "deferred sweep never fired after the pin was released"
        );
        svc.shutdown();
    }
}
