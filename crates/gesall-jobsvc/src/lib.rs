//! # gesall-jobsvc
//!
//! The multi-tenant job service: the YARN resource-manager layer the
//! paper's platform runs under, actually exercised. A long-lived
//! [`JobService`] owns a `GesallPlatform` (engine + DFS) and serves
//! many tenants concurrently:
//!
//! * **Submission API** — [`JobService::submit`]`(tenant, JobSpec) ->`
//!   [`JobHandle`] with status / wait / cancel. The service keeps no
//!   dispatcher thread and no timer: the scheduling pass runs on the
//!   thread whose submit, job finish, queued-job cancel or permit drop
//!   changed the schedule, before that call returns, so dispatch order
//!   is a function of the event sequence alone.
//! * **Capacity scheduler** — each tenant holds a configured *share* of
//!   the cluster's container slots. Idle capacity is borrowed
//!   elastically (a job may run wider than its tenant's share while
//!   nobody else wants the slots); when an under-share tenant queues
//!   work the scheduler shrinks borrowers' [`SlotLease`] grants and
//!   hands the freed slots over as running attempts drain —
//!   preemption-free reclaim. Fairness across tenants is the
//!   scheduler's pick of the most under-share tenant; within a tenant,
//!   queued jobs start in submission order (FIFO).
//! * **Admission control** — per-tenant quotas on queued jobs and
//!   in-flight container slots, rejected with typed
//!   [`JobSvcError::QuotaExceeded`] / [`JobSvcError::TenantUnknown`].
//! * **Live retention** — every job runs inside its own DFS namespace
//!   (`/{tenant}/{job}/…`, shuffle transit at
//!   `/{tenant}/{job}/shuffle-{run}/…`), which lives exactly as long as
//!   its [`JobHandle`]. The namespace is swept with `Dfs::sweep_prefix`
//!   when the job is cancelled (`dfs.retention.swept.cancelled`), when
//!   its handle is dropped, or at [`JobService::shutdown`]
//!   (`dfs.retention.swept.released`) — the runtime counterpart of the
//!   startup-only `sweep_orphans` crash sweep. A file a live CAS pin
//!   still holds goes at its last unpin, inside the DFS.
//!
//! Everything is observable through a [`MetricsRegistry`]: see [`keys`]
//! for the `jobsvc.*` counter/gauge/histogram families.
//!
//! Determinism: job identifiers are monotone per tenant (never
//! wall-clock derived), scheduling decisions break ties on integer
//! cross-products and lexicographic tenant names, and the engine
//! underneath keeps its seeded `FaultPlan` guarantees — reruns of the
//! same seed produce the same transit paths and attempt histories.

pub mod sched;
pub mod service;

pub use service::{
    JobCtx, JobHandle, JobOutput, JobService, JobSpec, JobStatus, JobSvcConfig, JobSvcError,
    TenantConfig,
};

pub use gesall_mapreduce::lease::{LeasePermit, SlotLease};
pub use gesall_telemetry::MetricsRegistry;

/// Metric names the job service maintains on its registry. Per-tenant
/// variants append `.{tenant}` to the listed name.
pub mod keys {
    /// Gauge: jobs currently queued (not yet dispatched), service-wide;
    /// `jobsvc.queue.depth.{tenant}` tracks one tenant's depth.
    pub const QUEUE_DEPTH: &str = "jobsvc.queue.depth";
    /// Histogram of submit→dispatch latency in nanoseconds;
    /// `jobsvc.queue.wait.nanos.{tenant}` is the per-tenant histogram
    /// the fairness gate reads p90 from.
    pub const QUEUE_WAIT_NANOS: &str = "jobsvc.queue.wait.nanos";
    /// Container slots granted to dispatched jobs (initial grants and
    /// elastic growth).
    pub const SLOTS_GRANTED: &str = "jobsvc.slots.granted";
    /// Slots granted beyond the receiving tenant's fair entitlement —
    /// idle capacity borrowed YARN-style.
    pub const SLOTS_BORROWED: &str = "jobsvc.slots.borrowed";
    /// Slots harvested back after a lease shrink drained — the
    /// preemption-free reclaim path.
    pub const SLOTS_RECLAIMED: &str = "jobsvc.slots.reclaimed";
    /// Jobs accepted by admission control.
    pub const JOBS_ADMITTED: &str = "jobsvc.jobs.admitted";
    /// Jobs rejected (quota or unknown tenant).
    pub const JOBS_REJECTED: &str = "jobsvc.jobs.rejected";
    /// Jobs cancelled (queued or running).
    pub const JOBS_CANCELLED: &str = "jobsvc.jobs.cancelled";
    /// Jobs that ran to successful completion.
    pub const JOBS_COMPLETED: &str = "jobsvc.jobs.completed";
    /// Jobs whose work function failed (error or panic).
    pub const JOBS_FAILED: &str = "jobsvc.jobs.failed";
}
