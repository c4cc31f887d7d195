//! The wave scheduler: one wave of tasks over the cluster's container
//! slots.
//!
//! [`run_wave`] spawns one worker thread per slot — the engine's only
//! threads; an attempt's sort, spill, fetch and merge all run on the
//! worker that took it, inside the job's [`SlotLease`](crate::SlotLease)
//! permit. Workers pull tasks with locality preference and delay
//! scheduling ([`pick_pending`]), run each attempt under `catch_unwind`,
//! retry failures with exponential backoff, back stragglers up with
//! speculative attempts (first finisher wins) and, when a scheduled
//! node death fires, kill and re-queue the dead node's in-flight
//! attempts. Committed output the death took is not the wave's to
//! recover: the job probes for it after the wave.

use crate::cluster::{TASK_MEMORY_MB, TASK_VCORES};
use crate::counters::{keys, Counters};
use crate::error::{panic_message, GesallError};
use crate::fault::FaultPlan;
use crate::lease::LeasePermit;
use crate::job::{AttemptOutcome, TaskEvent, TaskKind};
use crate::runtime::{JobFrame, MapReduceEngine};
use gesall_telemetry::{Span, SpanId, SpanKind, Unpoisoned};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Attempts a task gets (`mapreduce.map.maxattempts`); the failure of
/// the last aborts the job.
pub const MAX_ATTEMPTS: usize = 4;

/// Delay before a failed task's first retry, doubled by each further
/// failure of the same task.
pub const RETRY_BACKOFF_MS: f64 = 10.0;

/// An attempt is a straggler once more than half of its wave has
/// committed and it has run this multiple of the median completed-attempt
/// runtime: the break-even point, where the overrun equals what the
/// backup costs.
pub const SPECULATIVE_MULTIPLIER: f64 = 2.0;

/// ... but never before it has run this long, so micro-tasks are not
/// pointlessly backed up.
pub const SPECULATIVE_MIN_RUNTIME_MS: f64 = 25.0;

/// Per-task output slots: `None` until the task's winning attempt commits.
pub(crate) type TaskOutputs<O> = Vec<Mutex<Option<O>>>;

/// A reduce wave's probe: whether every committed map's output outlived
/// the node deaths so far. A failed attempt whose inputs died ends the
/// wave at once, for the job to re-run the lost maps. Map waves take
/// none.
pub(crate) type InputsSurvive<'a> = Option<&'a (dyn Fn() -> bool + Sync)>;

/// What a task body is told about the attempt it is running as.
pub(crate) struct AttemptCtx<'a> {
    pub task: usize,
    pub attempt: usize,
    /// The node whose slot the attempt occupies.
    pub node: usize,
    /// The attempt's counter bag, merged into the job's only on commit.
    pub bag: &'a Counters,
}

/// Execute one wave of tasks with per-node container slots, attempt
/// retries, speculative backups, and scheduled node deaths. Only the tasks
/// without a committed output run, their attempts numbered on from the
/// job's earlier waves of the same kind.
pub(crate) fn run_wave<T, F>(
    engine: &MapReduceEngine,
    kind: TaskKind,
    frame: &JobFrame,
    prefs: &[Option<usize>],
    outputs: &[Mutex<Option<T>>],
    inputs_survive: InputsSurvive<'_>,
    body: F,
) -> Result<(), GesallError>
where
    T: Send,
    F: Fn(&AttemptCtx<'_>) -> T + Send + Sync,
{
    let n_tasks = prefs.len();
    let wave_name = match kind {
        TaskKind::Map => "map-wave",
        TaskKind::Reduce => "reduce-wave",
    };
    let recorder = engine.recorder();
    let wave_span = recorder.start(SpanKind::Wave, wave_name, frame.span.id);
    let done: Vec<AtomicBool> =
        outputs.iter().map(|o| AtomicBool::new(o.lock().unpoisoned().is_some())).collect();
    let to_run: Vec<usize> = (0..n_tasks).filter(|&t| !done[t].load(Ordering::SeqCst)).collect();
    let prior = frame.events.lock().unpoisoned();
    let state = Mutex::new(WaveState {
        pending: to_run
            .iter()
            .map(|&task| PendingTask {
                task,
                not_before: None,
            })
            .collect(),
        running: Vec::new(),
        tasks: (0..n_tasks)
            .map(|t| TaskState {
                preferred: prefs[t],
                failures: 0,
                next_attempt: prior
                    .iter()
                    .filter(|e| e.kind == kind && e.task_id == t)
                    .map(|e| e.attempt + 1)
                    .max()
                    .unwrap_or(0),
                backup_launched: false,
            })
            .collect(),
        remaining: to_run.len(),
        completed_ms: Vec::new(),
        total_commits: 0,
        fatal: None,
    });
    drop(prior);
    // Wakes idle workers when the schedule changes (commit, requeue,
    // fatal) instead of letting them busy-poll the state mutex.
    let idle = Condvar::new();
    let wave = WaveCtx {
        engine,
        kind,
        frame,
        wave_span: wave_span.id,
        state: &state,
        idle: &idle,
        done: &done,
        outputs,
        inputs_survive,
    };

    // Deaths already due (threshold 0) fire before any work starts.
    if kind == TaskKind::Map {
        engine.re_replicate(&engine.fire_due_deaths(0));
    }

    let panicked = std::thread::scope(|s| {
        let mut workers = Vec::new();
        let mut first_live_worker = true;
        for node in 0..engine.cluster().n_nodes() {
            if engine.is_dead(node) {
                continue;
            }
            let slots = engine.cluster().slots_on(node, TASK_VCORES, TASK_MEMORY_MB);
            let slots = slots.max(if first_live_worker { 1 } else { 0 });
            if slots > 0 {
                first_live_worker = false;
            }
            for _ in 0..slots {
                let wave = &wave;
                let body = &body;
                workers.push(s.spawn(move || wave.worker_loop(node, body)));
            }
        }
        // Join every worker: one that panicked is an error, not a re-panic.
        workers.into_iter().filter_map(|w| w.join().err()).count()
    });
    if panicked > 0 {
        return Err(GesallError::Runtime("task wave worker panicked".into()));
    }

    let st = state.into_inner().unpoisoned();
    recorder.end_with(
        wave_span,
        wave_name,
        Vec::new(),
        vec![
            ("tasks".to_string(), n_tasks as u64),
            ("commits".to_string(), st.total_commits as u64),
        ],
    );
    if let Some(fatal) = st.fatal {
        return Err(fatal);
    }
    if st.remaining > 0 {
        return Err(GesallError::NoHealthyNodes {
            pending_tasks: st.remaining,
        });
    }
    Ok(())
}

struct PendingTask {
    task: usize,
    /// Earliest time the task may be re-attempted (retry backoff).
    not_before: Option<Instant>,
}

/// The placement decision: the index in `pending` of the task a free
/// slot on `node` should take. A ready task that prefers `node` (or has
/// no preference) always wins; a task preferring another node is taken
/// only with `allow_steal` — the worker has already sat out one idle
/// beat (delay scheduling).
fn pick_pending(
    pending: &[PendingTask],
    tasks: &[TaskState],
    node: usize,
    allow_steal: bool,
    now: Instant,
) -> Option<usize> {
    let ready = |p: &PendingTask| p.not_before.is_none_or(|nb| nb <= now);
    let local = pending.iter().position(|p| {
        ready(p) && tasks[p.task].preferred.is_none_or(|pref| pref == node)
    });
    match local {
        Some(pos) => Some(pos),
        None if allow_steal => pending.iter().position(ready),
        None => None,
    }
}

struct TaskState {
    preferred: Option<usize>,
    failures: usize,
    next_attempt: usize,
    backup_launched: bool,
}

struct RunningAttempt {
    task: usize,
    attempt: usize,
    started: Instant,
    speculative: bool,
}

struct WaveState {
    pending: Vec<PendingTask>,
    running: Vec<RunningAttempt>,
    tasks: Vec<TaskState>,
    /// Tasks without a committed output.
    remaining: usize,
    /// Durations of committed attempts — the speculative baseline.
    completed_ms: Vec<f64>,
    /// Successful commits in this wave (monotone; re-runs recount).
    total_commits: usize,
    fatal: Option<GesallError>,
}

#[derive(Clone, Copy)]
struct Assignment {
    task: usize,
    attempt: usize,
    speculative: bool,
    data_local: bool,
}

/// Start the next attempt of `task` on `node`: number it, note whether
/// the slot is one the task prefers, and book it as running.
fn assign(
    st: &mut WaveState,
    task: usize,
    node: usize,
    now: Instant,
    speculative: bool,
) -> Assignment {
    let ts = &mut st.tasks[task];
    let attempt = ts.next_attempt;
    ts.next_attempt += 1;
    let data_local = ts.preferred == Some(node) || ts.preferred.is_none();
    st.running.push(RunningAttempt {
        task,
        attempt,
        started: now,
        speculative,
    });
    Assignment {
        task,
        attempt,
        speculative,
        data_local,
    }
}

enum Acquired {
    Got(Assignment),
    Idle,
    Exit,
}

/// Marker error: the job's slot lease has no free permit right now.
struct LeaseSaturated;

struct WaveCtx<'a, T> {
    engine: &'a MapReduceEngine,
    kind: TaskKind,
    /// The job this wave belongs to: its config, counters, event log and clock.
    frame: &'a JobFrame,
    wave_span: SpanId,
    state: &'a Mutex<WaveState>,
    /// Notified whenever the schedule changes; see [`WaveCtx::idle_wait`].
    idle: &'a Condvar,
    done: &'a [AtomicBool],
    outputs: &'a [Mutex<Option<T>>],
    inputs_survive: InputsSurvive<'a>,
}

impl<T> WaveCtx<'_, T> {
    fn now_ms(&self) -> f64 {
        self.frame.t0.elapsed().as_secs_f64() * 1e3
    }

    fn worker_loop<F>(&self, node: usize, body: &F)
    where
        F: Fn(&AttemptCtx<'_>) -> T + Send + Sync,
    {
        // Delay scheduling: prefer local tasks; wait one beat before
        // stealing a remote one (or launching a backup attempt). The
        // beats are condvar waits, not sleeps: a commit or requeue
        // wakes idle workers immediately, while the timeouts remain
        // as the backstop that drives the time-based machinery
        // (retry backoff expiry, straggler detection).
        let mut allow_steal = false;
        loop {
            // The job's slot lease gates admission to *work*, not the
            // worker threads themselves: a saturated lease parks the
            // worker until a running attempt releases its permit or the
            // grant grows. Shrinking the grant therefore reclaims slots
            // preemption-free — in-flight attempts finish, new ones
            // simply don't start.
            let permit = match self.lease_permit() {
                Ok(p) => p,
                Err(LeaseSaturated) => {
                    if self.wave_over(node) {
                        break;
                    }
                    self.idle_wait(Duration::from_micros(500));
                    allow_steal = true;
                    continue;
                }
            };
            match self.acquire(node, allow_steal) {
                Acquired::Exit => break,
                Acquired::Got(a) => {
                    self.run_attempt(node, a, body);
                    allow_steal = false;
                }
                Acquired::Idle => {
                    // An idle worker holds no permit — a parked thread
                    // is not an occupied container slot.
                    drop(permit);
                    self.idle_wait(Duration::from_micros(if allow_steal { 200 } else { 500 }));
                    allow_steal = true;
                }
            }
        }
    }

    /// Take a permit on the job's slot lease (`Ok(None)` for unleased
    /// jobs, which may use every spawned worker).
    fn lease_permit(&self) -> Result<Option<LeasePermit>, LeaseSaturated> {
        match &self.frame.config.slot_lease {
            None => Ok(None),
            Some(lease) => lease.try_acquire().map(Some).ok_or(LeaseSaturated),
        }
    }

    /// Whether this worker should exit instead of waiting for a permit.
    fn wave_over(&self, node: usize) -> bool {
        let st = self.state.lock().unpoisoned();
        st.fatal.is_some() || st.remaining == 0 || self.engine.is_dead(node)
    }

    /// Park on the schedule-change condvar for at most `timeout`,
    /// counting how the worker came back: a notification
    /// ([`keys::SCHED_WAKEUPS`]) means the schedule changed while we
    /// slept; a timeout ([`keys::SCHED_IDLE_TIMEOUTS`]) is the old
    /// busy-poll beat, now visible in the counters.
    fn idle_wait(&self, timeout: Duration) {
        let st = self.state.lock().unpoisoned();
        // Re-check under the lock — a notify between the failed acquire
        // and this wait must not be lost.
        if st.fatal.is_some() || st.remaining == 0 {
            return;
        }
        if self.idle.wait_timeout(st, timeout).unpoisoned().1.timed_out() {
            self.frame.counters.add(keys::SCHED_IDLE_TIMEOUTS, 1);
        } else {
            self.frame.counters.add(keys::SCHED_WAKEUPS, 1);
        }
    }

    /// Pick work for `node`. Local pending tasks first; with
    /// `allow_steal`, remote pending tasks, then speculative backups.
    fn acquire(&self, node: usize, allow_steal: bool) -> Acquired {
        let mut st = self.state.lock().unpoisoned();
        if st.fatal.is_some() || st.remaining == 0 || self.engine.is_dead(node) {
            return Acquired::Exit;
        }
        let now = Instant::now();
        if let Some(pos) = pick_pending(&st.pending, &st.tasks, node, allow_steal, now) {
            let task = st.pending.remove(pos).task;
            return Acquired::Got(assign(&mut st, task, node, now, false));
        }

        // A backup cannot be killed mid-body and the wave joins every
        // attempt it started, so one that loses its race costs a whole
        // task of slot time and wall clock. So it takes more than one
        // early finisher to call a task slow: most of the wave must
        // have committed (tasks differ in size), and the original must
        // have overrun the typical runtime by what the backup itself
        // would cost.
        let quorum = st.completed_ms.len() * 2 > st.tasks.len();
        if allow_steal && self.frame.config.speculative && quorum {
            let mut sorted = st.completed_ms.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            let threshold = (SPECULATIVE_MULTIPLIER * median).max(SPECULATIVE_MIN_RUNTIME_MS);
            let straggler = st.running.iter().position(|r| {
                !r.speculative
                    && !self.done[r.task].load(Ordering::SeqCst)
                    && !st.tasks[r.task].backup_launched
                    && r.started.elapsed().as_secs_f64() * 1e3 > threshold
            });
            if let Some(pos) = straggler {
                let task = st.running[pos].task;
                st.tasks[task].backup_launched = true;
                self.frame.counters.add(keys::SPECULATIVE_LAUNCHED, 1);
                return Acquired::Got(assign(&mut st, task, node, now, true));
            }
        }
        Acquired::Idle
    }

    fn run_attempt<F>(&self, node: usize, a: Assignment, body: &F)
    where
        F: Fn(&AttemptCtx<'_>) -> T + Send + Sync,
    {
        let start_ms = self.now_ms();

        // Injected straggler: sleep in small beats, bailing out early if
        // the task is won by another attempt or this node dies (the
        // cancellation path for speculative losers).
        if let Some(ms) = self
            .engine
            .fault_plan
            .slowdown_ms(self.kind, a.task, a.attempt)
        {
            let deadline = Instant::now() + Duration::from_millis(ms);
            while Instant::now() < deadline {
                if self.done[a.task].load(Ordering::SeqCst) || self.engine.is_dead(node) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        let bag = Counters::new();
        let plan = &self.engine.fault_plan;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if plan.should_panic(self.kind, a.task, a.attempt) {
                panic!("{}", FaultPlan::panic_message(self.kind, a.task, a.attempt));
            }
            body(&AttemptCtx {
                task: a.task,
                attempt: a.attempt,
                node,
                bag: &bag,
            })
        }));

        let end_ms = self.now_ms();
        let mut st = self.state.lock().unpoisoned();
        let started = st
            .running
            .iter()
            .position(|r| r.task == a.task && r.attempt == a.attempt)
            .map(|pos| st.running.remove(pos).started);
        if st.fatal.is_some() {
            return; // Job already failed; drop silently.
        }
        let event = |outcome: AttemptOutcome, error: Option<String>| TaskEvent {
            kind: self.kind,
            task_id: a.task,
            attempt: a.attempt,
            speculative: a.speculative,
            outcome,
            error,
            node,
            start_ms,
            end_ms,
            data_local: a.data_local,
        };
        // Every attempt leaves both a TaskEvent (the determinism
        // contract) and, when tracing is on, a TaskAttempt span.
        let log_event = |outcome: AttemptOutcome, error: Option<String>| {
            let e = event(outcome, error);
            self.record_attempt_span(&e, &bag);
            self.frame.events.lock().unpoisoned().push(e);
        };

        match result {
            Ok(value) => {
                if self.done[a.task].load(Ordering::SeqCst) {
                    // Lost the race to another attempt of the same task.
                    if st.tasks[a.task].backup_launched {
                        self.frame.counters.add(keys::SPECULATIVE_WASTED, 1);
                    }
                    log_event(AttemptOutcome::Killed, None);
                    return;
                }
                if self.engine.is_dead(node) {
                    // The node died while this attempt ran; its local
                    // output is gone. Re-queue the task.
                    log_event(AttemptOutcome::Killed, None);
                    st.pending.push(PendingTask {
                        task: a.task,
                        not_before: None,
                    });
                    drop(st);
                    self.idle.notify_all();
                    return;
                }
                *self.outputs[a.task].lock().unpoisoned() = Some(value);
                self.done[a.task].store(true, Ordering::SeqCst);
                st.remaining -= 1;
                if let Some(started) = started {
                    st.completed_ms
                        .push(started.elapsed().as_secs_f64() * 1e3);
                }
                st.total_commits += 1;
                self.frame.counters.merge(&bag);
                log_event(AttemptOutcome::Succeeded, None);
                let under_replicated = if self.kind == TaskKind::Map {
                    self.engine.fire_due_deaths(st.total_commits)
                } else {
                    Vec::new()
                };
                drop(st);
                // Wake idlers: remaining may have hit zero, a death may
                // have sent a node's workers home, and a fresh completion
                // time may arm the straggler detector.
                self.idle.notify_all();
                self.engine.re_replicate(&under_replicated);
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                if self.done[a.task].load(Ordering::SeqCst) {
                    // The task already succeeded elsewhere; this failure
                    // is moot and must not count against the task.
                    log_event(AttemptOutcome::Failed, Some(msg));
                    return;
                }
                self.frame.counters.add(keys::FAILED_ATTEMPTS, 1);
                st.tasks[a.task].failures += 1;
                let failures = st.tasks[a.task].failures;
                log_event(AttemptOutcome::Failed, Some(msg.clone()));
                // A reducer whose inputs died with a node fails on every
                // retry: end the wave now and let the job re-run the maps.
                let inputs_lost = self.inputs_survive.is_some_and(|check| !check());
                if failures >= MAX_ATTEMPTS || inputs_lost {
                    st.fatal = Some(GesallError::TaskFailed {
                        kind: self.kind,
                        task_id: a.task,
                        attempts: failures,
                        last_error: msg,
                    });
                } else {
                    let backoff = RETRY_BACKOFF_MS * (1u64 << (failures - 1)) as f64;
                    st.pending.push(PendingTask {
                        task: a.task,
                        not_before: Some(Instant::now() + Duration::from_secs_f64(backoff / 1e3)),
                    });
                }
                drop(st);
                // Wake idlers: either everyone must exit on the fatal, or
                // a retry just became schedulable (its backoff expiry is
                // covered by the wait timeout).
                self.idle.notify_all();
            }
        }
    }

    /// Emit one TaskAttempt span mirroring `e`, parented under this
    /// wave's span, with the attempt's counter bag attached as metrics.
    /// One branch on a disabled recorder, nothing else.
    fn record_attempt_span(&self, e: &TaskEvent, bag: &Counters) {
        let rec = self.engine.recorder();
        if !rec.is_enabled() {
            return;
        }
        // Event times are relative to the job's t0; shift them into the
        // recorder's epoch so spans from many jobs share one timeline.
        let offset = rec.now_ms() - self.now_ms();
        let kind = match e.kind {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        };
        rec.registry()
            .histogram(&format!("attempt.{kind}.ms"))
            .record((e.end_ms - e.start_ms).max(0.0).round() as u64);
        let mut meta = vec![
            ("node".to_string(), e.node.to_string()),
            ("outcome".to_string(), format!("{:?}", e.outcome)),
            ("speculative".to_string(), e.speculative.to_string()),
            ("data_local".to_string(), e.data_local.to_string()),
        ];
        if let Some(err) = &e.error {
            meta.push(("error".to_string(), err.clone()));
        }
        rec.record(Span {
            id: rec.fresh_id(),
            parent: self.wave_span,
            kind: SpanKind::TaskAttempt,
            name: format!("{kind}-{}.{}", e.task_id, e.attempt),
            start_ms: e.start_ms + offset,
            end_ms: e.end_ms + offset,
            meta,
            metrics: bag.snapshot(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterResources;
    use crate::runtime::{InputSplit, JobConfig};
    use crate::task::{MapContext, Mapper};

    #[test]
    fn locality_preference_honored_when_slots_free() {
        // The placement decision itself, no threads: four tasks, task i
        // preferring node i, every slot free (a single wave).
        let tasks: Vec<TaskState> = (0..4)
            .map(|t| TaskState {
                preferred: Some(t),
                failures: 0,
                next_attempt: 0,
                backup_launched: false,
            })
            .collect();
        let pending = |ids: &[usize]| -> Vec<PendingTask> {
            ids.iter()
                .map(|&task| PendingTask {
                    task,
                    not_before: None,
                })
                .collect()
        };
        let now = Instant::now();
        let all = pending(&[0, 1, 2, 3]);
        for node in 0..4 {
            // A free slot takes its node's own task, wherever it queues,
            // and stealing permission doesn't change that.
            for allow_steal in [false, true] {
                let pos = pick_pending(&all, &tasks, node, allow_steal, now);
                assert_eq!(pos.map(|p| all[p].task), Some(node));
            }
        }
        // With its local task gone a slot waits out one beat rather than
        // take a remote task, then steals the head of the queue.
        let remote_only = pending(&[1, 2, 3]);
        assert_eq!(pick_pending(&remote_only, &tasks, 0, false, now), None);
        assert_eq!(pick_pending(&remote_only, &tasks, 0, true, now), Some(0));
        // A task still inside its retry backoff is nobody's to take.
        let backing_off = vec![PendingTask {
            task: 0,
            not_before: Some(now + Duration::from_secs(60)),
        }];
        assert_eq!(pick_pending(&backing_off, &tasks, 0, true, now), None);

        // End to end, whatever the thread timing: an attempt is flagged
        // data-local exactly when it ran on its split's preferred node.
        let engine = MapReduceEngine::new(ClusterResources::uniform(4, 2, 4096));
        struct Nop;
        impl Mapper for Nop {
            type InKey = u64;
            type InValue = u64;
            type OutKey = u64;
            type OutValue = u64;
            fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>) {
                ctx.emit(*k, *v);
            }
        }
        let splits: Vec<InputSplit<u64, u64>> = (0..4)
            .map(|i| InputSplit::new(format!("s{i}"), vec![(i as u64, 0)]).at_node(i))
            .collect();
        let res = engine
            .run_map_only(JobConfig::default(), &Nop, splits)
            .unwrap();
        assert_eq!(res.events.len(), 4);
        for e in &res.events {
            assert_eq!(e.data_local, e.node == e.task_id, "{e:?}");
        }
    }
}
