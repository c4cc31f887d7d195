//! The wave scheduler: one wave of tasks over the cluster's container
//! slots.
//!
//! [`run_wave`] spawns one worker thread per slot — the engine's only
//! threads; an attempt's sort, spill, fetch and merge all run on the
//! worker that took it, inside the job's [`SlotLease`](crate::SlotLease)
//! permit. Workers pull tasks with locality preference
//! ([`pick_pending`]), run each attempt under `catch_unwind`, re-queue
//! failures with their exponential backoff charged, back stragglers up
//! with speculative attempts and, when a scheduled node death fires,
//! kill and re-queue the dead node's in-flight attempts. Committed
//! output the death took is not the wave's to recover: the job probes
//! for it after the wave.
//!
//! No decision reads a clock. An attempt's runtime, as the scheduler
//! sees it, is its charge: the slowness the [`FaultPlan`] injects into
//! it, 0 for every other attempt. An original attempt charged at most
//! [`SPECULATIVE_MIN_RUNTIME_MS`] commits at once; one charged more
//! holds its output until every original of the wave has run. The
//! threshold is then computed from all of their charges, each held task
//! over it gets one backup, and the backup wins iff the threshold plus
//! its own charge is below the original's. A slot takes a remote task
//! only when the task's preferred node is dead or has every slot
//! running, and an idle worker parks until the schedule changes. So a
//! plan without node deaths replays the same history on any cluster.

use crate::cluster::{TASK_MEMORY_MB, TASK_VCORES};
use crate::counters::{keys, Counters};
use crate::error::{panic_message, GesallError};
use crate::fault::FaultPlan;
use crate::lease::SlotLease;
use crate::job::{AttemptOutcome, TaskEvent, TaskKind};
use crate::runtime::{JobFrame, MapReduceEngine};
use gesall_telemetry::{Span, SpanId, SpanKind, Unpoisoned};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Attempts a task gets (`mapreduce.map.maxattempts`); the failure of
/// the last aborts the job.
pub const MAX_ATTEMPTS: usize = 4;

/// Backoff charged for a failed task's first retry, doubled by each
/// further failure of the same task ([`keys::BACKOFF_CHARGED_MS`]).
pub const RETRY_BACKOFF_MS: u64 = 10;

/// A held original is a straggler when its charge passes this multiple
/// of the median charge of the wave's originals: the break-even point,
/// where the overrun equals what the backup costs.
pub const SPECULATIVE_MULTIPLIER: f64 = 2.0;

/// ... and never below this charge, so micro-tasks are not pointlessly
/// backed up; an original charged at most this commits at once.
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
    let to_run: Vec<usize> =
        (0..n_tasks).filter(|&t| outputs[t].lock().unpoisoned().is_none()).collect();

    // Deaths already due (threshold 0) fire before any work starts.
    if kind == TaskKind::Map {
        if let Some(blocks) = engine.fire_due_deaths(0) {
            engine.re_replicate(&blocks);
        }
    }
    // One worker per container slot of each live node; the first live
    // node gets one even if no container fits, so a wave always runs.
    let n_nodes = engine.cluster().n_nodes();
    let mut slots: Vec<usize> = (0..n_nodes)
        .map(|node| match engine.is_dead(node) {
            true => 0,
            false => engine.cluster().slots_on(node, TASK_VCORES, TASK_MEMORY_MB),
        })
        .collect();
    if let Some(first) = (0..n_nodes).find(|&node| !engine.is_dead(node)) {
        slots[first] = slots[first].max(1);
    }

    let prior = frame.events.lock().unpoisoned();
    let state = Mutex::new(WaveState {
        pending: to_run.iter().map(|&task| Pending { task, speculative: false }).collect(),
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
            })
            .collect(),
        slots: slots.clone(),
        remaining: to_run.len(),
        charges: Vec::new(),
        held: (0..n_tasks).map(|_| None).collect(),
        threshold: 0.0,
        total_commits: 0,
        fatal: None,
        epoch: 0,
    });
    drop(prior);
    let idle = Condvar::new();
    let wave = WaveCtx {
        engine,
        kind,
        frame,
        wave_span: wave_span.id,
        n_run: to_run.len(),
        state: &state,
        idle: &idle,
        outputs,
        inputs_survive,
    };

    let panicked = std::thread::scope(|s| {
        let workers: Vec<_> = (0..n_nodes)
            .flat_map(|node| (0..slots[node]).map(move |_| node))
            .map(|node| {
                let (wave, body) = (&wave, &body);
                s.spawn(move || wave.worker_loop(node, body))
            })
            .collect();
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

/// A queued attempt: a task's next original, or the backup of a held one.
struct Pending {
    task: usize,
    speculative: bool,
}

/// The placement decision: the index in `pending` of the task a free
/// slot on `node` should take. A task that prefers `node` (or has no
/// preference) always wins; a task preferring another node is taken
/// only when `remote_ok` says so of that node (delay scheduling: it is
/// dead, or every slot it has is running an attempt).
fn pick_pending(
    pending: &[Pending],
    tasks: &[TaskState],
    node: usize,
    remote_ok: impl Fn(usize) -> bool,
) -> Option<usize> {
    let preferred = |p: &Pending| tasks[p.task].preferred;
    pending
        .iter()
        .position(|p| preferred(p).is_none_or(|pref| pref == node))
        .or_else(|| pending.iter().position(|p| preferred(p).is_some_and(&remote_ok)))
}

struct TaskState {
    preferred: Option<usize>,
    failures: usize,
    next_attempt: usize,
}

struct RunningAttempt {
    task: usize,
    attempt: usize,
    node: usize,
}

/// An attempt that ran to the end: its output, its counter bag and its
/// history record, not yet committed.
struct Finished<T> {
    value: T,
    bag: Counters,
    event: TaskEvent,
    /// Injected slowness charged to the attempt, in ms.
    charge: f64,
}

struct WaveState<T> {
    pending: Vec<Pending>,
    running: Vec<RunningAttempt>,
    tasks: Vec<TaskState>,
    /// Worker threads per node, started or not: the node's slots.
    slots: Vec<usize>,
    /// Tasks without a committed output.
    remaining: usize,
    /// The charge of every original that has run, one per task.
    charges: Vec<f64>,
    /// Originals charged over [`SPECULATIVE_MIN_RUNTIME_MS`], held for
    /// the speculation decision, by task.
    held: Vec<Option<Finished<T>>>,
    /// The speculation threshold, once every original has run.
    threshold: f64,
    /// Successful commits in this wave (monotone; re-runs recount).
    total_commits: usize,
    fatal: Option<GesallError>,
    /// Moves on every schedule change an idle worker could act on.
    epoch: u64,
}

impl<T> WaveState<T> {
    /// Whether `node` has every slot running an attempt.
    fn saturated(&self, node: usize) -> bool {
        let busy = self.running.iter().filter(|r| r.node == node).count();
        busy >= self.slots.get(node).copied().unwrap_or(0)
    }
}

#[derive(Clone, Copy)]
struct Assignment {
    task: usize,
    attempt: usize,
    speculative: bool,
    data_local: bool,
}

enum Acquired {
    Got(Assignment),
    /// Nothing to run now: park until the epoch moves past this one.
    Idle(u64),
    Exit,
}

struct WaveCtx<'a, T> {
    engine: &'a MapReduceEngine,
    kind: TaskKind,
    /// The job this wave belongs to: its config, counters, event log and clock.
    frame: &'a JobFrame,
    wave_span: SpanId,
    /// Tasks this wave runs: the originals the speculation decision
    /// waits for.
    n_run: usize,
    state: &'a Mutex<WaveState<T>>,
    /// Notified whenever the epoch moves; see [`WaveCtx::park`].
    idle: &'a Condvar,
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
        loop {
            // The job's slot lease gates admission to *work*, not the
            // worker threads themselves: a saturated lease parks the
            // worker until a running attempt releases its permit or the
            // grant grows. Shrinking the grant therefore reclaims slots
            // preemption-free — in-flight attempts finish, new ones
            // simply don't start.
            let permit = self.frame.config.slot_lease.as_ref().map(SlotLease::acquire);
            match self.acquire(node) {
                Acquired::Exit => break,
                Acquired::Got(a) => self.run_attempt(node, a, body),
                Acquired::Idle(epoch) => {
                    // An idle worker holds no permit — a parked thread
                    // is not an occupied container slot.
                    drop(permit);
                    self.park(epoch);
                }
            }
        }
    }

    /// Park until the schedule changes after `seen`: no timeout, since
    /// nothing but a change can give an idle worker work or send it
    /// home. Each return counts in [`keys::SCHED_WAKEUPS`].
    fn park(&self, seen: u64) {
        let mut st = self.state.lock().unpoisoned();
        while st.epoch == seen {
            st = self.idle.wait(st).unpoisoned();
        }
        self.frame.counters.add(keys::SCHED_WAKEUPS, 1);
    }

    /// Move the epoch and wake every parked worker.
    fn changed(&self, st: &mut WaveState<T>) {
        st.epoch += 1;
        self.idle.notify_all();
    }

    /// Pick work for `node`: a local pending task first, then a remote
    /// one whose preferred node cannot take it.
    fn acquire(&self, node: usize) -> Acquired {
        let mut st = self.state.lock().unpoisoned();
        if st.fatal.is_some() || st.remaining == 0 {
            return Acquired::Exit;
        }
        if self.engine.is_dead(node) {
            // The death may have fired in another job's wave, unseen
            // here: the node's tasks are everyone's from now on.
            self.changed(&mut st);
            return Acquired::Exit;
        }
        let remote_ok = |pref: usize| self.engine.is_dead(pref) || st.saturated(pref);
        let Some(pos) = pick_pending(&st.pending, &st.tasks, node, remote_ok) else {
            return Acquired::Idle(st.epoch);
        };
        let Pending { task, speculative } = st.pending.remove(pos);
        let ts = &mut st.tasks[task];
        let attempt = ts.next_attempt;
        ts.next_attempt += 1;
        let data_local = ts.preferred.is_none_or(|pref| pref == node);
        st.running.push(RunningAttempt { task, attempt, node });
        // A node with every slot running lets the other nodes' workers
        // take the tasks still queued for it.
        if !st.pending.is_empty() && st.saturated(node) {
            self.changed(&mut st);
        }
        Acquired::Got(Assignment {
            task,
            attempt,
            speculative,
            data_local,
        })
    }

    fn run_attempt<F>(&self, node: usize, a: Assignment, body: &F)
    where
        F: Fn(&AttemptCtx<'_>) -> T + Send + Sync,
    {
        let start_ms = self.now_ms();
        let plan = &self.engine.fault_plan;
        let charge = plan.slowdown_ms(self.kind, a.task, a.attempt).unwrap_or(0) as f64;
        let bag = Counters::new();
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
        st.running.retain(|r| (r.task, r.attempt) != (a.task, a.attempt));
        if st.fatal.is_some() {
            return; // Job already failed; drop silently.
        }
        // Every attempt leaves both a TaskEvent (the determinism
        // contract) and, when tracing is on, a TaskAttempt span.
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
        // Blocks the commits below left under-replicated, re-replicated
        // once the lock is released.
        let mut blocks = Vec::new();
        match result {
            Ok(value) => {
                let ran = Finished {
                    value,
                    bag,
                    event: event(AttemptOutcome::Succeeded, None),
                    charge,
                };
                let lost = self.engine.is_dead(node);
                if a.speculative {
                    // The race is decided on charges: the backup started
                    // once the threshold had passed, so it finishes first
                    // iff threshold + its charge is below the original's.
                    // A backup whose node died loses.
                    let held = st.held[a.task].take().expect("a backup races a held original");
                    let backup_wins = !lost && st.threshold + ran.charge < held.charge;
                    let (winner, loser) = if backup_wins { (ran, held) } else { (held, ran) };
                    self.frame.counters.add(keys::SPECULATIVE_WASTED, 1);
                    self.log(TaskEvent { outcome: AttemptOutcome::Killed, ..loser.event }, &loser.bag);
                    blocks = self.commit(&mut st, a.task, winner);
                } else if lost {
                    // The node died while this attempt ran; its local
                    // output is gone. Re-queue the task.
                    self.log(TaskEvent { outcome: AttemptOutcome::Killed, ..ran.event }, &ran.bag);
                    st.pending.push(Pending { task: a.task, speculative: false });
                    self.changed(&mut st);
                } else {
                    st.charges.push(ran.charge);
                    if ran.charge <= SPECULATIVE_MIN_RUNTIME_MS {
                        blocks = self.commit(&mut st, a.task, ran);
                    } else {
                        st.held[a.task] = Some(ran);
                    }
                    if st.charges.len() == self.n_run {
                        blocks.extend(self.decide(&mut st));
                    }
                }
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                self.log(event(AttemptOutcome::Failed, Some(msg.clone())), &bag);
                if a.speculative {
                    // The held original stands; a failed backup is moot
                    // and does not count against the task.
                    let held = st.held[a.task].take().expect("a backup races a held original");
                    blocks = self.commit(&mut st, a.task, held);
                } else {
                    self.frame.counters.add(keys::FAILED_ATTEMPTS, 1);
                    st.tasks[a.task].failures += 1;
                    let failures = st.tasks[a.task].failures;
                    // A reducer whose inputs died with a node fails on
                    // every retry: end the wave now and let the job
                    // re-run the maps.
                    let inputs_lost = self.inputs_survive.is_some_and(|check| !check());
                    if failures >= MAX_ATTEMPTS || inputs_lost {
                        st.fatal = Some(GesallError::TaskFailed {
                            kind: self.kind,
                            task_id: a.task,
                            attempts: failures,
                            last_error: msg,
                        });
                    } else {
                        // The retry queues at once; the pause before it
                        // is charged, not waited.
                        let backoff = RETRY_BACKOFF_MS << (failures - 1);
                        self.frame.counters.add(keys::BACKOFF_CHARGED_MS, backoff);
                        st.pending.push(Pending { task: a.task, speculative: false });
                    }
                    self.changed(&mut st);
                }
            }
        }
        drop(st);
        self.engine.re_replicate(&blocks);
    }

    /// Every original of the wave has run: compute the threshold from
    /// all of their charges, commit each held output under it, and
    /// queue one backup for each held task over it.
    fn decide(&self, st: &mut WaveState<T>) -> Vec<u64> {
        let mut sorted = st.charges.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        st.threshold = (SPECULATIVE_MULTIPLIER * median).max(SPECULATIVE_MIN_RUNTIME_MS);
        let mut blocks = Vec::new();
        for task in 0..st.held.len() {
            match st.held[task].take() {
                Some(held) if held.charge > st.threshold => {
                    st.held[task] = Some(held);
                    st.pending.push(Pending { task, speculative: true });
                    self.frame.counters.add(keys::SPECULATIVE_LAUNCHED, 1);
                }
                Some(held) => blocks.extend(self.commit(st, task, held)),
                None => {}
            }
        }
        if !st.pending.is_empty() {
            self.changed(st);
        }
        blocks
    }

    /// Make `ran` the task's output: count the commit, merge the
    /// attempt's bag, log it, and fire the node deaths the commit makes
    /// due. Returns the blocks those deaths left under-replicated.
    fn commit(&self, st: &mut WaveState<T>, task: usize, ran: Finished<T>) -> Vec<u64> {
        *self.outputs[task].lock().unpoisoned() = Some(ran.value);
        st.remaining -= 1;
        st.total_commits += 1;
        self.frame.counters.merge(&ran.bag);
        self.log(ran.event, &ran.bag);
        let deaths = match self.kind {
            TaskKind::Map => self.engine.fire_due_deaths(st.total_commits),
            TaskKind::Reduce => None,
        };
        // The wave's end, and a death (it sends the node's workers home
        // and frees its tasks to others), are changes idle workers act on.
        if deaths.is_some() || st.remaining == 0 {
            self.changed(st);
        }
        deaths.unwrap_or_default()
    }

    /// Record one finished attempt: its TaskEvent and its span.
    fn log(&self, e: TaskEvent, bag: &Counters) {
        self.record_attempt_span(&e, bag);
        self.frame.events.lock().unpoisoned().push(e);
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
            metrics: bag.counter_snapshot(),
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
        // preferring node i.
        let tasks: Vec<TaskState> = (0..4)
            .map(|t| TaskState {
                preferred: Some(t),
                failures: 0,
                next_attempt: 0,
            })
            .collect();
        let pending = |ids: &[usize]| -> Vec<Pending> {
            ids.iter().map(|&task| Pending { task, speculative: false }).collect()
        };
        let all = pending(&[0, 1, 2, 3]);
        for node in 0..4 {
            // A free slot takes its node's own task, wherever it queues,
            // whatever the other nodes' state.
            for remote_ok in [false, true] {
                let pos = pick_pending(&all, &tasks, node, |_| remote_ok);
                assert_eq!(pos.map(|p| all[p].task), Some(node));
            }
        }
        // With its local task gone a slot leaves the others to nodes
        // that can run them, and steals the first one whose node cannot.
        let remote_only = pending(&[1, 2, 3]);
        assert_eq!(pick_pending(&remote_only, &tasks, 0, |_| false), None);
        assert_eq!(pick_pending(&remote_only, &tasks, 0, |pref| pref == 2), Some(1));

        // The state behind `remote_ok`: a node is saturated when every
        // one of its slots runs an attempt, and a node without slots
        // always is.
        let mut st = WaveState::<()> {
            pending: Vec::new(),
            running: Vec::new(),
            tasks: Vec::new(),
            slots: vec![2, 0],
            remaining: 0,
            charges: Vec::new(),
            held: Vec::new(),
            threshold: 0.0,
            total_commits: 0,
            fatal: None,
            epoch: 0,
        };
        assert!(!st.saturated(0) && st.saturated(1) && st.saturated(7));
        for attempt in 0..2 {
            st.running.push(RunningAttempt { task: 0, attempt, node: 0 });
        }
        assert!(st.saturated(0));

        // End to end: an attempt is flagged data-local exactly when it
        // ran on its split's preferred node, and with a slot free on
        // every node, every attempt is.
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
            assert!(e.data_local, "{e:?}");
        }
    }
}
