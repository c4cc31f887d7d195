//! Job-level errors surfaced by the fault-tolerant runtime.

use crate::job::TaskKind;
use std::fmt;

/// Why a job could not produce a result.
///
/// Task *attempts* failing is normal and handled by retry; these errors
/// mean the runtime exhausted its recovery options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GesallError {
    /// A task failed `attempts` times (the engine's
    /// [`MAX_ATTEMPTS`](crate::runtime::MAX_ATTEMPTS)),
    /// so the job was aborted. `last_error` is the panic message of the
    /// final attempt.
    TaskFailed {
        kind: TaskKind,
        task_id: usize,
        attempts: usize,
        last_error: String,
    },
    /// Every node in the cluster died while `pending_tasks` tasks still
    /// had no committed result.
    NoHealthyNodes { pending_tasks: usize },
    /// A streaming (external-program) pipeline failed: a wrapped program
    /// panicked or returned an error. The message names the program.
    Streaming(String),
    /// The runtime itself (not a task body) panicked.
    Runtime(String),
}

impl fmt::Display for GesallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GesallError::TaskFailed {
                kind,
                task_id,
                attempts,
                last_error,
            } => write!(
                f,
                "{kind:?} task {task_id} failed after {attempts} attempts: {last_error}"
            ),
            GesallError::NoHealthyNodes { pending_tasks } => write!(
                f,
                "no healthy nodes left with {pending_tasks} tasks outstanding"
            ),
            GesallError::Streaming(msg) => write!(f, "streaming pipeline failed: {msg}"),
            GesallError::Runtime(msg) => write!(f, "runtime failure: {msg}"),
        }
    }
}

impl std::error::Error for GesallError {}

/// Render a caught panic payload as a message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}
