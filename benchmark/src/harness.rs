//! What every workload shares: the span recorder, the operation ledger
//! (attempted / failed, with a reason per failure), process-level
//! readings, and the scratch directory for on-disk block stores.

use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub struct Harness {
    pub workload: &'static str,
    pub seed: u64,
    /// `--seconds`: how much work the timed loop measures (see
    /// [`Harness::timed_reps`]).
    pub seconds: f64,
    pub tracer: Tracer,
    scratch: PathBuf,
    attempted: AtomicU64,
    failed: AtomicU64,
    failures: Mutex<Vec<String>>,
}

impl Harness {
    pub fn new(
        workload: &'static str,
        seed: u64,
        seconds: f64,
        trace: bool,
        out_dir: &Path,
    ) -> Harness {
        Harness {
            workload,
            seed,
            seconds,
            tracer: Tracer::new(workload, trace),
            scratch: out_dir.join(format!("tmp-{workload}-{}", std::process::id())),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Count one operation (a pipeline run, a job, a storage call). A
    /// wrong output is a failed operation: pass `ok = false` with the
    /// reason.
    pub fn op(&self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.violation(why());
        }
    }

    /// Count `n` operations that all succeeded.
    pub fn ops_ok(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// An output check that does not belong to a single operation
    /// (digests equal across reps, residue after shutdown) failed.
    pub fn violation(&self, why: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        eprintln!("[{}] FAILED: {why}", self.workload);
        self.failures.lock().expect("ledger lock").push(why);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn failures(&self) -> Vec<String> {
        self.failures.lock().expect("ledger lock").clone()
    }

    /// How many timed repetitions to run: `--seconds` over the
    /// workload's nominal repetition time on the reference box, never
    /// below `min`. A fixed count (instead of a deadline) keeps the work
    /// — and with it peak memory and the operation count — identical
    /// from run to run. Traced runs time only enough reps to put the
    /// traced one in context.
    pub fn timed_reps(&self, nominal_rep_s: f64, min: usize) -> usize {
        if self.traced() {
            return 2;
        }
        ((self.seconds / nominal_rep_s).round() as usize).max(min)
    }

    /// A fresh, empty directory under the benchmark's own output
    /// directory (inside the checkout, git-ignored).
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir inside the checkout");
        dir
    }

    pub fn remove_scratch(&self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric this run measured, end-to-end and per-layer alike;
    /// the caller selects which list to print.
    pub metrics: BTreeMap<String, f64>,
    /// Raw per-repetition samples behind the medians (for `compare`).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Digest of the workload's checked outputs.
    pub output_digest: u64,
    pub input_digest: u64,
    /// Free-form facts worth keeping next to the numbers (sizes, reps).
    pub notes: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a metric as the median of its samples, keeping the samples.
    pub fn set_median(&mut self, name: &str, samples: Vec<f64>) {
        self.set(name, stats::median(&samples));
        self.samples.insert(name.to_string(), samples);
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.insert(name.to_string(), value);
    }
}

/// What one timed unit cost, as the harness saw it from outside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    pub wall_s: f64,
    /// CPU seconds of the whole process while the unit ran.
    pub cpu_s: f64,
    /// Peak resident set while the unit ran.
    pub peak_rss_mb: f64,
}

/// Measures one timed unit: `Meter::start()` right before it, `stop()`
/// right after.
pub struct Meter {
    t0: std::time::Instant,
    cpu0: f64,
}

impl Meter {
    pub fn start() -> Meter {
        reset_peak_rss();
        Meter {
            cpu0: process_cpu_s(),
            t0: std::time::Instant::now(),
        }
    }

    pub fn stop(self) -> Unit {
        Unit {
            wall_s: self.t0.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu0,
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// The timed units of one run; `commit` turns them into the three
/// per-unit end-to-end metrics.
#[derive(Debug, Default)]
pub struct UnitSamples(Vec<Unit>);

impl UnitSamples {
    pub fn push(&mut self, unit: Unit) {
        self.0.push(unit);
    }

    pub fn walls(&self) -> Vec<f64> {
        self.0.iter().map(|u| u.wall_s).collect()
    }

    pub fn commit(&self, o: &mut Outcome) {
        o.set_median("run_wall_s", self.walls());
        o.set_median("run_cpu_s", self.0.iter().map(|u| u.cpu_s).collect());
        o.set_median(
            "peak_rss_mb",
            self.0.iter().map(|u| u.peak_rss_mb).collect(),
        );
    }
}

/// Restart the kernel's peak-RSS watermark (`VmHWM`) at the current
/// resident set, so the next [`peak_rss_mb`] reads the peak of one
/// repetition instead of the process so far. The maximum over a whole
/// process flips between allocator modes from run to run; the median of
/// per-repetition peaks does not. Where `/proc/self/clear_refs` is not
/// writable the watermark simply keeps accumulating.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has consumed: `CLOCK_PROCESS_CPUTIME_ID`, nanosecond
/// resolution. `/proc/self/stat` only offers 10 ms ticks. Like
/// [`peak_rss_mb`], Linux (64-bit) only.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the libc function std already links;
    // `ts` is a live, writable, correctly laid out `struct timespec`
    // (two 64-bit fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always readable on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_attempts_failures_and_reasons() {
        let h = Harness::new("wgs_hc", 1, 10.0, false, Path::new("."));
        h.op(true, || unreachable!());
        h.op(false, || "wrong digest".into());
        h.ops_ok(3);
        h.violation("residue".into());
        assert_eq!((h.attempted(), h.failed()), (5, 2));
        assert_eq!(
            h.failures(),
            vec!["wrong digest".to_string(), "residue".to_string()]
        );
    }

    #[test]
    fn rep_count_follows_seconds_with_a_floor() {
        let h = Harness::new("wgs_hc", 1, 10.0, false, Path::new("."));
        assert_eq!(h.timed_reps(3.4, 3), 3);
        assert_eq!(h.timed_reps(2.0, 3), 5);
        assert_eq!(h.timed_reps(60.0, 3), 3);
        let traced = Harness::new("wgs_hc", 1, 10.0, true, Path::new("."));
        assert_eq!(traced.timed_reps(2.0, 3), 2);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x ^ i);
        }
        assert!(process_cpu_s() > before, "cpu clock advances ({x})");
    }
}
