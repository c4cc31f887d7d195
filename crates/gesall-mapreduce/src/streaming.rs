//! Hadoop-Streaming analogue: running "external programs" over byte
//! pipes (paper Fig. 8).
//!
//! A wrapped C program (here: any [`ExternalProgram`] implementation,
//! e.g. the aligner posing as `bwa mem`) reads bytes from stdin and
//! writes bytes to stdout. The framework side performs explicit **data
//! transformation** — typed records to text and back — which the paper
//! measures at 12–49% of task time (Fig. 6a). The harness times each
//! program step into `wrapper.external.nanos`; the rounds time their
//! conversions into `wrapper.transform.nanos`, so they report the same
//! split.
//!
//! A pipeline runs on the caller's thread as a loop of program steps.
//! The first program is handed the input [`PIPE_BUF`] bytes at a time,
//! as slices of the caller's buffer; each later program is handed what
//! its predecessor wrote and it has not yet used. A program uses what it
//! can — whole records — and is handed the rest again with whatever
//! arrives next, so a pipe between two programs holds what one step
//! wrote (a batch, for `bwa mem`) and not the partition; the last pipe
//! collects the pipeline's output.

use crate::counters::{keys, Counters};
use crate::error::{panic_message, GesallError};
use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Pipe chunk size: the 64 KiB pipe buffer from Fig. 8.
pub const PIPE_BUF: usize = 64 * 1024;

/// An "external program": a black box from the framework's viewpoint —
/// reads stdin, writes stdout, no framework types cross the boundary.
pub trait ExternalProgram {
    /// Program name (for diagnostics).
    fn name(&self) -> &str;

    /// Use what can be used of `stdin`, append output to `stdout`, and
    /// return how many leading bytes of `stdin` were used; the rest is
    /// handed again, followed by whatever arrived since, at the next
    /// step. `eof` says `stdin` is all that is left: a step with `eof`
    /// that uses all of it is the program's last, and writes the rest
    /// of its output. Using none of a non-empty `stdin` at `eof` is an
    /// error.
    fn step(&mut self, stdin: &[u8], eof: bool, stdout: &mut Vec<u8>) -> std::io::Result<usize>;
}

/// Runs a chain of external programs connected by pipes
/// (e.g. `bwa | samtobam`, Fig. 8).
pub struct StreamingHarness {
    counters: Counters,
}

impl StreamingHarness {
    pub fn new(counters: Counters) -> StreamingHarness {
        StreamingHarness { counters }
    }

    /// Feed `input` through `programs[0] | programs[1] | ...` and return
    /// the final stdout, stepping every program on the calling thread
    /// until the last has taken its last step.
    ///
    /// Every byte a program writes into a pipe, and every unused tail
    /// moved to the front of a pipe before its writer appends to it, is
    /// charged to [`keys::WRAPPER_BYTES_COPIED`]; the input is handed on
    /// as slices and costs nothing.
    pub fn run_pipeline(
        &self,
        programs: &mut [&mut dyn ExternalProgram],
        input: &[u8],
    ) -> std::io::Result<Vec<u8>> {
        assert!(!programs.is_empty(), "need at least one program");
        let n = programs.len();
        // `pipes[i]` is program i's stdout; program i + 1 has used the
        // first `taken[i]` bytes of it. The last pipe is the output.
        let mut pipes = vec![Vec::new(); n];
        let mut taken = vec![0; n];
        let mut done = vec![false; n];
        // Program 0 has used `fed` bytes of the input and is handed the
        // next `window`: a record longer than the window leaves a full
        // window unused, and the next one is twice as long.
        let (mut fed, mut window): (usize, usize) = (0, PIPE_BUF);
        let mut current = 0;
        // A panicking program is a failed pipeline, not a panic out of
        // the task: the surrounding attempt fails cleanly and is retried.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            while !done[n - 1] {
                for i in 0..n {
                    if done[i] {
                        continue;
                    }
                    current = i;
                    let (upstream, rest) = pipes.split_at_mut(i);
                    let (stdin, eof) = match i {
                        0 => {
                            let end = fed.saturating_add(window).min(input.len());
                            (&input[fed..end], end == input.len())
                        }
                        _ => (&upstream[i - 1][taken[i - 1]..], done[i - 1]),
                    };
                    if stdin.is_empty() && !eof {
                        continue;
                    }
                    let stdout = &mut rest[0];
                    if taken[i] > 0 {
                        self.counters.add(keys::WRAPPER_BYTES_COPIED, (stdout.len() - taken[i]) as u64);
                        stdout.drain(..std::mem::take(&mut taken[i]));
                    }
                    let wrote = stdout.len();
                    let t0 = Instant::now();
                    let used = programs[i].step(stdin, eof, stdout)?;
                    self.counters.add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
                    self.counters.add(keys::WRAPPER_BYTES_COPIED, (stdout.len() - wrote) as u64);
                    let stuck = eof && used == 0 && !stdin.is_empty();
                    if used > stdin.len() || stuck {
                        let at = if eof { " left at EOF" } else { "" };
                        let what = format!("used {used} of the {} bytes{at}", stdin.len());
                        return Err(std::io::Error::new(ErrorKind::InvalidData, what));
                    }
                    done[i] = eof && used == stdin.len();
                    if i > 0 {
                        taken[i - 1] += used;
                    } else {
                        fed += used;
                        window = if used > 0 || eof { PIPE_BUF } else { window.saturating_mul(2) };
                    }
                }
            }
            Ok(())
        }));
        // The error keeps the program's `io::Result` kind; its source is
        // a [`GesallError::Streaming`] naming the program, so fault-aware
        // callers can downcast.
        let (kind, what) = match ran {
            Ok(Ok(())) => return Ok(pipes.pop().expect("one pipe per program")),
            Ok(Err(e)) => (e.kind(), format!("failed: {e}")),
            Err(payload) => (ErrorKind::Other, format!("panicked: {}", panic_message(payload.as_ref()))),
        };
        let msg = format!("external program '{}' {what}", programs[current].name());
        Err(std::io::Error::new(kind, GesallError::Streaming(msg)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test program: a stepper, and the whole-input function its
    /// steps must add up to.
    trait Whole: ExternalProgram {
        fn whole(&self, input: &[u8]) -> Vec<u8>;
    }

    /// Upper-cases its input as it arrives.
    struct Upper;
    impl ExternalProgram for Upper {
        fn name(&self) -> &str {
            "upper"
        }
        fn step(&mut self, stdin: &[u8], _eof: bool, stdout: &mut Vec<u8>) -> std::io::Result<usize> {
            stdout.extend(stdin.iter().map(u8::to_ascii_uppercase));
            Ok(stdin.len())
        }
    }
    impl Whole for Upper {
        fn whole(&self, input: &[u8]) -> Vec<u8> {
            input.to_ascii_uppercase()
        }
    }

    /// Reverses each line: uses whole lines only, and the unterminated
    /// last one at EOF.
    struct RevLines;
    fn rev_lines(text: &[u8], out: &mut Vec<u8>) {
        for line in String::from_utf8_lossy(text).lines() {
            out.extend(line.chars().rev().collect::<String>().bytes());
            out.push(b'\n');
        }
    }
    impl ExternalProgram for RevLines {
        fn name(&self) -> &str {
            "revlines"
        }
        fn step(&mut self, stdin: &[u8], eof: bool, stdout: &mut Vec<u8>) -> std::io::Result<usize> {
            let whole = match eof {
                true => stdin.len(),
                false => stdin.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1),
            };
            rev_lines(&stdin[..whole], stdout);
            Ok(whole)
        }
    }
    impl Whole for RevLines {
        fn whole(&self, input: &[u8]) -> Vec<u8> {
            let mut out = Vec::new();
            rev_lines(input, &mut out);
            out
        }
    }

    /// A true streaming stage: doubles every byte as it arrives, at
    /// most 4 KiB per step.
    struct DoubleBytes;
    impl ExternalProgram for DoubleBytes {
        fn name(&self) -> &str {
            "double"
        }
        fn step(&mut self, stdin: &[u8], _eof: bool, stdout: &mut Vec<u8>) -> std::io::Result<usize> {
            let used = stdin.len().min(4096);
            stdout.extend(self.whole(&stdin[..used]));
            Ok(used)
        }
    }
    impl Whole for DoubleBytes {
        fn whole(&self, input: &[u8]) -> Vec<u8> {
            input.iter().flat_map(|&b| [b, b]).collect()
        }
    }

    /// Writes more than a pipe buffer before it uses a byte of stdin,
    /// then echoes stdin.
    #[derive(Default)]
    struct TalksFirst {
        talked: bool,
    }
    impl ExternalProgram for TalksFirst {
        fn name(&self) -> &str {
            "talks-first"
        }
        fn step(&mut self, stdin: &[u8], _eof: bool, stdout: &mut Vec<u8>) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.talked, true) {
                stdout.extend(self.whole(b""));
            }
            stdout.extend_from_slice(stdin);
            Ok(stdin.len())
        }
    }
    impl Whole for TalksFirst {
        fn whole(&self, input: &[u8]) -> Vec<u8> {
            [&vec![b'.'; 5 * PIPE_BUF][..], input].concat()
        }
    }

    /// Runs `inner` and records every thread it stepped on.
    struct OnThread<'a> {
        inner: &'a mut dyn Whole,
        ran_on: Vec<std::thread::ThreadId>,
    }
    impl ExternalProgram for OnThread<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn step(&mut self, stdin: &[u8], eof: bool, stdout: &mut Vec<u8>) -> std::io::Result<usize> {
            self.ran_on.push(std::thread::current().id());
            self.inner.step(stdin, eof, stdout)
        }
    }
    impl Whole for OnThread<'_> {
        fn whole(&self, input: &[u8]) -> Vec<u8> {
            self.inner.whole(input)
        }
    }

    /// Panics mid-stream, as a segfaulting wrapped binary would.
    struct Crasher;
    impl ExternalProgram for Crasher {
        fn name(&self) -> &str {
            "crasher"
        }
        fn step(&mut self, _: &[u8], _: bool, _: &mut Vec<u8>) -> std::io::Result<usize> {
            panic!("wrapped binary crashed");
        }
    }

    /// Never uses a byte of its input.
    struct Stubborn;
    impl ExternalProgram for Stubborn {
        fn name(&self) -> &str {
            "stubborn"
        }
        fn step(&mut self, _: &[u8], _: bool, _: &mut Vec<u8>) -> std::io::Result<usize> {
            Ok(0)
        }
    }

    /// The pipeline's output, checked against the direct composition of
    /// its programs' whole-input functions.
    fn run_checked(chain: &mut [&mut dyn Whole], input: &[u8]) -> Vec<u8> {
        let want = chain.iter().fold(input.to_vec(), |data, p| p.whole(&data));
        let mut programs: Vec<&mut dyn ExternalProgram> =
            chain.iter_mut().map(|p| &mut **p as &mut dyn ExternalProgram).collect();
        let out = StreamingHarness::new(Counters::new()).run_pipeline(&mut programs, input).unwrap();
        let names: Vec<_> = chain.iter().map(|p| p.name().to_string()).collect();
        assert!(out == want, "{names:?} on {} bytes", input.len());
        out
    }

    /// The pipeline's error, with its [`GesallError::Streaming`] source.
    fn failure(programs: &mut [&mut dyn ExternalProgram], input: &[u8]) -> (std::io::Error, String) {
        let err = StreamingHarness::new(Counters::new()).run_pipeline(programs, input).unwrap_err();
        let source = err.get_ref().and_then(|e| e.downcast_ref::<GesallError>());
        let Some(GesallError::Streaming(msg)) = source else { panic!("no streaming source: {err}") };
        let msg = msg.clone();
        (err, msg)
    }

    #[test]
    fn single_program_pipeline() {
        let c = Counters::new();
        let out = StreamingHarness::new(c.clone()).run_pipeline(&mut [&mut Upper], b"acgt\n").unwrap();
        assert_eq!(out, b"ACGT\n");
        assert!(c.get(keys::EXTERNAL_PROGRAM_NANOS) > 0);
        assert_eq!(c.get(keys::WRAPPER_BYTES_COPIED), 5, "the input is handed on as a slice");
    }

    #[test]
    fn two_stage_pipeline_like_bwa_samtobam() {
        assert_eq!(run_checked(&mut [&mut Upper, &mut RevLines], b"abc\ndef\n"), b"CBA\nFED\n");
    }

    #[test]
    fn every_chain_equals_the_composition_of_its_whole_input_functions() {
        let text: Vec<u8> = (0..40_000u32)
            .flat_map(|i| format!("line {i} {}\n", i * 7919).into_bytes())
            .collect();
        // One line longer than two pipe buffers: program 0 is handed it
        // whole, however it lies across the input's windows.
        let long = [&b"short\n"[..], &vec![b'q'; 2 * PIPE_BUF + 17], b"\nend"].concat();
        for input in [&b""[..], b"x", b"no newline", &long, &text] {
            run_checked(&mut [&mut Upper], input);
            run_checked(&mut [&mut RevLines], input);
            run_checked(&mut [&mut Upper, &mut RevLines], input);
            run_checked(&mut [&mut RevLines, &mut DoubleBytes, &mut Upper], input);
            run_checked(&mut [&mut DoubleBytes, &mut Upper, &mut RevLines], input);
            run_checked(&mut [&mut TalksFirst::default(), &mut RevLines], input);
        }
    }

    #[test]
    fn streaming_stage_processes_incrementally() {
        let input: Vec<u8> = vec![7; 300_000];
        let out = run_checked(&mut [&mut DoubleBytes], &input);
        assert_eq!(out.len(), 600_000);
        // Behind Upper, DoubleBytes leaves most of each 64 KiB window
        // for later steps: what it has not used stays at the front of
        // its pipe.
        run_checked(&mut [&mut Upper, &mut DoubleBytes], &input);
    }

    #[test]
    fn pipe_handles_large_transfers() {
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        run_checked(&mut [&mut Upper, &mut DoubleBytes, &mut Upper], &data);
    }

    /// Records where each stdin it is handed lies, then echoes it.
    #[derive(Default)]
    struct Windows {
        seen: Vec<std::ops::Range<usize>>,
    }
    impl ExternalProgram for Windows {
        fn name(&self) -> &str {
            "windows"
        }
        fn step(&mut self, stdin: &[u8], _eof: bool, stdout: &mut Vec<u8>) -> std::io::Result<usize> {
            let at = stdin.as_ptr() as usize;
            self.seen.push(at..at + stdin.len());
            stdout.extend_from_slice(stdin);
            Ok(stdin.len())
        }
    }

    #[test]
    fn the_input_is_handed_on_as_slices_of_the_callers_buffer() {
        let input: Vec<u8> = (0..3 * PIPE_BUF + 100).map(|i| (i % 251) as u8).collect();
        let mut first = Windows::default();
        let out = StreamingHarness::new(Counters::new()).run_pipeline(&mut [&mut first], &input).unwrap();
        assert_eq!(out, input);
        // Pipe-buffer windows onto the input itself, back to back: no
        // byte of it is copied before the first program sees it.
        let base = input.as_ptr() as usize;
        let want: Vec<_> = (0..4).map(|i| base + i * PIPE_BUF..base + input.len().min((i + 1) * PIPE_BUF)).collect();
        assert_eq!(first.seen, want);
    }

    #[test]
    fn a_program_that_writes_before_it_reads_runs_to_completion() {
        let out = run_checked(&mut [&mut TalksFirst::default(), &mut Upper], b"tail");
        assert_eq!(out.len(), 5 * PIPE_BUF + 4);
        assert!(out.ends_with(b"TAIL"));
    }

    #[test]
    fn a_pipe_holds_what_one_step_wrote() {
        // Upper uses each window whole, so what the harness writes into
        // its pipe is the input once, and nothing is moved.
        let c = Counters::new();
        let input = vec![b'a'; 10 * PIPE_BUF + 3];
        let out = StreamingHarness::new(c.clone()).run_pipeline(&mut [&mut Upper, &mut RevLines], &input).unwrap();
        assert_eq!(out.len(), input.len() + 1);
        assert_eq!(c.get(keys::WRAPPER_BYTES_COPIED), 2 * input.len() as u64 + 1);
        // RevLines leaves each window's unterminated tail unused: the
        // harness moves it to the front of the pipe before Upper writes
        // again, and charges the move.
        let c = Counters::new();
        let lines: Vec<u8> = (0..3 * PIPE_BUF).map(|i| if i % 1000 == 999 { b'\n' } else { b'x' }).collect();
        StreamingHarness::new(c.clone()).run_pipeline(&mut [&mut Upper, &mut RevLines], &lines).unwrap();
        let written = 2 * lines.len() as u64;
        assert!(c.get(keys::WRAPPER_BYTES_COPIED) > written, "tails moved");
        assert!(c.get(keys::WRAPPER_BYTES_COPIED) < written + 4 * 1000, "only tails moved");
    }

    #[test]
    fn every_program_runs_on_the_callers_thread() {
        let (mut upper, mut double, mut rev) = (Upper, DoubleBytes, RevLines);
        let mut progs = [
            OnThread { inner: &mut upper, ran_on: Vec::new() },
            OnThread { inner: &mut double, ran_on: Vec::new() },
            OnThread { inner: &mut rev, ran_on: Vec::new() },
        ];
        let [a, b, c] = &mut progs;
        assert_eq!(run_checked(&mut [a, b, c], b"ab\ncd\n"), b"BBAA\n\nDDCC\n\n");
        let me = std::thread::current().id();
        for p in &progs {
            assert!(!p.ran_on.is_empty() && p.ran_on.iter().all(|&t| t == me), "{} ran elsewhere", p.name());
        }
    }

    #[test]
    fn panicking_program_is_an_error_not_an_abort() {
        let (err, msg) = failure(&mut [&mut Crasher], b"x");
        assert_eq!(err.kind(), ErrorKind::Other);
        assert!(msg.contains("'crasher'") && msg.contains("wrapped binary crashed"), "unexpected error: {msg}");
        assert_eq!(err.to_string(), format!("streaming pipeline failed: {msg}"));
    }

    #[test]
    fn panicking_middle_stage_fails_whole_pipeline() {
        let (_, msg) = failure(&mut [&mut Upper, &mut Crasher, &mut RevLines], b"abc\n");
        assert!(msg.contains("'crasher' panicked"), "unexpected error: {msg}");
    }

    #[test]
    fn a_program_that_uses_nothing_at_eof_is_an_error_not_a_hang() {
        for input in [&b"x"[..], &vec![b'y'; 3 * PIPE_BUF]] {
            let (err, msg) = failure(&mut [&mut Stubborn], input);
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            assert!(msg.contains("'stubborn'") && msg.contains("at EOF"), "unexpected error: {msg}");
            let (err, msg) = failure(&mut [&mut Upper, &mut Stubborn, &mut RevLines], input);
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            assert!(msg.contains("'stubborn'"), "unexpected error: {msg}");
        }
        // Nothing to use at EOF is no error.
        assert_eq!(StreamingHarness::new(Counters::new()).run_pipeline(&mut [&mut Stubborn], b"").unwrap(), b"");
    }
}
