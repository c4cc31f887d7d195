//! Hadoop-Streaming analogue: running "external programs" over byte
//! pipes (paper Fig. 8).
//!
//! A wrapped C program (here: any [`ExternalProgram`] implementation,
//! e.g. the aligner posing as `bwa mem`) reads bytes from stdin and
//! writes bytes to stdout. The framework side performs explicit **data
//! transformation** — typed records to text and back — which the paper
//! measures at 12–49% of task time (Fig. 6a). The harness times each
//! program into `wrapper.external.nanos`; the rounds time their
//! conversions into `wrapper.transform.nanos`, so they report the same
//! split.
//!
//! A pipeline runs on the caller's thread, one program after another:
//! the wrapped programs read stdin to EOF before they write (`bwa mem`
//! needs the whole batch for its insert-size statistics), so a thread
//! per program would overlap nothing, and the pipes between them are
//! unbounded because no reader runs beside its writer.

use crate::counters::{keys, Counters};
use crate::error::{panic_message, GesallError};
use gesall_formats::SharedBytes;
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

#[cfg(test)]
mod reference;

/// Pipe chunk size: the 64 KiB pipe buffer from Fig. 8.
pub const PIPE_BUF: usize = 64 * 1024;

/// Writing end of a byte pipe. Chunks travel the channel as
/// [`SharedBytes`]: a large write is packaged into one backing
/// allocation and shipped as O(1) slices, instead of the old
/// `split_off`-per-chunk scheme that re-copied the unsent tail on every
/// iteration (quadratic in the write size).
pub struct PipeWriter {
    tx: Option<Sender<SharedBytes>>,
    buf: Vec<u8>,
    counters: Counters,
}

/// Reading end of a byte pipe.
pub struct PipeReader {
    rx: Receiver<SharedBytes>,
    cur: SharedBytes,
    pos: usize,
    counters: Counters,
}

/// Create a connected pipe. It holds whatever its writer sent until the
/// reader takes it: the harness runs a program's writer to completion
/// before the next program reads. Copy accounting goes to a private bag;
/// use [`pipe_with_counters`] to surface it.
pub fn pipe() -> (PipeWriter, PipeReader) {
    pipe_with_counters(Counters::new())
}

/// [`pipe`], with payload-copy accounting
/// ([`keys::WRAPPER_BYTES_COPIED`]) on the given bag.
pub fn pipe_with_counters(counters: Counters) -> (PipeWriter, PipeReader) {
    let (tx, rx) = channel();
    (
        PipeWriter {
            tx: Some(tx),
            buf: Vec::with_capacity(PIPE_BUF),
            counters: counters.clone(),
        },
        PipeReader {
            rx,
            cur: SharedBytes::new(),
            pos: 0,
            counters,
        },
    )
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        self.counters
            .add(keys::WRAPPER_BYTES_COPIED, data.len() as u64);
        if self.buf.len() >= PIPE_BUF {
            // Package the accumulated bytes into one backing and ship
            // full chunks as O(1) slices. Only the sub-PIPE_BUF tail is
            // copied back into the accumulation buffer.
            let full = self.buf.len() - self.buf.len() % PIPE_BUF;
            let backing = SharedBytes::from_vec(std::mem::take(&mut self.buf));
            let mut off = 0;
            while off < full {
                self.send(backing.slice(off..off + PIPE_BUF))?;
                off += PIPE_BUF;
            }
            if full < backing.len() {
                self.buf.extend_from_slice(&backing[full..]);
                self.counters
                    .add(keys::WRAPPER_BYTES_COPIED, (backing.len() - full) as u64);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            let chunk = SharedBytes::from_vec(std::mem::take(&mut self.buf));
            self.send(chunk)?;
        }
        Ok(())
    }
}

impl PipeWriter {
    fn send(&mut self, chunk: SharedBytes) -> std::io::Result<()> {
        match &self.tx {
            Some(tx) => tx.send(chunk).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::BrokenPipe, "reader dropped")
            }),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe closed",
            )),
        }
    }

    /// Ship an already-owned buffer without copying it: the buffer
    /// becomes the chunks' shared backing. For programs that build their
    /// whole output in memory (e.g. a BAM serializer) this replaces a
    /// `write_all` that would re-copy every byte through the pipe buffer.
    pub fn write_owned(&mut self, data: Vec<u8>) -> std::io::Result<()> {
        self.flush()?;
        let backing = SharedBytes::from_vec(data);
        let mut off = 0;
        while off < backing.len() {
            let end = (off + PIPE_BUF).min(backing.len());
            self.send(backing.slice(off..end))?;
            off = end;
        }
        Ok(())
    }

    /// Flush and close the pipe (EOF for the reader).
    pub fn close(mut self) -> std::io::Result<()> {
        self.flush()?;
        self.tx = None;
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let _ = self.flush();
        self.tx = None;
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.cur.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.cur = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // EOF
            }
        }
        let n = (self.cur.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.cur[self.pos..self.pos + n]);
        self.counters.add(keys::WRAPPER_BYTES_COPIED, n as u64);
        self.pos += n;
        Ok(n)
    }
}

impl PipeReader {
    /// Next chunk by ownership transfer — no copy. Returns what remains
    /// of the current chunk (an O(1) slice) or receives the next one;
    /// `None` at EOF. Streaming consumers that can work chunk-at-a-time
    /// should prefer this over [`Read::read`], which copies out.
    pub fn next_chunk(&mut self) -> Option<SharedBytes> {
        if self.pos < self.cur.len() {
            let rest = self.cur.slice(self.pos..);
            self.pos = self.cur.len();
            return Some(rest);
        }
        self.rx.recv().ok() // Err means sender dropped: EOF
    }

    /// Drain everything until EOF into one owned vector (one copy per
    /// chunk, at the gather).
    pub fn read_to_end_vec(mut self) -> std::io::Result<Vec<u8>> {
        let mut v = Vec::new();
        while let Some(chunk) = self.next_chunk() {
            v.extend_from_slice(&chunk);
            self.counters
                .add(keys::WRAPPER_BYTES_COPIED, chunk.len() as u64);
        }
        Ok(v)
    }
}

/// An "external program": a black box from the framework's viewpoint —
/// reads stdin, writes stdout, no framework types cross the boundary.
pub trait ExternalProgram: Send + Sync {
    /// Program name (for diagnostics and per-program timing).
    fn name(&self) -> &str;

    /// Run to completion: consume `stdin` fully, write results to
    /// `stdout`. The harness calls this on its caller's thread, after the
    /// previous program of the pipeline has returned.
    fn run(&self, stdin: PipeReader, stdout: PipeWriter) -> std::io::Result<()>;
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
    /// the final stdout. The input is written into the first pipe, each
    /// program runs to completion on its predecessor's pipe, and the last
    /// pipe is drained — all on the calling thread.
    pub fn run_pipeline(
        &self,
        programs: &[&dyn ExternalProgram],
        input: &[u8],
    ) -> std::io::Result<Vec<u8>> {
        assert!(!programs.is_empty(), "need at least one program");
        let (mut feed, mut stdin) = pipe_with_counters(self.counters.clone());
        feed.write_all(input)?;
        feed.close()?;
        for prog in programs {
            let (stdout, next) = pipe_with_counters(self.counters.clone());
            let t0 = Instant::now();
            // A panicking program is a failed pipeline, not a panic out of
            // the task: the surrounding attempt fails cleanly and is
            // retried.
            let ran = catch_unwind(AssertUnwindSafe(|| prog.run(stdin, stdout)));
            self.counters
                .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
            let failed = match ran {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some((e.kind(), format!("failed: {e}"))),
                Err(payload) => Some((
                    std::io::ErrorKind::Other,
                    format!("panicked: {}", panic_message(payload.as_ref())),
                )),
            };
            // The error keeps the program's `io::Result` signature and
            // kind; its source is a [`GesallError::Streaming`] naming the
            // program, so fault-aware callers can downcast.
            if let Some((kind, what)) = failed {
                let msg = format!("external program '{}' {what}", prog.name());
                return Err(std::io::Error::new(kind, GesallError::Streaming(msg)));
            }
            stdin = next;
        }
        stdin.read_to_end_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Upper-cases its input.
    struct Upper;
    impl ExternalProgram for Upper {
        fn name(&self) -> &str {
            "upper"
        }
        fn run(&self, mut stdin: PipeReader, mut stdout: PipeWriter) -> std::io::Result<()> {
            let mut buf = Vec::new();
            stdin.read_to_end(&mut buf)?;
            buf.make_ascii_uppercase();
            stdout.write_all(&buf)?;
            stdout.close()
        }
    }

    /// Reverses each line.
    struct RevLines;
    impl ExternalProgram for RevLines {
        fn name(&self) -> &str {
            "revlines"
        }
        fn run(&self, mut stdin: PipeReader, mut stdout: PipeWriter) -> std::io::Result<()> {
            let mut buf = String::new();
            stdin.read_to_string(&mut buf)?;
            for line in buf.lines() {
                let rev: String = line.chars().rev().collect();
                writeln!(stdout, "{rev}")?;
            }
            stdout.close()
        }
    }

    /// A true streaming stage: doubles every byte as it arrives.
    struct DoubleBytes;
    impl ExternalProgram for DoubleBytes {
        fn name(&self) -> &str {
            "double"
        }
        fn run(&self, mut stdin: PipeReader, mut stdout: PipeWriter) -> std::io::Result<()> {
            let mut chunk = [0u8; 4096];
            loop {
                let n = stdin.read(&mut chunk)?;
                if n == 0 {
                    break;
                }
                for &b in &chunk[..n] {
                    stdout.write_all(&[b, b])?;
                }
            }
            stdout.close()
        }
    }

    #[test]
    fn pipe_roundtrip_with_eof() {
        let (mut w, r) = pipe();
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world").unwrap();
        w.close().unwrap();
        assert_eq!(r.read_to_end_vec().unwrap(), b"hello world");
    }

    #[test]
    fn pipe_handles_large_transfers() {
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let (mut w, r) = pipe();
        w.write_all(&data).unwrap();
        w.close().unwrap();
        assert_eq!(r.read_to_end_vec().unwrap(), data);
    }

    #[test]
    fn write_owned_ships_chunks_zero_copy() {
        let data: Vec<u8> = (0..2 * PIPE_BUF + 100).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        let (mut w, mut r) = pipe();
        w.write_owned(data).unwrap();
        w.close().unwrap();
        let mut chunks = Vec::new();
        while let Some(c) = r.next_chunk() {
            chunks.push(c);
        }
        assert!(chunks.len() >= 3);
        // Ownership transfer end to end: every chunk is a window onto
        // the one buffer the writer handed over — no copy in between.
        assert!(chunks.windows(2).all(|p| p[0].same_backing(&p[1])));
        let glued: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(glued, expect);
    }

    #[test]
    fn single_program_pipeline() {
        let c = Counters::new();
        let h = StreamingHarness::new(c.clone());
        let out = h.run_pipeline(&[&Upper], b"acgt\n").unwrap();
        assert_eq!(out, b"ACGT\n");
        assert!(c.get(keys::EXTERNAL_PROGRAM_NANOS) > 0);
    }

    #[test]
    fn two_stage_pipeline_like_bwa_samtobam() {
        let h = StreamingHarness::new(Counters::new());
        let out = h
            .run_pipeline(&[&Upper, &RevLines], b"abc\ndef\n")
            .unwrap();
        assert_eq!(out, b"CBA\nFED\n");
    }

    #[test]
    fn streaming_stage_processes_incrementally() {
        let h = StreamingHarness::new(Counters::new());
        let input: Vec<u8> = vec![7; 300_000];
        let out = h.run_pipeline(&[&DoubleBytes], &input).unwrap();
        assert_eq!(out.len(), 600_000);
        assert!(out.iter().all(|&b| b == 7));
    }

    /// Panics mid-stream, as a segfaulting wrapped binary would.
    struct Crasher;
    impl ExternalProgram for Crasher {
        fn name(&self) -> &str {
            "crasher"
        }
        fn run(&self, _stdin: PipeReader, _stdout: PipeWriter) -> std::io::Result<()> {
            panic!("wrapped binary crashed");
        }
    }

    #[test]
    fn panicking_program_is_an_error_not_an_abort() {
        let h = StreamingHarness::new(Counters::new());
        let err = h.run_pipeline(&[&Crasher], b"x").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("crasher") && msg.contains("wrapped binary crashed"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn panicking_middle_stage_fails_whole_pipeline() {
        let h = StreamingHarness::new(Counters::new());
        let err = h
            .run_pipeline(&[&Upper, &Crasher, &RevLines], b"abc\n")
            .unwrap_err();
        assert!(err.to_string().contains("panicked"));
    }

    #[test]
    fn dropped_reader_breaks_writer() {
        let (mut w, r) = pipe();
        drop(r);
        // Large enough write to force a send.
        let big = vec![0u8; PIPE_BUF * 2];
        assert!(w.write_all(&big).is_err() || w.flush().is_err());
    }

    /// Runs `inner` and records the thread it ran on.
    struct OnThread<'a> {
        inner: &'a dyn ExternalProgram,
        ran_on: std::sync::Mutex<Option<std::thread::ThreadId>>,
    }
    impl<'a> OnThread<'a> {
        fn new(inner: &'a dyn ExternalProgram) -> OnThread<'a> {
            OnThread { inner, ran_on: std::sync::Mutex::new(None) }
        }
    }
    impl ExternalProgram for OnThread<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn run(&self, stdin: PipeReader, stdout: PipeWriter) -> std::io::Result<()> {
            *self.ran_on.lock().unwrap() = Some(std::thread::current().id());
            self.inner.run(stdin, stdout)
        }
    }

    #[test]
    fn every_program_runs_on_the_callers_thread() {
        let h = StreamingHarness::new(Counters::new());
        let progs = [OnThread::new(&Upper), OnThread::new(&DoubleBytes), OnThread::new(&RevLines)];
        let chain: Vec<&dyn ExternalProgram> = progs.iter().map(|p| p as _).collect();
        let out = h.run_pipeline(&chain, b"ab\ncd\n").unwrap();
        assert_eq!(out, b"BBAA\n\nDDCC\n\n");
        let me = std::thread::current().id();
        for p in &progs {
            assert_eq!(*p.ran_on.lock().unwrap(), Some(me), "{} ran elsewhere", p.name());
        }
    }

    /// Writes more than the old bounded pipe held (4 chunks in flight)
    /// before it reads a byte of stdin, then echoes stdin.
    struct TalksFirst;
    impl ExternalProgram for TalksFirst {
        fn name(&self) -> &str {
            "talks-first"
        }
        fn run(&self, mut stdin: PipeReader, mut stdout: PipeWriter) -> std::io::Result<()> {
            stdout.write_all(&vec![b'.'; 5 * PIPE_BUF])?;
            let mut buf = Vec::new();
            stdin.read_to_end(&mut buf)?;
            stdout.write_all(&buf)?;
            stdout.close()
        }
    }

    #[test]
    fn a_program_that_writes_before_it_reads_runs_to_completion() {
        let h = StreamingHarness::new(Counters::new());
        let out = h.run_pipeline(&[&TalksFirst, &Upper], b"tail").unwrap();
        assert_eq!(out.len(), 5 * PIPE_BUF + 4);
        assert!(out.starts_with(&[b'.'; 5 * PIPE_BUF]));
        assert!(out.ends_with(b"TAIL"));
    }

    /// Output and `wrapper.bytes.copied` of a pipeline, on a fresh bag.
    fn run_both(
        programs: &[&dyn ExternalProgram],
        input: &[u8],
    ) -> [(std::io::Result<Vec<u8>>, u64); 2] {
        let here = Counters::new();
        let out = StreamingHarness::new(here.clone()).run_pipeline(programs, input);
        let there = Counters::new();
        let reference = reference::run_pipeline(&there, programs, input);
        [
            (out, here.get(keys::WRAPPER_BYTES_COPIED)),
            (reference, there.get(keys::WRAPPER_BYTES_COPIED)),
        ]
    }

    #[test]
    fn output_and_copies_equal_the_threaded_reference() {
        let text: Vec<u8> = (0..40_000u32)
            .flat_map(|i| format!("line {i} {}\n", i * 7919).into_bytes())
            .collect();
        let chains: [&[&dyn ExternalProgram]; 5] = [
            &[&Upper],
            &[&RevLines],
            &[&DoubleBytes],
            &[&Upper, &RevLines],
            &[&DoubleBytes, &Upper, &RevLines],
        ];
        for chain in chains {
            for input in [&b""[..], b"x", &text] {
                let [(out, copied), (want, want_copied)] = run_both(chain, input);
                let names: Vec<_> = chain.iter().map(|p| p.name()).collect();
                assert_eq!(out.unwrap(), want.unwrap(), "{names:?}");
                assert_eq!(copied, want_copied, "{names:?}");
                assert!(copied > 0 || input.is_empty());
            }
        }
    }

    #[test]
    fn a_crash_is_the_same_error_as_under_the_threaded_reference() {
        // Crasher first: behind a crash in the middle, the reference's
        // upstream thread may or may not see a broken pipe first.
        for chain in [&[&Crasher as &dyn ExternalProgram][..], &[&Crasher, &RevLines]] {
            let [(err, _), (want, _)] = run_both(chain, b"abc\n");
            let (err, want) = (err.unwrap_err(), want.unwrap_err());
            assert_eq!(err.kind(), want.kind());
            assert_eq!(err.to_string(), want.to_string());
            let source = err.get_ref().and_then(|e| e.downcast_ref::<GesallError>());
            assert!(matches!(source, Some(GesallError::Streaming(m)) if m.contains("'crasher'")));
        }
    }
}
