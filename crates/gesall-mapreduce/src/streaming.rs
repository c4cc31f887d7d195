//! Hadoop-Streaming analogue: running "external programs" over byte
//! pipes with bounded buffers (paper Fig. 8).
//!
//! A wrapped C program (here: any [`ExternalProgram`] implementation,
//! e.g. the aligner posing as `bwa mem`) reads bytes from stdin and
//! writes bytes to stdout. The framework side performs explicit **data
//! transformation** — typed records to text and back — which the paper
//! measures at 12–49% of task time (Fig. 6a). The harness times the two
//! halves separately so the wrapper rounds can report the same split.

use crate::counters::{keys, Counters};
use crate::error::{panic_message, GesallError};
use gesall_formats::SharedBytes;
use std::io::{Read, Write};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

/// Pipe chunk size: the 64 KiB pipe buffer from Fig. 8.
pub const PIPE_BUF: usize = 64 * 1024;

/// Writing end of a byte pipe. Chunks travel the channel as
/// [`SharedBytes`]: a large write is packaged into one backing
/// allocation and shipped as O(1) slices, instead of the old
/// `split_off`-per-chunk scheme that re-copied the unsent tail on every
/// iteration (quadratic in the write size).
pub struct PipeWriter {
    tx: Option<SyncSender<SharedBytes>>,
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

/// Create a connected pipe with a bounded in-flight window (backpressure,
/// like a real OS pipe). Copy accounting goes to a private bag; use
/// [`pipe_with_counters`] to surface it.
pub fn pipe() -> (PipeWriter, PipeReader) {
    pipe_with_counters(Counters::new())
}

/// [`pipe`], with payload-copy accounting
/// ([`keys::WRAPPER_BYTES_COPIED`]) on the given bag.
pub fn pipe_with_counters(counters: Counters) -> (PipeWriter, PipeReader) {
    let (tx, rx) = sync_channel(4);
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
    /// `stdout`. The harness calls this on a dedicated thread.
    fn run(&self, stdin: PipeReader, stdout: PipeWriter) -> std::io::Result<()>;
}

/// Per-run timing split, feeding the Fig. 6a breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamingTimings {
    /// Wall nanoseconds spent inside external program threads.
    pub external_nanos: u64,
    /// Wall nanoseconds the caller spent in data transformation
    /// (accounted by [`StreamingHarness::transform`]).
    pub transform_nanos: u64,
}

/// Wrap a streaming failure as an `io::Error` whose source is a
/// [`GesallError::Streaming`], so pipeline callers keep their
/// `io::Result` signature while fault-aware callers can downcast.
fn streaming_io_error(msg: String) -> std::io::Error {
    std::io::Error::other(GesallError::Streaming(msg))
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

    /// Time a data-transformation closure (record ↔ byte conversion) and
    /// account it to the wrapper-transform counter.
    pub fn transform<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.counters
            .add(keys::DATA_TRANSFORM_NANOS, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Feed `input` through `programs[0] | programs[1] | ...` and return
    /// the final stdout.
    pub fn run_pipeline(
        &self,
        programs: &[&dyn ExternalProgram],
        input: &[u8],
    ) -> std::io::Result<Vec<u8>> {
        assert!(!programs.is_empty(), "need at least one program");
        let counters = self.counters.clone();
        std::thread::scope(|s| {
            // Build the chain of pipes: input -> p0 -> p1 -> ... -> out.
            let (first_w, mut prev_r) = pipe_with_counters(counters.clone());

            // Feeder thread.
            let feeder = s.spawn(move || {
                let mut w = first_w;
                let _ = w.write_all(input);
                let _ = w.close();
            });

            let mut handles = Vec::new();
            let mut final_reader = None;
            for (i, prog) in programs.iter().enumerate() {
                let (w, r) = pipe_with_counters(counters.clone());
                let stdin = std::mem::replace(&mut prev_r, r);
                let counters = counters.clone();
                let prog = *prog;
                handles.push(s.spawn(move || {
                    let t0 = Instant::now();
                    let res = prog.run(stdin, w);
                    counters.add(
                        keys::EXTERNAL_PROGRAM_NANOS,
                        t0.elapsed().as_nanos() as u64,
                    );
                    res
                }));
                if i == programs.len() - 1 {
                    final_reader = Some(std::mem::replace(&mut prev_r, pipe().1));
                }
            }
            let out = final_reader
                .expect("pipeline built at least one stage")
                .read_to_end_vec();
            // Every thread is joined before any error returns, so a
            // panicking program is a failed pipeline, not a panic out of
            // the scope: the surrounding task attempt fails cleanly and
            // is retried.
            let fed = feeder.join().map_err(|payload| {
                streaming_io_error(format!("feeder panicked: {}", panic_message(payload.as_ref())))
            });
            let ran: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            fed?;
            for (res, prog) in ran.into_iter().zip(programs) {
                res.map_err(|payload| {
                    streaming_io_error(format!(
                        "external program '{}' panicked: {}",
                        prog.name(),
                        panic_message(payload.as_ref()),
                    ))
                })??;
            }
            out
        })
    }

    /// Timing snapshot from the counters.
    pub fn timings(&self) -> StreamingTimings {
        StreamingTimings {
            external_nanos: self.counters.get(keys::EXTERNAL_PROGRAM_NANOS),
            transform_nanos: self.counters.get(keys::DATA_TRANSFORM_NANOS),
        }
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
        let t = std::thread::spawn(move || r.read_to_end_vec().unwrap());
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world").unwrap();
        w.close().unwrap();
        assert_eq!(t.join().unwrap(), b"hello world");
    }

    #[test]
    fn pipe_handles_large_transfers_with_backpressure() {
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let (mut w, r) = pipe();
        let expect = data.clone();
        let t = std::thread::spawn(move || r.read_to_end_vec().unwrap());
        w.write_all(&data).unwrap();
        w.close().unwrap();
        assert_eq!(t.join().unwrap(), expect);
    }

    #[test]
    fn write_owned_ships_chunks_zero_copy() {
        let data: Vec<u8> = (0..2 * PIPE_BUF + 100).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        let (mut w, mut r) = pipe();
        let t = std::thread::spawn(move || {
            let mut chunks = Vec::new();
            while let Some(c) = r.next_chunk() {
                chunks.push(c);
            }
            chunks
        });
        w.write_owned(data).unwrap();
        w.close().unwrap();
        let chunks = t.join().unwrap();
        assert!(chunks.len() >= 3);
        // Ownership transfer end to end: every chunk is a window onto
        // the one buffer the writer handed over — no copy in between.
        assert!(chunks.windows(2).all(|p| p[0].same_backing(&p[1])));
        let glued: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(glued, expect);
    }

    #[test]
    fn single_program_pipeline() {
        let h = StreamingHarness::new(Counters::new());
        let out = h.run_pipeline(&[&Upper], b"acgt\n").unwrap();
        assert_eq!(out, b"ACGT\n");
        assert!(h.timings().external_nanos > 0);
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

    #[test]
    fn transform_timer_accumulates() {
        let c = Counters::new();
        let h = StreamingHarness::new(c.clone());
        let v: u64 = h.transform(|| (0..10_000u64).sum());
        assert_eq!(v, 49995000);
        assert!(c.get(keys::DATA_TRANSFORM_NANOS) > 0);
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
}
