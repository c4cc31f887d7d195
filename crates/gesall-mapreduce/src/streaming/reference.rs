//! The threaded harness [`StreamingHarness::run_pipeline`] replaced: a
//! feeder thread writes the input, every program runs on a thread of its
//! own, and the pipes between them are the same byte streams. Kept as
//! the reference its tests hold output bytes, `wrapper.bytes.copied` and
//! errors to. Written against the crate's public API only, so
//! `gesall-core`'s tests compile the same file to check
//! `bwa-mem | samtobam` against it.
//!
//! [`StreamingHarness::run_pipeline`]: gesall_mapreduce::streaming::StreamingHarness::run_pipeline

use gesall_mapreduce::counters::{keys, Counters};
use gesall_mapreduce::error::{panic_message, GesallError};
use gesall_mapreduce::streaming::{pipe, pipe_with_counters, ExternalProgram};
use std::io::Write;
use std::time::Instant;

fn streaming_io_error(msg: String) -> std::io::Error {
    std::io::Error::other(GesallError::Streaming(msg))
}

/// Feed `input` through `programs[0] | programs[1] | ...`, one thread
/// per program plus a feeder, and return the final stdout.
pub fn run_pipeline(
    counters: &Counters,
    programs: &[&dyn ExternalProgram],
    input: &[u8],
) -> std::io::Result<Vec<u8>> {
    assert!(!programs.is_empty(), "need at least one program");
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
        // the scope.
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
