//! External-program wrappers (paper Fig. 8).
//!
//! From the framework's point of view these are black boxes that read
//! bytes on stdin and write bytes on stdout — exactly how Hadoop
//! Streaming sees `bwa mem` and `SamToBam`. The alignment round pipes
//! them together:
//!
//! ```text
//! interleaved FASTQ ──▶ BwaMemProgram ──SAM text──▶ SamToBamProgram ──▶ BAM bytes
//! ```

use gesall_aligner::Aligner;
use gesall_formats::fastq;
use gesall_formats::sam::text as sam_text;
use gesall_mapreduce::counters::Counters;
use gesall_mapreduce::streaming::{ExternalProgram, PipeReader, PipeWriter};
use std::io::Read;

/// The aligner posing as `bwa mem` with one thread: interleaved FASTQ
/// in, SAM text (with header) out. A task attempt holds one slot, so
/// its alignment runs on the attempt's own thread; the output does not
/// depend on the thread count.
pub struct BwaMemProgram<'a> {
    pub aligner: &'a Aligner,
    /// Where the aligner's kernel tally goes: the task attempt's own
    /// counters, so only a committed attempt's work reaches the job.
    pub counters: &'a Counters,
}

impl ExternalProgram for BwaMemProgram<'_> {
    fn name(&self) -> &str {
        "bwa-mem"
    }

    fn run(&self, mut stdin: PipeReader, mut stdout: PipeWriter) -> std::io::Result<()> {
        let mut input = Vec::new();
        stdin.read_to_end(&mut input)?;
        let pairs = fastq::pairs_from_interleaved_bytes(&input)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let header = self.aligner.index().sam_header();
        let (aligned, kernels) = self.aligner.align_pairs_counted(&pairs, 1);
        kernels.add_to(self.counters);
        // The header and every record formatted into one buffer, sized
        // for a line of seq, qual, name and ~128 bytes of other fields,
        // and handed to the pipe by ownership — no copy.
        let mut text = header.to_text().into_bytes();
        let lines: usize = aligned
            .iter()
            .flat_map(|(a, b)| [a, b])
            .map(|r| 2 * r.seq.len() + r.name.len() + 128)
            .sum();
        text.reserve(lines);
        for (a, b) in &aligned {
            sam_text::write_record(&mut text, a, &header);
            sam_text::write_record(&mut text, b, &header);
        }
        stdout.write_owned(text)?;
        stdout.close()
    }
}

/// SAM text in, BAM container bytes out (single-threaded, as in the
/// paper's Round 1 pipeline).
pub struct SamToBamProgram;

impl ExternalProgram for SamToBamProgram {
    fn name(&self) -> &str {
        "samtobam"
    }

    fn run(&self, mut stdin: PipeReader, mut stdout: PipeWriter) -> std::io::Result<()> {
        let mut input = String::new();
        stdin.read_to_string(&mut input)?;
        let (header, records) = sam_text::from_text(&input)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let bytes = gesall_formats::bam::write_bam(&header, &records);
        // The serialized BAM is handed to the pipe by ownership — it
        // becomes the chunks' shared backing, no re-copy.
        stdout.write_owned(bytes)?;
        stdout.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_aligner::AlignerConfig;
    use gesall_aligner::ReferenceIndex;
    use gesall_datagen::{
        donor::DonorConfig, reads::ReadSimConfig, DonorGenome, GenomeConfig, ReadSimulator,
        ReferenceGenome,
    };
    use gesall_formats::bam;
    use gesall_mapreduce::counters::keys;
    use gesall_mapreduce::streaming::StreamingHarness;
    use gesall_telemetry::KernelStats;

    fn world() -> (Aligner, Vec<gesall_formats::fastq::ReadPair>) {
        let genome = ReferenceGenome::generate(&GenomeConfig::tiny());
        let donor = DonorGenome::generate(&genome, &DonorConfig::default());
        let (pairs, _) = ReadSimulator::new(
            &genome,
            &donor,
            ReadSimConfig {
                n_pairs: 120,
                ..ReadSimConfig::default()
            },
        )
        .simulate();
        let chroms: Vec<(String, Vec<u8>)> = genome
            .chromosomes
            .iter()
            .map(|c| (c.name.clone(), c.seq.clone()))
            .collect();
        let aligner = Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default());
        (aligner, pairs)
    }

    #[test]
    fn bwa_pipe_to_samtobam_produces_valid_bam() {
        let (aligner, pairs) = world();
        let timers = Counters::new();
        let harness = StreamingHarness::new(timers.clone());
        let input = fastq::pairs_to_interleaved_bytes(&pairs);
        let kernels = Counters::new();
        let bwa = BwaMemProgram {
            aligner: &aligner,
            counters: &kernels,
        };
        let out = harness
            .run_pipeline(&[&bwa, &SamToBamProgram], &input)
            .unwrap();
        let (header, records) = bam::read_bam(&out).unwrap();
        assert_eq!(records.len(), 240, "two records per pair");
        assert_eq!(header.references.len(), 2);
        // Pipeline output, and the kernel tally, equal calling the
        // aligner directly.
        let (direct, tally) = aligner.align_pairs_counted(&pairs, 1);
        let flat: Vec<_> = direct.into_iter().flat_map(|(a, b)| [a, b]).collect();
        assert_eq!(records, flat);
        assert_ne!(tally, KernelStats::default());
        assert_eq!(KernelStats::from_snapshot(&kernels.counter_snapshot()), tally);
        // Timings recorded for both programs.
        assert!(timers.get(keys::EXTERNAL_PROGRAM_NANOS) > 0);
    }

    #[test]
    fn bwa_pipe_to_samtobam_equals_the_threaded_reference() {
        let (aligner, pairs) = world();
        let input = fastq::pairs_to_interleaved_bytes(&pairs);
        let run = |threaded: bool| {
            let (pipes, kernels) = (Counters::new(), Counters::new());
            let bwa = BwaMemProgram {
                aligner: &aligner,
                counters: &kernels,
            };
            let chain: [&dyn ExternalProgram; 2] = [&bwa, &SamToBamProgram];
            let out = if threaded {
                crate::streaming_reference::run_pipeline(&pipes, &chain, &input)
            } else {
                StreamingHarness::new(pipes.clone()).run_pipeline(&chain, &input)
            };
            (
                out.unwrap(),
                pipes.get(keys::WRAPPER_BYTES_COPIED),
                KernelStats::from_snapshot(&kernels.counter_snapshot()),
            )
        };
        let (out, copied, tally) = run(false);
        let (want, want_copied, want_tally) = run(true);
        assert_eq!(out, want);
        assert_eq!(copied, want_copied);
        assert!(copied > 2 * input.len() as u64);
        assert_eq!(tally, want_tally);
    }

    /// The pipeline's error, which must name the program that failed.
    fn failure(programs: &[&dyn ExternalProgram], input: &[u8]) -> String {
        let harness = StreamingHarness::new(Counters::new());
        let err = harness.run_pipeline(programs, input).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn bwa_rejects_garbage_input() {
        let (aligner, _) = world();
        let counters = Counters::new();
        let bwa = BwaMemProgram {
            aligner: &aligner,
            counters: &counters,
        };
        let msg = failure(&[&bwa], b"not fastq at all");
        assert!(msg.contains("'bwa-mem'"), "unexpected error: {msg}");
    }

    #[test]
    fn samtobam_rejects_garbage() {
        let msg = failure(&[&SamToBamProgram], b"bogus\tsam");
        assert!(msg.contains("'samtobam'"), "unexpected error: {msg}");
    }
}
