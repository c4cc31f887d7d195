//! Round 1: alignment (map-only, Hadoop Streaming): each partition's
//! interleaved FASTQ steps through `bwa-mem | samtobam` on the task
//! attempt's thread, a batch at a time.

use crate::programs::{BwaMemProgram, SamToBamProgram};
use gesall_aligner::Aligner;
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::{keys, Counters};
use gesall_mapreduce::streaming::StreamingHarness;
use gesall_mapreduce::task::{MapContext, Mapper};

/// Map-only aligner round: interleaved-FASTQ partition bytes in, BAM
/// partition bytes out, through the `bwa | samtobam` streaming pipeline.
pub struct Round1Align<'a> {
    pub aligner: &'a Aligner,
    pub counters: Counters,
}

impl Mapper for Round1Align<'_> {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = String;
    type OutValue = Vec<u8>;

    fn map(&self, label: &String, fastq_bytes: &SharedBytes, ctx: &mut MapContext<'_, String, Vec<u8>>) {
        let pipes = Counters::new();
        let harness = StreamingHarness::new(pipes.clone());
        let mut bwa = BwaMemProgram::new(self.aligner, ctx.counters());
        let bam_bytes = harness
            .run_pipeline(&mut [&mut bwa, &mut SamToBamProgram::default()], fastq_bytes)
            .expect("alignment streaming pipeline failed");
        // The program timer stays on the pipeline-cumulative bag. The
        // pipe bytes go on the attempt's own bag, so a byte count read
        // off the job counters covers committed attempts only — a
        // speculative attempt that loses its race copied for nothing.
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, pipes.get(keys::EXTERNAL_PROGRAM_NANOS));
        ctx.counters()
            .add(keys::WRAPPER_BYTES_COPIED, pipes.get(keys::WRAPPER_BYTES_COPIED));
        ctx.emit(label.clone(), bam_bytes);
    }
}
