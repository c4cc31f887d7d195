//! Round 1: alignment (map-only, Hadoop Streaming).

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
        let bwa = crate::programs::BwaMemProgram {
            aligner: self.aligner,
            counters: ctx.counters(),
        };
        let bam_bytes = harness
            .run_pipeline(&[&bwa, &crate::programs::SamToBamProgram], fastq_bytes)
            .expect("alignment streaming pipeline failed");
        // The wrapper timers stay on the pipeline-cumulative bag. The
        // pipe copies go on the attempt's own bag, so a byte count read
        // off the job counters covers committed attempts only — a
        // speculative attempt that loses its race copied for nothing.
        for key in [keys::DATA_TRANSFORM_NANOS, keys::EXTERNAL_PROGRAM_NANOS] {
            self.counters.add(key, pipes.get(key));
        }
        ctx.counters()
            .add(keys::WRAPPER_BYTES_COPIED, pipes.get(keys::WRAPPER_BYTES_COPIED));
        ctx.emit(label.clone(), bam_bytes);
    }
}
