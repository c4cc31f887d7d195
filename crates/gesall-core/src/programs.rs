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
//!
//! Both step through their input as it arrives: `bwa-mem` parses whole
//! FASTQ records and writes a batch's SAM text each time a batch of
//! `AlignerConfig::batch_size` pairs fills (and the remainder at EOF);
//! `samtobam` parses whole lines and writes the BAM chunks they fill.
//! Neither holds more than a batch of its input.

use gesall_aligner::Aligner;
use gesall_formats::bam::BamWriter;
use gesall_formats::fastq::{FastqReader, FastqRecord, ReadPair};
use gesall_formats::sam::text as sam_text;
use gesall_formats::sam::SamHeader;
use gesall_mapreduce::counters::Counters;
use gesall_mapreduce::streaming::ExternalProgram;
use gesall_telemetry::KernelStats;
use std::io::{Error, ErrorKind};

fn invalid(e: impl std::fmt::Display) -> Error {
    Error::new(ErrorKind::InvalidData, e.to_string())
}

/// The aligner posing as `bwa mem` with one thread: interleaved FASTQ
/// in, SAM text (with header) out. A task attempt holds one slot, so
/// its alignment runs on the attempt's own thread; the output does not
/// depend on the thread count.
pub struct BwaMemProgram<'a> {
    aligner: &'a Aligner,
    /// Where the aligner's kernel tally goes: the task attempt's own
    /// counters, so only a committed attempt's work reaches the job.
    counters: &'a Counters,
    header: SamHeader,
    started: bool,
    /// A pair's first read, until its mate is parsed.
    mate: Option<FastqRecord>,
    /// The pairs of the batch being filled, the `batch_ord`-th.
    batch: Vec<ReadPair>,
    batch_ord: u64,
    /// A blank line stood where a record should start: as in a
    /// `FastqReader`, only blank lines may follow it.
    ended: bool,
}

impl<'a> BwaMemProgram<'a> {
    pub fn new(aligner: &'a Aligner, counters: &'a Counters) -> BwaMemProgram<'a> {
        BwaMemProgram {
            aligner,
            counters,
            header: aligner.index().sam_header(),
            started: false,
            mate: None,
            batch: Vec::new(),
            batch_ord: 0,
            ended: false,
        }
    }

    /// Align the batch and write its SAM text, sized for a line of seq,
    /// qual, name and ~128 bytes of other fields.
    fn align_batch(&mut self, stdout: &mut Vec<u8>) {
        let mut kernels = KernelStats::default();
        let aligned = self.aligner.align_batch(&self.batch, self.batch_ord, 1, &mut kernels);
        kernels.add_to(self.counters);
        self.batch.clear();
        self.batch_ord += 1;
        let records = aligned.iter().flat_map(|(a, b)| [a, b]);
        stdout.reserve(records.clone().map(|r| 2 * r.seq.len() + r.name.len() + 128).sum());
        for r in records {
            sam_text::write_record(stdout, r, &self.header);
        }
    }
}

/// The length of the FASTQ record `rest` starts with — four lines, or
/// at EOF whatever is left — or `None` until it has all arrived.
fn next_record(rest: &[u8], eof: bool) -> Option<usize> {
    let mut line_ends = rest.iter().enumerate().filter(|&(_, &b)| b == b'\n');
    match line_ends.nth(3) {
        Some((i, _)) => Some(i + 1),
        None => (eof && !rest.is_empty()).then_some(rest.len()),
    }
}

impl ExternalProgram for BwaMemProgram<'_> {
    fn name(&self) -> &str {
        "bwa-mem"
    }

    /// Parse whole records until the batch fills, then align it: at
    /// most one batch per step, on the grid `align_pairs_counted` cuts.
    fn step(&mut self, stdin: &[u8], eof: bool, stdout: &mut Vec<u8>) -> std::io::Result<usize> {
        if !std::mem::replace(&mut self.started, true) {
            stdout.extend_from_slice(self.header.to_text().as_bytes());
        }
        let batch_size = self.aligner.config().batch_size.max(1);
        let mut used = 0;
        while !self.ended && self.batch.len() < batch_size {
            let Some(len) = next_record(&stdin[used..], eof) else { break };
            let record = FastqReader::new(&stdin[used..used + len]).read_record().map_err(invalid)?;
            used += len;
            match (record, self.mate.take()) {
                (None, mate) => (self.ended, self.mate) = (true, mate),
                (Some(r1), None) => self.mate = Some(r1),
                (Some(r2), Some(r1)) => self.batch.push(ReadPair::new(r1, r2).map_err(invalid)?),
            }
        }
        if self.ended {
            if stdin[used..].iter().any(|&b| b != b'\n' && b != b'\r') {
                return Err(invalid("a record follows a blank line"));
            }
            used = stdin.len();
        }
        let last = eof && used == stdin.len();
        if self.batch.len() == batch_size || (last && !self.batch.is_empty()) {
            self.align_batch(stdout);
        }
        if last && self.mate.is_some() {
            return Err(invalid("interleaved file holds an odd number of records"));
        }
        Ok(used)
    }
}

/// SAM text in, BAM container bytes out (single-threaded, as in the
/// paper's Round 1 pipeline).
#[derive(Default)]
pub struct SamToBamProgram {
    /// The `@` lines so far, until the first record line parses them.
    header_text: String,
    /// The header and the file's writer, from the first record line on.
    writer: Option<(SamHeader, BamWriter)>,
}

/// A file's writer, begun with the header the `@` lines so far state.
fn begin(header_text: &str) -> std::io::Result<(SamHeader, BamWriter)> {
    let header = SamHeader::parse_text(header_text).map_err(invalid)?;
    let writer = BamWriter::new(&header);
    Ok((header, writer))
}

impl ExternalProgram for SamToBamProgram {
    fn name(&self) -> &str {
        "samtobam"
    }

    /// Parse every whole line (at EOF, the rest too) into the one
    /// writer, and write the chunks it has finished.
    fn step(&mut self, stdin: &[u8], eof: bool, stdout: &mut Vec<u8>) -> std::io::Result<usize> {
        let whole = match eof {
            true => stdin.len(),
            false => stdin.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1),
        };
        let text = std::str::from_utf8(&stdin[..whole]).map_err(invalid)?;
        for line in text.lines().filter(|l| !l.is_empty()) {
            if line.starts_with('@') {
                if self.writer.is_some() {
                    return Err(invalid("header line after alignment records"));
                }
                self.header_text.push_str(line);
                self.header_text.push('\n');
                continue;
            }
            let (header, writer) = match &mut self.writer {
                Some(started) => started,
                unstarted => unstarted.insert(begin(&self.header_text)?),
            };
            writer.write_record(&sam_text::line_to_record(line, header).map_err(invalid)?);
        }
        if eof {
            let (_, writer) = match self.writer.take() {
                Some(started) => started,
                None => begin(&self.header_text)?,
            };
            stdout.extend(writer.finish().0);
        } else if let Some((_, writer)) = &mut self.writer {
            writer.drain_into(stdout);
        }
        Ok(whole)
    }
}

/// The whole-input bodies the stepped programs replaced: each reads all
/// of its input before it writes. Round 1's bytes and kernel tallies
/// are held to their composition.
#[cfg(test)]
mod reference {
    use super::*;
    use gesall_formats::{bam, fastq};

    /// `bwa-mem`: parse every pair, align them all, format.
    pub fn bwa_mem(aligner: &Aligner, counters: &Counters, input: &[u8]) -> std::io::Result<Vec<u8>> {
        let pairs = fastq::pairs_from_interleaved_bytes(input).map_err(invalid)?;
        let header = aligner.index().sam_header();
        let (aligned, kernels) = aligner.align_pairs_counted(&pairs, 1);
        kernels.add_to(counters);
        let mut text = header.to_text().into_bytes();
        for (a, b) in &aligned {
            sam_text::write_record(&mut text, a, &header);
            sam_text::write_record(&mut text, b, &header);
        }
        Ok(text)
    }

    /// `samtobam`: parse the whole text, write one BAM.
    pub fn samtobam(input: &[u8]) -> std::io::Result<Vec<u8>> {
        let text = std::str::from_utf8(input).map_err(invalid)?;
        let (header, records) = sam_text::from_text(text).map_err(invalid)?;
        Ok(bam::write_bam(&header, &records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_aligner::{AlignerConfig, ReferenceIndex};
    use gesall_datagen::{
        donor::DonorConfig, reads::ReadSimConfig, DonorGenome, GenomeConfig, ReadSimulator,
        ReferenceGenome,
    };
    use gesall_formats::{bam, fastq};
    use gesall_mapreduce::counters::keys;
    use gesall_mapreduce::streaming::{StreamingHarness, PIPE_BUF};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The tiny genome's chromosomes and 1 400 simulated pairs of it.
    struct World {
        chroms: Vec<(String, Vec<u8>)>,
        pairs: Vec<ReadPair>,
    }

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| {
            let genome = ReferenceGenome::generate(&GenomeConfig::tiny());
            let donor = DonorGenome::generate(&genome, &DonorConfig::default());
            let reads = ReadSimConfig { n_pairs: 1_400, ..ReadSimConfig::default() };
            let (pairs, _) = ReadSimulator::new(&genome, &donor, reads).simulate();
            let chroms = (genome.chromosomes.iter()).map(|c| (c.name.clone(), c.seq.clone())).collect();
            World { chroms, pairs }
        })
    }

    fn aligner(batch_size: usize) -> Aligner {
        let config = AlignerConfig { batch_size, ..AlignerConfig::default() };
        Aligner::new(ReferenceIndex::build(&world().chroms), config)
    }

    fn fastq_of(n_pairs: usize) -> Vec<u8> {
        fastq::pairs_to_interleaved_bytes(&world().pairs[..n_pairs])
    }

    /// `bwa-mem | samtobam` through the harness: the BAM and the kernel
    /// tally.
    fn round_one(aligner: &Aligner, input: &[u8]) -> (Vec<u8>, KernelStats) {
        let kernels = Counters::new();
        let mut bwa = BwaMemProgram::new(aligner, &kernels);
        let out = StreamingHarness::new(Counters::new())
            .run_pipeline(&mut [&mut bwa, &mut SamToBamProgram::default()], input)
            .unwrap();
        (out, KernelStats::from_snapshot(&kernels.counter_snapshot()))
    }

    /// The composition of the whole-input programs: the BAM and the
    /// kernel tally.
    fn whole_input(aligner: &Aligner, input: &[u8]) -> (Vec<u8>, KernelStats) {
        let kernels = Counters::new();
        let sam = reference::bwa_mem(aligner, &kernels, input).unwrap();
        (reference::samtobam(&sam).unwrap(), KernelStats::from_snapshot(&kernels.counter_snapshot()))
    }

    #[test]
    fn bwa_pipe_to_samtobam_produces_valid_bam() {
        let aligner = aligner(AlignerConfig::default().batch_size);
        let pairs = &world().pairs[..120];
        let timers = Counters::new();
        let kernels = Counters::new();
        let mut bwa = BwaMemProgram::new(&aligner, &kernels);
        let out = StreamingHarness::new(timers.clone())
            .run_pipeline(&mut [&mut bwa, &mut SamToBamProgram::default()], &fastq_of(120))
            .unwrap();
        let (header, records) = bam::read_bam(&out).unwrap();
        assert_eq!(records.len(), 240, "two records per pair");
        assert_eq!(header.references.len(), 2);
        // Pipeline output, and the kernel tally, equal calling the
        // aligner directly.
        let (direct, tally) = aligner.align_pairs_counted(pairs, 1);
        let flat: Vec<_> = direct.into_iter().flat_map(|(a, b)| [a, b]).collect();
        assert_eq!(records, flat);
        assert_ne!(tally, KernelStats::default());
        assert_eq!(KernelStats::from_snapshot(&kernels.counter_snapshot()), tally);
        // Timings recorded for both programs.
        assert!(timers.get(keys::EXTERNAL_PROGRAM_NANOS) > 0);
    }

    #[test]
    fn round_one_equals_the_whole_input_programs_on_and_off_the_batch_grid() {
        let batch = 8;
        let aligner = aligner(batch);
        for n in [0, 1, batch, batch + 1, 3 * batch + 7] {
            let input = fastq_of(n);
            let (out, tally) = round_one(&aligner, &input);
            let (want, want_tally) = whole_input(&aligner, &input);
            assert!(out == want, "{n} pairs: BAM bytes");
            assert_eq!(tally, want_tally, "{n} pairs: kernel tally");
            assert_eq!(bam::read_bam(&out).unwrap().1.len(), 2 * n);
        }
    }

    /// Records the largest stdin a program is handed and the most one
    /// of its steps writes.
    struct Peaks<'a> {
        inner: &'a mut dyn ExternalProgram,
        stdin: usize,
        wrote: usize,
    }
    impl ExternalProgram for Peaks<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn step(&mut self, stdin: &[u8], eof: bool, stdout: &mut Vec<u8>) -> std::io::Result<usize> {
            let before = stdout.len();
            let used = self.inner.step(stdin, eof, stdout)?;
            self.stdin = self.stdin.max(stdin.len());
            self.wrote = self.wrote.max(stdout.len() - before);
            Ok(used)
        }
    }

    /// `[bwa-mem, samtobam]`'s `[largest stdin, largest step output]`,
    /// and the pipeline's `[FASTQ, SAM, BAM]` sizes.
    fn peaks(aligner: &Aligner, input: &[u8]) -> ([[usize; 2]; 2], [usize; 3]) {
        let kernels = Counters::new();
        let (mut bwa, mut samtobam) = (BwaMemProgram::new(aligner, &kernels), SamToBamProgram::default());
        let mut bwa = Peaks { inner: &mut bwa, stdin: 0, wrote: 0 };
        let mut samtobam = Peaks { inner: &mut samtobam, stdin: 0, wrote: 0 };
        let harness = StreamingHarness::new(Counters::new());
        let out = harness.run_pipeline(&mut [&mut bwa, &mut samtobam], input).unwrap();
        let sam = reference::bwa_mem(aligner, &Counters::new(), input).unwrap();
        ([[bwa.stdin, bwa.wrote], [samtobam.stdin, samtobam.wrote]], [input.len(), sam.len(), out.len()])
    }

    #[test]
    fn a_step_holds_a_batch_whatever_the_partition() {
        // A batch of 150 pairs is more FASTQ than a pipe buffer holds.
        let batch = 150;
        let aligner = aligner(batch);
        let (one, one_sizes) = peaks(&aligner, &fastq_of(batch));
        let (eight, eight_sizes) = peaks(&aligner, &fastq_of(8 * batch));
        assert!(one_sizes[0] > PIPE_BUF);
        assert_eq!([one[0][0], eight[0][0]], [PIPE_BUF; 2], "bwa-mem is handed a pipe buffer at a time");
        // What one step hands on, and what the next program is handed,
        // is one batch's: the same, within one batch's bytes of that
        // stream, for eight batches as for one.
        let within = |got: usize, want: usize, batch_bytes: usize, what: &str| {
            assert!(got.abs_diff(want) <= batch_bytes, "{what}: {got} against {want} (one batch: {batch_bytes})");
        };
        within(eight[0][1], one[0][1], one_sizes[1], "bwa-mem's largest step");
        within(eight[1][0], one[1][0], one_sizes[1], "samtobam's largest stdin");
        within(eight[1][1], one[1][1], one_sizes[2], "samtobam's largest step");
        // And not the partition.
        assert!(eight[0][1] < eight_sizes[1] / 4 && eight[1][0] < eight_sizes[1] / 4);
        assert!(eight[1][1] < eight_sizes[2] / 3);
    }

    /// Step `program` over `input` handed in pieces ending at `cuts`, as
    /// the harness hands it: each time, what it has not used and the
    /// next piece.
    fn drive(program: &mut dyn ExternalProgram, input: &[u8], cuts: &[usize]) -> std::io::Result<Vec<u8>> {
        let mut ends: Vec<usize> = cuts.iter().map(|c| c % (input.len() + 1)).collect();
        ends.push(input.len());
        ends.sort_unstable();
        let (mut used, mut out) = (0, Vec::new());
        for end in ends {
            let eof = end == input.len();
            while used < end || eof {
                let n = program.step(&input[used..end], eof, &mut out)?;
                used += n;
                if eof && used == end {
                    return Ok(out);
                }
                if n == 0 {
                    assert!(!eof, "{} used nothing at EOF", program.name());
                    break;
                }
            }
        }
        unreachable!("the last piece ends the input")
    }

    fn crlf(text: &[u8]) -> Vec<u8> {
        text.split_inclusive(|&b| b == b'\n')
            .flat_map(|line| match line.strip_suffix(b"\n") {
                Some(line) => [line, b"\r\n"],
                None => [line, b""],
            })
            .flatten()
            .copied()
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn any_cut_of_the_input_gives_the_whole_input_bytes(
            n in 0usize..12,
            cuts in vec(any::<usize>(), 0..16),
            line_cuts in vec(any::<usize>(), 0..8),
            dos in any::<bool>(),
        ) {
            static ALIGNER: OnceLock<Aligner> = OnceLock::new();
            let aligner = ALIGNER.get_or_init(|| aligner(4));
            let fastq = fastq_of(n);
            let fastq = if dos { crlf(&fastq) } else { fastq };
            // Cuts anywhere, and cuts just inside a line end (between a
            // `\r` and its `\n`, or before a `\n`).
            let mut cuts = cuts;
            let ends: Vec<usize> = (fastq.iter().enumerate()).filter(|&(_, &b)| b == b'\n').map(|(i, _)| i).collect();
            cuts.extend(line_cuts.iter().filter(|_| !ends.is_empty()).map(|c| ends[c % ends.len()]));
            let kernels = Counters::new();
            let sam = drive(&mut BwaMemProgram::new(aligner, &kernels), &fastq, &cuts).unwrap();
            let want_kernels = Counters::new();
            let want_sam = reference::bwa_mem(aligner, &want_kernels, &fastq).unwrap();
            prop_assert!(sam == want_sam, "bwa-mem's SAM text");
            prop_assert_eq!(kernels.counter_snapshot(), want_kernels.counter_snapshot());
            let sam = if dos { crlf(&sam) } else { sam };
            let bam = drive(&mut SamToBamProgram::default(), &sam, &cuts).unwrap();
            prop_assert!(bam == reference::samtobam(&sam).unwrap(), "samtobam's BAM");
        }

        #[test]
        fn hostile_bytes_are_an_error_naming_the_program_never_a_panic(
            noise in vec(any::<u8>(), 0..300),
            at in any::<usize>(),
            keep in any::<usize>(),
            cuts in vec(any::<usize>(), 0..8),
        ) {
            static ALIGNER: OnceLock<Aligner> = OnceLock::new();
            let aligner = ALIGNER.get_or_init(|| aligner(4));
            let fastq = fastq_of(3);
            let sam = reference::bwa_mem(aligner, &Counters::new(), &fastq).unwrap();
            // Noise alone, noise spliced into valid input, and valid
            // input cut short.
            let spliced = |valid: &[u8]| {
                let at = at % (valid.len() + 1);
                [&valid[..at], &noise[..], &valid[at..]].concat()
            };
            let inputs = |valid: &[u8]| [noise.clone(), spliced(valid), valid[..keep % (valid.len() + 1)].to_vec()];
            let kernels = Counters::new();
            let fresh = |name: &str| -> Box<dyn ExternalProgram + '_> {
                match name {
                    "bwa-mem" => Box::new(BwaMemProgram::new(aligner, &kernels)),
                    _ => Box::new(SamToBamProgram::default()),
                }
            };
            let runs = [("bwa-mem", inputs(&fastq)), ("samtobam", inputs(&sam))];
            for (name, input) in runs.iter().flat_map(|(name, inputs)| inputs.iter().map(move |i| (*name, i))) {
                // Stepped over cuts with no harness around it, a panic
                // fails the test.
                let direct = drive(&mut *fresh(name), input, &cuts);
                match StreamingHarness::new(Counters::new()).run_pipeline(&mut [&mut *fresh(name)], input) {
                    Ok(out) => prop_assert!(direct.is_ok_and(|d| d == out), "{name}: the cuts changed the output"),
                    Err(e) => {
                        prop_assert!(direct.is_err(), "{name}: an error only under the harness: {e}");
                        prop_assert_eq!(e.kind(), ErrorKind::InvalidData, "{}: {}", name, e);
                        prop_assert!(e.to_string().contains(&format!("'{name}' failed")), "{}", e);
                    }
                }
            }
        }
    }

    /// The pipeline's error, which must name the program that failed.
    fn failure(programs: &mut [&mut dyn ExternalProgram], input: &[u8]) -> String {
        let harness = StreamingHarness::new(Counters::new());
        let err = harness.run_pipeline(programs, input).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn bwa_rejects_garbage_input() {
        let aligner = aligner(AlignerConfig::default().batch_size);
        let counters = Counters::new();
        let msg = failure(&mut [&mut BwaMemProgram::new(&aligner, &counters)], b"not fastq at all");
        assert!(msg.contains("'bwa-mem'"), "unexpected error: {msg}");
    }

    #[test]
    fn bwa_rejects_a_record_after_a_blank_line() {
        let aligner = aligner(AlignerConfig::default().batch_size);
        let fastq = fastq_of(3);
        let second = fastq.iter().enumerate().filter(|&(_, &b)| b == b'\n').nth(7).unwrap().0 + 1;
        // The blank line's record parses with it, or (six blank lines)
        // arrives after the FASTQ has ended.
        for blanks in [&b"\n"[..], b"\r\n", b"\n\n\n\n\n\n"] {
            let input = [&fastq[..second], blanks, &fastq[second..]].concat();
            let counters = Counters::new();
            let msg = failure(&mut [&mut BwaMemProgram::new(&aligner, &counters)], &input);
            assert!(msg.contains("'bwa-mem'"), "unexpected error: {msg}");
        }
        // Blank lines at the very end are no records.
        let (want, _) = round_one(&aligner, &fastq);
        for tail in [&b"\n\n"[..], b"\r\n\r\n\n\n\n\n"] {
            assert!(round_one(&aligner, &[&fastq[..], tail].concat()).0 == want, "{tail:?}");
        }
    }

    #[test]
    fn samtobam_rejects_garbage() {
        let msg = failure(&mut [&mut SamToBamProgram::default()], b"bogus\tsam");
        assert!(msg.contains("'samtobam'"), "unexpected error: {msg}");
    }
}
