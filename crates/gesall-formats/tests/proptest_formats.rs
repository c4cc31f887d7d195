//! Property-based tests of the format layer's core invariants:
//! every serializer/deserializer pair must round-trip arbitrary inputs,
//! and the codec must never corrupt data regardless of content.

use gesall_formats::bam;
use gesall_formats::compress::{compress, crc32, decompress, Codec};
use gesall_formats::seq_codec;
use gesall_formats::fastq::{self, FastqRecord, ReadPair};
use gesall_formats::sam::cigar::{Cigar, CigarOp};
use gesall_formats::sam::header::{ReferenceSeq, SamHeader};
use gesall_formats::sam::text as sam_text;
use gesall_formats::sam::{Flags, SamRecord, SamView};
use gesall_formats::wire::{Cursor, Wire};
use gesall_formats::{FormatError, SharedBytes};
use proptest::prelude::*;

/// The parent commit's SAM text formatter and parser.
#[path = "../src/sam/text/reference.rs"]
mod sam_text_reference;

fn arb_dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')], 1..max_len)
}

fn arb_qual(len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..60, len..=len)
}

prop_compose! {
    fn arb_read()(seq in arb_dna(200))(
        qual in arb_qual(seq.len()),
        seq in Just(seq),
        name in "[a-zA-Z0-9_:/]{1,30}",
    ) -> FastqRecord {
        FastqRecord { name, seq, qual }
    }
}

fn arb_cigar_ops() -> impl Strategy<Value = Vec<CigarOp>> {
    // Structurally valid: optional clips around a M/I/D core starting
    // and ending with M.
    (
        proptest::option::of(1u32..30),
        proptest::collection::vec((1u32..50, 0u8..3), 1..6),
        proptest::option::of(1u32..30),
    )
        .prop_map(|(lead, core, trail)| {
            let mut ops = Vec::new();
            if let Some(n) = lead {
                ops.push(CigarOp::SoftClip(n));
            }
            ops.push(CigarOp::Match(10));
            for (n, kind) in core {
                match kind {
                    0 => ops.push(CigarOp::Match(n)),
                    1 => {
                        ops.push(CigarOp::Ins(n));
                        ops.push(CigarOp::Match(1));
                    }
                    _ => {
                        ops.push(CigarOp::Del(n));
                        ops.push(CigarOp::Match(1));
                    }
                }
            }
            if let Some(n) = trail {
                ops.push(CigarOp::SoftClip(n));
            }
            ops
        })
}

prop_compose! {
    fn arb_sam_record()(
        cigar_ops in arb_cigar_ops(),
        name in "[a-zA-Z0-9_]{1,24}",
        pos in 1i64..1_000_000,
        mapq in 0u8..=60,
        flag_bits in 0u16..0x400,
        rg in proptest::option::of("[a-z0-9]{1,8}"),
        score in -50i32..200,
        nm in 0u32..30,
    ) -> SamRecord {
        let cigar = Cigar(cigar_ops);
        let qlen = cigar.query_len() as usize;
        let mut r = SamRecord::unmapped(name, vec![b'A'; qlen], vec![30; qlen]);
        // Keep it mapped & primary-paired-ish but fuzz other flags.
        let mut flags = Flags(flag_bits & !(Flags::UNMAPPED | Flags::SECONDARY | Flags::SUPPLEMENTARY));
        flags.set(Flags::UNMAPPED, false);
        r.flags = flags;
        r.ref_id = 0;
        r.pos = pos;
        r.mapq = mapq;
        r.cigar = cigar;
        r.read_group = rg.unwrap_or_default();
        r.alignment_score = score;
        r.edit_distance = nm;
        r
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let c = compress(&data);
        let d = decompress(&c).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn seq_codec_roundtrips_any_records(
        // Arbitrary record-shaped streams: bases (with N stretches),
        // quality strings (possibly empty), varint position runs, and
        // raw junk, concatenated in random order.
        chunks in proptest::collection::vec(
            prop_oneof![
                // Base stretch, N-contaminated.
                (arb_dna(300), proptest::collection::vec(0usize..4096, 0..8))
                    .prop_map(|(mut seq, ns)| {
                        let len = seq.len();
                        for ix in ns {
                            seq[ix % len] = b'N';
                        }
                        seq
                    }),
                // Quality string: binned or noisy, possibly empty.
                proptest::collection::vec(0u8..60, 0..200),
                // Sorted-ish position run, varint encoded.
                (1u64..1_000_000_000, proptest::collection::vec(0u64..10_000, 0..40))
                    .prop_map(|(start, deltas)| {
                        let mut buf = Vec::new();
                        let mut pos = start;
                        for d in deltas {
                            pos = pos.wrapping_add(d);
                            gesall_formats::wire::put_varint(&mut buf, pos);
                        }
                        buf
                    }),
                // Arbitrary bytes.
                proptest::collection::vec(any::<u8>(), 0..120),
            ],
            0..12,
        )
    ) {
        let data: Vec<u8> = chunks.concat();
        let c = seq_codec::compress(&data);
        prop_assert_eq!(seq_codec::decompress(&c).unwrap(), data.clone());
        // And through the registry dispatch every codec must agree.
        for &codec in Codec::registry() {
            let mut enc = Vec::new();
            codec.encode_append(&data, &mut enc);
            let dec = if codec.is_compressed() { codec.decode(&enc).unwrap() } else { enc };
            prop_assert_eq!(dec, data.clone());
        }
    }

    #[test]
    fn codec_roundtrips_repetitive_dna(unit in arb_dna(40), reps in 1usize..200) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn crc_detects_single_bit_flips(data in proptest::collection::vec(any::<u8>(), 1..512), bit in 0usize..4096) {
        let mut mutated = data.clone();
        let i = (bit / 8) % mutated.len();
        mutated[i] ^= 1 << (bit % 8);
        // A single flipped bit must change the CRC.
        prop_assert_ne!(crc32(&data), crc32(&mutated));
    }

    #[test]
    fn sam_record_wire_roundtrip(rec in arb_sam_record()) {
        let bytes = rec.to_wire_bytes();
        let back = SamRecord::from_wire_bytes(&bytes).unwrap();
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn cigar_text_roundtrip(ops in arb_cigar_ops()) {
        let c = Cigar(ops);
        let parsed = Cigar::parse(&c.to_string()).unwrap();
        prop_assert_eq!(&parsed, &c);
        // Derived attributes are consistent.
        prop_assert_eq!(
            c.unclipped_start(1000) + c.leading_clip() as i64,
            1000
        );
        prop_assert!(c.unclipped_end(1000) >= 1000);
    }

    #[test]
    fn fastq_text_roundtrip(reads in proptest::collection::vec(arb_read(), 1..20)) {
        let bytes = fastq::to_bytes(&reads);
        let parsed = fastq::from_bytes(&bytes).unwrap();
        prop_assert_eq!(parsed, reads);
    }

    #[test]
    fn interleaved_pairs_roundtrip(reads in proptest::collection::vec(arb_read(), 1..12)) {
        let pairs: Vec<ReadPair> = reads
            .into_iter()
            .map(|r| {
                let mut r2 = r.clone();
                r2.seq.reverse();
                r2.qual.reverse();
                ReadPair::new(r, r2).unwrap()
            })
            .collect();
        let bytes = fastq::pairs_to_interleaved_bytes(&pairs);
        let back = fastq::pairs_from_interleaved_bytes(&bytes).unwrap();
        prop_assert_eq!(back, pairs);
    }

    #[test]
    fn bam_roundtrip_preserves_records(records in proptest::collection::vec(arb_sam_record(), 0..60)) {
        let header = SamHeader::new(vec![ReferenceSeq { name: "chr1".into(), len: 2_000_000 }]);
        let bytes = bam::write_bam(&header, &records);
        let (h2, r2) = bam::read_bam(&bytes).unwrap();
        prop_assert_eq!(h2, header);
        prop_assert_eq!(r2, records);
    }

    #[test]
    fn partition_split_is_a_partition(n_pairs in 0usize..200, parts in 1usize..16) {
        let pairs: Vec<ReadPair> = (0..n_pairs)
            .map(|i| {
                let r = FastqRecord { name: format!("p{i}"), seq: b"ACGT".to_vec(), qual: vec![30; 4] };
                ReadPair::new(r.clone(), r).unwrap()
            })
            .collect();
        let split = fastq::split_pairs_into_partitions(pairs.clone(), parts);
        prop_assert_eq!(split.len(), parts);
        let flat: Vec<ReadPair> = split.concat();
        prop_assert_eq!(flat, pairs); // order-preserving, lossless
    }
}

// ---- The BAM container on hostile bytes: `Ok | Err(FormatError)`, never
// a panic, never a reservation the input does not justify.

/// Drive every BAM reader over `file` (as a whole file, as pieces cut at
/// `cuts`, as one frame, as a frame list and as a record-chunk payload)
/// and over `index`. Returning at all is the property; what came back
/// is for the caller.
fn drive_bam_readers(file: &[u8], index: &[u8], cuts: &[usize]) -> Option<Vec<SamRecord>> {
    let _ = bam::decode_frame(file);
    let _ = bam::read_chunk_set(&[file, file]);
    let _ = bam::is_whole_file(file);
    let payload = bam::Chunk { kind: bam::KIND_RECORDS, raw: file.to_vec() };
    let mut hits = Vec::new();
    let _ = payload.records_overlapping(0, 1, 1 << 40, &mut hits);
    match (payload.clone().into_views(|_| {}), payload.records()) {
        (Ok(views), Ok(records)) => {
            assert_eq!(views.iter().map(SamView::to_record).collect::<Vec<_>>(), records)
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!("views {:?}, records {:?}", a.map(|v| v.len()), b.map(|r| r.len())),
    }
    let _ = bam::Chunk { kind: bam::KIND_HEADER, raw: file.to_vec() }.header();
    if let Ok(index) = bam::BamIndex::from_bytes(index) {
        for (ref_id, start, end) in [(0, 1, 1 << 40), (0, i64::MIN, i64::MAX), (-1, 0, 0)] {
            let frame_at = |offset: u64, len: u64| {
                let frame = file.get(offset as usize..).and_then(|f| f.get(..len as usize));
                frame.ok_or_else(|| FormatError::Bam("index points past end of file".into()))
            };
            if let Ok(hits) = bam::read_region(&index, ref_id, start, end, frame_at) {
                assert!(hits.iter().all(|r| r.overlaps(ref_id, start, end)));
            }
        }
    }
    let read = bam::read_bam(file).ok();
    // The walker over the file in pieces finds the frames `read_bam`
    // walks, whatever straddles the cuts.
    assert_eq!(walk_pieces(file, cuts), read, "cut at {cuts:?}");
    let records = read.map(|(_, records)| records);
    let views = bam::read_bam_views(file, |_| {}).ok().map(|(_, views)| views);
    assert_eq!(views.map(|v| v.iter().map(SamView::to_record).collect()), records);
    records
}

/// `file` cut at `cuts` (each taken modulo the file's length plus one;
/// repeats make empty pieces) and read back through `bam::FrameWalker`.
fn walk_pieces(file: &[u8], cuts: &[usize]) -> Option<(SamHeader, Vec<SamRecord>)> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (file.len() + 1)).collect();
    at.extend([0, file.len()]);
    at.sort_unstable();
    let mut walker = bam::FrameWalker::default();
    for piece in at.windows(2) {
        walker.push(SharedBytes::copy_from_slice(&file[piece[0]..piece[1]]));
    }
    bam::read_chunk_set(&walker.finish().ok()?).ok()
}

/// A file's frames as the walker finds them in one piece, or its error.
fn walk(file: &[u8]) -> Result<Vec<SharedBytes>, FormatError> {
    let mut walker = bam::FrameWalker::default();
    walker.push(SharedBytes::copy_from_slice(file));
    walker.finish()
}

/// `SamView::decode` against `SamRecord::decode` on one buffer: the same
/// outcome, the same stopping point, and every field a view reads equal
/// to the owned record's.
fn view_decodes_as_the_record_does(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (mut vc, mut rc) = (Cursor::new(bytes), Cursor::new(bytes));
    match (SamView::decode(&mut vc), SamRecord::decode(&mut rc)) {
        (Ok(v), Ok(r)) => {
            prop_assert_eq!(vc.remaining(), rc.remaining());
            let used = bytes.len() - vc.remaining();
            prop_assert!(used >= SamView::MIN_ENCODED_LEN);
            prop_assert_eq!(v.as_bytes(), &bytes[..used]);
            prop_assert_eq!(v.encoded_len(), used);
            prop_assert_eq!(v.name(), r.name.as_str());
            prop_assert_eq!(v.flags(), r.flags);
            prop_assert_eq!((v.ref_id(), v.pos()), (r.ref_id, r.pos));
            prop_assert_eq!(v.seq(), &r.seq[..]);
            prop_assert_eq!(v.qual(), &r.qual[..]);
            prop_assert_eq!(v.read_group(), r.read_group.as_str());
            prop_assert_eq!(v.is_mapped(), r.is_mapped());
            prop_assert_eq!(v.coordinate_key(), r.coordinate_key());
            prop_assert_eq!(v.end_pos(), r.end_pos());
            prop_assert_eq!(v.unclipped_5p_end(), r.unclipped_5p_end());
            prop_assert_eq!(v.strand(), r.strand());
            prop_assert_eq!(v.quality_sum(), r.quality_sum());
            prop_assert_eq!(v.to_record(), r);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
        (a, b) => prop_assert!(false, "view {:?}, record {:?}", a, b.map(|r| r.name)),
    }
    Ok(())
}

/// A well-formed frame (right lengths, right CRC) around any payload:
/// what gets a hostile payload past the frame checks.
fn frame_around(kind: u8, raw: &[u8]) -> Vec<u8> {
    let comp = compress(raw);
    let mut frame = vec![kind];
    frame.extend_from_slice(&(comp.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(raw).to_le_bytes());
    frame.extend_from_slice(&comp);
    frame
}

/// A two-record-chunk file small enough to corrupt at every byte: long
/// constant reads, so a 64 KiB chunk is 33 records and a few hundred
/// compressed bytes.
fn two_chunk_file() -> (Vec<u8>, bam::BamIndex, Vec<SamRecord>) {
    let header = SamHeader::new(vec![ReferenceSeq { name: "chr1".into(), len: 2_000_000 }]);
    let records: Vec<SamRecord> = (0..40)
        .map(|i| {
            let mut r = SamRecord::unmapped(format!("r{i}"), vec![b'A'; 1_000], vec![30; 1_000]);
            r.flags = Flags(Flags::PAIRED);
            r.ref_id = 0;
            r.pos = 1 + i * 500;
            r.cigar = Cigar(vec![CigarOp::Match(1_000)]);
            r
        })
        .collect();
    let (file, index) = bam::write_bam_indexed(&header, &records);
    assert_eq!(index.entries.len(), 2);
    (file, index, records)
}

#[test]
fn bam_readers_are_total_on_every_flip_and_cut_of_a_file_and_its_index() {
    let (file, index, records) = two_chunk_file();
    let index = index.to_bytes();
    assert_eq!(drive_bam_readers(&file, &index, &[]), Some(records.clone()));
    for at in 0..file.len() {
        // Pieces cut at, around and well away from the changed byte.
        let cuts = [at, at + 1, at / 2, at + 13, at * 7 + 3];
        for flip in [0x01, 0x80, 0xff] {
            let mut bad = file.clone();
            bad[at] ^= flip;
            // The CRC, the lengths and the grammar between them leave no
            // byte of a file free to change unnoticed.
            assert_eq!(drive_bam_readers(&bad, &index, &cuts), None, "byte {at} ^ {flip:#x}");
        }
        if let Some(cut) = drive_bam_readers(&file[..at], &index, &cuts) {
            // A cut on a frame boundary is a shorter valid file.
            assert!(records.starts_with(&cut), "cut at {at}");
        }
    }
    for at in 0..index.len() {
        for flip in [0x01, 0x80, 0xff] {
            let mut bad = index.clone();
            bad[at] ^= flip;
            drive_bam_readers(&file, &bad, &[at]);
        }
        drive_bam_readers(&file, &index[..at], &[at]);
    }
}

#[test]
fn forged_frame_lengths_are_errors_before_they_are_allocations() {
    let (file, index, _) = two_chunk_file();
    let header_len = index.entries[0].offset as usize;
    for forged_len in [u32::MAX, 1 << 30, (1 << 30) + 1] {
        // raw_len, then comp_len, of the first record chunk.
        for field in [5, 1] {
            let mut bad = file.clone();
            bad[header_len + field..header_len + field + 4].copy_from_slice(&forged_len.to_le_bytes());
            assert!(bam::read_bam(&bad).is_err());
            assert!(bam::decode_frame(&bad[header_len..]).is_err());
            assert!(walk(&bad).is_err() || field == 5);
            assert!(walk_pieces(&bad, &[header_len + 3, header_len + 9]).is_none());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bam_readers_are_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        kind in 0u8..3,
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        drive_bam_readers(&bytes, &bytes, &cuts);
        // The same bytes as the payload of a frame that checks out, alone
        // and behind a real header chunk.
        let framed = frame_around(kind, &bytes);
        drive_bam_readers(&framed, &bytes, &cuts);
        let (file, index, _) = two_chunk_file();
        let header_len = index.entries[0].offset as usize;
        let mut behind_header = file[..header_len].to_vec();
        behind_header.extend_from_slice(&framed);
        drive_bam_readers(&behind_header, &bytes, &cuts);
    }

    #[test]
    fn bam_readers_are_total_on_forged_records(
        records in proptest::collection::vec(arb_sam_record(), 1..6),
        at in any::<usize>(),
        byte in any::<u8>(),
        count in 0u64..9,
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        // A chunk payload with one byte, or its record count, forged —
        // inside a frame whose CRC vouches for it.
        let mut raw = records.to_wire_bytes();
        let at = at % raw.len();
        raw[at] = byte;
        drive_bam_readers(&frame_around(bam::KIND_RECORDS, &raw), &raw, &cuts);
        raw[0] = count as u8;
        drive_bam_readers(&raw, &raw, &cuts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_view_decodes_arbitrary_bytes_as_the_owned_record_does(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        prop_assert_eq!(SamView::MIN_ENCODED_LEN, 14);
        prop_assert_eq!(SamView::MIN_ENCODED_LEN, SamRecord::MIN_ENCODED_LEN);
        view_decodes_as_the_record_does(&bytes)?;
    }

    #[test]
    fn a_view_decodes_forged_records_as_the_owned_record_does(
        rec in arb_sam_record(),
        unmapped in any::<bool>(),
        at in any::<usize>(),
        byte in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let mut rec = rec;
        rec.flags.set(Flags::UNMAPPED, unmapped);
        let mut bytes = rec.to_wire_bytes();
        view_decodes_as_the_record_does(&bytes)?;
        prop_assert_eq!(SamView::from_wire_bytes(&bytes).unwrap().to_wire_bytes(), bytes.clone());
        view_decodes_as_the_record_does(&bytes[..cut % bytes.len()])?;
        let at = at % bytes.len();
        bytes[at] = byte;
        view_decodes_as_the_record_does(&bytes)?;
    }
}

/// Bytes of which half are the FASTQ / SAM-text grammar's own punctuation
/// and letters, so a random string reaches past the first line check.
fn arb_text_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    const GRAMMAR: &[u8] = b"@+\n\t:*=-ACGTNMIDS0123456789";
    let token = prop_oneof![(0..GRAMMAR.len()).prop_map(|i| GRAMMAR[i]), any::<u8>()];
    proptest::collection::vec(token, 0..max_len)
}

/// `text` with byte `at` replaced, then cut at `cut`.
fn forge(text: &[u8], at: usize, byte: u8, cut: usize) -> Vec<u8> {
    let mut bad = text.to_vec();
    if !bad.is_empty() {
        let at = at % bad.len();
        bad[at] = byte;
        bad.truncate(cut % (bad.len() + 1));
    }
    bad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // The wrapped programs' stdin parsers: `bwa-mem` reads interleaved
    // FASTQ, `samtobam` SAM text. Whatever arrives, each returns `Ok` or
    // `Err`; a panic would crash the task attempt instead.

    #[test]
    fn fastq_reader_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        text in arb_text_bytes(400),
        reads in proptest::collection::vec(arb_read(), 1..5),
        at in any::<usize>(),
        byte in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let _ = fastq::pairs_from_interleaved_bytes(&bytes);
        let _ = fastq::pairs_from_interleaved_bytes(&text);
        let real = fastq::to_bytes(&reads);
        let _ = fastq::pairs_from_interleaved_bytes(&forge(&real, at, byte, cut));
    }

    #[test]
    fn sam_text_reader_is_total_on_arbitrary_strings(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        text in arb_text_bytes(400),
        records in proptest::collection::vec(arb_sam_record(), 0..4),
        at in any::<usize>(),
        byte in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let _ = sam_text::from_text(&String::from_utf8_lossy(&bytes));
        let _ = sam_text::from_text(&String::from_utf8_lossy(&text));
        let header = SamHeader::new(vec![ReferenceSeq { name: "chr1".into(), len: 2_000_000 }]);
        let real = sam_text::to_text(&header, &records).into_bytes();
        let _ = sam_text::from_text(&String::from_utf8_lossy(&forge(&real, at, byte, cut)));
    }
}

/// A number that is often an edge: zero, one, the type's extremes.
fn arb_edge_i64() -> impl Strategy<Value = i64> {
    prop_oneof![Just(0i64), Just(-1), Just(i64::MIN), Just(i64::MAX), -1_000i64..1_000_000, any::<i64>()]
}

prop_compose! {
    /// A record with every field at large: names and read groups with
    /// tabs and multi-byte characters, or empty; seq of any bytes (not
    /// UTF-8 included) or empty; qualities past 93 or none; negative
    /// positions and template lengths; reference ids in, out of and
    /// past the dictionary, mates on the same reference or not.
    fn arb_any_record()(
        name in prop_oneof![Just(String::new()), "[ -~\té☃]{0,12}".boxed()],
        flags in any::<u16>(),
        refs in (-2i32..4, prop_oneof![Just(None), (-2i32..4).prop_map(Some)]),
        coords in (arb_edge_i64(), any::<u8>(), arb_edge_i64(), arb_edge_i64()),
        cigar_ops in prop_oneof![Just(Vec::new()), arb_cigar_ops()],
        seq in prop_oneof![
            Just(Vec::new()),
            arb_dna(40),
            proptest::collection::vec(prop_oneof![Just(b'N'), Just(b'a'), Just(0xFFu8), Just(0xC3u8), any::<u8>()], 0..20),
        ],
        qual in prop_oneof![Just(Vec::new()), proptest::collection::vec(any::<u8>(), 0..40)],
        tags in (
            prop_oneof![Just(String::new()), "[a-z0-9\t:]{1,8}".boxed()],
            prop_oneof![Just(0i32), Just(i32::MIN), any::<i32>()],
            prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
        ),
    ) -> SamRecord {
        let (ref_id, mate) = refs;
        let (pos, mapq, mate_pos, tlen) = coords;
        let (read_group, alignment_score, edit_distance) = tags;
        SamRecord {
            name,
            flags: Flags(flags),
            ref_id,
            pos,
            mapq,
            cigar: Cigar(cigar_ops),
            mate_ref_id: mate.unwrap_or(ref_id),
            mate_pos,
            tlen,
            seq,
            qual,
            read_group,
            alignment_score,
            edit_distance,
        }
    }
}

/// `line_to_record` answers `line` as the parent's parser does: the same
/// record, or an error from both.
fn parses_as_the_parent(line: &str, header: &SamHeader) -> Result<(), TestCaseError> {
    match (sam_text::line_to_record(line, header), sam_text_reference::line_to_record(line, header)) {
        (Ok(ours), Ok(parents)) => prop_assert_eq!(ours, parents, "{:?}", line),
        (Err(_), Err(_)) => {}
        (ours, parents) => prop_assert!(false, "{:?}: {:?}, the parent {:?}", line, ours, parents),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    // SAM text is the `bwa-mem | samtobam` pipe's format (Fig. 8): every
    // record is written byte for byte as the parent's formatter wrote
    // it, and every line — written, forged or arbitrary — parses to the
    // parent's record, or fails where the parent's parser fails.
    #[test]
    fn sam_text_formats_and_parses_as_the_parent(
        records in proptest::collection::vec(prop_oneof![arb_any_record(), arb_sam_record()], 1..4),
        text in arb_text_bytes(200),
        at in any::<usize>(),
        byte in prop_oneof![
            prop_oneof![Just(b'\t'), Just(b'*'), Just(b'='), Just(b'-')],
            prop_oneof![Just(b' '), Just(b'!'), Just(b'~'), Just(0x7F)],
            any::<u8>(),
        ],
        cut in any::<usize>(),
    ) {
        let header = SamHeader::new(vec![
            ReferenceSeq { name: "chr1".into(), len: 2_000_000 },
            ReferenceSeq { name: "chr2".into(), len: 1_000 },
        ]);
        let mut written = Vec::new();
        for rec in &records {
            let mark = written.len();
            sam_text::write_record(&mut written, rec, &header);
            let mut want = sam_text_reference::record_to_line(rec, &header).into_bytes();
            want.push(b'\n');
            prop_assert_eq!(&written[mark..], &want[..]);
        }
        let text_out = sam_text::to_text(&header, &records);
        prop_assert_eq!(text_out.as_bytes(), [header.to_text().as_bytes(), &written].concat());
        for line in String::from_utf8(written.clone()).unwrap().lines() {
            parses_as_the_parent(line, &header)?;
        }
        let forged = String::from_utf8_lossy(&forge(&written, at, byte, cut)).into_owned();
        for line in forged.lines() {
            parses_as_the_parent(line, &header)?;
        }
        for line in String::from_utf8_lossy(&text).lines() {
            parses_as_the_parent(line, &header)?;
        }
    }
}
