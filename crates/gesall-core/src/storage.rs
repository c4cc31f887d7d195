//! The distributed storage substrate for BAM datasets (paper §3.1).
//!
//! Two features:
//!
//! 1. **Chunk-aware reading over blocks.** The DFS splits a BAM byte
//!    stream at block boundaries with no knowledge of chunk framing, so
//!    the last chunk in a block may continue in the next block. The
//!    [`BlockFrameReader`] reassembles complete chunk frames from a block
//!    sequence — the custom `RecordReader` of the paper.
//! 2. **Logical partitions.** [`upload_indexed_bam_partition`] writes a
//!    partition file whose blocks are pinned to one node (the custom
//!    `BlockPlacementPolicy`), so a wrapped single-node program can read
//!    its whole partition locally. (The pipeline places its own stage
//!    outputs the same way — `pipeline.rs`' `place`.)

use crate::error::{PlatformError, Result};
use gesall_dfs::Dfs;
use gesall_formats::bam::{self, ChunkSetReader, FrameHeader, FRAME_HEADER_LEN};
use gesall_formats::sam::{SamHeader, SamRecord};
use gesall_formats::SharedBytes;

/// Reassembles chunk frames from a sequence of DFS blocks, tolerating
/// frames that straddle block boundaries.
///
/// Frames wholly inside one block are returned as zero-copy slices of
/// that block's shared backing; only frames that straddle a boundary
/// are stitched through the carry buffer (and charged to
/// [`BlockFrameReader::bytes_copied`]).
pub struct BlockFrameReader {
    carry: Vec<u8>,
    frames: Vec<SharedBytes>,
    /// Number of frames that straddled a block boundary.
    pub straddled: usize,
    /// Payload bytes memcpy'd while reassembling (carry buffering of
    /// straddling frames only). Callers surface this into the DFS's
    /// `mem.bytes.copied` gauge.
    pub bytes_copied: u64,
}

impl BlockFrameReader {
    pub fn new() -> BlockFrameReader {
        BlockFrameReader {
            carry: Vec::new(),
            frames: Vec::new(),
            straddled: 0,
            bytes_copied: 0,
        }
    }

    /// Feed the next block.
    pub fn push_block(&mut self, block: SharedBytes) {
        let mut pos = 0usize;
        if !self.carry.is_empty() {
            // A frame left straddling by the previous block: top the
            // carry up until the frame (or the block) runs out. An
            // unparseable carry swallows the rest so `finish` reports it.
            loop {
                let need = if self.carry.len() < FRAME_HEADER_LEN {
                    FRAME_HEADER_LEN
                } else {
                    match FrameHeader::parse(&self.carry) {
                        Ok(fh) => fh.frame_len(),
                        Err(_) => usize::MAX,
                    }
                };
                if self.carry.len() >= need {
                    let frame: Vec<u8> = self.carry.drain(..need).collect();
                    self.bytes_copied += need as u64;
                    self.straddled += 1;
                    self.frames.push(SharedBytes::from_vec(frame));
                    break;
                }
                let take = need
                    .saturating_sub(self.carry.len())
                    .min(block.len() - pos);
                if take == 0 {
                    return; // block exhausted, frame still incomplete
                }
                self.carry.extend_from_slice(&block[pos..pos + take]);
                self.bytes_copied += take as u64;
                pos += take;
            }
        }
        // Complete frames inside this block: zero-copy slices of its
        // shared backing.
        while pos < block.len() {
            let rest = &block[pos..];
            if rest.len() < FRAME_HEADER_LEN {
                break;
            }
            let Ok(fh) = FrameHeader::parse(rest) else {
                break;
            };
            let total = fh.frame_len();
            if rest.len() < total {
                break; // frame continues in the next block
            }
            self.frames.push(block.slice(pos..pos + total));
            pos += total;
        }
        if pos < block.len() {
            self.carry.extend_from_slice(&block[pos..]);
            self.bytes_copied += (block.len() - pos) as u64;
        }
    }

    /// Finish, returning the complete frames. Errors if bytes remain
    /// (truncated trailing frame).
    pub fn finish(self) -> Result<Vec<SharedBytes>> {
        if !self.carry.is_empty() {
            return Err(PlatformError::Invariant(format!(
                "{} dangling bytes after the last block",
                self.carry.len()
            )));
        }
        Ok(self.frames)
    }
}

impl Default for BlockFrameReader {
    fn default() -> Self {
        Self::new()
    }
}

/// Read a BAM file back from the DFS through the block-aware frame
/// reader (exercising the straddle path), returning header + records.
pub fn read_bam_from_dfs(dfs: &Dfs, path: &str) -> Result<(SamHeader, Vec<SamRecord>)> {
    let frames = read_frames_from_dfs(dfs, path)?;
    let reader = ChunkSetReader::new(&frames)?;
    let header = reader.header().clone();
    let records: Vec<SamRecord> = reader.collect();
    Ok((header, records))
}

/// Read the chunk frames of a DFS BAM file block by block. In-block
/// frames come back as zero-copy slices of the stored blocks; only
/// boundary-straddling frames are stitched (and counted) through the
/// reader's carry buffer.
pub fn read_frames_from_dfs(dfs: &Dfs, path: &str) -> Result<Vec<SharedBytes>> {
    let info = dfs.stat(path)?;
    let mut reader = BlockFrameReader::new();
    for b in &info.blocks {
        reader.push_block(dfs.read_block(b)?);
    }
    dfs.metrics()
        .counter(gesall_dfs::metrics_keys::BYTES_COPIED)
        .add(reader.bytes_copied);
    reader.finish()
}

/// Read an arbitrary byte range of a DFS file, touching only the blocks
/// that cover it — the primitive an indexed region query needs, and
/// [`Dfs::read_file_range_shared`] under the index's `u64` offsets. A
/// hostile index can name any range: one the platform cannot address, or
/// one past the file's end, is an error, not a panic.
pub fn read_byte_range(dfs: &Dfs, path: &str, start: u64, len: u64) -> Result<SharedBytes> {
    let (Ok(offset), Ok(len)) = (usize::try_from(start), usize::try_from(len)) else {
        return Err(PlatformError::Invariant(format!("byte range {start}+{len} is not addressable")));
    };
    Ok(dfs.read_file_range_shared(path, offset, len)?)
}

/// Upload a *sorted, indexed* BAM partition (the Round-4 output format):
/// writes `<path>` (BAM bytes, logical-partition placement) and
/// `<path>.idx` (the coordinate index). Returns the index.
pub fn upload_indexed_bam_partition(
    dfs: &Dfs,
    path: &str,
    header: &SamHeader,
    records: &[SamRecord],
) -> Result<gesall_formats::bam::BamIndex> {
    let (bytes, index) = gesall_formats::bam::write_bam_indexed(header, records);
    dfs.write_shared_with_policy(
        path,
        SharedBytes::from_vec(bytes),
        &gesall_dfs::LogicalPartitionPlacement,
    )?;
    dfs.write_shared_with_policy(
        &format!("{path}.idx"),
        SharedBytes::from_vec(index.to_bytes()),
        &gesall_dfs::LogicalPartitionPlacement,
    )?;
    Ok(index)
}

/// Indexed region query over a DFS-resident BAM: fetch the index, pick
/// the overlapping chunks, and read only their byte ranges (so only the
/// covering blocks are touched — the paper's Round-5 seek pattern).
pub fn read_region_from_dfs(
    dfs: &Dfs,
    path: &str,
    ref_id: i32,
    start: i64,
    end: i64,
) -> Result<Vec<SamRecord>> {
    let index_bytes = dfs.read_file_shared(&format!("{path}.idx"))?;
    let index = gesall_formats::bam::BamIndex::from_bytes(&index_bytes)?;
    bam::read_region(&index, ref_id, start, end, |offset, len| read_byte_range(dfs, path, offset, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_dfs::checksum::xxh64;
    use gesall_dfs::{DfsConfig, FileInfo, LogicalPartitionPlacement};
    use gesall_formats::sam::header::ReferenceSeq;
    use gesall_formats::sam::{Cigar, Flags};

    fn header() -> SamHeader {
        SamHeader::new(vec![ReferenceSeq {
            name: "chr1".into(),
            len: 1_000_000,
        }])
    }

    fn records(n: usize) -> Vec<SamRecord> {
        (0..n)
            .map(|i| {
                let mut r = SamRecord::unmapped(
                    format!("r{i:06}"),
                    vec![b"ACGT"[i % 4]; 100],
                    vec![30; 100],
                );
                r.flags = Flags(Flags::PAIRED);
                r.flags.set(Flags::UNMAPPED, false);
                r.ref_id = 0;
                r.pos = i as i64 + 1;
                r.cigar = Cigar::full_match(100);
                r
            })
            .collect()
    }

    /// Write a BAM as one logical partition: every block on one node.
    fn upload_partition(dfs: &Dfs, path: &str, h: &SamHeader, recs: &[SamRecord]) -> FileInfo {
        let bytes = SharedBytes::from_vec(bam::write_bam(h, recs));
        dfs.write_shared_with_policy(path, bytes, &LogicalPartitionPlacement)
            .unwrap()
    }

    fn small_dfs() -> Dfs {
        // Tiny blocks so chunks straddle boundaries constantly.
        Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size: 4096,
            replication: 1,
            ..DfsConfig::default()
        })
    }

    #[test]
    fn bam_roundtrip_over_blocks_with_straddling() {
        let dfs = small_dfs();
        let h = header();
        let recs = records(3000);
        dfs.write_file_shared(
            "/data/sample.bam",
            SharedBytes::from_vec(bam::write_bam(&h, &recs)),
        )
        .unwrap();
        // Verify blocks are plural and frames straddle.
        let info = dfs.stat("/data/sample.bam").unwrap();
        assert!(info.blocks.len() > 5);
        let mut reader = BlockFrameReader::new();
        for b in &info.blocks {
            reader.push_block(dfs.read_block(b).unwrap());
        }
        assert!(
            reader.straddled > 0,
            "4 KiB blocks with ~64 KiB chunks must straddle"
        );
        let (h2, r2) = read_bam_from_dfs(&dfs, "/data/sample.bam").unwrap();
        assert_eq!(h2, h);
        assert_eq!(r2, recs);
    }

    #[test]
    fn truncated_file_detected() {
        let dfs = small_dfs();
        let h = header();
        let bytes = bam::write_bam(&h, &records(500));
        dfs.write_file("/trunc", &bytes[..bytes.len() - 10]).unwrap();
        assert!(read_frames_from_dfs(&dfs, "/trunc").is_err());
    }

    #[test]
    fn logical_partition_has_single_home() {
        let dfs = small_dfs();
        let h = header();
        let parts: Vec<Vec<SamRecord>> = records(900)
            .chunks(300)
            .map(|c| c.to_vec())
            .collect();
        for (i, part) in parts.iter().enumerate() {
            let path = format!("/job1/in/part-{i:05}");
            let info = upload_partition(&dfs, &path, &h, part);
            assert!(info.single_home().is_some(), "{path} not single-homed");
            // Partitions keep record order and content.
            let (h2, recs) = read_bam_from_dfs(&dfs, &path).unwrap();
            assert_eq!(h2, h);
            assert_eq!(&recs, part);
        }
    }

    #[test]
    fn empty_partition_roundtrip() {
        let dfs = small_dfs();
        let h = header();
        upload_partition(&dfs, "/empty", &h, &[]);
        let (h2, recs) = read_bam_from_dfs(&dfs, "/empty").unwrap();
        assert_eq!(h2, h);
        assert!(recs.is_empty());
    }

    #[test]
    fn byte_range_reads_across_blocks() {
        let dfs = small_dfs(); // 4 KiB blocks
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        dfs.write_file("/raw", &data).unwrap();
        for (start, len) in [(0u64, 10u64), (4090, 20), (8000, 9000), (19_990, 10)] {
            let got = read_byte_range(&dfs, "/raw", start, len).unwrap();
            assert_eq!(
                got,
                &data[start as usize..(start + len) as usize],
                "range {start}+{len}"
            );
        }
        assert!(read_byte_range(&dfs, "/raw", 19_995, 10).is_err());
    }

    #[test]
    fn indexed_region_query_over_dfs() {
        let dfs = small_dfs();
        let h = header();
        let mut recs = records(4000);
        recs.sort_by_key(|r| r.coordinate_key());
        upload_indexed_bam_partition(&dfs, "/sorted/chr1", &h, &recs).unwrap();
        let got = read_region_from_dfs(&dfs, "/sorted/chr1", 0, 500, 900).unwrap();
        let expect: Vec<SamRecord> = recs
            .iter()
            .filter(|r| r.overlaps(0, 500, 900))
            .cloned()
            .collect();
        assert!(!expect.is_empty());
        assert_eq!(got, expect);
        // Empty region on another chromosome.
        assert!(read_region_from_dfs(&dfs, "/sorted/chr1", 3, 1, 100)
            .unwrap()
            .is_empty());
    }

    /// 2 000 fixed records of mixed shape (clips, indels, a spliced
    /// span, unmapped reads, with and without a read group), in
    /// coordinate order with the unmapped last.
    fn pinned_records() -> Vec<SamRecord> {
        let mut recs: Vec<SamRecord> = (0..2000usize)
            .map(|i| {
                let (cigar, qlen) = match i % 5 {
                    0 => ("100M", 100),
                    1 => ("5S90M5S", 100),
                    2 => ("40M3I50M2D7M", 100),
                    3 => ("30M700N70M", 100),
                    _ => ("150M", 150),
                };
                let seq = (0..qlen).map(|k| b"ACGT"[(i * 7 + k * k + k / 3) % 4]).collect();
                let qual = (0..qlen).map(|k| ((i * 13 + k * 3) % 41) as u8).collect();
                let mut r = SamRecord::unmapped(format!("frag{}/{}", i / 2, i % 2 + 1), seq, qual);
                r.flags = Flags(Flags::PAIRED);
                if i % 11 == 10 {
                    r.flags.set(Flags::UNMAPPED, true);
                    return r;
                }
                r.flags.set(Flags::REVERSE, i % 3 == 0);
                r.ref_id = 0;
                r.pos = 1 + (i as i64) * 41;
                r.mapq = (i % 61) as u8;
                r.cigar = Cigar::parse(cigar).unwrap();
                r.mate_ref_id = 0;
                r.mate_pos = r.pos + 300;
                r.tlen = if i % 2 == 0 { 400 } else { -400 };
                if i % 4 != 0 {
                    r.read_group = "rg1".into();
                }
                r.alignment_score = 100 - (i % 30) as i32;
                r.edit_distance = (i % 5) as u32;
                r
            })
            .collect();
        recs.sort_by_key(|r| r.coordinate_key());
        recs
    }

    #[test]
    fn file_bytes_and_chunk_offsets_are_pinned() {
        // The container is a storage format: these are the digests of
        // the file, and of where its chunks start. They moved once, when
        // the codec's parse went from min-4 greedy to 8-byte matches:
        // the same records, cut into the same chunks, compress to other
        // lengths, so every chunk after the first starts elsewhere.
        let h = header();
        let recs = pinned_records();
        let mut w = bam::BamWriter::new(&h);
        for r in &recs {
            w.write_record(r);
        }
        let (bytes, offsets, n) = w.finish();
        assert_eq!(n, 2000);
        assert!(bytes == bam::write_bam(&h, &recs));
        // The cut points are the writer's, not the codec's: records per
        // chunk are what they were under the earlier parse.
        let mut chunks = bam::ChunkScanner::new(&bytes);
        chunks.next_chunk().unwrap().expect("a header chunk");
        let mut per_chunk = Vec::new();
        while let Some(c) = chunks.next_chunk().unwrap() {
            per_chunk.push(c.records().unwrap().len());
        }
        assert_eq!(per_chunk, [245, 244, 244, 244, 244, 244, 244, 244, 47]);
        let offset_bytes: Vec<u8> = offsets.iter().flat_map(|o| o.to_le_bytes()).collect();
        let digests = (xxh64(&bytes), xxh64(&offset_bytes));
        assert_eq!(digests, (0x27c0_4bc8_45a5_1382, 0xd145_6e01_3720_cea0), "{digests:#x?}");
    }

    #[test]
    fn region_query_over_dfs_finds_a_span_longer_than_any_margin() {
        // A spliced read in the file's first chunk reaching 20 kb right:
        // chunks are selected on how far their records reach.
        let dfs = small_dfs();
        let h = header();
        let mut recs = pinned_records();
        recs[3].cigar = Cigar::parse("30M20000N70M").unwrap();
        let index = upload_indexed_bam_partition(&dfs, "/sorted/long", &h, &recs).unwrap();
        assert!(index.entries[0].max_key.1 + 1024 < 15_000);
        let got = read_region_from_dfs(&dfs, "/sorted/long", 0, 15_000, 15_500).unwrap();
        let expect: Vec<SamRecord> = recs.iter().filter(|r| r.overlaps(0, 15_000, 15_500)).cloned().collect();
        assert!(expect.contains(&recs[3]));
        assert_eq!(got, expect);
        // A forged index naming bytes past the end is an error.
        assert!(read_byte_range(&dfs, "/sorted/long", u64::MAX - 1, 2).is_err());
    }

    #[test]
    fn replicated_partition_survives_node_failure() {
        // Failure injection: with replication 2, losing the partition's
        // home node must not lose the data — the DFS serves replicas and
        // the chunk reader reassembles as usual.
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size: 4096,
            replication: 2,
            ..DfsConfig::default()
        });
        let h = header();
        let recs = records(1500);
        let info = upload_partition(&dfs, "/repl/part-0", &h, &recs);
        let home = info.single_home().expect("logical partition is single-homed");
        dfs.kill_node(home);
        let (h2, r2) = read_bam_from_dfs(&dfs, "/repl/part-0").unwrap();
        assert_eq!(h2, h);
        assert_eq!(r2, recs);
        // Losing the replica node too is fatal — and detected.
        let replica = (home + 1) % 4;
        dfs.kill_node(replica);
        assert!(read_bam_from_dfs(&dfs, "/repl/part-0").is_err());
    }

    #[test]
    fn frame_reader_single_push() {
        // Whole file in one "block" still works — and every frame is a
        // zero-copy window onto that block, with nothing memcpy'd.
        let h = header();
        let block = SharedBytes::from_vec(bam::write_bam(&h, &records(50)));
        let mut reader = BlockFrameReader::new();
        reader.push_block(block.clone());
        assert_eq!(reader.bytes_copied, 0);
        let frames = reader.finish().unwrap();
        assert!(frames.len() >= 2);
        assert!(frames.iter().all(|f| f.same_backing(&block)));
        let reader = ChunkSetReader::new(&frames).unwrap();
        assert_eq!(reader.header(), &h);
    }

    #[test]
    fn frame_reader_byte_at_a_time() {
        // Pathological splitting: every byte its own block.
        let h = header();
        let recs = records(20);
        let bytes = bam::write_bam(&h, &recs);
        let mut reader = BlockFrameReader::new();
        for b in &bytes {
            reader.push_block(SharedBytes::copy_from_slice(std::slice::from_ref(b)));
        }
        let frames = reader.finish().unwrap();
        let cr = ChunkSetReader::new(&frames).unwrap();
        let got: Vec<SamRecord> = cr.collect();
        assert_eq!(got, recs);
    }
}
