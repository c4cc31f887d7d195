//! The distributed storage substrate for BAM datasets (paper §3.1).
//!
//! Two features:
//!
//! 1. **Chunk-aware reading over blocks.** The DFS splits a BAM byte
//!    stream at block boundaries with no knowledge of chunk framing, so
//!    the last chunk in a block may continue in the next block.
//!    [`read_bam_from_dfs`] hands a file's blocks, in order, to
//!    [`bam::FrameWalker`] — the custom `RecordReader` of the paper —
//!    which windows the frames inside a block and stitches those that
//!    straddle two; the container's format stays inside `bam`.
//! 2. **Logical partitions.** [`upload_indexed_bam_partition`] writes a
//!    partition file whose blocks are pinned to one node (the custom
//!    `BlockPlacementPolicy`), so a wrapped single-node program can read
//!    its whole partition locally. (The pipeline places its own stage
//!    outputs the same way — `pipeline.rs`' `place`.)

use crate::error::{PlatformError, Result};
use gesall_dfs::Dfs;
use gesall_formats::bam;
use gesall_formats::sam::{SamHeader, SamRecord};
use gesall_formats::SharedBytes;

/// Read a BAM file back from the DFS block by block, returning header +
/// records. Frames inside one block are windows of it; only those that
/// straddle blocks are stitched, and the bytes that copies are charged
/// to the DFS's `mem.bytes.copied`.
pub fn read_bam_from_dfs(dfs: &Dfs, path: &str) -> Result<(SamHeader, Vec<SamRecord>)> {
    let mut walker = bam::FrameWalker::default();
    for block in &dfs.stat(path)?.blocks {
        walker.push(dfs.read_block(block)?);
    }
    dfs.metrics()
        .counter(gesall_dfs::metrics_keys::BYTES_COPIED)
        .add(walker.bytes_copied);
    Ok(bam::read_chunk_set(&walker.finish()?)?)
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
        let blocks: Vec<SharedBytes> = info.blocks.iter().map(|b| dfs.read_block(b).unwrap()).collect();
        let mut walker = bam::FrameWalker::default();
        for b in &blocks {
            walker.push(b.clone());
        }
        let (straddled, stitched_bytes) = (walker.straddled, walker.bytes_copied);
        assert!(
            straddled > 0,
            "4 KiB blocks with ~64 KiB chunks must straddle"
        );
        // Each straddling frame is stitched once, into its own buffer;
        // every other frame is a window of the stored blocks.
        let stitched: Vec<SharedBytes> =
            walker.finish().unwrap().into_iter().filter(|f| !f.same_backing(&blocks[0])).collect();
        assert_eq!(stitched.len(), straddled);
        assert_eq!(stitched.iter().map(|f| f.len() as u64).sum::<u64>(), stitched_bytes);
        // The scan charges the DFS what stitching them copied, no more.
        let copied = || dfs.metrics().counter(gesall_dfs::metrics_keys::BYTES_COPIED).get();
        let before = copied();
        let (h2, r2) = read_bam_from_dfs(&dfs, "/data/sample.bam").unwrap();
        assert_eq!(copied() - before, stitched_bytes);
        assert_eq!(h2, h);
        assert_eq!(r2, recs);
    }

    #[test]
    fn truncated_file_detected() {
        let dfs = small_dfs();
        let h = header();
        let bytes = bam::write_bam(&h, &records(500));
        dfs.write_file("/trunc", &bytes[..bytes.len() - 10]).unwrap();
        assert!(read_bam_from_dfs(&dfs, "/trunc").is_err());
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
        let (bytes, index) = w.finish();
        assert!(bytes == bam::write_bam(&h, &recs));
        // The cut points are the writer's, not the codec's: records per
        // chunk are what they were under the earlier parse.
        let mut walker = bam::FrameWalker::default();
        walker.push(SharedBytes::copy_from_slice(&bytes));
        let frames = walker.finish().unwrap();
        assert_eq!(bam::decode_frame(&frames[0]).unwrap().header().unwrap(), h);
        let per_chunk: Vec<usize> = frames[1..]
            .iter()
            .map(|f| bam::decode_frame(f).unwrap().records().unwrap().len())
            .collect();
        assert_eq!(per_chunk, [245, 244, 244, 244, 244, 244, 244, 244, 47]);
        assert_eq!(per_chunk.iter().sum::<usize>(), 2000);
        // The chunks start at 0, the header chunk, and at each index
        // entry's offset.
        let offsets = std::iter::once(0).chain(index.entries.iter().map(|e| e.offset));
        let offset_bytes: Vec<u8> = offsets.flat_map(|o: u64| o.to_le_bytes()).collect();
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
}
