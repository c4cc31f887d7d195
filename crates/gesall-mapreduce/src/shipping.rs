//! Map-output shipping: persisting merged map outputs into DFS and
//! fetching them back by reference for the shuffle.
//!
//! A map task's segments serialize into ONE DFS file: an index header
//! (`[n u64]` then `n` end offsets, relative to the frame area) followed
//! by `n` codec-tagged frames ([`write_frame`](crate::shuffle::write_frame)).
//! The reduce-side fetch resolves its partition through the index and
//! reads ONLY that frame's byte range
//! ([`Dfs::read_file_range_shared`]): for a range inside one block the
//! payload is a zero-copy window of the stored block — mmap'd when the
//! DFS persists blocks (`DfsConfig::block_store_dir`) — so a compressed
//! segment travels disk → shuffle → reduce merge as a refcount bump and
//! is decoded exactly once, and a reducer never materializes the other
//! R−1 partitions of a multi-block map output. The only memcpy on this
//! path is the store-side frame write, counted under `mem.bytes.copied`.

use crate::counters::{keys, Counters};
use crate::shuffle::{read_frame, write_frame, Segment, FRAME_HEADER_BYTES};
use gesall_dfs::{Dfs, DfsError, ReadAffinity};
use gesall_formats::wire::{put_u64, Cursor};
use gesall_formats::{FormatError, SharedBytes};
use std::fmt;

/// Errors on the map-output shipping path.
#[derive(Debug)]
pub enum ShipError {
    /// The DFS refused the read or write.
    Dfs(DfsError),
    /// A stored frame was corrupt or truncated.
    Format(FormatError),
}

impl ShipError {
    /// Is this failure worth re-attempting? Transient DFS errors
    /// (flaky reads, deadline expiries) are; corrupt-beyond-repair
    /// blocks, missing files, and malformed frames are not — retrying
    /// those only delays the attempt failure that triggers a re-run.
    pub fn is_retryable(&self) -> bool {
        match self {
            ShipError::Dfs(e) => e.is_retryable(),
            ShipError::Format(_) => false,
        }
    }
}

impl fmt::Display for ShipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShipError::Dfs(e) => write!(f, "shipping: {e}"),
            ShipError::Format(e) => write!(f, "shipping: {e}"),
        }
    }
}

impl std::error::Error for ShipError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShipError::Dfs(e) => Some(e),
            ShipError::Format(e) => Some(e),
        }
    }
}

impl From<DfsError> for ShipError {
    fn from(e: DfsError) -> ShipError {
        ShipError::Dfs(e)
    }
}

impl From<FormatError> for ShipError {
    fn from(e: FormatError) -> ShipError {
        ShipError::Format(e)
    }
}

/// Persist a map task's merged segments (one per reduce partition) as a
/// single DFS file: `[n u64]` and `n` frame-end offsets (relative to
/// the frame area), then the `n` frames. The frame write is the one
/// payload memcpy of the shipping path — the deliberate durability copy
/// of DFS transit, counted under `shuffle.ship.bytes.copied` (not the
/// zero-copy gauge `mem.bytes.copied`); compressed payloads are written
/// as-is, never re-encoded. Blocks are placed by `policy` — the engine
/// pins a map output to its mapper's node, so a reducer scheduled there
/// reads it locally and an unreplicated output dies with its node.
pub fn store_map_output(
    dfs: &Dfs,
    path: &str,
    segments: &[Segment],
    policy: &dyn gesall_dfs::BlockPlacementPolicy,
    counters: &Counters,
) -> Result<(), ShipError> {
    let total: usize = segments
        .iter()
        .map(|s| FRAME_HEADER_BYTES + s.data.len())
        .sum();
    let header = 8 * (1 + segments.len());
    let mut out = Vec::with_capacity(header + total);
    put_u64(&mut out, segments.len() as u64);
    let mut end = 0u64;
    for s in segments {
        end += (FRAME_HEADER_BYTES + s.data.len()) as u64;
        put_u64(&mut out, end);
    }
    for s in segments {
        write_frame(s, &mut out);
        counters.add(keys::SHUFFLE_SHIP_BYTES_COPIED, s.data.len() as u64);
    }
    dfs.write_shared_with_policy(path, SharedBytes::from_vec(out), policy)?;
    Ok(())
}

/// Decode the index header of a stored map output: frame count and the
/// absolute byte range `[start, end)` of each frame within the file.
/// Index reads carry the same affinity hint as the frame read and fold
/// into the same local/remote tally.
fn read_index(
    dfs: &Dfs,
    path: &str,
    affinity: ReadAffinity,
    tally: &mut (u64, u64),
) -> Result<Vec<(usize, usize)>, ShipError> {
    let head = dfs.read_file_range_shared_at(path, 0, 8, affinity)?;
    tally.0 += head.local_bytes;
    tally.1 += head.remote_bytes;
    let n = Cursor::new(&head.bytes[..]).get_u64()? as usize;
    let idx = dfs.read_file_range_shared_at(path, 8, 8 * n, affinity)?;
    tally.0 += idx.local_bytes;
    tally.1 += idx.remote_bytes;
    let mut cur = Cursor::new(&idx.bytes[..]);
    let base = 8 * (1 + n);
    let mut ranges = Vec::with_capacity(n);
    let mut start = base;
    for _ in 0..n {
        let end = base + cur.get_u64()? as usize;
        ranges.push((start, end));
        start = end;
    }
    Ok(ranges)
}

/// Fetch just partition `r` of a stored map output — what one reducer
/// pulls from one map task. The index header resolves the frame's byte
/// range and only that range is read: inside one block this is a
/// zero-copy mapped window, and the other R−1 partitions are never
/// touched. Every read on the fetch (index header and partition frame)
/// prefers the replica `affinity` names — the reducer's own node — and
/// the bytes served are split onto [`keys::SHUFFLE_FETCH_BYTES_LOCAL`] /
/// [`keys::SHUFFLE_FETCH_BYTES_REMOTE`] by whether the serving replica
/// was that node — the locality half of the shuffle byte matrix.
pub fn fetch_partition(
    dfs: &Dfs,
    path: &str,
    r: usize,
    affinity: ReadAffinity,
    counters: &Counters,
) -> Result<Segment, ShipError> {
    let mut tally = (0u64, 0u64);
    let ranges = read_index(dfs, path, affinity, &mut tally)?;
    let fetched = (|| -> Result<Segment, ShipError> {
        let Some(&(start, end)) = ranges.get(r) else {
            return Err(FormatError::Bam(format!(
                "partition {r} out of range: map output has {} frames",
                ranges.len()
            ))
            .into());
        };
        let window = dfs.read_file_range_shared_at(path, start, end - start, affinity)?;
        tally.0 += window.local_bytes;
        tally.1 += window.remote_bytes;
        let (seg, consumed) = read_frame(&window.bytes, 0)?;
        if consumed != window.bytes.len() {
            return Err(FormatError::Bam(format!(
                "partition {r}: frame consumed {consumed} of {} indexed bytes",
                window.bytes.len()
            ))
            .into());
        }
        Ok(seg)
    })();
    // Bytes moved are charged even when the fetch then fails to frame —
    // the reads happened.
    counters.add(keys::SHUFFLE_FETCH_BYTES_LOCAL, tally.0);
    counters.add(keys::SHUFFLE_FETCH_BYTES_REMOTE, tally.1);
    fetched
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_dfs::{DefaultPlacement, DfsConfig};
    use gesall_formats::Codec;

    fn segments() -> Vec<Segment> {
        vec![
            Segment::from_pairs(&[(1u64, 10u64), (2, 20)], Codec::Raw),
            Segment::from_pairs(
                &(0..400u64).map(|i| (i % 13, i)).collect::<Vec<_>>(),
                Codec::Lz,
            ),
            Segment::empty(),
        ]
    }

    fn dfs(block_store: Option<std::path::PathBuf>) -> Dfs {
        Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1 << 20,
            replication: 2,
            block_store_dir: block_store,
            ..DfsConfig::default()
        })
    }

    fn store(dfs: &Dfs, path: &str, segs: &[Segment]) {
        store_map_output(dfs, path, segs, &DefaultPlacement, &Counters::new()).unwrap();
    }

    fn fetch(dfs: &Dfs, path: &str, r: usize) -> Result<Segment, ShipError> {
        fetch_partition(dfs, path, r, ReadAffinity::NONE, &Counters::new())
    }

    #[test]
    fn store_and_fetch_roundtrip_by_reference() {
        let dfs = dfs(None);
        let segs = segments();
        assert!(segs[1].is_compressed());
        store(&dfs, "job/shuffle/map-00000.segs", &segs);
        let fetched: Vec<Segment> = (0..segs.len())
            .map(|r| fetch(&dfs, "job/shuffle/map-00000.segs", r).unwrap())
            .collect();
        for (orig, got) in segs.iter().zip(&fetched) {
            assert_eq!(orig.codec, got.codec);
            assert_eq!(orig.records, got.records);
            assert_eq!(orig.raw_len, got.raw_len);
            assert_eq!(&orig.data[..], &got.data[..]);
        }
        // Every fetched payload windows the SAME block: the compressed
        // segment travelled by reference, not by copy.
        assert!(fetched[0].data.same_backing(&fetched[1].data));
        assert_eq!(
            fetched[1].to_pairs::<u64, u64>(),
            segs[1].to_pairs::<u64, u64>()
        );
    }

    #[test]
    fn persisted_store_serves_mapped_windows() {
        let dir = std::env::temp_dir().join(format!(
            "gesall-ship-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dfs = dfs(Some(dir.clone()));
        let segs = segments();
        store(&dfs, "j/shuffle/map-00000.segs", &segs);
        let a = fetch(&dfs, "j/shuffle/map-00000.segs", 1).unwrap();
        let b = fetch(&dfs, "j/shuffle/map-00000.segs", 1).unwrap();
        // Two fetches share the one file mapping — refcount bumps on the
        // mmap'd block, no payload copies.
        assert!(a.data.same_backing(&b.data));
        if gesall_formats::mapped::MMAP_COMPILED {
            assert!(a.data.is_mapped(), "persisted block must be served mmap'd");
        }
        assert_eq!(a.to_pairs::<u64, u64>(), segs[1].to_pairs::<u64, u64>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partition_fetch_from_multi_block_file_reads_only_its_range() {
        // Tiny blocks force the stored output across many blocks; each
        // partition still comes back intact via its indexed range, and
        // an in-block partition is served zero-copy.
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 256,
            replication: 1,
            ..DfsConfig::default()
        });
        let segs: Vec<Segment> = (0..5)
            .map(|p| {
                Segment::from_pairs(
                    &(0..60u64).map(|i| (i, i * 10 + p)).collect::<Vec<_>>(),
                    Codec::Raw,
                )
            })
            .collect();
        store(&dfs, "j/shuffle/map-00000.segs", &segs);
        assert!(
            dfs.stat("j/shuffle/map-00000.segs").unwrap().blocks.len() > 1,
            "test needs a multi-block file"
        );
        for (p, s) in segs.iter().enumerate() {
            let got = fetch(&dfs, "j/shuffle/map-00000.segs", p).unwrap();
            assert_eq!(got.records, s.records);
            assert_eq!(got.to_pairs::<u64, u64>(), s.to_pairs::<u64, u64>());
        }
        // And pinned placement keeps the whole output on one node.
        store_map_output(
            &dfs,
            "j/shuffle/map-00001.segs",
            &segs,
            &gesall_dfs::PinnedPlacement(2),
            &Counters::new(),
        )
        .unwrap();
        let info = dfs.stat("j/shuffle/map-00001.segs").unwrap();
        assert_eq!(info.single_home(), Some(2));
    }

    #[test]
    fn fetch_errors_on_bad_partition_and_corrupt_file() {
        let dfs = dfs(None);
        store(&dfs, "j/m0", &segments());
        assert!(fetch(&dfs, "j/m0", 3).is_err());
        dfs.write_file("j/corrupt", &[9u8; 4]).unwrap();
        assert!(fetch(&dfs, "j/corrupt", 0).is_err());
        assert!(fetch(&dfs, "j/missing", 0).is_err());
    }
}
