//! A stage's output and its entry in the content-addressed store, whose
//! layout only this file knows: one part file per partition,
//! `{root}/cas/{key:016x}/part-NNNNN`, every block on one node (§3.1: the
//! next round's map task reads it where it lies), and the manifest at
//! `{root}/cas/{key:016x}` — the parts' lengths, or a side value itself —
//! committed last, so a visible manifest means a whole entry.

use crate::gdpt::BloomFilter;
use gesall_dfs::{Dfs, DfsError, FileInfo, LogicalPartitionPlacement};
use gesall_formats::bam;
use gesall_formats::error::FormatError;
use gesall_formats::vcf::VariantRecord;
use gesall_formats::wire::{self, Wire};
use gesall_formats::SharedBytes;
use gesall_tools::recalibration::RecalTable;

/// A stage's output as its body returns it. The lossless wire codec
/// matters: VCF *text* round-trips qualities through `{:.2}` formatting,
/// so stored variants are wire records, never rendered text.
#[derive(Debug, Clone)]
pub enum StageData {
    /// BAM logical partitions (most stages), each the encoded bytes the
    /// next round's wrapped programs read — what the paper's rounds
    /// leave on HDFS.
    Parts(Vec<SharedBytes>),
    /// The `MarkDup_opt` bloom filter.
    Bloom(BloomFilter),
    /// The merged base-recalibration table.
    Recal(RecalTable),
    /// Round-5 calls, sorted by site.
    Variants(Vec<VariantRecord>),
}

/// A stored partition: its part file, its bytes, and the live node that
/// holds every block of it, if one does.
pub(crate) struct Part {
    pub path: String,
    pub bytes: SharedBytes,
    pub home: Option<usize>,
}

/// A stored entry as the rows below read it.
pub(crate) enum Stored {
    Parts(Vec<Part>),
    Side(StageData),
}

impl Stored {
    /// Every file of the entry for `key` under `root`: its manifest, then
    /// its part files.
    pub(crate) fn files(&self, root: &str, key: u64) -> Vec<String> {
        let parts: &[Part] = if let Stored::Parts(parts) = self { parts } else { &[] };
        std::iter::once(Dfs::cas_path(root, key)).chain(parts.iter().map(|p| p.path.clone())).collect()
    }
}

/// Store `data` as the entry for `key` under `root`: each partition once,
/// as its part file, then the manifest. A file already there holding
/// the same bytes is a hit that writes nothing, and its partition goes
/// on as the fresh bytes; a damaged one is replaced ([`Dfs::put_once`]).
/// Each part is stored as an exact copy made here: the buffer its task
/// grew amid its working memory, pinned for the entry's life, bloats RSS.
pub(crate) fn put(dfs: &Dfs, root: &str, key: u64, data: StageData) -> Result<Stored, DfsError> {
    let entry = Dfs::cas_path(root, key);
    let manifest = SharedBytes::from_vec(manifest(&data));
    let stored = match data {
        StageData::Parts(parts) => Stored::Parts(parts.into_iter().enumerate().map(|(i, bytes)| {
            let path = format!("{entry}/part-{i:05}");
            let bytes = SharedBytes::copy_from_slice(&bytes);
            let (bytes, info) = dfs.put_once(&path, bytes, &LogicalPartitionPlacement)?;
            Ok(Part { home: home(dfs, &info), path, bytes })
        }).collect::<Result<_, DfsError>>()?),
        side => Stored::Side(side),
    };
    dfs.cas_put(root, key, manifest)?;
    Ok(stored)
}

/// The entry for `key` under `root`, or `None`: never committed, or a
/// manifest or part file that is missing, unreadable (its blocks died
/// with a node), torn or garbled. A mapper handed a torn partition has no
/// error to return, so a part counts only if it is a header frame and
/// whole record frames with nothing dangling — frame headers only,
/// nothing is decompressed.
pub(crate) fn get(dfs: &Dfs, root: &str, key: u64) -> Option<Stored> {
    let lens = match decode_manifest(&dfs.cas_get(root, key).ok()??).ok()? {
        Manifest::Parts(lens) => lens,
        Manifest::Side(side) => return Some(Stored::Side(side)),
    };
    let entry = Dfs::cas_path(root, key);
    let part = |(i, len)| {
        let path = format!("{entry}/part-{i:05}");
        let info = dfs.stat(&path).ok().filter(|info| info.len as u64 == len)?;
        let bytes = dfs.read_file_shared(&path).ok().filter(|b| bam::is_whole_file(b))?;
        Some(Part { home: home(dfs, &info), path, bytes })
    };
    lens.into_iter().enumerate().map(part).collect::<Option<_>>().map(Stored::Parts)
}

/// The node a map task should read `info`'s file on: its single home,
/// while every block of the file is there to read.
fn home(dfs: &Dfs, info: &FileInfo) -> Option<usize> {
    info.single_home().filter(|_| dfs.file_available(&info.path))
}

/// A decoded manifest: one length per part file, or a side value.
enum Manifest {
    Parts(Vec<u64>),
    Side(StageData),
}

fn manifest(data: &StageData) -> Vec<u8> {
    fn tagged(tag: u8, value: &impl Wire) -> Vec<u8> {
        let mut buf = vec![tag];
        value.encode(&mut buf);
        buf
    }
    match data {
        StageData::Parts(parts) => tagged(0, &parts.iter().map(|p| p.len() as u64).collect::<Vec<u64>>()),
        StageData::Bloom(b) => tagged(1, b),
        StageData::Recal(t) => tagged(2, t),
        StageData::Variants(v) => tagged(3, v),
    }
}

/// Decode untrusted manifest bytes whole. A part count is capped by the
/// bytes left to hold its lengths, so a hostile one errs here, before
/// anything is reserved for it or any part file is looked up.
fn decode_manifest(bytes: &[u8]) -> Result<Manifest, FormatError> {
    let mut cur = wire::Cursor::new(bytes);
    let manifest = match cur.get_varint()? {
        0 => Manifest::Parts(Wire::decode(&mut cur)?),
        1 => Manifest::Side(StageData::Bloom(Wire::decode(&mut cur)?)),
        2 => Manifest::Side(StageData::Recal(Wire::decode(&mut cur)?)),
        3 => Manifest::Side(StageData::Variants(Wire::decode(&mut cur)?)),
        t => return Err(FormatError::Bam(format!("unknown stage-data tag {t}"))),
    };
    if !cur.is_empty() {
        return Err(FormatError::Bam(format!("{} bytes after the manifest", cur.remaining())));
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_dfs::DfsConfig;
    use gesall_formats::sam::SamHeader;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn dfs() -> Dfs {
        Dfs::new(DfsConfig { n_nodes: 4, block_size: 64, replication: 1, ..DfsConfig::default() })
    }

    proptest! {
        #[test]
        fn a_store_entry_of_hostile_bytes_decodes_or_errs_and_is_checked_without_a_panic(
            tag in 0u8..5,
            bytes in vec(any::<u8>(), 0..300),
            lens in vec(any::<u64>(), 0..4),
            claimed in any::<u64>(),
            cut in any::<usize>(),
        ) {
            // Arbitrary bytes, alone and behind each tag, stored as a
            // manifest over part files of arbitrary bytes: `get` is a
            // hit or a miss, never a panic.
            let mut tagged = vec![tag];
            tagged.extend_from_slice(&bytes);
            for (key, manifest) in [bytes.clone(), tagged].into_iter().enumerate() {
                let store = dfs();
                for i in 0..4 {
                    let path = format!("{}/part-{i:05}", Dfs::cas_path("/t", key as u64));
                    store.write_file(&path, &bytes[..bytes.len().min(i * 40)]).unwrap();
                }
                store.write_file(&Dfs::cas_path("/t", key as u64), &manifest).unwrap();
                let _ = get(&store, "/t", key as u64);
            }
            // A manifest claiming more parts than it holds lengths for errs
            // whole, before any part file is looked up.
            let mut listed = vec![0];
            wire::put_varint(&mut listed, claimed);
            for &len in &lens {
                wire::put_varint(&mut listed, len);
            }
            let decoded = decode_manifest(&listed);
            prop_assert_eq!(decoded.is_ok(), claimed == lens.len() as u64);
            // A real partition is whole, and no cut of it is.
            let file = bam::write_bam(&SamHeader::new(Vec::new()), &[]);
            let cut = cut % (file.len() + 1);
            let store = dfs();
            let part = SharedBytes::copy_from_slice(&file[..cut]);
            store.write_file(&format!("{}/part-00000", Dfs::cas_path("/t", 1)), &part).unwrap();
            store.write_file(&Dfs::cas_path("/t", 1), &manifest(&StageData::Parts(vec![part]))).unwrap();
            prop_assert_eq!(get(&store, "/t", 1).is_some(), cut == file.len());
        }
    }
}
