//! A stage's committed output and its encoding in the
//! content-addressed intermediate store (`{cas_root}/cas/{key}`).

use crate::gdpt::BloomFilter;
use gesall_formats::bam;
use gesall_formats::vcf::VariantRecord;
use gesall_formats::wire::{self, Wire};
use gesall_formats::SharedBytes;
use gesall_tools::recalibration::RecalTable;

/// A stage's committed output, as stored in the content-addressed
/// intermediate store. The lossless wire codec matters: VCF *text*
/// round-trips qualities through `{:.2}` formatting, so cached variants
/// are stored as wire records, never as rendered text.
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

impl StageData {
    /// Wire framing proves nothing about the partition bytes inside it,
    /// and a mapper handed a torn partition has no error to return. So
    /// a cached entry counts only if every partition is a header frame
    /// followed by whole record frames with nothing dangling — frame
    /// headers only, nothing is decompressed.
    pub(crate) fn parts_are_whole(&self) -> bool {
        let StageData::Parts(parts) = self else {
            return true;
        };
        parts.iter().all(|part| bam::is_whole_file(part))
    }

    /// Decode a store entry. Partitions come back as windows of `entry`
    /// — nothing is copied, so whatever they are handed to shares the
    /// entry's backing; the small side outputs decode as usual.
    pub(crate) fn from_entry(entry: &SharedBytes) -> gesall_formats::error::Result<StageData> {
        let mut cur = wire::Cursor::new(entry);
        if cur.get_varint()? != PARTS_TAG {
            return StageData::from_wire_bytes(entry);
        }
        let n = cur.get_count::<SharedBytes>()?;
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            let len = cur.get_bytes()?.len();
            let end = entry.len() - cur.remaining();
            parts.push(entry.slice(end - len..end));
        }
        if !cur.is_empty() {
            return Err(gesall_formats::error::FormatError::Bam(format!(
                "{} trailing bytes after the partitions",
                cur.remaining()
            )));
        }
        Ok(StageData::Parts(parts))
    }
}

const PARTS_TAG: u64 = 0;

impl Wire for StageData {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StageData::Parts(p) => {
                wire::put_varint(buf, PARTS_TAG);
                p.encode(buf);
            }
            StageData::Bloom(b) => {
                wire::put_varint(buf, 1);
                b.encode(buf);
            }
            StageData::Recal(t) => {
                wire::put_varint(buf, 2);
                t.encode(buf);
            }
            StageData::Variants(v) => {
                wire::put_varint(buf, 3);
                v.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        // Every tag is one byte.
        1 + match self {
            StageData::Parts(p) => p.encoded_len(),
            StageData::Bloom(b) => b.encoded_len(),
            StageData::Recal(t) => t.encoded_len(),
            StageData::Variants(v) => v.encoded_len(),
        }
    }

    fn decode(cur: &mut wire::Cursor<'_>) -> gesall_formats::error::Result<StageData> {
        match cur.get_varint()? {
            // From borrowed bytes each partition is a copy; the executor
            // reads entries through [`StageData::from_entry`].
            PARTS_TAG => {
                #[cfg(test)]
                PARTS_COPIED.with(|n| n.set(n.get() + 1));
                Ok(StageData::Parts(Vec::<SharedBytes>::decode(cur)?))
            }
            1 => Ok(StageData::Bloom(BloomFilter::decode(cur)?)),
            2 => Ok(StageData::Recal(RecalTable::decode(cur)?)),
            3 => Ok(StageData::Variants(Vec::<VariantRecord>::decode(cur)?)),
            t => Err(gesall_formats::error::FormatError::Bam(format!(
                "unknown stage-data tag {t}"
            ))),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Store entries whose partitions this thread decoded by copy
    /// ([`Wire::decode`]) instead of windowing them
    /// ([`StageData::from_entry`]).
    pub(crate) static PARTS_COPIED: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_formats::sam::SamHeader;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn a_store_entry_of_hostile_bytes_decodes_or_errs_and_is_checked_without_a_panic(
            tag in 0u8..5,
            bytes in vec(any::<u8>(), 0..300),
            parts in vec(vec(any::<u8>(), 0..64), 0..4),
            cut in any::<usize>(),
        ) {
            // Arbitrary bytes, alone and behind each tag, and a
            // well-formed list of arbitrary partitions.
            let mut tagged = vec![tag];
            tagged.extend_from_slice(&bytes);
            let listed = StageData::Parts(parts.into_iter().map(SharedBytes::from_vec).collect());
            for entry in [bytes, tagged, listed.to_wire_bytes()] {
                if let Ok(data) = StageData::from_entry(&SharedBytes::from_vec(entry)) {
                    data.parts_are_whole();
                }
            }
            // A real partition is whole, and no cut of it is.
            let file = bam::write_bam(&SamHeader::new(Vec::new()), &[]);
            let cut = cut % (file.len() + 1);
            let entry = StageData::Parts(vec![SharedBytes::copy_from_slice(&file[..cut])]).to_wire_bytes();
            let data = StageData::from_entry(&SharedBytes::from_vec(entry)).unwrap();
            prop_assert_eq!(data.parts_are_whole(), cut == file.len());
        }
    }
}
