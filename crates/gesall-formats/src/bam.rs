//! A BAM-like binary container.
//!
//! A file is a sequence of *chunks*, each an independently-compressed frame:
//!
//! ```text
//! frame := [kind u8][comp_len u32][raw_len u32][crc32(raw) u32][comp bytes]
//! ```
//!
//! * Chunk 0 (`kind = 0`) holds the serialized [`SamHeader`] text.
//! * Every later chunk (`kind = 1`) holds a batch of wire-encoded
//!   [`SamRecord`]s whose raw size is capped near [`CHUNK_TARGET_RAW`].
//!
//! This mirrors real BAM/BGZF structurally: records are packed into
//! variable-length compressed chunks, so when the DFS splits the byte
//! stream into fixed-size blocks, a chunk may straddle a block boundary —
//! exactly the situation the paper's custom `RecordReader` handles (§3.1).
//! The frame format is read in this module alone: one function parses
//! the frame at the head of a buffer, a whole buffer is walked frame by
//! frame ([`read_bam`], [`is_whole_file`]), and [`FrameWalker`] finds
//! the frames of a file held as pieces — a stored file's DFS blocks —
//! windowing a frame inside one piece and stitching one that straddles
//! two. [`read_chunk_set`] decodes the header frame plus any subset of
//! record frames.

use crate::compress::{compress_append, crc32, decompress};
use crate::error::{FormatError, Result};
use crate::sam::record::NO_REF;
use crate::sam::view::Layout;
use crate::sam::{QualitiesMut, SamHeader, SamRecord, SamView};
use crate::wire::{put_varint, Cursor, Wire};
use crate::SharedBytes;

/// Target uncompressed payload per record chunk (bytes). Real BGZF blocks
/// cap at 64 KiB; we default to the same.
pub const CHUNK_TARGET_RAW: usize = 64 * 1024;

/// Frame header length in bytes: kind + comp_len + raw_len + crc.
const FRAME_HEADER_LEN: usize = 1 + 4 + 4 + 4;

/// Chunk kinds.
pub const KIND_HEADER: u8 = 0;
pub const KIND_RECORDS: u8 = 1;

/// A parsed chunk frame header.
#[derive(Debug, Clone, Copy)]
struct FrameHeader {
    kind: u8,
    /// The whole frame's length, header included.
    len: usize,
    raw_len: u32,
    crc: u32,
}

/// Why a buffer does not start with a whole frame.
enum NotWhole {
    /// The buffer holds `have` bytes of a frame `need` bytes long (of
    /// its header, while that is short).
    Short { need: usize, have: usize },
    /// The kind byte names no chunk kind.
    BadKind(u8),
}

impl From<NotWhole> for FormatError {
    fn from(e: NotWhole) -> FormatError {
        FormatError::Bam(match e {
            NotWhole::Short { need, have } if have < FRAME_HEADER_LEN => {
                format!("frame header needs {need} bytes, got {have}")
            }
            NotWhole::Short { need, have } => format!("truncated frame: need {need} bytes, have {have}"),
            NotWhole::BadKind(kind) => format!("bad chunk kind {kind}"),
        })
    }
}

/// The frame at the head of `data`, if `data` holds all of it: the one
/// parse of a frame header.
fn frame_at_head(data: &[u8]) -> std::result::Result<FrameHeader, NotWhole> {
    let have = data.len();
    let Some(head) = data.first_chunk::<FRAME_HEADER_LEN>() else {
        return Err(NotWhole::Short { need: FRAME_HEADER_LEN, have });
    };
    let word = |at: usize| u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
    let kind = head[0];
    if kind != KIND_HEADER && kind != KIND_RECORDS {
        return Err(NotWhole::BadKind(kind));
    }
    let len = FRAME_HEADER_LEN + word(1) as usize;
    if have < len {
        return Err(NotWhole::Short { need: len, have });
    }
    Ok(FrameHeader { kind, len, raw_len: word(5), crc: word(9) })
}

/// The frames of a whole buffer, in order: each one's kind and bytes.
/// The first that is not whole ends the walk with its error.
fn frames(data: &[u8]) -> impl Iterator<Item = std::result::Result<(u8, &[u8]), NotWhole>> {
    let mut rest = data;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let frame = frame_at_head(rest).map(|fh| {
            let (frame, tail) = rest.split_at(fh.len);
            rest = tail;
            (fh.kind, frame)
        });
        if frame.is_err() {
            rest = &[];
        }
        Some(frame)
    })
}

/// Whether `data` is a whole file by its frame headers alone: a header
/// frame, then whole record frames, with nothing dangling. Nothing is
/// decompressed, so a whole file may still fail to decode.
pub fn is_whole_file(data: &[u8]) -> bool {
    let mut kinds = frames(data).map(|frame| frame.ok().map(|(kind, _)| kind));
    kinds.next() == Some(Some(KIND_HEADER)) && kinds.all(|kind| kind == Some(KIND_RECORDS))
}

/// Finds the frames of a file held as a sequence of pieces — a stored
/// file's DFS blocks, cut with no regard for its frames (the paper's
/// chunk-aware `RecordReader`, §3.1). Push the pieces in file order,
/// then [`FrameWalker::finish`].
///
/// A frame inside one piece comes back as a window of that piece's
/// backing. A frame that straddles pieces is stitched once into a buffer
/// of its own, and the bytes that copies are counted.
#[derive(Debug, Default)]
pub struct FrameWalker {
    /// The first bytes of a frame that continues in the next piece.
    carry: Vec<u8>,
    frames: Vec<SharedBytes>,
    /// Frames that straddled a piece boundary.
    pub straddled: usize,
    /// Bytes copied to stitch them; a caller surfaces this into its
    /// copy gauge (the DFS's `mem.bytes.copied`).
    pub bytes_copied: u64,
}

impl FrameWalker {
    /// Walk the next piece.
    pub fn push(&mut self, piece: SharedBytes) {
        let mut pos = 0;
        // Top the carried frame up from the piece. A carry of no known
        // kind takes the rest of the file, for `finish` to report.
        while !self.carry.is_empty() {
            let need = match frame_at_head(&self.carry) {
                Ok(_) => {
                    self.frames.push(SharedBytes::from_vec(std::mem::take(&mut self.carry)));
                    self.straddled += 1;
                    break;
                }
                Err(NotWhole::Short { need, have }) => need - have,
                Err(NotWhole::BadKind(_)) => usize::MAX,
            };
            let take = need.min(piece.len() - pos);
            if take == 0 {
                return;
            }
            self.carry.extend_from_slice(&piece[pos..pos + take]);
            self.bytes_copied += take as u64;
            pos += take;
        }
        for (_, frame) in frames(&piece[pos..]).map_while(|frame| frame.ok()) {
            self.frames.push(piece.slice(pos..pos + frame.len()));
            pos += frame.len();
        }
        self.carry.extend_from_slice(&piece[pos..]);
        self.bytes_copied += (piece.len() - pos) as u64;
    }

    /// The frames found, in file order. Errs when the pieces end inside
    /// a frame (a truncated file) or on bytes that are no frame.
    pub fn finish(self) -> Result<Vec<SharedBytes>> {
        if !self.carry.is_empty() {
            return Err(FormatError::Bam(format!(
                "{} dangling bytes after the last piece",
                self.carry.len()
            )));
        }
        Ok(self.frames)
    }
}

/// One complete chunk: its kind plus the decompressed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    pub kind: u8,
    pub raw: Vec<u8>,
}

impl Chunk {
    /// A cursor over a `KIND_RECORDS` payload (a wire `Vec<SamRecord>`),
    /// past its record count.
    fn open_records(&self) -> Result<(Cursor<'_>, usize)> {
        if self.kind != KIND_RECORDS {
            return Err(FormatError::Bam("not a record chunk".into()));
        }
        let mut cur = Cursor::new(&self.raw);
        let n = cur.get_count::<SamRecord>()?;
        Ok((cur, n))
    }

    fn close_records(cur: &Cursor<'_>) -> Result<()> {
        if cur.is_empty() {
            Ok(())
        } else {
            Err(FormatError::Bam(format!(
                "{} trailing bytes after the chunk's last record",
                cur.remaining()
            )))
        }
    }

    /// Decode the records in a `KIND_RECORDS` chunk.
    pub fn records(&self) -> Result<Vec<SamRecord>> {
        let (mut cur, n) = self.open_records()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(SamRecord::decode(&mut cur)?);
        }
        Chunk::close_records(&cur)?;
        Ok(out)
    }

    /// Append to `out` the chunk's records that overlap `[start, end]`
    /// (1-based inclusive) on `ref_id` — [`Chunk::records`] filtered by
    /// [`SamRecord::overlaps`], but only the hits are materialised: every
    /// record is walked and validated as `records` validates it, and one
    /// that cannot overlap costs no allocation.
    pub fn records_overlapping(
        &self,
        ref_id: i32,
        start: i64,
        end: i64,
        out: &mut Vec<SamRecord>,
    ) -> Result<()> {
        let (mut cur, n) = self.open_records()?;
        for _ in 0..n {
            let mut at = cur.clone();
            if SamRecord::skip_overlapping(&mut cur, ref_id, start, end)? {
                out.push(SamRecord::decode(&mut at)?);
            }
        }
        Chunk::close_records(&cur)
    }

    /// The chunk's records as [`SamView`]s: windows over the payload,
    /// which moves behind a refcount without a copy. `rewrite` first has
    /// each record's qualities to change in place, in order, once the
    /// whole chunk has been walked. Errs on exactly the chunks
    /// [`Chunk::records`] errs on.
    pub fn into_views(
        mut self,
        rewrite: impl FnOnce(&mut dyn Iterator<Item = QualitiesMut<'_>>),
    ) -> Result<Vec<SamView>> {
        let (mut cur, n) = self.open_records()?;
        let first = self.raw.len() - cur.remaining();
        let mut layouts = Vec::with_capacity(n);
        for _ in 0..n {
            layouts.push(Layout::walk(&mut cur)?);
        }
        Chunk::close_records(&cur)?;
        let mut rest = &mut self.raw[first..];
        rewrite(&mut layouts.iter().map(|layout| {
            let (record, tail) = std::mem::take(&mut rest).split_at_mut(layout.len);
            rest = tail;
            layout.qualities_mut(record)
        }));
        let raw = SharedBytes::from_vec(self.raw);
        let mut at = first;
        Ok(layouts
            .into_iter()
            .map(|layout| {
                at += layout.len;
                SamView::from_parts(raw.slice(at - layout.len..at), layout)
            })
            .collect())
    }

    /// Decode the header in a `KIND_HEADER` chunk.
    pub fn header(&self) -> Result<SamHeader> {
        if self.kind != KIND_HEADER {
            return Err(FormatError::Bam("not a header chunk".into()));
        }
        let text = std::str::from_utf8(&self.raw)
            .map_err(|_| FormatError::Bam("header chunk is not utf-8".into()))?;
        SamHeader::parse_text(text)
    }
}

/// Append the frame holding `raw` to `out`, compressing straight into
/// it; returns the frame's length.
fn append_frame(out: &mut Vec<u8>, kind: u8, raw: &[u8]) -> usize {
    let at = out.len();
    out.push(kind);
    out.extend_from_slice(&[0; 4]); // comp_len, known once compressed
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(raw).to_le_bytes());
    compress_append(raw, out);
    let comp_len = (out.len() - at - FRAME_HEADER_LEN) as u32;
    out[at + 1..at + 5].copy_from_slice(&comp_len.to_le_bytes());
    out.len() - at
}

/// Decode the frame at the head of `data` into its chunk.
pub fn decode_frame(data: &[u8]) -> Result<Chunk> {
    let fh = frame_at_head(data)?;
    let raw = decompress(&data[FRAME_HEADER_LEN..fh.len])?;
    if raw.len() != fh.raw_len as usize {
        return Err(FormatError::Bam("raw length mismatch".into()));
    }
    if crc32(&raw) != fh.crc {
        return Err(FormatError::Bam("crc mismatch (corrupt chunk)".into()));
    }
    Ok(Chunk { kind: fh.kind, raw })
}

/// One entry of the coordinate index: a record chunk's byte span and the
/// coordinate range of the records inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkIndexEntry {
    /// Byte offset of the chunk frame within the file.
    pub offset: u64,
    /// Frame length in bytes.
    pub len: u64,
    /// Smallest (ref id, pos) coordinate key in the chunk.
    pub min_key: (i32, i64),
    /// Largest coordinate key in the chunk.
    pub max_key: (i32, i64),
    /// Largest (ref id, end pos) over the chunk's mapped records — how
    /// far right any of them reaches; `(NO_REF, 0)` when none is mapped.
    pub max_end: (i32, i64),
}

/// The coordinate ("linear") index of a BAM file — what Round 4 of the
/// paper's pipeline builds alongside the sorted output so Round 5 can
/// seek to genomic regions without scanning the whole file.
///
/// Meaningful for coordinate-sorted files; built for any file (queries
/// then degrade to scans of overlapping entries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BamIndex {
    pub entries: Vec<ChunkIndexEntry>,
}

/// Wire row for one index entry:
/// `(offset, (len, ((min_ref, min_pos), ((max_ref, max_pos), (end_ref, end_pos)))))`.
type IndexRow = (u64, (u64, ((i64, i64), ((i64, i64), (i64, i64)))));

impl BamIndex {
    /// Byte spans of the chunks that may hold records overlapping
    /// `[start, end]` on `ref_id`: those with a record starting at or
    /// left of `end` and a mapped record reaching `start` or beyond.
    /// Chunks of unmapped records never match.
    pub fn chunks_for_region(&self, ref_id: i32, start: i64, end: i64) -> Vec<(u64, u64)> {
        self.entries
            .iter()
            .filter(|e| e.min_key <= (ref_id, end) && e.max_end >= (ref_id, start))
            .map(|e| (e.offset, e.len))
            .collect()
    }

    /// Serialize (for storing next to the BAM file).
    pub fn to_bytes(&self) -> Vec<u8> {
        let wide = |(r, p): (i32, i64)| (r as i64, p);
        let rows: Vec<IndexRow> = self
            .entries
            .iter()
            .map(|e| {
                let keys = (wide(e.min_key), (wide(e.max_key), wide(e.max_end)));
                (e.offset, (e.len, keys))
            })
            .collect();
        rows.to_wire_bytes()
    }

    /// Deserialize.
    pub fn from_bytes(data: &[u8]) -> Result<BamIndex> {
        let narrow = |(r, p): (i64, i64)| (r as i32, p);
        let rows = Vec::<IndexRow>::from_wire_bytes(data)?;
        Ok(BamIndex {
            entries: rows
                .into_iter()
                .map(|(offset, (len, (min, (max, end))))| ChunkIndexEntry {
                    offset,
                    len,
                    min_key: narrow(min),
                    max_key: narrow(max),
                    max_end: narrow(end),
                })
                .collect(),
        })
    }
}

/// Bytes held at the front of a pending payload for the chunk's record
/// count, a varint written (right-aligned) only when the chunk is cut.
const COUNT_SLOT: usize = 10;

/// The record chunk a [`BamWriter`] is filling.
struct PendingChunk {
    /// The payload as it will be compressed: [`COUNT_SLOT`] bytes, then
    /// the wire records written so far.
    payload: Vec<u8>,
    records: u64,
    /// The cut rule's running estimate of the payload's size.
    raw_estimate: usize,
    /// The records' coordinate range, as the chunk's [`ChunkIndexEntry`]
    /// will state it.
    min_key: (i32, i64),
    max_key: (i32, i64),
    max_end: (i32, i64),
}

impl PendingChunk {
    /// A chunk of no records, built in `payload`'s allocation.
    fn empty(mut payload: Vec<u8>) -> PendingChunk {
        payload.clear();
        payload.resize(COUNT_SLOT, 0);
        PendingChunk {
            payload,
            records: 0,
            raw_estimate: 0,
            min_key: (i32::MAX, i64::MAX),
            max_key: (i32::MIN, i64::MIN),
            max_end: (NO_REF, 0),
        }
    }

    /// The finished payload — a wire `Vec<SamRecord>`: varint count, then
    /// the records.
    fn payload(&mut self) -> &[u8] {
        let mut count = Vec::with_capacity(COUNT_SLOT);
        put_varint(&mut count, self.records);
        let from = COUNT_SLOT - count.len();
        self.payload[from..COUNT_SLOT].copy_from_slice(&count);
        &self.payload[from..]
    }
}

/// Streaming writer that batches records into chunks.
pub struct BamWriter {
    out: Vec<u8>,
    /// Bytes of the file already moved out by [`BamWriter::drain_into`].
    drained: u64,
    pending: PendingChunk,
    index: BamIndex,
}

impl BamWriter {
    /// Begin a file with its header chunk.
    pub fn new(header: &SamHeader) -> BamWriter {
        let mut out = Vec::new();
        append_frame(&mut out, KIND_HEADER, header.to_text().as_bytes());
        BamWriter {
            out,
            drained: 0,
            pending: PendingChunk::empty(Vec::new()),
            index: BamIndex::default(),
        }
    }

    /// Append one record; flushes a chunk when the target raw size is hit.
    pub fn write_record(&mut self, rec: &SamRecord) {
        let end = rec.is_mapped().then(|| (rec.ref_id, rec.end_pos()));
        let estimate = rec.seq.len() + rec.qual.len() + rec.name.len();
        self.append(rec, estimate, rec.coordinate_key(), end);
    }

    /// [`BamWriter::write_record`] of the record a view windows: its
    /// bytes, copied as they are.
    pub fn write_view(&mut self, rec: &SamView) {
        let end = rec.is_mapped().then(|| (rec.ref_id(), rec.end_pos()));
        let estimate = rec.seq().len() + rec.qual().len() + rec.name().len();
        self.append(rec, estimate, rec.coordinate_key(), end);
    }

    /// The one write path: `rec`'s wire bytes onto the pending chunk,
    /// with what the cut rule (`seq + qual + name` lengths) and the
    /// chunk's index entry need to know of it.
    fn append(&mut self, rec: &impl Wire, estimate: usize, key: (i32, i64), end: Option<(i32, i64)>) {
        let chunk = &mut self.pending;
        // Rough raw-size estimate: wire size ≈ seq + qual + name + ~40.
        chunk.raw_estimate += estimate + 40;
        rec.encode(&mut chunk.payload);
        chunk.records += 1;
        chunk.min_key = chunk.min_key.min(key);
        chunk.max_key = chunk.max_key.max(key);
        if let Some(end) = end {
            chunk.max_end = chunk.max_end.max(end);
        }
        if self.pending.raw_estimate >= CHUNK_TARGET_RAW {
            self.flush_chunk();
        }
    }

    fn flush_chunk(&mut self) {
        if self.pending.records == 0 {
            return;
        }
        let offset = self.drained + self.out.len() as u64;
        let len = append_frame(&mut self.out, KIND_RECORDS, self.pending.payload());
        self.index.entries.push(ChunkIndexEntry {
            offset,
            len: len as u64,
            min_key: self.pending.min_key,
            max_key: self.pending.max_key,
            max_end: self.pending.max_end,
        });
        self.pending = PendingChunk::empty(std::mem::take(&mut self.pending.payload));
    }

    /// Move the file's bytes written so far — its finished chunks — onto
    /// `out`, so the writer holds only the chunk it is filling.
    pub fn drain_into(&mut self, out: &mut Vec<u8>) {
        self.drained += self.out.len() as u64;
        out.append(&mut self.out);
    }

    /// Finish the file, returning its bytes — those not yet drained —
    /// and its coordinate index (Round 4's "build the BAM file index").
    /// The file's chunks start at 0, the header chunk, and at each index
    /// entry's offset.
    pub fn finish(mut self) -> (Vec<u8>, BamIndex) {
        self.flush_chunk();
        (self.out, self.index)
    }
}

/// Serialize a header and records, returning the bytes plus the
/// coordinate index.
pub fn write_bam_indexed(header: &SamHeader, records: &[SamRecord]) -> (Vec<u8>, BamIndex) {
    let mut w = BamWriter::new(header);
    for r in records {
        w.write_record(r);
    }
    w.finish()
}

/// Region query over an indexed BAM: all records overlapping `[start,
/// end]` (1-based inclusive) on `ref_id`, decoding only the frames the
/// index selects. `frame_at(offset, len)` returns those bytes of the
/// file — a slice of a file in memory, a range read of a stored one.
pub fn read_region<B: AsRef<[u8]>, E: From<FormatError>>(
    index: &BamIndex,
    ref_id: i32,
    start: i64,
    end: i64,
    mut frame_at: impl FnMut(u64, u64) -> std::result::Result<B, E>,
) -> std::result::Result<Vec<SamRecord>, E> {
    let mut out = Vec::new();
    for (offset, len) in index.chunks_for_region(ref_id, start, end) {
        let frame = frame_at(offset, len)?;
        decode_frame(frame.as_ref())?.records_overlapping(ref_id, start, end, &mut out)?;
    }
    Ok(out)
}

/// Serialize a header and records into a complete BAM byte buffer.
pub fn write_bam(header: &SamHeader, records: &[SamRecord]) -> Vec<u8> {
    write_bam_indexed(header, records).0
}

/// The one header-then-record-chunks loop: the first of `frames` is the
/// header chunk, and `decode` turns each later one, a record chunk, into
/// records or views.
fn decode_chunks<'a, T, E>(
    frames: impl IntoIterator<Item = std::result::Result<&'a [u8], E>>,
    mut decode: impl FnMut(Chunk) -> Result<Vec<T>>,
) -> Result<(SamHeader, Vec<T>)>
where
    FormatError: From<E>,
{
    let mut frames = frames.into_iter();
    let first = frames.next().ok_or_else(|| FormatError::Bam("empty bam file".into()))??;
    let header = decode_frame(first)?.header()?;
    let mut out = Vec::new();
    for frame in frames {
        out.extend(decode(decode_frame(frame?)?)?);
    }
    Ok((header, out))
}

/// Parse a complete BAM buffer into (header, records). The mirror of
/// [`write_bam`].
pub fn read_bam(data: &[u8]) -> Result<(SamHeader, Vec<SamRecord>)> {
    decode_chunks(frames(data).map(|f| f.map(|(_, frame)| frame)), |chunk| chunk.records())
}

/// [`read_bam`] as views: each record chunk is decompressed once and its
/// records windowed in place ([`Chunk::into_views`], which hands
/// `rewrite` every chunk's qualities in turn). Errs on exactly the
/// buffers `read_bam` errs on.
pub fn read_bam_views(
    data: &[u8],
    mut rewrite: impl FnMut(&mut dyn Iterator<Item = QualitiesMut<'_>>),
) -> Result<(SamHeader, Vec<SamView>)> {
    decode_chunks(frames(data).map(|f| f.map(|(_, frame)| frame)), |chunk| {
        chunk.into_views(&mut rewrite)
    })
}

/// The utility the paper describes in §3.1: decode a file's header
/// frame, first, plus an arbitrary *subset* of its record frames (as a
/// DFS record reader hands them out), so a single-node program has its
/// records with the header — "one-line modification" semantics.
pub fn read_chunk_set<F: AsRef<[u8]>>(frames: &[F]) -> Result<(SamHeader, Vec<SamRecord>)> {
    decode_chunks(frames.iter().map(|f| Ok::<_, FormatError>(f.as_ref())), |chunk| chunk.records())
}

/// The writer this module shipped before records were encoded into the
/// pending chunk as they arrive: it holds a clone of every pending
/// record, wire-encodes the batch at the cut, and builds each frame
/// through three intermediate vectors. The oracle for the writer's
/// batching, chunk offsets and index entries; the parse that fills its
/// frames is a parameter, so it also writes files as the earlier
/// parse ([`crate::compress::reference`]) did.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::compress::reference::crc32;

    fn encode_frame(kind: u8, raw: &[u8], compress: fn(&[u8]) -> Vec<u8>) -> Vec<u8> {
        let comp = compress(raw);
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + comp.len());
        out.push(kind);
        out.extend_from_slice(&(comp.len() as u32).to_le_bytes());
        out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(raw).to_le_bytes());
        out.extend_from_slice(&comp);
        out
    }

    /// One index entry as the old writer stated it.
    pub(crate) type Entry = (u64, u64, (i32, i64), (i32, i64));

    /// (file bytes, chunk offsets, index entries), every frame through
    /// the production codec.
    pub(crate) fn write_bam(
        header: &SamHeader,
        records: &[SamRecord],
    ) -> (Vec<u8>, Vec<u64>, Vec<Entry>) {
        write_bam_with(header, records, crate::compress::compress)
    }

    /// [`write_bam`] with every frame compressed by `compress`.
    pub(crate) fn write_bam_with(
        header: &SamHeader,
        records: &[SamRecord],
        compress: fn(&[u8]) -> Vec<u8>,
    ) -> (Vec<u8>, Vec<u64>, Vec<Entry>) {
        let mut out = encode_frame(KIND_HEADER, header.to_text().as_bytes(), compress);
        let mut offsets = vec![0u64];
        let mut entries = Vec::new();
        let mut pending: Vec<SamRecord> = Vec::new();
        let mut pending_raw = 0usize;
        let mut flush = |pending: &mut Vec<SamRecord>| {
            let batch = std::mem::take(pending);
            if batch.is_empty() {
                return;
            }
            let keys = || batch.iter().map(SamRecord::coordinate_key);
            let frame = encode_frame(KIND_RECORDS, &batch.to_wire_bytes(), compress);
            offsets.push(out.len() as u64);
            entries.push((
                out.len() as u64,
                frame.len() as u64,
                keys().min().expect("non-empty batch"),
                keys().max().expect("non-empty batch"),
            ));
            out.extend_from_slice(&frame);
        };
        for rec in records {
            pending_raw += rec.seq.len() + rec.qual.len() + rec.name.len() + 40;
            pending.push(rec.clone());
            if pending_raw >= CHUNK_TARGET_RAW {
                flush(&mut pending);
                pending_raw = 0;
            }
        }
        flush(&mut pending);
        (out, offsets, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam::header::ReferenceSeq;
    use crate::sam::{Cigar, Flags};

    fn header() -> SamHeader {
        SamHeader::new(vec![ReferenceSeq {
            name: "chr1".into(),
            len: 100_000,
        }])
    }

    fn records(n: usize) -> Vec<SamRecord> {
        (0..n)
            .map(|i| {
                let mut r = SamRecord::unmapped(
                    format!("read{i}"),
                    vec![b"ACGT"[i % 4]; 100],
                    vec![(i % 40) as u8; 100],
                );
                r.flags = Flags(Flags::PAIRED);
                r.flags.set(Flags::UNMAPPED, false);
                r.ref_id = 0;
                r.pos = (i as i64) * 37 + 1;
                r.cigar = Cigar::full_match(100);
                r.mapq = 60;
                r
            })
            .collect()
    }

    #[test]
    fn roundtrip_small() {
        let h = header();
        let recs = records(10);
        let bytes = write_bam(&h, &recs);
        let (h2, r2) = read_bam(&bytes).unwrap();
        assert_eq!(h2, h);
        assert_eq!(r2, recs);
    }

    #[test]
    fn roundtrip_multi_chunk() {
        let h = header();
        // ~240 bytes/record estimate → >64KiB needs ~300 records; use 2000
        // to force many chunks.
        let recs = records(2000);
        let bytes = write_bam(&h, &recs);
        let frames = walk(&bytes);
        assert!(
            frames.len() > 3,
            "expected several chunks, got {}",
            frames.len()
        );
        let (_, r2) = read_bam(&bytes).unwrap();
        assert_eq!(r2, recs);
    }

    #[test]
    fn empty_record_set() {
        let h = header();
        let bytes = write_bam(&h, &[]);
        let (h2, r2) = read_bam(&bytes).unwrap();
        assert_eq!(h2, h);
        assert!(r2.is_empty());
    }

    #[test]
    fn chunk_offsets_match_frames() {
        let h = header();
        let mut w = BamWriter::new(&h);
        for r in &records(1500) {
            w.write_record(r);
        }
        let (bytes, index) = w.finish();
        assert_eq!(read_bam(&bytes).unwrap().1.len(), 1500);
        let offsets = chunk_offsets(&index);
        let frames = walk(&bytes);
        assert_eq!(offsets.len(), frames.len());
        // Every recorded offset is the start of a whole frame, the one
        // the walker found there.
        let mut at = 0;
        for (&off, frame) in offsets.iter().zip(&frames) {
            assert_eq!(off, at);
            assert_eq!(frame_at_head(&bytes[off as usize..]).ok().map(|fh| fh.len), Some(frame.len()));
            at += frame.len() as u64;
        }
    }

    #[test]
    fn chunk_set_reader_over_subset() {
        let h = header();
        let recs = records(2000);
        let bytes = write_bam(&h, &recs);
        let frames = walk(&bytes);
        // Take the header frame + only the 3rd record frame — a "logical
        // partition" of the file.
        let (got_header, got) = read_chunk_set(&[&frames[0], &frames[3]]).unwrap();
        assert_eq!(got_header, h);
        assert!(!got.is_empty());
        // Those records appear contiguously in the full set.
        let start = recs.iter().position(|r| r == &got[0]).unwrap();
        assert_eq!(&recs[start..start + got.len()], got.as_slice());
    }

    #[test]
    fn corruption_detected_by_crc() {
        let h = header();
        let recs = records(50);
        let mut bytes = write_bam(&h, &recs);
        // Flip a payload byte in the last frame.
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        assert!(read_bam(&bytes).is_err());
    }

    #[test]
    fn truncation_detected() {
        let h = header();
        let recs = records(50);
        let bytes = write_bam(&h, &recs);
        assert!(read_bam(&bytes[..bytes.len() - 3]).is_err());
        assert!(read_bam(&[]).is_err());
    }

    #[test]
    fn region_query_returns_exactly_the_overlapping_records() {
        let h = header();
        // Coordinate-sorted records 100 bases long at positions 1, 38, …
        let mut recs = records(3000);
        recs.sort_by_key(|r| r.coordinate_key());
        let (bytes, index) = write_bam_indexed(&h, &recs);
        assert!(index.entries.len() > 3, "want several chunks");
        for (start, end) in [(1i64, 500i64), (40_000, 41_000), (110_000, 120_000)] {
            let got = region(&bytes, &index, 0, start, end).unwrap();
            let expect: Vec<SamRecord> = recs
                .iter()
                .filter(|r| r.overlaps(0, start, end))
                .cloned()
                .collect();
            assert_eq!(got, expect, "region {start}..{end}");
        }
        // A region on a nonexistent chromosome matches nothing.
        assert!(region(&bytes, &index, 5, 1, 1000).unwrap().is_empty());
    }

    #[test]
    fn region_query_reads_fewer_chunks_than_full_scan() {
        let h = header();
        let mut recs = records(5000);
        recs.sort_by_key(|r| r.coordinate_key());
        let (_, index) = write_bam_indexed(&h, &recs);
        let touched = index.chunks_for_region(0, 1, 2000).len();
        assert!(
            touched * 3 < index.entries.len(),
            "a small region should touch a small fraction of chunks: {touched}/{}",
            index.entries.len()
        );
    }

    #[test]
    fn index_serialization_roundtrip() {
        let h = header();
        let (_, index) = write_bam_indexed(&h, &records(800));
        let back = BamIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(back, index);
    }

    /// Records of every shape the wire knows, in file order `0..n`:
    /// soft clips, indels, a spliced span, multi-byte varint fields,
    /// unmapped reads with a `*` CIGAR, with and without a read group,
    /// on two references.
    fn mixed_records(n: usize) -> Vec<SamRecord> {
        (0..n)
            .map(|i| {
                let (cigar, qlen) = match i % 5 {
                    0 => ("100M", 100),
                    1 => ("5S90M5S", 100),
                    2 => ("40M3I50M2D7M", 100),
                    3 => ("30M700N70M", 100),
                    _ => ("150M", 150),
                };
                let seq = (0..qlen).map(|k| b"ACGT"[(i * 7 + k * k) % 4]).collect();
                let qual = (0..qlen).map(|k| ((i + k * 3) % 41) as u8).collect();
                let mut r = SamRecord::unmapped(format!("frag{}/{}", i / 2, i % 2 + 1), seq, qual);
                r.flags = Flags(Flags::PAIRED);
                if i % 11 == 10 {
                    r.flags.set(Flags::UNMAPPED, true);
                    return r;
                }
                r.flags.set(Flags::REVERSE, i % 3 == 0);
                r.ref_id = (i % 2) as i32;
                r.pos = 1 + (i as i64) * 41;
                r.mapq = (i % 61) as u8;
                r.cigar = Cigar::parse(cigar).unwrap();
                r.mate_ref_id = r.ref_id;
                r.mate_pos = r.pos + 300;
                r.tlen = if i % 2 == 0 { 400 } else { -400 };
                if i % 4 != 0 {
                    r.read_group = "rg1".into();
                }
                r.alignment_score = 100 - (i % 30) as i32;
                r.edit_distance = (i % 5) as u32;
                r
            })
            .collect()
    }

    fn sorted(mut recs: Vec<SamRecord>) -> Vec<SamRecord> {
        recs.sort_by_key(|r| r.coordinate_key());
        recs
    }

    #[test]
    fn views_read_back_the_records_and_write_the_same_file() {
        let h = header();
        for recs in [Vec::new(), records(7), sorted(mixed_records(3000)), mixed_records(1500)] {
            let (bytes, index) = write_bam_indexed(&h, &recs);
            let (got_header, views) = read_bam_views(&bytes, |_| {}).unwrap();
            assert_eq!(got_header, h);
            assert_eq!(views.iter().map(SamView::to_record).collect::<Vec<_>>(), recs);
            let mut w = BamWriter::new(&h);
            for v in &views {
                w.write_view(v);
            }
            let (rewritten, got_index) = w.finish();
            assert!(rewritten == bytes, "a view writes the bytes its record writes");
            assert_eq!((got_index, views.len()), (index, recs.len()));
        }
    }

    #[test]
    fn qualities_rewritten_in_the_chunk_are_the_records_rewritten() {
        let h = header();
        let recs = mixed_records(1500);
        let bump = |q: &mut u8| *q = (*q + 7) % 41;
        let mut seen = 0;
        let (_, views) = read_bam_views(&write_bam(&h, &recs), |records| {
            for r in records {
                assert_eq!((r.flags, r.seq), (recs[seen].flags, &recs[seen].seq[..]));
                assert_eq!(r.read_group, recs[seen].read_group);
                r.qual.iter_mut().for_each(bump);
                seen += 1;
            }
        })
        .unwrap();
        assert_eq!(seen, recs.len());
        let mut want = recs.clone();
        want.iter_mut().for_each(|r| r.qual.iter_mut().for_each(bump));
        assert_eq!(views.iter().map(SamView::to_record).collect::<Vec<_>>(), want);
    }

    #[test]
    fn writer_emits_the_reference_writers_bytes_offsets_and_index() {
        let h = header();
        for recs in [
            Vec::new(),
            records(7),
            records(2000),
            sorted(mixed_records(3000)),
            mixed_records(1500),
        ] {
            let (bytes, offsets, entries) = reference::write_bam(&h, &recs);
            assert!(write_bam(&h, &recs) == bytes, "file bytes moved");
            let mut w = BamWriter::new(&h);
            for r in &recs {
                w.write_record(r);
            }
            let (streamed, streamed_index) = w.finish();
            assert!(streamed == bytes);
            assert_eq!(chunk_offsets(&streamed_index), offsets);
            // Drained as it is written: the same file and index.
            let (mut w, mut drained) = (BamWriter::new(&h), Vec::new());
            for (i, r) in recs.iter().enumerate() {
                w.write_record(r);
                if i % 97 == 0 {
                    w.drain_into(&mut drained);
                }
            }
            let (rest, drained_index) = w.finish();
            drained.extend(rest);
            assert!(drained == bytes);
            assert_eq!(chunk_offsets(&drained_index), offsets);
            assert_eq!(read_bam(&streamed).unwrap().1.len(), recs.len());
            let (indexed, index) = write_bam_indexed(&h, &recs);
            assert!(indexed == bytes);
            let got: Vec<reference::Entry> = index
                .entries
                .iter()
                .map(|e| (e.offset, e.len, e.min_key, e.max_key))
                .collect();
            assert_eq!(got, entries);
            // `max_end` is the rightmost reach of the chunk's own records.
            for e in &index.entries {
                let frame = &bytes[e.offset as usize..(e.offset + e.len) as usize];
                let reach = decode_frame(frame).unwrap().records().unwrap().iter()
                    .filter(|r| r.is_mapped())
                    .map(|r| (r.ref_id, r.end_pos()))
                    .max()
                    .unwrap_or((NO_REF, 0));
                assert_eq!(e.max_end, reach);
            }
        }
    }

    #[test]
    fn a_file_the_earlier_parse_wrote_reads_back_record_for_record() {
        let h = header();
        let recs = sorted(mixed_records(3000));
        let (old, _, old_entries) =
            reference::write_bam_with(&h, &recs, crate::compress::reference::compress);
        let (new, mut index) = write_bam_indexed(&h, &recs);
        assert!(old != new, "the parse should have moved");
        let (h2, r2) = read_bam(&old).unwrap();
        assert_eq!(h2, h);
        assert!(r2 == recs);
        // Same cut points, so the index differs only in where frames sit.
        assert_eq!(index.entries.len(), old_entries.len());
        for (e, &(offset, len, min_key, max_key)) in index.entries.iter_mut().zip(&old_entries) {
            assert_eq!((e.min_key, e.max_key), (min_key, max_key));
            (e.offset, e.len) = (offset, len);
        }
        for (ref_id, start) in [(0, 1), (0, 20_000), (1, 60_000), (1, 122_500), (0, 130_000)] {
            let got = region(&old, &index, ref_id, start, start + 500).unwrap();
            assert!(!got.is_empty() || start == 130_000);
            assert_eq!(got, brute_force(&recs, ref_id, start, start + 500), "{ref_id}:{start}");
        }
    }

    /// [`read_region`] over a file in memory.
    fn region(bytes: &[u8], index: &BamIndex, ref_id: i32, start: i64, end: i64) -> Result<Vec<SamRecord>> {
        read_region(index, ref_id, start, end, |offset, len| {
            crate::compress::take(bytes, offset as usize, len as usize)
                .ok_or_else(|| FormatError::Bam("index points past end of file".into()))
        })
    }

    fn brute_force(recs: &[SamRecord], ref_id: i32, start: i64, end: i64) -> Vec<SamRecord> {
        recs.iter().filter(|r| r.overlaps(ref_id, start, end)).cloned().collect()
    }

    #[test]
    fn region_query_finds_a_long_span_that_starts_in_an_earlier_chunk() {
        let h = header();
        let mut recs = records(3000); // sorted: pos = 37 i + 1
        let in_chunk0 = {
            let (bytes, index) = write_bam_indexed(&h, &recs);
            let e = index.entries[0];
            let frame = &bytes[e.offset as usize..(e.offset + e.len) as usize];
            decode_frame(frame).unwrap().records().unwrap().len()
        };
        // The last record of chunk 0 spans 2 100 bases, and an early one
        // is spliced across 20 000: both reach far past their chunk's
        // largest start. SEQ lengths — so chunk cuts — are unchanged.
        let long = in_chunk0 - 1;
        recs[long].cigar = Cigar::parse("50M2000D50M").unwrap();
        recs[10].cigar = Cigar::parse("50M20000N50M").unwrap();
        let (bytes, index) = write_bam_indexed(&h, &recs);
        assert!(index.entries.len() > 3 && index.entries[0].max_key == (0, recs[long].pos));
        let mut found_long = false;
        for start in [recs[long].pos + 1_500, recs[long].pos + 2_099, 15_000, 20_470, 20_471] {
            let got = region(&bytes, &index, 0, start, start + 50).unwrap();
            assert_eq!(got, brute_force(&recs, 0, start, start + 50), "region at {start}");
            found_long |= got.contains(&recs[long]);
        }
        assert!(found_long);
        // One base past the spliced record's end, chunk 0 is out again.
        let chunk0 = (index.entries[0].offset, index.entries[0].len);
        assert!(index.chunks_for_region(0, 20_470, 20_500).contains(&chunk0));
        assert!(!index.chunks_for_region(0, 20_471, 20_500).contains(&chunk0));
    }

    #[test]
    fn records_overlapping_is_records_filtered_by_overlaps() {
        let h = header();
        for recs in [sorted(mixed_records(2500)), mixed_records(2500)] {
            let bytes = write_bam(&h, &recs);
            let frames = walk(&bytes);
            assert!(frames.len() > 3);
            for frame in &frames[1..] {
                let chunk = decode_frame(frame).unwrap();
                let all = chunk.records().unwrap();
                for (ref_id, start, end) in [
                    (0, 1, 500),
                    (1, 40_000, 40_500),
                    (0, 60_000, 60_001),
                    (1, 1, i64::MAX),
                    (0, i64::MIN, i64::MAX),
                    (2, 1, 1_000_000),
                    (NO_REF, 0, 10),
                ] {
                    let mut got = vec![all[0].clone()]; // appends, never clears
                    chunk.records_overlapping(ref_id, start, end, &mut got).unwrap();
                    assert_eq!(got[0], all[0]);
                    assert_eq!(got[1..], brute_force(&all, ref_id, start, end));
                }
            }
            // A header chunk has no records to offer.
            let hc = decode_frame(&frames[0]).unwrap();
            assert!(hc.records_overlapping(0, 1, 10, &mut Vec::new()).is_err());
        }
    }

    #[test]
    fn a_forged_record_count_reserves_nothing_it_cannot_hold() {
        let chunk = |count: u64, body: &[u8]| {
            let mut raw = Vec::new();
            put_varint(&mut raw, count);
            raw.extend_from_slice(body);
            Chunk { kind: KIND_RECORDS, raw }
        };
        // A megabyte that claims a record per byte: refused on the count
        // (168 MB of `SamRecord`s would have been reserved for it).
        for forged in [chunk(1 << 20, &vec![0; 1 << 20]), chunk(u64::MAX, b"x"), chunk(2, &[0; 27])] {
            assert!(matches!(forged.records(), Err(FormatError::Bam(_))));
            assert!(matches!(
                forged.records_overlapping(0, 1, 10, &mut Vec::new()),
                Err(FormatError::Bam(_))
            ));
        }
        // Trailing bytes after the last record are an error on both paths.
        let mut raw = records(3).to_wire_bytes();
        raw.push(0);
        let padded = Chunk { kind: KIND_RECORDS, raw };
        assert!(padded.records().is_err());
        assert!(padded.records_overlapping(0, 1, 10, &mut Vec::new()).is_err());
    }

    #[test]
    fn frame_header_rejects_bad_kind() {
        let mut frame = Vec::new();
        append_frame(&mut frame, KIND_RECORDS, b"x");
        frame[0] = 9;
        assert!(matches!(frame_at_head(&frame), Err(NotWhole::BadKind(9))));
    }

    /// The frames of `bytes` as [`FrameWalker`] finds them in one piece.
    fn walk(bytes: &[u8]) -> Vec<SharedBytes> {
        let mut walker = FrameWalker::default();
        walker.push(SharedBytes::copy_from_slice(bytes));
        walker.finish().unwrap()
    }

    /// Where a file's chunks start: the header chunk at 0, then the
    /// record chunk of each index entry.
    fn chunk_offsets(index: &BamIndex) -> Vec<u64> {
        std::iter::once(0).chain(index.entries.iter().map(|e| e.offset)).collect()
    }

    #[test]
    fn frame_reader_single_push() {
        // Whole file in one piece still works — and every frame is a
        // zero-copy window onto that piece, with nothing memcpy'd.
        let h = header();
        let piece = SharedBytes::from_vec(write_bam(&h, &records(50)));
        let mut walker = FrameWalker::default();
        walker.push(piece.clone());
        assert_eq!((walker.bytes_copied, walker.straddled), (0, 0));
        let frames = walker.finish().unwrap();
        assert!(frames.len() >= 2);
        assert!(frames.iter().all(|f| f.same_backing(&piece)));
        assert_eq!(read_chunk_set(&frames).unwrap().0, h);
    }

    #[test]
    fn frame_reader_byte_at_a_time() {
        // Pathological splitting: every byte its own piece, so every
        // frame straddles and each byte is copied once, to stitch it.
        let h = header();
        let recs = records(20);
        let bytes = write_bam(&h, &recs);
        let mut walker = FrameWalker::default();
        for b in &bytes {
            walker.push(SharedBytes::copy_from_slice(std::slice::from_ref(b)));
        }
        let straddled = walker.straddled;
        assert_eq!(walker.bytes_copied, bytes.len() as u64);
        let frames = walker.finish().unwrap();
        assert_eq!(straddled, frames.len());
        assert_eq!(read_chunk_set(&frames).unwrap(), (h, recs));
    }
}
