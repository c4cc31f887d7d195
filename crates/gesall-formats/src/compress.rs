//! Block compression codec.
//!
//! Plays the role BGZF (for BAM chunks) and Snappy (for map-output
//! compression, §4.2) play in the paper's stack. It is a from-scratch
//! byte-oriented LZ77 variant:
//!
//! * greedy matching through an 8-byte hash into a 4 096-entry head
//!   table, copies of at least eight bytes extended both ways, one head
//!   inserted per copy, and a scan that speeds up over data without
//!   repeats (the LZ4 / Snappy parse);
//! * copies encoded as (varint length, varint distance);
//! * literal runs encoded as (varint length, raw bytes);
//! * a 1-byte header selects `Lz` or `Store` (used when compression
//!   would expand the data, e.g. random or already-compressed input).
//!
//! The token grammar is the decoder's contract, not the parse's: any
//! parse that emits valid tokens writes containers every build decodes,
//! and containers written by the earlier min-4 greedy parse (kept as
//! `reference` in test builds) still decode here.
//!
//! A CRC-32 of the uncompressed payload rides along in the BAM chunk frame
//! (see [`crate::bam`]), not here, so the codec itself stays minimal.

use crate::error::{FormatError, Result};
use crate::wire::put_varint;

/// The codec a byte payload is encoded with — the tag that lets a
/// compressed window travel DFS → shuffle → reduce fetch *by reference*
/// (a refcount bump) when producer and consumer speak the same codec,
/// instead of paying a decode/re-encode hop at every boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Uncompressed record bytes.
    Raw,
    /// This module's LZ77 container ([`compress`]/[`decompress`]).
    Lz,
    /// The genomic sequence codec ([`crate::seq_codec`]): 2-bit-packed
    /// bases, run-length binned qualities, delta-coded position runs,
    /// with leftover literals LZ-compressed as a backstop.
    Seq,
}

impl Codec {
    /// The codec registry, in tag order. Wire tags are append-only: a
    /// codec's tag, once shipped, is never reused or renumbered — a
    /// frame written by an old build must decode on a new one, and an
    /// unknown (future) tag must stay a typed [`FormatError::Compress`],
    /// never a panic. Prefer [`Codec::registry`] over spelling the
    /// array out at call sites.
    pub const ALL: [Codec; 3] = [Codec::Raw, Codec::Lz, Codec::Seq];

    /// Every registered codec, in stable tag order.
    pub fn registry() -> &'static [Codec] {
        &Self::ALL
    }

    /// Stable one-byte wire tag.
    pub fn tag(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::Lz => 1,
            Codec::Seq => 2,
        }
    }

    pub fn from_tag(tag: u8) -> Result<Codec> {
        match tag {
            0 => Ok(Codec::Raw),
            1 => Ok(Codec::Lz),
            2 => Ok(Codec::Seq),
            other => Err(FormatError::Compress(format!("unknown codec tag {other}"))),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::Lz => "lz",
            Codec::Seq => "seq",
        }
    }

    pub fn is_compressed(self) -> bool {
        self != Codec::Raw
    }

    /// Encode `input` with this codec, appending to `out`. `Raw` is the
    /// identity; compressed codecs append their self-describing
    /// container. The single dispatch point for segment writers — new
    /// codecs plug in here without touching the shuffle.
    pub fn encode_append(self, input: &[u8], out: &mut Vec<u8>) {
        match self {
            Codec::Raw => out.extend_from_slice(input),
            Codec::Lz => compress_append(input, out),
            Codec::Seq => crate::seq_codec::compress_append(input, out),
        }
    }

    /// Decode a payload encoded with this codec. The single dispatch
    /// point for segment readers (cursor activation, transcoding).
    pub fn decode(self, data: &[u8]) -> Result<Vec<u8>> {
        match self {
            Codec::Raw => Ok(data.to_vec()),
            Codec::Lz => decompress(data),
            Codec::Seq => crate::seq_codec::decompress(data),
        }
    }
}

const MAX_MATCH: usize = 1 << 16;
const WINDOW: usize = 1 << 16;

/// The parse hashes and compares this many bytes, so every copy it
/// emits is at least this long.
const MIN_COPY: usize = 8;
/// `log2` of the head table's entries: 4 096 `u32`s, 16 KiB, in L1.
const HEAD_BITS: u32 = 12;
/// After `2^SKIP_TRIGGER` misses in a row the scan starts stepping two
/// bytes, then three, … until the next copy (LZ4's rule): data without
/// repeats is crossed in fewer probes.
const SKIP_TRIGGER: u32 = 6;

/// Method byte values.
const METHOD_STORE: u8 = 0;
const METHOD_LZ: u8 = 1;

/// Token tags inside an LZ stream.
const TAG_LITERALS: u8 = 0;
const TAG_COPY: u8 = 1;

/// The eight bytes at `input[at..]` as one little-endian word.
#[inline]
fn load8(input: &[u8], at: usize) -> u64 {
    let word: [u8; 8] = input[at..at + 8].try_into().expect("an 8-byte slice");
    u64::from_le_bytes(word)
}

#[inline]
fn hash8(word: u64) -> usize {
    (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - HEAD_BITS)) as usize
}

/// Length of the common prefix of two equally long slices, a word at a
/// time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut n = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("an 8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("an 8-byte chunk"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..].iter().zip(&b[n..]).take_while(|(x, y)| x == y).count()
}

pub(crate) fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data
            .get(*pos)
            .ok_or_else(|| FormatError::Compress("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(FormatError::Compress("varint overflow".into()));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Largest payload a decoder will produce. Container headers and token
/// lengths are untrusted bytes: a header promising more than this is a
/// typed error before anything is allocated, and every token is checked
/// against the header, so no input makes a decoder produce more.
/// Shuffle segments and BAM chunks are orders of magnitude smaller.
pub const MAX_DECODED_LEN: usize = 1 << 30;

/// Output bytes reserved up front per encoded byte. Real containers
/// expand 1.4–4×; a header that promises more gets its buffer by
/// ordinary `Vec` growth as tokens actually deliver the bytes.
const RESERVE_PER_ENCODED_BYTE: usize = 8;

/// A varint length field (token length, count, distance).
pub(crate) fn get_len(data: &[u8], pos: &mut usize) -> Result<usize> {
    // Most token fields fit one byte.
    if let Some(&b) = data.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(b as usize);
        }
    }
    usize::try_from(get_varint(data, pos)?)
        .map_err(|_| FormatError::Compress("length field exceeds the address space".into()))
}

/// A container's raw-length header, refused above [`MAX_DECODED_LEN`].
pub(crate) fn get_raw_len(data: &[u8], pos: &mut usize) -> Result<usize> {
    let n = get_len(data, pos)?;
    if n > MAX_DECODED_LEN {
        return Err(FormatError::Compress(format!(
            "container promises {n} bytes, over the {MAX_DECODED_LEN}-byte decode cap"
        )));
    }
    Ok(n)
}

/// Capacity to reserve for `raw_len` decoded bytes given `encoded_len`
/// bytes of input: never more than the input can justify.
pub(crate) fn decode_reserve(raw_len: usize, encoded_len: usize) -> usize {
    raw_len.min(encoded_len.saturating_mul(RESERVE_PER_ENCODED_BYTE))
}

/// `data[pos..pos + n]`; `None` when the range overflows or leaves `data`.
pub(crate) fn take(data: &[u8], pos: usize, n: usize) -> Option<&[u8]> {
    data.get(pos..pos.checked_add(n)?)
}

/// Compress `input`. The output always begins with a method byte followed
/// by a varint of the uncompressed length.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 10);
    compress_append(input, &mut out);
    out
}

/// Compress `input`, appending the container (method byte, varint raw
/// length, payload) to `out`. This is the single-backing spill path:
/// every partition of a map output compresses into one shared output
/// vector instead of a fresh allocation per segment.
pub fn compress_append(input: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(input.len() / 2 + 16);
    out.push(METHOD_LZ);
    put_varint(out, input.len() as u64);
    let body = out.len();
    // The LZ stream goes straight into `out`; when it fails to shrink
    // the input it is rolled back and the raw bytes stored instead.
    compress_lz(input, out);
    if out.len() - body >= input.len() {
        out.truncate(body);
        out[start] = METHOD_STORE;
        out.extend_from_slice(input);
    }
}

/// "No position yet" in the hash-head table.
const NO_HEAD: u32 = u32::MAX;

thread_local! {
    /// `compress_lz`'s hash-head table, kept per thread: a BAM writer
    /// compresses a 64 KiB chunk at a time, and a fresh table per chunk
    /// cost more than filling this one.
    static LZ_HEADS: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// Head-table probes plus head inserts made by this thread's parses
    /// — what the parse's count gates read (test builds only).
    static HEAD_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Head-table operations this thread's parses have made so far.
#[cfg(test)]
pub(crate) fn thread_head_ops() -> u64 {
    HEAD_OPS.with(|c| c.get())
}

/// Adds `n` to this thread's head-table count; a no-op outside tests.
#[inline]
fn note_head_ops(_n: u64) {
    #[cfg(test)]
    HEAD_OPS.with(|c| c.set(c.get() + _n));
}

/// Append the LZ token stream of `input` to `dest`.
///
/// Heads hold positions modulo 2³², exact for any input a decoder
/// accepts ([`MAX_DECODED_LEN`] is 2³⁰); past 4 GiB a candidate can
/// alias, which costs ratio, never validity — every copy is emitted
/// from bytes that were compared.
fn compress_lz(input: &[u8], dest: &mut Vec<u8>) {
    LZ_HEADS.with(|heads| {
        let mut head = heads.borrow_mut();
        head.clear();
        head.resize(1 << HEAD_BITS, NO_HEAD);
        lz_scan(input, dest, &mut head);
    });
}

/// The parse: hash the eight bytes at `i`, take the previous position
/// with that hash when all eight compare equal inside the window, and
/// extend the copy forward and back into the pending literals. Genomic
/// records are a four-letter alphabet, where four bytes recur almost
/// anywhere in 64 KiB and eight recur only where the data does.
fn lz_scan(input: &[u8], dest: &mut Vec<u8>, head: &mut [u32]) {
    // Owned for the duration of the scan: pushes through a `&mut Vec`
    // reload its pointer and length every time, ~20 % on this loop.
    let mut out = std::mem::take(dest);
    let mut i = 0usize;
    let mut literal_start = 0usize;
    let mut misses = 1usize << SKIP_TRIGGER;
    let mut head_ops = 0u64;

    let flush_literals = |out: &mut Vec<u8>, start: usize, end: usize| {
        if end > start {
            out.push(TAG_LITERALS);
            put_varint(out, (end - start) as u64);
            out.extend_from_slice(&input[start..end]);
        }
    };

    while i + MIN_COPY <= input.len() {
        let word = load8(input, i);
        let slot = &mut head[hash8(word)];
        let dist = (i as u32).wrapping_sub(*slot) as usize;
        let seen = *slot != NO_HEAD;
        *slot = i as u32;
        head_ops += 1;
        // `dist - 1 < WINDOW` is `1 <= dist <= WINDOW`.
        if !(seen && dist.wrapping_sub(1) < WINDOW && load8(input, i - dist) == word) {
            i += misses >> SKIP_TRIGGER;
            misses += 1;
            continue;
        }
        // Back into the pending literals, never before them or before
        // the input, and never past MAX_MATCH in all.
        let mut start = i;
        while start > literal_start
            && start - dist > 0
            && i - start < MAX_MATCH - MIN_COPY
            && input[start - 1] == input[start - 1 - dist]
        {
            start -= 1;
        }
        let max = (input.len() - start).min(MAX_MATCH);
        let matched = i + MIN_COPY - start
            + common_prefix(
                &input[i - dist + MIN_COPY..start - dist + max],
                &input[i + MIN_COPY..start + max],
            );
        flush_literals(&mut out, literal_start, start);
        out.push(TAG_COPY);
        put_varint(&mut out, matched as u64);
        put_varint(&mut out, dist as u64);
        i = start + matched;
        literal_start = i;
        misses = 1 << SKIP_TRIGGER;
        // One head inside the copy, two bytes before its end.
        if i + MIN_COPY - 2 <= input.len() {
            head[hash8(load8(input, i - 2))] = (i - 2) as u32;
            head_ops += 1;
        }
    }
    flush_literals(&mut out, literal_start, input.len());
    *dest = out;
    note_head_ops(head_ops);
}

/// Decompress a buffer produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    if data.is_empty() {
        return Err(FormatError::Compress("empty compressed buffer".into()));
    }
    let method = data[0];
    let mut pos = 1usize;
    let raw_len = get_raw_len(data, &mut pos)?;
    match method {
        METHOD_STORE => {
            let payload = &data[pos..];
            if payload.len() != raw_len {
                return Err(FormatError::Compress(format!(
                    "store block length mismatch: header {raw_len}, payload {}",
                    payload.len()
                )));
            }
            Ok(payload.to_vec())
        }
        METHOD_LZ => decompress_lz(data, pos, raw_len),
        other => Err(FormatError::Compress(format!("unknown method {other}"))),
    }
}

/// Tokens up to this long are written as one fixed-width block copy and
/// trimmed: a constant-size move where a variable-length `memcpy` call
/// would cost more than the bytes.
const WIDE: usize = 16;

/// The `Lz` arm of [`decompress`]: the token stream at `data[pos..]`,
/// which must deliver exactly `raw_len` bytes.
fn decompress_lz(data: &[u8], mut pos: usize, raw_len: usize) -> Result<Vec<u8>> {
    // Every token is held to the header before it writes, so `out`
    // never outgrows `raw_len` — but for the `WIDE` bytes of slack a
    // block copy borrows until its `truncate`.
    let mut out = Vec::with_capacity(decode_reserve(raw_len, data.len()) + WIDE);
    let overflow = || FormatError::Compress("lz tokens overflow raw length".into());
    while pos < data.len() {
        let tag = data[pos];
        pos += 1;
        match tag {
            TAG_LITERALS => {
                let n = get_len(data, &mut pos)?;
                let lits = take(data, pos, n)
                    .ok_or_else(|| FormatError::Compress("truncated literal run".into()))?;
                if n > raw_len - out.len() {
                    return Err(overflow());
                }
                match data.get(pos..pos + WIDE) {
                    Some(block) if n <= WIDE => {
                        let block: &[u8; WIDE] = block.try_into().expect("a WIDE-byte slice");
                        let end = out.len() + n;
                        out.extend_from_slice(block);
                        out.truncate(end);
                    }
                    _ => out.extend_from_slice(lits),
                }
                pos += n;
            }
            TAG_COPY => {
                let len = get_len(data, &mut pos)?;
                let dist = get_len(data, &mut pos)?;
                if dist == 0 || dist > out.len() {
                    return Err(FormatError::Compress(format!(
                        "copy distance {dist} out of range (output {} bytes)",
                        out.len()
                    )));
                }
                if len > MAX_MATCH {
                    return Err(FormatError::Compress("copy too long".into()));
                }
                if len > raw_len - out.len() {
                    return Err(overflow());
                }
                let start = out.len() - dist;
                if len <= WIDE && dist >= WIDE {
                    let end = out.len() + len;
                    out.extend_from_within(start..start + WIDE);
                    out.truncate(end);
                } else if len <= dist {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping copy (dist < len): the bytes repeat
                    // with period `dist`, so each pass may copy all the
                    // output written since `start` — doubling.
                    let mut left = len;
                    while left > 0 {
                        let n = left.min(out.len() - start);
                        out.extend_from_within(start..start + n);
                        left -= n;
                    }
                }
            }
            other => {
                return Err(FormatError::Compress(format!("bad token tag {other}")));
            }
        }
    }
    if out.len() != raw_len {
        return Err(FormatError::Compress(format!(
            "decompressed {} bytes, header said {raw_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// The eight slice-by-8 tables of the reflected IEEE polynomial:
/// `T[0]` is the bytewise table, `T[k][b]` the CRC of byte `b` followed
/// by `k` zero bytes.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected) used to frame BAM
/// chunks: slice-by-8, eight input bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The implementations this module shipped before the container was
/// made to cost what the format requires — bytewise-table CRC, the
/// greedy 4-byte-hash parse over a fresh `usize` head table with
/// byte-at-a-time match extension, a per-byte `push` loop for copies —
/// kept as the oracle the production paths are held to: same CRC
/// values, same output and same `Ok`/`Err` on every hostile container,
/// and every container the old parse wrote still decoding.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    const MIN_MATCH: usize = 4;
    const HASH_BITS: u32 = 15;

    fn hash4(data: &[u8]) -> usize {
        let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    pub(crate) fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = vec![METHOD_LZ];
        put_varint(&mut out, input.len() as u64);
        let body = out.len();
        compress_lz(input, &mut out);
        if out.len() - body >= input.len() {
            out.truncate(body);
            out[0] = METHOD_STORE;
            out.extend_from_slice(input);
        }
        out
    }

    fn compress_lz(input: &[u8], out: &mut Vec<u8>) {
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut i = 0usize;
        let mut literal_start = 0usize;

        let flush_literals = |out: &mut Vec<u8>, start: usize, end: usize| {
            if end > start {
                out.push(TAG_LITERALS);
                put_varint(out, (end - start) as u64);
                out.extend_from_slice(&input[start..end]);
            }
        };

        while i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let candidate = head[h];
            head[h] = i;
            let mut matched = 0usize;
            if candidate != usize::MAX
                && i - candidate <= WINDOW
                && input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH]
            {
                let max = (input.len() - i).min(MAX_MATCH);
                matched = MIN_MATCH;
                while matched < max && input[candidate + matched] == input[i + matched] {
                    matched += 1;
                }
            }
            if matched >= MIN_MATCH {
                flush_literals(out, literal_start, i);
                out.push(TAG_COPY);
                put_varint(out, matched as u64);
                put_varint(out, (i - candidate) as u64);
                let step = if matched > 64 { 7 } else { 1 };
                let mut j = i + 1;
                while j + MIN_MATCH <= input.len() && j < i + matched {
                    head[hash4(&input[j..])] = j;
                    j += step;
                }
                i += matched;
                literal_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(out, literal_start, input.len());
    }

    pub(crate) fn decompress(data: &[u8]) -> Result<Vec<u8>> {
        if data.is_empty() {
            return Err(FormatError::Compress("empty compressed buffer".into()));
        }
        let method = data[0];
        let mut pos = 1usize;
        let raw_len = get_raw_len(data, &mut pos)?;
        match method {
            METHOD_STORE => {
                let payload = &data[pos..];
                if payload.len() != raw_len {
                    return Err(FormatError::Compress("store block length mismatch".into()));
                }
                Ok(payload.to_vec())
            }
            METHOD_LZ => {
                let mut out = Vec::with_capacity(decode_reserve(raw_len, data.len()));
                let overflow = || FormatError::Compress("lz tokens overflow raw length".into());
                while pos < data.len() {
                    let tag = data[pos];
                    pos += 1;
                    match tag {
                        TAG_LITERALS => {
                            let n = get_len(data, &mut pos)?;
                            let lits = take(data, pos, n).ok_or_else(|| {
                                FormatError::Compress("truncated literal run".into())
                            })?;
                            if n > raw_len - out.len() {
                                return Err(overflow());
                            }
                            out.extend_from_slice(lits);
                            pos += n;
                        }
                        TAG_COPY => {
                            let len = get_len(data, &mut pos)?;
                            let dist = get_len(data, &mut pos)?;
                            if dist == 0 || dist > out.len() {
                                return Err(FormatError::Compress("copy distance out of range".into()));
                            }
                            if len > MAX_MATCH {
                                return Err(FormatError::Compress("copy too long".into()));
                            }
                            if len > raw_len - out.len() {
                                return Err(overflow());
                            }
                            let start = out.len() - dist;
                            for k in 0..len {
                                let b = out[start + k];
                                out.push(b);
                            }
                        }
                        other => {
                            return Err(FormatError::Compress(format!("bad token tag {other}")));
                        }
                    }
                }
                if out.len() != raw_len {
                    return Err(FormatError::Compress("decompressed length mismatch".into()));
                }
                Ok(out)
            }
            other => Err(FormatError::Compress(format!("unknown method {other}"))),
        }
    }

    pub(crate) fn crc32(data: &[u8]) -> u32 {
        static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let mut t = [0u32; 256];
            for (i, e) in t.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
                *e = c;
            }
            t
        });
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = table[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"A");
        roundtrip(b"ACG");
        roundtrip(b"ACGT");
    }

    #[test]
    fn roundtrip_repetitive_compresses_well() {
        let data: Vec<u8> = b"ACGTACGTACGT".repeat(1000);
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "repetitive DNA should compress >4x, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_overlapping_copy() {
        // "aaaa..." forces dist=1 overlapping copies.
        let data = vec![b'a'; 5000];
        roundtrip(&data);
    }

    #[test]
    fn incompressible_falls_back_to_store() {
        // Pseudo-random bytes via an LCG: no 8-byte repeats to speak of.
        let data = lcg_bytes(0x12345678, 4096);
        let c = compress(&data);
        assert_eq!(c[0], METHOD_STORE);
        assert!(c.len() <= data.len() + 10);
        assert_eq!(decompress(&c).unwrap(), data);
        assert_eq!(reference::decompress(&c).unwrap(), data);
    }

    #[test]
    fn sam_like_text_compresses() {
        let mut text = Vec::new();
        for i in 0..500 {
            text.extend_from_slice(
                format!("read{i}\t99\tchr1\t{}\t60\t100M\t=\t{}\t300\n", i * 7, i * 7 + 200)
                    .as_bytes(),
            );
        }
        let c = compress(&text);
        assert!(
            c.len() < text.len() * 3 / 5,
            "tab-separated records should compress well: {} -> {}",
            text.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), text);
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        let data = b"the quick brown fox jumps over the lazy dog".repeat(20);
        let mut c = compress(&data);
        // Flip the method byte to garbage.
        c[0] = 7;
        assert!(decompress(&c).is_err());
        // Truncations.
        let c = compress(&data);
        for cut in [1, 2, c.len() / 2, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err() || decompress(&c[..cut]).unwrap() != data);
        }
        assert!(decompress(&[]).is_err());
    }

    /// Forged `Codec::Lz` containers, by name. Each must decode to a
    /// typed error without reserving what its lengths claim.
    fn hostile_lz_containers() -> Vec<(&'static str, Vec<u8>)> {
        let container = |method: u8, raw_len: u64, body: &[u8]| {
            let mut c = vec![method];
            put_varint(&mut c, raw_len);
            c.extend_from_slice(body);
            c
        };
        let token = |tag: u8, fields: &[u64], tail: &[u8]| {
            let mut t = vec![tag];
            for &f in fields {
                put_varint(&mut t, f);
            }
            t.extend_from_slice(tail);
            t
        };
        let over_cap = MAX_DECODED_LEN as u64 + 1;
        // LZ's run token is the overlapping copy: eight literals, then
        // copies that would repeat them 4 MiB past the 64-byte header.
        let mut copy_bomb = token(TAG_LITERALS, &[8], b"ACGTACGT");
        for _ in 0..64 {
            copy_bomb.extend(token(TAG_COPY, &[MAX_MATCH as u64, 8], &[]));
        }
        vec![
            (
                "header bomb",
                container(METHOD_LZ, 1 << 62, &token(TAG_LITERALS, &[1], b"x")),
            ),
            (
                "header bomb, just over the cap",
                container(METHOD_LZ, over_cap, &[]),
            ),
            (
                "header bomb, store arm",
                container(METHOD_STORE, 1 << 62, b"xyz"),
            ),
            (
                "header wider than the address space",
                container(METHOD_LZ, u64::MAX, &[]),
            ),
            ("RUN bomb", container(METHOD_LZ, 64, &copy_bomb)),
            ("RUN bomb, one copy past MAX_MATCH", {
                let mut body = token(TAG_LITERALS, &[1], b"x");
                body.extend(token(TAG_COPY, &[1 << 62, 1], &[]));
                container(METHOD_LZ, 64, &body)
            }),
            (
                "LIT length past the blob",
                container(METHOD_LZ, 64, &token(TAG_LITERALS, &[64], b"short")),
            ),
            (
                "LIT length wraps the offset",
                container(METHOD_LZ, 64, &token(TAG_LITERALS, &[u64::MAX], b"x")),
            ),
            (
                "LIT run past the header",
                container(METHOD_LZ, 2, &token(TAG_LITERALS, &[5], b"hello")),
            ),
        ]
    }

    /// The named hostile inputs of every codec. `Raw` has none to
    /// forge: it decodes any bytes to themselves, checked below.
    fn hostile_containers(codec: Codec) -> Vec<(&'static str, Vec<u8>)> {
        match codec {
            Codec::Raw => Vec::new(),
            Codec::Lz => hostile_lz_containers(),
            Codec::Seq => crate::seq_codec::hostile_containers(),
        }
    }

    #[test]
    fn length_bombs_are_typed_errors_for_every_registry_codec() {
        for &codec in Codec::registry() {
            let cases = hostile_containers(codec);
            if codec.is_compressed() {
                for required in ["header bomb", "RUN bomb", "LIT length past the blob"] {
                    assert!(
                        cases.iter().any(|(name, _)| *name == required),
                        "{} has no {required:?} case",
                        codec.name()
                    );
                }
            }
            for (name, bytes) in cases {
                assert!(
                    matches!(codec.decode(&bytes), Err(FormatError::Compress(_))),
                    "{}: {name} must be a typed error",
                    codec.name()
                );
            }
        }
        // What a decoder reserves follows the input, not the header.
        assert_eq!(
            decode_reserve(MAX_DECODED_LEN, 12),
            12 * RESERVE_PER_ENCODED_BYTE
        );
        assert_eq!(decode_reserve(100, usize::MAX), 100);
    }

    #[test]
    fn a_valid_container_cut_at_any_offset_is_an_error_for_every_registry_codec() {
        let mut data = b"read7\x63\x96\x01ACGTTGCAACGTACGTACGTTGCAACGT".repeat(12);
        data.extend_from_slice(&[37; 40]);
        for &codec in Codec::registry() {
            let mut enc = Vec::new();
            codec.encode_append(&data, &mut enc);
            assert_eq!(codec.decode(&enc).unwrap(), data);
            for cut in 0..enc.len() {
                match codec.decode(&enc[..cut]) {
                    // Raw has no framing to violate: the prefix is the payload.
                    Ok(prefix) => assert!(!codec.is_compressed() && prefix == enc[..cut]),
                    Err(e) => assert!(
                        matches!(e, FormatError::Compress(_)),
                        "{}: cut {cut}",
                        codec.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn compress_append_matches_compress_and_stacks() {
        let a = b"ACGTACGT".repeat(200);
        let b = b"the quick brown fox".repeat(50);
        let mut out = Vec::new();
        compress_append(&a, &mut out);
        let first_len = out.len();
        assert_eq!(out, compress(&a));
        compress_append(&b, &mut out);
        // Both containers decode from their slices of the shared buffer.
        for (container, raw) in [(&out[..first_len], &a), (&out[first_len..], &b)] {
            assert_eq!(&decompress(container).unwrap(), raw);
            assert_eq!(&reference::decompress(container).unwrap(), raw);
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    fn lcg_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        // Every remainder length of the 8-byte step, at every offset of
        // the slice within a word.
        let data = lcg_bytes(7, 4_100 + 8);
        for offset in 0..8 {
            for len in 0..=4_100 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), reference::crc32(s), "offset {offset}, len {len}");
            }
        }
    }

    /// Wire-encoded aligned records: the bytes a BAM chunk compresses.
    fn sam_wire(seed: u64, n: usize) -> Vec<u8> {
        use crate::sam::{Cigar, Flags, SamRecord};
        use crate::wire::Wire;
        let noise = lcg_bytes(seed, n * 200);
        let mut buf = Vec::new();
        for (i, chunk) in noise.chunks(200).enumerate() {
            let seq: Vec<u8> = chunk[..100].iter().map(|b| b"ACGT"[(b & 3) as usize]).collect();
            let qual: Vec<u8> = chunk[100..].iter().map(|b| 2 + b % 39).collect();
            let mut r = SamRecord::unmapped(format!("sim.{seed}.{i}/1"), seq, qual);
            r.flags = Flags(Flags::PAIRED);
            r.ref_id = (i % 2) as i32;
            r.pos = 1 + (i as i64) * 13;
            r.mapq = 60;
            r.cigar = Cigar::parse(if i % 7 == 0 { "5S90M5S" } else { "100M" }).unwrap();
            r.mate_ref_id = r.ref_id;
            r.mate_pos = r.pos + 250;
            r.tlen = 350;
            r.read_group = "rg1".into();
            r.encode(&mut buf);
        }
        buf
    }

    /// One token of an `Lz` container.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Token {
        Literals(usize),
        Copy { len: usize, dist: usize },
    }

    /// The tokens of a container: non-empty literal runs, copies of at
    /// most `MAX_MATCH` bytes from inside the window and the output so
    /// far. `Store` has none.
    fn tokens(container: &[u8]) -> Vec<Token> {
        let mut pos = 1;
        let raw_len = get_raw_len(container, &mut pos).unwrap();
        let mut toks = Vec::new();
        if container[0] == METHOD_STORE {
            return toks;
        }
        let mut produced = 0;
        while pos < container.len() {
            let tag = container[pos];
            pos += 1;
            let n = get_len(container, &mut pos).unwrap();
            let tok = if tag == TAG_LITERALS {
                assert!(n > 0, "empty literal run");
                pos += n;
                Token::Literals(n)
            } else {
                let dist = get_len(container, &mut pos).unwrap();
                assert!((1..=MAX_MATCH).contains(&n), "copy of {n} bytes");
                assert!((1..=WINDOW.min(produced)).contains(&dist), "copy from {dist} back");
                Token::Copy { len: n, dist }
            };
            produced += match tok {
                Token::Literals(n) | Token::Copy { len: n, .. } => n,
            };
            toks.push(tok);
        }
        assert_eq!(produced, raw_len);
        toks
    }

    /// The tokens of a container `compress` wrote: every copy is at
    /// least `MIN_COPY` bytes.
    fn parse_tokens(container: &[u8]) -> Vec<Token> {
        let toks = tokens(container);
        for t in &toks {
            assert!(!matches!(t, Token::Copy { len, .. } if *len < MIN_COPY), "{t:?}");
        }
        toks
    }

    /// `input` survives the parse through both decoders, and the
    /// container holds only tokens the parse may emit.
    fn assert_round_trips(input: &[u8], what: &str) -> Vec<Token> {
        let c = compress(input);
        assert!(decompress(&c).unwrap() == input, "{what}: round trip");
        assert!(reference::decompress(&c).unwrap() == input, "{what}: reference decoder");
        parse_tokens(&c)
    }

    #[test]
    fn compress_round_trips_through_both_decoders() {
        assert_round_trips(&sam_wire(1, 400), "sam wire");
        assert_round_trips(&sam_wire(2, 3), "sam wire, short");
        assert_round_trips(&b"ACGTACGTACGT".repeat(1000), "repetitive");
        assert_round_trips(&lcg_bytes(3, 70_000), "random");
        for n in 0..16 {
            assert_round_trips(&lcg_bytes(n as u64, n), "tiny, random");
            assert_round_trips(&b"ACGTACGTACGTACGT"[..n], "tiny, periodic");
            assert_round_trips(&vec![b'a'; n], "tiny, run");
        }
        // dist < len copies, of every short period.
        for period in 1..=16usize {
            let unit = lcg_bytes(period as u64, period);
            let toks = assert_round_trips(&unit.repeat(600 / period), "periodic");
            assert!(toks.len() <= 3, "period {period}: {toks:?}");
        }
    }

    #[test]
    fn a_run_past_max_match_is_cut_into_max_match_copies() {
        let toks = assert_round_trips(&vec![b'a'; MAX_MATCH + 4_000], "one long run");
        assert_eq!(
            toks[..2],
            [Token::Literals(1), Token::Copy { len: MAX_MATCH, dist: 1 }]
        );
    }

    #[test]
    fn a_repeat_is_copied_inside_the_window_and_not_past_it() {
        // Eight random bytes, a run that the parse copies in one token
        // (resetting its skip), then the same eight bytes `gap` later.
        let word = lcg_bytes(11, MIN_COPY);
        for gap in [WINDOW - 1, WINDOW, WINDOW + 1] {
            let mut v = word.clone();
            v.resize(gap, b'z');
            v.extend(&word);
            let toks = assert_round_trips(&v, "window edge");
            let copied = toks.contains(&Token::Copy { len: MIN_COPY, dist: gap });
            assert_eq!(copied, gap <= WINDOW, "gap {gap}: {toks:?}");
        }
    }

    #[test]
    fn backward_extension_stops_at_the_input_start_and_at_the_last_copy() {
        // `p` recurs ten bytes on, after a copy of its own last byte:
        // the extension would compare the byte before offset 0 next.
        let p = lcg_bytes(21, 8);
        let mut v = p.clone();
        v.extend([p[7], p[7]]);
        v.extend(&p);
        let toks = assert_round_trips(&v, "offset 0");
        assert_eq!(toks, [Token::Literals(10), Token::Copy { len: 8, dist: 10 }]);

        // g·l·p, then g·y (g copied), then g·l·p: the third g is copied
        // from the second and ends where y and l differ; l·p is then
        // copied from the first, and the byte before it (g's last)
        // matches there too, but belongs to the copy just emitted.
        let (g, l, p, mut y) = (lcg_bytes(1, 8), lcg_bytes(2, 3), lcg_bytes(3, 8), lcg_bytes(4, 5));
        y[0] = !l[0];
        y[4] = !p[7];
        let v = [&g[..], &l, &p, &g, &y, &g, &l, &p].concat();
        let toks = assert_round_trips(&v, "literal start");
        assert_eq!(
            toks,
            [
                Token::Literals(19),
                Token::Copy { len: 8, dist: 19 },
                Token::Literals(5),
                Token::Copy { len: 8, dist: 13 },
                Token::Copy { len: 11, dist: 32 },
            ]
        );
    }

    /// Coordinate-sorted reads simulated by `gesall-datagen` on its tiny
    /// genome, as aligned records at their true positions, wire-encoded:
    /// what a sorted BAM chunk holds.
    fn sorted_datagen_wire(n_pairs: usize) -> Vec<u8> {
        use crate::sam::{Cigar, Flags, SamRecord};
        use crate::wire::Wire;
        use gesall_datagen::{
            donor::DonorConfig, reads::ReadSimConfig, DonorGenome, GenomeConfig, ReadSimulator,
            ReferenceGenome,
        };
        let genome = ReferenceGenome::generate(&GenomeConfig::tiny());
        let donor = DonorGenome::generate(&genome, &DonorConfig::default());
        let cfg = ReadSimConfig { n_pairs, duplicate_rate: 0.05, ..ReadSimConfig::default() };
        let read_len = cfg.read_len as i64;
        let (pairs, origins) = ReadSimulator::new(&genome, &donor, cfg).simulate();
        let mut recs = Vec::new();
        for (pair, o) in pairs.iter().zip(&origins) {
            let pos = [o.ref_start + 1, o.ref_start + o.insert_len as i64 - read_len + 1];
            for (k, read) in [&pair.r1, &pair.r2].into_iter().enumerate() {
                let mut r = SamRecord::unmapped(read.name.clone(), read.seq.clone(), read.qual.clone());
                r.flags = Flags(Flags::PAIRED);
                r.flags.set(Flags::UNMAPPED, false);
                r.flags.set(Flags::REVERSE, k == 1);
                r.ref_id = o.chrom_index as i32;
                r.pos = pos[k];
                r.mapq = 60;
                r.cigar = Cigar::full_match(read.seq.len() as u32);
                r.mate_ref_id = r.ref_id;
                r.mate_pos = pos[1 - k];
                r.tlen = if k == 0 { o.insert_len as i64 } else { -(o.insert_len as i64) };
                r.read_group = "rg1".into();
                recs.push(r);
            }
        }
        recs.sort_by_key(|r| r.coordinate_key());
        let mut buf = Vec::new();
        for r in &recs {
            r.encode(&mut buf);
        }
        buf
    }

    /// (container bytes, tokens, head-table operations) of `data` cut
    /// into 64 KiB containers, as a BAM writer cuts it.
    fn parse_cost(data: &[u8], encode: fn(&[u8]) -> Vec<u8>) -> (usize, usize, u64) {
        let (mut bytes, mut toks) = (0, 0);
        let ops = thread_head_ops();
        for chunk in data.chunks(1 << 16) {
            let c = encode(chunk);
            assert!(decompress(&c).unwrap() == chunk);
            bytes += c.len();
            toks += tokens(&c).len();
        }
        (bytes, toks, thread_head_ops() - ops)
    }

    /// Count gates on the parse, against the min-4 greedy reference in
    /// 64 KiB containers. Exact counts, so they hold under any load.
    ///
    /// On coordinate-sorted reads, where overlapping reads repeat the
    /// genome, the container is smaller, it is cut into far fewer
    /// tokens, and the head table is touched less than once per two
    /// input bytes. `sam_wire` draws every read at random, so only the
    /// record framing repeats: the parse cuts as few tokens there, and
    /// gives back at most a few percent of bytes to the 4–7-byte copies
    /// it no longer takes.
    #[test]
    fn the_parse_cuts_fewer_tokens_and_probes_less_than_the_reference() {
        // (corpus, bytes ratio, tokens ratio, head ops per byte) bounds.
        let corpora = [
            ("sorted datagen", sorted_datagen_wire(4_000), 0.95, 0.3, 0.55),
            ("sam wire", sam_wire(9, 4_000), 1.05, 0.3, 0.75),
        ];
        for (what, data, max_bytes, max_toks, max_ops) in corpora {
            let (bytes, toks, ops) = parse_cost(&data, compress);
            let (ref_bytes, ref_toks, _) = parse_cost(&data, reference::compress);
            let bytes_ratio = bytes as f64 / ref_bytes as f64;
            let toks_ratio = toks as f64 / ref_toks as f64;
            let ops_per_byte = ops as f64 / data.len() as f64;
            assert!(bytes_ratio <= max_bytes, "{what}: {bytes} vs {ref_bytes} bytes");
            assert!(toks_ratio <= max_toks, "{what}: {toks} vs {ref_toks} tokens");
            assert!(ops_per_byte <= max_ops, "{what}: {ops_per_byte:.3} head ops per byte");
        }
    }

    /// `decompress` and the reference agree on `Ok`/`Err` and on the bytes.
    fn assert_same_decode(container: &[u8], what: &str) {
        match (decompress(container), reference::decompress(container)) {
            (Ok(a), Ok(b)) => assert!(a == b, "{what}: decoded bytes differ"),
            (Err(FormatError::Compress(_)), Err(_)) => {}
            (a, b) => panic!("{what}: {:?} vs reference {:?}", a.map(|v| v.len()), b.map(|v| v.len())),
        }
    }

    #[test]
    fn decompress_agrees_with_the_reference_on_hostile_and_cut_containers() {
        for (name, bytes) in hostile_lz_containers() {
            assert_same_decode(&bytes, name);
            for cut in 0..bytes.len() {
                assert_same_decode(&bytes[..cut], name);
            }
        }
        let mut inputs = vec![sam_wire(5, 40), b"ACGTACGTACGT".repeat(90), vec![b'a'; 3_000]];
        inputs.extend((1..=20usize).map(|p| lcg_bytes(p as u64, p).repeat(40)));
        for input in inputs {
            let c = compress(&input);
            assert!(decompress(&c).unwrap() == input);
            for cut in 0..c.len() {
                assert_same_decode(&c[..cut], "cut container");
            }
            // Every single-byte change: a forged tag, length or distance.
            for at in 0..c.len() {
                let mut forged = c.clone();
                for delta in [1u8, 0x80, 0xff] {
                    forged[at] = c[at] ^ delta;
                    assert_same_decode(&forged, "forged container");
                }
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Inputs with the structure LZ feeds on: literal noise, repeats
        /// of earlier spans at short and long distances, byte runs.
        fn arb_lz_input() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec((0u8..4, any::<u64>(), 1usize..300), 0..40).prop_map(|parts| {
                let mut v: Vec<u8> = Vec::new();
                for (kind, seed, n) in parts {
                    match kind {
                        0 => v.extend(lcg_bytes(seed, n)),
                        1 => v.extend(std::iter::repeat_n(seed as u8, n)),
                        _ if v.is_empty() => v.extend(lcg_bytes(seed, n)),
                        // Copy n bytes from a random earlier offset; a
                        // source that runs into the copy is dist < len.
                        _ => {
                            let from = (seed as usize) % v.len();
                            for k in 0..n {
                                v.push(v[from + k]);
                            }
                        }
                    }
                }
                v
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn compress_round_trips_through_both_decoders_on_structured_input(input in arb_lz_input()) {
                let got = compress(&input);
                prop_assert!(decompress(&got).unwrap() == input);
                prop_assert!(reference::decompress(&got).unwrap() == input);
                parse_tokens(&got);
            }

            #[test]
            fn containers_of_the_reference_parse_still_decode(input in arb_lz_input()) {
                prop_assert!(decompress(&reference::compress(&input)).unwrap() == input);
            }

            #[test]
            fn decompress_is_the_reference_on_mutated_containers(
                input in arb_lz_input(),
                at in any::<usize>(),
                byte in any::<u8>(),
                cut in any::<usize>(),
            ) {
                let mut c = compress(&input);
                let at = at % c.len();
                c[at] = byte;
                assert_same_decode(&c, "mutated");
                assert_same_decode(&c[..cut % (c.len() + 1)], "mutated and cut");
            }

            #[test]
            fn decompress_is_the_reference_on_arbitrary_bytes(
                body in proptest::collection::vec(any::<u8>(), 0..200),
                raw_len in 0u64..600,
            ) {
                // Token soup under an Lz header: tags are 0 or 1 often
                // enough that whole tokens parse.
                let mut c = vec![METHOD_LZ];
                put_varint(&mut c, raw_len);
                c.extend(body.iter().map(|b| if b % 3 == 0 { b & 1 } else { *b }));
                assert_same_decode(&c, "token soup");
                assert_same_decode(&body, "arbitrary bytes");
            }
        }
    }
}
