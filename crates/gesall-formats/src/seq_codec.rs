//! The genomic sequence codec (`Codec::Seq`).
//!
//! Generic LZ77 treats an alignment-record stream as opaque bytes and
//! leaves most of the sequence field on the table: random-ish DNA has
//! few byte-level repeats, yet every base fits in 2 bits. Following the
//! FASTA/Q-aware Hadoop codecs (PAPERS.md, arXiv:2007.13673) this codec
//! recognises the three shapes that dominate shuffled genomic records
//! and encodes each with a domain-specific token, falling back to
//! LZ-compressed literals for everything else:
//!
//! * **BASES** — a run of ACGT ASCII bytes, 2-bit packed in the same
//!   LSB-first word layout as [`crate::dna::PackedSeq`] (base `i` lives
//!   in bit-lane `(i % 4) * 2` of byte `i / 4`, i.e. the little-endian
//!   serialization of PackedSeq's `u64` words) — 4 bases per byte.
//! * **RUN** — a run of one repeated byte, stored as (value, length).
//!   Covers binned quality strings, homopolymers, and N-runs.
//! * **DELTA** — a run of canonical LEB128 varints (sorted positions),
//!   stored as the first value plus zigzag-encoded deltas. Only emitted
//!   when the encoder proves the token re-expands byte-identically and
//!   is strictly smaller than the raw varints.
//! * **LIT** — everything else. Literal bytes are pulled out of line
//!   into one blob and LZ-compressed together, so read names and
//!   quality strings sit next to their cross-record twins instead of
//!   being interleaved with incompressible bases.
//!
//! The container is self-describing and *lossless for arbitrary input*
//! (the round-trip property the format proptests enforce): a method
//! byte selects `Store` when tokenisation would expand the data, so the
//! worst case degenerates to the LZ store path plus one byte.
//!
//! Container layout:
//!
//! ```text
//! [method u8]               0 = store, 2 = seq
//! [varint raw_len]
//! store: [raw bytes]
//! seq:   [varint token_len] [tokens] [lz container of the literal blob]
//! ```

use crate::compress::{self, get_len, get_raw_len, get_varint, take};
use crate::error::{FormatError, Result};
use crate::wire::{put_varint, varint_len};

const METHOD_STORE: u8 = 0;
const METHOD_SEQ: u8 = 2;

/// Token opcodes inside a seq stream.
const TOK_BASES: u8 = 0;
const TOK_RUN: u8 = 1;
const TOK_LIT: u8 = 2;
const TOK_DELTA: u8 = 3;

/// Shortest same-byte run worth a RUN token (break-even is 3–4 bytes;
/// below this a run packs better as bases or literals).
const RUN_MIN: usize = 6;
/// Shortest ACGT stretch worth a BASES token. Short stretches (flag
/// bytes that happen to be letters, "ACGT" inside a read name) stay
/// literal so the LZ backstop can match them across records.
const BASES_MIN: usize = 16;
/// Shortest canonical-varint run worth *attempting* a DELTA token.
const DELTA_MIN: usize = 4;
/// Most values one DELTA token carries.
const DELTA_MAX: usize = 255;

/// `BASE_CODE[b]` for a byte that is not A, C, G or T.
const NOT_BASE: u8 = 4;
/// Byte → 2-bit base code, [`NOT_BASE`] for everything else.
const BASE_CODE: [u8; 256] = {
    let mut table = [NOT_BASE; 256];
    table[b'A' as usize] = 0;
    table[b'C' as usize] = 1;
    table[b'G' as usize] = 2;
    table[b'T' as usize] = 3;
    table
};

const BASE_ASCII: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// Compress `input` into a fresh container.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 3 + 16);
    compress_append(input, &mut out);
    out
}

/// Compress `input`, appending the container to `out`.
pub fn compress_append(input: &[u8], out: &mut Vec<u8>) {
    let mut tokens = Vec::with_capacity(input.len() / 4 + 16);
    let mut lits = Vec::with_capacity(input.len());
    tokenize(input, &mut tokens, &mut lits);

    let start = out.len();
    out.push(METHOD_SEQ);
    put_varint(out, input.len() as u64);
    let header_len = out.len() - start;
    put_varint(out, tokens.len() as u64);
    out.extend_from_slice(&tokens);
    compress::compress_append(&lits, out);
    // Self-describing sizes: keep whichever container is smaller. The
    // store arm holds pathological inputs within one byte of raw, so a
    // seq container that failed to shrink them is rolled back.
    if out.len() - start >= header_len + input.len() {
        out.truncate(start + header_len);
        out[start] = METHOD_STORE;
        out.extend_from_slice(input);
    }
}

/// Split `input` into tokens; literal bytes go to `lits`.
///
/// One forward pass, constant work per byte: a same-byte run or an ACGT
/// stretch too short for its token is measured once, not once per byte
/// inside it, and DELTA probes are answered by [`DeltaProbe`], which
/// parses each varint of the stream once however many probes see it.
fn tokenize(input: &[u8], tokens: &mut Vec<u8>, lits: &mut Vec<u8>) {
    let mut i = 0;
    // Start of the literal stretch not yet flushed as a LIT token.
    let mut lit_from = 0;
    let flush_lits = |tokens: &mut Vec<u8>, lits: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            tokens.push(TOK_LIT);
            put_varint(tokens, (to - from) as u64);
            lits.extend_from_slice(&input[from..to]);
        }
    };
    // End of the last ACGT stretch found shorter than BASES_MIN: every
    // position inside it starts an even shorter one.
    let mut short_bases_end = 0;
    let mut delta = DeltaProbe::new(input);
    while i < input.len() {
        // RUN first: a homopolymer is also a bases run, but at RUN_MIN+
        // lengths the (value, length) pair is strictly smaller.
        let b = input[i];
        let rest = &input[i..];
        let run = rest.iter().position(|&x| x != b).unwrap_or(rest.len());
        if run >= RUN_MIN {
            flush_lits(tokens, lits, lit_from, i);
            tokens.push(TOK_RUN);
            tokens.push(b);
            put_varint(tokens, run as u64);
            i += run;
            lit_from = i;
            continue;
        }
        // BASES next: ACGT bytes are also single-byte varints, so this
        // must win over DELTA.
        if BASE_CODE[b as usize] != NOT_BASE && i >= short_bases_end {
            let n = rest
                .iter()
                .position(|&x| BASE_CODE[x as usize] == NOT_BASE)
                .unwrap_or(rest.len());
            if n >= BASES_MIN {
                flush_lits(tokens, lits, lit_from, i);
                tokens.push(TOK_BASES);
                put_varint(tokens, n as u64);
                pack_bases(&rest[..n], tokens);
                i += n;
                lit_from = i;
                continue;
            }
            short_bases_end = i + n;
        }
        // DELTA: a run of canonical varints that shrinks under
        // first + zigzag deltas (sorted genomic positions). Bytes < 0x80
        // — quality scores, ASCII text — parse as single-byte varints
        // that cost a token byte each and can never repay the token
        // header, so a profitable run must lead with a multi-byte
        // varint (continuation bit set).
        if b >= 0x80 {
            if let Some(run) = delta.probe(i) {
                flush_lits(tokens, lits, lit_from, i);
                delta.write_token(&run, tokens);
                i += run.consumed;
                lit_from = i;
                continue;
            }
        }
        i += 1;
    }
    flush_lits(tokens, lits, lit_from, input.len());
}

/// Append `bases` (all ACGT) 2-bit packed, four per byte, LSB first.
fn pack_bases(bases: &[u8], tokens: &mut Vec<u8>) {
    let code = |b: u8| BASE_CODE[b as usize];
    let mut quads = bases.chunks_exact(4);
    tokens.extend(
        quads
            .by_ref()
            .map(|q| code(q[0]) | code(q[1]) << 2 | code(q[2]) << 4 | code(q[3]) << 6),
    );
    let tail = quads.remainder();
    if !tail.is_empty() {
        tokens.push(
            tail.iter()
                .enumerate()
                .fold(0, |byte, (k, &b)| byte | code(b) << (k * 2)),
        );
    }
}

/// Test builds count every varint parse of the tokenizer, to pin its
/// linear work without a clock.
#[inline]
fn count_varint_parse() {
    #[cfg(test)]
    tests::VARINT_PARSES.with(|n| n.set(n.get() + 1));
}

/// Parse the varint at `input[at..]` if it is canonical: complete, and
/// re-encoding to the exact same bytes (no overlong encodings), which is
/// what makes the decoder's re-encode byte-identical. Returns the value
/// and the offset just past it.
#[inline]
fn canonical_varint(input: &[u8], at: usize) -> Option<(u64, usize)> {
    count_varint_parse();
    // Most of a record stream is single-byte varints.
    match input.get(at) {
        Some(&b) if b < 0x80 => return Some((b as u64, at + 1)),
        _ => {}
    }
    let mut v = 0u64;
    for (k, &b) in input[at..].iter().take(10).enumerate() {
        v |= ((b & 0x7f) as u64) << (7 * k);
        if b < 0x80 {
            // A zero top group is overlong; a tenth byte holds only bit
            // 63, and anything else there is dropped by the shift.
            let canonical = (b != 0 || k == 0) && (k < 9 || b == 1);
            return canonical.then_some((v, at + k + 1));
        }
    }
    None // runs off the input, or past ten bytes
}

/// A profitable DELTA run found by [`DeltaProbe::probe`].
struct DeltaRun {
    /// Input bytes the token replaces.
    consumed: usize,
    /// Values in the run, first included.
    count: usize,
    first: u64,
}

/// One canonical varint of the stream parse.
#[derive(Clone, Copy, Default)]
struct Parsed {
    /// Offset just past the varint.
    end: usize,
    value: u64,
    /// Running Σ `varint_len(zigzag(value − previous value))` over the
    /// ring; only differences between two entries are meaningful.
    delta_bytes: usize,
}

/// Ring capacity: a power of two that holds a probe's `DELTA_MAX − 1`
/// followers.
const RING: usize = 256;

/// Answers "do the canonical varints at `input[i..]` delta-encode
/// strictly smaller than their raw bytes?" in amortised O(1).
///
/// A probe greedily takes up to [`DELTA_MAX`] canonical varints. Its
/// first value is the varint starting at `i` — the tail of whatever
/// varint `i` sits inside — and ends at the first byte < 0x80; from
/// there on every probe, whatever its offset, reads the same varint
/// boundaries. So that stream is parsed once into a ring of the next
/// ≤ `DELTA_MAX − 1` canonical varints, each carrying the running
/// delta-encoded size, and a probe is: parse the first value, drop ring
/// entries behind it, top the ring up, subtract two running sums.
struct DeltaProbe<'a> {
    input: &'a [u8],
    /// Consecutive canonical varints of the stream, oldest at `head`.
    ring: [Parsed; RING],
    head: usize,
    len: usize,
    /// The entry pushed last (possibly dropped since): the stream parse
    /// resumes at its `end`, and the next entry's running sum builds on
    /// its `delta_bytes`.
    last: Parsed,
    /// The varint at `last.end` is not canonical, so the ring cannot
    /// grow until a probe realigns past it.
    blocked: bool,
}

impl<'a> DeltaProbe<'a> {
    fn new(input: &'a [u8]) -> Self {
        DeltaProbe {
            input,
            ring: [Parsed::default(); RING],
            head: 0,
            len: 0,
            last: Parsed::default(),
            blocked: false,
        }
    }

    fn at(&self, k: usize) -> Parsed {
        self.ring[(self.head + k) % RING]
    }

    /// Probe offsets must not decrease from call to call.
    fn probe(&mut self, i: usize) -> Option<DeltaRun> {
        let (first, end) = canonical_varint(self.input, i)?;
        // Realign: drop the entries the first value covers or has
        // passed. `end` follows a byte < 0x80, and so does every ring
        // boundary, so if any entry survives the front one starts at
        // `end`; if none does, the parse jumps ahead to `end`.
        while self.len > 0 && self.ring[self.head].end <= end {
            self.head = (self.head + 1) % RING;
            self.len -= 1;
        }
        if self.len == 0 && self.last.end < end {
            self.last.end = end;
            self.blocked = false;
        }
        let mut last = self.last;
        while self.len < DELTA_MAX - 1 && !self.blocked {
            let Some((value, end)) = canonical_varint(self.input, last.end) else {
                self.blocked = true;
                break;
            };
            last = Parsed {
                end,
                value,
                delta_bytes: last.delta_bytes + delta_len(last.value, value),
            };
            self.ring[(self.head + self.len) % RING] = last;
            self.len += 1;
        }
        self.last = last;
        // Greedy: take the longest run, then check profitability.
        let count = 1 + self.len;
        if count < DELTA_MIN {
            return None;
        }
        let (second, tail) = (self.at(0), self.at(self.len - 1));
        let consumed = tail.end - i;
        let token_len = 1
            + varint_len(count as u64)
            + varint_len(first)
            + delta_len(first, second.value)
            + (tail.delta_bytes - second.delta_bytes);
        (token_len + 2 <= consumed).then_some(DeltaRun {
            consumed,
            count,
            first,
        })
    }

    /// Append the DELTA token of the run the last probe returned.
    /// Deltas wrap in `u64` space, so any value sequence is representable.
    fn write_token(&self, run: &DeltaRun, tokens: &mut Vec<u8>) {
        tokens.push(TOK_DELTA);
        put_varint(tokens, run.count as u64);
        put_varint(tokens, run.first);
        let mut prev = run.first;
        for k in 0..run.count - 1 {
            let value = self.at(k).value;
            put_varint(tokens, zigzag(value.wrapping_sub(prev) as i64));
            prev = value;
        }
    }
}

/// Encoded size of the zigzag delta that takes `from` to `to`.
#[inline]
fn delta_len(from: u64, to: u64) -> usize {
    varint_len(zigzag(to.wrapping_sub(from) as i64))
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Decompress a container produced by [`compress`]/[`compress_append`].
/// Corrupt input is a typed [`FormatError::Compress`], never a panic,
/// and never an allocation past [`compress::MAX_DECODED_LEN`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0;
    let method = *data
        .get(pos)
        .ok_or_else(|| FormatError::Compress("empty seq container".into()))?;
    pos += 1;
    let raw_len = get_raw_len(data, &mut pos)?;
    match method {
        METHOD_STORE => {
            let payload = &data[pos..];
            if payload.len() != raw_len {
                return Err(FormatError::Compress(format!(
                    "seq store length mismatch: header {raw_len}, payload {}",
                    payload.len()
                )));
            }
            Ok(payload.to_vec())
        }
        METHOD_SEQ => {
            let token_len = get_len(data, &mut pos)?;
            let tokens = take(data, pos, token_len)
                .ok_or_else(|| FormatError::Compress("truncated seq token stream".into()))?;
            let lits = compress::decompress(&data[pos + token_len..])?;
            expand_tokens(tokens, &lits, raw_len, data.len())
        }
        other => Err(FormatError::Compress(format!(
            "unknown seq method byte {other}"
        ))),
    }
}

fn expand_tokens(
    tokens: &[u8],
    lits: &[u8],
    raw_len: usize,
    encoded_len: usize,
) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(compress::decode_reserve(raw_len, encoded_len));
    let mut pos = 0;
    let mut lit_pos = 0;
    // Every token is held to the header before it writes, so `out`
    // never outgrows `raw_len`.
    let need = |n: usize, out: &Vec<u8>| -> Result<()> {
        if n > raw_len - out.len() {
            Err(FormatError::Compress(
                "seq tokens overflow raw length".into(),
            ))
        } else {
            Ok(())
        }
    };
    while pos < tokens.len() {
        let op = tokens[pos];
        pos += 1;
        match op {
            TOK_BASES => {
                let n = get_len(tokens, &mut pos)?;
                need(n, &out)?;
                let packed = take(tokens, pos, n.div_ceil(4))
                    .ok_or_else(|| FormatError::Compress("truncated BASES token".into()))?;
                for k in 0..n {
                    let code = (packed[k / 4] >> ((k % 4) * 2)) & 0b11;
                    out.push(BASE_ASCII[code as usize]);
                }
                pos += packed.len();
            }
            TOK_RUN => {
                let value = *tokens
                    .get(pos)
                    .ok_or_else(|| FormatError::Compress("truncated RUN token".into()))?;
                pos += 1;
                let n = get_len(tokens, &mut pos)?;
                need(n, &out)?;
                out.resize(out.len() + n, value);
            }
            TOK_LIT => {
                let n = get_len(tokens, &mut pos)?;
                need(n, &out)?;
                let chunk = take(lits, lit_pos, n)
                    .ok_or_else(|| FormatError::Compress("literal blob underrun".into()))?;
                out.extend_from_slice(chunk);
                lit_pos += n;
            }
            TOK_DELTA => {
                let count = get_len(tokens, &mut pos)?;
                if count == 0 {
                    return Err(FormatError::Compress("empty DELTA token".into()));
                }
                let mut v = get_varint(tokens, &mut pos)?;
                need(varint_len(v), &out)?;
                put_varint(&mut out, v);
                for _ in 1..count {
                    let delta = unzigzag(get_varint(tokens, &mut pos)?);
                    v = v.wrapping_add(delta as u64);
                    need(varint_len(v), &out)?;
                    put_varint(&mut out, v);
                }
            }
            other => {
                return Err(FormatError::Compress(format!(
                    "unknown seq token opcode {other}"
                )))
            }
        }
    }
    if out.len() != raw_len {
        return Err(FormatError::Compress(format!(
            "seq expanded {} bytes, container promised {raw_len}",
            out.len()
        )));
    }
    if lit_pos != lits.len() {
        return Err(FormatError::Compress("unconsumed literal bytes".into()));
    }
    Ok(out)
}

/// Forged `Codec::Seq` containers, by name, for the registry-wide
/// hostile-input test in [`crate::compress`].
#[cfg(test)]
pub(crate) fn hostile_containers() -> Vec<(&'static str, Vec<u8>)> {
    // A seq container: header, token stream, LZ container of `lits`.
    let container = |raw_len: u64, tokens: &[u8], lits: &[u8]| {
        let mut c = vec![METHOD_SEQ];
        put_varint(&mut c, raw_len);
        put_varint(&mut c, tokens.len() as u64);
        c.extend_from_slice(tokens);
        compress::compress_append(lits, &mut c);
        c
    };
    let token = |op: &[u8], n: u64, tail: &[u8]| {
        let mut t = op.to_vec();
        put_varint(&mut t, n);
        t.extend_from_slice(tail);
        t
    };
    let store_bomb = {
        let mut c = vec![METHOD_STORE];
        put_varint(&mut c, 1 << 62);
        c.extend_from_slice(b"xyz");
        c
    };
    let token_stream_bomb = {
        let mut c = vec![METHOD_SEQ];
        put_varint(&mut c, 16);
        put_varint(&mut c, u64::MAX);
        c
    };
    vec![
        ("header bomb", container(1 << 62, &[], b"")),
        (
            "header bomb, just over the cap",
            container(compress::MAX_DECODED_LEN as u64 + 1, &[], b""),
        ),
        ("header bomb, store arm", store_bomb),
        ("token stream length wraps the offset", token_stream_bomb),
        (
            "RUN bomb",
            container(16, &token(&[TOK_RUN, b'N'], 1 << 62, &[]), b""),
        ),
        (
            "RUN bomb, length wraps",
            container(16, &token(&[TOK_RUN, b'N'], u64::MAX, &[]), b""),
        ),
        (
            "BASES bomb",
            container(16, &token(&[TOK_BASES], u64::MAX - 2, &[0x1b]), b""),
        ),
        (
            "DELTA bomb",
            container(16, &token(&[TOK_DELTA], 1 << 62, &[5, 0, 0, 0]), b""),
        ),
        (
            "LIT length past the blob",
            container(16, &token(&[TOK_LIT], 16, &[]), b"short"),
        ),
        ("LIT length wraps the offset", {
            let mut tokens = token(&[TOK_LIT], 4, &[]);
            tokens.extend(token(&[TOK_LIT], u64::MAX, &[]));
            container(16, &tokens, b"literals")
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tokenizer this module shipped before it was made linear-time
    /// — each DELTA probe re-parses up to 255 varints into fresh `Vec`s
    /// — kept verbatim as the byte-identity reference. The only addition
    /// is the `count_varint_parse()` call.
    mod reference {
        use super::super::*;

        #[inline]
        fn base_code(b: u8) -> Option<u8> {
            match b {
                b'A' => Some(0),
                b'C' => Some(1),
                b'G' => Some(2),
                b'T' => Some(3),
                _ => None,
            }
        }

        pub fn compress(input: &[u8]) -> Vec<u8> {
            let mut out = Vec::new();
            let mut tokens = Vec::with_capacity(input.len() / 16 + 8);
            let mut lits = Vec::new();
            tokenize(input, &mut tokens, &mut lits);
            let lz_lits = compress::compress(&lits);

            let mut header = Vec::with_capacity(12);
            put_varint(&mut header, input.len() as u64);
            let mut token_len = Vec::with_capacity(6);
            put_varint(&mut token_len, tokens.len() as u64);
            let seq_total = 1 + header.len() + token_len.len() + tokens.len() + lz_lits.len();
            let store_total = 1 + header.len() + input.len();
            if seq_total >= store_total {
                out.push(METHOD_STORE);
                out.extend_from_slice(&header);
                out.extend_from_slice(input);
            } else {
                out.push(METHOD_SEQ);
                out.extend_from_slice(&header);
                out.extend_from_slice(&token_len);
                out.extend_from_slice(&tokens);
                out.extend_from_slice(&lz_lits);
            }
            out
        }

        pub fn tokenize(input: &[u8], tokens: &mut Vec<u8>, lits: &mut Vec<u8>) {
            let mut i = 0;
            let mut lit_from = 0;
            let flush_lits = |tokens: &mut Vec<u8>, lits: &mut Vec<u8>, from: usize, to: usize| {
                if to > from {
                    tokens.push(TOK_LIT);
                    put_varint(tokens, (to - from) as u64);
                    lits.extend_from_slice(&input[from..to]);
                }
            };
            while i < input.len() {
                let b = input[i];
                let mut run = 1;
                while i + run < input.len() && input[i + run] == b {
                    run += 1;
                }
                if run >= RUN_MIN {
                    flush_lits(tokens, lits, lit_from, i);
                    tokens.push(TOK_RUN);
                    tokens.push(b);
                    put_varint(tokens, run as u64);
                    i += run;
                    lit_from = i;
                    continue;
                }
                if base_code(b).is_some() {
                    let mut n = 1;
                    while i + n < input.len() && base_code(input[i + n]).is_some() {
                        n += 1;
                    }
                    if n >= BASES_MIN {
                        flush_lits(tokens, lits, lit_from, i);
                        tokens.push(TOK_BASES);
                        put_varint(tokens, n as u64);
                        let start = tokens.len();
                        tokens.resize(start + n.div_ceil(4), 0);
                        for (k, &base) in input[i..i + n].iter().enumerate() {
                            let code = base_code(base).expect("scanned as ACGT");
                            tokens[start + k / 4] |= code << ((k % 4) * 2);
                        }
                        i += n;
                        lit_from = i;
                        continue;
                    }
                }
                if let Some((consumed, token)) = try_delta(&input[i..]) {
                    flush_lits(tokens, lits, lit_from, i);
                    tokens.extend_from_slice(&token);
                    i += consumed;
                    lit_from = i;
                    continue;
                }
                i += 1;
            }
            flush_lits(tokens, lits, lit_from, input.len());
        }

        pub fn try_delta(data: &[u8]) -> Option<(usize, Vec<u8>)> {
            if data.first().is_none_or(|&b| b < 0x80) {
                return None;
            }
            let mut values = Vec::new();
            let mut pos = 0;
            while values.len() < 255 {
                let start = pos;
                let mut p = start;
                count_varint_parse();
                let Ok(v) = get_varint(data, &mut p) else { break };
                let mut canon = Vec::with_capacity(10);
                put_varint(&mut canon, v);
                if canon[..] != data[start..p] {
                    break;
                }
                values.push(v);
                pos = p;
            }
            if values.len() < DELTA_MIN {
                return None;
            }
            let mut token = Vec::with_capacity(pos / 2 + 4);
            token.push(TOK_DELTA);
            put_varint(&mut token, values.len() as u64);
            put_varint(&mut token, values[0]);
            for w in values.windows(2) {
                let delta = w[1].wrapping_sub(w[0]) as i64;
                put_varint(&mut token, zigzag(delta));
            }
            if token.len() + 2 <= pos {
                Some((pos, token))
            } else {
                None
            }
        }
    }

    /// Wire-encoded `(u64 key, SamRecord)` pairs — what a shuffle
    /// segment holds — of at least `min_len` bytes, from a seeded
    /// xorshift stream: ascending positions, random bases, binned
    /// qualities with noisy tails.
    fn sam_wire_stream(seed: u64, min_len: usize) -> Vec<u8> {
        use crate::sam::SamRecord;
        use crate::wire::Wire;
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut out = Vec::with_capacity(min_len + 512);
        let mut pos = 10_000 + (next() % 1_000_000) as i64;
        while out.len() < min_len {
            let len = 100 + (next() % 51) as usize;
            let seq: Vec<u8> = (0..len)
                .map(|_| BASE_ASCII[(next() >> 33) as usize % 4])
                .collect();
            let qual: Vec<u8> = (0..len)
                .map(|k| {
                    if k < len - 20 {
                        [37, 28, 12][(k / 40) % 3]
                    } else {
                        (next() % 41) as u8
                    }
                })
                .collect();
            let mut r = SamRecord::unmapped(
                format!("read{}:{}", next() % 100_000, next() % 97),
                seq,
                qual,
            );
            pos += (next() % 300) as i64;
            r.flags = crate::sam::Flags((next() % 0x400) as u16);
            r.ref_id = (next() % 3) as i32;
            r.pos = pos;
            r.mapq = (next() % 61) as u8;
            r.mate_ref_id = r.ref_id;
            r.mate_pos = pos + (next() % 600) as i64 - 300;
            r.tlen = r.mate_pos - pos;
            r.read_group = "rg1".into();
            r.alignment_score = (next() % 250) as i32 - 50;
            r.edit_distance = (next() % 8) as u32;
            (pos as u64).encode(&mut out);
            r.encode(&mut out);
        }
        out
    }

    /// Varint-shaped chunks: ascending multi-byte runs, and the shapes a
    /// canonical-varint parser must refuse.
    fn arb_varint_chunk() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            // Ascending positions — the shape DELTA exists for.
            (
                1u64..u64::MAX / 2,
                proptest::collection::vec(0u64..100_000, 1..300)
            )
                .prop_map(|(start, steps)| {
                    let mut buf = Vec::new();
                    let mut v = start;
                    for step in steps {
                        v = v.wrapping_add(step);
                        put_varint(&mut buf, v);
                    }
                    buf
                }),
            // Values near the top of u64: ten-byte canonical varints.
            proptest::collection::vec(u64::MAX - 1000..=u64::MAX, 1..8).prop_map(|vs| {
                let mut buf = Vec::new();
                for v in vs {
                    put_varint(&mut buf, v);
                }
                buf
            }),
            // Overlong: a zero top group.
            Just(vec![0x80, 0x00]),
            Just(vec![0xff, 0x80, 0x00]),
            // Eleven bytes.
            Just(vec![
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01
            ]),
            // A tenth byte carrying bits past u64.
            Just(vec![
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f
            ]),
            Just(vec![
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02
            ]),
            // A long continuation run.
            proptest::collection::vec(0x80u8..=0xff, 1..40),
            // Single-byte varints, zeros included.
            proptest::collection::vec(0u8..0x80, 0..300),
        ]
    }

    /// Concatenated varint chunks, cut mid-varint by up to three bytes.
    fn arb_varint_stream() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec(arb_varint_chunk(), 0..12),
            0usize..4,
        )
            .prop_map(|(chunks, cut)| {
                let mut data = chunks.concat();
                data.truncate(data.len().saturating_sub(cut));
                data
            })
    }

    fn arb_high_biased_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![0x80u8..=0xff, 0x80u8..=0x83, 0x80u8..=0xff, any::<u8>()],
            0..4096,
        )
    }

    fn assert_identical_and_lossless(data: &[u8]) -> std::result::Result<(), TestCaseError> {
        let c = compress(data);
        prop_assert_eq!(&c, &reference::compress(data));
        prop_assert_eq!(decompress(&c).unwrap(), data);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn container_identical_to_reference_on_sam_wire_streams(seed in any::<u64>(), len in 0usize..40_000) {
            let mut data = sam_wire_stream(seed, len);
            data.truncate(len);
            assert_identical_and_lossless(&data)?;
        }

        #[test]
        fn container_identical_to_reference_on_uniform_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..4096)
        ) {
            assert_identical_and_lossless(&data)?;
        }

        #[test]
        fn container_identical_to_reference_on_high_biased_bytes(data in arb_high_biased_bytes()) {
            assert_identical_and_lossless(&data)?;
        }

        #[test]
        fn container_identical_to_reference_on_varint_streams(data in arb_varint_stream()) {
            assert_identical_and_lossless(&data)?;
        }

        /// Stronger than container identity: every offset a probe could
        /// ever be asked about, not only the ones the tokenizer visits.
        #[test]
        fn delta_probe_matches_reference_at_every_offset(
            data in prop_oneof![arb_varint_stream(), arb_high_biased_bytes()]
        ) {
            let mut probe = DeltaProbe::new(&data);
            for i in (0..data.len()).filter(|&i| data[i] >= 0x80) {
                let got = probe.probe(i).map(|run| {
                    let mut token = Vec::new();
                    probe.write_token(&run, &mut token);
                    (run.consumed, token)
                });
                prop_assert_eq!(got, reference::try_delta(&data[i..]), "offset {}", i);
            }
        }
    }

    thread_local! {
        /// Varint parses the tokenizer (current or reference) has done
        /// on this thread.
        pub(super) static VARINT_PARSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Varint parses `f` performs on this thread.
    fn varint_parses(f: impl FnOnce()) -> u64 {
        VARINT_PARSES.with(|n| n.set(0));
        f();
        VARINT_PARSES.with(|n| n.get())
    }

    fn tokenize_parses(tokenize: fn(&[u8], &mut Vec<u8>, &mut Vec<u8>), input: &[u8]) -> u64 {
        varint_parses(|| tokenize(input, &mut Vec::new(), &mut Vec::new()))
    }

    #[test]
    fn tokenizer_parses_at_most_two_varints_per_input_byte() {
        const MIB: usize = 1 << 20;
        let sam = sam_wire_stream(0x5EED, MIB);
        // Every probe in `[0x81, 0x01]…` succeeds and swallows 255 values.
        let accepted = [0x81, 0x01].repeat(MIB / 2);
        // Here every probe fails after its 255 values: adjacent deltas
        // need three bytes against two raw ones.
        let rejected = [0x81, 0x01, 0x80, 0x7d].repeat(MIB / 4);
        for (name, input) in [
            ("sam", &sam),
            ("accepted", &accepted),
            ("rejected", &rejected),
        ] {
            let parses = tokenize_parses(tokenize, input);
            assert!(
                parses <= 2 * input.len() as u64,
                "{name}: {parses} varint parses for {} bytes",
                input.len()
            );
        }
        // The bound separates the two tokenizers: the reference, on a
        // slice of the same streams, is far outside it.
        for (name, input) in [("sam", &sam), ("rejected", &rejected)] {
            let input = &input[..MIB / 16];
            let parses = tokenize_parses(reference::tokenize, input);
            assert!(
                parses > 2 * input.len() as u64,
                "{name}: the reference tokenizer took only {parses} parses for {} bytes",
                input.len()
            );
        }
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        decompress(&c).expect("roundtrip")
    }

    #[test]
    fn roundtrips_empty_and_tiny() {
        assert_eq!(roundtrip(b""), b"");
        assert_eq!(roundtrip(b"x"), b"x");
        assert_eq!(roundtrip(b"ACGT"), b"ACGT");
    }

    #[test]
    fn packs_dna_four_to_one() {
        // Pseudo-random bases: no long byte-level repeats for LZ to
        // exploit, but still exactly 2 bits of alphabet per byte.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let seq: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                BASE_ASCII[(x >> 33) as usize % 4]
            })
            .collect();
        let c = compress(&seq);
        assert_eq!(decompress(&c).unwrap(), seq);
        // 2 bits per base plus container overhead — far below LZ on the
        // same data, the whole point of the codec.
        assert!(
            c.len() < seq.len() / 3,
            "expected ~4x packing, got {} for {}",
            c.len(),
            seq.len()
        );
        let lz = compress::compress(&seq);
        assert!(c.len() < lz.len(), "seq {} must beat lz {}", c.len(), lz.len());
    }

    #[test]
    fn bases_layout_matches_packed_seq_words() {
        // The BASES payload is the little-endian serialization of
        // PackedSeq's words: verify against the kernel type directly.
        let seq = b"ACGTTGCAACGTACGTACGTTGCAACGTACGTACGT".to_vec();
        let packed = crate::dna::PackedSeq::from_ascii(&seq);
        let c = compress(&seq);
        // Container: [2][raw_len][token_len][TOK_BASES][n][payload...]
        assert_eq!(c[0], METHOD_SEQ);
        let mut pos = 1;
        let raw_len = get_varint(&c, &mut pos).unwrap() as usize;
        assert_eq!(raw_len, seq.len());
        let _token_len = get_varint(&c, &mut pos).unwrap();
        assert_eq!(c[pos], TOK_BASES);
        pos += 1;
        let n = get_varint(&c, &mut pos).unwrap() as usize;
        assert_eq!(n, seq.len());
        let payload = &c[pos..pos + n.div_ceil(4)];
        let mut expect = Vec::new();
        for w in packed.words() {
            expect.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(payload, &expect[..payload.len()]);
    }

    #[test]
    fn rle_covers_binned_quals_and_n_runs() {
        let mut data = Vec::new();
        for _ in 0..32 {
            data.extend_from_slice(&[37u8; 60]);
            data.extend_from_slice(&[28u8; 30]);
            data.extend_from_slice(&[2u8; 10]);
        }
        data.extend_from_slice(&[b'N'; 500]);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        // 3 tokens of ~3 bytes per 100-byte record: ~12x.
        assert!(c.len() < data.len() / 10, "RLE should crush runs: {}", c.len());
    }

    #[test]
    fn delta_token_fires_on_sorted_positions() {
        // A run of ascending multi-byte varints — the sorted-position
        // shape — must delta down and round-trip byte-identically.
        let mut data = Vec::new();
        let mut pos = 1_000_000_000u64;
        for i in 0..200u64 {
            pos += 1 + (i * 37) % 50;
            put_varint(&mut data, pos);
        }
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(
            c.len() < data.len() / 2,
            "deltas should at least halve sorted varints: {} vs {}",
            c.len(),
            data.len()
        );
    }

    #[test]
    fn incompressible_input_degrades_to_store() {
        // Pseudo-random bytes: no runs, no bases, no varint wins. The
        // container must fall back to store within a byte or two of raw.
        let mut x = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..2048)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() <= data.len() + 4, "store fallback: {}", c.len());
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        let good = compress(b"ACGTACGTACGTACGTACGTACGTACGT quality 333333333333");
        for cut in 0..good.len() {
            let _ = decompress(&good[..cut]); // must not panic
        }
        let mut bad = good.clone();
        bad[0] = 9; // unknown method
        assert!(decompress(&bad).is_err());
        for i in 0..good.len() {
            let mut mutated = good.clone();
            mutated[i] ^= 0x55;
            let _ = decompress(&mutated); // arbitrary corruption: Ok-or-Err, never panic
        }
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn via_codec_registry_dispatch() {
        use crate::compress::Codec;
        let data = b"ACGTACGTACGTACGTACGTACGTACGTNNNNNNNNNNNN".to_vec();
        for &codec in Codec::registry() {
            let mut enc = Vec::new();
            codec.encode_append(&data, &mut enc);
            let dec = if codec.is_compressed() {
                codec.decode(&enc).unwrap()
            } else {
                enc.clone()
            };
            assert_eq!(dec, data, "{} must roundtrip through dispatch", codec.name());
        }
        assert_eq!(Codec::from_tag(2).unwrap(), Codec::Seq);
        assert!(Codec::from_tag(250).is_err());
    }
}
