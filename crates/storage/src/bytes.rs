//! Little-endian byte codec for snapshot segments.
//!
//! A *segment* is a logical byte stream stored across a contiguous run of
//! pages (each segment starts on a fresh page; its last page may be
//! partially filled). [`ByteWriter`] builds the stream in memory at save
//! time. At open time [`SegmentReader`] replays the stream by faulting
//! the underlying pages through the buffer pool — pinning at most one
//! page, whatever the segment size — and the cold path drains a whole
//! segment in one scan ([`SegmentReader::read_all`]) to decode it from
//! memory via [`SliceReader`]. Both readers share the [`ByteReader`]
//! decoding vocabulary.
//!
//! All integers are little-endian; `f64` travels as its raw bit pattern
//! (`to_bits`/`from_bits`), which keeps NaN payloads and signed zeros
//! bit-identical across a save/open roundtrip.
//!
//! ## Packed integer runs
//!
//! Raw 4-byte columns waste most of their bits on the values snapshots
//! actually store (sorted `Pre` lists, CSR offsets, small levels/kinds).
//! [`ByteWriter::put_packed_u32s`] encodes a run with the cheapest of two
//! codecs and tags the choice in the stream:
//!
//! * [`RunCodec::DeltaVarint`] — the first value as a LEB128 varint, then
//!   every successive difference as a zigzag varint. Sorted runs with
//!   small gaps (postings, offsets) and near-sequential columns
//!   (`parent`) cost ~1 byte per value.
//! * [`RunCodec::BitPacked`] — a fixed bit width (that of the largest
//!   value, floored at 1) and all values packed LSB-first. The fallback
//!   for non-monotone, large-delta runs (e.g. value-symbol columns).
//!
//! The choice is a pure function of the values — smaller encoding wins,
//! ties go to delta+varint — so re-encoding a decoded run reproduces the
//! original bytes and `save → open → save` stays a byte fixed point.
//! [`RunCodec::Raw`] is accepted on decode for completeness but never
//! chosen by the encoder.

use crate::error::{Result, StorageError};
use crate::file::FileManager;
use crate::pool::{BufferPool, FetchHint, PageRef};

/// Codec of one packed `u32` run (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RunCodec {
    /// Plain little-endian 4-byte values.
    Raw = 0,
    /// First value varint, then zigzag-varint deltas.
    DeltaVarint = 1,
    /// Fixed-width LSB-first bit packing (width of the largest value).
    BitPacked = 2,
}

impl RunCodec {
    /// The codec for tag byte `b`.
    pub fn from_u8(b: u8) -> Result<RunCodec> {
        Ok(match b {
            0 => RunCodec::Raw,
            1 => RunCodec::DeltaVarint,
            2 => RunCodec::BitPacked,
            _ => return Err(StorageError::Format(format!("invalid run codec tag {b}"))),
        })
    }

    /// The bit for this codec in a segment's codec mask.
    pub fn mask_bit(self) -> u8 {
        1 << (self as u8)
    }
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Read one varint from `payload` starting at `*at`, bounding it to 64
/// bits. Corrupt streams (running off the payload, over-long varints) are
/// clean errors.
fn read_varint(payload: &[u8], at: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = payload
            .get(*at)
            .ok_or_else(|| StorageError::Format("packed run truncated mid-varint".to_string()))?;
        *at += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(StorageError::Format(
                "varint exceeds 64 bits in packed run".to_string(),
            ));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn delta_varint_bytes(vals: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(vals.len() + 4);
    let mut prev = 0i64;
    for (i, &v) in vals.iter().enumerate() {
        if i == 0 {
            push_varint(&mut buf, u64::from(v));
        } else {
            push_varint(&mut buf, zigzag(i64::from(v) - prev));
        }
        prev = i64::from(v);
    }
    buf
}

fn bitpacked_bytes(vals: &[u32]) -> Vec<u8> {
    // Width of the largest value, floored at 1 so every value occupies at
    // least one bit — that floor is what lets decoders bound a claimed
    // count by `payload_len * 8` before allocating.
    let width = vals
        .iter()
        .map(|&v| 32 - v.leading_zeros())
        .max()
        .unwrap_or(1)
        .max(1);
    let mut buf = Vec::with_capacity(1 + (vals.len() * width as usize).div_ceil(8));
    buf.push(width as u8);
    let mut acc = 0u64;
    let mut bits = 0u32;
    for &v in vals {
        acc |= u64::from(v) << bits;
        bits += width;
        while bits >= 8 {
            buf.push((acc & 0xFF) as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        buf.push((acc & 0xFF) as u8);
    }
    buf
}

/// Encode `vals` with the cheapest codec (see the module docs): the
/// returned payload excludes the codec tag and any length framing.
pub fn pack_u32s(vals: &[u32]) -> (RunCodec, Vec<u8>) {
    let dv = delta_varint_bytes(vals);
    if vals.is_empty() {
        return (RunCodec::DeltaVarint, dv);
    }
    let width = vals
        .iter()
        .map(|&v| 32 - v.leading_zeros())
        .max()
        .unwrap_or(1)
        .max(1) as usize;
    let bp_len = 1 + (vals.len() * width).div_ceil(8);
    if dv.len() <= bp_len {
        (RunCodec::DeltaVarint, dv)
    } else {
        (RunCodec::BitPacked, bitpacked_bytes(vals))
    }
}

/// Decode a packed payload of exactly `n` values. Any mismatch between
/// `payload`, `codec` and `n` — truncation, trailing garbage, deltas
/// escaping the `u32` range — is a clean [`StorageError::Format`].
pub fn unpack_u32s(codec: RunCodec, payload: &[u8], n: usize) -> Result<Vec<u32>> {
    let bad = |reason: &str| StorageError::Format(format!("packed run: {reason}"));
    // Every codec spends at least one bit per value (bitpack width is
    // floored at 1), so an absurd claimed count is rejected before any
    // allocation is sized from it.
    if n > payload.len().saturating_mul(8) && n > 0 {
        return Err(bad("claimed count exceeds payload capacity"));
    }
    match codec {
        RunCodec::Raw => {
            if payload.len() != n * 4 {
                return Err(bad("raw payload length mismatch"));
            }
            Ok(payload
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }
        RunCodec::DeltaVarint => {
            let mut out = Vec::with_capacity(n);
            let mut at = 0usize;
            let mut prev = 0i64;
            for i in 0..n {
                // One-byte varints dominate real columns (small sorted
                // gaps, near-sequential parents): decode them inline and
                // take the general loop only for longer encodings.
                let raw = match payload.get(at) {
                    Some(&b) if b < 0x80 => {
                        at += 1;
                        u64::from(b)
                    }
                    _ => read_varint(payload, &mut at)?,
                };
                let v = if i == 0 {
                    i64::try_from(raw).map_err(|_| bad("first value exceeds u32"))?
                } else {
                    prev + unzigzag(raw)
                };
                let v32 = u32::try_from(v).map_err(|_| bad("delta escapes u32 range"))?;
                out.push(v32);
                prev = v;
            }
            if at != payload.len() {
                return Err(bad("trailing bytes after delta-varint run"));
            }
            Ok(out)
        }
        RunCodec::BitPacked => {
            if n == 0 {
                return if payload.is_empty() {
                    Ok(Vec::new())
                } else {
                    Err(bad("trailing bytes after empty bitpacked run"))
                };
            }
            let Some((&width, packed)) = payload.split_first() else {
                return Err(bad("bitpacked run missing width byte"));
            };
            let width = u32::from(width);
            if width == 0 || width > 32 {
                return Err(bad("bitpacked width out of range"));
            }
            let expect = (n * width as usize).div_ceil(8);
            if packed.len() != expect {
                return Err(bad("bitpacked payload length mismatch"));
            }
            let mask = if width == 32 {
                u64::from(u32::MAX)
            } else {
                (1u64 << width) - 1
            };
            // Word-at-a-time extraction: an unaligned 8-byte load always
            // covers one value (bit offset within the byte ≤ 7, width
            // ≤ 32 → 39 bits), so the hot loop is a load, shift and mask.
            let mut out = Vec::with_capacity(n);
            let mut bit = 0usize;
            let whole_words = packed.len().saturating_sub(7);
            for _ in 0..n {
                let byte = bit >> 3;
                let word = if byte < whole_words {
                    u64::from_le_bytes(packed[byte..byte + 8].try_into().unwrap())
                } else {
                    let mut tail = [0u8; 8];
                    tail[..packed.len() - byte].copy_from_slice(&packed[byte..]);
                    u64::from_le_bytes(tail)
                };
                out.push(((word >> (bit & 7)) & mask) as u32);
                bit += width as usize;
            }
            // The final partial byte may carry padding bits; they must be
            // zero or the encoding is not canonical (and corrupt bits
            // would otherwise pass unnoticed).
            if bit & 7 != 0 && packed[bit >> 3] >> (bit & 7) != 0 {
                return Err(bad("nonzero padding bits in bitpacked run"));
            }
            Ok(out)
        }
    }
}

/// An in-memory little-endian byte stream builder.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
    packed_raw_delta: u64,
    codec_mask: u8,
}

impl ByteWriter {
    /// An empty stream.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// What this stream would occupy had every packed run been stored as
    /// raw 4-byte values (the pre-compression format) — `len()` plus the
    /// bytes compression saved. Feeds the bench's compressed-vs-raw
    /// report.
    pub fn raw_len(&self) -> u64 {
        self.buf.len() as u64 + self.packed_raw_delta
    }

    /// Bitmask of every [`RunCodec`] chosen by packed runs so far
    /// (bit = `1 << codec as u8`).
    pub fn codec_mask(&self) -> u8 {
        self.codec_mask
    }

    /// Fold another writer's packed-run accounting into this one (used
    /// when sub-streams are assembled separately then concatenated).
    pub fn absorb_accounting(&mut self, other: &ByteWriter) {
        self.packed_raw_delta += other.packed_raw_delta;
        self.codec_mask |= other.codec_mask;
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string too long for snapshot"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed raw byte blob (an embedded sub-stream —
    /// the WAL frames whole document segments this way).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(u32::try_from(bytes.len()).expect("blob too long for stream"));
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_u32(u32::try_from(vs.len()).expect("slice too long for snapshot"));
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Append a packed run whose count the reader knows from elsewhere:
    /// `u8 codec | u32 payload_len | payload`. Returns the chosen codec.
    pub fn put_packed_u32s(&mut self, vs: &[u32]) -> RunCodec {
        let (codec, payload) = pack_u32s(vs);
        self.put_u8(codec as u8);
        self.put_u32(u32::try_from(payload.len()).expect("packed run too long for snapshot"));
        self.buf.extend_from_slice(&payload);
        self.codec_mask |= codec.mask_bit();
        let raw = vs.len() as u64 * 4;
        self.packed_raw_delta += raw.saturating_sub(5 + payload.len() as u64);
        codec
    }

    /// Append a self-describing packed run: `u32 n` then the
    /// [`put_packed_u32s`](Self::put_packed_u32s) framing.
    pub fn put_packed_u32_vec(&mut self, vs: &[u32]) -> RunCodec {
        self.put_u32(u32::try_from(vs.len()).expect("slice too long for snapshot"));
        self.put_packed_u32s(vs)
    }

    /// The finished stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential decoding of a snapshot byte stream.
///
/// The `get_*` vocabulary is defined once here over two primitives, so
/// it works identically whether bytes are faulted from disk page by page
/// ([`SegmentReader`]) or already sit in memory ([`SliceReader`]).
pub trait ByteReader {
    /// Fill `out` from the stream, erroring when it runs short.
    fn read_exact(&mut self, out: &mut [u8]) -> Result<()>;

    /// Bytes left to read.
    fn remaining(&self) -> u64;

    /// Read one byte.
    fn get_u8(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b)?;
        Ok(b[0])
    }

    /// Read a `u16`.
    fn get_u16(&mut self) -> Result<u16> {
        let mut b = [0u8; 2];
        self.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Read a `u32`.
    fn get_u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a `u64`.
    fn get_u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read an `f64` from its raw bit pattern.
    fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    fn get_str(&mut self) -> Result<String> {
        let len = self.get_u32()? as u64;
        if len > self.remaining() {
            return Err(StorageError::Format(format!(
                "string of {len} bytes exceeds remaining segment"
            )));
        }
        let mut bytes = vec![0u8; len as usize];
        self.read_exact(&mut bytes)?;
        String::from_utf8(bytes)
            .map_err(|e| StorageError::Format(format!("invalid UTF-8 in snapshot string: {e}")))
    }

    /// Read a length-prefixed raw byte blob (see [`ByteWriter::put_bytes`]).
    fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_u32()? as u64;
        if len > self.remaining() {
            return Err(StorageError::Format(format!(
                "blob of {len} bytes exceeds remaining segment"
            )));
        }
        let mut bytes = vec![0u8; len as usize];
        self.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    /// Decode the next `n` bytes through `f`, borrowing them in place
    /// when the reader already holds them in memory ([`SliceReader`])
    /// and falling back to one bulk copy when it does not.
    fn with_run<T>(&mut self, n: usize, f: impl FnOnce(&[u8]) -> Result<T>) -> Result<T> {
        f(&self.get_u8_run(n)?)
    }

    /// Read a run of `n` `u8`s in one bulk copy.
    fn get_u8_run(&mut self, n: usize) -> Result<Vec<u8>> {
        if n as u64 > self.remaining() {
            return Err(StorageError::Format(format!(
                "u8 run of {n} entries exceeds remaining segment"
            )));
        }
        let mut bytes = vec![0u8; n];
        self.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    /// Read a run of `n` `u16`s in one bulk copy.
    fn get_u16_run(&mut self, n: usize) -> Result<Vec<u16>> {
        if n as u64 * 2 > self.remaining() {
            return Err(StorageError::Format(format!(
                "u16 run of {n} entries exceeds remaining segment"
            )));
        }
        let mut bytes = vec![0u8; n * 2];
        self.read_exact(&mut bytes)?;
        Ok(bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Read a run of `n` `u32`s in one bulk copy (no length prefix —
    /// the caller knows the count).
    fn get_u32_run(&mut self, n: usize) -> Result<Vec<u32>> {
        if n as u64 * 4 > self.remaining() {
            return Err(StorageError::Format(format!(
                "u32 run of {n} entries exceeds remaining segment"
            )));
        }
        let mut bytes = vec![0u8; n * 4];
        self.read_exact(&mut bytes)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Read a length-prefixed `u32` vector.
    fn get_u32_vec(&mut self) -> Result<Vec<u32>> {
        let len = self.get_u32()? as u64;
        if len * 4 > self.remaining() {
            return Err(StorageError::Format(format!(
                "u32 run of {len} entries exceeds remaining segment"
            )));
        }
        self.get_u32_run(len as usize)
    }

    /// Read a packed run of exactly `n` values
    /// (see [`ByteWriter::put_packed_u32s`]).
    fn get_packed_u32s(&mut self, n: usize) -> Result<Vec<u32>> {
        let codec = RunCodec::from_u8(self.get_u8()?)?;
        let payload_len = self.get_u32()? as u64;
        if payload_len > self.remaining() {
            return Err(StorageError::Format(format!(
                "packed run of {payload_len} payload bytes exceeds remaining segment"
            )));
        }
        self.with_run(payload_len as usize, |payload| {
            unpack_u32s(codec, payload, n)
        })
    }

    /// Read a self-describing packed run
    /// (see [`ByteWriter::put_packed_u32_vec`]).
    fn get_packed_u32_vec(&mut self) -> Result<Vec<u32>> {
        let n = self.get_u32()? as usize;
        self.get_packed_u32s(n)
    }
}

/// A [`ByteReader`] over bytes already in memory (a drained segment, see
/// [`SegmentReader::read_all`]).
pub struct SliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    /// A reader over all of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SliceReader { buf, pos: 0 }
    }
}

impl ByteReader for SliceReader<'_> {
    fn with_run<T>(&mut self, n: usize, f: impl FnOnce(&[u8]) -> Result<T>) -> Result<T> {
        if n as u64 > self.remaining() {
            return Err(StorageError::Format(format!(
                "u8 run of {n} entries exceeds remaining segment"
            )));
        }
        let start = self.pos;
        self.pos = start + n;
        f(&self.buf[start..self.pos])
    }

    fn read_exact(&mut self, out: &mut [u8]) -> Result<()> {
        let end = self
            .pos
            .checked_add(out.len())
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                StorageError::Format(format!(
                    "segment truncated: wanted {} more bytes at offset {}",
                    out.len(),
                    self.pos
                ))
            })?;
        out.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(())
    }

    fn remaining(&self) -> u64 {
        (self.buf.len() - self.pos) as u64
    }
}

/// A sequential reader over one segment, faulting pages through the pool.
pub struct SegmentReader<'a> {
    pool: &'a BufferPool,
    file: &'a FileManager,
    first_page: u32,
    len: u64,
    pos: u64,
    current: Option<(u32, PageRef<'a>)>,
    hint: FetchHint,
    readahead: u32,
    prefetched_until: u32,
}

/// Pages fetched ahead per readahead batch on scan readers.
pub const READAHEAD_PAGES: u32 = 8;

impl<'a> SegmentReader<'a> {
    /// A reader over the `len` bytes starting at `first_page`.
    pub fn new(pool: &'a BufferPool, file: &'a FileManager, first_page: u32, len: u64) -> Self {
        SegmentReader {
            pool,
            file,
            first_page,
            len,
            pos: 0,
            current: None,
            hint: FetchHint::Reuse,
            readahead: 0,
            prefetched_until: first_page,
        }
    }

    /// A reader for one sequential pass over the segment: pages are
    /// admitted with [`FetchHint::Scan`] (probationary cohort only, so a
    /// cold scan cannot flush reused pages) and faulted in
    /// [`READAHEAD_PAGES`]-page batches — one positioned read per
    /// contiguous missing run instead of one `pread` per page.
    pub fn new_scan(
        pool: &'a BufferPool,
        file: &'a FileManager,
        first_page: u32,
        len: u64,
    ) -> Self {
        let mut r = SegmentReader::new(pool, file, first_page, len);
        r.hint = FetchHint::Scan;
        // Readahead needs spare frames beyond the one the reader pins;
        // tiny pools degrade to plain one-page faults.
        r.readahead = READAHEAD_PAGES.min(pool.capacity().saturating_sub(1) as u32);
        r
    }

    /// One past the last page this segment occupies.
    fn end_page(&self) -> u32 {
        let payload = self.file.payload_per_page() as u64;
        self.first_page + (self.len.div_ceil(payload).max(1)) as u32
    }

    /// Drain the remaining stream into one in-memory buffer.
    ///
    /// The cold path reads each segment once through the pool — keeping
    /// the scan admission policy, readahead batching and traffic
    /// counters — then decodes from the buffer with a [`SliceReader`]:
    /// faulting field by field would pay the pool's fetch bookkeeping
    /// hundreds of thousands of times per document. The declared segment
    /// length is bounded by the file's page capacity before the buffer
    /// is sized from it, so a corrupt directory cannot force an absurd
    /// allocation.
    pub fn read_all(mut self) -> Result<Vec<u8>> {
        let cap = u64::from(self.file.page_count()) * self.file.payload_per_page() as u64;
        if self.len > cap {
            return Err(StorageError::Format(format!(
                "segment of {} bytes exceeds file capacity of {cap}",
                self.len
            )));
        }
        let mut buf = vec![0u8; self.remaining() as usize];
        self.read_exact(&mut buf)?;
        Ok(buf)
    }
}

impl ByteReader for SegmentReader<'_> {
    fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// Fill `out` from the stream, faulting pages as needed.
    fn read_exact(&mut self, out: &mut [u8]) -> Result<()> {
        let payload = self.file.payload_per_page() as u64;
        let mut written = 0;
        while written < out.len() {
            if self.pos >= self.len {
                return Err(StorageError::Format(format!(
                    "segment truncated: wanted {} more bytes at offset {}",
                    out.len() - written,
                    self.pos
                )));
            }
            let page_id = self.first_page + (self.pos / payload) as u32;
            let in_page = (self.pos % payload) as usize;
            if self.current.as_ref().map(|(id, _)| *id) != Some(page_id) {
                // Unpin the previous page first: with a single-frame pool
                // the old pin would otherwise block its own replacement.
                self.current = None;
                if self.readahead > 1 && page_id >= self.prefetched_until {
                    let batch_end = (page_id + self.readahead).min(self.end_page());
                    self.pool.prefetch(self.file, page_id, batch_end)?;
                    self.prefetched_until = batch_end;
                }
                let page = self.pool.fetch_hinted(self.file, page_id, self.hint)?;
                self.current = Some((page_id, page));
            }
            let data: &[u8] = self.current.as_ref().map(|(_, p)| &**p).unwrap();
            if in_page >= data.len() {
                return Err(StorageError::Corrupt {
                    page: page_id,
                    reason: format!(
                        "payload of {} bytes shorter than segment offset {in_page}",
                        data.len()
                    ),
                });
            }
            let take = (data.len() - in_page)
                .min(out.len() - written)
                .min((self.len - self.pos) as usize);
            out[written..written + take].copy_from_slice(&data[in_page..in_page + take]);
            written += take;
            self.pos += take as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{encode_page, PAGE_HEADER};
    use std::io::Write;

    /// Write `stream` as a page file with tiny pages so multi-page reads
    /// are exercised, returning the segment length.
    fn stream_file(
        name: &str,
        stream: &[u8],
        page_size: usize,
    ) -> (std::path::PathBuf, FileManager, u64) {
        let mut path = std::env::temp_dir();
        path.push(format!("rox-storage-bytes-{}-{name}", std::process::id()));
        let payload = page_size - PAGE_HEADER;
        let mut f = std::fs::File::create(&path).unwrap();
        let mut pages = 0u32;
        for chunk in stream.chunks(payload) {
            f.write_all(&encode_page(pages, chunk, page_size)).unwrap();
            pages += 1;
        }
        if stream.is_empty() {
            f.write_all(&encode_page(0, &[], page_size)).unwrap();
            pages = 1;
        }
        drop(f);
        let fm = FileManager::new(std::fs::File::open(&path).unwrap(), page_size, pages);
        (path, fm, stream.len() as u64)
    }

    #[test]
    fn values_roundtrip_across_page_boundaries() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_str("staircase");
        w.put_u32_slice(&[1, 2, 3, u32::MAX]);
        let stream = w.into_bytes();
        // 24-byte pages = 8-byte payloads: every value spans pages.
        let (path, fm, len) = stream_file("values", &stream, 24);
        let pool = BufferPool::new(2);
        let mut r = SegmentReader::new(&pool, &fm, 0, len);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_str().unwrap(), "staircase");
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3, u32::MAX]);
        assert_eq!(r.remaining(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_segment_errors_cleanly() {
        let mut w = ByteWriter::new();
        w.put_u32(42);
        let stream = w.into_bytes();
        let (path, fm, _) = stream_file("truncated", &stream, 64);
        let pool = BufferPool::new(2);
        // Claim the segment is longer than it is: the reader must fail on
        // the short page, not fabricate bytes.
        let mut r = SegmentReader::new(&pool, &fm, 0, 100);
        assert_eq!(r.get_u32().unwrap(), 42);
        assert!(r.get_u32().is_err());
        // And a reader that runs off the declared length errors too.
        let mut r2 = SegmentReader::new(&pool, &fm, 0, 4);
        assert_eq!(r2.get_u32().unwrap(), 42);
        assert!(r2.get_u8().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn packed_runs_roundtrip_and_choose_by_size() {
        // Sorted small-gap run: delta+varint wins.
        let sorted: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let (c, payload) = pack_u32s(&sorted);
        assert_eq!(c, RunCodec::DeltaVarint);
        assert!(payload.len() < sorted.len() * 4);
        assert_eq!(unpack_u32s(c, &payload, sorted.len()).unwrap(), sorted);

        // Non-monotone large-delta run: bitpacking wins.
        let wild: Vec<u32> = (0..500)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) >> 8)
            .collect();
        let (c, payload) = pack_u32s(&wild);
        assert_eq!(c, RunCodec::BitPacked);
        assert_eq!(unpack_u32s(c, &payload, wild.len()).unwrap(), wild);

        // Re-encoding a decoded run is a fixed point (canonical choice).
        let again = pack_u32s(&unpack_u32s(c, &payload, wild.len()).unwrap());
        assert_eq!(again, (c, payload));

        // Edge runs.
        for vals in [vec![], vec![0], vec![u32::MAX], vec![7; 100]] {
            let (c, payload) = pack_u32s(&vals);
            assert_eq!(unpack_u32s(c, &payload, vals.len()).unwrap(), vals);
        }
    }

    #[test]
    fn packed_runs_reject_corruption() {
        let vals: Vec<u32> = (0..100).map(|i| i * 7).collect();
        let (c, payload) = pack_u32s(&vals);
        // Truncation, wrong counts, absurd counts: clean errors.
        assert!(unpack_u32s(c, &payload[..payload.len() - 1], vals.len()).is_err());
        assert!(unpack_u32s(c, &payload, vals.len() - 1).is_err());
        assert!(unpack_u32s(c, &payload, vals.len() + 1).is_err());
        assert!(unpack_u32s(c, &payload, usize::MAX).is_err());
        assert!(unpack_u32s(c, &[], 3).is_err());
        // Unknown codec tags are rejected at the tag layer.
        assert!(RunCodec::from_u8(9).is_err());
        // An over-long varint cannot smuggle a value past the u32 check.
        let evil = vec![0xFFu8; 11];
        assert!(unpack_u32s(RunCodec::DeltaVarint, &evil, 1).is_err());
        // Bitpacked: zero width and dirty padding bits are rejected.
        assert!(unpack_u32s(RunCodec::BitPacked, &[0, 0xFF], 3).is_err());
        assert!(unpack_u32s(RunCodec::BitPacked, &[3, 0xFF], 2).is_err());
    }

    #[test]
    fn packed_stream_roundtrips_and_tracks_raw_len() {
        let sorted: Vec<u32> = (10..400).collect();
        let wild: Vec<u32> = (0..300)
            .map(|i| (i as u32).wrapping_mul(0x9E3779B9) >> 8)
            .collect();
        let mut w = ByteWriter::new();
        assert_eq!(w.put_packed_u32s(&sorted), RunCodec::DeltaVarint);
        assert_eq!(w.put_packed_u32_vec(&wild), RunCodec::BitPacked);
        assert_eq!(
            w.codec_mask(),
            RunCodec::DeltaVarint.mask_bit() | RunCodec::BitPacked.mask_bit()
        );
        assert!(w.raw_len() > w.len() as u64);
        // Raw equivalent: 4 bytes per value plus the vec's count prefix.
        assert_eq!(w.raw_len(), (sorted.len() + wild.len()) as u64 * 4 + 4);
        let stream = w.into_bytes();
        let (path, fm, len) = stream_file("packed", &stream, 64);
        let pool = BufferPool::new(2);
        let mut r = SegmentReader::new(&pool, &fm, 0, len);
        assert_eq!(r.get_packed_u32s(sorted.len()).unwrap(), sorted);
        assert_eq!(r.get_packed_u32_vec().unwrap(), wild);
        assert_eq!(r.remaining(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_reader_prefetches_batches() {
        let stream: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let (path, fm, len) = stream_file("scan", &stream, 64);
        let pool = BufferPool::new(32);
        let mut r = SegmentReader::new_scan(&pool, &fm, 0, len);
        let mut out = vec![0u8; stream.len()];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, stream);
        let stats = pool.stats();
        // Batched faulting: most pages arrive via prefetch, and the
        // ledger stays honest (prefetch reads are misses, first touches
        // are prefetch hits, not plain hits).
        assert!(stats.prefetched > 0);
        assert!(stats.prefetch_hits > 0);
        assert!(stats.evictions <= stats.misses);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absurd_length_prefixes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX); // a length prefix pointing far past the segment
        let stream = w.into_bytes();
        let (path, fm, len) = stream_file("absurd", &stream, 64);
        let pool = BufferPool::new(2);
        let mut r = SegmentReader::new(&pool, &fm, 0, len);
        assert!(r.get_str().is_err());
        let mut r2 = SegmentReader::new(&pool, &fm, 0, len);
        assert!(r2.get_u32_vec().is_err());
        std::fs::remove_file(&path).ok();
    }
}
