//! Snapshot save/open: persisting a shredded catalog and its indices as a
//! page file, and faulting them back in through the buffer pool.
//!
//! ## File layout
//!
//! Page 0 is the header page; its payload is:
//!
//! | field        | type  | meaning                                  |
//! |--------------|-------|------------------------------------------|
//! | magic        | 8 B   | `"ROXSNAP1"`                             |
//! | version      | `u32` | format version (currently 2)             |
//! | page_size    | `u32` | page size the file was written with      |
//! | page_count   | `u32` | total pages including this one           |
//! | symbols seg  | `u32`+`u64` | first page + byte length           |
//! | directory seg| `u32`+`u64` | first page + byte length           |
//!
//! Everything else lives in *segments* — page-aligned byte streams (see
//! [`crate::bytes`]): per document one **document segment** (the six
//! Pre-columnar node-table columns) and one **index segment** (element
//! index groups, CSR value tables, numeric runs), then the **symbol heap**
//! (the interner dump) and the **directory** (URI → segment locations).
//! The header page is written last, so a crash mid-save leaves a file
//! that fails header validation instead of a plausible half-snapshot.
//!
//! Since format version 2 every integer column travels as a *packed run*
//! ([`crate::bytes::RunCodec`]): sorted `Pre` postings, CSR offsets, and
//! near-sequential node columns as delta + varint, high-entropy symbol
//! columns bitpacked to the width of their largest value — whichever is
//! smaller per run, the choice tagged in the stream and summarized per
//! segment in the directory (`u8` codec masks). Only `f64` payloads and
//! the symbol heap's string blob stay raw. This is what turns a snapshot
//! ~2.5× the source XML into one smaller than it.
//!
//! ## Determinism
//!
//! The encoder is fully deterministic for a given catalog state: documents
//! are written in id order, element-index groups sorted by symbol, `f64`
//! as raw bits. Saving the same catalog twice yields byte-identical files,
//! which is what the committed golden fixture in CI leans on to detect
//! accidental format changes.

use crate::bytes::{ByteReader, ByteWriter, SegmentReader, SliceReader};
use crate::error::{Result, StorageError};
use crate::file::{read_header_payload, FileManager};
use crate::page::{encode_page, DEFAULT_PAGE_SIZE, MIN_PAGE_SIZE, PAGE_HEADER};
use crate::pool::{BufferPool, PoolStats};
use parking_lot::RwLock;
use rox_index::{DocIndexes, DocSource, ElementIndex, IndexedStore, SymbolTable, ValueIndex};
use rox_xmldb::{Catalog, DocId, Document, Interner, NodeKind, Pre, Symbol};
use std::collections::HashSet;
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic of a snapshot header page payload.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ROXSNAP1";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 2;

/// What one [`Snapshot::save`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Documents persisted.
    pub docs: usize,
    /// Total pages written, including the header page.
    pub pages: u32,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Page size used.
    pub page_size: usize,
    /// Logical segment bytes actually written (compressed).
    pub payload_bytes: u64,
    /// What the segments would have occupied with raw 4-byte columns
    /// (the v1 format) — `payload_bytes / raw_payload_bytes` is the
    /// compression ratio before page framing.
    pub raw_payload_bytes: u64,
    /// Fsyncs issued to make the save durable: the file itself plus its
    /// parent directory (a file fsync alone does not persist the new
    /// directory entry across power failure).
    pub fsyncs: u32,
}

/// Location of one segment: first page and logical byte length.
#[derive(Debug, Clone, Copy)]
struct SegmentLoc {
    first_page: u32,
    len: u64,
}

/// One directory entry: where a document and its indices live, plus the
/// [`RunCodec`](crate::bytes::RunCodec) mask each segment's packed runs
/// used.
struct DocEntry {
    uri: String,
    doc_seg: SegmentLoc,
    doc_mask: u8,
    index_seg: SegmentLoc,
    index_mask: u8,
}

/// A fully encoded snapshot, not yet written anywhere: the header page
/// payload, every segment tagged with its first page, and the report the
/// writer will finish (its `fsyncs` field is the writer's to fill).
struct EncodedSnapshot {
    header: Vec<u8>,
    segments: Vec<(u32, Vec<u8>)>,
    report: SaveReport,
}

/// Encode every document of `store`'s catalog (plus indices) into page-
/// aligned segments and the header payload, in deterministic id order.
fn encode_snapshot(store: &IndexedStore, page_size: usize) -> EncodedSnapshot {
    assert!(
        page_size >= MIN_PAGE_SIZE,
        "page size {page_size} below minimum {MIN_PAGE_SIZE}"
    );
    let catalog = store.catalog();
    let payload_per_page = page_size - PAGE_HEADER;
    let pages_of = |len: u64| -> u32 { (len.div_ceil(payload_per_page as u64)) as u32 };

    let mut next_page = 1u32; // page 0 is the header
    let mut entries = Vec::new();
    let mut segments: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut payload_bytes = 0u64;
    let mut raw_payload_bytes = 0u64;
    let mut place = |w: ByteWriter, next_page: &mut u32| -> (SegmentLoc, u8) {
        let mask = w.codec_mask();
        payload_bytes += w.len() as u64;
        raw_payload_bytes += w.raw_len();
        let bytes = w.into_bytes();
        let loc = SegmentLoc {
            first_page: *next_page,
            len: bytes.len() as u64,
        };
        *next_page += pages_of(bytes.len() as u64);
        segments.push((loc.first_page, bytes));
        (loc, mask)
    };
    for id in catalog.doc_ids() {
        let doc = store.doc(id);
        let indexes = store.indexes(id);
        let (doc_seg, doc_mask) = place(encode_document(&doc), &mut next_page);
        let (index_seg, index_mask) = place(encode_indexes(&indexes), &mut next_page);
        entries.push(DocEntry {
            uri: doc.uri().to_string(),
            doc_seg,
            doc_mask,
            index_seg,
            index_mask,
        });
    }

    // Symbol heap after all documents/indices are encoded, so every
    // symbol they reference is present.
    let (symbols_seg, _) = place(encode_symbols(catalog.interner()), &mut next_page);
    let (dir_seg, _) = place(encode_directory(&entries), &mut next_page);
    let page_count = next_page;

    let mut h = ByteWriter::new();
    h.put_u8(SNAPSHOT_MAGIC[0]);
    for &b in &SNAPSHOT_MAGIC[1..] {
        h.put_u8(b);
    }
    h.put_u32(SNAPSHOT_VERSION);
    h.put_u32(page_size as u32);
    h.put_u32(page_count);
    h.put_u32(symbols_seg.first_page);
    h.put_u64(symbols_seg.len);
    h.put_u32(dir_seg.first_page);
    h.put_u64(dir_seg.len);

    EncodedSnapshot {
        header: h.into_bytes(),
        segments,
        report: SaveReport {
            docs: entries.len(),
            pages: page_count,
            file_bytes: page_count as u64 * page_size as u64,
            page_size,
            payload_bytes,
            raw_payload_bytes,
            fsyncs: 0,
        },
    }
}

/// Namespace for snapshot save/open.
pub struct Snapshot;

impl Snapshot {
    /// Persist every document of `store`'s catalog (plus its element and
    /// value indices, building any that are missing) to a page file at
    /// `path`, using [`DEFAULT_PAGE_SIZE`] pages.
    pub fn save(path: &Path, store: &IndexedStore) -> Result<SaveReport> {
        Self::save_with_page_size(path, store, DEFAULT_PAGE_SIZE)
    }

    /// As [`Snapshot::save`] with an explicit page size (tests use tiny
    /// pages to force multi-page segments and eviction pressure).
    pub fn save_with_page_size(
        path: &Path,
        store: &IndexedStore,
        page_size: usize,
    ) -> Result<SaveReport> {
        let enc = encode_snapshot(store, page_size);
        let payload_per_page = page_size - PAGE_HEADER;

        // Write: zeroed header placeholder, then segment pages, then the
        // real header — a torn save never validates.
        let mut file = File::create(path)?;
        file.write_all(&vec![0u8; page_size])?;
        for (first_page, bytes) in &enc.segments {
            if bytes.is_empty() {
                continue;
            }
            for (i, chunk) in bytes.chunks(payload_per_page).enumerate() {
                file.write_all(&encode_page(first_page + i as u32, chunk, page_size))?;
            }
        }
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&encode_page(0, &enc.header, page_size))?;
        file.sync_all()?;
        // The file's durability is not the save's durability: its
        // *directory entry* lives in the parent directory's data, which
        // needs its own fsync to survive power failure.
        crate::file::sync_parent_dir(path)?;
        let mut report = enc.report;
        report.fsyncs = 2;
        Ok(report)
    }

    /// Encode the whole snapshot as one contiguous page-file image
    /// (header page first). The checkpoint path writes this image to a
    /// temporary file and renames it into place — atomicity comes from
    /// the rename, not from header-last ordering, so the header can lead.
    pub fn encode_image(store: &IndexedStore, page_size: usize) -> (Vec<u8>, SaveReport) {
        let enc = encode_snapshot(store, page_size);
        let payload_per_page = page_size - PAGE_HEADER;
        let mut image = Vec::with_capacity(enc.report.file_bytes as usize);
        image.extend_from_slice(&encode_page(0, &enc.header, page_size));
        for (first_page, bytes) in &enc.segments {
            if bytes.is_empty() {
                continue;
            }
            for (i, chunk) in bytes.chunks(payload_per_page).enumerate() {
                image.extend_from_slice(&encode_page(first_page + i as u32, chunk, page_size));
            }
        }
        debug_assert_eq!(image.len() as u64, enc.report.file_bytes);
        (image, enc.report)
    }

    /// Open the snapshot at `path`: validate the header, restore the
    /// symbol heap and directory eagerly, and return a catalog with every
    /// stored URI *reserved but not resident* plus the [`SnapshotSource`]
    /// that faults content in on first touch.
    ///
    /// `frames` bounds the buffer pool (in pages); `None` sizes it to hold
    /// the whole file — pass a fraction of
    /// [`SnapshotSource::page_count`] to run catalogs larger than the
    /// pool.
    pub fn open(path: &Path, frames: Option<usize>) -> Result<(Arc<Catalog>, Arc<SnapshotSource>)> {
        let (file, header) = read_header_payload(path)?;
        let bad = |reason: String| StorageError::Format(reason);
        if header.len() < 40 {
            return Err(bad(format!(
                "header payload too short: {} bytes",
                header.len()
            )));
        }
        if header[..8] != SNAPSHOT_MAGIC {
            return Err(bad("not a ROX snapshot (bad magic)".to_string()));
        }
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
        let long = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().unwrap());
        let version = word(8);
        if version != SNAPSHOT_VERSION {
            return Err(bad(format!(
                "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
            )));
        }
        let page_size = word(12) as usize;
        if page_size < MIN_PAGE_SIZE {
            return Err(bad(format!("implausible page size {page_size}")));
        }
        let page_count = word(16);
        let symbols_seg = SegmentLoc {
            first_page: word(20),
            len: long(24),
        };
        let dir_seg = SegmentLoc {
            first_page: word(32),
            len: long(36),
        };
        let file = FileManager::new(file, page_size, page_count);
        let pool = BufferPool::new(frames.unwrap_or(page_count as usize));

        // Each segment is drained in one readahead-batched scan and
        // decoded from memory (see [`SegmentReader::read_all`]).
        let interner = {
            let bytes =
                SegmentReader::new_scan(&pool, &file, symbols_seg.first_page, symbols_seg.len)
                    .read_all()?;
            Arc::new(decode_symbols(&mut SliceReader::new(&bytes))?)
        };
        let dir = {
            let bytes = SegmentReader::new_scan(&pool, &file, dir_seg.first_page, dir_seg.len)
                .read_all()?;
            decode_directory(&mut SliceReader::new(&bytes))?
        };
        let catalog = Arc::new(Catalog::with_interner(Arc::clone(&interner)));
        for (i, entry) in dir.iter().enumerate() {
            let id = catalog.reserve(&entry.uri);
            if id.index() != i {
                return Err(bad(format!(
                    "duplicate URI {:?} in snapshot directory",
                    entry.uri
                )));
            }
        }
        let source = Arc::new(SnapshotSource {
            file,
            pool,
            dir,
            interner,
            stale: RwLock::new(HashSet::new()),
        });
        Ok((catalog, source))
    }
}

/// The open side of a snapshot: faults documents and prebuilt indices in
/// through the buffer pool. Implements [`DocSource`], so an
/// [`IndexedStore::with_source`] store resolves first touches here.
pub struct SnapshotSource {
    file: FileManager,
    pool: BufferPool,
    dir: Vec<DocEntry>,
    interner: Arc<Interner>,
    /// Documents whose live copy diverged from the stored one: their
    /// stored *index* segments must never be served again.
    stale: RwLock<HashSet<DocId>>,
}

impl SnapshotSource {
    /// Documents stored in this snapshot.
    pub fn doc_count(&self) -> usize {
        self.dir.len()
    }

    /// Total pages in the snapshot file (the 100% mark for pool sizing).
    pub fn page_count(&self) -> u32 {
        self.file.page_count()
    }

    /// Page size of the snapshot file.
    pub fn page_size(&self) -> usize {
        self.file.page_size()
    }

    /// Buffer-pool traffic counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Decode the stored document `id`, or `Ok(None)` when the snapshot
    /// has no entry for it. Corruption surfaces as an error.
    pub fn try_document(&self, id: DocId) -> Result<Option<Arc<Document>>> {
        let Some(entry) = self.dir.get(id.index()) else {
            return Ok(None);
        };
        let bytes = SegmentReader::new_scan(
            &self.pool,
            &self.file,
            entry.doc_seg.first_page,
            entry.doc_seg.len,
        )
        .read_all()?;
        let mut r = SliceReader::new(&bytes);
        let doc = decode_document(&mut r, id, &entry.uri, &self.interner)?;
        Ok(Some(Arc::new(doc)))
    }

    /// Decode the stored indices for `id`; `Ok(None)` for unknown ids and
    /// for documents marked stale.
    pub fn try_indexes(&self, id: DocId) -> Result<Option<Arc<DocIndexes>>> {
        if self.stale.read().contains(&id) {
            return Ok(None);
        }
        let Some(entry) = self.dir.get(id.index()) else {
            return Ok(None);
        };
        let bytes = SegmentReader::new_scan(
            &self.pool,
            &self.file,
            entry.index_seg.first_page,
            entry.index_seg.len,
        )
        .read_all()?;
        let indexes = decode_indexes(&mut SliceReader::new(&bytes))?;
        // Re-check staleness after the decode: an invalidation that raced
        // the decode must win, never the stale indices.
        if self.stale.read().contains(&id) {
            return Ok(None);
        }
        Ok(Some(Arc::new(indexes)))
    }

    /// Documents currently marked stale.
    pub fn stale_count(&self) -> usize {
        self.stale.read().len()
    }

    /// Has `id` been marked stale? A stale document's only current copy
    /// is the live resident one — residency sweeps must not evict it.
    pub fn is_stale(&self, id: DocId) -> bool {
        self.stale.read().contains(&id)
    }
}

impl DocSource for SnapshotSource {
    fn document(&self, id: DocId) -> Option<Arc<Document>> {
        self.try_document(id)
            .unwrap_or_else(|e| panic!("snapshot document fault for {id:?} failed: {e}"))
    }

    fn indexes(&self, id: DocId) -> Option<Arc<DocIndexes>> {
        self.try_indexes(id)
            .unwrap_or_else(|e| panic!("snapshot index fault for {id:?} failed: {e}"))
    }

    fn mark_stale(&self, id: DocId) {
        self.stale.write().insert(id);
    }
}

/// Encode one document's columns as a standalone byte stream — the unit
/// the WAL logs for a document-carrying record (see [`crate::wal`]).
pub(crate) fn encode_document_bytes(doc: &Document) -> Vec<u8> {
    encode_document(doc).into_bytes()
}

fn encode_document(doc: &Document) -> ByteWriter {
    let cols = doc.columns();
    let n = cols.size.len();
    let mut w = ByteWriter::new();
    w.put_u32(u32::try_from(n).expect("node count overflow"));
    w.put_packed_u32s(cols.size);
    let level: Vec<u32> = cols.level.iter().map(|&v| u32::from(v)).collect();
    w.put_packed_u32s(&level);
    w.put_packed_u32s(cols.parent);
    let kind: Vec<u32> = cols.kind.iter().map(|&k| k as u32).collect();
    w.put_packed_u32s(&kind);
    let name: Vec<u32> = cols.name.iter().map(|&s| s.0).collect();
    w.put_packed_u32s(&name);
    let value: Vec<u32> = cols.value.iter().map(|&s| s.0).collect();
    w.put_packed_u32s(&value);
    w
}

pub(crate) fn decode_document<R: ByteReader>(
    r: &mut R,
    id: DocId,
    uri: &str,
    interner: &Arc<Interner>,
) -> Result<Document> {
    let n = r.get_u32()? as usize;
    if n == 0 {
        return Err(StorageError::Format(
            "document segment with zero nodes".to_string(),
        ));
    }
    let size = r.get_packed_u32s(n)?;
    // Validate whole columns up front, then convert in tight cast loops:
    // per-element `try_from` with a `Result` collect defeats
    // vectorization, which shows at hundreds of thousands of nodes.
    let level_raw = r.get_packed_u32s(n)?;
    if let Some(&bad) = level_raw.iter().find(|&&v| v > u32::from(u16::MAX)) {
        return Err(StorageError::Format(format!(
            "level {bad} exceeds u16 range"
        )));
    }
    let level: Vec<u16> = level_raw.iter().map(|&v| v as u16).collect();
    let parent = r.get_packed_u32s(n)?;
    let kind_raw = r.get_packed_u32s(n)?;
    if let Some(&bad) = kind_raw.iter().find(|&&v| v > 5) {
        return Err(StorageError::Format(format!("invalid node kind tag {bad}")));
    }
    // Tags are ≤ 5 after the check above; padding the table to 8 and
    // masking keeps the lookup branch- and bounds-check-free.
    const KINDS: [NodeKind; 8] = [
        NodeKind::Document,
        NodeKind::Element,
        NodeKind::Text,
        NodeKind::Attribute,
        NodeKind::Comment,
        NodeKind::ProcessingInstruction,
        NodeKind::Document,
        NodeKind::Document,
    ];
    let kind: Vec<NodeKind> = kind_raw.iter().map(|&v| KINDS[(v & 7) as usize]).collect();
    let symbol_bound = interner.len() as u32;
    let get_symbols = |r: &mut R| -> Result<Vec<Symbol>> {
        let raw = r.get_packed_u32s(n)?;
        if let Some(&bad) = raw.iter().find(|&&s| s >= symbol_bound) {
            return Err(StorageError::Format(format!(
                "symbol {bad} beyond heap of {symbol_bound}"
            )));
        }
        Ok(raw.into_iter().map(Symbol).collect())
    };
    let name = get_symbols(r)?;
    let value = get_symbols(r)?;
    Ok(Document::from_columns(
        id,
        uri.to_string(),
        size,
        level,
        parent,
        kind,
        name,
        value,
        Arc::clone(interner),
    ))
}

fn encode_groups(w: &mut ByteWriter, groups: &[(Symbol, &[Pre])]) {
    w.put_u32(groups.len() as u32);
    for (sym, pres) in groups {
        w.put_u32(sym.0);
        w.put_packed_u32_vec(pres);
    }
}

fn decode_groups<R: ByteReader>(r: &mut R) -> Result<Vec<(Symbol, Vec<Pre>)>> {
    let count = r.get_u32()? as usize;
    let mut groups = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let sym = Symbol(r.get_u32()?);
        groups.push((sym, r.get_packed_u32_vec()?));
    }
    Ok(groups)
}

/// Numeric runs split their columns: the `f64` values stay raw bits (any
/// bit pattern must survive), the sorted `Pre` column packs.
fn encode_numeric_run(w: &mut ByteWriter, run: &[(f64, Pre)]) {
    w.put_u32(run.len() as u32);
    for &(v, _) in run {
        w.put_f64(v);
    }
    let pres: Vec<u32> = run.iter().map(|&(_, p)| p).collect();
    w.put_packed_u32s(&pres);
}

fn decode_numeric_run<R: ByteReader>(r: &mut R) -> Result<Vec<(f64, Pre)>> {
    let count = r.get_u32()? as u64;
    if count * 8 > r.remaining() {
        return Err(StorageError::Format(format!(
            "numeric run of {count} entries exceeds remaining segment"
        )));
    }
    let values: Vec<f64> = r.with_run(count as usize * 8, |bytes| {
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    })?;
    let pres = r.get_packed_u32s(count as usize)?;
    Ok(values.into_iter().zip(pres).collect())
}

fn encode_indexes(indexes: &DocIndexes) -> ByteWriter {
    let mut w = ByteWriter::new();
    encode_groups(&mut w, &indexes.element.name_groups());
    encode_groups(&mut w, &indexes.element.attr_name_groups());
    w.put_packed_u32_vec(indexes.element.elements());
    w.put_packed_u32_vec(indexes.element.text_nodes());
    w.put_packed_u32_vec(indexes.element.attributes());
    for table in [indexes.value.text_table(), indexes.value.attr_table()] {
        w.put_packed_u32_vec(table.offsets());
        w.put_packed_u32_vec(table.values());
    }
    encode_numeric_run(&mut w, indexes.value.numeric_text_run());
    encode_numeric_run(&mut w, indexes.value.numeric_attr_run());
    w
}

fn decode_indexes<R: ByteReader>(r: &mut R) -> Result<DocIndexes> {
    let by_name = decode_groups(r)?;
    let attr_by_name = decode_groups(r)?;
    let all_elements = r.get_packed_u32_vec()?;
    let all_text = r.get_packed_u32_vec()?;
    let all_attributes = r.get_packed_u32_vec()?;
    let element = ElementIndex::from_parts(
        by_name,
        attr_by_name,
        all_elements,
        all_text,
        all_attributes,
    );
    let table = |r: &mut R| -> Result<SymbolTable> {
        let offsets = r.get_packed_u32_vec()?;
        let values = r.get_packed_u32_vec()?;
        SymbolTable::from_raw(offsets, values)
            .ok_or_else(|| StorageError::Format("malformed CSR value table".to_string()))
    };
    let text_by_value = table(r)?;
    let attr_by_value = table(r)?;
    let numeric_text = decode_numeric_run(r)?;
    let numeric_attr = decode_numeric_run(r)?;
    let value = ValueIndex::from_parts(text_by_value, attr_by_value, numeric_text, numeric_attr);
    Ok(DocIndexes { element, value })
}

fn encode_symbols(interner: &Interner) -> ByteWriter {
    let strings = interner.dump();
    let mut w = ByteWriter::new();
    w.put_u32(strings.len() as u32);
    for s in &strings {
        w.put_str(s);
    }
    w
}

fn decode_symbols<R: ByteReader>(r: &mut R) -> Result<Interner> {
    let count = r.get_u32()? as usize;
    if count == 0 {
        return Err(StorageError::Format(
            "symbol heap must contain at least the empty string".to_string(),
        ));
    }
    // Process the whole heap as one run — borrowed in place from a
    // drained segment — and slice the strings out of it: per-string
    // segment reads and intermediate `String`s would dominate cold
    // starts on catalogs with tens of thousands of symbols.
    let heap = r.remaining() as usize;
    r.with_run(heap, |blob| {
        let mut strings = Vec::with_capacity(count.min(1 << 20));
        let mut at = 0usize;
        for _ in 0..count {
            let end = at
                .checked_add(4)
                .filter(|&e| e <= blob.len())
                .ok_or_else(|| {
                    StorageError::Format("symbol heap truncated mid-length".to_string())
                })?;
            let len = u32::from_le_bytes(blob[at..end].try_into().unwrap()) as usize;
            at = end;
            let end = at
                .checked_add(len)
                .filter(|&e| e <= blob.len())
                .ok_or_else(|| {
                    StorageError::Format(format!("symbol of {len} bytes exceeds remaining heap"))
                })?;
            let s = std::str::from_utf8(&blob[at..end])
                .map_err(|e| StorageError::Format(format!("invalid UTF-8 in symbol heap: {e}")))?;
            strings.push(s);
            at = end;
        }
        if !strings[0].is_empty() {
            return Err(StorageError::Format(
                "symbol 0 of the heap is not the empty string".to_string(),
            ));
        }
        Interner::try_from_strings(&strings).map_err(StorageError::Format)
    })
}

fn encode_directory(entries: &[DocEntry]) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.put_u32(entries.len() as u32);
    for e in entries {
        w.put_str(&e.uri);
        w.put_u32(e.doc_seg.first_page);
        w.put_u64(e.doc_seg.len);
        w.put_u8(e.doc_mask);
        w.put_u32(e.index_seg.first_page);
        w.put_u64(e.index_seg.len);
        w.put_u8(e.index_mask);
    }
    w
}

fn decode_directory<R: ByteReader>(r: &mut R) -> Result<Vec<DocEntry>> {
    let count = r.get_u32()? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let uri = r.get_str()?;
        let doc_seg = SegmentLoc {
            first_page: r.get_u32()?,
            len: r.get_u64()?,
        };
        let doc_mask = r.get_u8()?;
        let index_seg = SegmentLoc {
            first_page: r.get_u32()?,
            len: r.get_u64()?,
        };
        let index_mask = r.get_u8()?;
        entries.push(DocEntry {
            uri,
            doc_seg,
            doc_mask,
            index_seg,
            index_mask,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_snapshot(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "rox-storage-snap-{}-{name}.rox",
            std::process::id()
        ));
        p
    }

    fn sample_store() -> IndexedStore {
        let cat = Arc::new(Catalog::new());
        cat.load_str(
            "auctions.xml",
            r#"<site><item id="7"><name>chair</name><price>150</price></item><item id="9"><name>desk</name><price>12.5</price></item></site>"#,
        )
        .unwrap();
        cat.load_str("tiny.xml", "<a/>").unwrap();
        IndexedStore::new(cat)
    }

    #[test]
    fn save_open_roundtrips_documents_and_indexes() {
        let path = temp_snapshot("roundtrip");
        let store = sample_store();
        let report = Snapshot::save_with_page_size(&path, &store, 128).unwrap();
        assert_eq!(report.docs, 2);
        assert!(report.pages > 2);

        let (catalog, source) = Snapshot::open(&path, None).unwrap();
        assert_eq!(source.doc_count(), 2);
        assert_eq!(catalog.len(), 2);
        // Nothing resident yet: open is lazy.
        let id = catalog.resolve("auctions.xml").unwrap();
        assert!(catalog.get(id).is_none());

        let restored = IndexedStore::with_source(Arc::clone(&catalog), source);
        let original = store.doc(id);
        let faulted = restored.doc(id);
        // Bit-identical columns.
        let (a, b) = (original.columns(), faulted.columns());
        assert_eq!(a.size, b.size);
        assert_eq!(a.level, b.level);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.name, b.name);
        assert_eq!(a.value, b.value);
        faulted.check_invariants().unwrap();
        // Index decode, not a rebuild.
        let idx = restored.indexes(id);
        assert_eq!(restored.build_count(), 0);
        let price = catalog.interner().get("price").unwrap();
        assert_eq!(idx.element.count(price), 2);
        let chair = catalog.interner().get("chair").unwrap();
        assert_eq!(idx.value.text_eq(chair).len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn packed_columns_shrink_below_raw() {
        let path = temp_snapshot("packed");
        let store = sample_store();
        let report = Snapshot::save_with_page_size(&path, &store, 128).unwrap();
        assert!(
            report.payload_bytes < report.raw_payload_bytes,
            "packed segments must beat raw columns: {report:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saving_twice_is_byte_identical() {
        let p1 = temp_snapshot("det1");
        let p2 = temp_snapshot("det2");
        let store = sample_store();
        Snapshot::save_with_page_size(&p1, &store, 128).unwrap();
        Snapshot::save_with_page_size(&p2, &store, 128).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn tiny_pool_still_decodes_identically() {
        let path = temp_snapshot("tinypool");
        let store = sample_store();
        Snapshot::save_with_page_size(&path, &store, 64).unwrap();
        let (catalog, source) = Snapshot::open(&path, Some(2)).unwrap();
        for id in catalog.doc_ids() {
            let doc = source.try_document(id).unwrap().unwrap();
            let orig = store.doc(id);
            assert_eq!(doc.columns().name, orig.columns().name);
            let idx = source.try_indexes(id).unwrap().unwrap();
            let orig_idx = store.indexes(id);
            assert_eq!(idx.element.elements(), orig_idx.element.elements());
        }
        let stats = source.pool_stats();
        assert!(
            stats.evictions > 0,
            "tiny pool must have evicted: {stats:?}"
        );
        assert_eq!(stats.capacity, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_page_is_a_clean_error() {
        let path = temp_snapshot("corrupt");
        let store = sample_store();
        Snapshot::save_with_page_size(&path, &store, 128).unwrap();
        // Flip a byte in the middle of page 1 (a document segment page).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[128 + 40] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (catalog, source) = Snapshot::open(&path, None).unwrap();
        let id = catalog.resolve("auctions.xml").unwrap();
        let err = source.try_document(id).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt { page: 1, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_clean_error() {
        let path = temp_snapshot("truncated");
        let store = sample_store();
        let report = Snapshot::save_with_page_size(&path, &store, 128).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Drop the last page: the directory (written near the end) or a
        // late segment becomes unreadable.
        std::fs::write(&path, &bytes[..bytes.len() - report.page_size]).unwrap();
        assert!(Snapshot::open(&path, None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn not_a_snapshot_is_a_clean_error() {
        let path = temp_snapshot("garbage");
        std::fs::write(&path, b"<site>this is xml, not a snapshot</site>").unwrap();
        assert!(Snapshot::open(&path, None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_documents_never_serve_stored_indexes() {
        let path = temp_snapshot("stale");
        let store = sample_store();
        Snapshot::save_with_page_size(&path, &store, 128).unwrap();
        let (catalog, source) = Snapshot::open(&path, None).unwrap();
        let id = catalog.resolve("tiny.xml").unwrap();
        source.mark_stale(id);
        assert!(source.try_indexes(id).unwrap().is_none());
        // The document segment itself stays decodable (it is only used
        // when no newer resident copy exists).
        assert!(source.try_document(id).unwrap().is_some());
        assert_eq!(source.stale_count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
