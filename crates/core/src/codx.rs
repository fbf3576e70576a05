//! CODX **version 3**: the one on-disk artifact format.
//!
//! The HIMOR index is built once per graph (Θ = θ·|V| RR graphs; Table II
//! reports minutes on the large datasets) and reused across queries and
//! sessions, so a deployment wants it on disk and wants to trust what it
//! reads back. A CODX v3 file holds the *whole* prepared-artifact set in a
//! disk-native layout, so a process can `mmap` it and serve queries from
//! zero-copy slices:
//!
//! * the graph itself (CSR offsets/targets, attribute tables, interned
//!   attribute names) rides along, so serving from the file needs no
//!   separate graph source;
//! * every array section is aligned to an **8-byte boundary** from the
//!   start of the file (the mmap base is page-aligned, so file alignment
//!   is pointer alignment) and stored in the exact in-memory layout of the
//!   [`Segment`]-backed structs — `u64` offset arrays, `u32` id arrays;
//! * a **section directory** up front (id, CRC32, offset, length per
//!   entry) lets a reader locate sections without scanning, and lets the
//!   CRC of each section be verified **lazily on first access** instead of
//!   in one eager whole-file pass at open;
//! * a **total-length footer** backstops directory corruption: truncation
//!   or a shifted length field disagrees with the real file length.
//!
//! ```text
//! 0:   magic "CODX" | version u32 = 3
//! 8:   num_sections u64
//! 16:  directory: (id u32, crc32 u32, offset u64, len u64) × num_sections
//! ...  sections, each starting 8-aligned, zero-padded between
//! end: total_len u64
//! ```
//!
//! [`MappedArtifacts`] is the read handle. It parses only the header and
//! directory at open; `graph()` / `hierarchy()` / `himor()` materialize
//! their structs on first call (CRC-verifying exactly the sections they
//! touch) and cache the `Arc` for every later call. Structures whose
//! storage is a flat array ([`Csr`], [`AttrTable`],
//! [`crate::himor::RankTable`]) get zero-copy [`Segment`] views; small
//! derived structures (the interner, the dendrogram and its LCA table)
//! are decoded eagerly — they are `O(|A| + n)` against the `O(n + E +
//! Σdep)` arrays that dominate the file. Every declared count and offset
//! is validated against the bytes actually present before anything is
//! sized, so a corrupt file can never request more memory than its own
//! size.
//!
//! The same handle works without `mmap`: [`MappedArtifacts::open_eager`]
//! reads the file into RAM and serves views into the owned buffer.
//!
//! [`save_artifacts`] writes atomically (temp sibling + fsync + rename),
//! so a crash mid-save leaves any previous file intact. Files of the
//! retired v1/v2 layouts (hierarchy and ranks only, no graph) fail to open
//! with [`CodError::IndexCorrupt`] naming their version; rebuilding the
//! artifacts and saving them again is the upgrade path. Every load failure
//! maps to [`CodError::IndexCorrupt`] (untrustworthy bytes) or
//! [`CodError::Io`] (the file could not be read) — never a panic.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use cod_graph::bytes::Pod;
use cod_graph::{AttrInterner, AttrTable, AttributedGraph, Bytes, Csr, NodeId, Segment};
use cod_hierarchy::{Dendrogram, Hierarchy, Merge};

use crate::error::{CodError, CodResult};
use crate::failpoint::{self, Site};
use crate::himor::{HimorIndex, RankTable};
use crate::persist::{crc32, write_atomically};

/// The format version this module writes.
pub const CODX_V3: u32 = 3;

const MAGIC: &[u8; 4] = b"CODX";
const DIR_ENTRY_BYTES: usize = 24;

/// Section identifiers. Readers locate sections by id, so the on-disk
/// order is free to change; writers emit them in this order.
mod section {
    pub const META: u32 = 1;
    pub const CSR_OFFSETS: u32 = 2;
    pub const CSR_TARGETS: u32 = 3;
    pub const ATTR_OFFSETS: u32 = 4;
    pub const ATTR_VALUES: u32 = 5;
    pub const ATTR_NAMES: u32 = 6;
    pub const DENDRO_MERGES: u32 = 7;
    pub const HIMOR_OFFSETS: u32 = 8;
    pub const HIMOR_RANKS: u32 = 9;
}

/// META payload: little-endian u64 fields, in order.
const META_FIELDS: usize = 2; // num_nodes, theta

fn corrupt(msg: impl Into<String>) -> CodError {
    CodError::IndexCorrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn push_u64s(out: &mut Vec<u8>, it: impl Iterator<Item = u64>) {
    for x in it {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn push_u32s(out: &mut Vec<u8>, it: impl Iterator<Item = u32>) {
    for x in it {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Serializes the full artifact set into a complete CODX v3 byte image.
pub fn serialize_artifacts(
    g: &AttributedGraph,
    dendro: &Dendrogram,
    index: &HimorIndex,
) -> CodResult<Vec<u8>> {
    let n = g.num_nodes();
    if dendro.num_leaves() != n || index.num_nodes() != n {
        return Err(CodError::GraphFormat(format!(
            "artifact mismatch: graph has {n} nodes, hierarchy {} leaves, index {}",
            dendro.num_leaves(),
            index.num_nodes()
        )));
    }

    let mut meta = Vec::with_capacity(8 * META_FIELDS);
    push_u64s(&mut meta, [n as u64, index.theta() as u64].into_iter());

    let mut csr_offsets = Vec::with_capacity(8 * (n + 1));
    push_u64s(
        &mut csr_offsets,
        g.csr().raw_offsets().iter().map(|&o| o as u64),
    );
    let mut csr_targets = Vec::with_capacity(4 * g.csr().raw_neighbors().len());
    push_u32s(&mut csr_targets, g.csr().raw_neighbors().iter().copied());

    let mut attr_offsets = Vec::with_capacity(8 * (n + 1));
    push_u64s(
        &mut attr_offsets,
        g.attrs().raw_offsets().iter().map(|&o| o as u64),
    );
    let mut attr_values = Vec::with_capacity(4 * g.attrs().raw_values().len());
    push_u32s(&mut attr_values, g.attrs().raw_values().iter().copied());

    let mut attr_names = Vec::new();
    let interner = g.interner();
    push_u64s(&mut attr_names, [interner.len() as u64].into_iter());
    for id in 0..interner.len() as u32 {
        let name = interner.name(id).unwrap_or("");
        push_u32s(&mut attr_names, [name.len() as u32].into_iter());
        attr_names.extend_from_slice(name.as_bytes());
    }

    let merges = dendro.merges();
    let mut dendro_merges = Vec::with_capacity(8 * merges.len());
    for m in &merges {
        push_u32s(&mut dendro_merges, [m.a, m.b].into_iter());
    }

    let ranks = index.rank_table();
    let mut himor_offsets = Vec::with_capacity(8 * (n + 1));
    push_u64s(
        &mut himor_offsets,
        ranks.raw_offsets().iter().map(|&o| o as u64),
    );
    let mut himor_ranks = Vec::with_capacity(4 * ranks.raw_values().len());
    push_u32s(&mut himor_ranks, ranks.raw_values().iter().copied());

    let sections: [(u32, &[u8]); 9] = [
        (section::META, &meta),
        (section::CSR_OFFSETS, &csr_offsets),
        (section::CSR_TARGETS, &csr_targets),
        (section::ATTR_OFFSETS, &attr_offsets),
        (section::ATTR_VALUES, &attr_values),
        (section::ATTR_NAMES, &attr_names),
        (section::DENDRO_MERGES, &dendro_merges),
        (section::HIMOR_OFFSETS, &himor_offsets),
        (section::HIMOR_RANKS, &himor_ranks),
    ];

    // Lay out: header, directory, then 8-aligned sections.
    let dir_end = 16 + DIR_ENTRY_BYTES * sections.len();
    let mut offset = dir_end; // dir_end is already a multiple of 8
    let mut placed = Vec::with_capacity(sections.len());
    for (id, payload) in &sections {
        offset = (offset + 7) & !7;
        placed.push((*id, offset, payload.len(), crc32(payload)));
        offset += payload.len();
    }
    let footer_at = (offset + 7) & !7;
    let total = footer_at + 8;

    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CODX_V3.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    for (id, off, len, crc) in &placed {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&(*off as u64).to_le_bytes());
        out.extend_from_slice(&(*len as u64).to_le_bytes());
    }
    for ((_, payload), (_, off, _, _)) in sections.iter().zip(&placed) {
        out.resize(*off, 0); // zero padding up to the aligned start
        out.extend_from_slice(payload);
    }
    out.resize(footer_at, 0);
    out.extend_from_slice(&(total as u64).to_le_bytes());
    debug_assert_eq!(out.len(), total);
    Ok(out)
}

/// Writes the full artifact set to `path` atomically: temp sibling, fsync,
/// rename (see [`crate::persist`]).
pub fn save_artifacts(
    path: &Path,
    g: &AttributedGraph,
    dendro: &Dendrogram,
    index: &HimorIndex,
) -> CodResult<()> {
    let bytes = serialize_artifacts(g, dendro, index)?;
    write_atomically(path, &bytes)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Entry {
    id: u32,
    crc: u32,
    off: usize,
    len: usize,
}

/// Lazily-initialized artifact slot. `CodError` is not `Clone`, so load
/// failures are cached as messages and re-wrapped per access (an
/// `IndexCorrupt` keeps only its own text, so the re-wrap does not repeat
/// the variant's prefix).
type Slot<T> = OnceLock<Result<Arc<T>, String>>;

fn slot_get<T>(slot: &Slot<T>, build: impl FnOnce() -> CodResult<T>) -> CodResult<Arc<T>> {
    let cached = slot.get_or_init(|| {
        build().map(Arc::new).map_err(|e| match e {
            CodError::IndexCorrupt(msg) => msg,
            other => other.to_string(),
        })
    });
    match cached {
        Ok(v) => Ok(Arc::clone(v)),
        Err(msg) => Err(corrupt(msg.clone())),
    }
}

/// A read handle over a CODX v3 artifact file.
///
/// Opening parses only the header and section directory. Each artifact
/// accessor materializes its struct on first call — verifying the CRC of
/// exactly the sections it reads (the [`Site::MmapSection`] failpoint
/// fires per section verification) — and caches the `Arc` thereafter.
/// Array-backed structures hold zero-copy [`Segment`] views into the
/// mapping, so the handle (and all engines built over it) must stay alive
/// while they are in use; the `Arc`s enforce that.
pub struct MappedArtifacts {
    bytes: Arc<Bytes>,
    entries: Vec<Entry>,
    verified: Vec<OnceLock<Result<(), String>>>,
    num_nodes: usize,
    theta: usize,
    graph: Slot<AttributedGraph>,
    hierarchy: Slot<Hierarchy>,
    himor: Slot<HimorIndex>,
}

impl std::fmt::Debug for MappedArtifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedArtifacts")
            .field("file_bytes", &self.bytes.len())
            .field("mapped", &self.bytes.is_mapped())
            .field("num_nodes", &self.num_nodes)
            .field("sections", &self.entries.len())
            .finish()
    }
}

impl MappedArtifacts {
    /// Memory-maps `path` (true zero-copy on unix; elsewhere the file is
    /// read into RAM with identical semantics).
    pub fn open(path: &Path) -> CodResult<Self> {
        Self::from_bytes(Bytes::map_file(path)?)
    }

    /// Reads `path` eagerly into RAM — the no-`mmap` fallback. Artifact
    /// structs still use zero-copy views, but into the owned buffer.
    pub fn open_eager(path: &Path) -> CodResult<Self> {
        Self::from_bytes(Bytes::from_vec(std::fs::read(path)?))
    }

    /// Parses an in-memory v3 image (snapshots held in RAM, and the
    /// fault-injection tests).
    pub fn from_vec(bytes: Vec<u8>) -> CodResult<Self> {
        Self::from_bytes(Bytes::from_vec(bytes))
    }

    fn from_bytes(bytes: Bytes) -> CodResult<Self> {
        let bytes = Arc::new(bytes);
        let file_len = bytes.len();
        if file_len < 16 + 8 {
            return Err(corrupt("file too short for a CODX v3 header"));
        }
        if &bytes[0..4] != MAGIC {
            return Err(corrupt("bad magic; not a COD index file"));
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != CODX_V3 {
            return Err(corrupt(format!(
                "CODX version {version} is not readable (only v{CODX_V3} is); \
                 rebuild the artifacts to upgrade"
            )));
        }
        // Footer before anything else: it catches truncation and
        // length-field corruption in one comparison.
        let mut tail = [0u8; 8];
        tail.copy_from_slice(&bytes[file_len - 8..]);
        let total = u64::from_le_bytes(tail);
        if total != file_len as u64 {
            return Err(corrupt(format!(
                "total-length footer says {total} bytes but the file has {file_len}"
            )));
        }

        let mut head = [0u8; 8];
        head.copy_from_slice(&bytes[8..16]);
        let num_sections = u64::from_le_bytes(head);
        let max_sections = (file_len - 24) / DIR_ENTRY_BYTES;
        if num_sections as usize > max_sections {
            return Err(corrupt(format!(
                "directory declares {num_sections} sections but at most {max_sections} fit"
            )));
        }
        let num_sections = num_sections as usize;
        let dir_end = 16 + DIR_ENTRY_BYTES * num_sections;

        let mut entries = Vec::with_capacity(num_sections);
        for i in 0..num_sections {
            let at = 16 + DIR_ENTRY_BYTES * i;
            let e = &bytes[at..at + DIR_ENTRY_BYTES];
            let id = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
            let crc = u32::from_le_bytes([e[4], e[5], e[6], e[7]]);
            let off = u64::from_le_bytes([e[8], e[9], e[10], e[11], e[12], e[13], e[14], e[15]]);
            let len = u64::from_le_bytes([e[16], e[17], e[18], e[19], e[20], e[21], e[22], e[23]]);
            let (off, len) = (off as usize, len as usize);
            if off % 8 != 0 {
                return Err(corrupt(format!("section {id} offset {off} not 8-aligned")));
            }
            let end = off.checked_add(len).ok_or_else(|| {
                corrupt(format!("section {id} length overflows the address space"))
            })?;
            if off < dir_end || end > file_len - 8 {
                return Err(corrupt(format!(
                    "section {id} [{off}, {end}) escapes the file body"
                )));
            }
            if entries.iter().any(|p: &Entry| p.id == id) {
                return Err(corrupt(format!("duplicate section id {id}")));
            }
            entries.push(Entry { id, crc, off, len });
        }

        let verified = (0..entries.len()).map(|_| OnceLock::new()).collect();
        let mut arts = Self {
            bytes,
            entries,
            verified,
            num_nodes: 0,
            theta: 0,
            graph: OnceLock::new(),
            hierarchy: OnceLock::new(),
            himor: OnceLock::new(),
        };

        // META is tiny and everything cross-checks against it: verify now.
        let (num_nodes, theta) = {
            let meta = arts.section(section::META)?;
            if meta.len() != 8 * META_FIELDS {
                return Err(corrupt(format!(
                    "META section is {} bytes (expected {})",
                    meta.len(),
                    8 * META_FIELDS
                )));
            }
            let mut field = [0u8; 8];
            field.copy_from_slice(&meta[0..8]);
            let num_nodes = u64::from_le_bytes(field) as usize;
            field.copy_from_slice(&meta[8..16]);
            (num_nodes, u64::from_le_bytes(field) as usize)
        };
        arts.num_nodes = num_nodes;
        arts.theta = theta;
        if arts.num_nodes == 0 {
            return Err(corrupt("empty graph"));
        }
        if arts.num_nodes > NodeId::MAX as usize {
            return Err(corrupt(format!("{} nodes overflow NodeId", arts.num_nodes)));
        }
        Ok(arts)
    }

    /// Whether the backing buffer is a true memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// Total artifact file size in bytes.
    pub fn file_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Number of nodes the artifacts cover (from META).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// `Θ` the HIMOR index was built with (from META).
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// The payload of section `id`, CRC-verified on first access (the
    /// verification result is cached — later accesses are free).
    fn section(&self, id: u32) -> CodResult<&[u8]> {
        let (i, e) = self
            .entries
            .iter()
            .enumerate()
            .find(|(_, e)| e.id == id)
            .ok_or_else(|| corrupt(format!("missing section {id}")))?;
        let checked = self.verified[i].get_or_init(|| {
            failpoint::hit(Site::MmapSection, None);
            let actual = crc32(&self.bytes[e.off..e.off + e.len]);
            if actual == e.crc {
                Ok(())
            } else {
                Err(format!(
                    "section {id} checksum mismatch (stored {:#010x}, computed {actual:#010x})",
                    e.crc
                ))
            }
        });
        match checked {
            Ok(()) => Ok(&self.bytes[e.off..e.off + e.len]),
            Err(msg) => Err(corrupt(msg.clone())),
        }
    }

    /// A zero-copy `Segment<T>` over section `id`, falling back to an
    /// owned copy when the platform cannot reinterpret the bytes (base
    /// misalignment of an owned buffer, big-endian targets, 32-bit
    /// `usize`).
    fn typed_section<T: Pod + FromLeBytes>(&self, id: u32) -> CodResult<Segment<T>> {
        let payload = self.section(id)?;
        let elem = std::mem::size_of::<T>();
        if payload.len() % elem != 0 {
            return Err(corrupt(format!(
                "section {id} length {} is not a multiple of {elem}",
                payload.len()
            )));
        }
        let len = payload.len() / elem;
        #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
        {
            let e = self
                .entries
                .iter()
                .find(|e| e.id == id)
                .unwrap_or_else(|| unreachable!("section() found the entry"));
            if let Ok(seg) = Segment::view(Arc::clone(&self.bytes), e.off, len) {
                return Ok(seg);
            }
            // Owned buffer whose base happens to be misaligned: fall
            // through to the copy path below.
        }
        let mut v = Vec::with_capacity(len);
        for chunk in payload.chunks_exact(elem) {
            v.push(T::from_le_bytes(chunk));
        }
        Ok(v.into())
    }

    /// The attributed graph, materialized (and its sections verified) on
    /// first call.
    pub fn graph(&self) -> CodResult<Arc<AttributedGraph>> {
        slot_get(&self.graph, || self.build_graph())
    }

    fn build_graph(&self) -> CodResult<AttributedGraph> {
        let n = self.num_nodes;
        let offsets: Segment<usize> = self.typed_section(section::CSR_OFFSETS)?;
        let targets: Segment<NodeId> = self.typed_section(section::CSR_TARGETS)?;
        validate_offsets("CSR", &offsets, n, targets.len())?;
        if let Some(&bad) = targets.iter().find(|&&t| t as usize >= n) {
            return Err(corrupt(format!("CSR target {bad} out of range (n = {n})")));
        }
        let csr = Csr::from_segments(offsets, targets);

        let offsets: Segment<usize> = self.typed_section(section::ATTR_OFFSETS)?;
        let values: Segment<u32> = self.typed_section(section::ATTR_VALUES)?;
        validate_offsets("attribute", &offsets, n, values.len())?;
        let attrs = AttrTable::from_segments(offsets, values);

        let names = self.section(section::ATTR_NAMES)?;
        let mut interner = AttrInterner::new();
        let mut pos = 8usize;
        if names.len() < 8 {
            return Err(corrupt("attribute-name section too short for its count"));
        }
        let mut head = [0u8; 8];
        head.copy_from_slice(&names[0..8]);
        let count = u64::from_le_bytes(head);
        for i in 0..count {
            if pos + 4 > names.len() {
                return Err(corrupt(format!("attribute name {i} truncated")));
            }
            let len =
                u32::from_le_bytes([names[pos], names[pos + 1], names[pos + 2], names[pos + 3]])
                    as usize;
            pos += 4;
            if pos + len > names.len() {
                return Err(corrupt(format!("attribute name {i} truncated")));
            }
            let name = std::str::from_utf8(&names[pos..pos + len])
                .map_err(|_| corrupt(format!("attribute name {i} is not UTF-8")))?;
            interner.intern(name);
            pos += len;
        }
        if pos != names.len() {
            return Err(corrupt("trailing bytes after the attribute names"));
        }
        Ok(AttributedGraph::from_parts(csr, attrs, interner))
    }

    /// The base hierarchy `T` plus its LCA index, decoded on first call.
    pub fn hierarchy(&self) -> CodResult<Arc<Hierarchy>> {
        slot_get(&self.hierarchy, || {
            let n = self.num_nodes;
            let payload = self.section(section::DENDRO_MERGES)?;
            if payload.len() != 8 * (n - 1) {
                return Err(corrupt(format!(
                    "merge section is {} bytes but {n} leaves need {}",
                    payload.len(),
                    8 * (n - 1)
                )));
            }
            let mut merges = Vec::with_capacity(n - 1);
            for (i, pair) in payload.chunks_exact(8).enumerate() {
                let a = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
                let b = u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
                let limit = (n + i) as u32;
                if a >= limit || b >= limit {
                    return Err(corrupt(format!("merge {i} references future vertex")));
                }
                merges.push(Merge { a, b });
            }
            let dendro = Dendrogram::try_from_merges(n, &merges)
                .map_err(|e| corrupt(format!("invalid hierarchy: {e}")))?;
            Ok(Hierarchy::new(dendro))
        })
    }

    /// The HIMOR index over zero-copy rank tables, materialized on first
    /// call. Row lengths are validated against the hierarchy's root
    /// paths, so this loads (and caches) the hierarchy too.
    pub fn himor(&self) -> CodResult<Arc<HimorIndex>> {
        slot_get(&self.himor, || {
            let n = self.num_nodes;
            let hier = self.hierarchy()?;
            let offsets: Segment<usize> = self.typed_section(section::HIMOR_OFFSETS)?;
            let values: Segment<u32> = self.typed_section(section::HIMOR_RANKS)?;
            validate_offsets("HIMOR", &offsets, n, values.len())?;
            for v in 0..n {
                let stored = offsets[v + 1] - offsets[v];
                let expected = hier.dendro.root_path(v as NodeId).len();
                if stored != expected {
                    return Err(corrupt(format!(
                        "node {v}: {stored} ranks stored but the path has {expected} communities"
                    )));
                }
            }
            Ok(HimorIndex::from_table(
                RankTable::from_segments(offsets, values),
                self.theta,
            ))
        })
    }
}

/// Shared offset-array validation: length `n + 1`, starts at 0, ends at
/// the value count, non-decreasing.
fn validate_offsets(what: &str, offsets: &[usize], n: usize, values: usize) -> CodResult<()> {
    if offsets.len() != n + 1 {
        return Err(corrupt(format!(
            "{what} offsets have {} entries (expected {})",
            offsets.len(),
            n + 1
        )));
    }
    if offsets[0] != 0 || offsets[n] != values {
        return Err(corrupt(format!(
            "{what} offsets span [{}, {}] but the value section has {values} entries",
            offsets[0], offsets[n]
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt(format!("{what} offsets decrease")));
    }
    Ok(())
}

/// Little-endian decoding for the owned-copy fallback of
/// [`MappedArtifacts::typed_section`].
trait FromLeBytes: Sized {
    fn from_le_bytes(chunk: &[u8]) -> Self;
}

impl FromLeBytes for u32 {
    fn from_le_bytes(chunk: &[u8]) -> Self {
        u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]])
    }
}

impl FromLeBytes for usize {
    fn from_le_bytes(chunk: &[u8]) -> Self {
        u64::from_le_bytes([
            chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
        ]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recluster::build_hierarchy;
    use cod_graph::GraphBuilder;
    use cod_hierarchy::LcaIndex;
    use cod_influence::Model;
    use rand::prelude::*;

    fn setup() -> (AttributedGraph, Dendrogram, HimorIndex) {
        let mut b = GraphBuilder::new(10);
        for v in 1..6u32 {
            b.add_edge(0, v);
        }
        for v in 7..10u32 {
            b.add_edge(6, v);
        }
        b.add_edge(5, 6);
        let csr = b.build();
        let mut interner = AttrInterner::new();
        let db = interner.intern("DB");
        let ml = interner.intern("ML");
        let labels: Vec<u32> = (0..10).map(|v| if v < 6 { db } else { ml }).collect();
        let attrs = AttrTable::single_per_node(&labels);
        let g = AttributedGraph::from_parts(csr, attrs, interner);
        let dendro = build_hierarchy(g.csr());
        let lca = LcaIndex::new(&dendro);
        let mut rng = SmallRng::seed_from_u64(50);
        let par = cod_influence::Parallelism::Threads(1);
        let (model, seed) = (Model::WeightedCascade, rng.next_u64());
        let index = HimorIndex::build(g.csr(), model, &dendro, &lca, 5, seed, par, None).unwrap();
        (g, dendro, index)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (g, dendro, index) = setup();
        let bytes = serialize_artifacts(&g, &dendro, &index).unwrap();
        let arts = MappedArtifacts::from_vec(bytes).unwrap();
        let g2 = arts.graph().unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for v in 0..10u32 {
            assert_eq!(g2.neighbors(v), g.neighbors(v));
            assert_eq!(g2.node_attrs(v), g.node_attrs(v));
        }
        assert_eq!(g2.interner().name(0), Some("DB"));
        assert_eq!(g2.interner().get("ML"), Some(1));
        let h2 = arts.hierarchy().unwrap();
        let i2 = arts.himor().unwrap();
        assert_eq!(i2.theta(), index.theta());
        for v in 0..10u32 {
            assert_eq!(h2.dendro.root_path(v), dendro.root_path(v));
            assert_eq!(i2.ranks_of(v), index.ranks_of(v));
        }
    }

    #[test]
    fn sections_are_aligned() {
        let (g, dendro, index) = setup();
        let bytes = serialize_artifacts(&g, &dendro, &index).unwrap();
        let num = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        assert_eq!(num, 9);
        for i in 0..num {
            let at = 16 + DIR_ENTRY_BYTES * i;
            let off = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
            assert_eq!(off % 8, 0, "section {i} misaligned");
        }
    }

    #[test]
    fn corrupt_section_detected_on_access() {
        let (g, dendro, index) = setup();
        let mut bytes = serialize_artifacts(&g, &dendro, &index).unwrap();
        // Find the HIMOR ranks section and flip a payload bit.
        let num = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let mut target = None;
        for i in 0..num {
            let at = 16 + DIR_ENTRY_BYTES * i;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            if id == section::HIMOR_RANKS {
                let off = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
                target = Some(off);
            }
        }
        bytes[target.unwrap()] ^= 0x01;
        let arts = MappedArtifacts::from_vec(bytes).unwrap();
        // Untouched sections still verify...
        assert!(arts.graph().is_ok());
        assert!(arts.hierarchy().is_ok());
        // ...the corrupted one fails on first access, and stays failed.
        for _ in 0..2 {
            match arts.himor() {
                Err(CodError::IndexCorrupt(m)) => {
                    assert!(m.starts_with("section") && m.contains("checksum"), "{m}")
                }
                other => panic!("expected IndexCorrupt, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn truncation_is_rejected_at_open() {
        let (g, dendro, index) = setup();
        let bytes = serialize_artifacts(&g, &dendro, &index).unwrap();
        for keep in [bytes.len() / 2, 10, 40, bytes.len() - 1] {
            match MappedArtifacts::from_vec(bytes[..keep].to_vec()) {
                Err(CodError::IndexCorrupt(_)) => {}
                other => panic!("truncation to {keep} must fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn mapped_open_serves_zero_copy_views() {
        let (g, dendro, index) = setup();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cod_codx_test_{}.codx", std::process::id()));
        save_artifacts(&path, &g, &dendro, &index).unwrap();
        let arts = MappedArtifacts::open(&path).unwrap();
        assert_eq!(arts.is_mapped(), cfg!(unix));
        let g2 = arts.graph().unwrap();
        for v in 0..10u32 {
            assert_eq!(g2.neighbors(v), g.neighbors(v));
        }
        let i2 = arts.himor().unwrap();
        for v in 0..10u32 {
            assert_eq!(i2.ranks_of(v), index.ranks_of(v));
        }
        drop(arts);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_and_v2_files_are_rejected_by_version() {
        for version in [1u32, 2] {
            // The retired layouts: magic, version, then at least a section
            // length or a leaf count — padded past the v3 header minimum.
            let mut old = Vec::new();
            old.extend_from_slice(MAGIC);
            old.extend_from_slice(&version.to_le_bytes());
            old.extend_from_slice(&[0u8; 32]);
            match MappedArtifacts::from_vec(old) {
                Err(CodError::IndexCorrupt(m)) => {
                    assert!(m.contains(&format!("version {version}")), "{m}")
                }
                other => panic!("v{version}: expected IndexCorrupt, got {other:?}"),
            }
        }
    }
}
