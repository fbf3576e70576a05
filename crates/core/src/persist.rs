//! On-disk persistence for the hierarchy and the HIMOR index.
//!
//! The HIMOR index is built once per graph (Θ = θ·|V| RR graphs, Table II
//! reports minutes on the large datasets) and reused across queries and
//! sessions — so a deployment wants it on disk, and wants to be able to
//! trust what it reads back. No external serialization crate is needed
//! (see `DESIGN.md` §6).
//!
//! # CODX format, version 2
//!
//! All integers are little-endian. The file is a fixed header, two
//! CRC-protected sections, and a total-length footer:
//!
//! ```text
//! header:     magic "CODX" | version u32 = 2
//! hierarchy:  payload_len u64 | payload | crc32 u32
//!             payload = num_leaves u64
//!                     | merges: (a u32, b u32) × (num_leaves - 1)
//! ranks:      payload_len u64 | payload | crc32 u32
//!             payload = theta u64
//!                     | per node: len u32, ranks u32 × len
//! footer:     total_len u64   (must equal the file's byte length)
//! ```
//!
//! Robustness properties:
//!
//! * **Per-section CRC32** (IEEE polynomial, hand-rolled table): any bit
//!   corruption inside a section payload or its checksum is detected.
//! * **Total-length footer**: corruption of a `payload_len` field either
//!   overruns the file (detected by bounds checks) or shifts the footer,
//!   whose value then disagrees with the real file length.
//! * **Bounded pre-allocation**: every declared element count is validated
//!   against the bytes actually remaining before any `Vec` is sized, so a
//!   corrupt count can never request more memory than the file's own size.
//! * **Atomic save**: [`save_index`] writes to a unique temp sibling,
//!   fsyncs, then renames over the target — a crash or write failure
//!   mid-save leaves any previous index file intact.
//! * **v1 compatibility**: files written by older versions (no checksums,
//!   no footer) are still loadable read-only, with the same bounded
//!   pre-allocation and structural validation; [`save_index`] always
//!   writes v2.
//!
//! Every load failure maps to [`CodError::IndexCorrupt`] (untrustworthy
//! bytes) or [`CodError::Io`] (the file could not be read at all) — never
//! a panic.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use cod_hierarchy::{Dendrogram, Merge};

use crate::error::{CodError, CodResult};
use crate::himor::HimorIndex;

const MAGIC: &[u8; 4] = b"CODX";
const VERSION: u32 = 2;
const V1: u32 = 1;
const V3: u32 = crate::codx::CODX_V3;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, polynomial 0xEDB88320), table-driven, no dependencies.
// ---------------------------------------------------------------------------

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = make_crc_table();

/// CRC32 of `bytes` (IEEE; matches zlib's `crc32(0, ...)`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn corrupt(msg: impl Into<String>) -> CodError {
    CodError::IndexCorrupt(msg.into())
}

/// Serializes `dendro` + `index` into a complete CODX v2 byte image.
pub fn serialize_index(dendro: &Dendrogram, index: &HimorIndex) -> CodResult<Vec<u8>> {
    let n = dendro.num_leaves();
    if index.num_nodes() != n {
        return Err(CodError::GraphFormat(format!(
            "index covers {} nodes but the hierarchy has {n} leaves",
            index.num_nodes()
        )));
    }

    let mut hier = Vec::with_capacity(8 + 8 * n.saturating_sub(1));
    hier.extend_from_slice(&(n as u64).to_le_bytes());
    for m in dendro.merges() {
        hier.extend_from_slice(&m.a.to_le_bytes());
        hier.extend_from_slice(&m.b.to_le_bytes());
    }

    let mut ranks = Vec::new();
    ranks.extend_from_slice(&(index.theta() as u64).to_le_bytes());
    for v in 0..n as u32 {
        let row = index.ranks_of(v);
        ranks.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for &r in row {
            ranks.extend_from_slice(&r.to_le_bytes());
        }
    }

    let total = 4 + 4 + (8 + hier.len() + 4) + (8 + ranks.len() + 4) + 8;
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    for section in [&hier, &ranks] {
        out.extend_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(section);
        out.extend_from_slice(&crc32(section).to_le_bytes());
    }
    out.extend_from_slice(&(total as u64).to_le_bytes());
    debug_assert_eq!(out.len(), total);
    Ok(out)
}

/// Streams a CODX v2 image into `w`. Exposed primarily so tests can inject
/// write failures; [`save_index`] is the durable path.
pub fn write_index_to<W: Write>(
    w: &mut W,
    dendro: &Dendrogram,
    index: &HimorIndex,
) -> CodResult<()> {
    let bytes = serialize_index(dendro, index)?;
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Per-process counter making concurrent saves use distinct temp names.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes the hierarchy and its HIMOR index to `path` atomically: the
/// image goes to a unique temp sibling first, is flushed and fsynced, and
/// only then renamed over `path`. A failure at any point leaves a
/// previously existing index file untouched.
pub fn save_index(path: &Path, dendro: &Dendrogram, index: &HimorIndex) -> CodResult<()> {
    let bytes = serialize_index(dendro, index)?;
    write_atomically(path, &bytes)
}

/// Writes the artifacts in the requested CODX version: `3` (the default
/// writer, out-of-core layout with the graph embedded — see
/// [`crate::codx`]) or `2` (compatibility; graph-free, eager-parse). Any
/// other version is rejected up front.
pub fn save_index_versioned(
    path: &Path,
    g: &cod_graph::AttributedGraph,
    dendro: &Dendrogram,
    index: &HimorIndex,
    version: u32,
) -> CodResult<()> {
    match version {
        VERSION => save_index(path, dendro, index),
        V3 => crate::codx::save_artifacts(path, g, dendro, index),
        other => Err(CodError::GraphFormat(format!(
            "cannot write CODX version {other} (supported: {VERSION}, {V3})"
        ))),
    }
}

/// Atomically replaces `path` with `bytes`: unique temp sibling, write,
/// fsync, rename. Shared by the v2 and v3 writers; a failure at any point
/// leaves a previously existing file untouched.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> CodResult<()> {
    let tmp = temp_sibling(path);
    let result = (|| -> CodResult<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        // Best effort: do not leave the partial temp file behind.
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Make the rename itself durable. Failure here does not endanger the
    // data (the rename already happened), so it is best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let seq = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "index".to_string());
    path.with_file_name(format!(".{name}.tmp.{pid}.{seq}"))
}

/// Removes stale atomic-save temp siblings (`.{name}.tmp.{pid}.{seq}`)
/// left in `dir` by processes that crashed between the write and the
/// rename. A temp file is removed only when its embedded pid is not this
/// process *and* provably dead (`/proc/{pid}` absent); anything
/// ambiguous — a live pid, an unparsable name, a platform without procfs —
/// is left alone, so a concurrent save can never lose its in-flight temp.
/// Returns how many files were removed.
pub fn sweep_temp_files(dir: &Path) -> CodResult<usize> {
    let mut removed = 0usize;
    let me = std::process::id();
    let procfs = Path::new("/proc").is_dir();
    for entry in std::fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        // `.{orig}.tmp.{pid}.{seq}` — parse from the right, since `orig`
        // may itself contain dots.
        let Some(stripped) = name.strip_prefix('.') else {
            continue;
        };
        let Some((_orig, rest)) = stripped.split_once(".tmp.") else {
            continue;
        };
        let Some((pid, seq)) = rest.split_once('.') else {
            continue;
        };
        let (Ok(pid), Ok(_seq)) = (pid.parse::<u32>(), seq.parse::<u64>()) else {
            continue;
        };
        if pid == me || !procfs {
            continue;
        }
        if Path::new(&format!("/proc/{pid}")).exists() {
            continue; // owner still alive; its save may be in flight
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over the in-memory file image. Every read is
/// validated against the remaining bytes, so corrupt length fields produce
/// [`CodError::IndexCorrupt`] instead of panics or oversized allocations.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> CodResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(corrupt(format!(
                "truncated while reading {what}: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn read_u32(&mut self, what: &str) -> CodResult<u32> {
        let s = self.take(4, what)?;
        let Ok(arr) = <[u8; 4]>::try_from(s) else {
            unreachable!("take returned exactly 4 bytes")
        };
        Ok(u32::from_le_bytes(arr))
    }

    fn read_u64(&mut self, what: &str) -> CodResult<u64> {
        let s = self.take(8, what)?;
        let Ok(arr) = <[u8; 8]>::try_from(s) else {
            unreachable!("take returned exactly 8 bytes")
        };
        Ok(u64::from_le_bytes(arr))
    }

    /// Validates that a declared element count fits in the bytes left.
    fn check_count(&self, count: u64, elem_bytes: usize, what: &str) -> CodResult<usize> {
        let fits = (self.remaining() / elem_bytes.max(1)) as u64;
        if count > fits {
            return Err(corrupt(format!(
                "{what} declares {count} elements but only {fits} fit in the remaining bytes"
            )));
        }
        Ok(count as usize)
    }
}

/// Reads a hierarchy + HIMOR index pair written by [`save_index`] (v2) or
/// by older releases (v1, read-only).
pub fn load_index(path: &Path) -> CodResult<(Dendrogram, HimorIndex)> {
    let bytes = std::fs::read(path)?;
    load_index_bytes(&bytes)
}

/// Reads a CODX image from an arbitrary reader. Exposed primarily so tests
/// can inject read failures; a failing reader surfaces as [`CodError::Io`],
/// never a panic.
pub fn read_index_from<R: std::io::Read>(r: &mut R) -> CodResult<(Dendrogram, HimorIndex)> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    load_index_bytes(&bytes)
}

/// Parses an in-memory CODX image. Exposed for fault-injection tests.
pub fn load_index_bytes(bytes: &[u8]) -> CodResult<(Dendrogram, HimorIndex)> {
    let mut c = Cursor::new(bytes);
    let magic = c.take(4, "magic")?;
    if magic != MAGIC {
        return Err(corrupt("bad magic; not a COD index file"));
    }
    let version = c.read_u32("version")?;
    match version {
        V1 => parse_body(&mut c, false),
        VERSION => parse_v2(&mut c, bytes.len()),
        // v3 fallback: parse the out-of-core layout eagerly (views into a
        // private owned buffer) and clone out the pair this API promises.
        // Zero-copy v3 serving goes through `codx::MappedArtifacts`.
        V3 => {
            let arts = crate::codx::MappedArtifacts::from_vec(bytes.to_vec())?;
            let hier = arts.hierarchy()?;
            let index = arts.himor()?;
            Ok((hier.dendro.clone(), (*index).clone()))
        }
        other => Err(corrupt(format!(
            "unsupported version {other} (expected {V1}, {VERSION} or {V3})"
        ))),
    }
}

fn parse_v2(c: &mut Cursor<'_>, file_len: usize) -> CodResult<(Dendrogram, HimorIndex)> {
    // The footer must agree with the actual file length before anything
    // else is trusted: it catches corrupted section lengths that would
    // otherwise shift every later field.
    if file_len < 8 {
        return Err(corrupt("file too short for the total-length footer"));
    }
    let Ok(footer) = <[u8; 8]>::try_from(&c.bytes[file_len - 8..]) else {
        unreachable!("slice of a length-8 range")
    };
    let total = u64::from_le_bytes(footer);
    if total != file_len as u64 {
        return Err(corrupt(format!(
            "total-length footer says {total} bytes but the file has {file_len}"
        )));
    }

    let hier = read_section(c, "hierarchy")?;
    let ranks = read_section(c, "ranks")?;

    // Both sections parsed; only the footer may remain.
    if c.remaining() != 8 {
        return Err(corrupt(format!(
            "{} bytes left between the sections and the footer (expected 8)",
            c.remaining()
        )));
    }

    // Re-parse the validated payloads through the shared body reader.
    let mut body = Vec::with_capacity(hier.len() + ranks.len());
    body.extend_from_slice(hier);
    body.extend_from_slice(ranks);
    let mut bc = Cursor::new(&body);
    parse_body(&mut bc, true)
}

/// Reads one `len u64 | payload | crc32 u32` section, verifying both the
/// declared length against the remaining bytes and the checksum.
fn read_section<'a>(c: &mut Cursor<'a>, name: &str) -> CodResult<&'a [u8]> {
    let len = c.read_u64(&format!("{name} section length"))?;
    // The payload must leave room for its own CRC and the footer.
    let avail = c.remaining().saturating_sub(4 + 8);
    if len > avail as u64 {
        return Err(corrupt(format!(
            "{name} section declares {len} bytes but only {avail} are available"
        )));
    }
    let payload = c.take(len as usize, name)?;
    let stored = c.read_u32(&format!("{name} checksum"))?;
    let actual = crc32(payload);
    if stored != actual {
        return Err(corrupt(format!(
            "{name} section checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    Ok(payload)
}

/// Parses `num_leaves | merges | theta | rank rows` — the shared layout of
/// the v1 body and the concatenated v2 section payloads. When `exact` is
/// set, trailing bytes are an error (v2 payload lengths are authoritative).
fn parse_body(c: &mut Cursor<'_>, exact: bool) -> CodResult<(Dendrogram, HimorIndex)> {
    let n64 = c.read_u64("leaf count")?;
    if n64 == 0 {
        return Err(corrupt("empty hierarchy"));
    }
    let n = c.check_count(n64 - 1, 8, "merge list")? + 1;
    let mut merges = Vec::with_capacity(n - 1);
    for i in 0..n - 1 {
        let a = c.read_u32("merge")?;
        let b = c.read_u32("merge")?;
        // Reject absurd ids early with a positional message; the full
        // structural validation happens in try_from_merges below.
        let limit = (n + i) as u32;
        if a >= limit || b >= limit {
            return Err(corrupt(format!("merge {i} references future vertex")));
        }
        merges.push(Merge { a, b });
    }
    let dendro = Dendrogram::try_from_merges(n, &merges)
        .map_err(|e| corrupt(format!("invalid hierarchy: {e}")))?;

    let theta = c.read_u64("theta")? as usize;
    let mut ranks = Vec::with_capacity(n);
    for v in 0..n as u32 {
        let len64 = c.read_u32("rank row length")? as u64;
        let expected = dendro.root_path(v).len();
        if len64 != expected as u64 {
            return Err(corrupt(format!(
                "node {v}: {len64} ranks stored but the path has {expected} communities"
            )));
        }
        let len = c.check_count(len64, 4, "rank row")?;
        let mut row = Vec::with_capacity(len);
        for _ in 0..len {
            row.push(c.read_u32("rank")?);
        }
        ranks.push(row);
    }
    if exact && c.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the rank table",
            c.remaining()
        )));
    }
    Ok((dendro, HimorIndex::from_raw(ranks, theta)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recluster::build_hierarchy;
    use cod_graph::GraphBuilder;
    use cod_hierarchy::{LcaIndex, Linkage};
    use cod_influence::Model;
    use rand::prelude::*;
    use std::path::PathBuf;

    /// Unique-per-test temp path, removed when the guard drops.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let seq = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
            Self(std::env::temp_dir().join(format!(
                "cod_persist_{tag}_{}_{seq}.codx",
                std::process::id()
            )))
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    fn setup() -> (cod_graph::Csr, Dendrogram, HimorIndex) {
        let mut b = GraphBuilder::new(10);
        for v in 1..6u32 {
            b.add_edge(0, v);
        }
        for v in 7..10u32 {
            b.add_edge(6, v);
        }
        b.add_edge(5, 6);
        let g = b.build();
        let dendro = build_hierarchy(&g, Linkage::Average);
        let lca = LcaIndex::new(&dendro);
        let mut rng = SmallRng::seed_from_u64(50);
        let par = cod_influence::Parallelism::Threads(1);
        let (model, seed) = (Model::WeightedCascade, rng.next_u64());
        let index = HimorIndex::build(&g, model, &dendro, &lca, 50, seed, par, None).unwrap();
        (g, dendro, index)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (_, dendro, index) = setup();
        let path = TempPath::new("round_trip");
        save_index(&path.0, &dendro, &index).unwrap();
        let (d2, i2) = load_index(&path.0).unwrap();
        assert_eq!(d2.num_leaves(), dendro.num_leaves());
        assert_eq!(i2.theta(), index.theta());
        for v in 0..10u32 {
            assert_eq!(d2.root_path(v), dendro.root_path(v));
            assert_eq!(i2.ranks_of(v), index.ranks_of(v));
        }
    }

    #[test]
    fn queries_work_after_reload() {
        let (_, dendro, index) = setup();
        let path = TempPath::new("query");
        save_index(&path.0, &dendro, &index).unwrap();
        let (d2, i2) = load_index(&path.0).unwrap();
        assert_eq!(
            i2.largest_top_k(&d2, 0, None, 1),
            index.largest_top_k(&dendro, 0, None, 1)
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let path = TempPath::new("bad_magic");
        std::fs::write(&path.0, b"NOPE....").unwrap();
        match load_index(&path.0) {
            Err(CodError::IndexCorrupt(m)) => assert!(m.contains("magic")),
            other => panic!("expected IndexCorrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn rejects_truncated_file() {
        let (_, dendro, index) = setup();
        let path = TempPath::new("trunc");
        save_index(&path.0, &dendro, &index).unwrap();
        let bytes = std::fs::read(&path.0).unwrap();
        for keep in [bytes.len() / 2, 3, 11, bytes.len() - 1] {
            std::fs::write(&path.0, &bytes[..keep]).unwrap();
            assert!(
                matches!(load_index(&path.0), Err(CodError::IndexCorrupt(_))),
                "truncation to {keep} bytes must be IndexCorrupt"
            );
        }
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let path = TempPath::new("missing");
        assert!(matches!(load_index(&path.0), Err(CodError::Io(_))));
    }

    #[test]
    fn detects_payload_corruption_via_checksum() {
        let (_, dendro, index) = setup();
        let mut bytes = serialize_index(&dendro, &index).unwrap();
        // Flip one bit inside the hierarchy payload (after magic, version
        // and the section length).
        bytes[20] ^= 0x01;
        match load_index_bytes(&bytes) {
            Err(CodError::IndexCorrupt(m)) => {
                assert!(m.contains("checksum") || m.contains("future vertex"), "{m}")
            }
            other => panic!("expected IndexCorrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn detects_footer_mismatch() {
        let (_, dendro, index) = setup();
        let mut bytes = serialize_index(&dendro, &index).unwrap();
        let extra = bytes.len();
        bytes.push(0); // appended garbage shifts the real length
        match load_index_bytes(&bytes) {
            Err(CodError::IndexCorrupt(m)) => assert!(m.contains("footer"), "{m}"),
            other => panic!(
                "expected IndexCorrupt, got {:?} (len {extra})",
                other.map(|_| ())
            ),
        }
    }

    #[test]
    fn huge_declared_counts_error_instead_of_allocating() {
        // A v1-style header that declares u64::MAX leaves must fail fast.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        match load_index_bytes(&bytes) {
            Err(CodError::IndexCorrupt(m)) => assert!(m.contains("elements"), "{m}"),
            other => panic!("expected IndexCorrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn v1_files_remain_loadable() {
        let (_, dendro, index) = setup();
        // Hand-write the v1 layout (what the previous release produced).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        let n = dendro.num_leaves();
        bytes.extend_from_slice(&(n as u64).to_le_bytes());
        for m in dendro.merges() {
            bytes.extend_from_slice(&m.a.to_le_bytes());
            bytes.extend_from_slice(&m.b.to_le_bytes());
        }
        bytes.extend_from_slice(&(index.theta() as u64).to_le_bytes());
        for v in 0..n as u32 {
            let row = index.ranks_of(v);
            bytes.extend_from_slice(&(row.len() as u32).to_le_bytes());
            for &r in row {
                bytes.extend_from_slice(&r.to_le_bytes());
            }
        }
        let (d2, i2) = load_index_bytes(&bytes).unwrap();
        assert_eq!(d2.num_leaves(), n);
        for v in 0..n as u32 {
            assert_eq!(i2.ranks_of(v), index.ranks_of(v));
        }
    }

    #[test]
    fn failed_save_leaves_previous_index_intact() {
        let (_, dendro, index) = setup();
        let dir_guard = TempPath::new("atomic_dir");
        let dir = &dir_guard.0;
        std::fs::create_dir_all(dir).unwrap();
        // A target name just under NAME_MAX: creating the target works, but
        // the longer temp-sibling name cannot be created, so the save fails
        // *before* touching the target — even when running as root, which
        // ignores directory permission bits.
        let target = dir.join(format!("{}.codx", "x".repeat(245)));
        let original = serialize_index(&dendro, &index).unwrap();
        std::fs::write(&target, &original).unwrap();

        let result = save_index(&target, &dendro, &index);
        assert!(matches!(result, Err(CodError::Io(_))), "{result:?}");
        assert_eq!(
            std::fs::read(&target).unwrap(),
            original,
            "target untouched"
        );
        assert!(load_index(&target).is_ok());
        // No stray temp files either.
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_file(&target).ok();
        std::fs::remove_dir(dir).ok();
    }
}
