//! Fault-injection tests for the persistence layer.
//!
//! Three attack surfaces, per the robustness contract in
//! `cod_core::persist`:
//!
//! 1. **Write failures** — a writer that errors after N bytes must surface
//!    as `CodError::Io`, and an interrupted [`save_index`] must never leave
//!    a half-written file where a previous index existed.
//! 2. **Read failures** — a reader that errors after N bytes must surface
//!    as `CodError::Io`.
//! 3. **Bit rot** — *every* single-byte corruption of a saved image must
//!    yield `Err(CodError::IndexCorrupt)`: never a panic, never an
//!    oversized allocation, never a silently wrong index.

use std::io::{Read, Write};

use pcod::cod::persist::{
    load_index, load_index_bytes, read_index_from, save_index, serialize_index, write_index_to,
};
use pcod::cod::recluster::build_hierarchy;
use pcod::prelude::*;
use rand::prelude::*;

/// A writer that fails with `ErrorKind::Other` once `limit` bytes passed.
struct FailingWriter {
    written: usize,
    limit: usize,
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let room = self.limit.saturating_sub(self.written);
        if room == 0 {
            return Err(std::io::Error::other("injected write failure"));
        }
        let n = buf.len().min(room);
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A reader that fails with `ErrorKind::Other` once `limit` bytes passed.
struct FailingReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    limit: usize,
}

impl Read for FailingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.limit {
            return Err(std::io::Error::other("injected read failure"));
        }
        let end = self.bytes.len().min(self.limit);
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A small but structurally interesting index: two communities of unequal
/// size joined by a bridge.
fn small_index() -> (Dendrogram, HimorIndex) {
    let mut b = GraphBuilder::new(12);
    for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)] {
        b.add_edge(u, v);
    }
    b.add_edge(2, 3);
    for v in 7..12 {
        b.add_edge(6, v);
    }
    let g = b.build();
    let dendro = build_hierarchy(&g, Linkage::Average);
    let lca = LcaIndex::new(&dendro);
    let mut rng = SmallRng::seed_from_u64(77);
    let (seed, par) = (rng.next_u64(), Parallelism::Threads(1));
    let index = HimorIndex::build(
        &g,
        Model::WeightedCascade,
        &dendro,
        &lca,
        20,
        seed,
        par,
        None,
    )
    .unwrap();
    (dendro, index)
}

#[test]
fn write_failure_at_every_byte_boundary_is_an_io_error() {
    let (dendro, index) = small_index();
    let image = serialize_index(&dendro, &index).unwrap();
    // Fail at byte 0, mid-header, mid-payload, and one short of complete.
    for limit in [0, 1, 7, image.len() / 2, image.len() - 1] {
        let mut w = FailingWriter { written: 0, limit };
        let err = write_index_to(&mut w, &dendro, &index)
            .expect_err("truncated write must not report success");
        assert!(
            matches!(err, CodError::Io(_)),
            "limit {limit}: expected Io, got {err}"
        );
    }
    // Sanity: an unbounded writer succeeds.
    let mut w = FailingWriter {
        written: 0,
        limit: usize::MAX,
    };
    write_index_to(&mut w, &dendro, &index).unwrap();
    assert_eq!(w.written, image.len());
}

#[test]
fn read_failure_at_every_byte_boundary_is_an_io_error() {
    let (dendro, index) = small_index();
    let image = serialize_index(&dendro, &index).unwrap();
    for limit in [0, 3, 11, image.len() / 2, image.len() - 1] {
        let mut r = FailingReader {
            bytes: &image,
            pos: 0,
            limit,
        };
        let err = read_index_from(&mut r).expect_err("truncated read must not report success");
        assert!(
            matches!(err, CodError::Io(_)),
            "limit {limit}: expected Io, got {err}"
        );
    }
    let mut r = FailingReader {
        bytes: &image,
        pos: 0,
        limit: usize::MAX,
    };
    let (d2, i2) = read_index_from(&mut r).unwrap();
    assert_eq!(d2.num_leaves(), dendro.num_leaves());
    assert_eq!(i2.theta(), index.theta());
}

#[test]
fn every_single_byte_flip_is_detected_as_corruption() {
    let (dendro, index) = small_index();
    let image = serialize_index(&dendro, &index).unwrap();
    // Deterministic exhaustive fuzz: flip the low bit and all bits of every
    // byte. Each mutant must fail with IndexCorrupt — no panic (the test
    // process would abort), no success, and bounded allocation throughout
    // (corrupt length fields are checked against the image size before any
    // reservation).
    let mut checked = 0usize;
    for pos in 0..image.len() {
        for delta in [0x01u8, 0xFF] {
            let mut mutant = image.clone();
            mutant[pos] ^= delta;
            match load_index_bytes(&mutant) {
                Err(CodError::IndexCorrupt(_)) => checked += 1,
                Err(other) => panic!("byte {pos} ^ {delta:#04x}: wrong error class: {other}"),
                Ok(_) => panic!("byte {pos} ^ {delta:#04x}: corruption went undetected"),
            }
        }
    }
    assert_eq!(checked, image.len() * 2);
}

#[test]
fn every_truncation_is_detected_as_corruption() {
    let (dendro, index) = small_index();
    let image = serialize_index(&dendro, &index).unwrap();
    for len in 0..image.len() {
        match load_index_bytes(&image[..len]) {
            Err(CodError::IndexCorrupt(_)) => {}
            Err(other) => panic!("prefix of {len}: wrong error class: {other}"),
            Ok(_) => panic!("prefix of {len} accepted"),
        }
    }
}

#[test]
fn interrupted_save_never_clobbers_the_previous_index() {
    let (dendro, index) = small_index();
    // A target whose *temp sibling* exceeds NAME_MAX: creating the temp
    // file fails deterministically (works even as root, unlike permission
    // tricks), modelling a failure before any byte reaches the target.
    let dir = std::env::temp_dir().join(format!("cod_fault_atomic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join(format!("{}.codx", "x".repeat(245)));

    // Seed the previous index directly (save_index would hit the same
    // injected failure).
    let image = serialize_index(&dendro, &index).unwrap();
    std::fs::write(&target, &image).unwrap();

    let err = save_index(&target, &dendro, &index).expect_err("temp creation must fail");
    assert!(matches!(err, CodError::Io(_)), "expected Io, got {err}");

    // The previous index is byte-identical and still loads.
    assert_eq!(std::fs::read(&target).unwrap(), image);
    let (d2, i2) = load_index(&target).unwrap();
    assert_eq!(d2.num_leaves(), dendro.num_leaves());
    assert_eq!(i2.num_nodes(), index.num_nodes());

    // No temp debris left behind.
    let debris: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(debris.is_empty(), "leftover temp files: {debris:?}");

    std::fs::remove_file(&target).ok();
    std::fs::remove_dir(&dir).ok();
}
