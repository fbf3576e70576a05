//! Byte-level persistence primitives shared by every on-disk format: CODX
//! v3 artifacts ([`crate::codx`]), the CODW write-ahead log
//! ([`crate::wal`]) and the CODF manifest ([`crate::recovery`]).
//!
//! * [`crc32`] — the IEEE CRC32 (hand-rolled table, no dependencies; see
//!   `DESIGN.md` §6) that guards every section and record;
//! * `write_atomically` — the crash-safe save: write a unique temp
//!   sibling, fsync, rename over the target. A failure at any point leaves
//!   a previously existing file untouched;
//! * [`sweep_temp_files`] — garbage collection of the temp siblings a
//!   crash between write and rename leaves behind.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::CodResult;

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
// Atomic save
// ---------------------------------------------------------------------------

/// Per-process counter making concurrent saves use distinct temp names.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces `path` with `bytes`: unique temp sibling, write,
/// fsync, rename. A failure at any point leaves a previously existing file
/// untouched.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CodError;

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
    fn failed_save_leaves_previous_file_intact() {
        let seq = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cod_persist_atomic_{}_{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A target name just under NAME_MAX: creating the target works, but
        // the longer temp-sibling name cannot be created, so the save fails
        // *before* touching the target — even when running as root, which
        // ignores directory permission bits.
        let target = dir.join(format!("{}.codx", "x".repeat(245)));
        let original = b"previous contents".to_vec();
        std::fs::write(&target, &original).unwrap();

        let result = write_atomically(&target, b"replacement");
        assert!(matches!(result, Err(CodError::Io(_))), "{result:?}");
        assert_eq!(
            std::fs::read(&target).unwrap(),
            original,
            "target untouched"
        );
        // No stray temp files either.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
