//! Persistent `.pmlsh` index snapshots.
//!
//! This crate defines a versioned, little-endian on-disk format for a fully
//! built [`PmLsh`] index — projection matrix, raw point store, PM-tree node
//! blocks and id maps — so a serving process can restart and answer queries
//! *bit-identically* to the index it saved, without re-deriving hashes or
//! rebuilding the tree. Every section carries a CRC-32 and the file as a
//! whole carries one more, so torn writes and bit rot are detected at load
//! time instead of surfacing as wrong answers.
//!
//! # File layout (format version 2)
//!
//! ```text
//! magic      8 bytes   b"PMLSHSNP"
//! version    u32 LE    2
//! section ×7           fixed order: HEADER, PROJ, DATA, PIVOTS, NODES,
//!                      IDMAPS, ECDF
//! file crc   u32 LE    CRC-32 of every preceding byte
//! ```
//!
//! Each section is `id: u32 | payload_len: u64 | payload | crc32(payload):
//! u32`, all little-endian. The full byte layout of each payload is
//! documented in [`mod@format`]. The layout is fixed-offset within each section,
//! so a future version can memory-map the large arrays in place. Format 1
//! (projected points in a section of their own) is refused with
//! [`PersistError::UnsupportedVersion`].
//!
//! # What round-trips, what is recomputed
//!
//! Stored: user parameters, the Gaussian projection matrix, the raw dataset
//! (including tombstoned rows — external ids are stable row indexes), the
//! free-list-compacted PM-tree — its node blocks as they are, projected
//! points inline in the leaves — and the sampled distance distribution. Recomputed at load: the Eq. 10 derived parameters,
//! a deterministic function of the stored ones (`r_min` is computed per
//! query from the stored distribution) — which is what makes
//! save→load→query parity *bitwise*, down to the `QueryStats` counters.
//!
//! # Example
//!
//! ```no_run
//! use pm_lsh_persist::Snapshot;
//!
//! # fn demo(index: pm_lsh_core::PmLsh) -> Result<(), pm_lsh_persist::PersistError> {
//! let report = index.save("audio.pmlsh")?;
//! println!("wrote {} bytes", report.bytes);
//! let restored = pm_lsh_core::PmLsh::load("audio.pmlsh")?;
//! # let _ = restored; Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Parsing and assembly are entirely safe code; the single exception is the
// runtime-detected PCLMULQDQ checksum kernel in `crc`, which opts back in
// with a scoped `allow` the way the SIMD kernels in `pm-lsh-metric` do.
#![deny(unsafe_code)]

use std::fmt;
use std::io::Write as _;
use std::path::Path;

use pm_lsh_core::PmLsh;

pub mod crc;
pub mod format;
pub mod manifest;

pub use crc::{crc32, Crc32};
pub use format::{deserialize, serialize, FORMAT_VERSION, MAGIC};
pub use manifest::{
    is_manifest_file, load_sharded, save_sharded, MANIFEST_MAGIC, MANIFEST_VERSION,
};

/// Why a `.pmlsh` snapshot could not be saved or loaded.
///
/// Every malformed input maps to a typed error — a corrupt file must never
/// panic the loader, whether it arrives via [`PmLsh::load`](Snapshot::load)
/// or over the wire through `ATTACH`.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the `.pmlsh` magic bytes.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The file ends before the declared structure does.
    Truncated,
    /// A section's payload does not match its stored CRC-32.
    SectionCrc {
        /// Id of the failing section (see the [`mod@format`] module docs).
        section: u32,
    },
    /// The whole-file CRC-32 does not match the file contents.
    FileCrc,
    /// The file is structurally well-formed but internally inconsistent.
    Corrupt(String),
    /// The snapshot declares zero points; an index cannot be empty.
    EmptyIndex,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a .pmlsh snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            PersistError::Truncated => write!(f, "snapshot is truncated"),
            PersistError::SectionCrc { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            PersistError::FileCrc => write!(f, "whole-file checksum mismatch"),
            PersistError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            PersistError::EmptyIndex => write!(f, "snapshot contains no points"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// What [`save`] wrote.
#[derive(Clone, Copy, Debug)]
pub struct SaveReport {
    /// Total size of the snapshot file in bytes.
    pub bytes: u64,
    /// Number of live (queryable) points in the saved index.
    pub points: u64,
}

/// Serializes `index` and atomically writes it to `path`.
///
/// The snapshot is first written to a `.tmp.<pid>` sibling and then renamed
/// into place, so a crash mid-save never leaves a half-written file under
/// the target name. The caller holds only a shared reference: saving a
/// pinned `Arc<PmLsh>` snapshot never blocks concurrent readers.
pub fn save(index: &PmLsh, path: impl AsRef<Path>) -> Result<SaveReport, PersistError> {
    let path = path.as_ref();
    let bytes = serialize(index);
    let tmp = {
        let mut name = path.as_os_str().to_os_string();
        name.push(format!(".tmp.{}", std::process::id()));
        std::path::PathBuf::from(name)
    };
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(PersistError::Io(e));
    }
    Ok(SaveReport {
        bytes: bytes.len() as u64,
        points: index.len() as u64,
    })
}

/// Reads a `.pmlsh` snapshot from `path` and reassembles the index.
pub fn load(path: impl AsRef<Path>) -> Result<PmLsh, PersistError> {
    let bytes = std::fs::read(path)?;
    deserialize(&bytes)
}

/// `true` if `path` starts with the `.pmlsh` magic bytes.
///
/// Only sniffs the first 8 bytes — cheap enough to auto-detect snapshot
/// files next to fvecs/csv inputs. I/O errors and short files report
/// `false`.
pub fn is_pmlsh_file(path: impl AsRef<Path>) -> bool {
    use std::io::Read as _;
    let mut head = [0u8; 8];
    match std::fs::File::open(path) {
        Ok(mut f) => f.read_exact(&mut head).is_ok() && head == MAGIC,
        Err(_) => false,
    }
}

/// Method-syntax access to snapshot save/load: `index.save(path)` and
/// `PmLsh::load(path)`.
pub trait Snapshot: Sized {
    /// Atomically writes a `.pmlsh` snapshot of `self` to `path`.
    fn save(&self, path: impl AsRef<Path>) -> Result<SaveReport, PersistError>;
    /// Loads a `.pmlsh` snapshot from `path`.
    fn load(path: impl AsRef<Path>) -> Result<Self, PersistError>;
}

impl Snapshot for PmLsh {
    fn save(&self, path: impl AsRef<Path>) -> Result<SaveReport, PersistError> {
        save(self, path)
    }

    fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        load(path)
    }
}
