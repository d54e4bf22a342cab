//! Persistent `.pmlsh` index snapshots.
//!
//! This crate defines a versioned, little-endian on-disk format for a set
//! of fully built [`PmLsh`] shards — per shard the projection matrix, raw
//! point store, projected point column and its external ids, and the
//! principal subspace where the index keeps one — so a serving
//! process can restart and answer queries *bit-identically* to the index it
//! saved, without re-deriving hashes or re-projecting a row. A snapshot is one
//! file at every shard count; a plain index is the one-shard case. Every
//! section carries a CRC-32 and the file as a whole carries one more, so
//! torn writes and bit rot are detected at load time instead of surfacing
//! as wrong answers.
//!
//! # File layout (format version 7)
//!
//! ```text
//! magic      8 bytes   b"PMLSHSNP"
//! version    u32 LE    7
//! shards     u32 LE    S >= 1
//! section ×7 per shard fixed order: HEADER, PROJ, DATA, POINTS, IDMAPS,
//!                      ECDF, SUBSPACE; shards in id order
//! file crc   u32 LE    CRC-32 of every preceding byte
//! ```
//!
//! Each section is `id: u32 | payload_len: u64 | payload | crc32(payload):
//! u32`, all little-endian. The full byte layout of each payload is
//! documented in [`mod@format`]. The layout is fixed-offset within each section,
//! so a future version can memory-map the large arrays in place. Formats 1
//! (node entries packed field by field), 2 (one index, no shard count),
//! 3 (projected points inside the leaf blocks), 4 (the PM-tree's pivots
//! and node blocks beside its column), 5 (no pivot ring) and 6 (a pivot
//! ring where format 7 keeps a principal subspace) are refused with
//! [`PersistError::UnsupportedVersion`].
//!
//! # What round-trips, what is recomputed
//!
//! Stored: user parameters, the Gaussian projection matrix, the raw dataset
//! (including tombstoned rows — external ids are stable row indexes), the
//! projected point column the index sweeps with its external ids, the
//! sampled distance distribution, and the principal subspace: its mean,
//! basis, norm bounds and coordinate table (fitting and projecting again
//! would cost a Bench Trevi load several tenths of a second). Recomputed at load: the Eq. 10 derived
//! parameters, a deterministic function of the stored ones (`r_min` is
//! computed per query from the stored distribution), and the id map,
//! the external ids inverted — which is what makes
//! save→load→query parity *bitwise*, down to the `QueryStats` counters.
//!
//! # Example
//!
//! ```no_run
//! # fn demo(index: pm_lsh_core::PmLsh) -> Result<(), pm_lsh_persist::PersistError> {
//! let report = pm_lsh_persist::save(&index, "audio.pmlsh")?;
//! println!("wrote {} bytes", report.bytes);
//! let restored = pm_lsh_persist::load("audio.pmlsh")?;
//! # let _ = restored; Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Parsing and assembly are entirely safe code; the single exception is the
// runtime-detected PCLMULQDQ checksum kernel in `crc`, which opts back in
// with a scoped `allow` the way the SIMD kernels in `pm-lsh-metric` do.
#![deny(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::io::BufWriter;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use pm_lsh_core::PmLsh;

pub mod crc;
pub mod format;

pub use crc::{crc32, Crc32};
pub use format::{
    deserialize, deserialize_shards, serialize, serialize_shards, FORMAT_VERSION, MAGIC,
};

/// Why a `.pmlsh` snapshot could not be saved or loaded.
///
/// Every malformed input maps to a typed error — a corrupt file must never
/// panic the loader, whether it arrives via [`load`] or over the wire
/// through `ATTACH`.
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

/// What [`save_shards`] wrote.
#[derive(Clone, Copy, Debug)]
pub struct SaveReport {
    /// Total size of the snapshot file in bytes.
    pub bytes: u64,
    /// Number of live (queryable) points across the saved shards.
    pub points: u64,
}

/// Serializes `index` and atomically writes it to `path` as a one-shard
/// snapshot (see [`save_shards`]).
pub fn save(index: &PmLsh, path: impl AsRef<Path>) -> Result<SaveReport, PersistError> {
    save_shards(&[index], path)
}

/// Serializes a shard set, in id order, and atomically writes it to `path`.
///
/// The image streams through a buffered writer a chunk at a time (see
/// [`mod@format`]), so a save never holds it whole. It is first written
/// to a `.tmp.<pid>.<n>` sibling, `n` unique
/// to this save within the process, and then renamed into place, so a
/// crash or failure mid-save never leaves a half-written file — or half of
/// a shard set — under the target name, and concurrent saves to one path
/// never share a temp file. The caller holds only shared references:
/// saving pinned `Arc<PmLsh>` snapshots never blocks concurrent readers.
///
/// # Panics
/// Panics when `shards` is empty — an index set cannot be empty.
pub fn save_shards(
    shards: &[impl Borrow<PmLsh>],
    path: impl AsRef<Path>,
) -> Result<SaveReport, PersistError> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    assert!(!shards.is_empty(), "cannot save zero shards");
    let path = path.as_ref();
    let tmp = {
        let mut name = path.as_os_str().to_os_string();
        let n = SAVES.fetch_add(1, Ordering::Relaxed);
        name.push(format!(".tmp.{}.{n}", std::process::id()));
        std::path::PathBuf::from(name)
    };
    let result = (|| {
        let mut file = BufWriter::new(std::fs::File::create(&tmp)?);
        let bytes = format::write_shards(&mut file, shards)?;
        file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(bytes)
    })();
    let bytes = result.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        PersistError::Io(e)
    })?;
    Ok(SaveReport {
        bytes,
        points: shards.iter().map(|s| s.borrow().len() as u64).sum(),
    })
}

/// Reads a one-shard `.pmlsh` snapshot from `path` and reassembles the
/// index (see [`deserialize`]).
pub fn load(path: impl AsRef<Path>) -> Result<PmLsh, PersistError> {
    format::one_index(load_shards(path)?)
}

/// Reads a `.pmlsh` snapshot of any shard count from `path` and
/// reassembles its shards, in id order.
///
/// The reader is [`deserialize_shards`]'s, run over the file a chunk at a
/// time (see [`mod@format`]): the image is never held whole. The file's
/// length is taken from its metadata when it is opened.
pub fn load_shards(path: impl AsRef<Path>) -> Result<Vec<PmLsh>, PersistError> {
    let file = std::fs::File::open(path)?;
    let total = file.metadata()?.len();
    format::read_shards(file, total)
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
