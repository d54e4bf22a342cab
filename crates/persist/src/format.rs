//! The `.pmlsh` byte format: [`serialize_shards`] and [`deserialize_shards`],
//! with [`serialize`] and [`deserialize`] their one-shard case.
//!
//! Everything is little-endian. The file is `MAGIC | version u32 | shards
//! u32 | shards × six sections | whole-file crc32 u32`: one run of six
//! sections per shard, in shard (= id) order, each section being `id u32 |
//! payload_len u64 | payload | crc32(payload) u32`. A shard's sections
//! appear in this fixed order:
//!
//! | id | name        | payload                                                        |
//! |----|-------------|----------------------------------------------------------------|
//! | 1  | HEADER      | dimensions, counts and build parameters (see below)            |
//! | 2  | PROJ        | Gaussian projection matrix, `m·d` f32 row-major                |
//! | 3  | DATA        | raw point store, `n_rows·d` f32 (tombstoned rows included)     |
//! | 4  | POINTS      | the projected column, `live·m` f32 in internal-row order       |
//! | 5  | IDMAPS      | `live` external ids (u32), in internal-row order               |
//! | 6  | ECDF        | sampled distance distribution, `ecdf_len` f64 ascending        |
//!
//! HEADER payload, in order: `d u64, n_rows u64, m u32, s u32, live u64,
//! c f64, alpha1 f64, beta_flag u8, beta f64, rmin_shrink f64,
//! capacity u64, pivot_sample u64, distance_samples u64, seed u64,
//! ecdf_len u64`. `s`, `capacity` and `pivot_sample` are the index's
//! PM-tree parameters ([`PmLshParams::tree`]), stored so that they
//! round-trip; the served index is a column ([`PmTreeParts`]) and has no
//! pivot or node to store.
//!
//! The shards of one file must agree on `d`, `m`, `c` and β; a set that
//! does not is [`PersistError::Corrupt`].
//!
//! # One pass
//!
//! [`serialize_shards`] and [`deserialize_shards`] run the one writer and
//! the one reader over memory; `save_shards` and `load_shards` run the same
//! two over a file. Both stream a bounded chunk at a time, so neither holds
//! the image: every byte is checksummed once, while it is in cache, into
//! the CRC of its piece (a section's payload, or the framing between two
//! payloads), and `crc32_combine` folds the pieces' CRCs into the
//! whole-file CRC. The reader decodes each payload straight into the vector
//! the index keeps, after checking its length against the header and
//! against the bytes left, so nothing is allocated for a length the file
//! cannot back.
//!
//! The reader reports what a read of the whole image before any parse
//! would. Magic and version fail at once. Every later error is held while
//! the rest of the input is checksummed, and a whole-file CRC mismatch is
//! reported in its place. Within a shard, all six sections pass their
//! CRCs before a header or payload error is reported.

use std::borrow::Borrow;
use std::io::{self, Read, Write};
use std::sync::Arc;

use pm_lsh_core::{PmLsh, PmLshParams};
use pm_lsh_hash::GaussianProjector;
use pm_lsh_metric::Dataset;
use pm_lsh_pmtree::{PmTree, PmTreeConfig, PmTreeParts};
use pm_lsh_stats::{chi2_cdf, chi2_upper_quantile, Ecdf};

use crate::crc::{crc32_combine, Crc32};
use crate::PersistError;

/// First 8 bytes of every `.pmlsh` file.
pub const MAGIC: [u8; 8] = *b"PMLSHSNP";

/// The snapshot format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 5;

const SEC_HEADER: u32 = 1;
const SEC_PROJ: u32 = 2;
const SEC_DATA: u32 = 3;
const SEC_POINTS: u32 = 4;
const SEC_IDMAPS: u32 = 5;
const SEC_ECDF: u32 = 6;

/// Bytes of the HEADER payload.
const HEADER_LEN: usize = 105;

/// Bytes a reader pulls from its source per read, and a writer encodes per
/// write: large enough that a read call's cost vanishes, small enough that
/// the chunk is still in cache when it is checksummed and decoded.
const CHUNK: usize = 1 << 20;

/// The whole-file CRC, folded from the CRCs of its consecutive pieces.
#[derive(Default)]
struct Fold {
    piece: Crc32,
    piece_len: u64,
    file: u32,
}

impl Fold {
    fn update(&mut self, bytes: &[u8]) {
        self.piece.update(bytes);
        self.piece_len += bytes.len() as u64;
    }

    /// Ends the current piece: folds its CRC into the file's and returns it.
    fn cut(&mut self) -> u32 {
        let crc = std::mem::take(&mut self.piece).finish();
        self.file = crc32_combine(self.file, crc, self.piece_len);
        self.piece_len = 0;
        crc
    }

    /// The CRC of every byte so far.
    fn finish(mut self) -> u32 {
        self.cut();
        self.file
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The one writer: every byte goes out once, checksummed on the way.
struct Writer<W> {
    out: W,
    fold: Fold,
}

impl<W: Write> Writer<W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.fold.update(bytes);
        self.out.write_all(bytes)
    }

    /// Writes `values` little-endian, a chunk at a time.
    fn put_all<T: Copy, const N: usize>(
        &mut self,
        values: &[T],
        to_le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        let mut encoded = Vec::new();
        for chunk in values.chunks(CHUNK / N) {
            encoded.resize(chunk.len() * N, 0);
            for (out, &v) in encoded.chunks_exact_mut(N).zip(chunk) {
                out.copy_from_slice(&to_le(v));
            }
            self.put(&encoded)?;
        }
        Ok(())
    }

    /// Writes one section whose `payload` writes exactly `len` bytes.
    fn section(
        &mut self,
        id: u32,
        len: u64,
        payload: impl FnOnce(&mut Self) -> io::Result<()>,
    ) -> io::Result<()> {
        self.put(&id.to_le_bytes())?;
        self.put(&len.to_le_bytes())?;
        self.fold.cut();
        payload(self)?;
        assert_eq!(self.fold.piece_len, len, "section {id} length");
        let crc = self.fold.cut();
        self.put(&crc.to_le_bytes())
    }
}

/// The payload lengths of one index's six sections, in file order.
fn payload_lens(index: &PmLsh) -> [u64; 6] {
    let (d, m) = (index.data().dim() as u64, index.params().m as u64);
    let live = index.tree().len() as u64;
    let ecdf = index.distance_distribution().len() as u64;
    [
        HEADER_LEN as u64,
        m * d * 4,
        index.data().len() as u64 * d * 4,
        live * m * 4,
        live * 4,
        ecdf * 8,
    ]
}

/// The size of a shard set's image, in bytes.
fn image_len(shards: &[impl Borrow<PmLsh>]) -> u64 {
    let frames = 6 * 16;
    let sections: u64 = (shards.iter())
        .map(|s| frames + payload_lens(s.borrow()).iter().sum::<u64>())
        .sum();
    16 + sections + 4
}

/// The HEADER payload.
fn header(index: &PmLsh) -> Vec<u8> {
    let params = index.params();
    let mut h = Vec::with_capacity(HEADER_LEN);
    put_u64(&mut h, index.data().dim() as u64);
    put_u64(&mut h, index.data().len() as u64);
    put_u32(&mut h, params.m);
    put_u32(&mut h, params.tree.num_pivots as u32);
    put_u64(&mut h, index.tree().len() as u64);
    put_f64(&mut h, params.c);
    put_f64(&mut h, params.alpha1);
    h.push(params.beta_override.is_some() as u8);
    put_f64(&mut h, params.beta_override.unwrap_or(0.0));
    put_f64(&mut h, params.rmin_shrink);
    put_u64(&mut h, params.tree.capacity as u64);
    put_u64(&mut h, params.tree.pivot_sample as u64);
    put_u64(&mut h, params.distance_samples as u64);
    put_u64(&mut h, params.seed);
    put_u64(&mut h, index.distance_distribution().len() as u64);
    h
}

/// Writes one index's six sections.
fn put_index<W: Write>(w: &mut Writer<W>, index: &PmLsh) -> io::Result<()> {
    let parts = index.tree().to_parts();
    let [header_len, proj, data, points, idmaps, ecdf] = payload_lens(index);
    w.section(SEC_HEADER, header_len, |w| w.put(&header(index)))?;
    w.section(SEC_PROJ, proj, |w| {
        w.put_all(index.projector().coeffs_flat(), f32::to_le_bytes)
    })?;
    // The base's rows, then each tail chunk's: every row in id order.
    w.section(SEC_DATA, data, |w| {
        (index.data().runs()).try_for_each(|run| w.put_all(run, f32::to_le_bytes))
    })?;
    w.section(SEC_POINTS, points, |w| {
        w.put_all(&parts.points, f32::to_le_bytes)
    })?;
    w.section(SEC_IDMAPS, idmaps, |w| {
        w.put_all(&parts.externals, u32::to_le_bytes)
    })?;
    w.section(SEC_ECDF, ecdf, |w| {
        let samples = index.distance_distribution().sorted_samples();
        w.put_all(samples, f64::to_le_bytes)
    })
}

/// Writes a shard set's image to `out`; returns its size in bytes.
///
/// # Panics
/// Panics when `shards` is empty — an index set cannot be empty.
pub(crate) fn write_shards<W: Write>(out: W, shards: &[impl Borrow<PmLsh>]) -> io::Result<u64> {
    assert!(!shards.is_empty(), "cannot serialize zero shards");
    let mut w = Writer {
        out,
        fold: Fold::default(),
    };
    w.put(&MAGIC)?;
    w.put(&FORMAT_VERSION.to_le_bytes())?;
    w.put(&(shards.len() as u32).to_le_bytes())?;
    for shard in shards {
        put_index(&mut w, shard.borrow())?;
    }
    let file_crc = w.fold.finish();
    w.out.write_all(&file_crc.to_le_bytes())?;
    Ok(image_len(shards))
}

/// Serializes `index` into an in-memory one-shard `.pmlsh` image.
pub fn serialize(index: &PmLsh) -> Vec<u8> {
    serialize_shards(&[index])
}

/// Serializes a shard set, in id order, into one in-memory `.pmlsh` image.
///
/// Deterministic: the same shards always produce the same bytes (the
/// column is written in its row order, and no hash-map iteration order
/// leaks into the output).
///
/// # Panics
/// Panics when `shards` is empty — an index set cannot be empty.
pub fn serialize_shards(shards: &[impl Borrow<PmLsh>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(image_len(shards) as usize);
    write_shards(&mut out, shards).expect("a Vec takes every write");
    out
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over the HEADER payload; every overrun is a
/// [`PersistError::Truncated`], never a slice panic.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if n > self.remaining() {
            return Err(PersistError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::Corrupt(why.into())
}

fn to_usize(v: u64, what: &str) -> Result<usize, PersistError> {
    usize::try_from(v).map_err(|_| corrupt(format!("{what} {v} overflows this platform")))
}

/// `a * b` as an element count, with overflow mapped to a typed error —
/// hostile headers can declare counts whose product exceeds `usize`.
fn counted(a: usize, b: usize) -> Result<usize, PersistError> {
    a.checked_mul(b)
        .ok_or_else(|| corrupt(format!("element count {a}x{b} overflows")))
}

/// The HEADER section, decoded.
struct Header {
    d: usize,
    n_rows: usize,
    m: usize,
    live: usize,
    params: PmLshParams,
    ecdf_len: usize,
}

fn parse_header(payload: &[u8]) -> Result<Header, PersistError> {
    let mut r = ByteReader::new(payload);
    let d = to_usize(r.u64()?, "dimension")?;
    let n_rows = to_usize(r.u64()?, "row count")?;
    let m = r.u32()?;
    let s = to_usize(r.u32()? as u64, "pivot count")?;
    let live = to_usize(r.u64()?, "live count")?;
    let c = r.f64()?;
    let alpha1 = r.f64()?;
    let beta_flag = r.u8()?;
    let beta = r.f64()?;
    let rmin_shrink = r.f64()?;
    let capacity = to_usize(r.u64()?, "node capacity")?;
    let pivot_sample = to_usize(r.u64()?, "pivot sample size")?;
    let distance_samples = to_usize(r.u64()?, "distance sample count")?;
    let seed = r.u64()?;
    let ecdf_len = to_usize(r.u64()?, "ECDF sample count")?;
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes in header"));
    }

    if n_rows == 0 || live == 0 {
        return Err(PersistError::EmptyIndex);
    }
    if d == 0 {
        return Err(corrupt("zero dimension"));
    }
    if m == 0 {
        return Err(corrupt("zero hash functions"));
    }
    if live > n_rows {
        return Err(corrupt(format!(
            "{live} live points but only {n_rows} rows"
        )));
    }
    if !(c.is_finite() && c > 1.0) {
        return Err(corrupt(format!(
            "approximation ratio c={c} not in (1, inf)"
        )));
    }
    // `1.0 - alpha1` must stay strictly inside (0,1) after rounding: a
    // subnormal alpha1 rounds it to exactly 1.0, which the χ² quantile
    // rejects with an assert. Catch that here as a typed error.
    if !(alpha1.is_finite() && alpha1 > 0.0 && alpha1 < 1.0 && 1.0 - alpha1 < 1.0) {
        return Err(corrupt(format!("alpha1={alpha1} not in (0, 1)")));
    }
    if beta_flag > 1 {
        return Err(corrupt(format!("beta flag {beta_flag} not 0 or 1")));
    }
    // Re-run the Eq. 10 derivation up front: `PmLshParams::derive` asserts
    // its outputs are sane, and a checksum-valid but hand-crafted header
    // must fail with a typed error, not a panic.
    let t_sq = chi2_upper_quantile(alpha1, m);
    if !(t_sq.is_finite() && t_sq > 0.0) {
        return Err(corrupt(format!("parameters derive t²={t_sq}")));
    }
    let beta_override = if beta_flag == 1 {
        if !(beta.is_finite() && beta > 0.0 && beta < 1.0) {
            return Err(corrupt(format!("beta override {beta} not in (0, 1)")));
        }
        Some(beta)
    } else {
        let derived_beta = 2.0 * chi2_cdf(t_sq / (c * c), m);
        if !(derived_beta.is_finite() && derived_beta > 0.0 && derived_beta < 1.0) {
            return Err(corrupt(format!(
                "parameters derive beta={derived_beta}, outside (0, 1)"
            )));
        }
        None
    };
    if !(rmin_shrink.is_finite() && rmin_shrink > 0.0) {
        return Err(corrupt(format!(
            "rmin shrink factor {rmin_shrink} not positive"
        )));
    }
    if capacity < 2 {
        return Err(corrupt(format!("node capacity {capacity} below 2")));
    }
    if ecdf_len == 0 {
        return Err(corrupt("distance distribution has no samples"));
    }

    Ok(Header {
        d,
        n_rows,
        m: m as usize,
        live,
        params: PmLshParams {
            m,
            c,
            alpha1,
            beta_override,
            rmin_shrink,
            tree: PmTreeConfig {
                capacity,
                num_pivots: s,
                pivot_sample,
            },
            distance_samples,
            seed,
        },
        ecdf_len,
    })
}

/// The one reader, over a source that yields the body of the image and then
/// its 4-byte file CRC. Every overrun is a [`PersistError::Truncated`],
/// never a slice panic.
struct Reader<R> {
    src: R,
    buf: Vec<u8>,
    /// `buf[lo..hi]` is read from `src` and not yet handed out.
    lo: usize,
    hi: usize,
    /// Body bytes not yet handed out, buffered or not.
    left: u64,
    fold: Fold,
}

impl<R: Read> Reader<R> {
    /// Buffers at least `want` bytes (`want` ≤ the buffer), never reading
    /// past the body.
    fn fill(&mut self, want: usize) -> Result<(), PersistError> {
        if self.hi - self.lo >= want {
            return Ok(());
        }
        self.buf.copy_within(self.lo..self.hi, 0);
        self.hi -= self.lo;
        self.lo = 0;
        while self.hi < want {
            let unread = self.left - self.hi as u64;
            let room = unread.min((self.buf.len() - self.hi) as u64) as usize;
            match self.src.read(&mut self.buf[self.hi..self.hi + room]) {
                Ok(0) => return Err(PersistError::Truncated),
                Ok(n) => self.hi += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Hands out the next `n` buffered bytes, checksummed.
    fn take(&mut self, n: usize) -> &[u8] {
        let at = self.lo;
        self.lo += n;
        self.left -= n as u64;
        self.fold.update(&self.buf[at..at + n]);
        &self.buf[at..at + n]
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        if N as u64 > self.left {
            return Err(PersistError::Truncated);
        }
        self.fill(N)?;
        Ok(self.take(N).try_into().expect("took N bytes"))
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Hands the next `len` bytes (`len` ≤ what is left, a multiple of
    /// `each`) to `sink`, a run of whole `each`-byte elements at a time.
    fn stream(
        &mut self,
        mut len: u64,
        each: usize,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), PersistError> {
        while len > 0 {
            self.fill(each)?;
            let n = ((self.hi - self.lo) as u64).min(len) as usize / each * each;
            sink(self.take(n));
            len -= n as u64;
        }
        Ok(())
    }

    /// Decodes the next `len` bytes as `N`-byte elements.
    fn decode<T, const N: usize>(
        &mut self,
        len: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, PersistError> {
        let mut out = Vec::with_capacity(len / N);
        self.stream(len as u64, N, |bytes| {
            let elems = bytes.chunks_exact(N);
            out.extend(elems.map(|b| from_le(b.try_into().expect("an N-byte chunk"))));
        })?;
        Ok(out)
    }

    /// Reads a section's frame: the id must be `id` and the payload must
    /// fit in what is left. Returns the payload's length.
    fn open(&mut self, id: u32) -> Result<usize, PersistError> {
        let found = self.u32()?;
        if found != id {
            return Err(corrupt(format!("expected section {id}, found {found}")));
        }
        let len = to_usize(self.u64()?, "section length")?;
        if len as u64 > self.left {
            return Err(PersistError::Truncated);
        }
        self.fold.cut();
        Ok(len)
    }

    /// Ends section `id`'s payload and checks its stored CRC.
    fn close(&mut self, id: u32) -> Result<(), PersistError> {
        let crc = self.fold.cut();
        if self.u32()? != crc {
            return Err(PersistError::SectionCrc { section: id });
        }
        Ok(())
    }

    /// Reads section `id`, of `count` elements of `N` bytes as the header
    /// implies, straight into a vector. When an error is already held
    /// (`count` is `None`, or `held` is set), or the length is not what the
    /// header implies (held now), the payload is only checksummed.
    fn section<T, const N: usize>(
        &mut self,
        id: u32,
        count: Option<Result<usize, PersistError>>,
        what: &str,
        from_le: impl Fn([u8; N]) -> T,
        held: &mut Option<PersistError>,
    ) -> Result<Option<Vec<T>>, PersistError> {
        let len = self.open(id)?;
        let want = match count {
            Some(count) if held.is_none() => {
                let bytes = count.and_then(|c| {
                    (c.checked_mul(N)).ok_or_else(|| corrupt(format!("{what} size overflows")))
                });
                hold(held, bytes)
            }
            _ => None,
        };
        let fits = want.and_then(|want| {
            let fits = if len == want {
                Ok(len)
            } else {
                Err(corrupt(format!(
                    "{what} section holds {len} bytes, header implies {want}"
                )))
            };
            hold(held, fits)
        });
        let out = match fits {
            Some(len) => Some(self.decode(len, from_le)?),
            None => {
                self.stream(len as u64, 1, |_| {})?;
                None
            }
        };
        self.close(id)?;
        Ok(out)
    }
}

/// `result`'s value, or `None` with its error held unless one already is.
fn hold<T>(held: &mut Option<PersistError>, result: Result<T, PersistError>) -> Option<T> {
    match result {
        Ok(v) => Some(v),
        Err(e) => {
            held.get_or_insert(e);
            None
        }
    }
}

/// Reassembles the [`PmLsh`] of an in-memory one-shard `.pmlsh` image; an
/// image of more shards is [`PersistError::Corrupt`], naming its count.
pub fn deserialize(bytes: &[u8]) -> Result<PmLsh, PersistError> {
    one_index(deserialize_shards(bytes)?)
}

/// The one index of a one-shard set; a set of more is
/// [`PersistError::Corrupt`], naming its count.
pub(crate) fn one_index(set: Vec<PmLsh>) -> Result<PmLsh, PersistError> {
    <[PmLsh; 1]>::try_from(set)
        .map(|[index]| index)
        .map_err(|set| {
            corrupt(format!(
                "snapshot holds {} shards, not one index; load it as a shard set",
                set.len()
            ))
        })
}

/// Reassembles the shard set of an in-memory `.pmlsh` image, in id order.
pub fn deserialize_shards(bytes: &[u8]) -> Result<Vec<PmLsh>, PersistError> {
    read_shards(bytes, bytes.len() as u64)
}

/// Reassembles the shard set of the `total`-byte image `src` yields, in one
/// pass over it.
pub(crate) fn read_shards(mut src: impl Read, total: u64) -> Result<Vec<PmLsh>, PersistError> {
    let mut head = [0u8; 12];
    let got = total.min(12) as usize;
    read_exact(&mut src, &mut head[..got])?;
    if total < MAGIC.len() as u64 {
        return Err(PersistError::Truncated);
    }
    if head[..MAGIC.len()] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    if total < 12 {
        return Err(PersistError::Truncated);
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    if total < 16 + 4 {
        return Err(PersistError::Truncated);
    }

    let body = total - 4;
    let mut r = Reader {
        src,
        buf: vec![0; body.min(CHUNK as u64) as usize],
        lo: 0,
        hi: 0,
        left: body - 12,
        fold: Fold::default(),
    };
    r.fold.update(&head);
    let parsed = read_body(&mut r);
    if let Err(PersistError::Io(e)) = parsed {
        return Err(PersistError::Io(e));
    }
    // What the parse left, the file CRC still covers; a mismatch there is
    // reported before any error the parse found.
    let left = r.left;
    r.stream(left, 1, |_| {})?;
    let mut stored = [0u8; 4];
    read_exact(&mut r.src, &mut stored)?;
    if u32::from_le_bytes(stored) != r.fold.finish() {
        return Err(PersistError::FileCrc);
    }
    let shards = parsed?;

    // A sharded engine reads these from shard 0 and applies them to all.
    let shape = |i: &PmLsh| (i.data().dim(), i.params().m, i.params().c, i.derived().beta);
    if let Some(s) = (1..shards.len()).find(|&s| shape(&shards[s]) != shape(&shards[0])) {
        return Err(corrupt(format!(
            "shard {s} has (d, m, c, beta) = {:?}, shard 0 has {:?}",
            shape(&shards[s]),
            shape(&shards[0])
        )));
    }
    Ok(shards)
}

/// `src.read_exact(buf)`; a source that ends early is [`PersistError::Truncated`].
fn read_exact(src: &mut impl Read, buf: &mut [u8]) -> Result<(), PersistError> {
    src.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => PersistError::Truncated,
        _ => e.into(),
    })
}

/// Parses the body: the shard count, then each shard.
fn read_body<R: Read>(r: &mut Reader<R>) -> Result<Vec<PmLsh>, PersistError> {
    let count = r.u32()?;
    if count == 0 {
        return Err(PersistError::EmptyIndex);
    }
    // No capacity from the count: a hostile one fails as `Truncated` once
    // the sections run out, before it reserves anything.
    let mut shards = Vec::new();
    for _ in 0..count {
        shards.push(read_index(r)?);
    }
    if r.left != 0 {
        return Err(corrupt(format!(
            "trailing bytes after the last of {count} shards"
        )));
    }
    Ok(shards)
}

/// Reads one index's six sections and reassembles it.
///
/// A header or payload error is held until all six sections have passed
/// their CRCs, and the first one held is reported; a held error leaves the
/// sections after it checksummed but not decoded.
fn read_index<R: Read>(r: &mut Reader<R>) -> Result<PmLsh, PersistError> {
    let mut held = None;
    let len = r.open(SEC_HEADER)?;
    let header = if len <= HEADER_LEN {
        parse_header(&r.decode(len, u8::from_le_bytes)?)
    } else {
        r.stream(len as u64, 1, |_| {})?;
        Err(corrupt("trailing bytes in header"))
    };
    r.close(SEC_HEADER)?;
    let h = hold(&mut held, header);

    let size = |count: fn(&Header) -> Result<usize, PersistError>| h.as_ref().map(count);
    let coeffs = r.section(
        SEC_PROJ,
        size(|h| counted(h.m, h.d)),
        "projection matrix",
        f32::from_le_bytes,
        &mut held,
    )?;
    let raw = r.section(
        SEC_DATA,
        size(|h| counted(h.n_rows, h.d)),
        "point store",
        f32::from_le_bytes,
        &mut held,
    )?;
    let points = r.section(
        SEC_POINTS,
        size(|h| counted(h.live, h.m)),
        "projected points",
        f32::from_le_bytes,
        &mut held,
    )?;
    let externals = r.section(
        SEC_IDMAPS,
        size(|h| Ok(h.live)),
        "id maps",
        u32::from_le_bytes,
        &mut held,
    )?;
    let ecdf = r.section(
        SEC_ECDF,
        size(|h| Ok(h.ecdf_len)),
        "distance distribution",
        f64::from_le_bytes,
        &mut held,
    )?;
    let ecdf = ecdf.and_then(|samples| {
        let nan = samples.iter().any(|v| v.is_nan());
        let checked = if nan {
            Err(corrupt("NaN in distance distribution"))
        } else {
            Ok(samples)
        };
        hold(&mut held, checked)
    });

    let (Some(h), Some(coeffs), Some(raw), Some(points), Some(externals), Some(ecdf)) =
        (h, coeffs, raw, points, externals, ecdf)
    else {
        return Err(held.expect("a section was skipped for an error held"));
    };
    let tree = PmTree::from_parts(PmTreeParts {
        dim: h.m,
        points,
        externals,
    })
    .map_err(corrupt)?;
    let data = Arc::new(Dataset::from_flat(raw, h.d));
    let projector = GaussianProjector::from_flat(coeffs, h.d, h.m);
    PmLsh::from_parts(data, projector, tree, h.params, Ecdf::new(ecdf)).map_err(corrupt)
}
