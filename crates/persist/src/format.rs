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

use std::borrow::Borrow;
use std::sync::Arc;

use pm_lsh_core::{PmLsh, PmLshParams};
use pm_lsh_hash::GaussianProjector;
use pm_lsh_metric::Dataset;
use pm_lsh_pmtree::{PmTree, PmTreeConfig, PmTreeParts};
use pm_lsh_stats::{chi2_cdf, chi2_upper_quantile, Ecdf};

use crate::crc::crc32;
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

const SECTION_ORDER: [u32; 6] = [
    SEC_HEADER, SEC_PROJ, SEC_DATA, SEC_POINTS, SEC_IDMAPS, SEC_ECDF,
];

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

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    out.reserve(vs.len() * 4);
    for &v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_section(out: &mut Vec<u8>, id: u32, payload: &[u8]) {
    put_u32(out, id);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u32(out, crc32(payload));
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
    assert!(!shards.is_empty(), "cannot serialize zero shards");
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, shards.len() as u32);
    for shard in shards {
        put_index(&mut out, shard.borrow());
    }
    let file_crc = crc32(&out);
    put_u32(&mut out, file_crc);
    out
}

/// Appends one index's six sections to `out`.
fn put_index(out: &mut Vec<u8>, index: &PmLsh) {
    let parts = index.tree().to_parts();
    let params = index.params();
    let data = index.data();
    let ecdf = index.distance_distribution().sorted_samples();
    let live = parts.externals.len();

    let mut header = Vec::with_capacity(128);
    put_u64(&mut header, data.dim() as u64);
    put_u64(&mut header, data.len() as u64);
    put_u32(&mut header, params.m);
    put_u32(&mut header, params.tree.num_pivots as u32);
    put_u64(&mut header, live as u64);
    put_f64(&mut header, params.c);
    put_f64(&mut header, params.alpha1);
    header.push(params.beta_override.is_some() as u8);
    put_f64(&mut header, params.beta_override.unwrap_or(0.0));
    put_f64(&mut header, params.rmin_shrink);
    put_u64(&mut header, params.tree.capacity as u64);
    put_u64(&mut header, params.tree.pivot_sample as u64);
    put_u64(&mut header, params.distance_samples as u64);
    put_u64(&mut header, params.seed);
    put_u64(&mut header, ecdf.len() as u64);

    let mut proj = Vec::new();
    put_f32s(&mut proj, index.projector().coeffs_flat());

    // The base's rows, then each tail chunk's: every row in id order.
    let mut raw = Vec::with_capacity(data.len() * data.dim() * 4);
    for run in data.runs() {
        put_f32s(&mut raw, run);
    }

    let mut points = Vec::new();
    put_f32s(&mut points, &parts.points);

    let mut idmaps = Vec::with_capacity(live * 4);
    for &ext in &parts.externals {
        put_u32(&mut idmaps, ext);
    }

    let mut ecdf_bytes = Vec::with_capacity(ecdf.len() * 8);
    for &v in ecdf {
        put_f64(&mut ecdf_bytes, v);
    }

    out.reserve_exact(
        header.len()
            + proj.len()
            + raw.len()
            + points.len()
            + idmaps.len()
            + ecdf_bytes.len()
            + 6 * 16 // section frames
            + 4, // the file crc, after the last shard
    );
    put_section(out, SEC_HEADER, &header);
    put_section(out, SEC_PROJ, &proj);
    put_section(out, SEC_DATA, &raw);
    put_section(out, SEC_POINTS, &points);
    put_section(out, SEC_IDMAPS, &idmaps);
    put_section(out, SEC_ECDF, &ecdf_bytes);
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over untrusted bytes; every overrun is a
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

/// Checks that `payload` holds exactly `count` elements of `elem_size`
/// bytes, then returns it.
fn sized_section<'a>(
    payload: &'a [u8],
    count: usize,
    elem_size: usize,
    what: &str,
) -> Result<&'a [u8], PersistError> {
    let want = count
        .checked_mul(elem_size)
        .ok_or_else(|| corrupt(format!("{what} size overflows")))?;
    if payload.len() != want {
        return Err(corrupt(format!(
            "{what} section holds {} bytes, header implies {want}",
            payload.len()
        )));
    }
    Ok(payload)
}

fn f32s_exact(payload: &[u8], count: usize, what: &str) -> Result<Vec<f32>, PersistError> {
    let bytes = sized_section(payload, count, 4, what)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Reassembles the [`PmLsh`] of an in-memory one-shard `.pmlsh` image; an
/// image of more shards is [`PersistError::Corrupt`], naming its count.
pub fn deserialize(bytes: &[u8]) -> Result<PmLsh, PersistError> {
    <[PmLsh; 1]>::try_from(deserialize_shards(bytes)?)
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
    if bytes.len() < MAGIC.len() {
        return Err(PersistError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 4 {
        return Err(PersistError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    if bytes.len() < 16 + 4 {
        return Err(PersistError::Truncated);
    }
    let body_end = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
    if crc32(&bytes[..body_end]) != stored_crc {
        return Err(PersistError::FileCrc);
    }

    let mut r = ByteReader::new(&bytes[12..body_end]);
    let count = r.u32()?;
    if count == 0 {
        return Err(PersistError::EmptyIndex);
    }
    // No capacity from the count: a hostile one fails as `Truncated` once
    // the sections run out, before it reserves anything.
    let mut shards = Vec::new();
    for _ in 0..count {
        shards.push(read_index(&mut r)?);
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "trailing bytes after the last of {count} shards"
        )));
    }
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

/// Reads one index's six sections from `r` and reassembles it.
fn read_index(r: &mut ByteReader<'_>) -> Result<PmLsh, PersistError> {
    let mut sections: [&[u8]; 6] = [&[]; 6];
    for (slot, &expected_id) in sections.iter_mut().zip(&SECTION_ORDER) {
        let id = r.u32()?;
        if id != expected_id {
            return Err(corrupt(format!(
                "expected section {expected_id}, found {id}"
            )));
        }
        let len = to_usize(r.u64()?, "section length")?;
        let payload = r.take(len)?;
        let declared = r.u32()?;
        if crc32(payload) != declared {
            return Err(PersistError::SectionCrc { section: id });
        }
        *slot = payload;
    }

    let h = parse_header(sections[0])?;

    let coeffs = f32s_exact(sections[1], counted(h.m, h.d)?, "projection matrix")?;
    let raw = f32s_exact(sections[2], counted(h.n_rows, h.d)?, "point store")?;
    let points = f32s_exact(sections[3], counted(h.live, h.m)?, "projected points")?;
    let idmaps = sized_section(sections[4], h.live, 4, "id maps")?;
    let externals = (idmaps.chunks_exact(4))
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();

    let ecdf_bytes = sized_section(sections[5], h.ecdf_len, 8, "distance distribution")?;
    let mut ecdf_samples = Vec::with_capacity(h.ecdf_len);
    {
        let mut r = ByteReader::new(ecdf_bytes);
        for _ in 0..h.ecdf_len {
            let v = r.f64()?;
            if v.is_nan() {
                return Err(corrupt("NaN in distance distribution"));
            }
            ecdf_samples.push(v);
        }
    }

    let tree = PmTree::from_parts(PmTreeParts {
        dim: h.m,
        points,
        externals,
    })
    .map_err(corrupt)?;

    let data = Arc::new(Dataset::from_flat(raw, h.d));
    let projector = GaussianProjector::from_flat(coeffs, h.d, h.m);
    let dist_f = Ecdf::new(ecdf_samples);

    PmLsh::from_parts(data, projector, tree, h.params, dist_f).map_err(corrupt)
}
