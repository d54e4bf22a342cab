//! Corrupt-input hardening: every malformed `.pmlsh` byte stream must map
//! to a typed [`PersistError`] — never a panic, never a silently wrong
//! index. The tamper helpers below re-sign checksums so each test reaches
//! exactly the validation layer it targets.
//!
//! Every case goes through both doors of the one reader, over memory
//! (`deserialize*`) and over a file (`load*`), and both must give the same
//! outcome (see [`load_both`]).

use pm_lsh_core::{PmLsh, PmLshParams};
use pm_lsh_data::{PaperDataset, Scale};
use pm_lsh_metric::Dataset;
use pm_lsh_persist::{
    crc32, deserialize, deserialize_shards, load, load_shards, serialize, serialize_shards,
    PersistError, FORMAT_VERSION, MAGIC,
};
use pm_lsh_stats::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The ids of a shard's six sections, in file order.
const SECTIONS: [u32; 6] = [1, 2, 3, 4, 5, 6];
const SEC_POINTS: u32 = 4;
const SEC_IDMAPS: u32 = 5;

fn snapshot() -> Vec<u8> {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let index = PmLsh::build(generator.dataset(), PmLshParams::paper_defaults());
    serialize(&index)
}

/// An index over `n` Gaussian points in `R^d`.
fn blob_index(n: usize, d: usize, seed: u64) -> PmLsh {
    let mut rng = Rng::new(seed);
    let mut data = Dataset::with_capacity(d, n);
    let mut buf = vec![0.0f32; d];
    for _ in 0..n {
        rng.fill_normal(&mut buf);
        data.push(&buf);
    }
    PmLsh::build(data, PmLshParams::default())
}

/// A 2-shard image of two small `R^8` indexes.
fn two_shards() -> Vec<u8> {
    serialize_shards(&[blob_index(100, 8, 31), blob_index(120, 8, 32)])
}

/// Byte offset where shard 1's sections start: past shard 0's six.
fn shard_boundary(bytes: &[u8]) -> usize {
    let mut pos = 16;
    for _ in SECTIONS {
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        pos += 16 + len;
    }
    pos
}

/// `bytes` with its shard count set to `count` and every checksum re-signed.
fn with_shard_count(bytes: &[u8], count: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[12..16].copy_from_slice(&count.to_le_bytes());
    resign(&mut out);
    out
}

/// Byte offset where a section's payload starts, plus its length.
fn section_bounds(bytes: &[u8], section_id: u32) -> (usize, usize) {
    let mut pos = 16; // magic + version + shard count
    loop {
        let id = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        if id == section_id {
            return (pos + 12, len);
        }
        pos += 12 + len + 4;
    }
}

/// Recomputes every section CRC and the whole-file CRC, so a tamper test
/// can target validation layers *behind* the checksums.
fn resign(bytes: &mut [u8]) {
    let mut pos = 16;
    let body_end = bytes.len() - 4;
    while pos < body_end {
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[pos + 12..pos + 12 + len]);
        bytes[pos + 12 + len..pos + 16 + len].copy_from_slice(&crc.to_le_bytes());
        pos += 16 + len;
    }
    let crc = crc32(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
}

/// `bytes` with one section's payload replaced by `payload` (the section
/// length follows) and every checksum re-signed.
fn with_payload(bytes: &[u8], section_id: u32, payload: &[u8]) -> Vec<u8> {
    let (start, len) = section_bounds(bytes, section_id);
    let mut out = bytes[..start - 8].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bytes[start + len..]);
    resign(&mut out);
    out
}

/// Recomputes only the whole-file CRC, leaving section CRCs untouched.
fn resign_file_only(bytes: &mut [u8]) {
    let body_end = bytes.len() - 4;
    let crc = crc32(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
}

/// Loads `bytes` through both doors, `from_memory(bytes)` and
/// `from_file(path)` of a file holding them, and requires the same outcome
/// from each: the same error, message included, or a success of the same
/// size.
fn load_both<T>(
    bytes: &[u8],
    from_memory: impl Fn(&[u8]) -> Result<T, PersistError>,
    from_file: impl Fn(&std::path::Path) -> Result<T, PersistError>,
    size: impl Fn(&T) -> usize,
) -> Result<T, PersistError> {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let n = FILES.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("pmlsh-corrupt-{}-{n}.pmlsh", std::process::id()));
    std::fs::write(&path, bytes).expect("write temp snapshot");
    let from_file = from_file(&path);
    std::fs::remove_file(&path).expect("remove temp snapshot");
    let from_memory = from_memory(bytes);
    let outcome = |r: &Result<T, PersistError>| match r {
        Ok(t) => format!("Ok({})", size(t)),
        Err(e) => format!("{e:?}"),
    };
    assert_eq!(
        outcome(&from_memory),
        outcome(&from_file),
        "memory and file loads of {} bytes disagree",
        bytes.len()
    );
    from_memory
}

/// [`deserialize_shards`] and [`load_shards`] of `bytes`, which must agree.
fn shards_both(bytes: &[u8]) -> Result<Vec<PmLsh>, PersistError> {
    load_both(bytes, deserialize_shards, |p| load_shards(p), Vec::len)
}

/// [`deserialize`] and [`load`] of `bytes`, which must agree.
fn index_both(bytes: &[u8]) -> Result<PmLsh, PersistError> {
    load_both(bytes, deserialize, |p| load(p), PmLsh::len)
}

#[test]
fn truncation_at_every_layer() {
    let good = snapshot();
    // Representative cut points: empty, mid-magic, mid-version, mid-header,
    // mid-payload, and one byte short of complete.
    for cut in [0usize, 5, 10, 40, good.len() / 2, good.len() - 1] {
        let err = index_both(&good[..cut]).expect_err("truncated must fail");
        assert!(
            matches!(err, PersistError::Truncated | PersistError::FileCrc),
            "cut at {cut} gave {err:?}"
        );
    }
    // Cuts that happen before the trailing CRC exists are Truncated
    // specifically, not a checksum complaint.
    assert!(matches!(
        index_both(&good[..5]),
        Err(PersistError::Truncated)
    ));
    assert!(matches!(index_both(&[]), Err(PersistError::Truncated)));
}

#[test]
fn wrong_magic() {
    let mut bad = snapshot();
    bad[0] ^= 0xFF;
    assert!(matches!(index_both(&bad), Err(PersistError::BadMagic)));
    // A different file format entirely (say, fvecs) also reports BadMagic.
    let fvecs = [192u32.to_le_bytes().as_slice(), &[0u8; 768]].concat();
    assert!(matches!(index_both(&fvecs), Err(PersistError::BadMagic)));
}

#[test]
fn future_version_is_rejected() {
    let mut bad = snapshot();
    bad[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    resign(&mut bad);
    match index_both(&bad) {
        Err(PersistError::UnsupportedVersion(v)) => assert_eq!(v, FORMAT_VERSION + 1),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn format_1_is_refused_by_its_version() {
    // Format 1 packed node entries field by field, format 2 held one index
    // with no shard count and format 3 kept each projected point inside
    // its leaf entry; this build has no reader for any of them, by design.
    let good = snapshot();
    for version in [1u32, 2, 3] {
        let mut old = good.clone();
        old[8..12].copy_from_slice(&version.to_le_bytes());
        resign(&mut old);
        let err = shards_both(&old).unwrap_err();
        assert!(
            matches!(err, PersistError::UnsupportedVersion(v) if v == version),
            "{err:?}"
        );
        assert!(err.to_string().contains("this build reads 5"), "{err}");
    }
}

#[test]
fn format_4_is_refused_by_its_version() {
    // Format 4 stored the PM-tree's pivots and node blocks (PIVOTS, NODES)
    // and each row's holding leaf beside the column; the served index has
    // neither, so this build reads no format-4 file, whatever it holds.
    let good = snapshot();
    let mut old = good.clone();
    old[8..12].copy_from_slice(&4u32.to_le_bytes());
    resign(&mut old);
    for bytes in [&old[..], &old[..old.len() / 2]] {
        let err = shards_both(bytes).unwrap_err();
        assert!(
            matches!(err, PersistError::UnsupportedVersion(4)),
            "{err:?}"
        );
        assert!(
            err.to_string()
                .contains("unsupported snapshot format version 4 (this build reads 5)"),
            "{err}"
        );
    }
}

#[test]
fn bit_flip_fails_the_file_checksum() {
    let good = snapshot();
    // Flip one bit in a spread of positions; all must fail CRC (or the
    // magic/version gate for the first 12 bytes).
    for pos in [
        12usize,
        100,
        good.len() / 3,
        good.len() / 2,
        good.len() - 20,
    ] {
        let mut bad = good.clone();
        bad[pos] ^= 0x10;
        let err = index_both(&bad).expect_err("bit flip must fail");
        assert!(
            matches!(err, PersistError::FileCrc),
            "flip at {pos} gave {err:?}"
        );
    }
}

#[test]
fn bit_flip_in_each_section_fails_its_section_checksum() {
    let good = snapshot();
    for section in SECTIONS {
        let (start, len) = section_bounds(&good, section);
        assert!(len > 0, "section {section} is empty");
        let mut bad = good.clone();
        bad[start + len / 2] ^= 0x01;
        resign_file_only(&mut bad);
        match index_both(&bad) {
            Err(PersistError::SectionCrc { section: s }) => assert_eq!(s, section),
            other => panic!("section {section} flip gave {other:?}"),
        }
    }
}

#[test]
fn dimension_mismatch_is_corrupt_not_panic() {
    // Tamper the header's declared dimensionality: the projection matrix
    // and point store no longer agree with it.
    let good = snapshot();
    let (hdr, _) = section_bounds(&good, 1);
    let mut bad = good.clone();
    let d = u64::from_le_bytes(bad[hdr..hdr + 8].try_into().unwrap());
    bad[hdr..hdr + 8].copy_from_slice(&(d + 1).to_le_bytes());
    resign(&mut bad);
    assert!(matches!(index_both(&bad), Err(PersistError::Corrupt(_))));

    // Same for the projected dimensionality m (header offset 16).
    let mut bad = good.clone();
    bad[hdr + 16..hdr + 20].copy_from_slice(&7u32.to_le_bytes());
    resign(&mut bad);
    assert!(matches!(index_both(&bad), Err(PersistError::Corrupt(_))));
}

#[test]
fn zero_point_snapshot_is_empty_index() {
    let good = snapshot();
    let (hdr, _) = section_bounds(&good, 1);
    // n_rows lives at header offset 8, live at offset 24.
    for offset in [8usize, 24] {
        let mut bad = good.clone();
        bad[hdr + offset..hdr + offset + 8].copy_from_slice(&0u64.to_le_bytes());
        resign(&mut bad);
        assert!(
            matches!(index_both(&bad), Err(PersistError::EmptyIndex)),
            "zeroing header offset {offset} must report EmptyIndex"
        );
    }
}

#[test]
fn hostile_header_values_never_panic() {
    let good = snapshot();
    let (hdr, hdr_len) = section_bounds(&good, 1);
    // Overwrite each 4-byte window of the header with extreme values and
    // demand a typed error or a successful load — never a panic and never
    // an index that disagrees with its own structure checks.
    for off in (0..hdr_len.saturating_sub(4)).step_by(4) {
        for pattern in [[0xFFu8; 4], [0u8; 4], [0x80, 0x00, 0x00, 0x7F]] {
            let mut bad = good.clone();
            bad[hdr + off..hdr + off + 4].copy_from_slice(&pattern);
            resign(&mut bad);
            if let Ok(index) = index_both(&bad) {
                index
                    .tree()
                    .verify_invariants()
                    .expect("accepted load must be sound");
            }
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bad = snapshot();
    bad.extend_from_slice(b"extra");
    let err = index_both(&bad).expect_err("trailing bytes must fail");
    assert!(
        matches!(err, PersistError::FileCrc | PersistError::Corrupt(_)),
        "got {err:?}"
    );
}

#[test]
fn magic_constant_matches_spec() {
    assert_eq!(&MAGIC, b"PMLSHSNP");
    let good = snapshot();
    assert_eq!(&good[..8], b"PMLSHSNP");
}

#[test]
fn zero_shard_count_is_empty_index() {
    let bad = with_shard_count(&two_shards(), 0);
    assert!(matches!(shards_both(&bad), Err(PersistError::EmptyIndex)));
}

#[test]
fn shard_count_off_by_one_is_a_typed_error() {
    // A count that disagrees with the shards present never yields a
    // shorter or longer set.
    let good = two_shards();
    assert_eq!(shards_both(&good).expect("2-shard set").len(), 2);
    assert!(matches!(
        shards_both(&with_shard_count(&good, 3)),
        Err(PersistError::Truncated)
    ));
    match shards_both(&with_shard_count(&good, 1)) {
        Err(PersistError::Corrupt(why)) => assert!(why.contains("trailing bytes"), "{why}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn cut_at_the_shard_boundary_is_a_typed_error() {
    // Shard 1 gone, every checksum re-signed: the count still says 2.
    let good = two_shards();
    let mut cut = good[..shard_boundary(&good)].to_vec();
    cut.extend_from_slice(&[0; 4]);
    resign(&mut cut);
    assert!(matches!(shards_both(&cut), Err(PersistError::Truncated)));
}

#[test]
fn deserialize_of_a_shard_set_names_its_count() {
    match index_both(&two_shards()) {
        Err(PersistError::Corrupt(why)) => assert!(why.contains("2 shards"), "{why}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|i| i.len())),
    }
}

#[test]
fn shards_that_disagree_are_corrupt() {
    // A sharded engine applies shard 0's d, m, c and beta to every shard.
    let mixed = serialize_shards(&[blob_index(100, 8, 41), blob_index(100, 16, 42)]);
    match shards_both(&mixed) {
        Err(PersistError::Corrupt(why)) => assert!(why.contains("shard 1"), "{why}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|s| s.len())),
    }
}

#[test]
fn points_section_of_the_wrong_length_is_a_typed_error() {
    // POINTS holds exactly `live·m` floats; one float short or long, or a
    // ragged byte, is refused before any tree is assembled.
    let good = snapshot();
    let index = index_both(&good).expect("untouched snapshot loads");
    let (live, m) = (index.tree().len(), index.tree().dim());
    let (start, len) = section_bounds(&good, SEC_POINTS);
    assert_eq!(len, live * m * 4, "POINTS is live·m f32");
    let points = &good[start..start + len];
    let mut long = points.to_vec();
    long.extend_from_slice(&0.5f32.to_le_bytes());
    for (what, payload) in [
        ("one float short", &points[..len - 4]),
        ("one float long", &long[..]),
        ("one byte short", &points[..len - 1]),
        ("empty", &[][..]),
    ] {
        match index_both(&with_payload(&good, SEC_POINTS, payload)) {
            Err(PersistError::Corrupt(why)) => {
                assert!(why.contains("projected points"), "{what}: {why}")
            }
            Err(PersistError::Truncated) => {}
            other => panic!("{what}: expected Corrupt or Truncated, got {other:?}"),
        }
    }
    // A section length past the end of the file is `Truncated`.
    let mut cut = good.clone();
    cut[start - 8..start].copy_from_slice(&u64::MAX.to_le_bytes());
    resign_file_only(&mut cut);
    assert!(matches!(index_both(&cut), Err(PersistError::Truncated)));
}

#[test]
fn idmaps_section_that_does_not_fit_is_a_typed_error() {
    // IDMAPS holds exactly `live` external ids, each naming a stored row
    // once; format 4's trailing holding-leaf ids make it twice too long.
    let good = snapshot();
    let index = index_both(&good).expect("untouched snapshot loads");
    let (live, rows) = (index.len(), index.data().len());
    let (start, len) = section_bounds(&good, SEC_IDMAPS);
    assert_eq!(len, live * 4, "IDMAPS is live u32");
    let ids = &good[start..start + len];
    let with_id = |at: usize, id: u32| {
        let mut ids = ids.to_vec();
        ids[4 * at..4 * at + 4].copy_from_slice(&id.to_le_bytes());
        with_payload(&good, SEC_IDMAPS, &ids)
    };
    let twice = [ids, ids].concat();
    for (what, bytes, needle) in [
        (
            "one id short",
            with_payload(&good, SEC_IDMAPS, &ids[..len - 4]),
            "id maps",
        ),
        (
            "format 4's leaf ids",
            with_payload(&good, SEC_IDMAPS, &twice),
            "id maps",
        ),
        (
            "an id given twice",
            with_id(1, 0),
            "external id 0 appears twice",
        ),
        (
            "an id past the rows",
            with_id(3, rows as u32),
            "outside the",
        ),
    ] {
        match index_both(&bytes) {
            Err(PersistError::Corrupt(why)) => assert!(why.contains(needle), "{what}: {why}"),
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }
}
