//! Binary shard format for resumable, checksummed chunk streams.
//!
//! A shard directory holds a text `manifest.txt` plus numbered
//! `shard_NNNNN.bin` files, each a self-contained block of labelled
//! rows. Re-streaming a big CSV re-parses every cell on every pass;
//! packing it into shards once makes later passes a straight `f64`
//! copy with integrity checking.
//!
//! Shard file layout, format version 2 (little-endian):
//!
//! ```text
//! magic    4 B   "SPSH"
//! version  4 B   u32 (currently 2)
//! n_rows   8 B   u64
//! n_feat   4 B   u32
//! labels   n_rows B
//! features n_rows * n_feat * 8 B  row-major f64
//! checksum 8 B   over everything above (see below)
//! ```
//!
//! The checksum applies the step `h = rotl32((h ^ x) · P)` (FNV-1a's
//! step, then a rotation by 32 bits) to the payload's little-endian
//! `u64` words in four interleaved lanes (word `j` feeds lane `j % 4`;
//! lane `i` starts at the FNV offset basis xor `i`). It then folds the
//! four lanes, the bytes after the last whole 32-byte block and the
//! payload length, in that order, into one more state by the same step.
//! For a fixed word each step is a bijection of the lane state, and the
//! fold is a bijection in each lane, so any single-byte change still
//! changes the checksum, as with byte-wise FNV-1a, while four
//! independent multiply chains run at memory speed. The rotation moves
//! the product's high half, which depends on every input bit, down to
//! where the next multiply spreads it: without it a word's top bit
//! would reach only the top bit of its product, and any even number of
//! top-bit flips would cancel.
//!
//! Version 1 shards carried byte-wise FNV-1a and are not read: a shard
//! set is a derived cache of its source, so a version 1 set is
//! rejected with [`SpeError::ShardCorrupt`] and must be re-packed
//! (`spe_score pack`).
//!
//! [`ShardReader`] implements [`ChunkedSource`] (one shard per chunk).
//! Every read verifies the magic, version, dimensions, length and
//! checksum of the shard, surfacing any mismatch as
//! [`SpeError::ShardCorrupt`] with the offending path, then appends
//! the labels and features to the chunk in one bulk pass.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::chunked::{Chunk, ChunkedSource};
use crate::error::SpeError;

/// Leading magic bytes of every shard file.
pub const SHARD_MAGIC: [u8; 4] = *b"SPSH";
/// Current shard format version.
pub const SHARD_VERSION: u32 = 2;
const MANIFEST_NAME: &str = "manifest.txt";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Bytes of the fixed shard header (magic, version, rows, features).
const HEADER_BYTES: usize = 20;

/// The shard checksum of `payload` (see the [module docs](self)).
fn checksum(payload: &[u8]) -> u64 {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(FNV_PRIME).rotate_left(32);
    let mut lanes: [u64; 4] = std::array::from_fn(|i| FNV_OFFSET ^ i as u64);
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(word.try_into().unwrap()));
        }
    }
    let tail = blocks.remainder().iter().map(|&b| u64::from(b));
    lanes
        .into_iter()
        .chain(tail)
        .chain([payload.len() as u64])
        .fold(FNV_OFFSET, step)
}

/// Re-pack advice carried by every version error.
fn version_error(found: u64) -> String {
    format!(
        "unsupported shard version {found} (expected {SHARD_VERSION}); \
         re-pack the source with `spe_score pack`"
    )
}

fn shard_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard_{index:05}.bin"))
}

fn corrupt(path: &Path, reason: impl Into<String>) -> SpeError {
    SpeError::ShardCorrupt {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// Directory-level metadata of a packed shard set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Feature columns per row.
    pub n_features: usize,
    /// Row budget per shard (every shard but the last is exactly this).
    pub rows_per_shard: usize,
    /// Rows across all shards.
    pub total_rows: u64,
    /// Number of shard files.
    pub n_shards: usize,
}

impl ShardManifest {
    fn write(&self, dir: &Path) -> Result<(), SpeError> {
        let text = format!(
            "spe-shards {SHARD_VERSION}\nfeatures {}\nrows_per_shard {}\ntotal_rows {}\nshards {}\n",
            self.n_features, self.rows_per_shard, self.total_rows, self.n_shards
        );
        fs::write(dir.join(MANIFEST_NAME), text)?;
        Ok(())
    }

    fn read(dir: &Path) -> Result<Self, SpeError> {
        let path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&path)?;
        let mut fields = std::collections::HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once(' ') else {
                return Err(corrupt(&path, format!("manifest line {} malformed", i + 1)));
            };
            fields.insert(key.to_string(), value.trim().to_string());
        }
        let get = |key: &str| -> Result<u64, SpeError> {
            fields
                .get(key)
                .ok_or_else(|| corrupt(&path, format!("manifest missing {key:?}")))?
                .parse()
                .map_err(|_| corrupt(&path, format!("manifest field {key:?} is not a number")))
        };
        let version = get("spe-shards")?;
        if version != u64::from(SHARD_VERSION) {
            return Err(corrupt(&path, version_error(version)));
        }
        Ok(Self {
            n_features: get("features")? as usize,
            rows_per_shard: get("rows_per_shard")? as usize,
            total_rows: get("total_rows")?,
            n_shards: get("shards")? as usize,
        })
    }
}

/// Streaming writer: buffer rows, flush a shard file every
/// `rows_per_shard`, then [`finish`](Self::finish) to write the
/// manifest.
pub struct ShardWriter {
    dir: PathBuf,
    n_features: usize,
    rows_per_shard: usize,
    buf_x: Vec<f64>,
    buf_y: Vec<u8>,
    n_shards: usize,
    total_rows: u64,
}

impl ShardWriter {
    /// Creates (or reuses) `dir` for a new shard set.
    pub fn create(dir: &Path, n_features: usize, rows_per_shard: usize) -> Result<Self, SpeError> {
        if n_features == 0 || rows_per_shard == 0 {
            return Err(SpeError::InvalidConfig(
                "shards need at least one feature and one row per shard".into(),
            ));
        }
        fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            n_features,
            rows_per_shard,
            buf_x: Vec::with_capacity(rows_per_shard * n_features),
            buf_y: Vec::with_capacity(rows_per_shard),
            n_shards: 0,
            total_rows: 0,
        })
    }

    /// Appends one labelled row.
    pub fn push_row(&mut self, features: &[f64], label: u8) -> Result<(), SpeError> {
        if features.len() != self.n_features {
            return Err(SpeError::DimensionMismatch {
                what: "shard row",
                expected: self.n_features,
                got: features.len(),
            });
        }
        self.buf_x.extend_from_slice(features);
        self.buf_y.push(label);
        self.total_rows += 1;
        if self.buf_y.len() >= self.rows_per_shard {
            self.flush_shard()?;
        }
        Ok(())
    }

    /// Appends every row of a chunk.
    pub fn push_chunk(&mut self, chunk: &Chunk) -> Result<(), SpeError> {
        for r in 0..chunk.rows() {
            self.push_row(chunk.x().row(r), chunk.y()[r])?;
        }
        Ok(())
    }

    /// Flushes any buffered rows and writes the manifest.
    pub fn finish(mut self) -> Result<ShardManifest, SpeError> {
        if !self.buf_y.is_empty() {
            self.flush_shard()?;
        }
        let manifest = ShardManifest {
            n_features: self.n_features,
            rows_per_shard: self.rows_per_shard,
            total_rows: self.total_rows,
            n_shards: self.n_shards,
        };
        manifest.write(&self.dir)?;
        Ok(manifest)
    }

    fn flush_shard(&mut self) -> Result<(), SpeError> {
        let n_rows = self.buf_y.len() as u64;
        let mut payload =
            Vec::with_capacity(HEADER_BYTES + self.buf_y.len() + self.buf_x.len() * 8);
        payload.extend_from_slice(&SHARD_MAGIC);
        payload.extend_from_slice(&SHARD_VERSION.to_le_bytes());
        payload.extend_from_slice(&n_rows.to_le_bytes());
        payload.extend_from_slice(&(self.n_features as u32).to_le_bytes());
        payload.extend_from_slice(&self.buf_y);
        for v in &self.buf_x {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let sum = checksum(&payload);
        let mut file = File::create(shard_path(&self.dir, self.n_shards))?;
        file.write_all(&payload)?;
        file.write_all(&sum.to_le_bytes())?;
        self.n_shards += 1;
        self.buf_x.clear();
        self.buf_y.clear();
        Ok(())
    }
}

/// Drains `source` into a shard directory (the `shards pack` verb).
pub fn pack_source(
    source: &mut dyn ChunkedSource,
    dir: &Path,
    rows_per_shard: usize,
) -> Result<ShardManifest, SpeError> {
    let mut writer = ShardWriter::create(dir, source.n_features(), rows_per_shard)?;
    let mut chunk = Chunk::new(source.n_features());
    source.reset()?;
    while source.next_chunk(&mut chunk)? {
        writer.push_chunk(&chunk)?;
    }
    writer.finish()
}

/// Reads a shard directory as a [`ChunkedSource`], one shard per
/// chunk, verifying every shard's checksum and header. A shard of zero
/// rows is skipped, and the stream ends in [`SpeError::ShardCorrupt`]
/// unless its shards held the manifest's `total_rows`.
pub struct ShardReader {
    dir: PathBuf,
    manifest: ShardManifest,
    next_shard: usize,
    /// Rows read since the stream's start.
    rows_read: u64,
}

impl ShardReader {
    /// Opens a packed shard directory.
    pub fn open(dir: &Path) -> Result<Self, SpeError> {
        let manifest = ShardManifest::read(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest,
            next_shard: 0,
            rows_read: 0,
        })
    }

    /// The directory's manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Reads shard `index` into `out`. The file's bytes live only for
    /// this call, so the reader holds no shard-sized buffer between
    /// chunks.
    fn read_shard(&self, index: usize, out: &mut Chunk) -> Result<(), SpeError> {
        let path = shard_path(&self.dir, index);
        let bytes = fs::read(&path)?;
        decode_shard(&path, &bytes, self.manifest.n_features, out)
    }
}

/// Verifies one shard file's bytes and appends its rows to `out`.
fn decode_shard(
    path: &Path,
    bytes: &[u8],
    n_features: usize,
    out: &mut Chunk,
) -> Result<(), SpeError> {
    if bytes.len() < HEADER_BYTES + 8 {
        return Err(corrupt(path, "file too short for a shard header"));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    if payload[..4] != SHARD_MAGIC {
        return Err(corrupt(path, "bad magic bytes"));
    }
    let version = u32::from_le_bytes(payload[4..8].try_into().unwrap());
    if version != SHARD_VERSION {
        return Err(corrupt(path, version_error(version.into())));
    }
    if checksum(payload) != u64::from_le_bytes(tail.try_into().unwrap()) {
        return Err(corrupt(path, "checksum mismatch"));
    }
    let n_rows = u64::from_le_bytes(payload[8..16].try_into().unwrap());
    let shard_features = u32::from_le_bytes(payload[16..20].try_into().unwrap()) as usize;
    if shard_features != n_features {
        return Err(corrupt(
            path,
            format!("shard has {shard_features} features, manifest says {n_features}"),
        ));
    }
    let body = &payload[HEADER_BYTES..];
    // The header is untrusted: a row count near u64::MAX must be a
    // typed error, not an overflow.
    let expect = usize::try_from(n_rows)
        .ok()
        .and_then(|n| n.checked_mul(n_features)?.checked_mul(8)?.checked_add(n));
    if expect != Some(body.len()) {
        return Err(corrupt(
            path,
            format!(
                "payload is {} bytes, header says {n_rows} rows of {n_features} features",
                body.len()
            ),
        ));
    }
    let n_rows = n_rows as usize;
    let (labels, features) = body.split_at(n_rows);
    if let Some(r) = labels.iter().position(|&label| label > 1) {
        return Err(corrupt(
            path,
            format!("label {} at row {r} is not 0/1", labels[r]),
        ));
    }
    out.extend_from_le_bytes(labels, features);
    Ok(())
}

impl ChunkedSource for ShardReader {
    fn n_features(&self) -> usize {
        self.manifest.n_features
    }

    fn chunk_rows(&self) -> usize {
        self.manifest.rows_per_shard
    }

    fn total_rows_hint(&self) -> Option<u64> {
        Some(self.manifest.total_rows)
    }

    fn reset(&mut self) -> Result<(), SpeError> {
        self.next_shard = 0;
        self.rows_read = 0;
        Ok(())
    }

    fn next_chunk(&mut self, out: &mut Chunk) -> Result<bool, SpeError> {
        out.clear();
        while self.next_shard < self.manifest.n_shards {
            self.read_shard(self.next_shard, out)?;
            self.next_shard += 1;
            self.rows_read += out.rows() as u64;
            if !out.is_empty() {
                return Ok(true);
            }
        }
        if self.rows_read != self.manifest.total_rows {
            return Err(corrupt(
                &self.dir.join(MANIFEST_NAME),
                format!(
                    "shards hold {} rows, manifest says total_rows {}",
                    self.rows_read, self.manifest.total_rows
                ),
            ));
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::DatasetChunks;
    use crate::dataset::Dataset;
    use crate::matrix::Matrix;
    use crate::rng::SeededRng;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("spe-shard-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_dataset(rows: usize, cols: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(rows, cols);
        let mut y = Vec::new();
        let mut row = vec![0.0; cols];
        for i in 0..rows {
            for v in row.iter_mut() {
                *v = rng.normal(0.0, 3.0);
            }
            x.push_row(&row);
            y.push(u8::from(i % 7 == 0));
        }
        Dataset::new(x, y)
    }

    fn drain(src: &mut dyn ChunkedSource) -> (Vec<f64>, Vec<u8>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut chunk = Chunk::new(src.n_features());
        while src.next_chunk(&mut chunk).unwrap() {
            xs.extend_from_slice(chunk.x().as_slice());
            ys.extend_from_slice(chunk.y());
        }
        (xs, ys)
    }

    #[test]
    fn pack_and_read_round_trips_bit_exactly() {
        let dir = tmp_dir("roundtrip");
        let data = sample_dataset(103, 4, 1);
        let manifest = pack_source(&mut DatasetChunks::new(&data, 13), &dir, 25).unwrap();
        assert_eq!(manifest.total_rows, 103);
        assert_eq!(manifest.n_shards, 5, "103 rows in 25-row shards");
        assert_eq!(manifest.n_features, 4);
        let mut reader = ShardReader::open(&dir).unwrap();
        let (xs, ys) = drain(&mut reader);
        assert_eq!(xs, data.x().as_slice());
        assert_eq!(ys, data.y());
        // Reset replays identically.
        reader.reset().unwrap();
        let (xs2, _) = drain(&mut reader);
        assert_eq!(xs2, xs);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_shard_is_detected() {
        let dir = tmp_dir("corrupt");
        let data = sample_dataset(40, 2, 2);
        pack_source(&mut DatasetChunks::new(&data, 10), &dir, 20).unwrap();
        // Flip one byte in the middle of the second shard.
        let victim = shard_path(&dir, 1);
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&victim, bytes).unwrap();
        let mut reader = ShardReader::open(&dir).unwrap();
        let mut chunk = Chunk::new(2);
        assert!(reader.next_chunk(&mut chunk).unwrap());
        let err = reader.next_chunk(&mut chunk).unwrap_err();
        match err {
            SpeError::ShardCorrupt { path, reason } => {
                assert!(path.contains("shard_00001"), "{path}");
                assert_eq!(reason, "checksum mismatch");
            }
            other => panic!("expected ShardCorrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_shard_is_detected() {
        let dir = tmp_dir("truncated");
        let data = sample_dataset(10, 2, 3);
        pack_source(&mut DatasetChunks::new(&data, 10), &dir, 10).unwrap();
        let victim = shard_path(&dir, 0);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 5]).unwrap();
        let mut reader = ShardReader::open(&dir).unwrap();
        let mut chunk = Chunk::new(2);
        assert!(matches!(
            reader.next_chunk(&mut chunk),
            Err(SpeError::ShardCorrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_bad_manifest_is_typed() {
        let dir = tmp_dir("nomanifest");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(ShardReader::open(&dir), Err(SpeError::Io(_))));
        fs::write(dir.join(MANIFEST_NAME), "spe-shards 99\nfeatures 1\n").unwrap();
        assert!(matches!(
            ShardReader::open(&dir),
            Err(SpeError::ShardCorrupt { .. })
        ));
        // A set packed in format version 1 asks to be re-packed.
        fs::write(
            dir.join(MANIFEST_NAME),
            "spe-shards 1\nfeatures 2\nrows_per_shard 10\ntotal_rows 10\nshards 1\n",
        )
        .unwrap();
        match ShardReader::open(&dir) {
            Err(SpeError::ShardCorrupt { reason, .. }) => {
                assert!(reason.contains("version 1"), "{reason}");
                assert!(reason.contains("spe_score pack"), "{reason}");
            }
            other => panic!("expected ShardCorrupt, got {:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A shard file with the given header and body and a valid checksum.
    fn shard_bytes(n_rows: u64, n_features: u32, body: &[u8]) -> Vec<u8> {
        let mut bytes = SHARD_MAGIC.to_vec();
        bytes.extend_from_slice(&SHARD_VERSION.to_le_bytes());
        bytes.extend_from_slice(&n_rows.to_le_bytes());
        bytes.extend_from_slice(&n_features.to_le_bytes());
        bytes.extend_from_slice(body);
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    fn decode(bytes: &[u8], n_features: usize) -> Result<Chunk, SpeError> {
        let mut chunk = Chunk::new(n_features);
        decode_shard(Path::new("shard_00000.bin"), bytes, n_features, &mut chunk)?;
        Ok(chunk)
    }

    fn corrupt_reason(result: Result<Chunk, SpeError>) -> String {
        match result {
            Err(SpeError::ShardCorrupt { reason, .. }) => reason,
            Err(other) => panic!("expected ShardCorrupt, got {other:?}"),
            Ok(chunk) => panic!("expected ShardCorrupt, decoded {} rows", chunk.rows()),
        }
    }

    /// Writes a shard set of the given per-shard row counts (one
    /// feature, the row index as its value) under a manifest claiming
    /// `total_rows`.
    fn write_set(dir: &Path, shard_rows: &[u64], total_rows: u64) {
        fs::create_dir_all(dir).unwrap();
        let mut next = 0.0f64;
        for (i, &rows) in shard_rows.iter().enumerate() {
            let mut body = vec![0u8; rows as usize];
            for _ in 0..rows {
                body.extend_from_slice(&next.to_le_bytes());
                next += 1.0;
            }
            fs::write(shard_path(dir, i), shard_bytes(rows, 1, &body)).unwrap();
        }
        ShardManifest {
            n_features: 1,
            rows_per_shard: 3,
            total_rows,
            n_shards: shard_rows.len(),
        }
        .write(dir)
        .unwrap();
    }

    #[test]
    fn zero_row_shard_does_not_end_the_stream() {
        let dir = tmp_dir("zero-row-shard");
        write_set(&dir, &[3, 0, 3], 6);
        let mut reader = ShardReader::open(&dir).unwrap();
        let (xs, ys) = drain(&mut reader);
        assert_eq!(xs, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(ys.len(), 6);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rows_short_of_the_manifest_total_are_corrupt() {
        let dir = tmp_dir("short-total");
        write_set(&dir, &[3, 0, 3], 7);
        let mut reader = ShardReader::open(&dir).unwrap();
        let mut chunk = Chunk::new(1);
        let mut rows = 0;
        let err = loop {
            match reader.next_chunk(&mut chunk) {
                Ok(true) => rows += chunk.rows(),
                Ok(false) => panic!("stream ended without an error after {rows} rows"),
                Err(e) => break e,
            }
        };
        assert_eq!(rows, 6);
        match err {
            SpeError::ShardCorrupt { reason, .. } => {
                assert!(
                    reason.contains("6 rows") && reason.contains("7"),
                    "{reason}"
                )
            }
            other => panic!("expected ShardCorrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_mid_stream_restarts_the_row_count() {
        let dir = tmp_dir("reset-mid-stream");
        write_set(&dir, &[3, 0, 3], 6);
        let mut reader = ShardReader::open(&dir).unwrap();
        let mut chunk = Chunk::new(1);
        assert!(reader.next_chunk(&mut chunk).unwrap());
        assert_eq!(chunk.rows(), 3);
        reader.reset().unwrap();
        let (xs, _) = drain(&mut reader);
        assert_eq!(xs, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn huge_header_row_count_is_typed_not_an_overflow() {
        let bytes = shard_bytes(u64::MAX / 2, 2, &[0; 17]);
        let reason = corrupt_reason(decode(&bytes, 2));
        assert!(reason.contains("header says"), "{reason}");
    }

    #[test]
    fn bad_label_names_its_row() {
        let mut body = vec![0, 1, 0, 2, 1];
        body.extend((0..10).flat_map(|i| f64::from(i).to_le_bytes()));
        let reason = corrupt_reason(decode(&shard_bytes(5, 2, &body), 2));
        assert_eq!(reason, "label 2 at row 3 is not 0/1");
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let dir = tmp_dir("flips");
        let data = sample_dataset(3, 2, 4);
        pack_source(&mut DatasetChunks::new(&data, 3), &dir, 3).unwrap();
        let bytes = fs::read(shard_path(&dir, 0)).unwrap();
        assert_eq!(bytes.len(), HEADER_BYTES + 3 + 3 * 2 * 8 + 8);
        let chunk = decode(&bytes, 2).unwrap();
        assert_eq!(chunk.x().as_slice(), data.x().as_slice());
        assert_eq!(chunk.y(), data.y());
        // Header, labels, features and the stored checksum alike.
        for i in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut flipped = bytes.clone();
                flipped[i] ^= mask;
                corrupt_reason(decode(&flipped, 2));
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paired_top_bit_flips_are_detected() {
        // Bit 7 of a byte at payload offset 8j + 7 is the top bit of
        // checksum word j. Two such flips, in one lane (32 bytes apart)
        // or across lanes (8 bytes apart), must not cancel. Word 0 ends
        // in the version, which is checked before the checksum.
        let dir = tmp_dir("top_bits");
        let data = sample_dataset(11, 3, 5);
        pack_source(&mut DatasetChunks::new(&data, 11), &dir, 11).unwrap();
        let bytes = fs::read(shard_path(&dir, 0)).unwrap();
        let whole_blocks = (bytes.len() - 8) / 32 * 32;
        assert!(whole_blocks >= 256, "{whole_blocks}");
        let top_bytes: Vec<usize> = (15..whole_blocks).step_by(8).collect();
        for (k, &i) in top_bytes.iter().enumerate() {
            for &j in &top_bytes[k + 1..] {
                let mut flipped = bytes.clone();
                flipped[i] ^= 0x80;
                flipped[j] ^= 0x80;
                assert_eq!(
                    corrupt_reason(decode(&flipped, 3)),
                    "checksum mismatch",
                    "flips at {i} and {j}"
                );
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_degenerate_config_and_ragged_rows() {
        let dir = tmp_dir("degenerate");
        assert!(matches!(
            ShardWriter::create(&dir, 0, 10),
            Err(SpeError::InvalidConfig(_))
        ));
        let mut w = ShardWriter::create(&dir, 2, 10).unwrap();
        assert!(matches!(
            w.push_row(&[1.0], 0),
            Err(SpeError::DimensionMismatch { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
