//! Chunk-at-a-time data sources for out-of-core training.
//!
//! A [`ChunkedSource`] yields a dataset as a sequence of fixed-row-
//! budget [`Chunk`]s and can be rewound for multi-pass algorithms. The
//! out-of-core SPE fit streams a source twice: pass 1 feeds quantile
//! sketches (bin grids) and collects the minority class, pass 2
//! u8-encodes each chunk against the finished grids. Peak memory is
//! bounded by one chunk plus per-row sidecars — never the dataset.
//!
//! Two sources live here: [`ChunkedCsv`] streams a labelled CSV file
//! with the exact parsing/error semantics of
//! [`read_dataset`](crate::csv::read_dataset) (absolute 1-based line
//! numbers included), and [`DatasetChunks`] adapts an in-memory
//! [`Dataset`] for parity testing. The binary shard reader in
//! [`crate::shards`] is a third.

use std::fs::File;
use std::io::{BufRead, BufReader, Lines};
use std::path::{Path, PathBuf};

use crate::csv::CsvLayout;
use crate::dataset::Dataset;
use crate::error::SpeError;
use crate::matrix::Matrix;

/// One streamed block of labelled rows. Designed for reuse: sources
/// fill a caller-owned chunk via [`ChunkedSource::next_chunk`], so the
/// feature buffer is allocated once and recycled across the stream.
#[derive(Clone, Debug)]
pub struct Chunk {
    x: Matrix,
    y: Vec<u8>,
}

impl Chunk {
    /// An empty chunk for `n_features`-wide rows.
    pub fn new(n_features: usize) -> Self {
        Self {
            x: Matrix::with_capacity(0, n_features),
            y: Vec::new(),
        }
    }

    /// An empty chunk preallocated for `rows` rows — memory-budgeted
    /// consumers size the buffer once (typically to
    /// [`ChunkedSource::chunk_rows`]) so refills never trigger the
    /// doubling growth of an amortized push, which can transiently
    /// double the working set.
    pub fn with_capacity(n_features: usize, rows: usize) -> Self {
        Self {
            x: Matrix::with_capacity(rows, n_features),
            y: Vec::with_capacity(rows),
        }
    }

    /// Feature rows of this chunk.
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// Labels aligned with [`Self::x`].
    pub fn y(&self) -> &[u8] {
        &self.y
    }

    /// Rows currently held.
    pub fn rows(&self) -> usize {
        self.y.len()
    }

    /// Row width.
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Appends one labelled row.
    ///
    /// # Panics
    /// Panics if `features.len()` disagrees with the chunk width.
    pub fn push_row(&mut self, features: &[f64], label: u8) {
        self.x.push_row(features);
        self.y.push(label);
    }

    /// Appends one row per label in `labels`, the rows' features read
    /// from `features` as little-endian `f64`s, row after row.
    ///
    /// # Panics
    /// Panics if `features` does not hold exactly `labels.len()` rows.
    pub(crate) fn extend_from_le_bytes(&mut self, labels: &[u8], features: &[u8]) {
        self.x.extend_from_le_bytes(labels.len(), features);
        self.y.extend_from_slice(labels);
    }

    /// Removes every row, keeping allocations for the next fill.
    pub fn clear(&mut self) {
        self.x.clear_rows();
        self.y.clear();
    }
}

/// A rewindable stream of labelled row chunks.
pub trait ChunkedSource {
    /// Feature columns every chunk carries.
    fn n_features(&self) -> usize;

    /// Target rows per chunk (the final chunk may be shorter).
    fn chunk_rows(&self) -> usize;

    /// Total rows in the stream, when known upfront.
    fn total_rows_hint(&self) -> Option<u64> {
        None
    }

    /// Rewinds the stream to its first chunk.
    fn reset(&mut self) -> Result<(), SpeError>;

    /// Clears `out` and fills it with the next chunk. Returns `false`
    /// (leaving `out` empty) when the stream is exhausted.
    fn next_chunk(&mut self, out: &mut Chunk) -> Result<bool, SpeError>;
}

/// Streams a labelled CSV file chunk by chunk.
///
/// Parsing matches [`read_dataset`](crate::csv::read_dataset) cell for
/// cell: header-driven label column, empty cells read as `0.0`, blank
/// lines skipped, and every error a typed [`SpeError`] carrying the
/// absolute 1-based line number — a bad row in chunk 40 reports its
/// real file position.
pub struct ChunkedCsv {
    path: PathBuf,
    chunk_rows: usize,
    layout: CsvLayout,
    lines: Lines<BufReader<File>>,
    /// 1-based file line number of the next line to read.
    next_line_no: usize,
    row_buf: Vec<f64>,
}

impl ChunkedCsv {
    /// Opens `path` and parses its header. `chunk_rows` is the row
    /// budget per chunk.
    pub fn open(path: &Path, chunk_rows: usize) -> Result<Self, SpeError> {
        if chunk_rows == 0 {
            return Err(SpeError::InvalidConfig(
                "chunk_rows must be at least 1".into(),
            ));
        }
        let (layout, lines) = Self::open_after_header(path)?;
        let n_features = layout.n_features();
        Ok(Self {
            path: path.to_path_buf(),
            chunk_rows,
            layout,
            lines,
            next_line_no: 2,
            row_buf: vec![0.0; n_features],
        })
    }

    fn open_after_header(path: &Path) -> Result<(CsvLayout, Lines<BufReader<File>>), SpeError> {
        let reader = BufReader::new(File::open(path)?);
        let mut lines = reader.lines();
        let header = lines.next().ok_or(SpeError::CsvMalformed {
            line: 0,
            reason: "empty CSV".into(),
        })??;
        Ok((CsvLayout::from_header(&header)?, lines))
    }
}

impl ChunkedSource for ChunkedCsv {
    fn n_features(&self) -> usize {
        self.layout.n_features()
    }

    fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    fn reset(&mut self) -> Result<(), SpeError> {
        let (layout, lines) = Self::open_after_header(&self.path)?;
        self.layout = layout;
        self.lines = lines;
        self.next_line_no = 2;
        Ok(())
    }

    fn next_chunk(&mut self, out: &mut Chunk) -> Result<bool, SpeError> {
        out.clear();
        while out.rows() < self.chunk_rows {
            let Some(line) = self.lines.next() else {
                break;
            };
            let line_no = self.next_line_no;
            self.next_line_no += 1;
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let label = self.layout.parse_row(&line, line_no, &mut self.row_buf)?;
            // Out-of-core training is binary-only: k-class labels are
            // a typed error here, not silently accepted.
            if label > 1 {
                return Err(SpeError::CsvBadLabel {
                    line: line_no,
                    value: label.to_string(),
                });
            }
            out.push_row(&self.row_buf, label);
        }
        Ok(!out.is_empty())
    }
}

/// Adapts an in-memory [`Dataset`] to the [`ChunkedSource`] interface —
/// the reference source for chunked-vs-in-memory parity tests.
pub struct DatasetChunks<'a> {
    data: &'a Dataset,
    chunk_rows: usize,
    pos: usize,
}

impl<'a> DatasetChunks<'a> {
    /// Streams `data` in chunks of `chunk_rows`.
    pub fn new(data: &'a Dataset, chunk_rows: usize) -> Self {
        Self {
            data,
            chunk_rows: chunk_rows.max(1),
            pos: 0,
        }
    }
}

impl ChunkedSource for DatasetChunks<'_> {
    fn n_features(&self) -> usize {
        self.data.n_features()
    }

    fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    fn total_rows_hint(&self) -> Option<u64> {
        Some(self.data.len() as u64)
    }

    fn reset(&mut self) -> Result<(), SpeError> {
        self.pos = 0;
        Ok(())
    }

    fn next_chunk(&mut self, out: &mut Chunk) -> Result<bool, SpeError> {
        out.clear();
        let end = (self.pos + self.chunk_rows).min(self.data.len());
        for r in self.pos..end {
            out.push_row(self.data.x().row(r), self.data.y()[r]);
        }
        self.pos = end;
        Ok(!out.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tmp(name: &str, contents: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("spe-chunked-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    /// Drains a source into one dataset (test helper).
    fn drain(src: &mut dyn ChunkedSource) -> (Matrix, Vec<u8>, Vec<usize>) {
        let mut x = Matrix::with_capacity(0, src.n_features());
        let mut y = Vec::new();
        let mut sizes = Vec::new();
        let mut chunk = Chunk::new(src.n_features());
        while src.next_chunk(&mut chunk).unwrap() {
            sizes.push(chunk.rows());
            for r in 0..chunk.rows() {
                x.push_row(chunk.x().row(r));
                y.push(chunk.y()[r]);
            }
        }
        (x, y, sizes)
    }

    #[test]
    fn chunks_split_mid_dataset_with_short_final_chunk() {
        let mut body = String::from("a,b,label\n");
        for i in 0..7 {
            body.push_str(&format!("{i},{},{}\n", i * 2, i % 2));
        }
        let path = write_tmp("boundary.csv", &body);
        let mut src = ChunkedCsv::open(&path, 3).unwrap();
        let (x, y, sizes) = drain(&mut src);
        assert_eq!(sizes, vec![3, 3, 1], "7 rows in budget-3 chunks");
        assert_eq!(x.rows(), 7);
        assert_eq!(y, vec![0, 1, 0, 1, 0, 1, 0]);
        assert_eq!(x.row(6), &[6.0, 12.0]);
    }

    #[test]
    fn exact_multiple_of_chunk_budget_has_no_empty_tail() {
        let path = write_tmp("exact.csv", "a,label\n1,0\n2,1\n3,0\n4,1\n");
        let mut src = ChunkedCsv::open(&path, 2).unwrap();
        let (_, y, sizes) = drain(&mut src);
        assert_eq!(sizes, vec![2, 2]);
        assert_eq!(y.len(), 4);
        // And the stream stays exhausted.
        let mut chunk = Chunk::new(1);
        assert!(!src.next_chunk(&mut chunk).unwrap());
    }

    #[test]
    fn empty_trailing_and_interior_lines_are_skipped() {
        let path = write_tmp("blanks.csv", "a,label\n1,0\n\n2,1\n   \n\n3,0\n\n\n");
        let mut src = ChunkedCsv::open(&path, 2).unwrap();
        let (x, y, sizes) = drain(&mut src);
        assert_eq!(y, vec![0, 1, 0]);
        assert_eq!(x.rows(), 3);
        assert_eq!(sizes, vec![2, 1]);
    }

    #[test]
    fn errors_carry_absolute_line_numbers_across_chunks() {
        // The bad float sits on file line 6, inside the *second* chunk.
        let path = write_tmp("badline.csv", "a,label\n1,0\n2,1\n3,0\n4,1\nbad,0\n");
        let mut src = ChunkedCsv::open(&path, 3).unwrap();
        let mut chunk = Chunk::new(1);
        assert!(src.next_chunk(&mut chunk).unwrap());
        assert_eq!(
            src.next_chunk(&mut chunk).unwrap_err(),
            SpeError::CsvBadFloat {
                line: 6,
                cell: "bad".into()
            }
        );
    }

    #[test]
    fn bad_labels_and_ragged_rows_survive_chunking() {
        let p1 = write_tmp("badlabel.csv", "a,label\n1,0\n2,7\n");
        let mut src = ChunkedCsv::open(&p1, 10).unwrap();
        let mut chunk = Chunk::new(1);
        assert_eq!(
            src.next_chunk(&mut chunk).unwrap_err(),
            SpeError::CsvBadLabel {
                line: 3,
                value: "7".into()
            }
        );
        let p2 = write_tmp("ragged.csv", "a,b,label\n1,2,0\n1,1\n");
        let mut src = ChunkedCsv::open(&p2, 10).unwrap();
        let mut chunk = Chunk::new(2);
        assert_eq!(
            src.next_chunk(&mut chunk).unwrap_err(),
            SpeError::CsvRaggedRow {
                line: 3,
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn reset_replays_the_stream_identically() {
        let path = write_tmp("reset.csv", "a,label\n1,0\n2,1\n3,0\n4,1\n5,0\n");
        let mut src = ChunkedCsv::open(&path, 2).unwrap();
        let (x1, y1, s1) = drain(&mut src);
        src.reset().unwrap();
        let (x2, y2, s2) = drain(&mut src);
        assert_eq!(x1.as_slice(), x2.as_slice());
        assert_eq!(y1, y2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn chunked_read_matches_whole_file_reader() {
        let mut body = String::from("f0,f1,label\n");
        for i in 0..53 {
            body.push_str(&format!(
                "{}.5,{},{}\n",
                i,
                -(i as i64),
                u8::from(i % 5 == 0)
            ));
        }
        let path = write_tmp("parity.csv", &body);
        let whole = crate::csv::read_dataset(&path).unwrap();
        let mut src = ChunkedCsv::open(&path, 7).unwrap();
        let (x, y, _) = drain(&mut src);
        assert_eq!(x.as_slice(), whole.x().as_slice());
        assert_eq!(y, whole.y());
    }

    #[test]
    fn dataset_chunks_round_trip() {
        let data = Dataset::new(
            Matrix::from_vec(5, 2, vec![0., 1., 2., 3., 4., 5., 6., 7., 8., 9.]),
            vec![1, 0, 0, 1, 0],
        );
        let mut src = DatasetChunks::new(&data, 2);
        assert_eq!(src.total_rows_hint(), Some(5));
        let (x, y, sizes) = drain(&mut src);
        assert_eq!(sizes, vec![2, 2, 1]);
        assert_eq!(x.as_slice(), data.x().as_slice());
        assert_eq!(y, data.y());
        src.reset().unwrap();
        let (x2, ..) = drain(&mut src);
        assert_eq!(x2.as_slice(), data.x().as_slice());
    }

    #[test]
    fn zero_chunk_rows_is_rejected() {
        let path = write_tmp("zero.csv", "a,label\n1,0\n");
        assert!(matches!(
            ChunkedCsv::open(&path, 0),
            Err(SpeError::InvalidConfig(_))
        ));
    }
}
