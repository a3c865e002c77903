//! CLI args, table rendering, CSV output and cross-validation for
//! experiment binaries.

use crate::methods::FitFn;
use spe_data::{stratified_k_fold, Dataset, SanitizePolicy, Sanitizer, SpeError};
use spe_metrics::MetricSet;
use std::path::PathBuf;

/// Common experiment arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Independent repetitions.
    pub runs: usize,
    /// Dataset-size multiplier.
    pub scale: f64,
    /// Reduced settings for smoke runs.
    pub quick: bool,
}

impl Args {
    /// Parses `--runs N`, `--scale F` and `--quick` from `std::env`.
    /// `default_runs` differs per experiment (heavier ones default
    /// lower; the paper's protocol is 10).
    ///
    /// Exits the process with a friendly message (status 2) on a bad
    /// command line; use [`Args::try_parse_from`] for an error value.
    pub fn parse(default_runs: usize) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::try_parse_from(default_runs, &argv).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: [--runs N] [--scale F] [--quick]");
            std::process::exit(2);
        })
    }

    /// Parses experiment arguments from an explicit argv slice,
    /// reporting problems as [`SpeError::InvalidConfig`] instead of
    /// panicking.
    pub fn try_parse_from(default_runs: usize, argv: &[String]) -> Result<Self, SpeError> {
        let mut out = Self {
            runs: default_runs,
            scale: 1.0,
            quick: false,
        };
        let mut args = argv.iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--runs" => {
                    out.runs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| SpeError::InvalidConfig("--runs needs an integer".into()))?;
                }
                "--scale" => {
                    out.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| SpeError::InvalidConfig("--scale needs a number".into()))?;
                }
                "--quick" => out.quick = true,
                other => {
                    return Err(SpeError::InvalidConfig(format!(
                        "unknown argument {other}; supported: --runs N --scale F --quick"
                    )));
                }
            }
        }
        if out.runs == 0 {
            return Err(SpeError::InvalidConfig("--runs must be positive".into()));
        }
        // NaN must fail too, so test the accepting range rather than `<= 0`.
        if out.scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(SpeError::InvalidConfig("--scale must be positive".into()));
        }
        Ok(out)
    }

    /// Applies the size multiplier to a default sample count.
    pub fn sized(&self, default: usize) -> usize {
        (((default as f64) * self.scale).round() as usize).max(100)
    }
}

/// Stratified k-fold cross-validation, folds trained in parallel on the
/// shared runtime.
///
/// Returns one [`MetricSet`] per fold, in fold order. Each fold trains
/// on its own seed forked from `seed` with [`spe_runtime::fork_seed`],
/// so the result is bit-identical for every thread count (including
/// `SPE_THREADS=1`).
pub fn cross_validate(fit: &FitFn, data: &Dataset, k: usize, seed: u64) -> Vec<MetricSet> {
    try_cross_validate(fit, data, k, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-tolerant [`cross_validate`]: rejects dirty input up front with
/// a typed error and converts a panic inside any fold into
/// [`SpeError::Panicked`] naming the fold, instead of unwinding through
/// (and aborting) the whole benchmark run.
pub fn try_cross_validate(
    fit: &FitFn,
    data: &Dataset,
    k: usize,
    seed: u64,
) -> Result<Vec<MetricSet>, SpeError> {
    // Benchmarks never want silent repair: a non-finite cell in a
    // generated dataset is a bug upstream, so always Reject.
    Sanitizer::new(SanitizePolicy::Reject).sanitize(data)?;
    let folds = stratified_k_fold(data, k, seed);
    let fold_seeds = spe_runtime::fork_seeds(seed, folds.len());
    spe_runtime::try_par_map_indexed(folds.len(), |i| {
        let (train, test) = &folds[i];
        let model = fit(train, fold_seeds[i]);
        MetricSet::evaluate(test.y(), &model.predict_proba(test.x()))
    })
    .into_iter()
    .enumerate()
    .map(|(i, r)| {
        r.map_err(|p| SpeError::Panicked {
            context: format!("cv fold {i}"),
            message: p.message,
        })
    })
    .collect()
}

/// Peak resident set size of this process in bytes — the high-water
/// mark over the whole process lifetime (`VmHWM` from
/// `/proc/self/status`). Returns 0 on platforms without procfs, so
/// callers should treat 0 as "unknown", not "tiny".
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kib: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kib * 1024;
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Merges `"key": section` into the top-level object of a benchmark
/// JSON file, replacing any existing entry for `key` (so re-running a
/// section-producing bench is idempotent) and creating the file if it
/// does not exist. `section` must itself be a JSON value.
///
/// This is string surgery, not a JSON parser: it assumes the file is
/// the object our benches write (brace-free strings, `key` unique in
/// the document).
pub fn merge_bench_section(
    path: &std::path::Path,
    key: &str,
    section: &str,
) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_else(|_| String::from("{}"));
    let base = remove_json_key(&existing, key);
    let trimmed = base.trim_end();
    let json = match trimmed.strip_suffix('}') {
        Some(head) => {
            let head = head.trim_end();
            let sep = if head.ends_with('{') { "" } else { "," };
            format!("{head}{sep}\n  \"{key}\": {section}\n}}\n")
        }
        None => format!("{{\n  \"{key}\": {section}\n}}\n"),
    };
    std::fs::write(path, json)
}

/// Removes `"key": <value>` (object or scalar) plus its separating
/// comma from a JSON document. Returns the input unchanged when the
/// key is absent.
fn remove_json_key(json: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let Some(start) = json.find(&needle) else {
        return json.to_string();
    };
    let bytes = json.as_bytes();
    let mut i = start + needle.len();
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    let mut end = i;
    if end < bytes.len() && bytes[end] == b'{' {
        let mut depth = 0usize;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
    } else {
        while end < bytes.len() && !matches!(bytes[end], b',' | b'}' | b'\n') {
            end += 1;
        }
    }
    // Take the comma that separated this entry from its neighbour:
    // the trailing one if the entry wasn't last, else the leading one.
    let mut head_cut = start;
    let mut j = end;
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    if j < bytes.len() && bytes[j] == b',' {
        end = j + 1;
        // Also take the entry's own indentation and leading newline so
        // removal doesn't leave a blank line behind.
        while head_cut > 0 && matches!(bytes[head_cut - 1], b' ' | b'\t') {
            head_cut -= 1;
        }
        if head_cut > 0 && bytes[head_cut - 1] == b'\n' {
            head_cut -= 1;
        }
    } else {
        let mut k = start;
        while k > 0 && bytes[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        if k > 0 && bytes[k - 1] == b',' {
            head_cut = k - 1;
        }
    }
    format!("{}{}", &json[..head_cut], &json[end..])
}

/// Directory for experiment CSVs (`target/experiments`).
pub fn experiments_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; workspace target is two up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    root.join("target").join("experiments")
}

/// An experiment result table: fixed columns, appendable string rows,
/// renderable to stdout and CSV.
#[derive(Clone, Debug)]
pub struct ExperimentTable {
    id: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Creates a table with the experiment id (used as the CSV name).
    pub fn new(id: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(j, h)| {
                self.rows
                    .iter()
                    .map(|r| r[j].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            println!("{}", joined.join("  "));
        };
        line(&self.headers);
        for r in &self.rows {
            line(r);
        }
    }

    /// Writes `target/experiments/<id>.csv`.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let path = experiments_dir().join(format!("{}.csv", self.id));
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        spe_data::csv::write_csv_strings(&path, &headers, &self.rows)?;
        Ok(path)
    }

    /// Prints and saves, logging the CSV path.
    pub fn finish(&self, title: &str) {
        self.print(title);
        match self.save() {
            Ok(p) => println!("→ saved {}", p.display()),
            Err(e) => eprintln!("! failed to save CSV: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut t = ExperimentTable::new("unit-test-table", &["a", "b"]);
        t.push_row(vec!["1".into(), "x".into()]);
        t.push_row(vec!["22".into(), "yy".into()]);
        let path = t.save().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("a,b\n"));
        assert!(text.contains("22,yy"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = ExperimentTable::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn cross_validate_runs_every_fold_deterministically() {
        use crate::methods::learner_fit;
        use spe_data::{Matrix, SeededRng};
        use spe_learners::DecisionTreeConfig;

        let mut rng = SeededRng::new(5);
        let mut x = Matrix::with_capacity(240, 2);
        let mut y = Vec::new();
        for _ in 0..200 {
            x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
        }
        y.resize(y.len() + 200, 0);
        for _ in 0..40 {
            x.push_row(&[rng.normal(2.0, 0.5), rng.normal(2.0, 0.5)]);
        }
        y.resize(y.len() + 40, 1);
        let data = Dataset::new(x, y);

        let fit = learner_fit(DecisionTreeConfig::with_depth(3));
        let a = cross_validate(&fit, &data, 4, 9);
        assert_eq!(a.len(), 4);
        for m in &a {
            assert!(m.aucprc > 0.0);
        }
        // Same seed → bit-identical metrics regardless of scheduling.
        let b = cross_validate(&fit, &data, 4, 9);
        for (ma, mb) in a.iter().zip(&b) {
            assert_eq!(ma.aucprc.to_bits(), mb.aucprc.to_bits());
            assert_eq!(ma.f1.to_bits(), mb.f1.to_bits());
        }
    }

    #[test]
    fn try_cross_validate_reports_fold_panics_and_dirty_data() {
        use spe_data::Matrix;
        use spe_learners::traits::Model;

        let mut x = Matrix::with_capacity(40, 1);
        let mut y = Vec::new();
        for i in 0..40 {
            x.push_row(&[i as f64]);
            y.push(u8::from(i % 4 == 0));
        }
        let data = Dataset::new(x, y);

        let boom: FitFn = Box::new(|_train: &Dataset, _seed: u64| -> Box<dyn Model> {
            panic!("fold exploded");
        });
        let err = try_cross_validate(&boom, &data, 4, 1).unwrap_err();
        assert!(matches!(err, SpeError::Panicked { .. }));
        assert!(err.to_string().contains("cv fold"));
        assert!(err.to_string().contains("fold exploded"));

        let mut dirty = data.clone();
        dirty.x_mut().row_mut(3)[0] = f64::NAN;
        let fit: FitFn = Box::new(|_train: &Dataset, _seed: u64| -> Box<dyn Model> {
            unreachable!("sanitizer must reject before any fold runs")
        });
        assert_eq!(
            try_cross_validate(&fit, &dirty, 4, 1).unwrap_err(),
            SpeError::NonFiniteFeature { row: 3, col: 0 }
        );
    }

    #[test]
    fn try_parse_from_reports_bad_args() {
        let ok = Args::try_parse_from(3, &["--runs".into(), "5".into(), "--quick".into()]).unwrap();
        assert_eq!(ok.runs, 5);
        assert!(ok.quick);
        for argv in [
            vec!["--runs".to_string()],
            vec!["--runs".to_string(), "abc".to_string()],
            vec!["--scale".to_string(), "0".to_string()],
            vec!["--bogus".to_string()],
        ] {
            assert!(
                matches!(
                    Args::try_parse_from(3, &argv),
                    Err(SpeError::InvalidConfig(_))
                ),
                "{argv:?}"
            );
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // Any live process has touched at least a megabyte.
            assert!(rss > 1 << 20, "VmHWM parse broke: {rss}");
        }
    }

    #[test]
    fn merge_bench_section_creates_appends_and_replaces() {
        let dir = std::env::temp_dir().join(format!("spe-merge-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");

        // Create from nothing.
        merge_bench_section(&path, "alpha", "{\n    \"v\": 1\n  }").unwrap();
        let t = std::fs::read_to_string(&path).unwrap();
        assert!(t.contains("\"alpha\""), "{t}");

        // Append a second key, keep the first.
        merge_bench_section(&path, "beta", "{\n    \"v\": 2\n  }").unwrap();
        let t = std::fs::read_to_string(&path).unwrap();
        assert!(t.contains("\"alpha\"") && t.contains("\"beta\""), "{t}");

        // Replace, not duplicate, on re-run.
        merge_bench_section(&path, "alpha", "{\n    \"v\": 9\n  }").unwrap();
        let t = std::fs::read_to_string(&path).unwrap();
        assert_eq!(t.matches("\"alpha\"").count(), 1, "{t}");
        assert!(t.contains("\"v\": 9") && t.contains("\"v\": 2"), "{t}");
        // Still a balanced object.
        assert_eq!(
            t.matches('{').count(),
            t.matches('}').count(),
            "unbalanced braces: {t}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_json_key_handles_first_middle_last() {
        let doc = "{\n  \"a\": { \"x\": 1 },\n  \"b\": 2,\n  \"c\": { \"y\": { \"z\": 3 } }\n}\n";
        for key in ["a", "b", "c"] {
            let out = remove_json_key(doc, key);
            assert!(!out.contains(&format!("\"{key}\"")), "{key}: {out}");
            assert_eq!(out.matches('{').count(), out.matches('}').count(), "{out}");
            assert!(
                !out.contains("\n  \n") && !out.contains("\n\n"),
                "removal left a blank line: {out:?}"
            );
        }
        assert_eq!(remove_json_key(doc, "missing"), doc);
    }

    #[test]
    fn sized_scales_and_floors() {
        let a = Args {
            runs: 1,
            scale: 0.5,
            quick: false,
        };
        assert_eq!(a.sized(10_000), 5_000);
        assert_eq!(a.sized(50), 100);
    }
}
