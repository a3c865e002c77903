//! `spe_benchmark --smoke` end to end: every workload, untraced and
//! traced, on tiny inputs. Each run must pass its correctness checks
//! and report exactly the metrics `BENCHMARK.json` lists.

use std::path::PathBuf;
use std::process::Command;

/// Metric names listed under `key` in `BENCHMARK.json`, in order.
fn listed(doc: &str, key: &str) -> Vec<String> {
    let section = &doc[doc.find(&format!("\"{key}\"")).expect("section present")..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// Metric names of a result line, in order.
fn reported(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\":").expect("metrics present")..];
    let pieces: Vec<&str> = metrics.split("\":{\"value\":").collect();
    // Every piece but the last ends with a metric's name.
    pieces[..pieces.len() - 1]
        .iter()
        .map(|p| p.rsplit('"').next().expect("a name").to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_the_listed_metrics() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = listed(&bench, "workloads");
    assert_eq!(workloads.len(), 5);
    let cwd: PathBuf =
        std::env::temp_dir().join(format!("spe-benchmark-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temporary working directory");
    for trace in ["0", "1"] {
        let want = listed(
            &bench,
            if trace == "1" {
                "per_layer"
            } else {
                "end_to_end"
            },
        );
        for w in &workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_spe_benchmark"))
                .args([
                    "--smoke",
                    "--workload",
                    w,
                    "--seed",
                    "5",
                    "--seconds",
                    "0.3",
                    "--trace",
                    trace,
                ])
                .current_dir(&cwd)
                .output()
                .expect("spe_benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} trace {trace}: {}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\":true,"),
                "{w} trace {trace}: {last}"
            );
            assert!(last.contains("\"failed\":0,"), "{w} trace {trace}: {last}");
            assert_eq!(reported(last), want, "{w} trace {trace}");
            // One `workload metric value unit` line per metric.
            assert_eq!(
                stdout
                    .lines()
                    .filter(|l| l.starts_with(&format!("{w} ")))
                    .count(),
                want.len()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&cwd);
}
