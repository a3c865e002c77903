//! `spe_benchmark`: end-to-end and per-layer benchmark of the
//! self-paced ensemble, measured from outside the program.
//!
//! ```text
//! spe_benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out F] [--smoke]
//! spe_benchmark compare A B [--bench BENCHMARK.json]
//! ```
//!
//! Each run makes the workload's inputs from the seed, then measures
//! the workload in a child process of its own, so the peak resident set
//! it reports belongs to that workload alone. It prints every metric as
//! `workload metric value unit` and, last, one JSON result line. Without
//! `--workload` every workload runs in turn. `--trace 1` reports the
//! per-layer metrics instead of the end-to-end ones and writes the spans
//! to `target/spe_benchmark/trace-<workload>-<seed>.jsonl`. `--out F`
//! appends each result, stamped with the machine context, to `F`;
//! `compare` checks two such files against the bounds in
//! `BENCHMARK.json`. The exit code is 1 when a correctness check fails.

mod compare;
mod fit;
mod json;
mod loadgen;
mod metrics;
mod score;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{Outcome, WORKLOADS};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;
use workloads::Sizes;

const USAGE: &str =
    "usage: spe_benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out F] [--smoke]
       spe_benchmark compare A B [--bench BENCHMARK.json]
workloads: fit-skewed fit-multiclass fit-oocore score-small score-bulk";

/// Where inputs and traces go, relative to the working directory.
const WORK_DIR: &str = "target/spe_benchmark";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    /// Set in the measured child: the directory holding its inputs.
    child: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        smoke: false,
        child: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                args.workloads.push(w.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds wants a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--child" => args.child = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        if args.child.is_some() {
            return Err("--child needs --workload".into());
        }
        args.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let bench = match argv.get(3).map(String::as_str) {
            Some("--bench") => argv.get(4).cloned(),
            Some(_) => None,
            None => Some("BENCHMARK.json".to_string()),
        };
        return match (argv.get(1), argv.get(2), bench) {
            (Some(a), Some(b), Some(bench)) => match compare::run(a, b, &bench) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.child {
        Some(dir) => child(&args, dir),
        None => parent(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Measured child: runs one workload on prepared inputs and prints its
/// outcome as one JSON line.
fn child(args: &Args, dir: &Path) -> Result<bool, Box<dyn std::error::Error>> {
    let workload = args.workloads[0].as_str();
    let sizes = Sizes::new(args.smoke);
    let tracer = args.trace.then(Tracer::new);
    let outcome: Outcome = if let Some(kind) = fit::Kind::parse(workload) {
        fit::run(kind, &sizes, dir, args.seed, args.seconds, tracer.clone())?
    } else if let Some(kind) = score::Kind::parse(workload) {
        score::run(kind, &sizes, dir, args.seconds, tracer.clone())?
    } else {
        return Err(format!("unknown workload {workload}").into());
    };
    if let Some(t) = &tracer {
        t.write_jsonl(&trace_path(workload, args.seed))?;
    }
    println!("{}", outcome.to_json(args.trace));
    Ok(true)
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(WORK_DIR).join(format!("trace-{workload}-{seed}.jsonl"))
}

fn parent(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    let sizes = Sizes::new(args.smoke);
    let mut all_correct = true;
    for workload in &args.workloads {
        let dir = Path::new(WORK_DIR).join(format!("{workload}-{}", args.seed));
        let _ = std::fs::remove_dir_all(&dir);
        let result = workloads::prepare(workload, &sizes, args.seed, &dir)
            .map_err(|e| format!("preparing {workload}: {e}"))
            .and_then(|()| measure(args, workload, &dir));
        let _ = std::fs::remove_dir_all(&dir);
        let result = result?;

        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or_default()
        {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{workload} {name} {value} {unit}");
        }
        for c in result
            .get("checks")
            .and_then(Json::as_array)
            .unwrap_or_default()
        {
            if c.get("ok") != Some(&Json::Bool(true)) {
                let what = c.get("check").and_then(Json::as_str).unwrap_or("?");
                eprintln!("{workload}: check failed: {what}");
            }
        }
        let correct = result.get("correct") == Some(&Json::Bool(true));
        all_correct &= correct;
        let summary = Json::Obj(
            ["correct", "attempted", "failed", "metrics"]
                .iter()
                .map(|k| (k.to_string(), result.get(k).cloned().unwrap_or(Json::Null)))
                .collect(),
        );
        if let Some(path) = &args.out {
            let mut record = summary.clone();
            record.set("workload", Json::Str(workload.clone()));
            record.set("seed", Json::Num(args.seed as f64));
            record.set("trace", Json::Bool(args.trace));
            record.set("seconds", Json::Num(args.seconds));
            record.set("context", context_json());
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(f, "{record}")?;
        }
        println!("{summary}");
    }
    Ok(all_correct)
}

/// Runs the measured child on prepared inputs and returns its outcome.
fn measure(args: &Args, workload: &str, dir: &Path) -> Result<Json, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.arg("--child")
        .arg(dir)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("running the {workload} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} child failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the child printed no result")?;
    Json::parse(last).map_err(|e| format!("the child's result does not parse: {e}"))
}

/// Machine context stamped on every recorded result: hardware threads,
/// the commit measured (when run from a git checkout) and the SIMD
/// features the build targets. Only `--out` asks for it: finding the
/// commit makes git search the directories above the working one.
fn context_json() -> Json {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let features: Vec<Json> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("fma", cfg!(target_feature = "fma")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| Json::Str(name.to_string()))
    .collect();
    Json::Obj(vec![
        ("nproc".into(), Json::Num(workloads::nproc() as f64)),
        ("commit".into(), Json::Str(commit)),
        ("target_features".into(), Json::Arr(features)),
    ])
}
