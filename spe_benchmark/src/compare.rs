//! `spe_benchmark compare A B`: do two sets of runs agree within the
//! bounds `BENCHMARK.json` fixes?
//!
//! `A` and `B` are result files written with `--out` (one JSON line per
//! run, any number of runs and workloads). For every end-to-end metric
//! and workload the median of each set is taken; `B` agrees with `A`
//! when it is no worse than `A`'s median by more than the metric's
//! bound, a share of `A`'s median.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Whether `new` is within `bound` (a share of `base`) of `base`, in
/// the metric's bad direction.
pub fn within(base: f64, new: f64, lower_is_better: bool, bound: f64) -> bool {
    if lower_is_better {
        new <= base * (1.0 + bound)
    } else {
        new >= base * (1.0 - bound)
    }
}

pub fn bounds(bench: &Json) -> Result<Vec<Bound>, String> {
    bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// (workload, metric) → values over the untraced runs in `path`.
fn load(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if run.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        for (name, m) in run
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or_default()
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Prints one row per (workload, metric) and returns whether all agree.
pub fn run(a: &str, b: &str, bench_json: &str) -> Result<bool, String> {
    let bench = std::fs::read_to_string(bench_json).map_err(|e| format!("{bench_json}: {e}"))?;
    let bounds = bounds(&Json::parse(&bench)?)?;
    let (a_runs, b_runs) = (load(a)?, load(b)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a_runs.keys().map(|k| &k.0).collect();
        w.dedup();
        w
    };
    println!(
        "{:<15} {:<12} {:>14} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound"
    );
    let mut all_ok = true;
    for w in workloads {
        for m in &bounds {
            let key = (w.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a_runs.get(&key), b_runs.get(&key)) else {
                println!("{w:<15} {:<12} missing in one set", m.name);
                all_ok = false;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let ok = within(ma, mb, m.lower_is_better, m.bound);
            all_ok &= ok;
            println!(
                "{w:<15} {:<12} {ma:>14.6} {:>6.1}% {mb:>14.6} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
                m.name,
                spread(va) * 100.0,
                spread(vb) * 100.0,
                (mb / ma - 1.0) * 100.0,
                m.bound * 100.0,
                if ok { "agree" } else { "WORSE" }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_the_bad_direction_only() {
        // Lower is better: up to +10% passes, anything faster passes.
        assert!(within(100.0, 110.0, true, 0.10));
        assert!(!within(100.0, 110.5, true, 0.10));
        assert!(within(100.0, 50.0, true, 0.10));
        // Higher is better: down to -5% passes, anything higher passes.
        assert!(within(0.80, 0.76, false, 0.05));
        assert!(!within(0.80, 0.7599, false, 0.05));
        assert!(within(0.80, 0.99, false, 0.05));
    }

    #[test]
    fn reads_bounds_from_the_benchmark_description() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                {"name":"aucprc","unit":"score","better":"higher","bound":0.05}]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b[0].lower_is_better && b[0].bound == 0.25);
        assert!(!b[1].lower_is_better && b[1].bound == 0.05);
    }
}
