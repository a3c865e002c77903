//! Workload and metric names, and the result a workload hands back.
//! `BENCHMARK.json` lists the same names; a unit test keeps them equal.

use crate::json::Json;
use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 5] = [
    "fit-skewed",
    "fit-multiclass",
    "fit-oocore",
    "score-small",
    "score-bulk",
];

/// End-to-end metrics: what a user of the program sees. Every workload
/// reports every one; an "operation" is one fit on fit-* and one
/// request on score-*.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MiB"),
    ("aucprc", "score"),
    ("macro_f1", "score"),
];

/// Per-layer metrics of the traced run. Every workload reports every
/// one; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("spe_learners.fit_s", "s"),
    ("spe_learners.fit_calls", "count"),
    ("spe_learners.fit_rows", "rows"),
    ("spe_learners.predict_s", "s"),
    ("spe_learners.predict_rows", "rows"),
    ("spe_core.self_s", "s"),
    ("spe_core.round_overhead_s", "s"),
    ("spe_core.sample_s", "s"),
    ("spe_core.members_trained_frac", "fraction"),
    ("spe_core.spill_bytes", "bytes"),
    ("spe_core.rss_budget_ratio", "ratio"),
    ("spe_data.sanitize_s", "s"),
    ("spe_data.bin_index_s", "s"),
    ("spe_data.source_s", "s"),
    ("spe_data.source_chunks", "count"),
    ("spe_data.sketch_s", "s"),
    ("spe_data.encode_s", "s"),
    ("spe_server.handle_us", "us"),
    ("spe_server.parse_render_us", "us"),
    ("spe_server.shed", "count"),
    ("spe_server.deadline_misses", "count"),
    ("spe_serve.queue_us", "us"),
    ("spe_serve.score_into_us", "us"),
    ("spe_serve.rows_per_batch", "rows"),
    ("spe_serve.batch_fill", "fraction"),
    ("spe_serve.p50_batch_us", "us"),
    ("spe_serve.p99_batch_us", "us"),
    ("spe_serve.queue_high_water", "rows"),
    ("httpd.transport_us", "us"),
    ("loadgen.max_late_ms", "ms"),
    ("loadgen.achieved_rps", "1/s"),
    ("trace.overhead_frac", "fraction"),
];

/// What a workload run produced: metric values, the operation count,
/// and every correctness check it made.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Result document for one run. The traced run reports the
    /// per-layer metrics, the untraced run the end-to-end ones. An
    /// end-to-end metric the run failed to produce fails the run; an
    /// unexercised layer reads 0.
    pub fn to_json(&self, traced: bool) -> Json {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.correct();
        let mut metrics = Vec::new();
        for &(name, unit) in list {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if traced => 0.0,
                _ => {
                    correct = false;
                    f64::NAN
                }
            };
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            ));
        }
        let checks = self
            .checks
            .iter()
            .map(|(what, ok)| {
                Json::Obj(vec![
                    ("check".into(), Json::Str(what.clone())),
                    ("ok".into(), Json::Bool(*ok)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
            ("checks".into(), Json::Arr(checks)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads and metrics this program reports, with the same units.
    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, Option<String>)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        m.get("unit").and_then(Json::as_str).map(str::to_string),
                    )
                })
                .collect()
        };
        let want = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut o = Outcome::default();
        o.check("ok", true);
        for (name, _) in END_TO_END.iter().skip(1) {
            o.set(name, 1.0);
        }
        assert_eq!(o.to_json(false).get("correct"), Some(&Json::Bool(false)));
        o.set("setup_s", 0.5);
        assert_eq!(o.to_json(false).get("correct"), Some(&Json::Bool(true)));
        // Unexercised layers read 0 and do not fail the traced run.
        assert_eq!(o.to_json(true).get("correct"), Some(&Json::Bool(true)));
    }
}
