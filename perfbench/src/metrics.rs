//! The benchmark's metric vocabulary and the result line.
//!
//! Every workload reports every end-to-end metric (each defined for each
//! workload in README.md); a traced run reports every per-layer metric,
//! with 0 for layers the workload never enters.

use crate::stats::ratio;
use std::collections::BTreeMap;
use treegion_eval::CELL_NAMES;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("suite_s", "s"),
    ("light_p50_ms", "ms"),
    ("light_p99_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("heavy_p99_ms", "ms"),
    ("max_rps", "1/s"),
    ("ok_ratio", "ratio"),
    ("code_cycles", "cycles"),
    ("code_ops", "ops"),
    ("speedup_gmean", "x"),
];

/// Per-layer metrics listed before the per-cell eval times: name and unit.
const LAYERS_HEAD: [(&str, &str); 14] = [
    ("core.form.ns_per_op", "ns/op"),
    ("core.form_td.ns_per_op", "ns/op"),
    ("core.lower.ns_per_op", "ns/op"),
    ("core.ddg.ns_per_op", "ns/op"),
    ("core.sched.ns_per_op", "ns/op"),
    ("core.verify.ns_per_op", "ns/op"),
    ("core.lowered_ops", "count"),
    ("core.ddg_edges", "count"),
    ("core.hazard_hits", "count"),
    ("core.deferral_parks", "count"),
    ("core.pressure_parks", "count"),
    ("core.spills", "count"),
    ("core.fallbacks", "count"),
    ("eval.suite_load_s", "s"),
];

/// Per-layer metrics listed after the per-cell eval times.
const LAYERS_TAIL: [(&str, &str); 21] = [
    ("eval.formation.hit_ratio", "ratio"),
    ("eval.time.hit_ratio", "ratio"),
    ("par.eval_scaling", "x"),
    ("ir.parse_us", "us"),
    ("cache.put_us", "us"),
    ("cache.get_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.shard_contention", "count"),
    ("cache.recovery_s", "s"),
    ("serve.engine_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("serve.shed", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.explained_ms", "ms"),
    ("serve.remainder_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.samples", "count"),
];

/// The per-layer metric of one eval cell (`@` is not a metric-name
/// character, so `fig13@8u` becomes `eval.cell.fig13-8u_s`).
pub fn cell_metric(cell: &str) -> String {
    format!("eval.cell.{}_s", cell.replace('@', "-"))
}

/// Every per-layer metric: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let named = |list: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        list.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let mut all = named(&LAYERS_HEAD);
    all.extend(CELL_NAMES.iter().map(|c| (cell_metric(c), "s")));
    all.extend(named(&LAYERS_TAIL));
    all
}

/// What one run measured: operation counts and metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: requests, cells, and correctness checks.
    pub attempted: u64,
    /// Failed cells, error/shed/wrong replies, connection failures, and
    /// failed correctness checks.
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A metric set earlier (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one correctness check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.ops(1, u64::from(!ok));
        if !ok {
            eprintln!("perfbench: check failed: {what}");
        }
        ok
    }

    /// The share of attempted operations that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }

    /// The result line: every end-to-end metric (`traced == false`) or
    /// every per-layer metric (`traced == true`).
    ///
    /// # Errors
    ///
    /// An end-to-end metric the workload did not set, or a value that is
    /// not a finite number — both are bugs in the benchmark.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in &names {
            let value = match (name.as_str(), self.values.get(name)) {
                ("ok_ratio", _) => self.ok_ratio(),
                (_, Some(v)) => *v,
                (_, None) if traced => 0.0,
                (_, None) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    /// `BENCHMARK.json` at the repository root.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"`/`"unit"` pairs of one top-level array of BENCHMARK.json.
    fn declared(key: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |obj: &str, f: &str| -> Option<String> {
            let at = obj.find(&format!("\"{f}\""))?;
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"')? + 1;
            let close = rest[open..].find('"')? + open;
            Some(rest[open..close].to_string())
        };
        body.split('{')
            .skip(1)
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
            .collect()
    }

    #[test]
    fn every_metric_name_uses_the_allowed_charset_once() {
        let mut seen = std::collections::BTreeSet::new();
        let e2e = END_TO_END.iter().map(|(n, _)| n.to_string());
        for name in e2e.chain(per_layer().into_iter().map(|(n, _)| n)) {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} twice");
        }
        assert_eq!(
            per_layer().len(),
            LAYERS_HEAD.len() + CELL_NAMES.len() + LAYERS_TAIL.len()
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn result_line_has_every_metric_and_the_fail_ratio() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.ops(10, 0);
        assert!(!r.check(false, "synthetic mismatch"));
        let line = r.render(false).unwrap();
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1, "),
            "{line}"
        );
        assert!(line.contains(&format!(
            "\"ok_ratio\": {{\"value\": {}, \"unit\": \"ratio\"}}",
            1.0 - 1.0 / 11.0
        )));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // Per-layer metrics a workload never enters read 0.
        let traced = Report::default().render(true).unwrap();
        assert!(
            traced.contains("\"cache.get_us\": {\"value\": 0, \"unit\": \"us\"}"),
            "{traced}"
        );
        // A missing end-to-end metric is a benchmark bug, not a zero.
        assert!(Report::default().render(false).is_err());
    }
}
