//! # treegion-bench
//!
//! The `bench_sched` binary (`src/bin/bench_sched.rs`) times the
//! scheduling kernels through the [`treegion::Pipeline`] driver, the
//! end-to-end evaluation harness, the serve daemon and the striped disk
//! cache, writes `BENCH_sched.json`, and gates each kernel against the
//! committed baseline (`--regress`). This library holds the binary's
//! testable pieces: the benchmark module and the pure regression gate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use treegion_ir::Module;

/// A small deterministic module for benchmarking (compress-like).
pub fn bench_module() -> Module {
    treegion_workloads::generate(&treegion_workloads::spec_suite()[0])
}

/// Extracts the number following `"key": ` from hand-rolled bench JSON.
/// Good enough for the files `bench_sched` itself writes; `None` when the
/// key is absent (e.g. an older baseline missing a new kernel).
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One kernel's verdict from the `--regress` gate: the observed value
/// against `bound ×` the committed baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct RegressVerdict {
    /// Kernel key as it appears in the baseline JSON.
    pub kernel: String,
    /// This run's measurement.
    pub observed: f64,
    /// The committed baseline value (`None` when the baseline predates
    /// the kernel — skipped, never failed).
    pub baseline: Option<f64>,
    /// The regression bound the gate enforces (e.g. 1.3).
    pub bound: f64,
}

impl RegressVerdict {
    /// observed ÷ allowed (`bound × baseline`); > 1.0 is a failure.
    /// `None` when the baseline is missing or non-positive.
    pub fn ratio_of_allowed(&self) -> Option<f64> {
        let base = self.baseline?;
        if base <= 0.0 {
            return None;
        }
        Some(self.observed / (self.bound * base))
    }

    /// Whether this kernel regressed past the bound.
    pub fn failed(&self) -> bool {
        self.ratio_of_allowed().is_some_and(|r| r > 1.0)
    }

    /// One human-readable gate line, naming the kernel and the
    /// observed/allowed ratio — what `--regress` prints per kernel.
    pub fn render(&self) -> String {
        let Some(base) = self.baseline else {
            return format!(
                "bench_sched: regress: baseline has no `{}`, skipping",
                self.kernel
            );
        };
        match self.ratio_of_allowed() {
            Some(r) if r > 1.0 => format!(
                "bench_sched: FAIL: kernel `{}` {:.2} exceeds {}x baseline ({:.2}): \
                 observed/allowed = {r:.2}",
                self.kernel, self.observed, self.bound, base
            ),
            Some(r) => format!(
                "bench_sched: regress ok: {} {:.2} <= {} x {:.2} (observed/allowed = {r:.2})",
                self.kernel, self.observed, self.bound, base
            ),
            None => format!(
                "bench_sched: regress: baseline `{}` is non-positive, skipping",
                self.kernel
            ),
        }
    }
}

/// Compares each `(kernel, observed)` pair against `baseline_json` under
/// the per-kernel `bound`. Pure — the binary prints each verdict's
/// [`RegressVerdict::render`] line and exits non-zero if any
/// [`RegressVerdict::failed`].
pub fn regress_verdicts(
    baseline_json: &str,
    bound: f64,
    kernels: &[(&str, f64)],
) -> Vec<RegressVerdict> {
    kernels
        .iter()
        .map(|&(key, observed)| RegressVerdict {
            kernel: key.to_string(),
            observed,
            baseline: json_number(baseline_json, key),
            bound,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{ "ns_per_op": { "list_sched": 100.0, "pressure_track": 200.0 } }"#;

    #[test]
    fn json_number_reads_keys_and_skips_absent_ones() {
        assert_eq!(json_number(BASELINE, "list_sched"), Some(100.0));
        assert_eq!(json_number(BASELINE, "pressure_track"), Some(200.0));
        assert_eq!(json_number(BASELINE, "missing_kernel"), None);
    }

    #[test]
    fn regress_verdicts_name_the_failing_kernel_and_ratio() {
        let v = regress_verdicts(
            BASELINE,
            1.3,
            &[
                ("list_sched", 120.0),     // within 1.3x of 100
                ("pressure_track", 300.0), // 300 > 1.3 * 200 = 260
                ("missing_kernel", 5.0),   // no baseline: skipped
            ],
        );
        assert!(!v[0].failed());
        assert!((v[0].ratio_of_allowed().unwrap() - 120.0 / 130.0).abs() < 1e-12);

        assert!(v[1].failed());
        let line = v[1].render();
        assert!(line.contains("pressure_track"), "{line}");
        assert!(line.contains("observed/allowed = 1.15"), "{line}");
        assert!(line.contains("FAIL"), "{line}");

        assert!(!v[2].failed());
        assert!(v[2].ratio_of_allowed().is_none());
        assert!(v[2].render().contains("skipping"));
    }
}
