//! What one run reports: named metric values checked against the
//! declared tables, a correctness tally, and the result line.

use crate::names::{Workload, END_TO_END, PER_LAYER};

/// Operations attempted and failed, plus rule violations that are not
/// tied to one operation (a recall floor, a loss that diverged).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Tally {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a violated rule; the run then reports `correct: false`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// The metric values of one run, in declaration order.
#[derive(Debug)]
pub struct Metrics {
    traced: bool,
    workload: &'static Workload,
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set for an untraced (end-to-end) or traced (per-layer)
    /// run of `workload`.
    pub fn new(workload: &'static Workload, traced: bool) -> Self {
        let n = if traced {
            PER_LAYER.len()
        } else {
            END_TO_END.len()
        };
        Self {
            traced,
            workload,
            values: vec![None; n],
        }
    }

    fn declared(&self) -> Vec<(&'static str, &'static str, bool)> {
        if self.traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.on & self.workload.bit != 0))
                .collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit, true)).collect()
        }
    }

    /// Sets `name`. Panics on a name that is not declared for this kind
    /// of run, not measured on this workload, or already set: each is a
    /// bug in the benchmark, not a property of the program under test.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = self.declared();
        let i = declared
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared for this run"));
        assert!(
            declared[i].2,
            "metric {name} is not measured on {}",
            self.workload.name
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.values[i].replace(value).is_none(),
            "metric {name} set twice"
        );
    }

    /// Every declared metric as `(name, value, unit)`. A metric measured
    /// on this workload that was never set is an error (the `count: 0`
    /// histogram class of bug); one not measured here reads 0.
    pub fn finish(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let mut out = Vec::new();
        let mut missing = Vec::new();
        for ((name, unit, measured), value) in self.declared().into_iter().zip(&self.values) {
            match (measured, value) {
                (true, Some(v)) => out.push((name, *v, unit)),
                (true, None) => missing.push(name),
                (false, _) => out.push((name, 0.0, unit)),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(format!(
                "declared but never emitted on {}: {}",
                self.workload.name,
                missing.join(", ")
            ))
        }
    }
}

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
    )
}

/// A JSON number with every digit that was measured (Rust's shortest
/// round-trip form; never `NaN` or `inf`, which [`Metrics::set`] refuses).
pub fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{LATENCY_US, WORKLOADS};

    #[test]
    fn a_declared_metric_that_is_never_set_fails_the_run() {
        let mut m = Metrics::new(&WORKLOADS[0], false);
        m.set(LATENCY_US, 12.5);
        let err = m.finish().unwrap_err();
        assert!(
            err.contains("setup_s") && !err.contains(LATENCY_US),
            "{err}"
        );
    }

    #[test]
    fn layers_outside_the_workload_read_zero_and_cannot_be_set() {
        // serve_exact: host.* is measured, index.hnsw_* is not.
        let mut m = Metrics::new(&WORKLOADS[0], true);
        m.set("host.cpus", 2.0);
        let err = m.finish().unwrap_err();
        assert!(err.contains("host.calib_ms") && !err.contains("index.hnsw_build_s"));
        let refused = std::panic::catch_unwind(move || m.set("index.hnsw_build_s", 1.0));
        assert!(refused.is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.check(true);
        t.check(true);
        let line = result_line(&t, &[("latency_us", 1.25, "us"), ("setup_s", 2.0, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"latency_us\": {\"value\": 1.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        t.check(false);
        assert!(result_line(&t, &[])
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
        let mut v = Tally::default();
        v.check(true);
        v.require(false, || "recall floor".into());
        assert!(!v.correct());
    }
}
