//! Bookkeeping shared by the plain and the traced run: the time budget,
//! failure counting and the metrics a run reports.

use dtn_sim::sweep::panic_message;
use dtn_validate::ReportFingerprint;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The measuring budget of one run, from process start.
pub struct Budget {
    start: Instant,
    secs: f64,
}

impl Budget {
    pub fn new(secs: f64) -> Budget {
        Budget {
            start: Instant::now(),
            secs,
        }
    }

    /// Whether to start another repetition: always until `min` are done,
    /// then while one more of the longest seen so far still fits.
    pub fn another(&self, done: usize, min: usize, longest_rep_s: f64) -> bool {
        done < min || self.start.elapsed().as_secs_f64() + longest_rep_s <= self.secs
    }
}

/// Counts attempted and failed operations. A failure is a panic, an
/// error, or an output that differs from the workload's reference.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Runs one attempted operation under panic isolation; a panic or an
    /// `Err` counts as failed and is reported on stderr.
    pub fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(payload) => format!("panicked: {}", panic_message(payload.as_ref())),
        };
        self.failed += 1;
        eprintln!("FAILED {what}: {err}");
        None
    }

    /// Counts `n` operations that were run by someone else (sweep cells)
    /// together with the `failed` among them.
    pub fn record(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// Pins the first fingerprint seen and compares every later one with it.
pub fn same_fingerprint(
    reference: &mut Option<ReportFingerprint>,
    got: &ReportFingerprint,
) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(got.clone());
            Ok(())
        }
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!(
            "fingerprint differs from the workload's reference:\n{}",
            want.diff(got).join("\n")
        )),
    }
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The result line: one JSON object with every metric. Non-finite
    /// values have no JSON form and are reported as an error instead.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_count_errors_and_panics() {
        let mut c = Checks::default();
        assert_eq!(c.attempt("ok", || Ok::<_, String>(3)), Some(3));
        assert_eq!(c.attempt("err", || Err::<(), _>("no".to_string())), None);
        assert_eq!(
            c.attempt("panic", || -> Result<(), String> { panic!("boom") }),
            None
        );
        assert_eq!((c.attempted, c.failed), (3, 2));
    }

    #[test]
    fn json_line_shape() {
        let mut o = Outcome::default();
        o.checks.record(4, 1);
        o.put("run_s", 0.25, "s");
        assert_eq!(
            o.to_json().expect("finite"),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"run_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.put("bad", f64::NAN, "s");
        assert!(o.to_json().is_err());
    }
}
