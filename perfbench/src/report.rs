//! The result line: one JSON object, written by hand (the build is
//! offline and the schema is four keys deep).

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Every check passed and every metric is a finite number (a
    /// non-finite value has no JSON form).
    pub fn is_correct(&self) -> bool {
        self.correct && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line. Non-finite values are written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.is_correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {{\"value\": ", m.name);
            if m.value.is_finite() {
                let _ = write!(out, "{}", m.value);
            } else {
                out.push_str("null");
            }
            let _ = write!(out, ", \"unit\": \"{}\"}}", m.unit);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_every_digit() {
        let mut r = Report {
            correct: true,
            attempted: 256,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("latency_ms", 1.2034567891, "ms");
        r.push("count", 3.0, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 256, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn non_finite_values_fail_the_report() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            ..Report::default()
        };
        r.push("x", f64::NAN, "s");
        let json = r.to_json();
        assert!(json.starts_with("{\"correct\": false"));
        assert!(json.contains("\"value\": null"));
    }
}
