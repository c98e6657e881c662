//! Named metrics and the one-line JSON result.

use std::fmt::Write as _;

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

/// An ordered set of metrics with unique, valid names and finite values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    ///
    /// # Errors
    ///
    /// A name or unit outside the charset, a repeated name, or a value
    /// that is not finite.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) -> Result<(), String> {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!("invalid metric name or unit: {name:?} [{unit}]"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if self.get(name).is_some() {
            return Err(format!("metric {name} reported twice"));
        }
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
        Ok(())
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics in report order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// Renders the result object the last stdout line carries.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` on f64 prints the shortest round-trip form and never an
        // exponent, which is valid JSON for every finite value.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_restricted_charset() {
        for ok in [
            "ops_per_s",
            "net.msgs_per_op.block-full",
            "consensus.vote_round.self_ms_per_op",
            "0x",
            &"a".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "ünï",
            "quote\"",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("tx/sim-s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("a unit"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn push_rejects_bad_names_duplicates_and_non_finite_values() {
        let mut m = Metrics::default();
        m.push("ops_per_s", 1.5, "op/s").unwrap();
        assert!(m.push("ops_per_s", 2.0, "op/s").is_err());
        assert!(m.push("bad name", 2.0, "op/s").is_err());
        assert!(m.push("x", f64::INFINITY, "ms").is_err());
        assert!(m.push("y", f64::NAN, "ms").is_err());
        assert_eq!(m.get("ops_per_s"), Some(1.5));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms").unwrap();
        m.push("setup_s", 0.000_01, "s").unwrap();
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.00001, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            result_json(false, 1, 1, &Metrics::default()),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
