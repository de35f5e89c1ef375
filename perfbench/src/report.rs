//! Metrics as the benchmark reports them: a validated name, a unit, a
//! value that is `None` when its base is zero, and the base count a
//! ratio was taken over.

use std::fmt::Write as _;

/// Longest metric name accepted.
const MAX_NAME: usize = 64;

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= MAX_NAME
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `num / base`, or `None` when the base is zero: a rate over nothing is
/// not a rate, so it is reported as `null` instead of a huge or zero
/// number.
pub fn ratio(num: f64, base: f64) -> Option<f64> {
    (base != 0.0).then(|| num / base)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Validated metric name.
    pub name: String,
    /// Unit, e.g. `s`, `us`, `1/s`, `count`, `frac`.
    pub unit: &'static str,
    /// The value; `None` for a ratio whose base is zero.
    pub value: Option<f64>,
    /// For a ratio: the base it was taken over (name, value).
    pub base: Option<(&'static str, f64)>,
}

impl Metric {
    /// A plain measured value.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name (a bug in the benchmark itself).
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::new(name.into(), unit, Some(value), None)
    }

    /// `num / base` reported with its base; `null` when the base is zero.
    pub fn ratio(
        name: impl Into<String>,
        unit: &'static str,
        num: f64,
        base_name: &'static str,
        base: f64,
    ) -> Metric {
        Metric::new(name.into(), unit, ratio(num, base), Some((base_name, base)))
    }

    /// A metric whose value may be absent for a reason other than a zero
    /// base (e.g. no offered rate met the latency limit).
    pub fn maybe(name: impl Into<String>, unit: &'static str, value: Option<f64>) -> Metric {
        Metric::new(name.into(), unit, value, None)
    }

    fn new(
        name: String,
        unit: &'static str,
        value: Option<f64>,
        base: Option<(&'static str, f64)>,
    ) -> Metric {
        assert!(valid_name(&name), "invalid metric name {name:?}");
        Metric {
            name,
            unit,
            value,
            base,
        }
    }

    /// Exact equality of value and base, bit for bit: the determinism
    /// checks compare modelled numbers and counts this way.
    pub fn same_bits(&self, other: &Metric) -> bool {
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        self.name == other.name
            && bits(self.value) == bits(other.value)
            && self.base.map(|(n, b)| (n, b.to_bits())) == other.base.map(|(n, b)| (n, b.to_bits()))
    }

    /// One human-readable report line.
    pub fn line(&self) -> String {
        let mut s = format!(
            "{:<36} {:>18} {}",
            self.name,
            json_number(self.value),
            self.unit
        );
        if let Some((name, base)) = self.base {
            let _ = write!(s, "  (base {name} = {})", json_number(Some(base)));
        }
        s
    }
}

/// Render a value as a JSON number with all its digits, or `null`.
fn json_number(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:?}"),
        _ => "null".to_string(),
    }
}

/// Render the final result line: `correct`, `attempted`, `failed`, and
/// the named metrics as `{"value": v, "unit": u}` objects, in order.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Median of a sample (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let n = values.len().max(1) as f64;
    (values.iter().map(|v| v.ln()).sum::<f64>() / n).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated() {
        for ok in ["setup_s", "sim.replay_s.NdpEtOpt", "a", "9x", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        let long = "x".repeat(MAX_NAME + 1);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            "q\"",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_name(&"x".repeat(MAX_NAME)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_is_rejected_at_construction() {
        Metric::value("bad name", "s", 1.0);
    }

    #[test]
    fn zero_base_rates_are_null() {
        assert_eq!(ratio(5.0, 0.0), None);
        assert_eq!(ratio(0.0, 0.0), None);
        assert_eq!(ratio(3.0, 4.0), Some(0.75));
        let m = Metric::ratio("sim.skip_frac", "frac", 10.0, "sim.cycles_total", 0.0);
        assert_eq!(m.value, None);
        assert_eq!(m.base, Some(("sim.cycles_total", 0.0)));
        assert!(m.line().contains("null"));
        assert!(m.line().contains("base sim.cycles_total = 0.0"));
    }

    #[test]
    fn result_line_shape() {
        let a = Metric::value("setup_s", "s", 0.8127);
        let b = Metric::maybe("x", "count", None);
        let line = result_json(true, 10, 0, &[&a, &b]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"x\": {\"value\": null, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn medians_and_geomeans() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bitwise_comparison_distinguishes_values() {
        let a = Metric::value("n", "count", 1.0);
        let b = Metric::value("n", "count", 1.0 + f64::EPSILON);
        assert!(a.same_bits(&a.clone()));
        assert!(!a.same_bits(&b));
    }
}
