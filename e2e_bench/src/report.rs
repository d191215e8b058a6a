//! Result bookkeeping: metric values with their units, the ledger of
//! attempted and failed operations, and the order statistics every
//! timing is reported with.

use bichrome_store::json::Writer;

/// Metric values in print order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets (or overwrites) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, ..)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// The metric names whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, ..)| n.as_str())
            .collect()
    }

    /// One `name value unit` line per metric.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(n, v, u)| format!("  {n:<40} {v:>16.6} {u}\n"))
            .collect()
    }

    /// The `{"name":{"value":..,"unit":..},..}` object.
    fn to_json(&self) -> String {
        let mut o = Writer::object();
        for (name, value, unit) in &self.0 {
            let mut m = Writer::object();
            m.field_f64("value", *value);
            m.field_str("unit", unit);
            o.field_raw(name, &m.finish());
        }
        o.finish()
    }
}

/// Operations attempted and failed over one benchmark run. A failed
/// output check counts as one failed operation.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed operation (already counted as attempted).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// One attempted check; a false `ok` is a failure described by
    /// `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Attempted operations so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failed operations so far.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// What failed, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The first few failure descriptions, one per line.
    pub fn render_failures(&self) -> String {
        let shown = self.failures.iter().take(20);
        let mut out: String = shown.map(|f| format!("  failed: {f}\n")).collect();
        if self.failures.len() > 20 {
            out.push_str(&format!("  ... and {} more\n", self.failures.len() - 20));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, metrics: &Metrics) -> String {
        let mut o = Writer::object();
        o.field_bool("correct", self.failures.is_empty());
        o.field_u64("attempted", self.attempted.max(1));
        o.field_u64("failed", self.failed());
        o.field_raw("metrics", &metrics.to_json());
        o.finish()
    }
}

/// The median (mean of the middle two for an even count); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile; 0 for none.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.5, "s");
        m.set("wall_s", 2.5, "s");
        let mut ledger = Ledger::default();
        ledger.attempt(3);
        ledger.check(false, || "broken".into());
        let line = ledger.result_json(&m);
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":4,"failed":1,"metrics":{"wall_s":{"value":2.5,"unit":"s"}}}"#
        );
    }
}
