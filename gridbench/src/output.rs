//! The one-line JSON result the benchmark prints last.

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Renders the result line. Every value is finite (JSON has no NaN).
pub fn render(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}
