//! Result lines: named metrics with units, rendered as the one-line JSON
//! object the benchmark ends with, plus the small statistics the passes
//! share.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`s`, `ns`, `1/s`, `count`, `ratio`, ...).
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Simulation runs and checks attempted.
    pub attempted: u64,
    /// How many of them failed a check.
    pub failed: u64,
    /// Failure messages, one per failed check.
    pub errors: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Tally {
    /// Counts one attempt, failed if `errors` is non-empty.
    pub fn attempt(&mut self, what: &str, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.errors
                .extend(errors.into_iter().map(|e| format!("{what}: {e}")));
        }
    }

    /// Whether every attempt passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values become `null` (and make the run incorrect).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Median of `xs` (mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Largest of `xs`, or 0 for none.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}
