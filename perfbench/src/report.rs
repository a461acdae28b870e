//! Named metrics, their labels, and the one-line JSON result.

use crate::stats::Summary;

/// What a number measures: every figure the benchmark prints says
/// whether it is host time, host thread-CPU time, or simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock time (or a rate over it).
    Wall,
    /// Host thread-CPU time (`CLOCK_THREAD_CPUTIME_ID`, read by the
    /// runtime's scheduler profile).
    ThreadCpu,
    /// Simulated device time or energy, deterministic for a seed.
    Simulated,
    /// Host memory.
    Memory,
    /// A count of events.
    Count,
    /// A ratio of two counts or times; its base is in the note.
    Ratio,
}

impl Kind {
    /// The label printed beside the value.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::Wall => "host wall",
            Kind::ThreadCpu => "host thread-CPU",
            Kind::Simulated => "simulated",
            Kind::Memory => "host memory",
            Kind::Count => "count",
            Kind::Ratio => "ratio",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: String,
    /// As measured, all digits kept.
    pub value: f64,
    /// Unit, e.g. `us`, `1/s`, `count`.
    pub unit: &'static str,
    /// What kind of quantity it is.
    pub kind: Kind,
    /// Sample count, percentile, or ratio base, for the human report.
    pub note: String,
}

impl Metric {
    /// A metric with an empty note.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, kind: Kind) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            kind,
            note: String::new(),
        }
    }

    /// The same metric with a note.
    #[must_use]
    pub fn noted(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// `<prefix>.p50`, `<prefix>.tail` and `<prefix>.n` for a timing sample
/// set (samples already in `unit`).
#[must_use]
pub fn timing(prefix: &str, unit: &'static str, kind: Kind, samples: &[f64]) -> Vec<Metric> {
    let s = Summary::of(samples);
    vec![
        Metric::new(format!("{prefix}.p50"), s.p50, unit, kind).noted(format!("median of {}", s.n)),
        Metric::new(format!("{prefix}.tail"), s.tail, unit, kind).noted(s.describe_tail()),
        Metric::new(format!("{prefix}.n"), s.n as f64, "count", Kind::Count),
    ]
}

/// Numbers as a space-separated list with one decimal, for notes.
#[must_use]
pub fn list(values: impl Iterator<Item = f64>) -> String {
    values
        .map(|v| format!("{v:.1}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 of `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The human-readable line for one metric.
#[must_use]
pub fn human_line(m: &Metric) -> String {
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!("  ({})", m.note)
    };
    format!(
        "metric {:<40} {:>16} {:<6} [{}]{note}",
        m.name,
        m.value,
        m.unit,
        m.kind.label()
    )
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// with its unit.
///
/// # Errors
///
/// Refuses a metric with an invalid name or unit, or a non-finite value.
pub fn json_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(&m.name) || !valid_unit(m.unit) {
            return Err(format!(
                "invalid metric name or unit: {} [{}]",
                m.name, m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}
