//! Graceful degradation: structured records of sweep points that failed.
//!
//! A multi-hour reproduction run fans hundreds of independent sweep points
//! over worker threads; before this module, one panicking point poisoned the
//! whole `thread::scope` and a wedged point hung the run with no diagnosis.
//! In fail-soft mode (see [`crate::Workbench::set_fail_soft`]) each point
//! runs under `catch_unwind` with a deadline watchdog, and a failed point
//! becomes a [`PointError`] — which sweep, which point, why, and under which
//! parameter seed — instead of an aborted run. `repro` collects these into
//! its JSON report and exits with a distinct partial-failure code, so a
//! degraded run is machine-distinguishable from both success and disaster.

use std::fmt;

/// Why a sweep point failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PointCause {
    /// The point's simulation panicked; the payload message is preserved.
    Panicked(String),
    /// The point exceeded the configured deadline. The result (if the point
    /// eventually finished) is discarded so a run's outputs never depend on
    /// *how late* a slow point was.
    TimedOut {
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for PointCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointCause::Panicked(msg) => write!(f, "panicked: {msg}"),
            PointCause::TimedOut { limit_ms } => {
                write!(f, "exceeded the {limit_ms} ms point deadline")
            }
        }
    }
}

/// Structured record of one failed sweep point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointError {
    /// The sweep point's site label, e.g. `"fig8/Q6/l2_line=64"`.
    pub site: String,
    /// What went wrong.
    pub cause: PointCause,
    /// The trace parameter seed the point ran under (`seed_base` of the
    /// workload), so the failure is replayable in isolation.
    pub seed: u64,
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (seed {}): {}", self.site, self.seed, self.cause)
    }
}

impl PointError {
    /// Renders the error as a JSON object for the bench report. A cause is a
    /// panic message — `assert_eq!` ones span lines — so strings are escaped
    /// in full: `"` and `\`, and every control character.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"site\": {}, \"cause\": {}, \"seed\": {}}}",
            json_string(&self.site),
            json_string(&self.cause.to_string()),
            self.seed
        )
    }
}

/// `s` as a quoted JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_site_cause_and_seed() {
        let e = PointError {
            site: "fig8/Q6/l2_line=64".into(),
            cause: PointCause::Panicked("boom".into()),
            seed: 7,
        };
        assert_eq!(e.to_string(), "fig8/Q6/l2_line=64 (seed 7): panicked: boom");
        let json = e.to_json();
        assert!(json.contains("\"site\": \"fig8/Q6/l2_line=64\""));
        assert!(json.contains("\"seed\": 7"));
    }

    #[test]
    fn json_escapes_quotes() {
        let e = PointError {
            site: "a\"b".into(),
            cause: PointCause::TimedOut { limit_ms: 250 },
            seed: 0,
        };
        assert!(e.to_json().contains(r#"a\"b"#));
        assert!(e.to_string().contains("250 ms"));
    }
}
