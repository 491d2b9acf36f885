//! The diagnostics engine: severities, source elements, and reporters.
//!
//! Every rule violation is a [`Diagnostic`] anchored to the design
//! [`Element`] it concerns (a gate, a register, an FSM state, …), so a
//! report is actionable without re-running the analysis. Reports render
//! either as human text (one line per finding, compiler style) or as
//! machine-readable JSON for CI.

use std::fmt;

use ga_harness::json_escape;

/// How bad a finding is. `Error` fails the build (the CLI exits
/// nonzero); `Warn` is suspicious but shippable; `Info` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory note (e.g. an intentionally unconnected input).
    Info,
    /// Suspicious construct that deserves review.
    Warn,
    /// Design-rule violation; the netlist should not ship.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// The design element a diagnostic points at — the lint analog of a
/// source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Element {
    /// The whole design (cross-cutting findings).
    Design,
    /// A gate, by index (= its output net id).
    Gate(usize),
    /// A scan register, by scan-chain position.
    Register(usize),
    /// A named primary input bus.
    InputBus(String),
    /// A named primary output bus.
    OutputBus(String),
    /// An FSM state (one-hot index + human name).
    State {
        /// State index.
        index: usize,
        /// Human-readable name (falls back to `S<idx>`).
        name: String,
    },
    /// An FSM transition, by declaration index.
    Transition(usize),
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::Design => f.write_str("design"),
            Element::Gate(i) => write!(f, "gate {i}"),
            Element::Register(i) => write!(f, "register {i}"),
            Element::InputBus(name) => write!(f, "input '{name}'"),
            Element::OutputBus(name) => write!(f, "output '{name}'"),
            Element::State { index, name } => write!(f, "state {index} ({name})"),
            Element::Transition(i) => write!(f, "transition {i}"),
        }
    }
}

/// One finding from one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that produced this finding.
    pub rule: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Anchor element.
    pub element: Element,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.element, self.message
        )
    }
}

/// All findings for one design.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Name of the linted design.
    pub design: String,
    /// Findings in rule-registry order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty report for a named design.
    pub fn new(design: impl Into<String>) -> Self {
        Report {
            design: design.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Add a finding.
    pub fn push(
        &mut self,
        rule: &'static str,
        severity: Severity,
        element: Element,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            rule,
            severity,
            element,
            message: message.into(),
        });
    }

    /// Count at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warnings.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// True if anything at `Error` severity was found.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Findings produced by a specific rule.
    pub fn by_rule(&self, rule: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// Compiler-style text rendering, one finding per line, summary
    /// header first.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "galint: {} — {} error(s), {} warning(s), {} info\n",
            self.design,
            self.error_count(),
            self.warn_count(),
            self.count(Severity::Info)
        );
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// Machine-readable JSON rendering (hand-rolled: the workspace is
    /// dependency-free by design).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"design\":\"{}\",", json_escape(&self.design)));
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"infos\":{},",
            self.error_count(),
            self.warn_count(),
            self.count(Severity::Info)
        ));
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"severity\":\"{}\",\"element\":\"{}\",\"message\":\"{}\"}}",
                json_escape(d.rule),
                d.severity,
                json_escape(&d.element.to_string()),
                json_escape(&d.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_text() {
        let mut r = Report::new("demo");
        r.push("comb-loop", Severity::Error, Element::Gate(3), "loop");
        r.push("floating-net", Severity::Warn, Element::Gate(4), "floats");
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(r.has_errors());
        let text = r.to_text();
        assert!(text.contains("error[comb-loop] gate 3: loop"));
        assert!(text.contains("1 error(s)"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = Report::new("demo\"x");
        r.push(
            "width-mismatch",
            Severity::Error,
            Element::InputBus("a\\b".into()),
            "line1\nline2",
        );
        let j = r.to_json();
        assert!(j.contains("\"design\":\"demo\\\"x\""));
        assert!(j.contains("\\\\b"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.starts_with('{') && j.ends_with('}'));
        // Balanced quotes: an even number of unescaped '"'.
        let unescaped = j.replace("\\\"", "");
        assert_eq!(unescaped.matches('"').count() % 2, 0);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }
}
