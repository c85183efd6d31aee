//! Finding model and the two output formats (human text, `--json`).

use std::fmt;
use std::path::PathBuf;

/// The eight lint classes (`L5` is retired: rustc's `missing_docs` does
/// its job). See `DESIGN.md` §7 for the full policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unordered `HashMap`/`HashSet` iteration on a report path.
    L1SortedIteration,
    /// `unwrap()`/`expect()`/`panic!` in library non-test code.
    L2PanicFree,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    L3ForbidUnsafe,
    /// Ambient randomness or wall-clock time in a sketch crate.
    L4SeededOnly,
    /// Blocking operation or user-closure call while a lock guard is live.
    L6GuardHygiene,
    /// Lock-acquisition cycle across the workspace (potential deadlock).
    L7LockOrder,
    /// Unbounded channels or unhandled `recv` results.
    L8ChannelDiscipline,
    /// Lock/IO/send/panic inside a `Drop` implementation.
    L9DropSafety,
}

impl Rule {
    /// Short stable identifier (`L1` … `L9`; a retired rule's id is never
    /// reused).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Self::L1SortedIteration => "L1",
            Self::L2PanicFree => "L2",
            Self::L3ForbidUnsafe => "L3",
            Self::L4SeededOnly => "L4",
            Self::L6GuardHygiene => "L6",
            Self::L7LockOrder => "L7",
            Self::L8ChannelDiscipline => "L8",
            Self::L9DropSafety => "L9",
        }
    }

    /// Human name of the rule.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::L1SortedIteration => "sorted-iteration",
            Self::L2PanicFree => "panic-free",
            Self::L3ForbidUnsafe => "forbid-unsafe",
            Self::L4SeededOnly => "seeded-only",
            Self::L6GuardHygiene => "guard-hygiene",
            Self::L7LockOrder => "lock-ordering",
            Self::L8ChannelDiscipline => "channel-discipline",
            Self::L9DropSafety => "drop-safety",
        }
    }

    /// The escape-hatch tag that suppresses this rule, if any.
    #[must_use]
    pub fn escape_tag(self) -> Option<&'static str> {
        match self {
            Self::L1SortedIteration => Some("sorted-iteration-ok"),
            Self::L2PanicFree => Some("panic-ok"),
            Self::L3ForbidUnsafe => Some("unsafe-audited"),
            Self::L4SeededOnly => Some("nondeterminism-ok"),
            Self::L6GuardHygiene => Some("guard-scope"),
            Self::L7LockOrder => Some("lock-order-ok"),
            Self::L8ChannelDiscipline => Some("channel-ok"),
            Self::L9DropSafety => Some("drop-ok"),
        }
    }

    /// One-line description shown by `sketches-lint rules`.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Self::L1SortedIteration => {
                "no unordered HashMap/HashSet iteration in merge/report/serialize/Hash/Eq paths \
                 (use BTreeMap or collect-and-sort; escape: `// lint: sorted-iteration-ok(reason)`)"
            }
            Self::L2PanicFree => {
                "no unwrap()/expect()/panic! in library non-test code \
                 (return SketchResult or justify: `// lint: panic-ok(reason)`)"
            }
            Self::L3ForbidUnsafe => {
                "every crate root carries #![forbid(unsafe_code)] \
                 (audited exception: #![deny(unsafe_code)] + `// lint: unsafe-audited(reason)`)"
            }
            Self::L4SeededOnly => {
                "no Instant::now/SystemTime/thread_rng/RandomState::new in sketch crates — \
                 randomness and time flow through explicit seeds (sketches-hash); \
                 escape: `// lint: nondeterminism-ok(reason)`"
            }
            Self::L6GuardHygiene => {
                "no blocking operation (send/recv/wait/join/fsync/sync_all) and no \
                 user-supplied closure call while a lock guard is live in scope \
                 (drop the guard first; escape: `// lint: guard-scope(reason)`)"
            }
            Self::L7LockOrder => {
                "no cycles in the workspace lock-acquisition graph — nested lock \
                 acquisitions must follow one global order \
                 (escape: `// lint: lock-order-ok(reason)`)"
            }
            Self::L8ChannelDiscipline => {
                "bounded channels only (no unbounded()), recv/try_recv results \
                 handled (no unwrap), disconnection arms present in select loops \
                 (escape: `// lint: channel-ok(reason)`)"
            }
            Self::L9DropSafety => {
                "Drop impls must not acquire locks, perform fallible I/O, send on \
                 channels, or panic — surface failures through a consuming close() \
                 (escape: `// lint: drop-ok(reason)`)"
            }
        }
    }

    /// All rules, in order.
    pub const ALL: [Rule; 8] = [
        Self::L1SortedIteration,
        Self::L2PanicFree,
        Self::L3ForbidUnsafe,
        Self::L4SeededOnly,
        Self::L6GuardHygiene,
        Self::L7LockOrder,
        Self::L8ChannelDiscipline,
        Self::L9DropSafety,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.id(), self.name())
    }
}

/// One violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// File the violation is in (workspace-relative where possible).
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// What went wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Version of the `--json` document shape. Bump on any breaking change to
/// the field set so CI baselines can detect a mismatch instead of silently
/// misparsing.
pub const JSON_SCHEMA_VERSION: u32 = 2;

/// Renders findings as a machine-readable JSON document.
///
/// Shape: `{"schema_version": V, "findings": [{"rule", "name", "file",
/// "line", "message"}...], "count": N, "ok": bool}` — findings sorted by
/// (file, line, rule) so CI diffs and baselines are byte-stable.
#[must_use]
pub fn to_json(findings: &[Finding]) -> String {
    let mut findings: Vec<&Finding> = findings.iter().collect();
    findings.sort_by_key(|f| (&f.file, f.line, f.rule));
    let mut out = format!("{{\n  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            f.rule.id(),
            f.rule.name(),
            json_escape(&f.file.display().to_string()),
            f.line,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"count\": {},\n  \"ok\": {}\n}}\n",
        findings.len(),
        findings.is_empty()
    ));
    out
}

/// Escapes annotation *message* data per the GitHub Actions workflow-command
/// encoding: `%` → `%25`, newline → `%0A`, carriage return → `%0D`.
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\n', "%0A")
        .replace('\r', "%0D")
}

/// Escapes annotation *property* values (file names, titles), which
/// additionally cannot contain `:` or `,`.
fn github_escape_property(s: &str) -> String {
    github_escape_data(s)
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Renders findings as GitHub Actions workflow commands
/// (`::error file=...,line=...,title=...::message`), one per line, sorted by
/// (file, line, rule). GitHub surfaces these inline on the PR diff.
#[must_use]
pub fn to_github(findings: &[Finding]) -> String {
    let mut findings: Vec<&Finding> = findings.iter().collect();
    findings.sort_by_key(|f| (&f.file, f.line, f.rule));
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "::error file={},line={},title={} {}::{}\n",
            github_escape_property(&f.file.display().to_string()),
            f.line,
            f.rule.id(),
            f.rule.name(),
            github_escape_data(&f.message)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_for_empty_and_nonempty() {
        assert!(to_json(&[]).contains("\"ok\": true"));
        let f = Finding {
            rule: Rule::L2PanicFree,
            file: PathBuf::from("a \"b\".rs"),
            line: 3,
            message: "say \"no\"\n".into(),
        };
        let j = to_json(&[f]);
        assert!(j.contains("\\\"b\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"ok\": false"));
    }

    #[test]
    fn every_rule_has_id_name_summary() {
        for r in Rule::ALL {
            assert!(!r.id().is_empty());
            assert!(!r.name().is_empty());
            assert!(!r.summary().is_empty());
        }
    }

    #[test]
    fn json_carries_schema_version_and_sorts_findings() {
        let mk = |file: &str, line: u32, rule: Rule| Finding {
            rule,
            file: PathBuf::from(file),
            line,
            message: "m".into(),
        };
        let j = to_json(&[
            mk("b.rs", 1, Rule::L2PanicFree),
            mk("a.rs", 9, Rule::L6GuardHygiene),
            mk("a.rs", 9, Rule::L1SortedIteration),
        ]);
        assert!(j.contains(&format!("\"schema_version\": {JSON_SCHEMA_VERSION}")));
        let a_l1 = j.find("\"rule\": \"L1\"").expect("L1 present");
        let a_l6 = j.find("\"rule\": \"L6\"").expect("L6 present");
        let b_l2 = j.find("\"rule\": \"L2\"").expect("L2 present");
        assert!(a_l1 < a_l6 && a_l6 < b_l2, "sorted by (file, line, rule)");
    }

    #[test]
    fn github_annotations_escape_newlines_and_commas() {
        let f = Finding {
            rule: Rule::L8ChannelDiscipline,
            file: PathBuf::from("crates/a, b/src/lib.rs"),
            line: 7,
            message: "first\nsecond % done".into(),
        };
        let g = to_github(&[f]);
        assert!(g.starts_with("::error file=crates/a%2C b/src/lib.rs,line=7,"));
        assert!(g.contains("title=L8 channel-discipline"));
        assert!(g.contains("::first%0Asecond %25 done\n"));
    }
}
