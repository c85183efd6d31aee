//! L2 — every `catch_unwind` in library non-test code declares its
//! recovery contract.
//!
//! The other half of the panic-freedom contract — no `unwrap()` /
//! `expect()` / `panic!` on input — is clippy's (`unwrap_used`,
//! `expect_used`, `panic` in the root `Cargo.toml`). What no clippy lint
//! checks is a containment boundary: it changes what a panic means for
//! every callee beneath it (the process no longer aborts, so state left
//! behind by an unwound frame becomes observable), so each one must
//! declare its recovery contract with a `// lint: panic-boundary(reason)`
//! comment.

use crate::findings::{Finding, Rule};
use crate::rules::FileContext;

/// How many lines above a flagged site the escape comment may sit.
const LOOKBACK: u32 = 3;

/// Runs L2 on one file.
#[must_use]
pub fn check(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = ctx.tokens();
    for i in 0..tokens.len() {
        if !ctx.is_checked_code(i) {
            continue;
        }
        let t = &tokens[i];
        let boundary =
            t.is_ident("catch_unwind") && i + 1 < tokens.len() && tokens[i + 1].is_punct('(');
        if !boundary || ctx.lexed.has_escape(t.line, "panic-boundary", LOOKBACK) {
            continue;
        }
        out.push(Finding {
            rule: Rule::L2PanicFree,
            file: ctx.path.to_path_buf(),
            line: t.line,
            message: "`catch_unwind` in library non-test code; a containment boundary makes \
                      unwound state observable, so declare its recovery contract with \
                      `// lint: panic-boundary(reason)`"
                .to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileContext;
    use crate::workspace::CrateKind;
    use std::path::Path;

    fn run(src: &str) -> Vec<Finding> {
        check(&FileContext::new(
            Path::new("t.rs"),
            src,
            CrateKind::Library,
        ))
    }

    #[test]
    fn test_code_is_exempt() {
        let f = run("#[cfg(test)]\nmod tests { fn t() { let r = catch_unwind(|| work()); } }");
        assert!(f.is_empty());
    }

    #[test]
    fn catch_unwind_requires_boundary_tag() {
        let f = run("fn f() { let r = catch_unwind(|| work()); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("panic-boundary"), "{}", f[0].message);
    }

    #[test]
    fn boundary_tag_suppresses_catch_unwind() {
        let f = run(
            "fn f() {\n// lint: panic-boundary(worker supervisor; batch rolls back on unwind)\n\
             let r = catch_unwind(|| work());\n}",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn bare_catch_unwind_ident_is_not_a_boundary() {
        // A `use` import mentions the name without opening a call.
        let f = run("use std::panic::{catch_unwind, AssertUnwindSafe};");
        assert!(f.is_empty());
    }
}
