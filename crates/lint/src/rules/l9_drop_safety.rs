//! L9 — `Drop` impls must not lock, do fallible I/O, send, or panic.
//!
//! `drop` runs at scope exit — including during unwinds and at arbitrary
//! points in lock-ordering terms — and it cannot report failure. A `Drop`
//! that flushes, fsyncs, sends on a channel, or takes a lock either loses
//! errors silently (the PR 6 `BufferedConcurrent` bug: a failed flush in
//! `Drop` silently discarded updates) or deadlocks/aborts at the worst
//! possible moment. The enforced pattern is a consuming `close(self) ->
//! Result<..>` for the fallible path, with `Drop` as a best-effort,
//! infallible backstop.
//!
//! Escape: `// lint: drop-ok(reason)` — for deliberate last-resort
//! backstops whose failure is recorded rather than reported.

use crate::findings::{Finding, Rule};
use crate::rules::FileContext;

/// How many lines above a flagged site the escape comment may sit.
const LOOKBACK: u32 = 3;

/// Fallible-I/O methods that have no business in a destructor.
const FALLIBLE_IO: [&str; 5] = ["flush", "sync_all", "sync_data", "fsync", "write_all"];

/// Runs L9 on one file.
#[must_use]
pub fn check(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = ctx.tokens();
    // Lock acquisitions inside Drop bodies.
    for g in &ctx.guards {
        let i = g.acquire_idx;
        if !ctx.drop_mask[i] || !ctx.is_checked_code(i) {
            continue;
        }
        if ctx.lexed.has_escape(g.line, "drop-ok", LOOKBACK) {
            continue;
        }
        out.push(Finding {
            rule: Rule::L9DropSafety,
            file: ctx.path.to_path_buf(),
            line: g.line,
            message: format!(
                "`.{}()` inside a Drop impl; destructors run during unwinds and at \
                 arbitrary lock-order points — move the work to a consuming close(), \
                 or justify with `// lint: drop-ok(reason)`",
                g.kind.method()
            ),
        });
    }
    // Sends, fallible I/O, and panics inside Drop bodies.
    for i in 0..tokens.len() {
        if !ctx.drop_mask[i] || !ctx.is_checked_code(i) {
            continue;
        }
        let t = &tokens[i];
        let is_method_call = i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        let blocking_or_unwrap = t.is_ident("send")
            || FALLIBLE_IO.contains(&t.text.as_str())
            || t.is_ident("unwrap")
            || t.is_ident("expect");
        let flagged = (blocking_or_unwrap && is_method_call)
            || (t.is_ident("panic") && tokens.get(i + 1).is_some_and(|n| n.is_punct('!')));
        if !flagged {
            continue;
        }
        if ctx.lexed.has_escape(t.line, "drop-ok", LOOKBACK) {
            continue;
        }
        let what = if t.is_ident("panic") {
            "`panic!`".to_string()
        } else {
            format!("`.{}()`", t.text)
        };
        let why = if t.is_ident("send") {
            "a send can block or fail after the receiver is gone"
        } else if t.is_ident("unwrap") || t.is_ident("expect") || t.is_ident("panic") {
            "a panic in drop during an unwind aborts the process"
        } else {
            "its error has nowhere to go"
        };
        out.push(Finding {
            rule: Rule::L9DropSafety,
            file: ctx.path.to_path_buf(),
            line: t.line,
            message: format!(
                "{what} inside a Drop impl; {why} — move the fallible path to a \
                 consuming close(), or justify with `// lint: drop-ok(reason)`"
            ),
        });
    }
    out.sort_by_key(|f| f.line);
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
    fn lock_in_drop_fires() {
        let f = run("impl Drop for A { fn drop(&mut self) { let g = self.m.lock(); } }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains(".lock()"), "{}", f[0].message);
    }

    #[test]
    fn send_and_flush_in_drop_fire() {
        let f = run(
            "impl Drop for A { fn drop(&mut self) { self.tx.send(Job::Stop); \
             let _ = self.w.flush(); } }",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn panic_and_unwrap_in_drop_fire() {
        let f = run(
            "impl Drop for A { fn drop(&mut self) { self.h.take().unwrap(); panic!(\"x\"); } }",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn same_calls_outside_drop_are_clean() {
        let f = run(
            "impl A { fn close(mut self) -> R { self.tx.send(Job::Stop); \
             let g = self.m.lock(); self.w.flush() } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn other_trait_impls_are_not_drop() {
        let f = run("impl Flush for A { fn go(&mut self) { self.w.flush(); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn escape_hatch_suppresses() {
        let f = run("impl Drop for A { fn drop(&mut self) {\n\
             // lint: drop-ok(best-effort backstop; loss recorded in lost_updates)\n\
             let _ = self.w.flush(); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = run(
            "#[cfg(test)]\nmod tests { impl Drop for T { fn drop(&mut self) { \
             self.tx.send(1); } } }",
        );
        assert!(f.is_empty());
    }
}
