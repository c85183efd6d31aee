//! L6 — no blocking operation and no user-closure call while a guard is live.
//!
//! The PR 6 deadlock class: `BufferedConcurrent::read` invoked a
//! user-supplied closure while holding the global read lock, so a closure
//! that touched the same structure deadlocked. The same shape applies to
//! blocking primitives — a `send` on a bounded channel, a `join`, or an
//! `fsync` performed under a guard turns lock-hold time from nanoseconds
//! into milliseconds (or forever). Both are mechanical to detect once guard
//! liveness is known: any blocking identifier or closure-param call whose
//! token index falls inside a live guard range fires.
//!
//! Escape: `// lint: guard-scope(reason)` — for sites where holding the
//! guard across the operation is the design (e.g. a coarse-lock container
//! whose contract is "closure runs under the lock").

use crate::findings::{Finding, Rule};
use crate::lexer::TokenKind;
use crate::rules::FileContext;

/// How many lines above a flagged site the escape comment may sit.
const LOOKBACK: u32 = 3;

/// Operations that block the calling thread (channel, thread, file-sync).
const BLOCKING: [&str; 6] = ["send", "recv", "wait", "join", "fsync", "sync_all"];

/// Runs L6 on one file.
#[must_use]
pub fn check(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = ctx.tokens();
    for i in 0..tokens.len() {
        if !ctx.is_checked_code(i) || ctx.macro_mask[i] {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // A call: `name (`; blocking ops are method calls (`.send(..)`),
        // closure params are called bare (`f(..)`).
        let called = tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        if !called {
            continue;
        }
        let is_method = i > 0 && tokens[i - 1].is_punct('.');
        let blocking = BLOCKING.contains(&t.text.as_str()) && is_method;
        let closure_call = !is_method
            && ctx.fn_name[i]
                .as_ref()
                .and_then(|f| ctx.closure_params.get(f))
                .is_some_and(|params| params.contains(&t.text));
        if !blocking && !closure_call {
            continue;
        }
        // Is any guard live here? (Skip guards acquired in test code.)
        let Some(g) = ctx
            .guards
            .iter()
            .find(|g| ctx.is_checked_code(g.acquire_idx) && g.live.0 <= i && i <= g.live.1)
        else {
            continue;
        };
        if ctx.lexed.has_escape(t.line, "guard-scope", LOOKBACK) {
            continue;
        }
        let what = if blocking {
            format!("blocking `.{}()`", t.text)
        } else {
            format!("user-supplied closure `{}` called", t.text)
        };
        let lock = if g.lock_path.is_empty() {
            String::from("a lock")
        } else {
            format!("`{}`", g.lock_path)
        };
        out.push(Finding {
            rule: Rule::L6GuardHygiene,
            file: ctx.path.to_path_buf(),
            line: t.line,
            message: format!(
                "{what} while the {} guard on {lock} (acquired line {}) is live; \
                 drop the guard first, or justify with `// lint: guard-scope(reason)`",
                g.kind.method(),
                g.line
            ),
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
    fn send_under_let_guard_fires() {
        let f = run("fn f(&self) { let g = self.state.lock(); self.tx.send(1); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`state`"), "{}", f[0].message);
    }

    #[test]
    fn send_after_guard_scope_ends_is_clean() {
        let f = run("fn f(&self) { { let g = self.state.lock(); } self.tx.send(1); }");
        assert!(f.is_empty());
    }

    #[test]
    fn send_after_explicit_drop_is_clean() {
        let f = run("fn f(&self) { let g = self.state.lock(); drop(g); self.tx.send(1); }");
        assert!(f.is_empty());
    }

    #[test]
    fn closure_call_under_temporary_guard_fires() {
        // The PR 6 class: closure invoked on a same-statement guard borrow.
        let f = run("fn read(&self, f: impl Fn(&S)) { f(&self.inner.lock()); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("closure `f`"), "{}", f[0].message);
    }

    #[test]
    fn closure_call_on_extracted_snapshot_is_clean() {
        // The PR 6 fix shape: clone under the guard, call outside it.
        let f = run(
            "fn read(&self, f: impl Fn(&S)) { let snap = self.inner.lock().clone(); f(&snap); }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn join_and_fsync_under_guard_fire() {
        let f =
            run("fn f(&self) { let g = self.m.lock(); self.handle.join(); self.file.sync_all(); }");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn blocking_call_without_guard_is_clean() {
        let f = run("fn f(&self) { self.tx.send(1); self.handle.join(); }");
        assert!(f.is_empty());
    }

    #[test]
    fn escape_hatch_suppresses() {
        let f = run("fn read(&self, f: impl Fn(&S)) {\n\
             // lint: guard-scope(coarse-lock contract: closure runs under the lock)\n\
             f(&self.inner.lock()); }");
        assert!(f.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let f =
            run("#[cfg(test)]\nmod tests { fn t(s: &S) { let g = s.m.lock(); s.tx.send(1); } }");
        assert!(f.is_empty());
    }

    #[test]
    fn path_join_is_a_method_but_needs_a_guard() {
        // `.join(..)` with no live guard must not fire.
        let f = run("fn f(dir: &Path) -> PathBuf { dir.join(\"wal\") }");
        assert!(f.is_empty());
    }
}
