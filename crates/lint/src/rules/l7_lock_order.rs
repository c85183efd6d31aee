//! L7 — no cycles in the workspace lock-acquisition graph.
//!
//! Builds a directed graph whose nodes are lock identities (normalized
//! receiver paths) and whose edges `a → b` mean "somewhere, `b` is acquired
//! while a guard on `a` is live". Acquisition order is extracted per
//! function from the guard liveness ranges, then propagated **one call
//! level**: a call to a workspace `fn` made under a live guard contributes
//! edges to every lock that callee acquires. A cycle in this graph is a
//! potential deadlock (two threads taking the locks in opposite orders);
//! an `a → a` self-edge is a guaranteed one for non-reentrant locks.
//!
//! Known approximations (see `DESIGN.md` §7): lock identity is textual, so
//! aliased receivers are distinct nodes and same-named fields of different
//! types collide; call propagation is by bare function name and skipped
//! when the name is defined more than once in the workspace; trait dispatch
//! is invisible. Escape: `// lint: lock-order-ok(reason)` at either
//! acquisition site (or the call site for propagated edges) removes the
//! edge.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::findings::{Finding, Rule};
use crate::lexer::TokenKind;
use crate::rules::FileContext;
use crate::workspace::CrateKind;

/// How many lines above an acquisition the escape comment may sit.
const LOOKBACK: u32 = 3;

/// One `a → b` edge with the site that created it (the inner acquisition,
/// or the call site for propagated edges).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
    fn_name: String,
}

/// Runs the lock-ordering pass over every analyzed file.
#[must_use]
pub fn check_files(ctxs: &[FileContext<'_>]) -> Vec<Finding> {
    // Pass 1: per-function acquisition lists, for one-level call
    // propagation. Bare-name resolution cannot tell targets apart, so any
    // name with more than one `fn` definition anywhere in the workspace is
    // excluded from propagation (`merge`, `new`, …).
    let mut fn_locks: HashMap<String, Vec<String>> = HashMap::new();
    let mut fn_defs: HashMap<&str, u32> = HashMap::new();
    for ctx in ctxs {
        if ctx.kind == CrateKind::Bench {
            continue;
        }
        let tokens = ctx.tokens();
        for (i, t) in tokens.iter().enumerate() {
            if t.is_ident("fn")
                && tokens
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Ident)
            {
                *fn_defs.entry(tokens[i + 1].text.as_str()).or_insert(0) += 1;
            }
        }
        for g in &ctx.guards {
            if !ctx.is_checked_code(g.acquire_idx) || g.lock_path.is_empty() {
                continue;
            }
            let Some(f) = ctx.fn_name[g.acquire_idx].as_deref() else {
                continue;
            };
            fn_locks
                .entry(f.to_string())
                .or_default()
                .push(g.lock_path.clone());
        }
    }
    fn_locks.retain(|name, _| fn_defs.get(name.as_str()).copied().unwrap_or(0) <= 1);

    // Pass 2: edges. Direct: g live at h's acquisition. Propagated: g live
    // at a call to a fn known to acquire locks.
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    let mut add = |e: Edge| {
        edges.entry((e.from.clone(), e.to.clone())).or_insert(e);
    };
    for ctx in ctxs {
        if ctx.kind == CrateKind::Bench {
            continue;
        }
        let tokens = ctx.tokens();
        let file = ctx.path.display().to_string();
        for g in &ctx.guards {
            if !ctx.is_checked_code(g.acquire_idx) || g.lock_path.is_empty() {
                continue;
            }
            if ctx.lexed.has_escape(g.line, "lock-order-ok", LOOKBACK) {
                continue;
            }
            let caller = ctx.fn_name[g.acquire_idx].as_deref().unwrap_or("");
            for h in &ctx.guards {
                if h.acquire_idx <= g.acquire_idx
                    || h.acquire_idx < g.live.0
                    || h.acquire_idx > g.live.1
                    || h.lock_path.is_empty()
                {
                    continue;
                }
                if ctx.lexed.has_escape(h.line, "lock-order-ok", LOOKBACK) {
                    continue;
                }
                add(Edge {
                    from: g.lock_path.clone(),
                    to: h.lock_path.clone(),
                    file: file.clone(),
                    line: h.line,
                    fn_name: caller.to_string(),
                });
            }
            // One-level call propagation.
            for i in g.live.0..=g.live.1.min(tokens.len().saturating_sub(1)) {
                let t = &tokens[i];
                if t.kind != TokenKind::Ident
                    || !tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                    || t.text == caller
                {
                    continue;
                }
                // Skip definitions (`fn name(`) — only call sites count.
                if i > 0 && tokens[i - 1].is_ident("fn") {
                    continue;
                }
                let Some(callee_locks) = fn_locks.get(&t.text) else {
                    continue;
                };
                if ctx.lexed.has_escape(t.line, "lock-order-ok", LOOKBACK) {
                    continue;
                }
                for to in callee_locks {
                    add(Edge {
                        from: g.lock_path.clone(),
                        to: to.clone(),
                        file: file.clone(),
                        line: t.line,
                        fn_name: format!("{caller} via {}", t.text),
                    });
                }
            }
        }
    }

    findings_from_cycles(&edges)
}

/// Detects cycles in the edge set and renders one finding per distinct
/// cycle (deduplicated by node set), naming every acquisition site.
fn findings_from_cycles(edges: &BTreeMap<(String, String), Edge>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((from, to), e) in edges {
        if from == to {
            if reported.insert(vec![from.clone()]) {
                out.push(Finding {
                    rule: Rule::L7LockOrder,
                    file: e.file.clone().into(),
                    line: e.line,
                    message: format!(
                        "lock `{from}` re-acquired while its own guard is live in fn \
                         `{}` — guaranteed deadlock for non-reentrant locks; restructure, \
                         or justify with `// lint: lock-order-ok(reason)`",
                        e.fn_name
                    ),
                });
            }
            continue;
        }
        // Cycle iff `to` can reach `from`.
        let Some(path_back) = shortest_path(&adj, to, from) else {
            continue;
        };
        // Full cycle node list: from -> to -> ... -> from (`path_back`
        // excludes its start `to` and ends at `from`).
        let mut nodes: Vec<String> = vec![from.clone(), to.clone()];
        nodes.extend(path_back.iter().map(|s| (*s).to_string()));
        let mut key = nodes.clone();
        key.sort();
        key.dedup();
        if !reported.insert(key) {
            continue;
        }
        // Name each hop's acquisition site.
        let mut hops = Vec::new();
        for w in nodes.windows(2) {
            if let Some(he) = edges.get(&(w[0].clone(), w[1].clone())) {
                hops.push(format!(
                    "`{}` then `{}` at {}:{} (fn `{}`)",
                    w[0], w[1], he.file, he.line, he.fn_name
                ));
            }
        }
        let cycle: Vec<&str> = nodes.iter().map(String::as_str).collect();
        out.push(Finding {
            rule: Rule::L7LockOrder,
            file: e.file.clone().into(),
            line: e.line,
            message: format!(
                "lock-order cycle {} — potential deadlock: {}; impose one global \
                 acquisition order, or justify with `// lint: lock-order-ok(reason)`",
                cycle.join(" \u{2192} "),
                hops.join("; ")
            ),
        });
    }
    out
}

/// BFS shortest path from `start` to `goal`; returns the node list
/// `[.., goal]` excluding `start`, or `None` when unreachable.
fn shortest_path<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    start: &'a str,
    goal: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = VecDeque::from([start]);
    let mut seen: BTreeSet<&str> = BTreeSet::from([start]);
    while let Some(u) = queue.pop_front() {
        if u == goal {
            let mut path = vec![u];
            let mut cur = u;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.pop(); // drop `start`; caller re-adds endpoints
            path.reverse();
            return Some(path);
        }
        for &v in adj.get(u).into_iter().flatten() {
            if seen.insert(v) {
                prev.insert(v, u);
                queue.push_back(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileContext;
    use std::path::Path;

    fn run(src: &str) -> Vec<Finding> {
        let ctx = FileContext::new(Path::new("t.rs"), src, CrateKind::Library);
        check_files(std::slice::from_ref(&ctx))
    }

    #[test]
    fn two_function_cycle_fires_once_naming_both_sites() {
        let f = run("fn ab(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n\
             fn ba(s: &S) { let g = s.b.lock(); let h = s.a.lock(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        let m = &f[0].message;
        assert!(m.contains("t.rs:1") && m.contains("t.rs:2"), "{m}");
        assert!(m.contains("fn `ab`") && m.contains("fn `ba`"), "{m}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let f = run("fn x(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n\
             fn y(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn nested_scope_release_breaks_the_edge() {
        // The first guard is dropped before the second is taken.
        let f = run(
            "fn ab(s: &S) { { let g = s.a.lock(); } let h = s.b.lock(); }\n\
             fn ba(s: &S) { { let g = s.b.lock(); } let h = s.a.lock(); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn self_edge_is_reacquisition() {
        let f = run("fn f(s: &S) { let g = s.a.lock(); let h = s.a.lock(); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("re-acquired"), "{}", f[0].message);
    }

    #[test]
    fn one_level_call_propagation_finds_the_cycle() {
        let f = run(
            "fn helper(s: &S) { let g = s.b.lock(); let h = s.a.lock(); }\n\
             fn top(s: &S) { let g = s.a.lock(); helper(s); }",
        );
        // helper: b→a direct; top: a→{b,a} propagated ⇒ cycle a→b→a (and a
        // self-edge a→a via the propagated call).
        assert!(f.iter().any(|x| x.message.contains("cycle")), "{f:?}");
    }

    #[test]
    fn escape_hatch_removes_the_edge() {
        let f = run("fn ab(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n\
             fn ba(s: &S) { let g = s.b.lock();\n\
             // lint: lock-order-ok(b is a leaf lock; a is never taken under it in practice)\n\
             let h = s.a.lock(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_does_not_contribute_edges() {
        let f = run("fn ab(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n\
             #[cfg(test)]\nmod tests { fn ba(s: &S) { let g = s.b.lock(); let h = s.a.lock(); } }");
        assert!(f.is_empty(), "{f:?}");
    }
}
