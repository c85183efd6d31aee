//! L1 — no unordered `HashMap`/`HashSet` iteration on report paths.
//!
//! The bug class this guards against shipped in the seed:
//! `SpaceSaving::merge` iterated a `RandomState` `HashMap`, so the tie order
//! after the merge's sort varied run to run and two identical processes
//! produced different reports. Any function on a *report path* — `merge`,
//! `report`, serialization, `Hash`/`Eq`/`Ord` impls, heavy-hitter
//! extraction, sampling — must not let ambient hash order reach its output.
//! Fix by switching the container to `BTreeMap`/`BTreeSet`, keying the map
//! with a seeded hasher, or collecting and fully sorting (then documenting
//! the site with `// lint: sorted-iteration-ok(reason)`).

use crate::findings::{Finding, Rule};
use crate::lexer::TokenKind;
use crate::rules::FileContext;

/// Function-name *stems*: a function whose name contains one of these is a
/// report path. Stems (rather than exact names) catch helpers like
/// `evict_below_threshold` or `spanning_forest_rounds` that report paths
/// delegate to.
const STEMS: [&str; 16] = [
    "merge",
    "report",
    "serial",
    "heavy",
    "top_k",
    "evict",
    "sample",
    "flush",
    "entries",
    "candidate",
    "nearest",
    "spanning",
    "snapshot",
    "to_bytes",
    "write_bytes",
    "groups",
];

/// Exact function names that are report paths (comparison/hashing impls).
const EXACT: [&str; 5] = ["hash", "eq", "ne", "cmp", "partial_cmp"];

/// Iteration methods whose order is the hasher's.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
];

fn is_report_fn(name: &str) -> bool {
    EXACT.contains(&name) || STEMS.iter().any(|s| name.contains(s))
}

/// How many lines above a flagged site the escape comment may sit.
const LOOKBACK: u32 = 4;

/// Runs L1 on one file.
#[must_use]
pub fn check(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = ctx.tokens();
    for i in 0..tokens.len() {
        if !ctx.is_checked_code(i) {
            continue;
        }
        let Some(fn_name) = ctx.fn_name[i].as_deref() else {
            continue;
        };
        if !is_report_fn(fn_name) {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || !ctx.map_names.contains(&t.text) {
            continue;
        }
        // Pattern A: `<map> . <iter-method> (`.
        let method_call = i + 3 < tokens.len()
            && tokens[i + 1].is_punct('.')
            && tokens[i + 2].kind == TokenKind::Ident
            && ITER_METHODS.contains(&tokens[i + 2].text.as_str())
            && tokens[i + 3].is_punct('(');
        // Pattern B: the map is the iterated expression of a `for` loop:
        // `for <pat> in [&][mut] [recv .]* <map> {`.
        let for_loop =
            i + 1 < tokens.len() && tokens[i + 1].is_punct('{') && is_for_in_tail(tokens, i);
        if method_call || for_loop {
            // In a multi-line chain the escape may be written just above the
            // `.iter()` line rather than the receiver line — accept either
            // anchor.
            let escaped = ctx
                .lexed
                .has_escape(t.line, "sorted-iteration-ok", LOOKBACK)
                || (method_call
                    && ctx
                        .lexed
                        .has_escape(tokens[i + 2].line, "sorted-iteration-ok", LOOKBACK));
            if escaped {
                continue;
            }
            out.push(Finding {
                rule: Rule::L1SortedIteration,
                file: ctx.path.to_path_buf(),
                line: t.line,
                message: format!(
                    "`{}` iterates the RandomState-hashed `{}` inside `{}`, a report path; \
                     hash order must not reach merge/report output — use BTreeMap, a seeded \
                     hasher, or collect-and-sort (then `// lint: sorted-iteration-ok(reason)`)",
                    if method_call {
                        format!("{}.{}()", t.text, tokens[i + 2].text)
                    } else {
                        format!("for … in {}", t.text)
                    },
                    t.text,
                    fn_name,
                ),
            });
        }
    }
    out
}

/// True when token `i` terminates the `in <expr>` of a `for` loop: walking
/// back over `.`-paths, `&`/`mut`, we reach the `in` keyword.
fn is_for_in_tail(tokens: &[crate::lexer::Token], i: usize) -> bool {
    let mut j = i;
    loop {
        if j < 2 {
            return false;
        }
        if tokens[j - 1].is_punct('.') && tokens[j - 2].kind == TokenKind::Ident {
            j -= 2;
            continue;
        }
        break;
    }
    while j > 0 && (tokens[j - 1].is_punct('&') || tokens[j - 1].is_ident("mut")) {
        j -= 1;
    }
    j > 0 && tokens[j - 1].is_ident("in")
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
    fn flags_iteration_in_merge() {
        let src = "struct S { m: HashMap<u64, u64> }\n\
                   impl S { fn merge(&mut self, o: &S) { for (k, v) in &o.m { self.add(k, v); } } }";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::L1SortedIteration);
    }

    #[test]
    fn ignores_iteration_in_update() {
        let src = "struct S { m: HashMap<u64, u64> }\n\
                   impl S { fn update(&mut self) { for (k, v) in &self.m { use_it(k, v); } } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn escape_hatch_suppresses() {
        let src = "struct S { m: HashMap<u64, u64> }\n\
                   impl S { fn report(&self) -> Vec<u64> {\n\
                   // lint: sorted-iteration-ok(collected then fully sorted below)\n\
                   let mut v: Vec<u64> = self.m.keys().copied().collect(); v.sort(); v } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn seeded_hasher_maps_are_exempt() {
        let src = "struct S { m: HashMap<u64, u64, SeededBuildHasher> }\n\
                   impl S { fn report(&self) -> usize { self.m.keys().count() } }";
        assert!(run(src).is_empty());
    }
}
