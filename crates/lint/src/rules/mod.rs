//! The per-file lint rules and the shared token analysis they run on.
//!
//! Every rule works on a [`FileContext`]: the token stream plus masks that
//! answer "is this token test code?", "which function is it in?", "is it in
//! a trait impl?", and "which identifiers are `HashMap`/`HashSet` typed?".
//! The masks are heuristic — this is a lexer, not a compiler — but they are
//! deliberately *conservative where it matters*: strings and comments can
//! never trigger a rule, and `#[cfg(test)]`-gated code is never policed.

mod l1_sorted_iteration;
mod l2_panic_free;
mod l3_forbid_unsafe;
mod l4_seeded_only;
mod l6_guard_hygiene;
pub(crate) mod l7_lock_order;
mod l8_channel_discipline;
mod l9_drop_safety;

use std::collections::{HashMap, HashSet};
use std::path::Path;

use crate::findings::Finding;
use crate::lexer::{lex, LexedFile, Token, TokenKind};
use crate::scope::{self, GuardSite};
use crate::workspace::CrateKind;

/// Precomputed analysis of one source file.
#[derive(Debug)]
pub struct FileContext<'a> {
    /// Workspace-relative path (used in findings).
    pub path: &'a Path,
    /// Which crate category the file belongs to.
    pub kind: CrateKind,
    /// Whether this file is a crate root (`lib.rs`/`main.rs`).
    pub is_crate_root: bool,
    /// Token stream and comments.
    pub lexed: LexedFile,
    /// Per-token: inside `#[cfg(test)]` / `#[test]` code.
    pub test_mask: Vec<bool>,
    /// Per-token: inside a `macro_rules!` body.
    pub macro_mask: Vec<bool>,
    /// Per-token: name of the innermost enclosing named function.
    pub fn_name: Vec<Option<String>>,
    /// Identifiers declared with a `HashMap`/`HashSet` type (fields, params,
    /// lets) whose hasher is the ambient `RandomState`.
    pub map_names: HashSet<String>,
    /// Lock-guard acquisitions with their liveness ranges (L6/L7/L9).
    pub guards: Vec<GuardSite>,
    /// Per-function closure-typed parameter names (L6).
    pub closure_params: HashMap<String, HashSet<String>>,
    /// Per-token: inside an `impl Drop for _` body (L9).
    pub drop_mask: Vec<bool>,
}

impl<'a> FileContext<'a> {
    /// Lexes and analyzes `src`.
    #[must_use]
    pub fn new(path: &'a Path, src: &str, kind: CrateKind, is_crate_root: bool) -> Self {
        let lexed = lex(src);
        let n = lexed.tokens.len();
        let brace_match = match_braces(&lexed.tokens);
        let test_mask = attribute_item_mask(&lexed.tokens, &brace_match, |attr| {
            // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]` — but not
            // `#[cfg(not(test))]`, which gates *non*-test code.
            attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"))
        });
        let macro_mask = macro_rules_mask(&lexed.tokens, &brace_match);
        let fn_name = fn_name_map(&lexed.tokens, &brace_match);
        let map_names = collect_map_names(&lexed.tokens);
        let guards = scope::collect_guards(&lexed.tokens, &brace_match);
        let closure_params = scope::closure_params_by_fn(&lexed.tokens);
        let drop_mask = scope::drop_impl_mask(&lexed.tokens, &brace_match);
        debug_assert_eq!(test_mask.len(), n);
        Self {
            path,
            kind,
            is_crate_root,
            lexed,
            test_mask,
            macro_mask,
            fn_name,
            map_names,
            guards,
            closure_params,
            drop_mask,
        }
    }

    /// The tokens.
    #[must_use]
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// True when token `i` is library (non-test, non-macro-definition) code.
    #[must_use]
    pub fn is_checked_code(&self, i: usize) -> bool {
        !self.test_mask[i]
    }
}

/// Runs every per-file rule applicable to the file's crate kind. The
/// cross-file L7 lock-ordering pass runs separately over the whole
/// workspace — see `l7_lock_order::check_files`.
#[must_use]
pub fn run_all(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    match ctx.kind {
        CrateKind::Library => {
            out.extend(l1_sorted_iteration::check(ctx));
            out.extend(l2_panic_free::check(ctx));
            out.extend(l3_forbid_unsafe::check(ctx));
            out.extend(l4_seeded_only::check(ctx));
            out.extend(l6_guard_hygiene::check(ctx));
            out.extend(l8_channel_discipline::check(ctx));
            out.extend(l9_drop_safety::check(ctx));
        }
        CrateKind::Tool => {
            out.extend(l2_panic_free::check(ctx));
            out.extend(l3_forbid_unsafe::check(ctx));
            out.extend(l6_guard_hygiene::check(ctx));
            out.extend(l8_channel_discipline::check(ctx));
            out.extend(l9_drop_safety::check(ctx));
        }
        CrateKind::Bench => {
            out.extend(l3_forbid_unsafe::check(ctx));
        }
    }
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// For each `{` token index, the index of its matching `}` (and vice versa).
/// Unbalanced braces map to the end of the stream.
pub(crate) fn match_braces(tokens: &[Token]) -> Vec<usize> {
    let mut matching = vec![tokens.len().saturating_sub(1); tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                matching[open] = i;
                matching[i] = open;
            }
        }
    }
    matching
}

/// Marks the item following each outer attribute `#[...]` whose content
/// satisfies `pred` (plus the attribute itself). The item extends to its
/// matching `}` (block items) or `;` (statement items).
fn attribute_item_mask(
    tokens: &[Token],
    brace_match: &[usize],
    pred: impl Fn(&[Token]) -> bool,
) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let Some(close) = matching_bracket(tokens, i + 1) else {
                break;
            };
            if pred(&tokens[i + 2..close]) {
                // Skip any further attributes, then mark through the item.
                let mut j = close + 1;
                while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[')
                {
                    match matching_bracket(tokens, j + 1) {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                let mut end = j;
                while end < tokens.len() {
                    if tokens[end].is_punct('{') {
                        end = brace_match[end];
                        break;
                    }
                    if tokens[end].is_punct(';') {
                        break;
                    }
                    end += 1;
                }
                for m in mask.iter_mut().take(end.min(tokens.len() - 1) + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Marks tokens inside `macro_rules! name { ... }` bodies.
fn macro_rules_mask(tokens: &[Token], brace_match: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    for i in 0..tokens.len() {
        if tokens[i].is_ident("macro_rules") {
            if let Some(open) = tokens[i..].iter().position(|t| t.is_punct('{')) {
                let open = i + open;
                for m in mask.iter_mut().take(brace_match[open] + 1).skip(i) {
                    *m = true;
                }
            }
        }
    }
    mask
}

/// For each token, the name of the innermost enclosing named `fn` (closures
/// keep their enclosing function's name).
fn fn_name_map(tokens: &[Token], brace_match: &[usize]) -> Vec<Option<String>> {
    let mut map = vec![None; tokens.len()];
    for i in 0..tokens.len() {
        if tokens[i].is_ident("fn")
            && i + 1 < tokens.len()
            && tokens[i + 1].kind == TokenKind::Ident
        {
            let name = tokens[i + 1].text.clone();
            // Find the body `{` (trait method decls end in `;` instead).
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                // Later (nested) fns overwrite: innermost wins.
                for slot in map.iter_mut().take(brace_match[j] + 1).skip(j) {
                    *slot = Some(name.clone());
                }
            }
        }
    }
    map
}

/// Identifiers declared as `HashMap`/`HashSet` with the ambient hasher:
/// `name: [std::collections::]Hash{Map,Set}<..>` (fields, params, lets) and
/// `name = Hash{Map,Set}::{new,with_capacity,default,from}(..)`. Types that
/// name an explicit deterministic hasher (`SeededBuildHasher`,
/// `BuildHasherDefault`, `with_hasher`) are exempt: their iteration order is
/// a pure function of the seed.
fn collect_map_names(tokens: &[Token]) -> HashSet<String> {
    let mut names = HashSet::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || !(t.text == "HashMap" || t.text == "HashSet") {
            continue;
        }
        // Exempt seeded/deterministic-hasher declarations.
        if generic_args_contain(tokens, i, &["SeededBuildHasher", "BuildHasherDefault"])
            || followed_by_call(tokens, i, "with_hasher")
        {
            continue;
        }
        // Walk back over an optional `std :: collections ::` path.
        let mut j = i;
        while j >= 2
            && tokens[j - 1].is_punct(':')
            && tokens[j - 2].is_punct(':')
            && j >= 3
            && tokens[j - 3].kind == TokenKind::Ident
        {
            j -= 3;
        }
        // `name :` directly before the (path-qualified) type.
        if j >= 2 && tokens[j - 1].is_punct(':') && !tokens[j - 2].is_punct(':') {
            if tokens[j - 2].kind == TokenKind::Ident {
                names.insert(tokens[j - 2].text.clone());
            }
            continue;
        }
        // `name = HashMap :: ctor (` (let-binding without annotation).
        if j >= 2 && tokens[j - 1].is_punct('=') && tokens[j - 2].kind == TokenKind::Ident {
            names.insert(tokens[j - 2].text.clone());
        }
    }
    names
}

/// True when the generic argument list right after `tokens[at]` mentions any
/// of `needles` (scans the `<...>` group, tolerating nesting).
fn generic_args_contain(tokens: &[Token], at: usize, needles: &[&str]) -> bool {
    let Some(open) = tokens.get(at + 1) else {
        return false;
    };
    if !open.is_punct('<') {
        return false;
    }
    let mut depth = 0i32;
    for t in &tokens[at + 1..] {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident && needles.contains(&t.text.as_str()) {
            return true;
        }
    }
    false
}

/// True when `tokens[at]` is followed by `:: <method> (` within the next few
/// tokens (e.g. `HashMap::with_hasher(`), skipping a turbofish if present.
fn followed_by_call(tokens: &[Token], at: usize, method: &str) -> bool {
    let mut j = at + 1;
    // Skip `::<...>` turbofish or plain `<...>` generic args.
    if tokens.get(j).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 2).is_some_and(|t| t.is_punct('<'))
    {
        j += 2;
    }
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    tokens.get(j).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 2).is_some_and(|t| t.is_ident(method))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ctx(src: &str) -> FileContext<'static> {
        // Leak the path: test-only convenience.
        let p: &'static Path = Box::leak(Box::new(PathBuf::from("test.rs")));
        FileContext::new(p, src, CrateKind::Library, false)
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let c = ctx("fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }");
        let unwraps: Vec<bool> = c
            .tokens()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| c.test_mask[i])
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn fn_names_are_innermost() {
        let c = ctx("fn outer() { fn inner() { a.iter(); } b.iter(); }");
        let names: Vec<Option<&str>> = c
            .tokens()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("iter"))
            .map(|(i, _)| c.fn_name[i].as_deref())
            .collect();
        assert_eq!(names, vec![Some("inner"), Some("outer")]);
    }

    #[test]
    fn map_names_from_fields_lets_and_ctors() {
        let c = ctx(
            "struct S { counts: HashMap<u64, u64>, v: Vec<u8> }\n\
             fn f() { let agg: std::collections::HashMap<usize, L0> = std::collections::HashMap::new();\n\
             let idx = HashMap::with_capacity(4); let seeded: HashMap<u64, u64, SeededBuildHasher> = x(); }",
        );
        assert!(c.map_names.contains("counts"));
        assert!(c.map_names.contains("agg"));
        assert!(c.map_names.contains("idx"));
        assert!(!c.map_names.contains("v"));
        assert!(!c.map_names.contains("seeded"), "seeded hashers are exempt");
    }
}
