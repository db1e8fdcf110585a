//! The lint rules and the per-file scanner.
//!
//! Every rule works on the lexer's code mask, so tokens inside strings
//! and comments never fire. Violations can be waived in place with
//!
//! ```text
//! // lint:allow(<rule>): <reason>
//! ```
//!
//! on the offending line (trailing comment) or in the comment block
//! immediately above it; the reason is mandatory.

use crate::lexer::{lex, Lexed};
use std::collections::{HashMap, HashSet};

/// Names of all rules. The first four are the line-local token rules
/// of [`scan_file`]; the last three are the graph rules of
/// [`crate::effects`] and the unsafe-inventory check.
pub const RULE_NAMES: [&str; 7] = [
    "no_panics",
    "safety_comment",
    "no_std_sync",
    "no_instant",
    "no_panics_transitive",
    "no_alloc_hot_loop",
    "unsafe_inventory",
];

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// The offending token.
    pub token: String,
}

/// Per-file facts the rules need.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// Repo-relative path with forward slashes.
    pub rel_path: String,
    /// Whether this file belongs to a hot-path crate (`no_panics`).
    pub hot_path: bool,
    /// Whether this file is under a designated decode-inner-loop path
    /// (`no_instant`).
    pub instant_designated: bool,
    /// Whether the whole file is test code (`tests/`, `benches/`).
    pub test_file: bool,
}

/// Scans one file, returning every violation of the token rules that
/// no `lint:allow` annotation waives.
pub fn scan_file(text: &str, ctx: &FileContext) -> Vec<Violation> {
    let lexed = lex(text);
    let n = lexed.line_count();
    let test_lines = test_line_mask(&lexed, ctx.test_file);
    let allows = allow_map(&lexed);
    let mut out = Vec::new();

    for line in 1..=n {
        let code = lexed.code_of_line(line);
        if code.trim().is_empty() {
            continue;
        }
        let in_test = test_lines[line - 1];
        let allowed = |rule: &str| allows.get(&line).is_some_and(|set| set.contains(rule));

        if ctx.hot_path && !in_test && !allowed("no_panics") {
            for token in panic_tokens(&code) {
                out.push(Violation {
                    file: ctx.rel_path.clone(),
                    line,
                    rule: "no_panics",
                    token,
                });
            }
        }

        if !allowed("safety_comment") {
            for _ in 0..unsafe_sites_needing_comment(&lexed, line, &code) {
                out.push(Violation {
                    file: ctx.rel_path.clone(),
                    line,
                    rule: "safety_comment",
                    token: "unsafe".into(),
                });
            }
        }

        if !in_test && !allowed("no_std_sync") {
            if let Some(token) = std_sync_token(&code) {
                out.push(Violation {
                    file: ctx.rel_path.clone(),
                    line,
                    rule: "no_std_sync",
                    token,
                });
            }
        }

        if ctx.instant_designated && !in_test && !allowed("no_instant") {
            for (at, _) in word_occurrences(&code, "Instant") {
                if code[at..].starts_with("Instant::now") {
                    out.push(Violation {
                        file: ctx.rel_path.clone(),
                        line,
                        rule: "no_instant",
                        token: "Instant::now".into(),
                    });
                }
            }
        }
    }
    out
}

/// `true` for every 1-indexed line inside `#[cfg(test)]` / `#[test]`
/// regions (attribute line through the matching close brace).
pub(crate) fn test_line_mask(lexed: &Lexed<'_>, whole_file: bool) -> Vec<bool> {
    let n = lexed.line_count();
    if whole_file {
        return vec![true; n];
    }
    let mut mask = vec![false; n];
    // Flatten the code text once so brace matching can cross lines.
    let code: Vec<String> = (1..=n).map(|l| lexed.code_of_line(l)).collect();
    let mut line = 1usize;
    while line <= n {
        let text = &code[line - 1];
        let is_marker = text.contains("#[test]")
            || (text.contains("#[cfg(") && contains_word(text, "test"))
            || (text.contains("#[cfg_attr(") && contains_word(text, "test"));
        if !is_marker {
            line += 1;
            continue;
        }
        // Find the block the attribute introduces: the first `{` at or
        // after this line, then its matching `}`. `mod tests;` (no
        // body) or attribute on a `use` ends at the first `;` before
        // any `{`.
        let mut depth = 0usize;
        let mut started = false;
        let mut l = line;
        'outer: while l <= n {
            for ch in code[l - 1].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if started && depth == 0 {
                            break 'outer;
                        }
                    }
                    ';' if !started => break 'outer,
                    _ => {}
                }
            }
            l += 1;
        }
        let end = l.min(n);
        for m in mask.iter_mut().take(end).skip(line - 1) {
            *m = true;
        }
        line = end + 1;
    }
    mask
}

/// Parses `lint:allow(rule): reason` annotations. Returns, per code
/// line, the set of rules waived there (trailing comments waive their
/// own line; comment-only lines waive the next line with code).
pub(crate) fn allow_map(lexed: &Lexed<'_>) -> HashMap<usize, HashSet<String>> {
    let n = lexed.line_count();
    let mut map: HashMap<usize, HashSet<String>> = HashMap::new();
    let mut pending: HashSet<String> = HashSet::new();
    for line in 1..=n {
        let comment = lexed.comment_of_line(line);
        let mut here: HashSet<String> = HashSet::new();
        let mut at = 0usize;
        while let Some(pos) = comment[at..].find("lint:allow(") {
            let start = at + pos + "lint:allow(".len();
            let Some(close) = comment[start..].find(')') else {
                break;
            };
            let rule = comment[start..start + close].trim().to_string();
            let rest = &comment[start + close + 1..];
            // Mandatory `: reason`.
            if let Some(reason) = rest.strip_prefix(':') {
                if !reason.trim().is_empty() && RULE_NAMES.contains(&rule.as_str()) {
                    here.insert(rule);
                }
            }
            at = start + close + 1;
        }
        if lexed.line_has_code(line) {
            let entry = map.entry(line).or_default();
            entry.extend(here);
            entry.extend(pending.drain());
        } else {
            pending.extend(here);
        }
    }
    map
}

/// Panic-capable tokens on a code line: `.unwrap()`, `.expect(`,
/// `panic!`, `unreachable!`, `todo!`.
pub(crate) fn panic_tokens(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in word_occurrences(code, "unwrap") {
        if at > 0 && code[..at].ends_with('.') {
            out.push(".unwrap()".into());
        }
    }
    for (at, _) in word_occurrences(code, "expect") {
        if at > 0 && code[..at].ends_with('.') {
            out.push(".expect(..)".into());
        }
    }
    for mac in ["panic", "unreachable", "todo"] {
        for (at, end) in word_occurrences(code, mac) {
            if code[end..].starts_with('!') {
                // `core::panic!`-style paths still match the word.
                let _ = at;
                out.push(format!("{mac}!"));
            }
        }
    }
    out
}

/// `unsafe` blocks / `unsafe impl`s on `line` lacking a `SAFETY:`
/// comment on the same line or in the comment block directly above.
fn unsafe_sites_needing_comment(lexed: &Lexed<'_>, line: usize, code: &str) -> usize {
    let mut needing = 0usize;
    for (_, end) in word_occurrences(code, "unsafe") {
        let rest = code[end..].trim_start();
        // Only sites that *introduce* unsafety here: blocks and trait
        // impls. `unsafe fn` declarations document their contract in
        // `# Safety` rustdoc instead.
        if !(rest.starts_with('{') || rest.starts_with("impl")) {
            continue;
        }
        if has_safety_comment(lexed, line) {
            continue;
        }
        needing += 1;
    }
    needing
}

pub(crate) fn has_safety_comment(lexed: &Lexed<'_>, line: usize) -> bool {
    if lexed.comment_of_line(line).contains("SAFETY:") {
        return true;
    }
    // Walk the contiguous comment/blank block above.
    let mut l = line;
    while l > 1 {
        l -= 1;
        if lexed.line_has_code(l) {
            return false;
        }
        if lexed.comment_of_line(l).contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// Direct `std::sync` lock usage: qualified paths or `use` imports of
/// `Mutex` / `RwLock` / `Condvar`.
fn std_sync_token(code: &str) -> Option<String> {
    if !code.contains("std::sync") {
        return None;
    }
    for lock in ["Mutex", "RwLock", "Condvar"] {
        if word_occurrences(code, lock).next().is_some() {
            return Some(format!("std::sync::{lock}"));
        }
    }
    None
}

fn contains_word(text: &str, word: &str) -> bool {
    word_occurrences(text, word).next().is_some()
}

/// Occurrences of `word` in `text` with identifier boundaries on both
/// sides; yields `(start, end)` byte offsets.
pub(crate) fn word_occurrences<'a>(
    text: &'a str,
    word: &'a str,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let mut at = 0usize;
    std::iter::from_fn(move || {
        while let Some(pos) = text[at..].find(word) {
            let start = at + pos;
            let end = start + word.len();
            at = start + 1;
            let left_ok = start == 0
                || !text.as_bytes()[start - 1].is_ascii_alphanumeric()
                    && text.as_bytes()[start - 1] != b'_';
            let right_ok = end >= text.len()
                || !text.as_bytes()[end].is_ascii_alphanumeric() && text.as_bytes()[end] != b'_';
            if left_ok && right_ok {
                return Some((start, end));
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_hot() -> FileContext {
        FileContext {
            rel_path: "crates/x/src/lib.rs".into(),
            hot_path: true,
            instant_designated: true,
            test_file: false,
        }
    }

    fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    let y = x.unwrap();\n    let z = x.expect(\"msg\");\n    if y == 0 { panic!(\"boom\") }\n    unreachable!()\n}\n";
        let v = scan_file(src, &ctx_hot());
        assert_eq!(
            rules_of(&v),
            vec!["no_panics", "no_panics", "no_panics", "no_panics"]
        );
        assert_eq!(v[0].token, ".unwrap()");
        assert_eq!(v[3].token, "unreachable!");
    }

    #[test]
    fn ignores_unwrap_or_variants_and_non_hot_crates() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0).min(x.unwrap_or_default()) }\n";
        assert!(scan_file(src, &ctx_hot()).is_empty());
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let cold = FileContext {
            hot_path: false,
            ..ctx_hot()
        };
        assert!(scan_file(src, &cold).is_empty());
    }

    #[test]
    fn expect_err_is_not_expect() {
        let src = "fn f(x: Result<u8, u8>) -> u8 { x.expect_err(\"want err\") }\n";
        assert!(scan_file(src, &ctx_hot()).is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_no_panics() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(scan_file(src, &ctx_hot()).is_empty());
        let src = "#[test]\nfn t() { Some(1).unwrap(); }\nfn bad(x: Option<u8>) { x.unwrap(); }\n";
        let v = scan_file(src, &ctx_hot());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn annotation_waives_same_line_and_next_line() {
        let src =
            "fn f(x: Option<u8>) {\n    x.unwrap(); // lint:allow(no_panics): checked above\n}\n";
        assert!(scan_file(src, &ctx_hot()).is_empty());
        let src = "fn f(x: Option<u8>) {\n    // lint:allow(no_panics): invariant — set in new()\n    // and never cleared.\n    x.unwrap();\n}\n";
        assert!(scan_file(src, &ctx_hot()).is_empty());
    }

    #[test]
    fn annotation_requires_reason_and_known_rule() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap(); // lint:allow(no_panics):\n}\n";
        assert_eq!(scan_file(src, &ctx_hot()).len(), 1);
        let src = "fn f(x: Option<u8>) {\n    x.unwrap(); // lint:allow(not_a_rule): because\n}\n";
        assert_eq!(scan_file(src, &ctx_hot()).len(), 1);
    }

    #[test]
    fn unsafe_block_needs_safety_comment() {
        let src = "fn f(p: *mut u8) {\n    unsafe { *p = 1 };\n}\n";
        let v = scan_file(src, &ctx_hot());
        assert_eq!(rules_of(&v), vec!["safety_comment"]);
        let src = "fn f(p: *mut u8) {\n    // SAFETY: p is valid for writes, caller contract.\n    unsafe { *p = 1 };\n}\n";
        assert!(scan_file(src, &ctx_hot()).is_empty());
        // Trailing same-line SAFETY also counts.
        let src = "fn f(p: *mut u8) {\n    unsafe { *p = 1 }; // SAFETY: p valid\n}\n";
        assert!(scan_file(src, &ctx_hot()).is_empty());
    }

    #[test]
    fn unsafe_impl_needs_comment_but_unsafe_fn_does_not() {
        let src = "unsafe impl Send for X {}\n";
        assert_eq!(scan_file(src, &ctx_hot()).len(), 1);
        let src = "/// # Safety\n/// caller must…\npub unsafe fn f() {}\n";
        assert!(scan_file(src, &ctx_hot()).is_empty());
    }

    #[test]
    fn std_sync_locks_flagged_atomics_fine() {
        let src = "use std::sync::{Arc, Mutex};\n";
        let v = scan_file(src, &ctx_hot());
        assert_eq!(rules_of(&v), vec!["no_std_sync"]);
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\nuse std::sync::Arc;\n";
        assert!(scan_file(src, &ctx_hot()).is_empty());
        let src = "fn f() { let m = std::sync::RwLock::new(0); }\n";
        assert_eq!(scan_file(src, &ctx_hot()).len(), 1);
    }

    #[test]
    fn instant_only_in_designated_paths() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_of(&scan_file(src, &ctx_hot())), vec!["no_instant"]);
        let undesignated = FileContext {
            instant_designated: false,
            ..ctx_hot()
        };
        assert!(scan_file(src, &undesignated).is_empty());
    }

    #[test]
    fn tokens_in_strings_and_comments_never_fire() {
        let src = "fn f() {\n    let s = \"x.unwrap() panic! std::sync::Mutex Instant::now()\";\n    // x.unwrap() and unsafe { } in a comment\n    let r = r#\"todo! unreachable!\"#;\n    let _ = (s, r);\n}\n";
        assert!(scan_file(src, &ctx_hot()).is_empty());
    }

    #[test]
    fn whole_test_file_exempt() {
        let src = "fn helper(x: Option<u8>) { x.unwrap(); }\n";
        let tf = FileContext {
            test_file: true,
            ..ctx_hot()
        };
        assert!(scan_file(src, &tf).is_empty());
    }
}
