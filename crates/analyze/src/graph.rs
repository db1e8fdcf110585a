//! Approximate intra-workspace call graph.
//!
//! Call *extraction* finds `ident(`-shaped tokens in the code-masked
//! text, so calls planted in strings, comments, or `#[cfg(test)]` items
//! never create edges. Call *resolution* is name-based with a tiered
//! scope search (same file → same crate → whole workspace, first
//! non-empty tier wins) and is deliberately conservative on ambiguity:
//!
//! * bare calls (`helper(x)`) resolve to free functions only;
//! * method calls (`x.helper()`) resolve to associated functions only,
//!   and cross-file method calls whose name matches more than one impl
//!   type resolve to nothing (a documented false-negative class —
//!   better a missed edge than a storm of spurious chains);
//! * `Type::helper(x)` resolves against `impl Type` blocks, with
//!   `Self::` rewritten through the caller's enclosing impl, and a
//!   lowercase qualifier (`module::helper`) falling back to free
//!   functions;
//! * macro invocations (`name!`) and uppercase bare names (tuple-struct
//!   and enum constructors) are skipped — panics raised *by* macros are
//!   caught as local effect tokens instead.
//!
//! Test items are excluded from the graph on both ends: they neither
//! produce nor receive edges.

use crate::items::{parse_lexed, UnsafeSite};
use crate::lexer::lex;
use crate::rules::allow_map;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Method names that collide with ubiquitous std APIs (collections,
/// atomics, paths, io, sync). Method calls with these names are never
/// resolved to workspace functions — the receiver is almost always a
/// std type, and one false edge poisons a whole reachability subtree.
const STD_METHOD_NAMES: &[&str] = &[
    "append", "borrow", "clear", "clone", "collect", "contains", "drain", "extend", "fill", "find",
    "flush", "get", "insert", "join", "len", "load", "lock", "map", "next", "open", "parse",
    "poll", "pop", "push", "read", "recv", "remove", "replace", "resize", "retain", "send", "seek",
    "split", "store", "swap", "take", "truncate", "wait", "write",
];

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(x)` — resolves to free functions.
    Bare,
    /// `x.helper()` — resolves to associated functions.
    Method,
    /// `Type::helper(x)` / `module::helper(x)`.
    Qualified,
}

/// One call-looking token inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Resolution kind.
    pub kind: CallKind,
    /// Callee name.
    pub name: String,
    /// The path segment before `::` for [`CallKind::Qualified`].
    pub qualifier: Option<String>,
    /// 1-indexed line of the call.
    pub line: usize,
    /// Rules waived at this line via `lint:allow` — traversal skips
    /// this edge for those rules.
    pub waived: HashSet<String>,
}

/// Kind of a local effect token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectKind {
    /// `unwrap` / `expect` / `panic!` family.
    Panic,
    /// Heap construction (`Vec::new`, `to_vec`, `format!`, …).
    Alloc,
}

impl EffectKind {
    /// The graph rule this effect kind feeds.
    pub fn rule(self) -> &'static str {
        match self {
            EffectKind::Panic => "no_panics_transitive",
            EffectKind::Alloc => "no_alloc_hot_loop",
        }
    }
}

/// One effect token found directly inside a function body.
#[derive(Debug, Clone)]
pub struct LocalEffect {
    /// Panic / Alloc.
    pub kind: EffectKind,
    /// The offending token, e.g. `.unwrap()` or `Vec::new(`.
    pub token: String,
    /// 1-indexed line.
    pub line: usize,
}

/// One function node in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Repo-relative file path.
    pub file: String,
    /// Crate name (`crates/<name>/…`), empty outside `crates/`.
    pub crate_name: String,
    /// Function name.
    pub name: String,
    /// Enclosing impl/trait type, if an associated fn.
    pub impl_type: Option<String>,
    /// 1-indexed declaration line.
    pub decl_line: usize,
    /// Call sites inside this fn's own body (nested fns excluded).
    pub calls: Vec<CallSite>,
    /// Effect tokens inside this fn's own body, waiver-filtered.
    pub effects: Vec<LocalEffect>,
}

/// Per-file facts the inventory check needs after graph construction.
pub struct FileFacts {
    /// Repo-relative path.
    pub rel: String,
    /// Whether the whole file is test code.
    pub test_file: bool,
    /// Unsafe sites with spans resolved against the original text.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Fingerprints (normalized span hashes) matching `unsafe_sites`.
    pub unsafe_hashes: Vec<String>,
}

/// The whole-workspace call graph.
pub struct Workspace {
    /// Every non-test fn in the scanned files.
    pub nodes: Vec<FnNode>,
    /// Per-file facts (test files included — for the inventory).
    pub files: Vec<FileFacts>,
    by_name: HashMap<String, Vec<usize>>,
}

impl Workspace {
    /// Builds the graph from `(rel_path, text)` pairs. `repo_rel` paths
    /// decide crate attribution and test-file status.
    pub fn build(files: &[(String, String)]) -> Workspace {
        let mut ws = Workspace {
            nodes: Vec::new(),
            files: Vec::new(),
            by_name: HashMap::new(),
        };
        for (rel, text) in files {
            ws.add_file(rel, text);
        }
        for (i, node) in ws.nodes.iter().enumerate() {
            ws.by_name.entry(node.name.clone()).or_default().push(i);
            let _ = node;
        }
        ws
    }

    fn add_file(&mut self, rel: &str, text: &str) {
        let test_file = rel.contains("/tests/") || rel.contains("/benches/");
        let lexed = lex(text);
        let parsed = parse_lexed(&lexed, test_file);
        let allows = allow_map(&lexed);
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("")
            .to_string();
        // Only `crates/` files become graph nodes: the shims stand in
        // for external crates, and their internals are represented at
        // the call site by the effect-token lists instead. Shim files
        // still contribute to the unsafe inventory below.
        let in_graph = rel.starts_with("crates/");

        // Production fns only; remember each node's body range so call
        // sites and effects can be attributed to the *innermost* fn.
        let base = self.nodes.len();
        let mut bodies: Vec<(Range<usize>, usize, usize)> = Vec::new(); // (body, decl_line, node idx)
        for f in &parsed.fns {
            if f.is_test || !in_graph {
                continue;
            }
            let idx = self.nodes.len();
            bodies.push((f.body.clone(), f.decl_line, idx));
            self.nodes.push(FnNode {
                file: rel.to_string(),
                crate_name: crate_name.clone(),
                name: f.name.clone(),
                impl_type: f.impl_type.clone(),
                decl_line: f.decl_line,
                calls: Vec::new(),
                effects: Vec::new(),
            });
        }
        let owner_of = |offset: usize| -> Option<usize> {
            // Innermost containing body = the one starting latest.
            bodies
                .iter()
                .filter(|(b, _, _)| b.contains(&offset))
                .max_by_key(|(b, _, _)| b.start)
                .map(|&(_, _, idx)| idx)
        };
        // Line-based owner for effect scanning: a one-line fn's tokens
        // share the declaration line, whose *start* offset sits before
        // the body — so attribute whole lines by [decl_line, end_line].
        let line_spans: Vec<(usize, usize, usize)> = bodies
            .iter()
            .map(|(b, decl, idx)| (*decl, lexed.line_of_offset(b.end.max(b.start)), *idx))
            .collect();
        let owner_of_line = |line: usize| -> Option<usize> {
            line_spans
                .iter()
                .filter(|(d, e, _)| *d <= line && line <= *e)
                .max_by_key(|(d, _, _)| *d)
                .map(|&(_, _, idx)| idx)
        };

        for call in extract_calls(&parsed.code_text, &lexed) {
            if let Some(idx) = owner_of(call.offset) {
                let waived = allows.get(&call.line).cloned().unwrap_or_default();
                self.nodes[idx].calls.push(CallSite {
                    kind: call.kind,
                    name: call.name,
                    qualifier: call.qualifier,
                    line: call.line,
                    waived,
                });
            }
        }

        // Local effects: scan each code line once; a `lint:allow` for
        // the effect's rule on that line drops the effect.
        for (lidx, line_text) in parsed.code_text.split('\n').enumerate() {
            let line = lidx + 1;
            if let Some(idx) = owner_of_line(line) {
                let waived = |rule: &str| allows.get(&line).is_some_and(|s| s.contains(rule));
                let mut push = |kind: EffectKind, token: String| {
                    if !waived(kind.rule()) {
                        self.nodes[idx]
                            .effects
                            .push(LocalEffect { kind, token, line });
                    }
                };
                for token in crate::rules::panic_tokens(line_text) {
                    push(EffectKind::Panic, token);
                }
                for token in alloc_tokens(line_text) {
                    push(EffectKind::Alloc, token);
                }
            }
        }
        let _ = base;

        let unsafe_hashes = parsed
            .unsafe_sites
            .iter()
            .map(|s| crate::items::fingerprint(&text[s.span.clone()]))
            .collect();
        self.files.push(FileFacts {
            rel: rel.to_string(),
            test_file,
            unsafe_sites: parsed.unsafe_sites,
            unsafe_hashes,
        });
    }

    /// Resolves one call site from `caller` to node indices.
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let from = &self.nodes[caller];
        // Receiver types are unknown, so a method call named like a
        // common std container/sync/io method (`events.append(…)`,
        // `ACTIVE.load(…)`, `path.join(…)`) would resolve to any
        // workspace fn that happens to share the name — a false edge
        // that poisons whole reachability subtrees. Skip those names
        // entirely; a workspace method that shadows one is a documented
        // false-negative class (ARCHITECTURE §4k).
        if call.kind == CallKind::Method && STD_METHOD_NAMES.contains(&call.name.as_str()) {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let matches_kind = |i: &usize| -> bool {
            let n = &self.nodes[*i];
            match call.kind {
                CallKind::Bare => n.impl_type.is_none(),
                CallKind::Method => n.impl_type.is_some(),
                CallKind::Qualified => {
                    let q = match call.qualifier.as_deref() {
                        Some("Self") => from.impl_type.as_deref(),
                        q => q,
                    };
                    match q {
                        Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => {
                            n.impl_type.as_deref() == Some(q)
                        }
                        // `module::helper(…)` — a free fn elsewhere.
                        _ => n.impl_type.is_none(),
                    }
                }
            }
        };
        let base: Vec<usize> = cands.iter().filter(|i| matches_kind(i)).copied().collect();
        if base.is_empty() {
            return base;
        }
        let in_file: Vec<usize> = base
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].file == from.file && i != caller)
            .collect();
        if !in_file.is_empty() {
            return in_file;
        }
        let tier = |f: &dyn Fn(usize) -> bool| -> Vec<usize> {
            base.iter().copied().filter(|&i| f(i)).collect()
        };
        let in_crate =
            tier(&|i| !from.crate_name.is_empty() && self.nodes[i].crate_name == from.crate_name);
        let chosen = if !in_crate.is_empty() {
            in_crate
        } else {
            base.clone()
        };
        // Cross-file method calls matching several impl types are
        // ambiguous: create no edge rather than guess.
        if call.kind == CallKind::Method {
            let types: HashSet<&str> = chosen
                .iter()
                .filter_map(|&i| self.nodes[i].impl_type.as_deref())
                .collect();
            if types.len() > 1 {
                return Vec::new();
            }
        }
        chosen
    }
}

/// A call site before attribution to its enclosing fn.
pub struct RawCall {
    /// Resolution kind.
    pub kind: CallKind,
    /// Callee name.
    pub name: String,
    /// Qualifier for `Type::f` calls.
    pub qualifier: Option<String>,
    /// Byte offset of the callee identifier.
    pub offset: usize,
    /// 1-indexed line.
    pub line: usize,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "ref", "move",
    "in", "as", "unsafe", "use", "pub", "impl", "trait", "mod", "struct", "enum", "union", "where",
    "break", "continue", "await", "dyn", "box", "true", "false", "self", "Self", "super", "crate",
    "const", "static", "type",
];

/// Extracts every call-looking token from code-masked `code` (an
/// identifier followed by an optional turbofish and `(`). Macro
/// invocations and uppercase bare names are skipped.
pub fn extract_calls(code: &str, lexed: &crate::lexer::Lexed<'_>) -> Vec<RawCall> {
    let bytes = code.as_bytes();
    let n = bytes.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        let b = bytes[i];
        if !(b.is_ascii_alphabetic() || b == b'_') {
            i += 1;
            continue;
        }
        if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let name = &code[start..i];
        // `r#ident` reaches us as `r`, `#`, `ident` — treat the `r` as
        // opaque; the ident after `#` is picked up on its own.
        let mut j = i;
        // Optional turbofish `::<…>` between name and `(`.
        if code[j..].starts_with("::<") {
            let mut depth = 0usize;
            let mut k = j + 2;
            while k < n {
                match bytes[k] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k;
        }
        while j < n && (bytes[j] == b' ') {
            j += 1;
        }
        if bytes.get(j) != Some(&b'(') {
            continue;
        }
        if i < n && bytes[i] == b'!' {
            continue; // macro
        }
        if KEYWORDS.contains(&name) {
            continue;
        }
        // Kind from what precedes the identifier.
        let before = code[..start].trim_end_matches(' ');
        let (kind, qualifier) = if before.ends_with('.') {
            (CallKind::Method, None)
        } else if before.ends_with("::") {
            let q_end = before.len() - 2;
            let q_start = before[..q_end]
                .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .map_or(0, |p| p + 1);
            let q = &before[q_start..q_end];
            if q.is_empty() || KEYWORDS.contains(&q) && q != "Self" {
                // `<T as Trait>::f(…)`, `crate::f(…)` — skip the
                // unresolvable qualifier but keep free-fn semantics.
                (CallKind::Bare, None)
            } else {
                (CallKind::Qualified, Some(q.to_string()))
            }
        } else {
            if name.starts_with(|c: char| c.is_ascii_uppercase()) {
                continue; // tuple-struct / enum-variant constructor
            }
            (CallKind::Bare, None)
        };
        if kind == CallKind::Bare && name.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue;
        }
        out.push(RawCall {
            kind,
            name: name.to_string(),
            qualifier,
            offset: start,
            line: lexed.line_of_offset(start),
        });
    }
    out
}

/// Allocation-constructing tokens on a code-masked line.
pub fn alloc_tokens(code: &str) -> Vec<String> {
    const TOKENS: &[&str] = &[
        "Vec::new(",
        "Vec::with_capacity(",
        "Vec::from(",
        "vec!",
        "Box::new(",
        "String::new(",
        "String::from(",
        "String::with_capacity(",
        "format!",
        ".to_vec()",
        ".to_string()",
        ".to_owned()",
    ];
    token_scan(code, TOKENS)
}

fn token_scan(code: &str, tokens: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for tok in tokens {
        let mut at = 0usize;
        while let Some(pos) = code[at..].find(tok) {
            let start = at + pos;
            at = start + 1;
            // Identifier boundary on the left when the token starts
            // with one (so `MyVec::new(` is not `Vec::new(`).
            if tok.starts_with(|c: char| c.is_ascii_alphanumeric()) && start > 0 {
                let prev = code.as_bytes()[start - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            out.push((*tok).to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(r, t)| (r.to_string(), t.to_string()))
            .collect();
        Workspace::build(&files)
    }

    fn node<'a>(ws: &'a Workspace, name: &str) -> &'a FnNode {
        ws.nodes.iter().find(|n| n.name == name).unwrap()
    }

    fn resolved_names(ws: &Workspace, from: &str) -> Vec<String> {
        let idx = ws.nodes.iter().position(|n| n.name == from).unwrap();
        let mut out = Vec::new();
        for call in &ws.nodes[idx].calls {
            for t in ws.resolve(idx, call) {
                out.push(ws.nodes[t].name.clone());
            }
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn bare_and_method_calls_resolve() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn root() { helper(1); s.step(); }\nfn helper(x: u8) {}\n\
             struct S;\nimpl S {\n    fn step(&self) {}\n}\n",
        )]);
        assert_eq!(resolved_names(&w, "root"), vec!["helper", "step"]);
    }

    #[test]
    fn same_file_tier_beats_same_crate() {
        let w = ws(&[
            (
                "crates/a/src/one.rs",
                "fn root() { helper(); }\nfn helper() { local_mark(); }\nfn local_mark() {}\n",
            ),
            (
                "crates/a/src/two.rs",
                "fn helper() { other_mark(); }\nfn other_mark() {}\n",
            ),
        ]);
        let idx = w.nodes.iter().position(|n| n.name == "root").unwrap();
        let call = &w.nodes[idx].calls[0];
        let targets = w.resolve(idx, call);
        assert_eq!(targets.len(), 1);
        assert_eq!(w.nodes[targets[0]].file, "crates/a/src/one.rs");
    }

    #[test]
    fn std_method_names_never_resolve() {
        // `.load()` here is an atomic load, but a workspace fn named
        // `load` exists — the denylist must prevent the false edge.
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn root() { ACTIVE.load(x); q.push(v); }\n",
            ),
            (
                "crates/a/src/cfg.rs",
                "impl Config {\n    fn load(&self) {}\n    fn push(&self) {}\n}\n",
            ),
        ]);
        assert!(resolved_names(&w, "root").is_empty());
    }

    #[test]
    fn ambiguous_cross_file_method_resolves_to_nothing() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "fn root(x: X) { x.get(); }\n"),
            (
                "crates/a/src/b.rs",
                "impl P {\n    fn get(&self) {}\n}\nimpl Q {\n    fn get(&self) {}\n}\n",
            ),
        ]);
        assert!(resolved_names(&w, "root").is_empty());
    }

    #[test]
    fn qualified_and_self_calls() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl Codec {\n    fn decode(&self) { Self::check(); Codec::reset(); util::log_it(); }\n\
             \n    fn check() {}\n    fn reset() {}\n}\nmod util {\n    pub fn log_it() {}\n}\n",
        )]);
        assert_eq!(
            resolved_names(&w, "decode"),
            vec!["check", "log_it", "reset"]
        );
    }

    #[test]
    fn strings_comments_and_macros_make_no_edges() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn root() {\n    // helper() in a comment\n    let s = \"helper()\";\n    \
             println!(\"{}\", s);\n}\nfn helper() {}\n",
        )]);
        assert!(resolved_names(&w, "root").is_empty());
    }

    #[test]
    fn test_items_make_no_nodes_or_edges() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t_helper() { prod(); }\n}\n",
        )]);
        assert_eq!(w.nodes.len(), 1);
        assert_eq!(w.nodes[0].name, "prod");
        // And a whole test file contributes nothing.
        let w = ws(&[("crates/a/tests/it.rs", "fn t() { x.unwrap(); }\n")]);
        assert!(w.nodes.is_empty());
    }

    #[test]
    fn local_effects_collected_and_waivable() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn f(x: Option<u8>) {\n    let v = Vec::new();\n    x.unwrap();\n    \
             // lint:allow(no_alloc_hot_loop): one-time header scratch\n    let w = data.to_vec();\n    \
             let _ = (v, w);\n}\n",
        )]);
        let n = node(&w, "f");
        let kinds: Vec<EffectKind> = n.effects.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EffectKind::Panic));
        assert!(kinds.contains(&EffectKind::Alloc));
        // The waived to_vec is gone; Vec::new stays.
        let allocs: Vec<&str> = n
            .effects
            .iter()
            .filter(|e| e.kind == EffectKind::Alloc)
            .map(|e| e.token.as_str())
            .collect();
        assert_eq!(allocs, vec!["Vec::new("]);
    }

    #[test]
    fn effects_attributed_to_innermost_fn() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn outer() {\n    fn inner(x: Option<u8>) { x.unwrap(); }\n    inner(None);\n}\n",
        )]);
        assert!(node(&w, "outer").effects.is_empty());
        assert_eq!(node(&w, "inner").effects.len(), 1);
    }

    #[test]
    fn turbofish_calls_still_extract() {
        let lexed = crate::lexer::lex("fn f() { parse::<u32>(s); }\n");
        let code = lexed.code_text();
        let calls = extract_calls(&code, &lexed);
        assert!(calls.iter().any(|c| c.name == "parse"));
    }

    #[test]
    fn alloc_tokens_have_boundaries() {
        assert!(alloc_tokens("SmallVec::new()").is_empty());
        assert!(!alloc_tokens("Vec::new()").is_empty());
        assert!(!alloc_tokens("let s = format!(\"x\")").is_empty());
    }
}
