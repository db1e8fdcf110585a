//! Graph-reachability effect rules.
//!
//! Each rule walks the [`Workspace`] call
//! graph from configured root functions and fails if any reachable
//! function carries a matching local effect token. Violations name the
//! whole chain:
//!
//! ```text
//! decode_into -> gather_rows -> lut_get [panic! at crates/simd/src/gather.rs:211]
//! ```
//!
//! * **Roots** come from `lint.toml`'s `[rule.<name>]` sections as
//!   `"path/suffix.rs:fn_name"` specs.
//! * **Boundaries** (same spec format, or a bare fn name) are functions
//!   the walk never enters — e.g. a cold error path a hot root may
//!   reach.
//! * Per-edge waivers: a `// lint:allow(<rule>): <reason>` on a call
//!   line severs that edge for that rule; on an effect line it drops
//!   the effect (handled during graph construction).

use crate::config::Config;
use crate::graph::{EffectKind, Workspace};
use crate::rules::Violation;
use std::collections::HashMap;

/// The graph rules and the effect each one looks for; `lint.toml` may
/// configure these and no others.
pub(crate) const GRAPH_RULES: &[(&str, EffectKind)] = &[
    ("no_panics_transitive", EffectKind::Panic),
    ("no_alloc_hot_loop", EffectKind::Alloc),
];

/// Evaluates every configured graph rule against the workspace.
pub fn evaluate(ws: &Workspace, cfg: &Config) -> Vec<Violation> {
    let mut violations = Vec::new();
    for &(rule, kind) in GRAPH_RULES {
        let Some(rule_cfg) = cfg.rules.get(rule) else {
            continue;
        };
        let boundary: Vec<&String> = rule_cfg.boundaries.iter().collect();
        let is_boundary =
            |idx: usize| -> bool { boundary.iter().any(|spec| matches_spec(ws, idx, spec)) };
        for spec in &rule_cfg.roots {
            let roots: Vec<usize> = (0..ws.nodes.len())
                .filter(|&i| matches_spec(ws, i, spec))
                .collect();
            if roots.is_empty() {
                violations.push(Violation {
                    file: "lint.toml".into(),
                    line: 0,
                    rule,
                    token: format!("root `{spec}` matched no function"),
                });
                continue;
            }
            for root in roots {
                walk_root(ws, rule, kind, root, &is_boundary, &mut violations);
            }
        }
    }
    violations
}

fn walk_root(
    ws: &Workspace,
    rule: &'static str,
    kind: EffectKind,
    root: usize,
    is_boundary: &dyn Fn(usize) -> bool,
    violations: &mut Vec<Violation>,
) {
    // BFS with parent pointers for chain reconstruction.
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    let mut seen = vec![false; ws.nodes.len()];
    seen[root] = true;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for effect in &ws.nodes[u].effects {
            if effect.kind != kind {
                continue;
            }
            let mut path = vec![ws.nodes[u].name.clone()];
            let mut at = u;
            while let Some(&p) = parent.get(&at) {
                path.push(ws.nodes[p].name.clone());
                at = p;
            }
            path.reverse();
            violations.push(Violation {
                file: ws.nodes[root].file.clone(),
                line: ws.nodes[root].decl_line,
                rule,
                token: format!(
                    "{} [{} at {}:{}]",
                    path.join(" -> "),
                    effect.token,
                    ws.nodes[u].file,
                    effect.line
                ),
            });
        }
        for call in &ws.nodes[u].calls {
            if call.waived.contains(rule) {
                continue;
            }
            for v in ws.resolve(u, call) {
                if seen[v] || is_boundary(v) {
                    continue;
                }
                seen[v] = true;
                parent.insert(v, u);
                queue.push_back(v);
            }
        }
    }
}

/// Does node `idx` match a `"path/suffix.rs:fn_name"` spec (or a bare
/// `fn_name`)?
fn matches_spec(ws: &Workspace, idx: usize, spec: &str) -> bool {
    let n = &ws.nodes[idx];
    match spec.rsplit_once(':') {
        Some((path, name)) => n.name == name && n.file.ends_with(path),
        None => n.name == spec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleCfg;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(r, t)| (r.to_string(), t.to_string()))
            .collect();
        Workspace::build(&files)
    }

    fn cfg_with(rule: &str, roots: &[&str], boundaries: &[&str]) -> Config {
        let mut cfg = Config::default();
        cfg.rules.insert(
            rule.to_string(),
            RuleCfg {
                roots: roots.iter().map(|s| s.to_string()).collect(),
                boundaries: boundaries.iter().map(|s| s.to_string()).collect(),
            },
        );
        cfg
    }

    #[test]
    fn three_deep_panic_chain_reports_full_path() {
        let w = ws(&[(
            "crates/c/src/decode.rs",
            "pub fn decode_into() { gather_rows(); }\n\
             fn gather_rows() { lut_get(); }\n\
             fn lut_get() { panic!(\"bad index\") }\n",
        )]);
        let cfg = cfg_with("no_panics_transitive", &["decode.rs:decode_into"], &[]);
        let violations = evaluate(&w, &cfg);
        assert_eq!(violations.len(), 1);
        // The token is the whole edge path, then the effect and its site.
        assert_eq!(
            violations[0].token,
            "decode_into -> gather_rows -> lut_get [panic! at crates/c/src/decode.rs:3]"
        );
        // The violation is attributed to the root's declaration.
        assert_eq!(violations[0].file, "crates/c/src/decode.rs");
        assert_eq!(violations[0].line, 1);
    }

    #[test]
    fn boundary_stops_traversal() {
        let w = ws(&[(
            "crates/c/src/decode.rs",
            "pub fn run() { step(); report(); }\n\
             fn step() {}\n\
             fn report() { describe(); }\n\
             fn describe() { let s = format!(\"x\"); }\n",
        )]);
        let cfg = cfg_with("no_alloc_hot_loop", &["decode.rs:run"], &[]);
        let violations = evaluate(&w, &cfg);
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].token,
            "run -> report -> describe [format! at crates/c/src/decode.rs:4]"
        );
        let cfg = cfg_with(
            "no_alloc_hot_loop",
            &["decode.rs:run"],
            &["decode.rs:report"],
        );
        let violations = evaluate(&w, &cfg);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn edge_waiver_severs_the_edge() {
        let w = ws(&[(
            "crates/c/src/lib.rs",
            "pub fn hot() {\n    // lint:allow(no_alloc_hot_loop): cold error path only\n    \
             slow_path();\n}\nfn slow_path() { let v = Vec::new(); }\n",
        )]);
        let cfg = cfg_with("no_alloc_hot_loop", &["lib.rs:hot"], &[]);
        let violations = evaluate(&w, &cfg);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn unmatched_root_is_a_violation() {
        let w = ws(&[("crates/c/src/lib.rs", "fn f() {}\n")]);
        let cfg = cfg_with("no_panics_transitive", &["lib.rs:not_there"], &[]);
        let violations = evaluate(&w, &cfg);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].token.contains("matched no function"));
    }

    #[test]
    fn clean_chain_is_green() {
        let w = ws(&[(
            "crates/c/src/lib.rs",
            "pub fn decode_into(buf: &mut [u8]) { widen(buf); }\n\
             fn widen(buf: &mut [u8]) { for b in buf { *b += 1 } }\n",
        )]);
        let cfg = cfg_with("no_panics_transitive", &["lib.rs:decode_into"], &[]);
        assert!(evaluate(&w, &cfg).is_empty());
    }
}
