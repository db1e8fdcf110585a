//! sciml-analyze — in-repo correctness tooling for the sciml stack.
//!
//! Two halves (see `docs/ARCHITECTURE.md` §4f and §4k):
//!
//! * **`sciml-lint`** (this crate, plus the `sciml-lint` binary): a
//!   std-only static-analysis pass over `crates/` and `shims/` built on
//!   a small comment/string/raw-string-aware Rust [`lexer`]. Four token
//!   [`rules`] run per line: `no_panics` (no `unwrap`/`expect`/`panic!`
//!   family in non-test hot-path code), `safety_comment` (every `unsafe`
//!   block or impl carries a `// SAFETY:` justification), `no_std_sync`
//!   (lock types go through `shims/parking_lot`, which is where the
//!   lockcheck instrumentation lives), `no_instant` (no raw
//!   `Instant::now()` in designated decode inner loops — timing goes
//!   through `sciml-obs`). Three [`effects`] rules walk the workspace
//!   call [`graph`] from `lint.toml`'s roots, and `unsafe_inventory`
//!   holds every unsafe site to the generated inventory beside
//!   `lint.toml` ([`config::inventory_path`]). A violation is waived in
//!   place with `// lint:allow(<rule>): <reason>`, or fixed.
//! * **the lock-order detector** in `parking_lot::lockcheck`
//!   (`--cfg lockcheck`), whose statistics `sciml-obs` republishes as
//!   `analyze.lockcheck.*`.
//!
//! The CI gate is [`Outcome::is_green`]: no violation of any rule.

#![deny(missing_docs)]

pub mod config;
pub mod effects;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;

pub use config::{Config, RuleCfg, UnsafeEntry};
pub use rules::{FileContext, Violation, RULE_NAMES};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Result of linting a tree against a config.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every violation found; any one fails the gate.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The unsafe inventory of the scanned tree as it exists *now*
    /// (what `--update-inventory` writes).
    pub unsafe_entries: Vec<UnsafeEntry>,
}

impl Outcome {
    /// The CI gate: no violations.
    pub fn is_green(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lints every `.rs` file under each of `roots` (typically the repo's
/// `crates/` and `shims/` directories, or a single file) against `cfg`.
///
/// Two phases: per-file token rules first, then the workspace call
/// graph is built once over all scanned files for the reachability
/// rules and the unsafe-inventory check.
pub fn lint_tree(roots: &[PathBuf], repo_root: &Path, cfg: &Config) -> std::io::Result<Outcome> {
    let mut files = Vec::new();
    for root in roots {
        collect_rs_files(root, &mut files)?;
    }
    files.sort();
    files.dedup();

    let mut outcome = Outcome::default();
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let rel = rel_path(repo_root, &path);
        let ctx = file_context(&rel, cfg);
        outcome.files_scanned += 1;
        outcome.violations.extend(rules::scan_file(&text, &ctx));
        sources.push((rel, text));
    }

    // Phase two: call graph + effect rules + unsafe inventory. Only
    // `crates/` files become graph nodes (the shims mimic external
    // crates; their panic/alloc internals are exactly what the
    // effect tokens detect at the call site), but every scanned file
    // is inventoried for unsafe sites.
    let ws = graph::Workspace::build(&sources);
    outcome.violations.extend(effects::evaluate(&ws, cfg));
    let sites = unsafe_sites(&ws);
    outcome
        .violations
        .extend(inventory_diff(&sites, &cfg.unsafe_inventory));
    outcome.unsafe_entries = sites.into_iter().map(|(entry, _)| entry).collect();
    outcome.unsafe_entries.sort();
    Ok(outcome)
}

/// The scanned tree's non-test unsafe sites as inventory entries, each
/// with its line. Test-code unsafe (inside `#[cfg(test)]` or `tests/`
/// files) is excluded: it churns with test edits and is not part of the
/// production unsafe surface the inventory protects.
fn unsafe_sites(ws: &graph::Workspace) -> Vec<(UnsafeEntry, usize)> {
    let mut out = Vec::new();
    for f in &ws.files {
        for (site, hash) in f.unsafe_sites.iter().zip(&f.unsafe_hashes) {
            if f.test_file || site.is_test {
                continue;
            }
            let entry = UnsafeEntry {
                file: f.rel.clone(),
                kind: site.kind.name().to_string(),
                context: site.context.clone(),
                hash: hash.clone(),
                safety: site.safety_comment,
            };
            out.push((entry, site.line));
        }
    }
    out
}

/// Multiset diff of the current unsafe sites against the recorded
/// inventory: unrecorded sites and entries that no longer match both
/// fail as `unsafe_inventory` violations until the inventory is
/// regenerated (and the diff reviewed).
fn inventory_diff(sites: &[(UnsafeEntry, usize)], recorded: &[UnsafeEntry]) -> Vec<Violation> {
    let mut budget: BTreeMap<&UnsafeEntry, usize> = BTreeMap::new();
    for e in recorded {
        *budget.entry(e).or_default() += 1;
    }
    let mut out = Vec::new();
    for (site, line) in sites {
        match budget.get_mut(site) {
            Some(n) if *n > 0 => *n -= 1,
            _ => out.push(Violation {
                file: site.file.clone(),
                line: *line,
                rule: "unsafe_inventory",
                token: format!(
                    "unrecorded or edited unsafe {} in `{}` — review it, then run `sciml-lint --update-inventory`",
                    site.kind, site.context
                ),
            }),
        }
    }
    for (e, n) in budget {
        if n > 0 {
            out.push(Violation {
                file: e.file.clone(),
                line: 0,
                rule: "unsafe_inventory",
                token: format!(
                    "inventory records {n} unsafe {} site(s) in `{}` that no longer exist as recorded — run `sciml-lint --update-inventory`",
                    e.kind, e.context
                ),
            });
        }
    }
    out
}

fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    for entry in std::fs::read_dir(path)? {
        let entry = entry?;
        let p = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_path(repo_root: &Path, path: &Path) -> String {
    path.strip_prefix(repo_root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Derives the per-file rule context from its repo-relative path.
pub fn file_context(rel: &str, cfg: &Config) -> FileContext {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("");
    let test_file = rel.contains("/tests/") || rel.contains("/benches/");
    FileContext {
        rel_path: rel.to_string(),
        hot_path: cfg.hot_path_crates.iter().any(|c| c == crate_name),
        instant_designated: cfg
            .instant_paths
            .iter()
            .any(|p| rel.starts_with(p.as_str())),
        test_file,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, rel: &str, text: &str) {
        let p = dir.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, text).unwrap();
    }

    fn tmp_repo(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lint-tree-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_token_rule_violation_fails_the_gate() {
        let dir = tmp_repo("token");
        write(
            &dir,
            "crates/codec/src/lib.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }\nfn g(x: Option<u8>) { x.unwrap(); }\n",
        );
        let out = lint_tree(&[dir.join("crates")], &dir, &Config::default()).unwrap();
        assert!(!out.is_green());
        assert_eq!(out.violations.len(), 2);
        assert!(out.violations.iter().all(|v| v.rule == "no_panics"));
        // Nothing in a config can absorb them: the grandfather section
        // that once could is now a parse error.
        let text = "[lint]\nhot_path_crates = [\"codec\"]\n[[baseline]]\n\
                    file = \"crates/codec/src/lib.rs\"\nrule = \"no_panics\"\ncount = 2\n";
        assert!(Config::parse(text).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn context_rules_follow_paths() {
        let cfg = Config::default();
        assert!(file_context("crates/codec/src/lib.rs", &cfg).hot_path);
        assert!(!file_context("crates/obs/src/lib.rs", &cfg).hot_path);
        assert!(file_context("crates/codec/src/f16.rs", &cfg).instant_designated);
        assert!(file_context("crates/serve/tests/integration.rs", &cfg).test_file);
    }

    #[test]
    fn the_inventory_is_a_multiset_of_non_test_sites() {
        let dir = tmp_repo("inventory");
        let site = "fn head(xs: &[u8]) -> u8 {\n    // SAFETY: caller passes a non-empty slice.\n    unsafe { *xs.as_ptr() }\n}\n";
        write(
            &dir,
            "crates/obs/src/lib.rs",
            &format!("{site}{}", site.replace("head", "tail")),
        );
        write(&dir, "crates/obs/tests/t.rs", site);
        let mut cfg = Config::default();
        let out = lint_tree(&[dir.join("crates")], &dir, &cfg).unwrap();
        // An empty inventory allows no unsafe site; test files are not
        // inventoried.
        assert_eq!(out.violations.len(), 2, "{:?}", out.violations);
        assert_eq!(out.unsafe_entries.len(), 2);

        cfg.unsafe_inventory = out.unsafe_entries.clone();
        assert!(lint_tree(&[dir.join("crates")], &dir, &cfg)
            .unwrap()
            .is_green());

        // A recorded site that is gone is stale, and fails too.
        cfg.unsafe_inventory.push(cfg.unsafe_inventory[0].clone());
        let out = lint_tree(&[dir.join("crates")], &dir, &cfg).unwrap();
        assert_eq!(out.violations.len(), 1);
        assert!(out.violations[0].token.contains("no longer exist"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
