//! `lint.toml` parsing, in a deliberately small TOML subset (sections,
//! string / string-array / bool values) so the analyzer stays std-only.
//!
//! The configuration is two files. `lint.toml` is hand-written: the
//! `[lint]` section and one `[rule.<name>]` section per graph rule. The
//! unsafe inventory beside it ([`inventory_path`]: `lint.unsafe.toml`
//! for `lint.toml`) is a list of `[[unsafe]]` tables that
//! `sciml-lint --update-inventory` writes whole; a missing inventory
//! file is an empty inventory.

use crate::effects::GRAPH_RULES;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Root / boundary configuration for one graph rule
/// (`[rule.<name>]` section).
#[derive(Debug, Clone, Default)]
pub struct RuleCfg {
    /// Root functions as `"path/suffix.rs:fn_name"` specs.
    pub roots: Vec<String>,
    /// Functions the reachability walk never enters (same spec format,
    /// or a bare fn name).
    pub boundaries: Vec<String>,
}

/// One recorded unsafe site (an `[[unsafe]]` table of the inventory).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct UnsafeEntry {
    /// Repo-relative file path.
    pub file: String,
    /// `block`, `impl`, or `fn`.
    pub kind: String,
    /// Enclosing fn (blocks / unsafe fns) or impl type.
    pub context: String,
    /// Normalized FNV-1a 64 hash of the span's non-whitespace bytes.
    pub hash: String,
    /// Whether a SAFETY comment covers the site.
    pub safety: bool,
}

/// The parsed configuration: `lint.toml` plus its unsafe inventory.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose non-test code must be panic-free (`no_panics`).
    pub hot_path_crates: Vec<String>,
    /// Paths (repo-relative prefixes) designated as decode inner loops
    /// for the `no_instant` rule.
    pub instant_paths: Vec<String>,
    /// Graph-rule roots/boundaries, keyed by rule name.
    pub rules: BTreeMap<String, RuleCfg>,
    /// The committed unsafe inventory: every non-test unsafe site the
    /// tree may hold.
    pub unsafe_inventory: Vec<UnsafeEntry>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            hot_path_crates: ["codec", "pipeline", "serve", "store", "compress"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            instant_paths: vec![
                "crates/codec/src".into(),
                "crates/compress/src".into(),
                "crates/pipeline/src/pipeline.rs".into(),
            ],
            rules: BTreeMap::new(),
            unsafe_inventory: Vec::new(),
        }
    }
}

/// A parse failure with its line number.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-indexed line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: String) -> ConfigError {
    ConfigError { line, message }
}

/// One meaningful line: a section header or a `key = value` pair.
enum Line<'a> {
    Header(&'a str),
    Pair(&'a str, &'a str),
}

/// The non-blank, non-comment lines of `text`, numbered from 1.
fn lines(text: &str) -> impl Iterator<Item = (usize, Result<Line<'_>, ConfigError>)> {
    text.lines()
        .enumerate()
        .map(|(idx, raw)| (idx + 1, raw.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(lineno, line)| {
            let parsed = if line.starts_with('[') {
                Ok(Line::Header(line))
            } else {
                match line.split_once('=') {
                    Some((key, value)) => Ok(Line::Pair(key.trim(), value.trim())),
                    None => Err(err(lineno, format!("expected `key = value`, got `{line}`"))),
                }
            };
            (lineno, parsed)
        })
}

impl Config {
    /// Parses hand-written `lint.toml` text: a `[lint]` section and
    /// `[rule.<name>]` sections for the graph rules. Any other section
    /// is an error, so a leftover `[[baseline]]`, an `[[unsafe]]` table
    /// outside the inventory file or a misspelled rule is never
    /// silently ignored.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = Config::default();
        // `None` before the first header, then `Some(None)` in `[lint]`
        // and `Some(Some(rule))` in `[rule.<rule>]`.
        let mut section: Option<Option<String>> = None;
        for (lineno, line) in lines(text) {
            let (key, value) = match line? {
                Line::Header("[lint]") => {
                    section = Some(None);
                    continue;
                }
                Line::Header(header) => {
                    let Some(rule) = header
                        .strip_prefix("[rule.")
                        .and_then(|s| s.strip_suffix(']'))
                    else {
                        return Err(err(lineno, format!("unknown section `{header}`")));
                    };
                    // A misspelled rule would leave its roots unchecked.
                    if !GRAPH_RULES.iter().any(|&(name, _)| name == rule) {
                        return Err(err(lineno, format!("no graph rule `{rule}` in `{header}`")));
                    }
                    cfg.rules.entry(rule.to_string()).or_default();
                    section = Some(Some(rule.to_string()));
                    continue;
                }
                Line::Pair(key, value) => (key, value),
            };
            match &section {
                None => return Err(err(lineno, "key before any section header".into())),
                Some(None) => match key {
                    "hot_path_crates" => cfg.hot_path_crates = parse_string_array(value, lineno)?,
                    "instant_paths" => cfg.instant_paths = parse_string_array(value, lineno)?,
                    _ => return Err(err(lineno, format!("unknown [lint] key `{key}`"))),
                },
                Some(Some(rule)) => {
                    let entry = cfg.rules.entry(rule.clone()).or_default();
                    match key {
                        "roots" => entry.roots = parse_string_array(value, lineno)?,
                        "boundaries" => entry.boundaries = parse_string_array(value, lineno)?,
                        _ => return Err(err(lineno, format!("unknown [rule.{rule}] key `{key}`"))),
                    }
                }
            }
        }
        Ok(cfg)
    }

    /// Loads `lint.toml` from `path` and the inventory beside it. A
    /// missing `lint.toml` yields the default configuration, and a
    /// missing inventory an empty one. Errors name the file and line.
    pub fn load(path: &Path) -> Result<Self, String> {
        let mut cfg = match read_optional(path)? {
            Some(text) => Self::parse(&text).map_err(|e| format!("{}:{e}", path.display()))?,
            None => Config::default(),
        };
        let inventory = inventory_path(path);
        if let Some(text) = read_optional(&inventory)? {
            cfg.unsafe_inventory =
                parse_inventory(&text).map_err(|e| format!("{}:{e}", inventory.display()))?;
        }
        Ok(cfg)
    }
}

fn read_optional(path: &Path) -> Result<Option<String>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

/// The generated inventory file that belongs to the config at
/// `config`: `lint.toml` → `lint.unsafe.toml`, in the same directory.
pub fn inventory_path(config: &Path) -> PathBuf {
    config.with_extension("unsafe.toml")
}

/// Parses inventory text: `[[unsafe]]` tables, each with `file`,
/// `kind` and `hash` (`context` and `safety` may be left out).
pub fn parse_inventory(text: &str) -> Result<Vec<UnsafeEntry>, ConfigError> {
    let mut out = Vec::new();
    let mut cur: Option<(usize, UnsafeEntry)> = None;
    let finish = |cur: Option<(usize, UnsafeEntry)>, out: &mut Vec<UnsafeEntry>| {
        if let Some((line, e)) = cur {
            if e.file.is_empty() || e.kind.is_empty() || e.hash.is_empty() {
                return Err(err(
                    line,
                    "unsafe entry needs `file`, `kind`, and `hash`".into(),
                ));
            }
            out.push(e);
        }
        Ok(())
    };
    for (lineno, line) in lines(text) {
        match line? {
            Line::Header("[[unsafe]]") => {
                finish(cur.take(), &mut out)?;
                cur = Some((lineno, UnsafeEntry::default()));
            }
            Line::Header(header) => {
                return Err(err(lineno, format!("unknown section `{header}`")));
            }
            Line::Pair(key, value) => {
                let Some((_, entry)) = cur.as_mut() else {
                    return Err(err(lineno, "key outside [[unsafe]]".into()));
                };
                match key {
                    "file" => entry.file = parse_string(value, lineno)?,
                    "kind" => entry.kind = parse_string(value, lineno)?,
                    "context" => entry.context = parse_string(value, lineno)?,
                    "hash" => entry.hash = parse_string(value, lineno)?,
                    "safety" => {
                        entry.safety = match value {
                            "true" => true,
                            "false" => false,
                            _ => {
                                return Err(err(
                                    lineno,
                                    format!("safety must be true or false, got `{value}`"),
                                ))
                            }
                        }
                    }
                    _ => return Err(err(lineno, format!("unknown [[unsafe]] key `{key}`"))),
                }
            }
        }
    }
    finish(cur, &mut out)?;
    Ok(out)
}

/// The whole text of an inventory file recording `entries`.
pub fn render_inventory(entries: &[UnsafeEntry]) -> String {
    let mut out = String::from(
        "# Unsafe inventory for sciml-lint's `unsafe_inventory` rule (see\n\
         # docs/ARCHITECTURE.md §4k). Generated whole by\n\
         # `sciml-lint --update-inventory`: review a new or edited unsafe\n\
         # site, then regenerate; do not edit by hand.\n",
    );
    for e in entries {
        out.push_str(&format!(
            "\n[[unsafe]]\nfile = \"{}\"\nkind = \"{}\"\ncontext = \"{}\"\nhash = \"{}\"\nsafety = {}\n",
            e.file, e.kind, e.context, e.hash, e.safety
        ));
    }
    out
}

fn parse_string(value: &str, line: usize) -> Result<String, ConfigError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(err(
            line,
            format!("expected a quoted string, got `{value}`"),
        ))
    }
}

fn parse_string_array(value: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    let Some(inner) = v.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
        return Err(err(
            line,
            format!("expected an array of strings, got `{value}`"),
        ));
    };
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_string(s, line))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = r#"
# comment
[lint]
hot_path_crates = ["codec", "pipeline"]
instant_paths = ["crates/codec/src"]
"#;
        let cfg = Config::parse(text).unwrap();
        assert_eq!(cfg.hot_path_crates, vec!["codec", "pipeline"]);
        assert_eq!(cfg.instant_paths, vec!["crates/codec/src"]);
        assert!(cfg.unsafe_inventory.is_empty());
    }

    #[test]
    fn a_baseline_section_is_an_error_that_names_it() {
        let text = "[lint]\nhot_path_crates = [\"codec\"]\n\n[[baseline]]\n\
                    file = \"crates/codec/src/lib.rs\"\nrule = \"no_panics\"\ncount = 1\n";
        let err = Config::parse(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("[[baseline]]"), "{err}");
    }

    #[test]
    fn unsafe_tables_belong_in_the_inventory_file() {
        let text = "[[unsafe]]\nfile = \"a.rs\"\nkind = \"block\"\nhash = \"00\"\n";
        assert!(Config::parse(text)
            .unwrap_err()
            .message
            .contains("[[unsafe]]"));
        assert_eq!(parse_inventory(text).unwrap().len(), 1);
        assert!(parse_inventory("[lint]\n").is_err());
    }

    #[test]
    fn missing_field_is_an_error() {
        // An entry without a `hash` is named by its header's line.
        let text = "[[unsafe]]\nfile = \"a.rs\"\nkind = \"block\"\nhash = \"00\"\n\n\
                    [[unsafe]]\nfile = \"x.rs\"\nkind = \"block\"\n";
        let err = parse_inventory(text).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("`hash`"));
    }

    #[test]
    fn bad_syntax_reports_line() {
        let err = Config::parse("[lint]\nhot_path_crates = nope\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn parses_rule_sections() {
        let text = "[rule.no_panics_transitive]\nroots = [\"decode.rs:decode_into\"]\n\n\
                    [rule.no_blocking_in_reactor]\nroots = [\"reactor.rs:run\"]\nboundaries = [\"reactor.rs:maybe_dispatch\"]\n";
        let cfg = Config::parse(text).unwrap();
        assert_eq!(
            cfg.rules["no_panics_transitive"].roots,
            vec!["decode.rs:decode_into"]
        );
        assert_eq!(
            cfg.rules["no_blocking_in_reactor"].boundaries,
            vec!["reactor.rs:maybe_dispatch"]
        );
        let err = Config::parse("[rule.no_alloc_hot_loop]\nnope = [\"y\"]\n").unwrap_err();
        assert!(err.message.contains("unknown [rule.no_alloc_hot_loop] key"));
        // A misspelled rule is an error, not a section whose roots are
        // never walked.
        let err = Config::parse("[rule.no_panic_transitive]\nroots = [\"a.rs:f\"]\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("no_panic_transitive"), "{err}");
    }

    #[test]
    fn inventory_roundtrips_beside_its_config() {
        let dir = std::env::temp_dir().join(format!("lint-unsafe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lint.toml");
        std::fs::write(&path, "[lint]\nhot_path_crates = [\"codec\"]\n").unwrap();
        assert_eq!(inventory_path(&path), dir.join("lint.unsafe.toml"));
        // No inventory file: an empty inventory, not an unenforced one.
        assert!(Config::load(&path).unwrap().unsafe_inventory.is_empty());

        let entries = vec![UnsafeEntry {
            file: "crates/simd/src/gather.rs".into(),
            kind: "block".into(),
            context: "gather_rows".into(),
            hash: "00ff00ff00ff00ff".into(),
            safety: true,
        }];
        std::fs::write(inventory_path(&path), render_inventory(&entries)).unwrap();
        let cfg = Config::load(&path).unwrap();
        assert_eq!(cfg.hot_path_crates, vec!["codec"]);
        assert_eq!(cfg.unsafe_inventory, entries);
        std::fs::remove_dir_all(&dir).ok();
    }
}
