//! sciml-lint — static analysis gate for the sciml workspace.
//!
//! ```text
//! sciml-lint [--path <dir>] [--config <lint.toml>] [--update-inventory]
//! ```
//!
//! Walks `<path>/crates` *and* `<path>/shims` (or `<path>` itself when
//! it is not a repo root), prints every violation, and exits 1 if there
//! is any. `--update-inventory` writes the unsafe inventory beside the
//! config (`lint.unsafe.toml` for `lint.toml`) whole, from the sites the
//! tree holds now, and exits 0. Exit status 2 is a usage, config or I/O
//! error.

use sciml_analyze::config::{inventory_path, render_inventory};
use sciml_analyze::{lint_tree, Config, Violation};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: sciml-lint [--path <dir>] [--config <lint.toml>] [--update-inventory]

  --path <dir>          repo root to scan (default .)
  --config <file>       hand-written config (default <dir>/lint.toml); the
                        unsafe inventory is the .unsafe.toml file beside it
  --update-inventory    rewrite the unsafe inventory from the tree and exit";

struct Args {
    path: PathBuf,
    config: Option<PathBuf>,
    update_inventory: bool,
}

/// `Ok(None)` is `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        path: PathBuf::from("."),
        config: None,
        update_inventory: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--path" => {
                args.path = PathBuf::from(it.next().ok_or("--path needs a value")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a value")?));
            }
            "--update-inventory" => args.update_inventory = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let repo_root = args.path.clone();
    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| repo_root.join("lint.toml"));
    let cfg = match Config::load(&config_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sciml-lint: {e}");
            return ExitCode::from(2);
        }
    };

    // A repo root is scanned as crates/ + shims/ (the lockcheck shim
    // code is linted too); anything else is scanned as-is.
    let crates_dir = repo_root.join("crates");
    let scan_roots: Vec<PathBuf> = if crates_dir.is_dir() {
        let shims_dir = repo_root.join("shims");
        if shims_dir.is_dir() {
            vec![crates_dir, shims_dir]
        } else {
            vec![crates_dir]
        }
    } else {
        vec![repo_root.clone()]
    };
    let outcome = match lint_tree(&scan_roots, &repo_root, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sciml-lint: scanning: {e}");
            return ExitCode::from(2);
        }
    };

    if args.update_inventory {
        let path = inventory_path(&config_path);
        if let Err(e) = std::fs::write(&path, render_inventory(&outcome.unsafe_entries)) {
            eprintln!("sciml-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "{} unsafe site(s) inventoried in {}",
            outcome.unsafe_entries.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    for Violation {
        file,
        line,
        rule,
        token,
    } in &outcome.violations
    {
        // An inventory finding is cleared by review and regeneration (its
        // token says so); `lint:allow` does not waive it.
        if *rule == "unsafe_inventory" {
            println!("{file}:{line}: [{rule}] {token}");
        } else {
            println!(
                "{file}:{line}: [{rule}] `{token}` — annotate `// lint:allow({rule}): <reason>` or fix"
            );
        }
    }
    println!(
        "{} file(s) scanned, {} violation(s)",
        outcome.files_scanned,
        outcome.violations.len()
    );
    if outcome.is_green() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
