//! Every timed floor is a row of its crate's one speed table: an
//! `#[ignore = "timing…"]` test anywhere under `crates/` or `tests/` must
//! be named `speed_floors`, where `sciml_simd::speed` times its rows. A
//! hand-rolled timing loop beside the tables would time in its own way
//! and state its floor outside them.

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(file:line, fn name)` of every test under a timing `#[ignore]`.
fn timing_tests(files: &[PathBuf]) -> Vec<(String, String)> {
    let mut found = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).unwrap();
        let mut lines = text.lines().enumerate();
        while let Some((at, line)) = lines.next() {
            if !line.trim_start().starts_with("#[ignore = \"timing") {
                continue;
            }
            // The item the attribute sits on: the next `fn` line.
            let name = lines
                .by_ref()
                .find_map(|(_, l)| l.trim_start().strip_prefix("fn "))
                .and_then(|rest| rest.split(['(', '<']).next())
                .unwrap_or("?");
            found.push((format!("{}:{}", file.display(), at + 1), name.to_string()));
        }
    }
    found
}

#[test]
fn every_timing_test_is_a_speed_floors_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    let found = timing_tests(&files);
    let stray: Vec<String> = found
        .iter()
        .filter(|(_, name)| name != "speed_floors")
        .map(|(at, name)| format!("{at}: fn {name}"))
        .collect();
    assert!(
        stray.is_empty(),
        "timing tests outside a `speed_floors` table:\n{}",
        stray.join("\n")
    );
    // One table each in sciml-compress, sciml-codec and this package.
    assert_eq!(found.len(), 3, "{found:?}");
}
