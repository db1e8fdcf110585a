//! The `sciml-lint` binary on scratch trees: exit status 1 on any
//! violation, 2 on a usage error, and the unsafe inventory's round trip
//! through `--update-inventory`.

use std::path::{Path, PathBuf};
use std::process::Command;

const SITE: &str = "pub fn head(xs: &[u8]) -> u8 {\n    \
                    // SAFETY: callers pass a non-empty slice.\n    \
                    unsafe { *xs.as_ptr() }\n}\n";

fn lint(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sciml-lint"))
        .arg("--path")
        .arg(root)
        .args(extra)
        .output()
        .unwrap();
    let code = out.status.code().unwrap();
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

/// A repo with one crate holding one unsafe block, and a `lint.toml`
/// with no inventory file beside it.
fn scratch_tree(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lint-gate-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("crates/obs/src")).unwrap();
    std::fs::write(dir.join("crates/obs/src/lib.rs"), SITE).unwrap();
    std::fs::write(
        dir.join("lint.toml"),
        "[lint]\nhot_path_crates = []\ninstant_paths = []\n",
    )
    .unwrap();
    dir
}

#[test]
fn update_inventory_round_trips_and_an_edited_block_fails() {
    let dir = scratch_tree("roundtrip");
    let inventory = dir.join("lint.unsafe.toml");

    // No inventory file is an empty inventory: the site is unrecorded.
    let (code, out) = lint(&dir, &[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("[unsafe_inventory]"), "{out}");

    assert_eq!(lint(&dir, &["--update-inventory"]).0, 0);
    let written = std::fs::read_to_string(&inventory).unwrap();
    assert_eq!(written.matches("[[unsafe]]").count(), 1);
    assert!(written.contains("context = \"head\""));
    let (code, out) = lint(&dir, &[]);
    assert_eq!(code, 0, "{out}");
    // Regenerating an up-to-date inventory changes no byte.
    assert_eq!(lint(&dir, &["--update-inventory"]).0, 0);
    assert_eq!(std::fs::read_to_string(&inventory).unwrap(), written);

    // An edit inside the block moves its hash: the site is unrecorded
    // and the recorded entry is stale.
    std::fs::write(
        dir.join("crates/obs/src/lib.rs"),
        SITE.replace("*xs.as_ptr()", "*xs.as_ptr().add(0)"),
    )
    .unwrap();
    let (code, out) = lint(&dir, &[]);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains("unrecorded or edited unsafe block in `head`"),
        "{out}"
    );
    assert!(out.contains("no longer exist as recorded"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_token_violation_exits_1_and_names_its_waiver() {
    let dir = scratch_tree("token");
    std::fs::write(
        dir.join("lint.toml"),
        "[lint]\nhot_path_crates = [\"obs\"]\ninstant_paths = []\n",
    )
    .unwrap();
    assert_eq!(lint(&dir, &["--update-inventory"]).0, 0);
    std::fs::write(
        dir.join("crates/obs/src/more.rs"),
        "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
    )
    .unwrap();
    let (code, out) = lint(&dir, &[]);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains(
            "crates/obs/src/more.rs:2: [no_panics] `.unwrap()` — \
             annotate `// lint:allow(no_panics): <reason>` or fix"
        ),
        "{out}"
    );
    assert!(out.contains("2 file(s) scanned, 1 violation(s)"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_names_three_options_and_retired_flags_are_usage_errors() {
    let dir = scratch_tree("flags");
    let (code, help) = lint(&dir, &["--help"]);
    assert_eq!(code, 0);
    let mut options: Vec<&str> = help
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|w| w.starts_with("--"))
        .collect();
    options.sort();
    options.dedup();
    assert_eq!(
        options,
        ["--config", "--path", "--update-inventory"],
        "{help}"
    );
    for retired in ["--json", "--quiet", "--update-baseline", "--require"] {
        assert_eq!(lint(&dir, &[retired]).0, 2, "{retired}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
