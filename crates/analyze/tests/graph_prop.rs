//! Property tests for the call-graph extractor — call-looking tokens
//! planted in comments, strings, and `#[cfg(test)]` code must never
//! become edges — plus the planted-fixture integration test: a 3-deep
//! transitive panic chain and an uninventoried unsafe block must make
//! the lint gate fail with a fully-attributed chain.

use proptest::prelude::*;
use sciml_analyze::graph::Workspace;
use sciml_analyze::{lint_tree, Config};
use std::path::Path;

/// One source segment that plants a `lut_get(…)`-looking call inside
/// non-code bytes (or innocuous code with no call at all).
fn noise_segment(kind: u8, a: u8) -> String {
    match kind % 6 {
        0 => format!("    let v = {a};\n"),
        1 => "    // lut_get(7); gather_rows(keys, out);\n".to_string(),
        2 => "    /* lut_get(1) /* gather_rows() */ */\n".to_string(),
        3 => format!("    let s = \"lut_get({a}) \\\" gather_rows()\";\n"),
        4 => "    let r = r#\"lut_get(0) \" gather_rows()\"#;\n".to_string(),
        _ => format!("    let m = \"line one lut_get({a})\nline two gather_rows()\";\n"),
    }
}

proptest! {
    /// Calls that exist only in comments/strings never produce edges:
    /// the root's call list stays free of the planted names.
    #[test]
    fn calls_in_noncode_never_make_edges(
        kinds in proptest::collection::vec((0u8..6, any::<u8>()), 1..16),
    ) {
        let mut src = String::from("pub fn root(x: u8) {\n");
        for &(kind, a) in &kinds {
            src.push_str(&noise_segment(kind, a));
        }
        src.push_str("}\npub fn lut_get(i: u8) -> f32 { i as f32 }\n");
        let ws = Workspace::build(&[("crates/a/src/lib.rs".to_string(), src.clone())]);
        let root = ws
            .nodes
            .iter()
            .position(|n| n.name == "root")
            .expect("root node");
        let planted: Vec<_> = ws.nodes[root]
            .calls
            .iter()
            .filter(|c| c.name == "lut_get" || c.name == "gather_rows")
            .collect();
        prop_assert!(planted.is_empty(), "phantom calls {planted:?} in:\n{src}");
    }

    /// Functions inside `#[cfg(test)]` modules never become graph
    /// nodes, so their calls and panics are invisible to the effect
    /// rules no matter what the generator plants in them.
    #[test]
    fn cfg_test_code_produces_no_nodes(
        a in any::<u8>(),
    ) {
        let src = format!(
            "pub fn root() {{ helper({a}); }}\n\
             pub fn helper(x: u8) -> u8 {{ x }}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
                 fn test_only() {{ lut_get(1); panic!(\"boom\"); }}\n\
                 fn lut_get(i: u8) -> u8 {{ i }}\n\
             }}\n"
        );
        let ws = Workspace::build(&[("crates/a/src/lib.rs".to_string(), src)]);
        prop_assert!(ws.nodes.iter().all(|n| n.name != "test_only" && n.name != "lut_get"));
        // The real code is still graphed.
        prop_assert!(ws.nodes.iter().any(|n| n.name == "root"));
        prop_assert!(ws.nodes.iter().any(|n| n.name == "helper"));
    }
}

/// The on-disk planted fixture must fail the gate with a full chain
/// for the 3-deep panic and an `unsafe_inventory` violation for the
/// unrecorded unsafe block. `scripts/ci.sh` re-checks the same fixture
/// through the real binary.
#[test]
fn planted_fixture_fails_with_full_chain() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/planted");
    let cfg = Config::load(&dir.join("lint.toml")).expect("fixture lint.toml");
    let outcome = lint_tree(&[dir.join("crates")], &dir, &cfg).expect("fixture scan");

    assert!(!outcome.is_green(), "planted fixture must fail the gate");
    let chain = outcome
        .violations
        .iter()
        .find(|v| v.rule == "no_panics_transitive")
        .expect("transitive panic chain reported");
    assert_eq!(
        chain.token,
        "decode_into -> gather_rows -> lut_get [panic! at crates/hot/src/lib.rs:19]"
    );
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.rule == "unsafe_inventory" && v.file == "crates/hot/src/lib.rs"),
        "unrecorded unsafe block must trip the inventory; got {:?}",
        outcome.violations
    );
}
