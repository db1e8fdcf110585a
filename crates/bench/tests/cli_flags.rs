//! Every `sciml` command declares the flags it reads: any other `--flag`
//! exits 1 naming the flags the command does take, instead of being
//! passed over in silence.

use std::process::Command;

/// Runs `sciml` with `args` and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sciml"))
        .args(args)
        .output()
        .expect("run sciml");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn a_flag_the_command_does_not_read_is_an_error_naming_its_flags() {
    let (code, stderr) = run(&["cpu-features", "--bogus-flag"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("--bogus-flag") && stderr.contains("--list"),
        "{stderr}"
    );

    let dir = std::env::temp_dir().join(format!("sciml_cli_flags_{}", std::process::id()));
    let dir = dir.to_string_lossy();
    let (code, stderr) = run(&["verify-store", &dir, "--metric-out", "x"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("--metric-out") && stderr.contains("no flags"),
        "{stderr}"
    );
}

#[test]
fn a_flag_the_command_reads_is_accepted() {
    let (code, stderr) = run(&["cpu-features", "--list"]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = run(&["cluster-plan", "--nodes", "a:1,b:2", "--n", "4"]);
    assert_eq!(code, Some(0), "{stderr}");
}
