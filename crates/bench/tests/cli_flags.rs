//! Every `sciml` command declares the flags it reads: any other `--flag`
//! exits 1 naming the flags the command does take, instead of being
//! passed over in silence. `figures` takes one target and `--full`:
//! anything else exits 2 naming the targets and `--full`.

use std::process::Command;

/// Runs `sciml` with `args` and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    run_bin(env!("CARGO_BIN_EXE_sciml"), args)
}

fn run_bin(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("run binary");
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

#[test]
fn figures_rejects_a_misspelt_flag_and_a_second_target() {
    for args in [&["fig4", "--ful"][..], &["fig4", "fig5"]] {
        let (code, stderr) = run_bin(env!("CARGO_BIN_EXE_figures"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("--full") && stderr.contains("table1") && stderr.contains("scaling"),
            "{args:?}: {stderr}"
        );
    }
}
