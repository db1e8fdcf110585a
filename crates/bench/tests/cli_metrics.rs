//! The `sciml` binary's metrics exports, end to end: `serve
//! --metrics-out` and `fetch --metrics-out` both write the one read-out
//! (`Telemetry::exposition`), a Prometheus exposition carrying the
//! derived families, and `fetch` refuses its retired flags by name.

use sciml_obs::parse_prometheus;
use sciml_obs::prom::PromParsed;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn sciml() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sciml"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sciml_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Kills the server if the test fails before it is shut down.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `sciml` with `args` and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = sciml().args(args).output().expect("run sciml");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

/// Parses the exposition at `path` and checks the derived families
/// every read-out carries.
fn read_out(path: &Path) -> PromParsed {
    let text = std::fs::read_to_string(path).expect("metrics file");
    let parsed = parse_prometheus(&text)
        .unwrap_or_else(|e| panic!("{}: not an exposition: {e}", path.display()));
    for family in ["obs_trace_dropped_spans", "codec_simd_dispatch_total"] {
        assert_eq!(
            parsed.kind(family),
            Some("gauge"),
            "{}: {family}",
            path.display()
        );
    }
    parsed
}

#[test]
fn serve_and_fetch_metrics_out_write_the_one_read_out() {
    let dir = tmp_dir("metrics_out");
    for i in 0..2 {
        std::fs::write(dir.join(format!("sample_{i:06}.bin")), vec![i as u8; 64]).unwrap();
    }
    let server_prom = dir.join("server.prom");
    let client_prom = dir.join("client.prom");
    let mut server = Reap(
        sciml()
            .args(["serve", "--n", "2", "--addr", "127.0.0.1:0", "--dir"])
            .arg(&dir)
            .arg("--metrics-out")
            .arg(&server_prom)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn serve"),
    );
    // "serving 'default' (…) on 127.0.0.1:PORT — …"
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "serve exited early"
        );
        if let Some(rest) = line.strip_prefix("serving ") {
            let addr = rest.split(" on ").nth(1).and_then(|r| r.split(' ').next());
            break addr.expect("bound address").to_string();
        }
    };

    let fetch = sciml()
        .args([
            "fetch",
            "--addr",
            &addr,
            "--indices",
            "0,1",
            "--metrics-out",
        ])
        .arg(&client_prom)
        .output()
        .unwrap();
    assert!(fetch.status.success(), "{fetch:?}");
    let client = read_out(&client_prom);
    assert_eq!(client.kind("client_fetch_ns"), Some("histogram"));

    let (code, stderr) = run(&["fetch", "--addr", &addr, "--shutdown"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(server.0.wait().unwrap().success());
    let served = read_out(&server_prom);
    assert_eq!(served.samples_named("serve_samples_served")[0].value, "2");
    assert_eq!(served.kind("serve_request_ns"), Some("histogram"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_fetch_flags_fail_naming_their_replacement() {
    for (args, instead) in [
        (&["--stats"][..], "--metrics-addr"),
        (&["--metrics-text", "-"][..], "--metrics-out"),
        (&["--watch-iters", "3"][..], "sciml scrape"),
    ] {
        let mut argv = vec!["fetch", "--addr", "127.0.0.1:1"];
        argv.extend_from_slice(args);
        let (code, stderr) = run(&argv);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(args[0]) && stderr.contains("retired") && stderr.contains(instead),
            "{args:?}: {stderr}"
        );
    }
}
