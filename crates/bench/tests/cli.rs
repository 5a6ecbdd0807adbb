//! Command-line handling shared by the figure binaries (`dtn_bench::Cli`):
//! an unknown flag or a malformed value must stop the binary with exit
//! code 2 and a usage line, never warn and carry on.

use std::process::Command;

fn fig4(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fig4"))
        .args(args)
        .output()
        .expect("run fig4")
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    // `--transport` is a retired fleet flag: it must fail loudly, not be
    // ignored.
    for args in [&["--bogus"][..], &["--transport", "tcp"][..]] {
        let out = fig4(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(args[0]) && err.contains("usage:"), "{err}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn malformed_value_exits_2_naming_the_flag() {
    for args in [
        &["--seeds", "x"][..],
        &["--seeds"][..],
        &["--workers", "two"][..],
        &["--retries", "-1"][..],
    ] {
        let out = fig4(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(args[0]) && err.contains("usage:"), "{err}");
    }
}
