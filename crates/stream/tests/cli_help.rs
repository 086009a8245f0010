//! `--help` is a request, not an error: usage text and exit 0.

use std::process::Command;

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_bgp-stream-infer"))
        .arg("--help")
        .output()
        .expect("spawn bgp-stream-infer");
    assert!(out.status.success(), "exit {:?}", out.status);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: bgp-stream-infer"));
}
