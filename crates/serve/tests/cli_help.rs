//! `--help` is a request, not an error: usage text and exit 0.

use std::process::Command;

#[test]
fn help_prints_usage_and_exits_zero() {
    for (name, exe) in [
        ("bgp-served", env!("CARGO_BIN_EXE_bgp-served")),
        ("bgp-flood", env!("CARGO_BIN_EXE_bgp-flood")),
    ] {
        let out = Command::new(exe).arg("--help").output().expect(name);
        assert!(out.status.success(), "{name}: exit {:?}", out.status);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("usage: {name}")), "{name}: {err}");
    }
}
