//! `bgp-community-infer` end to end against the oracle: a small MRT
//! archive written to disk, the binary run over it, and its db compared
//! byte for byte with the reference engine's export over the same
//! sorted, deduplicated tuples. The engine switches the binary once had
//! are refused.

#[path = "support/oracle_archive.rs"]
mod oracle_archive;

use bgp_infer::prelude::*;
use bgp_types::prelude::*;
use oracle_archive::{archive, unique_tuples, TempDir};
use std::path::Path;
use std::process::{Command, Output};

fn infer(args: &[&str], input: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgp-community-infer"))
        .args(args)
        .arg(input)
        .output()
        .expect("spawn bgp-community-infer")
}

#[test]
fn the_db_is_the_reference_engines_export() {
    let dir = TempDir::new("cli-oracle");
    let input = dir.0.join("day.mrt");
    let bytes = archive();
    std::fs::write(&input, &bytes).unwrap();

    // The archive is what it says: repeats and a dropped path.
    let (tuples, entries) = bgp_mrt::extract_tuples(&bytes).unwrap();
    assert_eq!(entries, 6 + 24);
    assert_eq!(tuples.len(), 5 + 24, "the AS0 path is dropped");
    assert!(tuples.iter().all(|t| !t.path.asns().contains(&Asn(0))));
    let sorted = unique_tuples(&bytes);
    assert_eq!(sorted.len(), 5 + 8);

    for (args, t) in [(&[][..], 0.99), (&["-t", "0.75"][..], 0.75)] {
        let db = dir.0.join(format!("db-{t}"));
        let mut argv = args.to_vec();
        argv.extend(["-o", db.to_str().unwrap()]);
        let out = infer(&argv, &input);
        assert!(
            out.status.success(),
            "{argv:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = std::fs::read_to_string(&db).unwrap();
        let want = export(
            &InferenceEngine::new(InferenceConfig::with_threshold(t)).run_reference(&sorted),
        );
        assert!(want.lines().count() > 2, "the oracle classified something");
        assert_eq!(got, want, "{argv:?}");
    }
}

#[test]
fn engine_switches_are_unknown_options() {
    for args in [&["-j", "2"][..], &["--reference"], &["--row-based"]] {
        let out = infer(args, Path::new("unused.mrt"));
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
    }
}
