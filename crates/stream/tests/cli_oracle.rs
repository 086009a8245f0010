//! `bgp-stream-infer` end to end against the oracle: the MRT archive of
//! `crates/core/tests/cli_oracle.rs` written to disk, the binary run over
//! it at three epoch policies (an epoch per event, one every seven, and
//! the default, which seals the whole archive as one) and two
//! thresholds, and every db compared byte for byte with the reference
//! engine's export over the archive's sorted, deduplicated tuples.

#[path = "../../core/tests/support/oracle_archive.rs"]
mod oracle_archive;

use bgp_infer::prelude::*;
use oracle_archive::{archive, unique_tuples, TempDir};

#[test]
fn the_db_is_the_reference_engines_export_at_every_epoch_policy() {
    let dir = TempDir::new("stream-cli-oracle");
    let input = dir.0.join("day.mrt");
    let bytes = archive();
    std::fs::write(&input, &bytes).unwrap();
    let sorted = unique_tuples(&bytes);

    for (threshold, t) in [(None, 0.99), (Some("0.75"), 0.75)] {
        let want = export(
            &InferenceEngine::new(InferenceConfig::with_threshold(t)).run_reference(&sorted),
        );
        assert!(want.lines().count() > 2, "the oracle classified something");
        // 29 events: the five kept RIB entries and the 24 announcements.
        for (epoch, epochs) in [(Some("1"), 29), (Some("7"), 5), (None, 1)] {
            let db = dir.0.join(format!("db-{t}-{}", epoch.unwrap_or("all")));
            let mut argv = vec!["-o", db.to_str().unwrap()];
            argv.extend(threshold.map(|v| ["-t", v]).into_iter().flatten());
            argv.extend(epoch.map(|v| ["-e", v]).into_iter().flatten());
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_bgp-stream-infer"))
                .args(&argv)
                .arg(&input)
                .output()
                .expect("spawn bgp-stream-infer");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{argv:?}: {stderr}");
            let sealed = stderr.matches("stream: epoch ").count();
            assert_eq!(sealed, epochs, "{argv:?}: {stderr}");
            assert_eq!(std::fs::read_to_string(&db).unwrap(), want, "{argv:?}");
        }
    }
}
