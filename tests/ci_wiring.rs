//! CI and `scripts/` agree: every script is run by some CI step, and
//! every script a step names exists.

use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn ci_steps_and_scripts_dir_name_the_same_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("read ci.yml");
    // A script named only in a `#` comment is not run.
    let named: BTreeSet<String> = ci
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .flat_map(|l| l.split("scripts/").skip(1))
        .map(|rest| {
            rest.split(|c: char| !(c.is_ascii_alphanumeric() || "_-.".contains(c)))
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    let on_disk: BTreeSet<String> = std::fs::read_dir(root.join("scripts"))
        .expect("read scripts/")
        .map(|e| e.expect("dir entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    assert_eq!(named, on_disk, "left: run by ci.yml, right: in scripts/");
}
