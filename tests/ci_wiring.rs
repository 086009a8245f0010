//! CI and the tree agree: every script is run by some CI step and every
//! script a step names exists; every crate with `#[ignore]`d tests is
//! named by the release step that runs them; `unsafe` is confined to
//! `bgp-serve`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The package name a crate manifest declares.
fn package_name(crate_dir: &Path) -> String {
    let manifest = std::fs::read_to_string(crate_dir.join("Cargo.toml")).expect("crate manifest");
    manifest
        .lines()
        .find_map(|l| l.strip_prefix("name = "))
        .expect("package name")
        .trim_matches('"')
        .to_string()
}

#[test]
fn every_crate_but_serve_forbids_unsafe() {
    // The epoll FFI and `signal(2)` are the only `unsafe` the workspace
    // needs; every other library crate, vendored shims included, rules
    // it out at compile time.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = vec![root.to_path_buf()];
    for parent in [root.join("crates"), root.join("crates/vendor")] {
        for entry in std::fs::read_dir(parent).expect("read crates/") {
            let dir = entry.expect("dir entry").path();
            if dir.join("src/lib.rs").is_file() {
                crates.push(dir);
            }
        }
    }
    assert!(crates.len() > 10, "found only {crates:?}");
    let lacking: Vec<String> = crates
        .iter()
        .map(|dir| (package_name(dir), dir.join("src/lib.rs")))
        .filter(|(name, _)| name != "bgp-serve")
        .filter(|(_, lib)| {
            !std::fs::read_to_string(lib)
                .expect("read lib.rs")
                .lines()
                .any(|l| l.trim() == "#![forbid(unsafe_code)]")
        })
        .map(|(name, _)| name)
        .collect();
    assert!(
        lacking.is_empty(),
        "crates without #![forbid(unsafe_code)]: {lacking:?}"
    );
}

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

#[test]
fn the_ignored_step_names_every_crate_with_ignored_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("read ci.yml");
    let step = ci
        .lines()
        .find(|l| l.trim_start().starts_with("run:") && l.contains("-- --ignored"))
        .expect("a step runs the ignored tests");
    assert!(
        step.contains("--release"),
        "long tests run optimised: {step}"
    );
    let named: BTreeSet<&str> = step
        .split(" -p ")
        .skip(1)
        .map(|rest| rest.split_whitespace().next().unwrap_or_default())
        .collect();

    fn has_ignored_test(dir: &Path) -> bool {
        std::fs::read_dir(dir).is_ok_and(|entries| {
            entries.map(|e| e.expect("dir entry").path()).any(|path| {
                if path.is_dir() {
                    has_ignored_test(&path)
                } else {
                    path.extension().is_some_and(|ext| ext == "rs")
                        && std::fs::read_to_string(&path).is_ok_and(|src| src.contains("#[ignore"))
                }
            })
        })
    }
    let mut with_ignored = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = krate.expect("dir entry").path();
        if !(has_ignored_test(&dir.join("src")) || has_ignored_test(&dir.join("tests"))) {
            continue;
        }
        with_ignored.insert(package_name(&dir));
    }
    let with_ignored: BTreeSet<&str> = with_ignored.iter().map(String::as_str).collect();
    assert_eq!(
        named, with_ignored,
        "left: -p in ci.yml, right: crates with #[ignore]"
    );
}
