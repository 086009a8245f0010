//! CI and the tree agree: every crate with `#[ignore]`d tests is named by
//! the release step that runs them; `unsafe` is confined to `bgp-serve`;
//! the instrumented crates print diagnostics only through the `obs`
//! logger; `/metrics` has one renderer; traces have one store per
//! registry, which reads no clock; the README's metric table names
//! exactly the families the code registers; and `bgp-served`'s parser,
//! module doc and usage line name the same flags.

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

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// The numbered lines a source lint reads: everything above the file's
/// first `#[cfg(test)]`, since test code prints only under a failing or
/// verbose run.
fn non_test_lines(src: &str) -> impl Iterator<Item = (usize, &str)> {
    src.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .take_while(|(_, line)| !line.contains("#[cfg(test)]"))
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Whether `line` calls `println!` or `eprintln!` (not `writeln!`, not
/// some `foo_println!`).
fn calls_print(line: &str) -> bool {
    let bytes = line.as_bytes();
    let starts_word =
        |at: usize| at == 0 || !(bytes[at - 1].is_ascii_alphabetic() || bytes[at - 1] == b'_');
    line.match_indices("println!")
        .any(|(at, _)| starts_word(at) || (at > 0 && bytes[at - 1] == b'e' && starts_word(at - 1)))
}

#[test]
fn the_instrumented_crates_print_only_through_the_logger() {
    // Runtime diagnostics go through `obs::info!` and friends (levelled,
    // filterable, JSON-capable). A print call is deliberate CLI output
    // (usage text, error exits, reports, stdout exports) only where
    // `// cli-out` marks it, on its line or on the comment line right
    // above (rustfmt splits long calls).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut hits = Vec::new();
    for krate in ["serve", "stream", "archive", "obs"] {
        for file in rust_files(&root.join("crates").join(krate).join("src")) {
            let src = std::fs::read_to_string(&file).expect("read source");
            let mut marked_above = false;
            for (n, line) in non_test_lines(&src) {
                if is_comment(line) {
                    marked_above = line.contains("// cli-out");
                    continue;
                }
                if calls_print(line) && !line.contains("// cli-out") && !marked_above {
                    let file = file.strip_prefix(root).unwrap().display();
                    hits.push(format!("{file}:{n}: {line}"));
                }
                marked_above = false;
            }
        }
    }
    assert!(
        hits.is_empty(),
        "bare print macros (use the obs log macros, or mark CLI output `// cli-out`):\n{}",
        hits.join("\n")
    );
}

#[test]
fn only_the_registry_writes_prometheus_exposition() {
    // `/metrics` is one `ObsRegistry::render_prometheus` call; a
    // `# HELP` / `# TYPE` string in the code of any other crate source is
    // a second renderer growing back.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let renderer = Path::new("crates/obs/src/registry.rs");
    let mut hits = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let src_dir = krate.expect("dir entry").path().join("src");
        if !src_dir.is_dir() {
            continue;
        }
        for file in rust_files(&src_dir) {
            let rel = file.strip_prefix(root).unwrap();
            if rel == renderer {
                continue;
            }
            let src = std::fs::read_to_string(&file).expect("read source");
            for (n, line) in non_test_lines(&src) {
                if !is_comment(line) && (line.contains("# HELP ") || line.contains("# TYPE ")) {
                    hits.push(format!("{}:{n}: {line}", rel.display()));
                }
            }
        }
    }
    assert!(
        hits.is_empty(),
        "Prometheus exposition text outside {} (register the metric on the ObsRegistry):\n{}",
        renderer.display(),
        hits.join("\n")
    );
}

#[test]
fn traces_ride_the_registry_and_the_store_reads_no_clock() {
    // Each `ObsRegistry` owns the one trace store its layers record on.
    // A store built anywhere else is a parallel trace wiring growing
    // back; a clock read in the store would date a row where it was
    // written down instead of where its stage ran.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let obs_src = root.join("crates/obs/src");
    let built = concat!("TraceStore", "::new");
    let mut hits = Vec::new();
    let mut dirs = vec![root.join("src"), root.join("tests"), root.join("examples")];
    dirs.push(root.join("e2e_bench/src"));
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        dirs.push(krate.expect("dir entry").path());
    }
    for file in dirs
        .iter()
        .filter(|d| d.is_dir())
        .flat_map(|d| rust_files(d))
    {
        if file.starts_with(&obs_src) {
            continue;
        }
        let src = std::fs::read_to_string(&file).expect("read source");
        for (i, line) in src.lines().enumerate() {
            if line.contains(built) {
                let rel = file.strip_prefix(root).unwrap().display();
                hits.push(format!("{rel}:{}: {line}", i + 1));
            }
        }
    }
    let store = std::fs::read_to_string(obs_src.join("trace.rs")).expect("read trace.rs");
    for (n, line) in non_test_lines(&store) {
        if line.contains(concat!("Instant", "::now")) {
            hits.push(format!("crates/obs/src/trace.rs:{n}: {line}"));
        }
    }
    // An epoch's timeline is put when it is published: the pipeline and
    // the driver only date their stages in the epoch they seal, so a
    // replay that seals an epoch again cannot trace it twice.
    let mut sealing = rust_files(&root.join("crates/stream/src"));
    sealing.push(root.join("crates/serve/src/driver.rs"));
    for file in sealing {
        let src = std::fs::read_to_string(&file).expect("read source");
        for (n, line) in non_test_lines(&src).filter(|(_, line)| !is_comment(line)) {
            if line.contains("traces()") || line.contains("TraceStore") {
                let rel = file.strip_prefix(root).unwrap().display();
                hits.push(format!("{rel}:{n}: {line}"));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "a trace store outside the registry, a clock in the store, or a \
         store written where epochs seal:\n{}",
        hits.join("\n")
    );
}

/// `(kind, family)` for every `.counter(` / `.gauge(` / `.histogram(`
/// call in `src`'s non-test code. A family must be named by a string
/// literal at the call, so the set is what the registry can hold.
fn registered_families(src: &str, file: &str) -> BTreeSet<(String, String)> {
    let code: String = non_test_lines(src)
        .filter(|(_, line)| !is_comment(line))
        .map(|(_, line)| format!("{line}\n"))
        .collect();
    let mut families = BTreeSet::new();
    for kind in ["counter", "gauge", "histogram"] {
        for (at, call) in code.match_indices(&format!(".{kind}(")) {
            let arg = code[at + call.len()..].trim_start();
            let name = arg
                .strip_prefix('"')
                .and_then(|rest| rest.split('"').next())
                .unwrap_or_else(|| {
                    panic!("{file}: a {kind} family named by no literal: {arg:.40}")
                });
            families.insert((kind.to_string(), name.to_string()));
        }
    }
    families
}

/// A README family pattern: `{a,b}` groups expand, a trailing `{label}`
/// (no comma) names the labels and is dropped.
fn expand_family(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let close = open + pattern[open..].find('}').expect("closed brace");
    let (head, group, tail) = (
        &pattern[..open],
        &pattern[open + 1..close],
        &pattern[close + 1..],
    );
    if !group.contains(',') {
        assert!(tail.is_empty(), "a label group ends the family: {pattern}");
        return vec![head.to_string()];
    }
    group
        .split(',')
        .flat_map(|alt| expand_family(&format!("{head}{alt}{tail}")))
        .collect()
}

#[test]
fn the_readme_names_every_metric_family() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_code = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let src_dir = krate.expect("dir entry").path().join("src");
        if !src_dir.is_dir() {
            continue;
        }
        for file in rust_files(&src_dir) {
            let src = std::fs::read_to_string(&file).expect("read source");
            let rel = file.strip_prefix(root).unwrap().display().to_string();
            in_code.extend(registered_families(&src, &rel));
        }
    }

    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README.md");
    let mut in_readme = BTreeSet::new();
    for kind in ["counter", "gauge", "histogram"] {
        let row = readme
            .lines()
            .find(|l| l.starts_with(&format!("| {kind} |")))
            .unwrap_or_else(|| panic!("README's /metrics table has no {kind} row"));
        for (i, quoted) in row.split('`').enumerate() {
            if i % 2 == 1 && quoted.starts_with("bgp_") {
                for family in expand_family(quoted) {
                    in_readme.insert((kind.to_string(), family));
                }
            }
        }
    }
    assert!(in_code.len() > 20, "found only {in_code:?}");
    let unlisted: Vec<_> = in_code.difference(&in_readme).collect();
    let stale: Vec<_> = in_readme.difference(&in_code).collect();
    assert!(
        unlisted.is_empty() && stale.is_empty(),
        "registered but missing from README's /metrics table: {unlisted:?}\n\
         in the table but registered nowhere: {stale:?}"
    );
}

/// The body of `fn {name}` in `src`: from its signature to the first
/// line that closes a top-level item.
fn fn_body<'a>(src: &'a str, name: &str) -> &'a str {
    let at = src
        .find(&format!("fn {name}("))
        .unwrap_or_else(|| panic!("no fn {name}"));
    let len = src[at..].find("\n}\n").expect("a closing brace");
    &src[at..at + len]
}

/// The words of `text` that read as command-line flags (`-l`,
/// `--max-conns`): a hyphen, then lowercase letters, digits and hyphens.
fn flag_words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
        .filter(|w| {
            w.starts_with('-') && w.trim_start_matches('-').starts_with(char::is_alphabetic)
        })
}

#[test]
fn the_daemons_parser_doc_and_usage_name_the_same_flags() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("crates/serve/src/bin/bgp-served.rs"))
        .expect("read bgp-served.rs");

    // What `parse_args` matches: each arm's patterns, a short form
    // beside the long one it stands for.
    let mut parsed = BTreeSet::new();
    let mut long_of = std::collections::BTreeMap::new();
    for line in fn_body(&src, "parse_args").lines() {
        let arm = line.trim_start();
        let Some((patterns, _)) = arm.split_once("=>").filter(|_| arm.starts_with('"')) else {
            continue;
        };
        let flags: Vec<&str> = patterns
            .split('|')
            .map(|p| p.trim().trim_matches('"'))
            .collect();
        let long = *flags
            .iter()
            .find(|f| f.starts_with("--"))
            .expect("a long form");
        for short in flags.iter().filter(|f| !f.starts_with("--")) {
            long_of.insert(short.to_string(), long.to_string());
        }
        parsed.insert(long.to_string());
    }

    // What the module doc's `OPTIONS:` block lists: the first long flag
    // of each line that starts an option (a description's continuation
    // lines are indented past the flag column).
    let doc: BTreeSet<String> = src
        .lines()
        .filter_map(|l| l.strip_prefix("//!"))
        .skip_while(|l| l.trim() != "OPTIONS:")
        .take_while(|l| l.trim() != "```")
        .filter(|l| l.trim_start().starts_with('-') && l.len() - l.trim_start().len() < 10)
        .filter_map(|l| flag_words(l).find(|w| w.starts_with("--")))
        .map(str::to_string)
        .collect();

    // What `usage()` prints, short forms read as the flags they stand for.
    let usage: BTreeSet<String> = flag_words(fn_body(&src, "usage"))
        .map(|w| match long_of.get(w) {
            Some(long) => long.clone(),
            None if w.starts_with("--") => w.to_string(),
            None => panic!("usage() names {w}, which parse_args does not take"),
        })
        .collect();

    assert!(parsed.len() > 15, "found only {parsed:?}");
    assert_eq!(parsed, doc, "left: parse_args, right: the OPTIONS block");
    assert_eq!(parsed, usage, "left: parse_args, right: usage()");
}
