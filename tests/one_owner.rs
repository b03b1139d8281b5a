//! One owner per decision: the byte-wise FNV-1a, the artifact reader, the
//! seeded chaos universe and the bound on a replay record's universe each
//! have one definition under `crates/*/src`.
//! A second copy (the state the chaos harnesses grew from: six `fnv1a`s,
//! two `json_field` scanners, three universe builders) fails here, by
//! file, before it can drift from the first.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn each_shared_decision_is_defined_in_one_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = entry.expect("readable entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    sources.sort();
    assert!(
        sources.len() > 100,
        "{} files: wrong directory?",
        sources.len()
    );

    // (what to look for in the text with `_` removed and lowercased, the
    // one file that may hold it). `persist/codec.rs` imports the FNV
    // constants, so its word-wise `fnv64` holds no literal.
    let owners = [
        ("100000001b3", Some("crates/core/src/index.rs")),
        ("fn universebandwidth", Some("crates/simnet/src/chaos.rs")),
        ("fn jsonfield", None),
        // A replay record's universe is read through the one bounded reader.
        ("usize(\"universe\")", Some("crates/simnet/src/chaos.rs")),
    ];
    let mut holders = vec![Vec::new(); owners.len()];
    for path in &sources {
        let text = std::fs::read_to_string(path).expect("readable source");
        let text = text.replace('_', "").to_lowercase();
        let relative = path.strip_prefix(root).expect("under the manifest dir");
        for (found, (needle, _)) in holders.iter_mut().zip(owners) {
            if text.contains(needle) {
                found.push(relative.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    for (found, (needle, owner)) in holders.iter().zip(owners) {
        let expected: Vec<String> = owner.iter().map(|o| o.to_string()).collect();
        assert_eq!(found, &expected, "files holding {needle:?}");
    }
}
