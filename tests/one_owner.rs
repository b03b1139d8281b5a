//! One owner per decision: the byte-wise FNV-1a, the artifact reader, the
//! seeded chaos universe, the bound on a replay record's universe and the
//! query walk each have one definition under `crates/*/src`.
//! A second copy (the state the chaos harnesses grew from: six `fnv1a`s,
//! two `json_field` scanners, three universe builders; the walk's
//! budgeted and unbudgeted twins, its plain and resilient twins) fails
//! here, by file, before it can drift from the first. The walk makes one
//! attempt: no retry loop, no per-attempt budget. So does a meter that cannot run dry standing in for
//! `Unmetered`, and a loop over the pairs of a `LazyRows` store outside the one gated sweep
//! (`sweep_rows`) and the one gated maximum (`max_size_rows`): the merge
//! kernel has no body of its own. Nor may the overlay engine or the churn
//! path build a predicted-distance matrix beside the one member store, nor
//! the event engine keep protocol state beside the `SimNetwork` it
//! schedules: the space-change gate that recomputes a node's local maxima
//! has one body, in `crates/simnet/src/engine.rs`. So does the send rule
//! that every round and the event engine's timers follow (a report goes
//! out only when it differs from the record its receiver holds), and so
//! does the round: full rounds and the focused repair run one body, and
//! convergence is read off what a round did, never off a digest taken
//! before and after it. The fault schedule has one injector type, with no
//! trait beside it.
//! The node owns its clustering space: the gate asks the node whether its
//! maxima are stale, the engine hashes nothing outside its digest, and no
//! library code copies the space out through `clustering_space`. The churn
//! delta hands its relabelled hosts to the nodes, whose kept rows are
//! updated in one place and never read back to find them.
//! The thread pool has one user, the figure harness: no other crate names
//! it, no test sets its thread count, and no statistic keeps a `_par` twin.

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

/// Every `.rs` file under `crates/*/src`, sorted.
fn crate_sources(root: &Path) -> Vec<PathBuf> {
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = entry.expect("readable entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    sources.sort();
    sources
}

/// `text` without its `#[cfg(test)]` items.
fn library_text(text: &str) -> String {
    without_items(text, "#[cfg(test)]")
}

/// `text` without the items that start at `marker`: each is cut from the
/// marker to the brace that closes the item's first `{`.
fn without_items(text: &str, marker: &str) -> String {
    let mut library = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(marker) {
        library.push_str(&rest[..at]);
        let item = &rest[at..];
        let mut depth = 0usize;
        let end = item.char_indices().find_map(|(i, c)| {
            match c {
                '{' => depth += 1,
                '}' if depth == 1 => return Some(i + 1),
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
            None
        });
        rest = end.map_or("", |end| &item[end..]);
    }
    library + rest
}

#[test]
fn each_shared_decision_is_defined_in_one_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = crate_sources(root);
    assert!(
        sources.len() > 100,
        "{} files: wrong directory?",
        sources.len()
    );

    // (what to look for in the text with `_` removed and lowercased, where,
    // the one file that may hold it). `simnet/src/codec.rs` imports the FNV
    // constants, so its word-wise `fnv64` holds no literal.
    let owners = [
        ("100000001b3", "crates/", Some("crates/core/src/index.rs")),
        (
            "fn universebandwidth",
            "crates/",
            Some("crates/simnet/src/chaos.rs"),
        ),
        ("fn jsonfield", "crates/", None),
        // A replay record's universe is read through the one bounded reader.
        (
            "usize(\"universe\")",
            "crates/",
            Some("crates/simnet/src/chaos.rs"),
        ),
        // A search with no budget runs under `Unmetered`.
        ("unlimited()", "crates/", None),
    ];
    // Algorithm 4 has one body, `process_query`.
    let mut walks = Vec::new();
    // Library calls of `ClusterNode::recompute_own_max`, by file.
    let mut own_max_calls = Vec::new();
    // Library files that read a `LazyRows` store's rows outside the two
    // gated bodies.
    let mut row_loops = Vec::new();
    // Library calls of `ClusterNode::clustering_space`, which copies the
    // kept space out: product code borrows `space()`.
    let mut space_copies = Vec::new();
    let mut holders = vec![Vec::new(); owners.len()];
    for path in &sources {
        let text = std::fs::read_to_string(path).expect("readable source");
        let text = text.replace('_', "").to_lowercase();
        let relative = path.strip_prefix(root).expect("under the manifest dir");
        let relative = relative.to_string_lossy().replace('\\', "/");
        for (found, (needle, scope, _)) in holders.iter_mut().zip(owners) {
            if relative.starts_with(scope) && text.contains(needle) {
                found.push(relative.clone());
            }
        }
        let library = library_text(&text);
        for _ in library.matches("fn processquery(") {
            walks.push(relative.clone());
        }
        for _ in library.matches(".recomputeownmax(") {
            own_max_calls.push(relative.clone());
        }
        if library.contains(".clusteringspace(") {
            space_copies.push(relative.clone());
        }
        if library.contains("lazyrows") {
            let rest = without_items(&library, "fn sweeprows");
            let rest = without_items(&rest, "fn maxsizerows");
            if rest.contains(".ensure(") || rest.contains(".row(") {
                row_loops.push(relative.clone());
            }
        }
    }
    // The overlay's predicted distances live in one store sized to the
    // membership (`crates/simnet/src/store.rs`): neither the engine nor the
    // churn path builds a predicted matrix, universe-sized or otherwise.
    for file in ["crates/simnet/src/engine.rs", "crates/simnet/src/churn.rs"] {
        let text = std::fs::read_to_string(root.join(file)).expect("readable source");
        let library = library_text(&text.replace('_', "").to_lowercase());
        for needle in [
            "distancematrix::new(",
            "distancematrix::fromfn(",
            "predictedmatrix(",
        ] {
            assert!(
                !library.contains(needle),
                "{file} builds a predicted matrix ({needle})"
            );
        }
    }
    // The event engine schedules the cycle engine's protocol state: no
    // hashing of spaces, no query walk, no recomputation of its own. Its
    // only `DistanceMatrix`s are the import and the two constructors'
    // parameter, which goes straight to `SimNetwork::new`.
    let event =
        std::fs::read_to_string(root.join("crates/simnet/src/event.rs")).expect("readable source");
    let event = library_text(&event.replace('_', "").to_lowercase());
    for needle in ["defaulthasher", "processquery", "recomputeownmax"] {
        assert!(
            !event.contains(needle),
            "crates/simnet/src/event.rs names {needle}"
        );
    }
    assert_eq!(
        event.matches("distancematrix").count(),
        3,
        "crates/simnet/src/event.rs holds a predicted matrix of its own"
    );
    // The cycle engine hashes only in its digest: the gate keeps no space
    // hash beside the node's own staleness flag.
    let engine =
        std::fs::read_to_string(root.join("crates/simnet/src/engine.rs")).expect("readable source");
    let engine = library_text(&engine.replace('_', "").to_lowercase());
    let outside_digest = without_items(&engine, "fn digest");
    for needle in ["defaulthasher", "fn spacehash", "spacedigest"] {
        assert!(
            !outside_digest.contains(needle),
            "crates/simnet/src/engine.rs names {needle} outside fn digest"
        );
    }
    assert!(
        engine.contains(".ownmaxstale()"),
        "the space-change gate asks the node whether its maxima are stale"
    );
    assert_eq!(walks, ["crates/core/src/query.rs"], "query walk bodies");
    // Nothing under `crates/` names the retrying twin or its per-attempt
    // budget, and the walk's code holds no attempt loop: a retry on a tree
    // overlay could only replay the first attempt.
    let mut everything = Vec::new();
    rust_sources(&root.join("crates"), &mut everything);
    for path in &everything {
        let text = std::fs::read_to_string(path).expect("readable source");
        let text = text.replace('_', "").to_lowercase();
        for needle in ["fn processqueryresilient", "budgetforattempt"] {
            assert!(!text.contains(needle), "{} names {needle}", path.display());
        }
    }
    let query =
        std::fs::read_to_string(root.join("crates/core/src/query.rs")).expect("readable source");
    let code: String = library_text(&query.to_lowercase())
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect();
    for needle in ["attempt", "retries", "backoff"] {
        assert!(
            !code.contains(needle),
            "crates/core/src/query.rs: the walk's code names {needle}"
        );
    }
    assert_eq!(
        own_max_calls,
        ["crates/simnet/src/engine.rs"],
        "space-change gate bodies"
    );
    // The engine hands every node the hosts a churn op relabelled, and the
    // node's kept rows take them from there: node.rs updates its rows in
    // one place and never reads them back, so it cannot find relabelled
    // hosts by comparing a kept distance with a fresh one.
    assert_eq!(
        engine.matches(".relabel(&delta.reset)").count(),
        1,
        "the churn delta hands its relabelled hosts to the nodes"
    );
    let node =
        std::fs::read_to_string(root.join("crates/core/src/node.rs")).expect("readable source");
    let node = library_text(&node.replace('_', "").to_lowercase());
    assert_eq!(node.matches(".applychurn(").count(), 1, "kept-row updates");
    for needle in [".row(", ".ball(", ".countwithin(", "invalidateownmax"] {
        assert!(
            !node.contains(needle),
            "crates/core/src/node.rs names {needle}"
        );
    }
    assert!(
        row_loops.is_empty(),
        "row-store pair loops outside sweep_rows / max_size_rows: {row_loops:?}"
    );
    assert!(
        space_copies.is_empty(),
        "library calls of clustering_space: {space_copies:?}"
    );
    for (found, (needle, _, owner)) in holders.iter().zip(owners) {
        let expected: Vec<String> = owner.iter().map(|o| o.to_string()).collect();
        assert_eq!(found, &expected, "files holding {needle:?}");
    }
}

#[test]
fn the_send_decision_is_made_in_the_engine() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = crate_sources(root);
    let engine = "crates/simnet/src/engine.rs";
    let mut due_bodies = Vec::new();
    let mut injector_traits = Vec::new();
    for path in &sources {
        let raw = std::fs::read_to_string(path).expect("readable source");
        let relative = path.strip_prefix(root).expect("under the manifest dir");
        let relative = relative.to_string_lossy().replace('\\', "/");
        if library_text(&raw).contains("FaultInjector") {
            injector_traits.push(relative.clone());
        }
        let library = library_text(&raw.replace('_', "").to_lowercase());
        for needle in ["fn nodeinfodue(", "fn crtrowdue("] {
            for _ in library.matches(needle) {
                due_bodies.push(format!("{relative}: {needle}"));
            }
        }
    }
    assert_eq!(
        due_bodies,
        [
            format!("{engine}: fn nodeinfodue("),
            format!("{engine}: fn crtrowdue("),
        ],
        "send-rule bodies"
    );
    assert!(
        injector_traits.is_empty(),
        "library sources naming FaultInjector: {injector_traits:?}"
    );

    let read = |file: &str| {
        let text = std::fs::read_to_string(root.join(file)).expect("readable source");
        library_text(&text.replace('_', "").to_lowercase())
    };
    // The event engine asks the engine what is due and never compares a
    // payload with a held record itself.
    let event = read("crates/simnet/src/event.rs");
    for needle in ["aggrnodefor", "crtentry"] {
        assert!(
            !event.contains(needle),
            "crates/simnet/src/event.rs names {needle}"
        );
    }
    for needle in [".nodeinfodue(", ".crtrowdue("] {
        assert!(
            event.contains(needle),
            "crates/simnet/src/event.rs never calls {needle}"
        );
    }
    // In the engine, the two send-rule bodies hold the only comparison;
    // the export and the digest read records without deciding a send.
    let mut rest = read(engine);
    for item in [
        "fn nodeinfodue",
        "fn crtrowdue",
        "fn exportgossip",
        "fn digest",
    ] {
        rest = without_items(&rest, item);
    }
    for needle in [".aggrnodefor(", ".crtentry("] {
        assert!(
            !rest.contains(needle),
            "{engine} reads {needle} outside the send rule"
        );
    }
    for needle in [".nodeinfodue(", ".crtrowdue("] {
        assert_eq!(
            rest.matches(needle).count(),
            1,
            "the round body calls {needle} once"
        );
    }
    // One round body: no second one beside it, and the two report
    // builders are reached only through the send rule.
    assert!(
        !rest.contains("fn runroundfrom"),
        "{engine} keeps a second round body"
    );
    for file in [engine, "crates/simnet/src/event.rs"] {
        let mut rest = read(file);
        for item in ["fn nodeinfodue", "fn crtrowdue"] {
            rest = without_items(&rest, item);
        }
        for needle in [".nodeinfo(", ".crtrow("] {
            assert!(
                !rest.contains(needle),
                "{file} calls {needle} outside the send rule"
            );
        }
        // Convergence is what a round did: neither engine hashes the
        // network to find it.
        let rest = without_items(&rest, "fn digest");
        assert!(
            !rest.contains(".digest()"),
            "{file} takes a digest outside fn digest"
        );
    }
}

#[test]
fn the_thread_pool_serves_only_the_figure_harness() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let relative = |path: &Path| {
        let relative = path.strip_prefix(root).expect("under the manifest dir");
        relative.to_string_lossy().replace('\\', "/")
    };
    let mut sources = crate_sources(root);
    rust_sources(&root.join("src"), &mut sources);
    let mut pool_users = Vec::new();
    let mut twins = Vec::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).expect("readable source");
        let file = relative(path);
        let harness = ["crates/eval/src/", "crates/bench/src/"];
        if text.contains("bcc_par") && !harness.iter().any(|h| file.starts_with(h)) {
            pool_users.push(file.clone());
        }
        for line in text.lines() {
            let line = line.trim_start();
            let Some(item) = line
                .strip_prefix("pub ")
                .or(line.strip_prefix("pub(crate) "))
            else {
                continue;
            };
            let Some(sig) = item.strip_prefix("fn ") else {
                continue;
            };
            let name = sig.split(['(', '<']).next().unwrap_or_default();
            if name.ends_with("_par") {
                twins.push(format!("{file}: {name}"));
            }
        }
    }
    assert!(
        pool_users.is_empty(),
        "sources outside the figure harness naming bcc_par: {pool_users:?}"
    );
    assert!(twins.is_empty(), "`_par` twins: {twins:?}");

    // No test reruns a case under another thread count: nothing it tests
    // reads the pool.
    let mut tests = Vec::new();
    rust_sources(&root.join("tests"), &mut tests);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        let dir = entry.expect("readable entry").path().join("tests");
        if dir.is_dir() {
            rust_sources(&dir, &mut tests);
        }
    }
    let setter = ["set", "threads"].join("_");
    let setters: Vec<String> = tests
        .iter()
        .filter(|path| {
            std::fs::read_to_string(path)
                .expect("readable test")
                .contains(&setter)
        })
        .map(|path| relative(path))
        .collect();
    assert!(
        setters.is_empty(),
        "tests setting a thread count: {setters:?}"
    );
}
