//! Hostile artifact bytes: every committed corpus file, truncated, with one
//! byte flipped, or with a stretch of itself spliced in again, goes
//! through its loader and comes back `Ok` or a typed error, never a
//! panic; and whatever loads is a parse → render fixpoint. A well-formed
//! file that asks for a universe of zero or of billions of hosts is
//! refused before anything is sized from it.
//!
//! The `degrade/` and `shard/` artifact types live above this crate
//! (`bcc-service`, `bcc-shard`); each is a [`ReplayRecord`] of its kind,
//! loads through exactly the call driven here, and sizes its replay from
//! [`ReplayRecord::universe`] (`tests/one_owner.rs` keeps it the only read
//! of that field; their own chaos tests drive their `replay`).

use std::path::Path;
use std::sync::OnceLock;

use bcc_simnet::chaos::{ReplayArtifact, ReplayRecord};
use bcc_simnet::{capture, ChaosConfig, ChaosError, RecoveryArtifact, RecoveryConfig};
use proptest::prelude::*;

/// A loader reduced to what the property needs: the re-rendered bytes of
/// whatever it accepted.
type Loader = fn(&str) -> Result<String, ChaosError>;

/// What a tier does with the universe its record names, as far as this
/// crate can drive it: load and replay, or the read a replay starts with.
type Sizer = fn(&str) -> Result<(), ChaosError>;

/// Committed corpus files: five chaos, two each of the other kinds.
const FILES: usize = 11;

fn corpus() -> &'static [(String, String, Loader, Sizer)] {
    static CORPUS: OnceLock<Vec<(String, String, Loader, Sizer)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/chaos_corpus");
        let tiers: [(&str, Loader, Sizer); 4] = [
            (
                "",
                |t| ReplayArtifact::from_json(t).map(|a| a.to_json()),
                |t| ReplayArtifact::from_json(t)?.replay().map(drop),
            ),
            (
                "recovery",
                |t| RecoveryArtifact::from_json(t).map(|a| a.to_json()),
                |t| RecoveryArtifact::from_json(t)?.replay(),
            ),
            (
                "degrade",
                |t| ReplayRecord::from_json(t, Some("degrade")).map(|r| r.to_json()),
                |t| {
                    ReplayRecord::from_json(t, Some("degrade"))?
                        .universe()
                        .map(drop)
                },
            ),
            (
                "shard",
                |t| ReplayRecord::from_json(t, Some("shard")).map(|r| r.to_json()),
                |t| {
                    ReplayRecord::from_json(t, Some("shard"))?
                        .universe()
                        .map(drop)
                },
            ),
        ];
        let mut files = Vec::new();
        for (dir, loader, sizer) in tiers {
            let mut paths: Vec<_> = std::fs::read_dir(root.join(dir))
                .expect("corpus directory exists")
                .map(|e| e.expect("readable corpus entry").path())
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect();
            paths.sort();
            for path in paths {
                let text = std::fs::read_to_string(&path).expect("readable artifact");
                files.push((path.display().to_string(), text, loader, sizer));
            }
        }
        assert_eq!(files.len(), FILES, "all four kinds of the committed corpus");
        files
    })
}

/// `Ok` ⇒ the accepted value re-renders to bytes that load to the same
/// rendering again; `Err` ⇒ the typed artifact error.
fn check(name: &str, what: &str, loader: Loader, bytes: &[u8]) {
    // Loaders take `&str`: bytes that are no longer UTF-8 never reach one.
    let Ok(text) = std::str::from_utf8(bytes) else {
        return;
    };
    match loader(text) {
        Ok(rendered) => assert_eq!(
            loader(&rendered).as_ref(),
            Ok(&rendered),
            "{name}, {what}: accepted, but not a render fixpoint"
        ),
        Err(ChaosError::Artifact { .. }) => {}
        Err(other) => panic!("{name}, {what}: untyped rejection {other:?}"),
    }
}

#[test]
fn committed_artifacts_load_and_are_render_fixpoints() {
    for (name, text, loader, _) in corpus() {
        assert_eq!(loader(text).as_ref(), Ok(text), "{name}");
    }
}

#[test]
fn a_hostile_universe_is_refused_before_anything_is_sized() {
    for (name, text, _, sizer) in corpus() {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with("\"universe\":"))
            .unwrap_or_else(|| panic!("{name} names no universe"));
        assert!(sizer(text).is_ok(), "{name} as committed");
        for universe in [0, 4097, usize::MAX] {
            let bad = text.replace(line, &format!("  \"universe\": {universe},"));
            assert_ne!(&bad, text);
            match sizer(&bad) {
                Err(ChaosError::Artifact { .. }) => {}
                other => panic!("{name}, universe {universe}: {other:?}"),
            }
        }
    }
}

#[test]
fn loaders_check_the_version_they_write_and_parse_strictly() {
    let cfg = ChaosConfig {
        universe: 6,
        steps: 8,
    };
    let json = capture(3, &cfg, None).unwrap().to_json();
    let body = json.trim_end().trim_end_matches('}');
    for bad in [
        json.replace("\"version\": 1", "\"version\": 2"),
        json.replace("\"version\": 1", "\"version\": \"1\""),
        json.replace("  \"version\": 1,\n", ""),
        format!("{json}x"),
        json.replace("  \"seed\"", "  \"universe\": 6,\n  \"seed\""),
        body.to_string(),
        format!("[{json}]"),
    ] {
        assert_ne!(bad, json);
        let err = ReplayArtifact::from_json(&bad).unwrap_err();
        assert!(matches!(err, ChaosError::Artifact { .. }), "{bad}: {err}");
    }
}

#[test]
fn record_readers_are_typed_and_the_compare_names_the_field() {
    let rec = ReplayRecord::new(Some("demo"))
        .with_u64("count", 7)
        .with_f64("rate", 0.5)
        .with_digest("digest", u64::MAX);
    let back = ReplayRecord::from_json(&rec.to_json(), Some("demo")).unwrap();
    assert_eq!(back, rec);
    assert_eq!(back.u64("count").unwrap(), 7);
    assert_eq!(back.opt_f64("rate").unwrap(), Some(0.5));
    assert_eq!(back.opt_f64("absent").unwrap(), None);
    assert_eq!(back.opt_digest("digest").unwrap(), Some(u64::MAX));
    assert_eq!(back.str("kind").unwrap(), "demo");
    // Present but ill-typed, missing, or of another kind: typed errors.
    assert!(back.u64("rate").is_err());
    assert!(back.usize("absent").is_err());
    assert!(back.opt_digest("count").is_err());
    assert!(back.opt_str("count").is_err());
    assert!(ReplayRecord::from_json(&rec.to_json(), Some("other")).is_err());
    // `1e999` is a JSON number and an infinite f64.
    let inf = rec.to_json().replace("0.5", "1e999");
    let inf = ReplayRecord::from_json(&inf, None).unwrap();
    assert!(inf.opt_f64("rate").is_err());

    assert_eq!(rec.expect_same(&back), Ok(()));
    let moved = ReplayRecord::new(Some("demo"))
        .with_u64("count", 8)
        .with_f64("rate", 0.5);
    let err = rec.expect_same(&moved).unwrap_err().to_string();
    assert_eq!(err, "replay diverged on count: recorded 7, got 8");
    let short = ReplayRecord::new(Some("demo")).with_u64("count", 7);
    let err = rec.expect_same(&short).unwrap_err().to_string();
    assert_eq!(err, "replay diverged on rate: recorded 0.5, got nothing");
    assert!(short.expect_same(&rec).is_err(), "either side may be short");
}

#[test]
fn recovery_records_no_capture_wrote_load_and_fail_replay_typed() {
    // A missing input, a digest that is not a string, an unpaired fault
    // field, a zero cadence: each loads, none replays, nothing panics.
    let cfg = ChaosConfig {
        universe: 6,
        steps: 10,
    };
    let good = RecoveryArtifact::capture(3, &cfg, &RecoveryConfig::default())
        .unwrap()
        .to_json();
    let digest = good.lines().find(|l| l.contains("final_digest")).unwrap();
    for (from, to) in [
        ("  \"universe\": 6,\n", ""),
        (digest, "  \"final_digest\": 7"),
        ("  \"kills\"", "  \"bit_flip\": 0.5,\n  \"kills\""),
        ("\"kill_every\": 7", "\"kill_every\": 0"),
    ] {
        let bad = good.replace(from, to);
        assert_ne!(bad, good);
        let err = RecoveryArtifact::from_json(&bad)
            .unwrap()
            .replay()
            .unwrap_err();
        assert!(matches!(err, ChaosError::Artifact { .. }), "{bad}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_artifacts_load_or_fail_typed(
        file in 0usize..FILES,
        cut in any::<usize>(),
        at in any::<usize>(),
        flip in 1u8..=255,
        from in any::<usize>(),
        len in 1usize..64,
    ) {
        let (name, text, loader, _) = &corpus()[file];
        let bytes = text.as_bytes();

        let cut = cut % bytes.len();
        check(name, &format!("cut at {cut}"), *loader, &bytes[..cut]);

        let at = at % bytes.len();
        let mut flipped = bytes.to_vec();
        flipped[at] ^= flip;
        check(name, &format!("byte {at} ^ {flip:#04x}"), *loader, &flipped);

        // A stretch of the file spliced in again where it starts: whole
        // lines of it are duplicate keys, parts of lines are garbage.
        let from = from % bytes.len();
        let to = (from + len).min(bytes.len());
        let mut spliced = bytes[..to].to_vec();
        spliced.extend_from_slice(&bytes[from..]);
        check(name, &format!("bytes {from}..{to} twice"), *loader, &spliced);
    }
}
