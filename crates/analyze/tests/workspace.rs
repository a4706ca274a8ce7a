//! The analyzer over the real workspace: the committed `analyze.toml` must
//! leave zero violations (what CI's `--deny` step asserts), and the lints
//! must catch a seeded regression — reverting the PR-4-era checked cast in
//! the wire-id codec makes `narrow-cast` fire again.

use bedom_analyze::{analyze_source, Allowlist, FileKind};
use std::path::Path;

/// Walks up from the test binary's manifest dir to the workspace root.
fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| std::path::PathBuf::from("."))
}

#[test]
fn workspace_is_clean_under_the_committed_allowlist() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("analyze.toml"))
        .expect("committed analyze.toml must exist at the workspace root");
    let allowlist = Allowlist::parse(&text).expect("committed analyze.toml must parse");
    let report = bedom_analyze::run(&root, &allowlist).expect("driver must run");
    assert!(
        report.files_scanned > 50,
        "scanned too few files — wrong root?"
    );
    assert!(
        report.is_clean(),
        "workspace has unallowlisted findings:\n{}",
        report
            .violations
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.stale.is_empty(),
        "stale allowlist budgets (ratchet down `max`): {:?}",
        report.stale
    );
}

#[test]
fn no_narrow_cast_entries_survive_in_the_committed_allowlist() {
    // The wire-path crates were converted to checked casts; the allowlist
    // must not quietly re-grow a narrow-cast budget.
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("analyze.toml")).expect("analyze.toml");
    let allowlist = Allowlist::parse(&text).expect("analyze.toml must parse");
    assert!(
        allowlist.entries.iter().all(|e| e.lint != "narrow-cast"),
        "narrow-cast budgets are not allowed to come back"
    );
}

#[test]
fn seeded_regression_reverting_the_checked_wire_id_cast_is_caught() {
    // `WireId::new` narrows `id_bits(n)` to u16 through a checked
    // conversion (introduced in the PR-4 message-codec work). Assert the
    // real file is clean, then revert the cast in memory to the unchecked
    // `as u16` form and assert the analyzer catches it — this is the
    // regression CI's `--deny` step exists to stop.
    let path = workspace_root().join("crates/distsim/src/message.rs");
    let src = std::fs::read_to_string(&path).expect("message.rs must exist");
    let rel = "crates/distsim/src/message.rs";

    let clean: Vec<_> = analyze_source(rel, &src)
        .into_iter()
        .filter(|f| f.lint == "narrow-cast")
        .collect();
    assert!(
        clean.is_empty(),
        "message.rs regressed on its own: {clean:?}"
    );

    let checked = "bits: u16::try_from(crate::model::id_bits(n))";
    assert!(
        src.contains(checked),
        "the checked cast moved — update this regression test alongside it"
    );
    let reverted = src.replace(checked, "bits: crate::model::id_bits(n) as u16 //");
    let hits: Vec<_> = analyze_source(rel, &reverted)
        .into_iter()
        .filter(|f| f.lint == "narrow-cast")
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "reverting the checked cast must produce exactly one narrow-cast finding: {hits:?}"
    );
}

#[test]
fn file_kinds_classify_the_real_layout() {
    assert_eq!(FileKind::of_path("tests/determinism.rs"), FileKind::Test);
    assert_eq!(
        FileKind::of_path("crates/bench/benches/bitset_sweep.rs"),
        FileKind::Bench
    );
    assert_eq!(FileKind::of_path("crates/graph/src/bfs.rs"), FileKind::Lib);
}
