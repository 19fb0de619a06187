//! Fixture suite for the rule engine: every rule must fire on a minimal
//! violating tree and stay silent once the violation is fixed or waived.
//!
//! Trees are fabricated in memory (the [`Tree`] fields are plain data), so
//! each fixture controls exactly what the rules see. Because [`analyze`]
//! always runs every rule — and a skeletal tree trivially violates the
//! structural one (an empty manifest) — assertions filter the report by
//! rule key instead of using `is_clean`.

use harp_lint::{analyze, Diagnostic, Report, SourceFile, Tree};

fn tree(files: &[(&str, &str)]) -> Tree {
    Tree {
        files: files
            .iter()
            .map(|(rel, text)| SourceFile {
                rel: (*rel).to_owned(),
                text: (*text).to_owned(),
            })
            .collect(),
        manifest_rel: harp_lint::SCALAR_TWIN_MANIFEST.to_owned(),
        ..Tree::default()
    }
}

fn diags<'r>(report: &'r Report, rule: &str) -> Vec<&'r Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .collect()
}

// ---------------------------------------------------------------------------
// Rule 1: panic
// ---------------------------------------------------------------------------

#[test]
fn panic_rule_fires_on_unwrap_in_scope() {
    let report = analyze(&tree(&[(
        "crates/server/src/daemon.rs",
        "pub fn worker(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
    )]));
    let found = diags(&report, "panic");
    assert_eq!(found.len(), 1, "{}", report.render_text());
    assert_eq!(found[0].line, 2);
    assert!(found[0].message.contains(".unwrap()"));
}

#[test]
fn panic_rule_fires_on_macros_but_not_panic_paths() {
    let report = analyze(&tree(&[(
        "crates/sim/src/minijson.rs",
        "pub fn f(go: bool) {\n    if go {\n        panic!(\"boom\");\n    }\n    \
         let _ = std::panic::catch_unwind(|| 1);\n    todo!()\n}\n",
    )]));
    let found = diags(&report, "panic");
    assert_eq!(found.len(), 2, "{}", report.render_text());
    assert!(found[0].message.contains("panic!"));
    assert!(found[1].message.contains("todo!"));
}

#[test]
fn panic_rule_ignores_files_outside_the_scope() {
    let report = analyze(&tree(&[(
        "crates/sim/src/engine.rs",
        "pub fn hot(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
    )]));
    assert!(diags(&report, "panic").is_empty());
}

#[test]
fn panic_rule_skips_test_code() {
    let report = analyze(&tree(&[(
        "crates/server/src/daemon.rs",
        "pub fn live() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
         Some(1).unwrap();\n        panic!(\"fine in tests\");\n    }\n}\n",
    )]));
    assert!(
        diags(&report, "panic").is_empty(),
        "{}",
        report.render_text()
    );
}

#[test]
fn lint_allow_waives_and_is_tallied() {
    let report = analyze(&tree(&[(
        "crates/server/src/daemon.rs",
        "pub fn worker(v: Option<u8>) -> u8 {\n    \
         // lint:allow(panic) probed above, cannot fail\n    v.unwrap()\n}\n",
    )]));
    assert!(
        diags(&report, "panic").is_empty(),
        "{}",
        report.render_text()
    );
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(report.allowed[0].rule, "panic");
    assert_eq!(report.allowed[0].reason, "probed above, cannot fail");
}

#[test]
fn lint_allow_works_as_a_trailing_comment() {
    let report = analyze(&tree(&[(
        "crates/server/src/daemon.rs",
        "pub fn worker(v: Option<u8>) -> u8 {\n    \
         v.unwrap() // lint:allow(panic) trailing waiver\n}\n",
    )]));
    assert!(diags(&report, "panic").is_empty());
    assert_eq!(report.allowed.len(), 1);
}

#[test]
fn lint_allow_without_reason_is_a_finding_and_does_not_waive() {
    let report = analyze(&tree(&[(
        "crates/server/src/daemon.rs",
        "pub fn worker(v: Option<u8>) -> u8 {\n    // lint:allow(panic)\n    v.unwrap()\n}\n",
    )]));
    assert_eq!(diags(&report, "lint-allow").len(), 1);
    assert_eq!(
        diags(&report, "panic").len(),
        1,
        "a reasonless waiver must not waive"
    );
}

#[test]
fn lint_allow_with_unknown_rule_is_a_finding() {
    let report = analyze(&tree(&[(
        "crates/server/src/daemon.rs",
        "// lint:allow(bogus) not a rule\npub fn live() {}\n",
    )]));
    let found = diags(&report, "lint-allow");
    assert_eq!(found.len(), 1);
    assert!(found[0].message.contains("unknown rule"));
}

#[test]
fn doc_comments_describing_the_convention_are_not_directives() {
    let report = analyze(&tree(&[(
        "crates/server/src/daemon.rs",
        "/// Waive with lint:allow(bogus) — this doc line is not a directive.\n\
         //! Nor is lint:allow(alsobogus) in a module doc.\npub fn live() {}\n",
    )]));
    assert!(
        diags(&report, "lint-allow").is_empty(),
        "{}",
        report.render_text()
    );
}

// ---------------------------------------------------------------------------
// Rule 2: determinism
// ---------------------------------------------------------------------------

#[test]
fn determinism_rule_fires_on_clocks_and_unordered_maps() {
    let report = analyze(&tree(&[(
        "crates/sim/src/traffic.rs",
        "use std::time::Instant;\nuse std::collections::HashMap;\npub fn f() {}\n",
    )]));
    let found = diags(&report, "determinism");
    assert_eq!(found.len(), 2, "{}", report.render_text());
    assert!(found[0].message.contains("Instant"));
    assert!(found[1].message.contains("HashMap"));
}

#[test]
fn determinism_rule_is_scoped_to_the_deterministic_modules() {
    let report = analyze(&tree(&[(
        "crates/sim/src/engine.rs",
        "use std::time::Instant;\nuse std::collections::HashMap;\npub fn f() {}\n",
    )]));
    assert!(diags(&report, "determinism").is_empty());
}

#[test]
fn determinism_rule_skips_banned_names_inside_strings_and_tests() {
    let report = analyze(&tree(&[(
        "crates/sim/src/minijson.rs",
        "pub const NOTE: &str = \"never use HashMap or Instant here\";\n\
         #[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n",
    )]));
    assert!(
        diags(&report, "determinism").is_empty(),
        "{}",
        report.render_text()
    );
}

// ---------------------------------------------------------------------------
// Rule 3: rng-salt
// ---------------------------------------------------------------------------

#[test]
fn rng_salt_rule_fires_on_unsalted_seeds() {
    let report = analyze(&tree(&[(
        "crates/ecc/src/code.rs",
        "pub fn rng(seed: u64) -> ChaCha8Rng {\n    ChaCha8Rng::seed_from_u64(seed)\n}\n",
    )]));
    let found = diags(&report, "rng-salt");
    assert_eq!(found.len(), 1, "{}", report.render_text());
    assert_eq!(found[0].line, 2);
}

#[test]
fn rng_salt_rule_accepts_salts_in_argument_binding_or_helper() {
    let report = analyze(&tree(&[(
        "crates/ecc/src/code.rs",
        "pub fn direct(seed: u64) -> ChaCha8Rng {\n    \
         ChaCha8Rng::seed_from_u64(seed ^ CODE_SALT)\n}\n\
         pub fn bound(seed: u64) -> ChaCha8Rng {\n    \
         let stream = seed ^ WORD_SALT;\n    ChaCha8Rng::seed_from_u64(stream)\n}\n\
         pub fn helper(w: u64) -> ChaCha8Rng {\n    \
         ChaCha8Rng::seed_from_u64(trial_salt(w))\n}\n",
    )]));
    assert!(
        diags(&report, "rng-salt").is_empty(),
        "{}",
        report.render_text()
    );
}

#[test]
fn rng_salt_rule_is_scoped_to_library_sources() {
    let unsalted = "fn seed() -> ChaCha8Rng {\n    ChaCha8Rng::seed_from_u64(42)\n}\n";
    let report = analyze(&tree(&[
        ("crates/bench/benches/kernel.rs", unsalted),
        ("tests/integration.rs", unsalted),
    ]));
    assert!(diags(&report, "rng-salt").is_empty());
}

#[test]
fn rng_salt_rule_skips_tests_and_honors_allows() {
    let report = analyze(&tree(&[(
        "crates/ecc/src/code.rs",
        "pub fn api(seed: u64) -> ChaCha8Rng {\n    \
         // lint:allow(rng-salt) the caller picks the stream\n    \
         ChaCha8Rng::seed_from_u64(seed)\n}\n\
         #[cfg(test)]\nmod tests {\n    fn t() {\n        \
         let _ = ChaCha8Rng::seed_from_u64(7);\n    }\n}\n",
    )]));
    assert!(
        diags(&report, "rng-salt").is_empty(),
        "{}",
        report.render_text()
    );
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(report.allowed[0].rule, "rng-salt");
}

// ---------------------------------------------------------------------------
// Rule 4: scalar-twin
// ---------------------------------------------------------------------------

#[test]
fn scalar_twin_rule_requires_a_manifest() {
    let report = analyze(&tree(&[]));
    let found = diags(&report, "scalar-twin");
    assert_eq!(found.len(), 1);
    assert!(found[0].message.contains("missing or empty"));
}

#[test]
fn scalar_twin_rule_accepts_entries_referenced_under_tests() {
    let mut t = tree(&[(
        "tests/burst.rs",
        "#[test]\nfn matches_scalar() {\n    read_burst(&words);\n}\n",
    )]);
    t.scalar_manifest.push((3, "read_burst".to_owned()));
    let report = analyze(&t);
    assert!(
        diags(&report, "scalar-twin").is_empty(),
        "{}",
        report.render_text()
    );
}

#[test]
fn scalar_twin_rule_flags_uncovered_entries_with_their_manifest_line() {
    let mut t = tree(&[(
        "tests/burst.rs",
        "#[test]\nfn matches_scalar() {\n    read_burst(&words);\n}\n",
    )]);
    t.scalar_manifest.push((3, "read_burst".to_owned()));
    t.scalar_manifest.push((7, "missing_kernel".to_owned()));
    let report = analyze(&t);
    let found = diags(&report, "scalar-twin");
    assert_eq!(found.len(), 1, "{}", report.render_text());
    assert_eq!(found[0].line, 7);
    assert!(found[0].message.contains("missing_kernel"));
}

#[test]
fn scalar_twin_rule_rejects_string_mentions_and_non_test_references() {
    let mut t = tree(&[
        // A string mention in a test file is not coverage…
        ("tests/notes.rs", "const N: &str = \"read_burst\";\n"),
        // …and a real call outside tests/ is not either.
        (
            "crates/sim/src/engine.rs",
            "fn f() {\n    read_burst(&w);\n}\n",
        ),
    ]);
    t.scalar_manifest.push((1, "read_burst".to_owned()));
    let report = analyze(&t);
    assert_eq!(diags(&report, "scalar-twin").len(), 1);
}

// ---------------------------------------------------------------------------
// The workspace itself
// ---------------------------------------------------------------------------

/// The acceptance gate, as a test: the real tree must be clean. This is
/// the same analysis CI runs via `cargo run -p harp_lint -- --check`.
#[test]
fn the_workspace_itself_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let tree = Tree::load(&root).expect("workspace tree must load");
    let report = analyze(&tree);
    assert!(
        report.is_clean(),
        "workspace lint findings:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "suspiciously small tree");
}
