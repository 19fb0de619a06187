//! The rule engine: four rules wired to the workspace's real contracts.
//!
//! Token rules (`panic`, `determinism`, `rng-salt`) run per file over the
//! lexed token stream, skipping test spans, and honor `lint:allow`
//! directives. The structural `scalar-twin` rule runs once over the whole
//! [`Tree`], cross-checking the hot-path manifest against the test suites.

use crate::lexer::{in_spans, lex, match_delimiter, test_spans, Token, TokenKind};
use crate::report::{AllowedSite, Diagnostic, Report};
use crate::{SourceFile, Tree};

/// Rule keys, in the order they are documented.
pub const RULE_KEYS: &[&str] = &["panic", "determinism", "rng-salt", "scalar-twin"];

/// A parsed `// lint:allow(<rule>) <reason>` directive. It suppresses
/// findings of `rule` on its own line and the line directly below it (so
/// it works both as a trailing comment and as a comment above the site).
#[derive(Debug, Clone)]
pub struct Allow {
    pub key: String,
    pub line: u32,
    pub reason: String,
}

/// Extracts `lint:allow` directives from a file's comment tokens. A
/// directive with an unknown rule key or an empty justification is itself
/// a diagnostic: a waiver that cannot be audited is not a waiver.
pub fn parse_allows(file: &SourceFile, tokens: &[Token], report: &mut Report) -> Vec<Allow> {
    let mut allows = Vec::new();
    for token in tokens.iter().filter(|t| t.is_comment()) {
        // Doc comments (`///`, `//!`, `/**`, `/*!`) are documentation, not
        // directives — they may legitimately *describe* the convention.
        let text = token.text(&file.text);
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| text.starts_with(p))
        {
            continue;
        }
        for (offset, raw) in token.text(&file.text).lines().enumerate() {
            let line = token.line + offset as u32;
            let Some(at) = raw.find("lint:allow(") else {
                continue;
            };
            let rest = &raw[at + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else {
                report.diagnostics.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    rule: "lint-allow",
                    message: "malformed lint:allow directive (missing `)`)".to_owned(),
                });
                continue;
            };
            let key = rest[..close].trim().to_owned();
            let mut reason = rest[close + 1..].trim();
            if let Some(stripped) = reason.strip_suffix("*/") {
                reason = stripped.trim_end();
            }
            if !RULE_KEYS.contains(&key.as_str()) {
                report.diagnostics.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    rule: "lint-allow",
                    message: format!(
                        "lint:allow({key}) names an unknown rule (known: {})",
                        RULE_KEYS.join(", ")
                    ),
                });
            } else if reason.is_empty() {
                report.diagnostics.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    rule: "lint-allow",
                    message: format!(
                        "lint:allow({key}) has no justification; write the reason after the `)`"
                    ),
                });
            } else {
                allows.push(Allow {
                    key,
                    line,
                    reason: reason.to_owned(),
                });
            }
        }
    }
    allows
}

/// Either records a diagnostic or, when a matching `lint:allow` covers the
/// line, tallies the waived site.
fn emit(
    report: &mut Report,
    allows: &[Allow],
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
) {
    if let Some(allow) = allows
        .iter()
        .find(|a| a.key == rule && (a.line == line || a.line + 1 == line))
    {
        report.allowed.push(AllowedSite {
            file: file.rel.clone(),
            line,
            rule,
            reason: allow.reason.clone(),
        });
    } else {
        report.diagnostics.push(Diagnostic {
            file: file.rel.clone(),
            line,
            rule,
            message,
        });
    }
}

fn code_tokens(tokens: &[Token]) -> Vec<&Token> {
    tokens.iter().filter(|t| !t.is_comment()).collect()
}

// ---------------------------------------------------------------------------
// Rule 1: panic-freedom on the serving and persistence paths.
// ---------------------------------------------------------------------------

/// The panic-free universe: the daemon/server crate, the durable
/// checkpoint and JSON codecs, and the CLI's daemon clients. A panic here
/// either kills a worker past the `catch_unwind` net or tears an archive.
fn panic_scope(rel: &str) -> bool {
    rel.starts_with("crates/server/src/")
        || rel == "crates/sim/src/checkpoint.rs"
        || rel == "crates/sim/src/minijson.rs"
        || rel == "crates/cli/src/client_cli.rs"
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub fn panic_rule(
    file: &SourceFile,
    tokens: &[Token],
    spans: &[(usize, usize)],
    allows: &[Allow],
    report: &mut Report,
) {
    if !panic_scope(&file.rel) {
        return;
    }
    let src = &file.text;
    let code = code_tokens(tokens);
    for (i, token) in code.iter().enumerate() {
        if token.kind != TokenKind::Ident || in_spans(spans, token.start) {
            continue;
        }
        let text = token.text(src);
        let next_is = |ch| code.get(i + 1).is_some_and(|n| n.is_punct(src, ch));
        let spelled = match text {
            // `.unwrap(` / `.expect(` — method calls only, so locally
            // defined functions that happen to share the name don't fire.
            "unwrap" | "expect" if i > 0 && code[i - 1].is_punct(src, '.') && next_is('(') => {
                format!(".{text}()")
            }
            // `panic!(` etc. — the `!` requirement keeps `std::panic::…`
            // paths (next token `:`) from firing.
            _ if PANIC_MACROS.contains(&text) && next_is('!') => format!("{text}!"),
            _ => continue,
        };
        emit(
            report,
            allows,
            file,
            "panic",
            token.line,
            format!(
                "`{spelled}` on the panic-free path; return a typed error \
                 or waive with `// lint:allow(panic) <reason>`"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 2: determinism discipline in the deterministic modules.
// ---------------------------------------------------------------------------

/// Modules whose outputs must be a pure function of `(config, code)`:
/// the traffic co-scheduler (event clock), the checkpoint codecs, and the
/// JSON renderer.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/sim/src/traffic.rs",
    "crates/sim/src/checkpoint.rs",
    "crates/sim/src/minijson.rs",
];

/// Banned names and why. `HashMap`/`HashSet` are banned outright rather
/// than "only when iterated into output" — in a module whose entire job is
/// producing serialized artifacts, any unordered container is one refactor
/// away from leaking iteration order into bytes.
const DETERMINISM_BANNED: &[(&str, &str)] = &[
    (
        "SystemTime",
        "wall-clock time is not a function of (config, code)",
    ),
    (
        "Instant",
        "monotonic clocks are not a function of (config, code)",
    ),
    ("thread_rng", "ambient entropy breaks replay"),
    ("from_entropy", "ambient entropy breaks replay"),
    (
        "HashMap",
        "unordered iteration can leak into serialized output; use BTreeMap",
    ),
    (
        "HashSet",
        "unordered iteration can leak into serialized output; use BTreeSet",
    ),
];

pub fn determinism_rule(
    file: &SourceFile,
    tokens: &[Token],
    spans: &[(usize, usize)],
    allows: &[Allow],
    report: &mut Report,
) {
    if !DETERMINISM_SCOPE.contains(&file.rel.as_str()) {
        return;
    }
    let src = &file.text;
    for token in tokens {
        if token.kind != TokenKind::Ident || in_spans(spans, token.start) {
            continue;
        }
        let text = token.text(src);
        if let Some((name, why)) = DETERMINISM_BANNED.iter().find(|(n, _)| *n == text) {
            emit(
                report,
                allows,
                file,
                "determinism",
                token.line,
                format!("`{name}` in a deterministic module: {why}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: RNG salt discipline.
// ---------------------------------------------------------------------------

/// Whether any token is an identifier carrying the `_SALT`/`_salt` suffix
/// (constants, parameters, or helper functions all qualify).
fn has_salt_ident(tokens: &[&Token], src: &str) -> bool {
    tokens.iter().any(|t| {
        matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent)
            && t.text(src).to_ascii_lowercase().ends_with("_salt")
    })
}

/// Finds the nearest preceding `let [mut] <name> = … ;` statement and
/// returns its tokens, so a seed bound one line up can carry the salt.
fn binding_tokens<'c, 't>(code: &'c [&'t Token], name: &str, src: &str) -> Option<&'c [&'t Token]> {
    for j in (0..code.len()).rev() {
        if !code[j].is_ident(src, "let") {
            continue;
        }
        let mut k = j + 1;
        if code.get(k).is_some_and(|t| t.is_ident(src, "mut")) {
            k += 1;
        }
        if !code.get(k).is_some_and(|t| t.is_ident(src, name)) {
            continue;
        }
        let mut end = k;
        while end < code.len() && !code[end].is_punct(src, ';') {
            end += 1;
        }
        return Some(&code[j..end]);
    }
    None
}

pub fn rng_salt_rule(
    file: &SourceFile,
    tokens: &[Token],
    spans: &[(usize, usize)],
    allows: &[Allow],
    report: &mut Report,
) {
    // All library code; benches and integration tests seed ad hoc.
    if !(file.rel.starts_with("crates/") && file.rel.contains("/src/")) {
        return;
    }
    let src = &file.text;
    let code = code_tokens(tokens);
    for i in 0..code.len() {
        if !code[i].is_ident(src, "seed_from_u64")
            || !code.get(i + 1).is_some_and(|n| n.is_punct(src, '('))
            || in_spans(spans, code[i].start)
        {
            continue;
        }
        let close = match_delimiter(&code, i + 1, '(', ')', src);
        let args = &code[i + 2..close];
        if has_salt_ident(args, src) {
            continue;
        }
        // A bare identifier argument may have been salted where it was
        // bound: `let seed = base ^ FOO_SALT; … seed_from_u64(seed)`.
        if let [only] = args {
            if only.kind == TokenKind::Ident {
                if let Some(stmt) = binding_tokens(&code[..i], only.text(src), src) {
                    if has_salt_ident(stmt, src) {
                        continue;
                    }
                }
            }
        }
        emit(
            report,
            allows,
            file,
            "rng-salt",
            code[i].line,
            "seed_from_u64 without a named *_SALT in the argument (or in the \
             seed's `let` binding); name the stream's salt"
                .to_owned(),
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 4: scalar-twin coverage.
// ---------------------------------------------------------------------------

pub fn scalar_twin_rule(tree: &Tree, lexed: &[Option<Vec<Token>>], report: &mut Report) {
    if tree.scalar_manifest.is_empty() {
        report.diagnostics.push(Diagnostic {
            file: tree.manifest_rel.clone(),
            line: 1,
            rule: "scalar-twin",
            message: "scalar-twin manifest is missing or empty; list the hot-path \
                      entry points that need differential coverage"
                .to_owned(),
        });
        return;
    }
    for (line, entry) in &tree.scalar_manifest {
        let covered = tree.files.iter().zip(lexed).any(|(file, tokens)| {
            file.rel.starts_with("tests/")
                && tokens.as_ref().is_some_and(|tokens| {
                    tokens
                        .iter()
                        .any(|t| t.kind == TokenKind::Ident && t.text(&file.text) == *entry)
                })
        });
        if !covered {
            report.diagnostics.push(Diagnostic {
                file: tree.manifest_rel.clone(),
                line: *line,
                rule: "scalar-twin",
                message: format!(
                    "hot-path entry point `{entry}` is not referenced by any suite under tests/"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Orchestration.
// ---------------------------------------------------------------------------

/// Runs every rule over the tree and returns the finished report.
pub fn analyze(tree: &Tree) -> Report {
    let mut report = Report {
        files_scanned: tree.files.len(),
        ..Report::default()
    };
    let mut lexed: Vec<Option<Vec<Token>>> = Vec::with_capacity(tree.files.len());
    for file in &tree.files {
        match lex(&file.text) {
            Ok(tokens) => lexed.push(Some(tokens)),
            Err(err) => {
                report.diagnostics.push(Diagnostic {
                    file: file.rel.clone(),
                    line: err.line,
                    rule: "lex",
                    message: err.message,
                });
                lexed.push(None);
            }
        }
    }
    for (file, tokens) in tree.files.iter().zip(&lexed) {
        let Some(tokens) = tokens else { continue };
        let spans = test_spans(tokens, &file.text);
        let allows = parse_allows(file, tokens, &mut report);
        panic_rule(file, tokens, &spans, &allows, &mut report);
        determinism_rule(file, tokens, &spans, &allows, &mut report);
        rng_salt_rule(file, tokens, &spans, &allows, &mut report);
    }
    scalar_twin_rule(tree, &lexed, &mut report);
    report.finish();
    report
}
