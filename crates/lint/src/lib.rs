//! `harp_lint` — a dependency-free static invariant analyzer for the
//! workspace.
//!
//! The repo's safety story rests on conventions: panic-free serving and
//! persistence paths, determinism in the modules whose bytes get
//! compared, salted RNG streams, and scalar twins for every hot path.
//! This crate checks them statically — a minimal Rust lexer ([`lexer`])
//! feeds a rule engine ([`rules`]) that emits file/line diagnostics
//! ([`report`]), with a machine-readable JSON report and `--check` exit
//! codes for CI.
//!
//! Run it as `harp lint` or as the standalone `harp_lint` binary:
//!
//! ```text
//! harp_lint [--check] [--json PATH] [--root DIR]
//! ```
//!
//! `--check` exits non-zero on any finding; a plain run prints the report
//! and always exits 0 (for local iteration). Waive a token-rule finding
//! with `// lint:allow(<rule>) <reason>` on the same line or the line
//! above — waivers are tallied in the report, and a waiver without a
//! reason is itself a finding.

pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

pub use report::{AllowedSite, Diagnostic, Report};
pub use rules::analyze;

/// Repo-relative path of the scalar-twin manifest consumed by rule 4.
pub const SCALAR_TWIN_MANIFEST: &str = "tests/scalar_twins.txt";

/// One source file, identified by its repo-relative `/`-separated path.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub rel: String,
    pub text: String,
}

/// Everything the rules look at, decoupled from the filesystem so fixture
/// tests can fabricate violating trees in memory.
#[derive(Debug, Default)]
pub struct Tree {
    /// All `.rs` files under `crates/*/src`, `crates/bench/benches`, and
    /// the repo-root `tests/`, sorted by path.
    pub files: Vec<SourceFile>,
    /// `(line, entry)` pairs from the scalar-twin manifest.
    pub scalar_manifest: Vec<(u32, String)>,
    /// Where the manifest lives, for diagnostics.
    pub manifest_rel: String,
}

impl Tree {
    /// Loads the analyzable tree from a workspace root. Vendored crates
    /// are deliberately out of scope: the rules encode *this* repo's
    /// contracts, not the stand-ins'.
    pub fn load(root: &Path) -> Result<Tree, String> {
        let mut tree = Tree {
            manifest_rel: SCALAR_TWIN_MANIFEST.to_owned(),
            ..Tree::default()
        };
        let crates_dir = root.join("crates");
        let mut crate_dirs = read_dir_sorted(&crates_dir)?;
        crate_dirs.retain(|p| p.is_dir());
        for crate_dir in crate_dirs {
            collect_rs(root, &crate_dir.join("src"), &mut tree.files)?;
            collect_rs(root, &crate_dir.join("benches"), &mut tree.files)?;
        }
        collect_rs(root, &root.join("tests"), &mut tree.files)?;
        tree.files.sort_by(|a, b| a.rel.cmp(&b.rel));

        let manifest = root.join(SCALAR_TWIN_MANIFEST);
        if manifest.is_file() {
            for (index, line) in read_file(&manifest)?.lines().enumerate() {
                let entry = line.trim();
                if entry.is_empty() || entry.starts_with('#') {
                    continue;
                }
                tree.scalar_manifest
                    .push((index as u32 + 1, entry.to_owned()));
            }
        }
        Ok(tree)
    }
}

fn read_file(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Directory entries sorted by path (the analysis must not depend on
/// readdir order). A missing directory is an empty listing.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        paths.push(entry.map_err(|e| format!("{}: {e}", dir.display()))?.path());
    }
    paths.sort();
    Ok(paths)
}

/// Recursively collects `.rs` files under `dir` into `files`, with paths
/// rewritten relative to `root` using `/` separators.
fn collect_rs(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(root, &path, files)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile {
                rel,
                text: read_file(&path)?,
            });
        }
    }
    Ok(())
}

/// Walks up from `start` looking for a directory that holds both
/// `Cargo.toml` and `crates/` — the workspace root.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The shared CLI driver behind both `harp lint` and the `harp_lint`
/// binary. Returns the process exit code, or a usage/config error.
pub fn run_cli(args: &[String]) -> Result<i32, String> {
    let mut check = false;
    let mut json_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => {
                json_path = Some(PathBuf::from(iter.next().ok_or("--json requires a path")?));
            }
            "--root" => {
                root = Some(PathBuf::from(
                    iter.next().ok_or("--root requires a directory")?,
                ));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let root = match root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("getcwd: {e}"))?;
            find_root(&cwd).ok_or(
                "no workspace root (Cargo.toml + crates/) above the current \
                 directory; pass --root",
            )?
        }
    };
    let tree = Tree::load(&root)?;
    let report = analyze(&tree);
    print!("{}", report.render_text());
    if let Some(path) = json_path {
        std::fs::write(&path, report.render_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(if check && !report.is_clean() { 1 } else { 0 })
}

fn usage() -> &'static str {
    "usage: harp_lint [--check] [--json PATH] [--root DIR]\n\
     \n\
     Static invariant analysis over the workspace:\n\
     \x20 panic        panic-freedom on serving/persistence paths\n\
     \x20 determinism  no clocks/entropy/unordered maps in deterministic modules\n\
     \x20 rng-salt     every seed_from_u64 references a named *_SALT\n\
     \x20 scalar-twin  every manifest entry point has a differential suite\n\
     \n\
     --check  exit 1 when findings exist (CI gate)\n\
     --json   also write the machine-readable report to PATH\n\
     --root   workspace root (default: walk up from the current directory)"
}
