//! `splicer-lint` CLI.
//!
//! Exit codes: 0 = clean, 1 = unsuppressed findings, 2 = usage or I/O
//! error. Reports are rustc-style `file:line:col: error[rule]: message`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "\
splicer-lint — workspace determinism linter

Walks every non-vendor workspace crate and enforces the determinism
contract, deny-by-default:

  r1  unordered-iter   no iteration over HashMap/HashSet (incl. keys/
                       values/drain/retain) in semantic code; hash order
                       varies per process. Tests/benches exempt.
  r2  ambient-nondet   no Instant::now / SystemTime / std::env /
                       thread_rng / from_entropy outside the allowlisted
                       wall-clock site (crates/routing/src/stats.rs).
                       Tests/benches exempt.
  r3  epoch-bump       every &mut self fn on Graph that writes
                       adjacency state must mention the topology epoch
                       bump in its body (LandmarkTable rebuilds too).
  r4  safety-comment   every `unsafe` is preceded by a `// SAFETY:`
                       comment. Applies everywhere, tests included.

Suppressions are inline, per-site, with a mandatory reason:

  // splicer-lint: allow(r1) — hub set is sorted+deduped after collect

on the offending line or the comment lines directly above it. Allows
without a reason, and allows that suppress nothing, are findings.

USAGE:
  splicer-lint [--root <dir>] [--help]

OPTIONS:
  --root <dir>   workspace root (default: auto-discovered from the
                 manifest dir or by walking up to a [workspace] manifest)
  -h, --help     print this rule list and exit
";

fn discover_root() -> Option<PathBuf> {
    // When run via `cargo run -p splicer-lint`, the manifest dir is
    // crates/lint — the workspace root is two levels up.
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(md);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            if root.join("Cargo.toml").exists() {
                return Some(root.to_path_buf());
            }
        }
    }
    let cwd = std::env::current_dir().ok()?;
    splicer_lint::find_workspace_root(&cwd)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root.or_else(discover_root) else {
        eprintln!("error: could not locate the workspace root (pass --root <dir>)");
        return ExitCode::from(2);
    };
    match splicer_lint::lint_workspace(&root) {
        Ok((findings, files)) => {
            if findings.is_empty() {
                println!("splicer-lint: {files} files clean");
                ExitCode::SUCCESS
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!(
                    "splicer-lint: {} finding(s) across {files} files — fix or add \
                     `// splicer-lint: allow(<rule>) — <reason>`",
                    findings.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
