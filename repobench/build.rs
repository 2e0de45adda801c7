//! Stamps the binary with the commit it was built from and the compiler
//! version, for the provenance line every run prints.  The commit is read
//! from the checkout's `.git` directory when there is one, and is
//! `unknown` otherwise (an exported source tree has none).

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = head_commit(&git).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=REPOBENCH_COMMIT={commit}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=REPOBENCH_RUSTC={version}");
}

/// Resolves `HEAD` to a commit id: a detached id, a loose ref, or a line
/// of `packed-refs`.  Watches the files it read, so a new commit rebuilds.
fn head_commit(git: &Path) -> Option<String> {
    let head_path = git.join("HEAD");
    let head = std::fs::read_to_string(&head_path).ok()?;
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    let loose = git.join(name);
    if let Ok(id) = std::fs::read_to_string(&loose) {
        println!("cargo:rerun-if-changed={}", loose.display());
        return Some(id.trim().to_string());
    }
    let packed_path = git.join("packed-refs");
    let packed = std::fs::read_to_string(&packed_path).ok()?;
    println!("cargo:rerun-if-changed={}", packed_path.display());
    packed
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(_, r)| *r == name)
        .map(|(id, _)| id.to_string())
}
