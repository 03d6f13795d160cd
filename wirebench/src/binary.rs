//! Builds the binary under test and records what was built.
//!
//! The repository's `cargo build --release` builds only the root package,
//! not `systolic_service`'s `systolicd`, so the benchmark builds it itself,
//! with the release profile, and refuses an artifact whose profile has
//! no optimisation or keeps debug assertions.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use systolic_service::Json;

use crate::util::Fnv;

/// The release `systolicd` and where it came from.
#[derive(Debug)]
pub struct Binary {
    pub exe: PathBuf,
    pub opt_level: String,
    /// `git rev-parse HEAD`, when the root is a git checkout.
    pub commit: Option<String>,
    /// FNV-1a over the workspace sources the binary is built from.
    pub source_hash: u64,
}

/// Builds `systolicd` from the workspace at `root`.
pub fn build(root: &Path) -> Result<Binary, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "systolic_service",
            "--bin",
            "systolicd",
            "--message-format=json-render-diagnostics",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building systolicd failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let artifact = stdout
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .find(|message| {
            message.get("reason").and_then(Json::as_str) == Some("compiler-artifact")
                && message
                    .get("target")
                    .and_then(|t| t.get("name"))
                    .and_then(Json::as_str)
                    == Some("systolicd")
        })
        .ok_or("cargo reported no systolicd artifact")?;
    let profile = artifact
        .get("profile")
        .ok_or("the artifact has no profile")?;
    let opt_level = profile
        .get("opt_level")
        .and_then(Json::as_str)
        .ok_or("the artifact has no opt_level")?
        .to_owned();
    if opt_level == "0" || profile.get("debug_assertions").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "refusing a debug systolicd (opt_level {opt_level}, debug assertions on)"
        ));
    }
    let exe = artifact
        .get("executable")
        .and_then(Json::as_str)
        .ok_or("the artifact has no executable")?;
    Ok(Binary {
        exe: PathBuf::from(exe),
        opt_level,
        commit: commit(root),
        source_hash: source_hash(root)?,
    })
}

/// Only the root's own `.git` counts: git would otherwise report the
/// commit of whatever repository happens to enclose the checkout.
fn commit(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let output = Command::new("git")
        .current_dir(root)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

/// Hashes the manifests and every file under `crates/` and `vendor/`
/// (build outputs excluded), in path order.
fn source_hash(root: &Path) -> Result<u64, String> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files)?;
                }
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "vendor"] {
        walk(&root.join(dir), &mut files).map_err(|e| format!("cannot list {dir}: {e}"))?;
    }
    files.sort();
    let mut hash = Fnv::new();
    for path in files {
        let relative = path.strip_prefix(root).unwrap_or(&path);
        hash.write(relative.to_string_lossy().as_bytes());
        hash.write(
            &std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        );
    }
    Ok(hash.finish())
}
