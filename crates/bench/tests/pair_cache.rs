//! The analysis binaries that train their own pairs honour `--cache-dir`,
//! with the real `prop1_validation` binary: a cold run fills the pair
//! cache, and a warm re-run loads every pair (rewriting no cache file) and
//! prints exactly what the cold run printed.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

use embedstab_pipeline::cache::scratch_dir;

#[test]
fn prop1_validation_reuses_its_pair_cache() {
    let root = scratch_dir("prop1_pair_cache");
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(&root).expect("scratch dir");
    let cache = root.join("pairs");
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_prop1_validation"))
            .current_dir(&root)
            .arg("--cache-dir")
            .arg(&cache)
            .output()
            .expect("prop1_validation runs");
        assert!(
            out.status.success(),
            "prop1_validation failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };

    let cold = run();
    let written = pair_files(&cache);
    assert!(!written.is_empty(), "the cold run must fill the pair cache");
    let warm = run();
    assert_eq!(
        pair_files(&cache),
        written,
        "the warm run must load every pair, not retrain and rewrite it"
    );
    assert_eq!(warm, cold, "a warm run must print what the cold run did");
    fs::remove_dir_all(&root).ok();
}

/// Every `pair_v*` file in `dir` with its modification time.
fn pair_files(dir: &Path) -> Vec<(PathBuf, SystemTime)> {
    let mut files: Vec<(PathBuf, SystemTime)> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("pair_v"))
        .map(|e| {
            let modified = e.metadata().and_then(|m| m.modified()).expect("mtime");
            (e.path(), modified)
        })
        .collect();
    files.sort();
    files
}
