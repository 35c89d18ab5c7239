//! End-to-end contract of fleet mode, with the real binaries: a 2-worker
//! loopback fleet at Tiny scale — **with one worker killed mid-slice by
//! fault injection** — must produce merged rows bitwise identical to an
//! unsharded run, a cold worker must obtain the coordinator's world cache
//! file bitwise over the wire, and the world must be built exactly once:
//! every shard process loads it from the cache.
//!
//! The choreography is deterministic: worker A starts alone with
//! `FLEET_FAIL_ONCE` armed, pulls the world, leases slice 0, and dies
//! mid-slice (exit 43). Only then does worker B start (clean, separate
//! empty caches): it pulls the world, runs the re-dispatched slice 0 and
//! slice 1, and drains the fleet. Nothing worker A staged may reach disk.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use embedstab_bench::{row_merge_key, rows_to_jsonl};
use embedstab_pipeline::cache::scratch_dir;
use embedstab_pipeline::Row;

const TASKS: [&str; 5] = ["sst2", "mr", "subj", "mpqa", "ner"];

/// Kills the coordinator if the test panics before reaping it.
struct Reap(Option<Child>);

impl Drop for Reap {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

#[test]
fn fleet_with_injected_worker_death_matches_unsharded_run_bitwise() {
    let root = scratch_dir("fleet_e2e");
    fs::remove_dir_all(&root).ok();
    let coord_cwd = root.join("coord");
    let world_cache = coord_cwd.join("world-cache");
    let pair_cache = coord_cwd.join("pair-cache");
    fs::create_dir_all(&coord_cwd).expect("coordinator cwd");

    let fig2 = PathBuf::from(env!("CARGO_BIN_EXE_fig2_memory_tradeoff"));
    let bin_dir = fig2.parent().expect("fig2 has a parent dir").to_path_buf();
    let bin_name = fig2
        .file_name()
        .and_then(|n| n.to_str())
        .expect("fig2 has a name");

    // The coordinator builds the world, binds an ephemeral port, and
    // announces it on stderr; tee stderr so the test can find the port
    // and still dump the full log on failure.
    let mut coordinator = Command::new(env!("CARGO_BIN_EXE_fleet_coordinator"))
        .current_dir(&coord_cwd)
        .args(["--shards", "2", "--bind", "127.0.0.1:0"])
        .args(["--bin", bin_name, "--scale", "tiny"])
        .arg("--cache-dir")
        .arg(&pair_cache)
        .arg("--world-cache")
        .arg(&world_cache)
        .args(["--linger-ms", "2000"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("fleet_coordinator spawns");
    let coord_log = Arc::new(Mutex::new(String::new()));
    let tee = {
        let log = coord_log.clone();
        let stderr = coordinator.stderr.take().expect("piped stderr");
        thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let mut log = log.lock().expect("log lock");
                log.push_str(&line);
                log.push('\n');
            }
        })
    };
    let mut coordinator = Reap(Some(coordinator));
    let addr = wait_for_addr(&coord_log, Duration::from_secs(180));

    // Worker A: cold caches, fault injection armed. It must pull the
    // world, lease a slice, and die mid-slice with status 43.
    let marker = root.join("fail_once.marker");
    let wa = worker_cmd(&root, "worker-a", &bin_dir, &addr)
        .env("FLEET_FAIL_ONCE", &marker)
        .output()
        .expect("worker-a runs");
    let wa_log = String::from_utf8_lossy(&wa.stderr).to_string();
    assert_eq!(
        wa.status.code(),
        Some(43),
        "worker-a must die via fault injection:\n{wa_log}"
    );
    assert!(
        wa_log.contains("injected failure: dying mid-slice"),
        "worker-a must log the injected death:\n{wa_log}"
    );
    assert!(
        wa_log.contains("pulled world cache"),
        "cold worker-a must pull the world over the wire:\n{wa_log}"
    );
    assert!(marker.exists(), "the injection marker must be left behind");

    // Worker B: clean, its own empty caches. It inherits the re-queued
    // slice plus the untouched one and drains the fleet.
    let wb = worker_cmd(&root, "worker-b", &bin_dir, &addr)
        .output()
        .expect("worker-b runs");
    let wb_log = String::from_utf8_lossy(&wb.stderr).to_string();
    assert!(
        wb.status.success(),
        "worker-b must drain the fleet:\n{wb_log}\n--- coordinator:\n{}",
        coord_log.lock().expect("log lock")
    );
    assert!(
        wb_log.contains("pulled world cache"),
        "cold worker-b must pull the world over the wire:\n{wb_log}"
    );
    assert!(
        wb_log.contains("slice 0 complete") && wb_log.contains("slice 1 complete"),
        "worker-b must complete both slices (one re-dispatched):\n{wb_log}"
    );
    // Each slice's shard process loads the pulled world; none rebuilds it.
    assert_eq!(
        wb_log.matches("[world] loaded").count(),
        2,
        "both of worker-b's shard processes must load the cached world:\n{wb_log}"
    );
    assert!(
        !wb_log.contains("[world] built"),
        "a shard process rebuilt the world:\n{wb_log}"
    );

    let status = coordinator
        .0
        .take()
        .expect("coordinator child")
        .wait()
        .expect("coordinator waits");
    tee.join().expect("tee thread");
    let coord_log = coord_log.lock().expect("log lock").clone();
    assert!(
        status.success(),
        "coordinator must merge and exit 0:\n{coord_log}"
    );
    assert!(
        coord_log.contains("requeued"),
        "worker-a's death must re-queue its slice:\n{coord_log}"
    );
    assert_eq!(
        coord_log.matches("[world]").count(),
        1,
        "the world must be built exactly once, by the coordinator:\n{coord_log}"
    );

    // Cache shipping really shipped the coordinator's file: each worker's
    // local world cache holds a bitwise-identical copy.
    let world_file = single_file(&world_cache);
    let coordinator_world = fs::read(&world_file).expect("coordinator world file");
    for worker in ["worker-a", "worker-b"] {
        let local = root
            .join(worker)
            .join("world-cache")
            .join(world_file.file_name().expect("world file has a name"));
        let pulled = fs::read(&local)
            .unwrap_or_else(|e| panic!("{worker} world copy {} missing: {e}", local.display()));
        assert_eq!(
            pulled, coordinator_world,
            "{worker}'s pulled world file must be bitwise identical"
        );
    }

    // The decisive check: merged rows == an unsharded reference run (same
    // world cache, fresh pairs), bitwise, for every task — the injected
    // death must be invisible in the output.
    let unsharded_cwd = root.join("unsharded");
    fs::create_dir_all(&unsharded_cwd).expect("unsharded cwd");
    let reference = Command::new(&fig2)
        .current_dir(&unsharded_cwd)
        .args(["--scale", "tiny", "--fresh"])
        .arg("--world-cache")
        .arg(&world_cache)
        .output()
        .expect("reference fig2 runs");
    assert!(
        reference.status.success(),
        "unsharded fig2 failed:\n{}",
        String::from_utf8_lossy(&reference.stderr)
    );
    for task in TASKS {
        let merged_path = coord_cwd
            .join("results")
            .join(format!("rows_{task}_tiny.merged.jsonl"));
        let merged = fs::read_to_string(&merged_path)
            .unwrap_or_else(|e| panic!("missing merged rows for {task}: {e}\n{coord_log}"));
        let body = fs::read_to_string(
            unsharded_cwd
                .join("results")
                .join(format!("rows_{task}_tiny.json")),
        )
        .unwrap_or_else(|e| panic!("missing reference rows for {task}: {e}"));
        let mut reference: Vec<Row> = serde_json::from_str(&body).expect("reference rows parse");
        assert!(!reference.is_empty());
        reference.sort_by_cached_key(row_merge_key);
        assert_eq!(
            merged,
            rows_to_jsonl(&reference),
            "merged {task} rows differ from the unsharded run"
        );
    }

    fs::remove_dir_all(&root).ok();
}

/// A worker command with its own workdir and its own **empty** cache
/// directories — every worker starts cold, so cache shipping is on the
/// critical path by construction.
fn worker_cmd(root: &Path, name: &str, bin_dir: &Path, addr: &str) -> Command {
    let home = root.join(name);
    fs::create_dir_all(&home).expect("worker home");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fleet_worker"));
    cmd.current_dir(&home)
        .args(["--addr", addr, "--name", name])
        .arg("--bin-dir")
        .arg(bin_dir)
        .arg("--cache-dir")
        .arg(home.join("pair-cache"))
        .arg("--world-cache")
        .arg(home.join("world-cache"))
        .args(["--heartbeat-ms", "500", "--poll-ms", "25"])
        .args(["--connect-retries", "20"]);
    cmd
}

/// Polls the coordinator's teed stderr for the "serving ... on ADDR"
/// announcement and returns the address.
fn wait_for_addr(log: &Arc<Mutex<String>>, timeout: Duration) -> String {
    let start = Instant::now();
    loop {
        {
            let log = log.lock().expect("log lock");
            if let Some(line) = log.lines().find(|l| l.contains("] serving ")) {
                let addr = line.rsplit(" on ").next().expect("rsplit yields").trim();
                return addr.to_string();
            }
        }
        assert!(
            start.elapsed() < timeout,
            "coordinator never announced its address:\n{}",
            log.lock().expect("log lock")
        );
        thread::sleep(Duration::from_millis(50));
    }
}

/// The single file expected in a directory (the Tiny world cache).
fn single_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one file in {dir:?}");
    files.pop().expect("one file")
}
