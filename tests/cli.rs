//! The `bmf` front end refuses what its grammar does not declare.
//!
//! Every subcommand parses through `bmf_obs::cli`: an unknown flag, a
//! flag without its value, a repeated single-valued flag and a
//! malformed value each exit 2 before any work, name the flag on stderr
//! and leave no output file. The observability flags are accepted on
//! either side of the subcommand but not without one, `--help` before
//! the subcommand wins, `BMF_LOG` follows the `--log-level` rule, and a
//! usage error found once the run has started still flushes its
//! telemetry.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `bmf` on `line`, split at spaces, with `DIR` standing for a
/// fresh directory named by `tag`; returns the output and the directory.
fn bmf(tag: &str, line: &str, bmf_log: Option<&str>) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("bmf-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    (bmf_in(&dir, line, bmf_log), dir)
}

/// Runs `bmf` on `line`, split at spaces, with `DIR` standing for `dir`.
fn bmf_in(dir: &Path, line: &str, bmf_log: Option<&str>) -> Output {
    let line = line.replace("DIR", dir.to_str().unwrap());
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bmf"));
    if let Some(level) = bmf_log {
        cmd.env("BMF_LOG", level);
    }
    cmd.args(line.split_whitespace()).output().unwrap()
}

/// Asserts that `line` exits 2 naming `flag` on stderr and writes no
/// file.
fn assert_refused(line: &str, flag: &str, bmf_log: Option<&str>) {
    let (out, dir) = bmf("refuse", line, bmf_log);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "bmf {line}: {stderr}");
    assert!(
        stderr.contains(flag),
        "bmf {line} must name {flag}: {stderr}"
    );
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "bmf {line} wrote {written:?}");
    std::fs::remove_dir_all(dir).unwrap();
}

const ESTIMATE: &str = "estimate --early DIR/e.csv --late DIR/l.csv --out DIR/o.csv";
const GENERATE: &str = "generate --circuit opamp --stage schematic --samples 3 --out DIR/o.csv";
const SHARD: &str = "shard --circuit opamp --n-early 35 --n-late 14 --index 0/3 --out DIR/p.json";
const MERGE: &str = "merge --packet DIR/p.json --out DIR/o.csv";
const YIELD: &str = "yield --moments DIR/m.csv --spec gain_db>=80";
const DIAGNOSE: &str = "diagnose --samples DIR/s.csv";

#[test]
fn every_subcommand_refuses_unknown_missing_repeated_and_malformed_flags() {
    for (base, extra, flag) in [
        (ESTIMATE, "--ot DIR/m.csv", "--ot"),
        (ESTIMATE, "--degrade", "--degrade"),
        (ESTIMATE, "--seed", "--seed"),
        (ESTIMATE, "--threads 2 --threads 0", "--threads"),
        (ESTIMATE, "--threads 0", "--threads"),
        (ESTIMATE, "--seed abc", "--seed"),
        (ESTIMATE, "stray", "stray"),
        (GENERATE, "--sead 2", "--sead"),
        (GENERATE, "--seed", "--seed"),
        (GENERATE, "--samples 4", "--samples"),
        (GENERATE, "--fault-rate abc", "--fault-rate"),
        (GENERATE, "--retry-attempts 0", "--retry-attempts"),
        (GENERATE, "--seed=2", "--seed=2"),
        (SHARD, "--shards 3", "--shards"),
        (SHARD, "--seed", "--seed"),
        (SHARD, "--index 1/3", "--index"),
        (SHARD, "--retry-attempts x", "--retry-attempts"),
        (MERGE, "--degrade", "--degrade"),
        (MERGE, "--report", "--report"),
        (MERGE, "--out DIR/m.csv", "--out"),
        (MERGE, "--kappa0 x --nu0 10", "--kappa0"),
        (YIELD, "--draw 5", "--draw"),
        (YIELD, "--draws", "--draws"),
        (YIELD, "--seed 1 --seed 2", "--seed"),
        (YIELD, "--draws many", "--draws"),
        (DIAGNOSE, "--sample x", "--sample"),
        (DIAGNOSE, "--samples again", "--samples"),
        // A flag followed by a flag has no value; subcommand flags go
        // after the subcommand.
        ("diagnose --samples", "--profile", "--samples"),
        ("--threads 2", "diagnose", "--threads"),
        ("walk", "", "walk"),
        // Without a subcommand there is no run to observe.
        ("--trace-out DIR/t.json", "", "--trace-out"),
        ("--help", "--events-out DIR/e.jsonl", "--events-out"),
    ] {
        assert_refused(&format!("{base} {extra}"), flag, None);
    }
    assert_refused(GENERATE, "BMF_LOG", Some("verbose"));
}

#[test]
fn obs_flags_go_on_either_side_of_the_subcommand_and_bmf_log_is_read() {
    let line = "generate --circuit adc --stage schematic --samples 3 --seed 5 --out DIR/o.csv";
    let mut outputs = Vec::new();
    for (tag, line, bmf_log) in [
        ("before", format!("--log-level error {line}"), None),
        ("after", format!("{line} --log-level error"), None),
        ("env", line.to_string(), Some("error")),
    ] {
        let (out, dir) = bmf(tag, &line, bmf_log);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert!(out.stderr.is_empty(), "error level keeps {tag} quiet");
        outputs.push(std::fs::read(dir.join("o.csv")).unwrap());
        std::fs::remove_dir_all(dir).unwrap();
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    // `--help` before the subcommand wins over it.
    for line in ["--help", "--help estimate --early e.csv --late l.csv"] {
        let out = bmf_in(Path::new("."), line, None);
        assert!(out.status.success(), "bmf {line}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("subcommands:"));
    }
}

#[test]
fn a_usage_error_after_the_run_started_still_flushes_telemetry() {
    // `--nu0 3` is checked against the merged study's d = 5, so only
    // after the packets were read and merged: exit 2, no moments, but the
    // event log of the merge is written.
    let (out, dir) = bmf("flush", &SHARD.replace("0/3", "0/1"), None);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let merge = format!("{MERGE} --kappa0 1 --nu0 3 --events-out DIR/e.jsonl");
    let out = bmf_in(&dir, &merge, None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--nu0"), "{stderr}");
    assert!(!dir.join("o.csv").exists());
    let events = std::fs::read_to_string(dir.join("e.jsonl")).unwrap();
    assert!(events.contains("shard.merged"), "{events}");
    std::fs::remove_dir_all(dir).unwrap();
}
