//! Sharded-study integration suite: packet merge edge cases in-process,
//! plus end-to-end chaos through the `bmf` binary (kill-and-resume,
//! corrupt packets, quorum exit codes, atomic report writes).
//!
//! The in-process half drives `bmf_ams::circuits::shard` directly and
//! asserts the reduction algebra: any partition of a study — 1, 2 or 7
//! shards, any thread count — merges to bit-identical moments, and every
//! malformed input is a *typed* error, never a panic or a wrong number.
//!
//! The process half runs the actual `bmf` executable (CARGO_BIN_EXE) so
//! the exit-code taxonomy and the `BMF_SHARD_KILL` crash window are
//! tested exactly as operators hit them, and pins the bytes a fixed-seed
//! generate → estimate → shard → merge sequence writes.

use bmf_ams::circuits::monte_carlo::two_stage_study_seeded;
use bmf_ams::circuits::shard::{
    merge_packet_texts, merge_packets, run_shard, study_reference_stats, MergePolicy, StudyConfig,
};
use bmf_ams::circuits::CircuitError;
use bmf_ams::obs::run::fnv1a;
use std::path::PathBuf;
use std::process::Command;

fn config(shard_count: usize) -> StudyConfig {
    StudyConfig {
        circuit: "opamp".to_string(),
        n_early: 35,
        n_late: 14,
        shard_count,
        seed: 2015,
        max_attempts: 25,
        fault_rate: 0.0,
    }
}

// ---------------------------------------------------------------------------
// In-process merge edge cases
// ---------------------------------------------------------------------------

#[test]
fn empty_packet_set_is_a_typed_quorum_error() {
    let err = merge_packets(&[], &MergePolicy::default()).unwrap_err();
    assert!(
        matches!(err, CircuitError::ShardQuorum { merged: 0, .. }),
        "{err}"
    );
    let err = merge_packet_texts(&[], &MergePolicy::default()).unwrap_err();
    assert!(matches!(err, CircuitError::ShardQuorum { .. }), "{err}");
}

#[test]
fn single_shard_merge_equals_the_single_process_study() {
    let cfg = config(1);
    let packet = run_shard(&cfg, 0, 2).unwrap();
    let outcome = merge_packets(&[packet], &MergePolicy::default()).unwrap();

    let tb = cfg.testbench().unwrap();
    let study = two_stage_study_seeded(tb.as_ref(), cfg.n_early, cfg.n_late, cfg.seed, 3).unwrap();
    let (ref_early, ref_late) = study_reference_stats(&study);

    // Bit-exact: the shard accumulated the same exact sums the
    // single-process run does.
    assert_eq!(
        outcome.early.moments().unwrap(),
        ref_early.moments().unwrap()
    );
    assert_eq!(outcome.late.moments().unwrap(), ref_late.moments().unwrap());
    assert!(outcome.coverage.is_complete());
}

#[test]
fn partitions_of_1_2_and_7_merge_bit_exactly() {
    // The N=1 "partition" is the oracle; 2- and 7-way partitions (run at
    // varying thread counts) must reduce to the same bits.
    let reference = {
        let cfg = config(1);
        let packet = run_shard(&cfg, 0, 1).unwrap();
        let outcome = merge_packets(&[packet], &MergePolicy::default()).unwrap();
        (
            outcome.early.moments().unwrap(),
            outcome.late.moments().unwrap(),
        )
    };
    for (shards, threads) in [(2usize, 3usize), (7, 2)] {
        let cfg = config(shards);
        let packets: Vec<_> = (0..shards)
            .map(|i| run_shard(&cfg, i, threads + i % 2).unwrap())
            .collect();
        let outcome = merge_packets(&packets, &MergePolicy::default()).unwrap();
        assert_eq!(
            outcome.early.moments().unwrap(),
            reference.0,
            "{shards}-way early moments diverged"
        );
        assert_eq!(
            outcome.late.moments().unwrap(),
            reference.1,
            "{shards}-way late moments diverged"
        );
        assert_eq!(outcome.coverage.merged, shards);
        assert!(outcome.coverage.is_complete());
    }
}

#[test]
fn merge_order_does_not_change_a_bit() {
    let cfg = config(3);
    let mut packets: Vec<_> = (0..3).map(|i| run_shard(&cfg, i, 1).unwrap()).collect();
    let forward = merge_packets(&packets, &MergePolicy::default()).unwrap();
    packets.reverse();
    let backward = merge_packets(&packets, &MergePolicy::default()).unwrap();
    assert_eq!(
        forward.late.moments().unwrap(),
        backward.late.moments().unwrap()
    );
    assert_eq!(
        forward.early.moments().unwrap(),
        backward.early.moments().unwrap()
    );
}

#[test]
fn duplicate_packets_dedupe_and_mismatched_configs_reject() {
    let cfg = config(2);
    let p0 = run_shard(&cfg, 0, 1).unwrap();
    let p1 = run_shard(&cfg, 1, 1).unwrap();

    // Identical duplicate collapses; the reduction is unchanged.
    let deduped = merge_packets(
        &[p0.clone(), p1.clone(), p0.clone()],
        &MergePolicy::default(),
    )
    .unwrap();
    assert_eq!(deduped.coverage.duplicates, 1);
    let plain = merge_packets(&[p0.clone(), p1.clone()], &MergePolicy::default()).unwrap();
    assert_eq!(
        deduped.late.moments().unwrap(),
        plain.late.moments().unwrap()
    );

    // A packet from a different study (different seed → different config
    // hash) is incompatible, not silently mixed in.
    let mut other_cfg = config(2);
    other_cfg.seed = 777;
    let alien = run_shard(&other_cfg, 1, 1).unwrap();
    let err = merge_packets(&[p0, alien], &MergePolicy::default()).unwrap_err();
    assert!(
        matches!(err, CircuitError::PacketIncompatible { .. }),
        "{err}"
    );
}

#[test]
fn quorum_policy_gates_partial_merges() {
    let cfg = config(3);
    let p0 = run_shard(&cfg, 0, 1).unwrap();
    let p2 = run_shard(&cfg, 2, 1).unwrap();

    // Default policy: every shard or nothing.
    let err = merge_packets(&[p0.clone(), p2.clone()], &MergePolicy::default()).unwrap_err();
    assert!(
        matches!(
            err,
            CircuitError::ShardQuorum {
                merged: 2,
                required: 3,
                shard_count: 3
            }
        ),
        "{err}"
    );

    // min_shards = 2: degraded merge, widened-uncertainty accounting.
    let outcome = merge_packets(
        &[p0, p2],
        &MergePolicy {
            min_shards: Some(2),
        },
    )
    .unwrap();
    assert!(!outcome.coverage.is_complete());
    assert!(outcome.coverage.quorum_met());
    assert_eq!(outcome.coverage.missing, vec![(1, 1)]);
    let expected = cfg.n_late as f64 / outcome.coverage.observed_late as f64;
    assert!((outcome.coverage.inflation - expected).abs() < 1e-15);
}

#[test]
fn truncated_packet_text_is_a_typed_corruption() {
    let cfg = config(2);
    let p0 = run_shard(&cfg, 0, 1).unwrap();
    let p1 = run_shard(&cfg, 1, 1).unwrap();
    let full = p1.to_json();
    let truncated = full[..full.len() / 2].to_string();
    let texts = vec![
        ("packets/shard-0.json".to_string(), p0.to_json()),
        ("packets/shard-1.json".to_string(), truncated),
    ];
    // Corruption sank the default quorum: the root cause surfaces.
    let err = merge_packet_texts(&texts, &MergePolicy::default()).unwrap_err();
    assert!(matches!(err, CircuitError::PacketCorrupt { .. }), "{err}");

    // Under a quorum of 1 the corrupt packet is excluded, counted and
    // attributed to its shard index from the file name.
    let outcome = merge_packet_texts(
        &texts,
        &MergePolicy {
            min_shards: Some(1),
        },
    )
    .unwrap();
    assert_eq!(outcome.coverage.merged, 1);
    assert_eq!(outcome.coverage.corrupt, vec![1]);
}

// ---------------------------------------------------------------------------
// End-to-end chaos through the bmf binary
// ---------------------------------------------------------------------------

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("bmf-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bmf() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bmf"));
    cmd.arg("--log-level").arg("error");
    cmd
}

/// `bmf shard` writing one slice of the small test study.
fn shard_cmd(dir: &TempDir, index: usize, shards: usize, out: &str) -> Command {
    let mut cmd = bmf();
    cmd.args([
        "shard",
        "--circuit",
        "opamp",
        "--n-early",
        "35",
        "--n-late",
        "14",
        "--seed",
        "2015",
        "--retry-attempts",
        "25",
        "--threads",
        "2",
    ]);
    cmd.arg("--index").arg(format!("{index}/{shards}"));
    cmd.arg("--out").arg(dir.path(out));
    cmd
}

fn exit_code(output: &std::process::Output) -> i32 {
    output.status.code().unwrap_or(-1)
}

#[test]
fn cli_kill_and_resume_merge_is_bit_identical_to_uninterrupted() {
    let dir = TempDir::new("kill-resume");

    // Uninterrupted 3-shard study → reference moments CSV.
    for i in 0..3 {
        let out = shard_cmd(&dir, i, 3, &format!("ref-{i}.json"))
            .output()
            .unwrap();
        assert_eq!(
            exit_code(&out),
            0,
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = bmf()
        .args(["merge", "--threads", "2"])
        .arg("--packet")
        .arg(dir.path("ref-0.json"))
        .arg("--packet")
        .arg(dir.path("ref-1.json"))
        .arg("--packet")
        .arg(dir.path("ref-2.json"))
        .arg("--out")
        .arg(dir.path("reference.csv"))
        .output()
        .unwrap();
    assert_eq!(
        exit_code(&out),
        0,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Chaos run: shard 1 is killed in the window between simulation and
    // the atomic packet rename.
    for i in [0usize, 2] {
        let out = shard_cmd(&dir, i, 3, &format!("run-{i}.json"))
            .output()
            .unwrap();
        assert_eq!(exit_code(&out), 0);
    }
    let killed = shard_cmd(&dir, 1, 3, "run-1.json")
        .env("BMF_SHARD_KILL", "1")
        .output()
        .unwrap();
    assert!(!killed.status.success(), "kill hook must not exit cleanly");
    assert!(
        !std::path::Path::new(&dir.path("run-1.json")).exists(),
        "a killed shard must leave no packet behind"
    );

    // Resume: re-run only the dead shard, merge all three.
    let out = shard_cmd(&dir, 1, 3, "run-1.json").output().unwrap();
    assert_eq!(
        exit_code(&out),
        0,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bmf()
        .args(["merge", "--threads", "2"])
        .arg("--packet")
        .arg(dir.path("run-0.json"))
        .arg("--packet")
        .arg(dir.path("run-1.json"))
        .arg("--packet")
        .arg(dir.path("run-2.json"))
        .arg("--out")
        .arg(dir.path("resumed.csv"))
        .output()
        .unwrap();
    assert_eq!(
        exit_code(&out),
        0,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let reference = std::fs::read(dir.path("reference.csv")).unwrap();
    let resumed = std::fs::read(dir.path("resumed.csv")).unwrap();
    assert_eq!(reference, resumed, "kill-and-resume changed the bits");
}

#[test]
fn cli_corrupt_packet_is_exit_1_with_a_checksum_message() {
    let dir = TempDir::new("corrupt");
    for i in 0..2 {
        let out = shard_cmd(&dir, i, 2, &format!("p{i}.json"))
            .output()
            .unwrap();
        assert_eq!(exit_code(&out), 0);
    }
    // Bit-flip one character inside the payload (not the framing).
    let text = std::fs::read_to_string(dir.path("p1.json")).unwrap();
    let pos = text.find("\"retries\":").unwrap() + "\"retries\":".len();
    let mut bytes = text.into_bytes();
    // A digit stays a digit so the JSON still parses; only the checksum
    // catches the tamper.
    bytes[pos] = if bytes[pos] == b'9' {
        b'8'
    } else {
        bytes[pos] + 1
    };
    std::fs::write(dir.path("p1.json"), &bytes).unwrap();

    let out = bmf()
        .args(["merge", "--threads", "1"])
        .arg("--packet")
        .arg(dir.path("p0.json"))
        .arg("--packet")
        .arg(dir.path("p1.json"))
        .arg("--out")
        .arg(dir.path("m.csv"))
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 1, "corrupt packet is a runtime error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum") || stderr.contains("corrupt"),
        "stderr must name the corruption: {stderr}"
    );
}

#[test]
fn cli_quorum_and_degraded_exit_codes() {
    let dir = TempDir::new("exit-codes");
    for i in [0usize, 2] {
        let out = shard_cmd(&dir, i, 3, &format!("p{i}.json"))
            .output()
            .unwrap();
        assert_eq!(exit_code(&out), 0);
    }

    // Missing shard, full-coverage policy → strict refusal (3).
    let out = bmf()
        .args(["merge", "--threads", "1"])
        .arg("--packet")
        .arg(dir.path("p0.json"))
        .arg("--packet")
        .arg(dir.path("p2.json"))
        .output()
        .unwrap();
    assert_eq!(
        exit_code(&out),
        3,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Same packets under --min-shards 2 → degraded success (4), with
    // the moments still written.
    let out = bmf()
        .args(["merge", "--threads", "1", "--min-shards", "2"])
        .arg("--packet")
        .arg(dir.path("p0.json"))
        .arg("--packet")
        .arg(dir.path("p2.json"))
        .arg("--out")
        .arg(dir.path("degraded.csv"))
        .output()
        .unwrap();
    assert_eq!(
        exit_code(&out),
        4,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::path::Path::new(&dir.path("degraded.csv")).exists());

    // --strict upgrades the degraded merge to a refusal (3).
    let out = bmf()
        .args(["merge", "--threads", "1", "--min-shards", "2", "--strict"])
        .arg("--packet")
        .arg(dir.path("p0.json"))
        .arg("--packet")
        .arg(dir.path("p2.json"))
        .output()
        .unwrap();
    assert_eq!(
        exit_code(&out),
        3,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Bad flags → usage error (2).
    let out = bmf()
        .args(["merge", "--min-shards", "zero"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 2);
    let out = bmf()
        .args([
            "shard",
            "--circuit",
            "opamp",
            "--n-early",
            "35",
            "--n-late",
            "14",
            "--index",
            "9/3",
            "--out",
        ])
        .arg(dir.path("x.json"))
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 2);
    // A fault rate that is not finite and in [0, 1) is refused before any
    // die is simulated, whether or not it would inject anything; at 1
    // every draw would fail, as `bmf shard` already refused.
    for rate in ["nan", "-0.5", "1"] {
        let out = bmf()
            .args(["generate", "--circuit", "opamp", "--stage", "schematic"])
            .args(["--samples", "3", "--fault-rate", rate, "--out"])
            .arg(dir.path("g.csv"))
            .output()
            .unwrap();
        assert_eq!(exit_code(&out), 2, "--fault-rate {rate}");
        assert!(!std::path::Path::new(&dir.path("g.csv")).exists());
    }
}

#[test]
fn cli_unusable_fixed_hyper_parameters_are_usage_errors() {
    let dir = TempDir::new("fixed-hypers");
    let out = shard_cmd(&dir, 0, 1, "p0.json").output().unwrap();
    assert_eq!(exit_code(&out), 0);
    let merge = |kappa0: &str, nu0: &str, strict: bool| {
        let mut cmd = bmf();
        cmd.args(["merge", "--threads", "1", "--kappa0", kappa0, "--nu0", nu0]);
        if strict {
            cmd.arg("--strict");
        }
        cmd.arg("--packet")
            .arg(dir.path("p0.json"))
            .arg("--out")
            .arg(dir.path("m.csv"))
            .output()
            .unwrap()
    };
    // κ₀ must be finite and positive, ν₀ finite and above d = 5: each
    // violation names its flag, exits 2 and writes nothing, in degrade
    // and strict mode alike.
    for (kappa0, nu0, flag) in [
        ("nan", "10", "--kappa0"),
        ("-1", "10", "--kappa0"),
        ("5", "inf", "--nu0"),
        ("1", "3", "--nu0"),
    ] {
        for strict in [false, true] {
            let out = merge(kappa0, nu0, strict);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                exit_code(&out),
                2,
                "{kappa0}/{nu0} strict={strict}: {stderr}"
            );
            assert!(stderr.contains(flag), "{kappa0}/{nu0}: {stderr}");
            assert!(!std::path::Path::new(&dir.path("m.csv")).exists());
        }
    }
    let out = merge("1", "10", true);
    assert_eq!(
        exit_code(&out),
        0,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::path::Path::new(&dir.path("m.csv")).exists());
}

#[test]
fn cli_report_write_is_atomic_and_complete() {
    let dir = TempDir::new("atomic-report");
    let out = shard_cmd(&dir, 0, 1, "p0.json").output().unwrap();
    assert_eq!(exit_code(&out), 0);

    // Pre-existing garbage at the destination must be replaced by a
    // complete document — written via temp + rename, so a reader never
    // sees a prefix and no temp file survives.
    std::fs::write(dir.path("report.json"), "GARBAGE PREFIX").unwrap();
    let out = bmf()
        .args(["merge", "--threads", "1"])
        .arg("--packet")
        .arg(dir.path("p0.json"))
        .arg("--report")
        .arg(dir.path("report.json"))
        .arg("--out")
        .arg(dir.path("m.csv"))
        .output()
        .unwrap();
    assert_eq!(
        exit_code(&out),
        0,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report = std::fs::read_to_string(dir.path("report.json")).unwrap();
    assert!(report.starts_with('{') && report.trim_end().ends_with('}'));
    assert!(
        report.contains("\"shard\""),
        "report carries shard coverage"
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir.0)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
}

// ---------------------------------------------------------------------------
// Golden CLI digests
// ---------------------------------------------------------------------------

/// FNV-1a of every artifact of one fixed-seed CLI sequence: both
/// `bmf generate` stages, `bmf estimate --report`, a 3-way `bmf shard`
/// and `bmf merge --report`. Reports are hashed without `run_id` (the
/// estimate's id hashes its input paths) and `timings_ns` (wall clock).
/// A mismatch means a command now writes different bits; re-baseline
/// only on purpose.
const GOLDEN_DIGESTS: &[(&str, u64)] = &[
    ("early.csv", 0x2B66_1B52_73F8_0029),
    ("late.csv", 0x17AC_906C_3310_D914),
    ("estimate.csv", 0x4913_AF41_CE9B_ED04),
    ("estimate.json", 0x35AC_03DC_6D54_41B1),
    ("p0.json", 0xD726_940B_5975_F632),
    ("p1.json", 0xB263_D98B_195D_2791),
    ("p2.json", 0xC472_6A13_D16F_F1F0),
    ("merge.csv", 0x70B9_9A01_4C95_326B),
    ("merge.json", 0x1DBA_F85B_CBAE_C3AE),
];

/// `json` without the member `"key":value` and the comma after it. The
/// value must be a scalar or an object without nested objects, which is
/// what `run_id` and `timings_ns` are in a report.
fn without_member(json: &str, key: &str) -> String {
    let start = json
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("report has no {key}"));
    let value = start + key.len() + 3;
    let mut end = value
        + if json[value..].starts_with('{') {
            json[value..].find('}').expect("object closes") + 1
        } else {
            json[value..].find([',', '}']).expect("member ends")
        };
    if json[end..].starts_with(',') {
        end += 1;
    }
    format!("{}{}", &json[..start], &json[end..])
}

#[test]
fn cli_outputs_match_golden_digests() {
    let dir = TempDir::new("golden");
    let run = |cmd: &mut Command| {
        let out = cmd.output().unwrap();
        assert_eq!(
            exit_code(&out),
            0,
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    for (stage, samples, seed, out) in [
        ("schematic", "40", "3", "early.csv"),
        ("postlayout", "12", "4", "late.csv"),
    ] {
        run(bmf()
            .args(["generate", "--circuit", "opamp", "--stage", stage])
            .args(["--samples", samples, "--seed", seed, "--threads", "2"])
            .arg("--out")
            .arg(dir.path(out)));
    }
    let estimate = |out: &str| {
        let mut cmd = bmf();
        cmd.args(["estimate", "--threads", "2", "--early"])
            .arg(dir.path("early.csv"))
            .arg("--late")
            .arg(dir.path("late.csv"))
            .arg("--out")
            .arg(dir.path(out));
        cmd
    };
    run(estimate("estimate.csv")
        .arg("--report")
        .arg(dir.path("estimate.json")));
    // Without --report, estimate runs the same pipeline and writes the
    // same moments.
    run(&mut estimate("plain.csv"));
    let read = |name: &str| std::fs::read(dir.path(name)).unwrap();
    assert_eq!(read("plain.csv"), read("estimate.csv"), "plain estimate");
    let mut merge = bmf();
    merge.args(["merge", "--threads", "2"]);
    for i in 0..3 {
        let packet = format!("p{i}.json");
        run(&mut shard_cmd(&dir, i, 3, &packet));
        merge.arg("--packet").arg(dir.path(&packet));
    }
    run(merge
        .arg("--report")
        .arg(dir.path("merge.json"))
        .arg("--out")
        .arg(dir.path("merge.csv")));

    let actual: Vec<(&str, u64)> = GOLDEN_DIGESTS
        .iter()
        .map(|&(name, _)| {
            let mut text = std::fs::read_to_string(dir.path(name)).unwrap();
            if name == "estimate.json" || name == "merge.json" {
                text = without_member(&without_member(&text, "run_id"), "timings_ns");
            }
            (name, fnv1a(text.as_bytes()))
        })
        .collect();
    assert_eq!(actual, GOLDEN_DIGESTS, "a CLI output changed its bits");
}
