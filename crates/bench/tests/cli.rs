//! The bench binaries refuse what their grammar does not declare, and a
//! figure bin fails when it cannot write what it was asked to.
//!
//! Each bin parses through `bmf_obs::cli`: an unknown flag, a flag
//! without its value, a repeated single-valued flag and a malformed
//! value each exit 2 before any simulation, name the flag on stderr and
//! leave no output file.

use std::process::Command;

/// Runs `bin` on `args`, split at spaces, in a fresh directory (`DIR`
/// in `args` names it), and asserts exit 2, `flag` named on stderr and
/// the directory still empty.
fn assert_refused(bin: &str, args: &str, flag: &str) {
    let name = bin.rsplit(['/', '\\']).next().unwrap_or(bin);
    let dir = std::env::temp_dir().join(format!("bmf-bench-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let args = args.replace("DIR", dir.to_str().unwrap());
    let out = Command::new(bin)
        .args(args.split_whitespace())
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args}: {stderr}");
    assert!(
        stderr.contains(flag),
        "{name} {args}: must name {flag}: {stderr}"
    );
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "{name} {args} wrote {written:?}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn study_bins_refuse_bad_flags_before_simulating() {
    let figures = [
        env!("CARGO_BIN_EXE_fig4_opamp"),
        env!("CARGO_BIN_EXE_fig5_adc"),
    ];
    for bin in figures.into_iter().chain([env!("CARGO_BIN_EXE_ablations")]) {
        for (args, flag) in [
            ("--quick --quikc", "--quikc"),
            ("--quick --threads", "--threads"),
            ("--quick --threads 1 --threads 2", "--threads"),
            ("--quick --threads 0", "--threads"),
            ("--quick --threads abc", "--threads"),
            ("--quick --fault-rate abc", "--fault-rate"),
            ("--quick --fault-rate nan", "--fault-rate"),
            ("--quick --fault-rate -0.5", "--fault-rate"),
            ("--quick --fault-rate 1", "--fault-rate"),
            ("--quick --trace-out DIR/t.json --threads=2", "--threads=2"),
            ("--quick --log-level loud", "--log-level"),
            ("--quick stray", "stray"),
        ] {
            assert_refused(bin, args, flag);
        }
    }
    for bin in figures {
        assert_refused(bin, "--quick --svg", "--svg");
        assert_refused(bin, "--quick --svg DIR/a --svg DIR/b", "--svg");
    }
    // The ablations draw no figure.
    assert_refused(env!("CARGO_BIN_EXE_ablations"), "--quick --svg p", "--svg");
}

#[test]
fn tool_bins_refuse_bad_flags() {
    let parallel = env!("CARGO_BIN_EXE_bench_parallel");
    let history = env!("CARGO_BIN_EXE_bench_history");
    let overhead = env!("CARGO_BIN_EXE_obs_overhead");
    let check = env!("CARGO_BIN_EXE_trace_check");
    for (bin, args, flag) in [
        (parallel, "--quick --out DIR/o.json --ot x", "--ot"),
        (parallel, "--quick --out", "--out"),
        (parallel, "--quick --quick --out DIR/o.json", "--quick"),
        (history, "--quick --file DIR/h.json --no-chek", "--no-chek"),
        (history, "--quick --file", "--file"),
        (history, "--file DIR/h.json --file DIR/h.json", "--file"),
        (history, "--file DIR/h.json --threads 0", "--threads"),
        (history, "--file DIR/h.json --threads two", "--threads"),
        (overhead, "--budget-percnt 1", "--budget-percnt"),
        (overhead, "--budget-percent", "--budget-percent"),
        (
            overhead,
            "--budget-percent 1 --budget-percent 9",
            "--budget-percent",
        ),
        (overhead, "--budget-percent abc", "--budget-percent"),
        (overhead, "--budget-percent 0", "--budget-percent"),
        (overhead, "--budget-percent nan", "--budget-percent"),
        (overhead, "--trace-out DIR/t.json", "--trace-out"),
        (
            check,
            "--metrics DIR/m.json --expect-countr x",
            "--expect-countr",
        ),
        (check, "--metrics", "--metrics"),
        (check, "--metrics DIR/m --metrics DIR/m", "--metrics"),
        (
            check,
            "--dashboard DIR/d --expect-health fine",
            "--expect-health",
        ),
        (check, "--expect-counter x", "usage"),
    ] {
        assert_refused(bin, args, flag);
    }
}

#[test]
fn unwritable_svg_prefix_fails_the_figure_run() {
    // The figure is still printed and the telemetry flushed; then the
    // run exits 1, and no panel exists anywhere.
    let dir = std::env::temp_dir().join(format!("bmf-bench-cli-svg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fig5_adc"))
        .args(["--quick", "--threads", "1", "--svg"])
        .arg(dir.join("missing").join("fig5"))
        .arg("--metrics-out")
        .arg(dir.join("m.json"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed to write"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with(bmf_bench::FIG5.banner), "{stdout}");
    assert!(
        stdout.contains("CV-selected hyper-parameters at n = 32"),
        "{stdout}"
    );
    let written: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(written, ["m.json"], "only the metrics are written");
    std::fs::remove_dir_all(dir).unwrap();
}
