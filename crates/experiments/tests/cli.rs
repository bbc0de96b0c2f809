//! CLI contract tests for the `repro` binary.
//!
//! These spawn the real binary (cargo points at it via
//! `CARGO_BIN_EXE_repro`), so they pin the exit codes and error output the
//! CI scripts and REPRODUCING.md rely on.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_subcommand_lists_the_registry_and_exits_2() {
    let output = repro()
        .arg("not-an-experiment")
        .output()
        .expect("spawn repro");
    assert_eq!(output.status.code(), Some(2), "unknown experiment exits 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown experiment"),
        "names the problem: {stderr}"
    );
    // Every registered subcommand appears in the error message, the grid
    // workloads included.
    for subcommand in [
        "all", "matrix", "campaign", "service", "defend", "sweep", "load", "audit", "tab1", "fig2",
        "sampling",
    ] {
        assert!(
            stderr.contains(subcommand),
            "error must list {subcommand:?}: {stderr}"
        );
    }
}

#[test]
fn missing_experiment_prints_usage_and_exits_2() {
    let output = repro().output().expect("spawn repro");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(stderr.contains("service"), "usage lists service: {stderr}");
    assert!(stderr.contains("sweep"), "usage lists sweep: {stderr}");
}

#[test]
fn help_exits_0_on_stdout() {
    let output = repro().arg("--help").output().expect("spawn repro");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("usage: repro"), "{stdout}");
}

#[test]
fn same_seed_regenerates_bit_identical_csvs() {
    let scratch = std::env::temp_dir().join(format!("repro-seed-test-{}", std::process::id()));
    let (dir_a, dir_b) = (scratch.join("a"), scratch.join("b"));
    for dir in [&dir_a, &dir_b] {
        let output = repro()
            .args(["fig2", "--scale", "bench", "--seed", "41", "--out"])
            .arg(dir)
            .output()
            .expect("spawn repro");
        assert!(
            output.status.success(),
            "repro fig2 failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let csv_a = std::fs::read(dir_a.join("fig2-figure0.csv")).expect("first CSV");
    let csv_b = std::fs::read(dir_b.join("fig2-figure0.csv")).expect("second CSV");
    assert!(!csv_a.is_empty());
    assert_eq!(
        csv_a, csv_b,
        "--seed pins every random stream: identical invocations must \
         regenerate byte-identical CSVs"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn same_seed_regenerates_bit_identical_load_csvs() {
    // The load grid adds its own RNG streams (hot keys, arrivals) on top
    // of the shared harness streams; this pins that the determinism
    // contract survives the traffic engine — both output CSVs, byte for
    // byte. Runs just the cheapest slice of the machinery by reusing the
    // bench scale the smoke CI job uses.
    let scratch = std::env::temp_dir().join(format!("repro-load-seed-{}", std::process::id()));
    let (dir_a, dir_b) = (scratch.join("a"), scratch.join("b"));
    for dir in [&dir_a, &dir_b] {
        let output = repro()
            .args(["load", "--scale", "bench", "--seed", "23", "--out"])
            .arg(dir)
            .output()
            .expect("spawn repro");
        assert!(
            output.status.success(),
            "repro load failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    for name in ["load-timeseries.csv", "load-summary.csv"] {
        let csv_a = std::fs::read(dir_a.join(name)).expect("first CSV");
        let csv_b = std::fs::read(dir_b.join(name)).expect("second CSV");
        assert!(!csv_a.is_empty(), "{name} is empty");
        assert_eq!(
            csv_a, csv_b,
            "{name}: same seed must regenerate byte-identical output"
        );
    }
    // The summary carries the headline column the CI smoke job greps for.
    let summary = std::fs::read_to_string(dir_a.join("load-summary.csv")).expect("summary");
    assert!(
        summary
            .lines()
            .next()
            .is_some_and(|h| h.contains("attack_p99_ms")),
        "summary header carries p99 columns: {summary}"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn jobs_count_never_changes_a_byte_of_sweep_or_load_output() {
    // `--jobs` only decides which worker thread runs which cell: every
    // CSV and, under `--observe`, the determinism hash chain must be
    // byte-identical at 1 and 4 workers. The two cheapest grids keep the
    // test in CI-smoke territory.
    let scratch = std::env::temp_dir().join(format!("repro-jobs-test-{}", std::process::id()));
    for (grid, csvs) in [
        ("sweep", &["sweep-timeseries.csv"][..]),
        ("load", &["load-timeseries.csv", "load-summary.csv"][..]),
    ] {
        let run = |jobs: &str| {
            let out = scratch.join(format!("{grid}-jobs{jobs}"));
            let observe = scratch.join(format!("{grid}-jobs{jobs}-observe"));
            let output = repro()
                .args([grid, "--scale", "bench", "--seed", "7", "--jobs", jobs])
                .arg("--out")
                .arg(&out)
                .arg("--observe")
                .arg(&observe)
                .output()
                .expect("spawn repro");
            assert!(
                output.status.success(),
                "repro {grid} --jobs {jobs} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            (out, observe)
        };
        let (out_1, observe_1) = run("1");
        let (out_4, observe_4) = run("4");
        for name in csvs {
            let serial = std::fs::read(out_1.join(name)).expect("--jobs 1 CSV");
            let parallel = std::fs::read(out_4.join(name)).expect("--jobs 4 CSV");
            assert!(!serial.is_empty(), "{name} is empty");
            assert_eq!(serial, parallel, "{name} differs between --jobs 1 and 4");
        }
        let chain_1 = std::fs::read(observe_1.join("audit-chain.csv")).expect("chain");
        let chain_4 = std::fs::read(observe_4.join("audit-chain.csv")).expect("chain");
        assert!(!chain_1.is_empty());
        assert_eq!(
            chain_1, chain_4,
            "{grid}: audit chain differs between --jobs 1 and 4"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn observe_artifacts_are_deterministic_and_audit_reports_divergence() {
    // Two same-seed observed runs must produce byte-identical audit
    // chains (`repro audit` exits 0); a third run at a different seed
    // must diverge, and the report must name the first divergent
    // (cell, minute) in parseable form. Uses the campaign grid at bench
    // scale — the cheapest journal-bearing grid — so the whole test
    // stays in CI-smoke territory.
    let scratch = std::env::temp_dir().join(format!("repro-observe-test-{}", std::process::id()));
    let dirs = [scratch.join("a"), scratch.join("b"), scratch.join("c")];
    for (dir, seed) in dirs.iter().zip(["61", "61", "62"]) {
        let output = repro()
            .args(["campaign", "--scale", "bench", "--seed", seed, "--observe"])
            .arg(dir)
            .output()
            .expect("spawn repro");
        assert!(
            output.status.success(),
            "repro campaign --observe failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        for artifact in [
            "run-manifest.json",
            "profile.csv",
            "audit-chain.csv",
            "metrics.prom",
        ] {
            assert!(dir.join(artifact).is_file(), "{artifact} written");
        }
    }
    let chain_a = std::fs::read(dirs[0].join("audit-chain.csv")).expect("chain a");
    let chain_b = std::fs::read(dirs[1].join("audit-chain.csv")).expect("chain b");
    assert!(!chain_a.is_empty());
    assert_eq!(
        chain_a, chain_b,
        "same seed must regenerate a byte-identical audit chain"
    );

    let clean = repro()
        .arg("audit")
        .args([&dirs[0], &dirs[1]])
        .output()
        .expect("spawn repro audit");
    assert_eq!(clean.status.code(), Some(0), "same-seed audit exits 0");
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(stdout.contains("zero divergence"), "{stdout}");

    let diverged = repro()
        .arg("audit")
        .args([&dirs[0], &dirs[2]])
        .output()
        .expect("spawn repro audit");
    assert_eq!(diverged.status.code(), Some(1), "divergent audit exits 1");
    let stdout = String::from_utf8_lossy(&diverged.stdout);
    assert!(
        stdout.contains("first divergence at cell=") && stdout.contains(" minute="),
        "parseable divergence report: {stdout}"
    );

    // Usage errors are distinct from divergence: exit 2.
    let usage = repro().arg("audit").output().expect("spawn repro audit");
    assert_eq!(usage.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn usage_documents_the_defend_grid_and_seed_flag() {
    let output = repro().arg("--help").output().expect("spawn repro");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("defend"), "usage lists defend: {stdout}");
    assert!(
        stdout.contains("--seed"),
        "usage documents --seed: {stdout}"
    );
    let jobs_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("--jobs"))
        .expect("usage documents --jobs");
    assert!(
        jobs_line.contains("load"),
        "--jobs applies to the load grid too: {jobs_line}"
    );
}

#[test]
fn bad_flag_exits_2() {
    for (args, problem) in [
        (["service", "--scale", "galaxy"], "unknown scale"),
        (["load", "--jobs", "0"], "bad job count"),
    ] {
        let output = repro().args(args).output().expect("spawn repro");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(problem), "{args:?}: {stderr}");
    }
}

#[test]
fn unusable_output_dir_exits_1_before_any_cell_runs() {
    // A directory cannot be created under a regular file, so both output
    // flags must fail up front instead of after the whole grid.
    let file = std::env::temp_dir().join(format!("repro-out-file-{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("temp file");
    for flag in ["--out", "--observe"] {
        let output = repro()
            .args(["load", "--scale", "bench", flag])
            .arg(file.join("x"))
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains("error writing"), "{flag}: {stderr}");
        assert!(!stderr.contains("[1/"), "{flag}: a cell ran: {stderr}");
    }
    let _ = std::fs::remove_file(&file);
}
