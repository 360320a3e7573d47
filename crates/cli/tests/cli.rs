//! End-to-end tests of the `fgcache` binary, driving it as a subprocess.

use std::process::{Command, Output};

fn fgcache(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fgcache"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("fgcache-cli-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = fgcache(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let out = fgcache(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("two-level"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = fgcache(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn full_pipeline_text_format() {
    let trace = tmp("pipeline.txt");
    let out = fgcache(&[
        "gen",
        "--profile",
        "server",
        "--events",
        "4000",
        "--seed",
        "9",
        "--out",
        &trace,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote 4000 events"));

    let out = fgcache(&["stats", &trace]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("events            4000"));

    let out = fgcache(&["entropy", &trace, "--max-k", "3"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("bits"));

    let out = fgcache(&["simulate", &trace, "--capacity", "200", "--policy", "agg"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("demand fetches"));

    let out = fgcache(&["simulate", &trace, "--capacity", "200", "--policy", "arc"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("arc cache"));

    let out = fgcache(&[
        "simulate",
        &trace,
        "--capacity",
        "200",
        "--clients",
        "4",
        "--shards",
        "2",
        "--filter",
        "50",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("2 shard(s)"), "{text}");
    assert!(text.contains("shard imbalance"), "{text}");
    // The multi-client run is deterministic: a second run reports
    // byte-identical output.
    let again = fgcache(&[
        "simulate",
        &trace,
        "--capacity",
        "200",
        "--clients",
        "4",
        "--shards",
        "2",
        "--filter",
        "50",
    ]);
    assert_eq!(out.stdout, again.stdout);

    // Sharded mode rejects plain policies.
    let out = fgcache(&[
        "simulate",
        &trace,
        "--capacity",
        "200",
        "--clients",
        "2",
        "--policy",
        "lru",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--policy agg"));

    let out = fgcache(&[
        "two-level",
        &trace,
        "--filter",
        "50,150",
        "--server",
        "100",
        "--scheme",
        "g5,lru",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("g5") && text.contains("lru"), "{text}");

    let out = fgcache(&["groups", &trace, "--top", "3"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("relationship graph"));

    std::fs::remove_file(&trace).ok();
}

#[test]
fn binary_format_roundtrips_through_cli() {
    let trace = tmp("pipeline.bin");
    let out = fgcache(&[
        "gen", "--events", "1000", "--seed", "2", "--out", &trace, "--format", "bin",
    ]);
    assert!(out.status.success());
    // Extension-based autodetection.
    let out = fgcache(&["stats", &trace]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("events            1000"));
    // Explicit override also works.
    let out = fgcache(&["stats", &trace, "--format", "bin"]);
    assert!(out.status.success());
    std::fs::remove_file(&trace).ok();
}

#[test]
fn bad_flags_fail_with_messages() {
    let out = fgcache(&["simulate", "/nonexistent", "--capacity", "10"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    let trace = tmp("badflags.txt");
    assert!(fgcache(&["gen", "--events", "100", "--out", &trace])
        .status
        .success());
    let out = fgcache(&["simulate", &trace]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--capacity"));

    let out = fgcache(&["simulate", &trace, "--capacity", "10", "--wat", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    // A removed flag is rejected, not silently ignored.
    let out = fgcache(&[
        "simulate",
        &trace,
        "--capacity",
        "40",
        "--clients",
        "2",
        "--no-fast-path",
        "true",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --no-fast-path"));
    std::fs::remove_file(&trace).ok();
}
