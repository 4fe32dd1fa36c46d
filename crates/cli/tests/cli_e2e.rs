//! End-to-end tests of the `pcmax` binary: spawn the real executable and
//! check its stdout/exit codes.

use std::process::Command;

fn pcmax(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pcmax"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn bounds_prints_lb_and_ub() {
    let out = pcmax(&[
        "bounds", "--dist", "U(1,10)", "-m", "2", "-n", "6", "--seed", "1",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("LB=") && stdout.contains("UB="), "{stdout}");
}

#[test]
fn generate_emits_parseable_instance_json() {
    let out = pcmax(&["generate", "--dist", "U(1,100)", "-m", "3", "-n", "7"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let inst: pcmax_core::Instance = pcmax_core::json::from_str(&stdout).unwrap();
    assert_eq!(inst.jobs(), 7);
    assert_eq!(inst.machines(), 3);
}

#[test]
fn solve_reads_instance_from_file() {
    let inst = pcmax_core::Instance::new(vec![5, 4, 3, 2, 1], 2).unwrap();
    let path = std::env::temp_dir().join("pcmax_e2e_solve.json");
    std::fs::write(&path, pcmax_core::json::to_string(&inst)).unwrap();
    let out = pcmax(&[
        "solve",
        "-i",
        path.to_str().unwrap(),
        "--algo",
        "exact",
        "--schedule",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("makespan 8"), "{stdout}"); // 15/2 -> 8
    assert!(stdout.contains("machine 0"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn an_instance_whose_total_wraps_is_an_error() {
    let path = std::env::temp_dir().join("pcmax_e2e_wrapping_total.json");
    std::fs::write(
        &path,
        r#"{"times":[18446744073709551615,18446744073709551615],"machines":1}"#,
    )
    .unwrap();
    let file = path.to_str().unwrap();
    for args in [
        vec!["bounds", "-i", file],
        vec!["solve", "-i", file, "--algo", "lpt"],
        vec!["solve", "-i", file, "--algo", "exact"],
        vec!["solve", "-i", file, "--algo", "par-ptas"],
    ] {
        let out = pcmax(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with("error:") && stderr.contains("overflows u64"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("usage:"), "{args:?}: not a usage error");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is reported");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_flags_fail_with_usage() {
    let out = pcmax(&["solve", "-i", "x.json", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn an_unknown_algorithm_is_an_error_without_usage() {
    let out = pcmax(&[
        "solve", "--dist", "U(1,10)", "-m", "2", "-n", "6", "--algo", "no-such",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.starts_with("error: unknown algorithm no-such"),
        "{stderr}"
    );
    assert!(
        stderr.contains("par-ptas"),
        "lists the known names: {stderr}"
    );
    assert!(!stderr.contains("usage:"), "not a usage error: {stderr}");
}

#[test]
fn missing_command_fails() {
    let out = pcmax(&[]);
    assert!(!out.status.success());
}

#[test]
fn simulate_prints_a_speedup_row_per_proc_count() {
    let out = pcmax(&[
        "simulate", "--dist", "U(1,10)", "-m", "4", "-n", "16", "--procs", "1,2,4",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.lines().count(),
        4, // header + 3 rows
        "{stdout}"
    );
}

#[test]
fn custom_uniform_distribution_roundtrips() {
    let out = pcmax(&["generate", "--dist", "U(7,9)", "-m", "2", "-n", "20"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let inst: pcmax_core::Instance = pcmax_core::json::from_str(&stdout).unwrap();
    assert!(inst.times().iter().all(|&t| (7..=9).contains(&t)));
}

#[test]
fn trace_writes_chrome_json_and_prints_the_summary() {
    let path = std::env::temp_dir().join("pcmax_e2e_trace.json");
    let out = pcmax(&[
        "trace",
        "par-ptas",
        "--dist",
        "U(1,100)",
        "-m",
        "10",
        "-n",
        "40",
        "--eps",
        "0.2",
        "--threads",
        "4",
        "--out",
        path.to_str().unwrap(),
        "--summary",
    ]);
    assert!(out.status.success(), "{:?}", String::from_utf8(out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("makespan"), "{stdout}");
    assert!(stdout.contains("busy%"), "summary table printed: {stdout}");

    let text = std::fs::read_to_string(&path).unwrap();
    let stats = pcmax_trace::chrome::validate(&text).unwrap();
    assert!(stats.events > 0, "trace must not be empty");
    assert!(stats.complete_spans > 0, "spans must close");
    // The acceptance path: bisection probes, wavefront levels and worker
    // chunks all appear in one exported timeline.
    for name in ["\"probe\"", "\"level\"", "\"chunk\""] {
        assert!(text.contains(name), "missing {name} spans in {path:?}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compare_prints_pool_health_columns() {
    let out = pcmax(&["compare", "--dist", "U(1,10)", "-m", "2", "-n", "8"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("busy%"), "{stdout}");
    assert!(stdout.contains("parks"), "{stdout}");
}

#[test]
fn every_registry_name_is_reachable_from_the_command_line() {
    for algo in pcmax_engine::names() {
        let out = pcmax(&[
            "solve", "--dist", "U(1,10)", "-m", "2", "-n", "6", "--algo", algo,
        ]);
        assert!(out.status.success(), "--algo {algo} failed");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("makespan"), "--algo {algo}: {stdout}");
    }
}
