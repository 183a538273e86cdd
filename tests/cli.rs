//! End-to-end tests of the `rotsched` command-line tool.

use std::process::Command;

fn fixture(name: &str) -> String {
    format!(
        "{}/crates/benchmarks/fixtures/{name}.dfg",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn run(args: &[&str]) -> (String, String, bool) {
    let (stdout, stderr, code) = run_code(args);
    (stdout, stderr, code == 0)
}

/// Like [`run`] but exposes the exact exit code, for the budget and
/// degradation codes (3 and 4) that are failures to a shell but carry
/// meaning here.
fn run_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_rotsched"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("not killed by a signal"),
    )
}

#[test]
fn analyze_reports_characteristics() {
    let (stdout, _, ok) = run(&["analyze", &fixture("differential-equation")]);
    assert!(ok);
    assert!(stdout.contains("critical path: 7"));
    assert!(stdout.contains("iteration bound: 6"));
}

#[test]
fn solve_prints_kernel_and_verifies() {
    let (stdout, _, ok) = run(&[
        "solve",
        &fixture("differential-equation"),
        "--adders",
        "1",
        "--mults",
        "2",
        "--verify",
        "10",
    ]);
    assert!(ok);
    assert!(stdout.contains("kernel: 6 control steps"));
    assert!(stdout.contains("verified over 10 iterations"));
}

#[test]
fn compare_lists_all_baselines() {
    let (stdout, _, ok) = run(&["compare", &fixture("2-cascaded-biquad-filter")]);
    assert!(ok);
    for label in [
        "lower bound",
        "DAG list schedule",
        "retime-then-sched",
        "unfold x4",
        "modulo scheduling",
        "rotation scheduling",
    ] {
        assert!(stdout.contains(label), "missing {label}: {stdout}");
    }
}

#[test]
fn pipelined_flag_changes_the_result() {
    let base = &fixture("differential-equation");
    let (plain, _, _) = run(&["solve", base, "--adders", "1", "--mults", "1"]);
    let (pipelined, _, _) = run(&[
        "solve",
        base,
        "--adders",
        "1",
        "--mults",
        "1",
        "--pipelined",
    ]);
    assert!(plain.contains("kernel: 12"));
    assert!(pipelined.contains("kernel: 6"));
}

#[test]
fn missing_file_fails_cleanly() {
    let (_, stderr, ok) = run(&["analyze", "/nonexistent.dfg"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn unknown_flag_shows_usage() {
    let (_, stderr, ok) = run(&["solve", &fixture("differential-equation"), "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

/// A zero-rotation budget trips deterministically before the first
/// down-rotation: the initial list schedule is the incumbent, it is
/// still printed (and verifiable), and the exit code is 3.
#[test]
fn zero_rotation_budget_exits_with_code_3_and_a_legal_kernel() {
    let (stdout, _, code) = run_code(&[
        "solve",
        &fixture("differential-equation"),
        "--max-rotations",
        "0",
        "--verify",
        "4",
    ]);
    assert_eq!(code, 3, "budget exhaustion must use exit code 3: {stdout}");
    assert!(stdout.contains("kernel:"), "no incumbent printed: {stdout}");
    assert!(
        stdout.contains(
            "quality: budget-exhausted (0 rotations, stopped: rotation budget exhausted)"
        ),
        "missing quality line: {stdout}"
    );
    assert!(
        stdout.contains("verified over 4 iterations"),
        "the incumbent must still verify: {stdout}"
    );
}

/// An already-expired deadline behaves like a zero rotation budget:
/// deterministic exit 3 with the initial incumbent.
#[test]
fn expired_deadline_exits_with_code_3_and_a_legal_kernel() {
    let (stdout, _, code) = run_code(&[
        "solve",
        &fixture("2-cascaded-biquad-filter"),
        "--deadline-ms",
        "0",
        "--verify",
        "4",
    ]);
    assert_eq!(code, 3, "expired deadline must use exit code 3: {stdout}");
    assert!(stdout.contains("kernel:"), "no incumbent printed: {stdout}");
    assert!(
        stdout.contains("stopped: deadline expired"),
        "missing stop reason: {stdout}"
    );
    assert!(stdout.contains("verified over 4 iterations"), "{stdout}");
}

/// A generous deadline either finishes (0) or stops with a legal
/// incumbent (3) — never crashes, never prints an unverifiable result.
#[test]
fn deadline_solve_always_yields_a_verified_kernel() {
    let (stdout, stderr, code) = run_code(&[
        "solve",
        &fixture("5th-order-elliptic-filter"),
        "--deadline-ms",
        "50",
        "--verify",
        "4",
    ]);
    assert!(
        code == 0 || code == 3,
        "unexpected exit {code}: {stdout}{stderr}"
    );
    assert!(stdout.contains("kernel:"), "{stdout}");
    assert!(stdout.contains("verified over 4 iterations"), "{stdout}");
}

/// Unlimited solves are unaffected by the budget plumbing: exit 0 and a
/// quality verdict on stdout.
#[test]
fn unbudgeted_solve_reports_quality_and_exits_zero() {
    let (stdout, _, code) = run_code(&[
        "solve",
        &fixture("differential-equation"),
        "--adders",
        "1",
        "--mults",
        "2",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("quality: optimal") || stdout.contains("quality: complete"),
        "missing quality verdict: {stdout}"
    );
    assert!(!stdout.contains("stopped:"), "{stdout}");
}

/// The verdict reads the length criterion alone: a lexicographic
/// objective's portfolio solve at the lower bound is optimal, exactly
/// as the single sweep at `--jobs 1` reports it.
#[test]
fn lexicographic_portfolio_solve_at_the_bound_is_optimal() {
    let (stdout, _, ok) = run(&[
        "solve",
        &fixture("differential-equation"),
        "--adders",
        "2",
        "--mults",
        "2",
        "--objective",
        "length,regs",
        "--jobs",
        "2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("(lower bound 6)"), "{stdout}");
    assert!(stdout.contains("kernel: 6 control steps"), "{stdout}");
    assert!(stdout.contains("\nquality: optimal ("), "{stdout}");
}

#[test]
fn empty_resource_spec_is_rejected() {
    let (_, stderr, code) = run_code(&[
        "solve",
        &fixture("differential-equation"),
        "--adders",
        "0",
        "--mults",
        "0",
    ]);
    assert_eq!(code, 1);
    assert!(stderr.contains("invalid resource spec"), "{stderr}");
}

#[test]
fn non_numeric_flag_value_shows_the_offending_token() {
    let (_, stderr, code) = run_code(&[
        "solve",
        &fixture("differential-equation"),
        "--max-rotations",
        "banana",
    ]);
    assert_eq!(code, 2, "bad flag values are usage errors");
    assert!(
        stderr.contains("--max-rotations") && stderr.contains("banana"),
        "{stderr}"
    );
}

#[test]
fn flag_missing_its_value_shows_usage() {
    let (_, stderr, code) =
        run_code(&["solve", &fixture("differential-equation"), "--deadline-ms"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("needs a numeric argument"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn non_utf8_input_fails_cleanly() {
    let dir = std::env::temp_dir().join("rotsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("binary.dfg");
    std::fs::write(&path, [0xFFu8, 0xFE, 0x00, 0x01, 0x80]).unwrap();
    let (_, stderr, code) = run_code(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn malformed_input_reports_the_line() {
    let dir = std::env::temp_dir().join("rotsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.dfg");
    std::fs::write(&path, "dfg g\nnode a add\n").unwrap();
    let (_, stderr, ok) = run(&["analyze", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"));
}

#[test]
fn lint_passes_clean_fixtures_with_exit_0() {
    let (stdout, _, code) = run_code(&["lint", &fixture("differential-equation")]);
    assert_eq!(code, 0);
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn lint_reports_errors_with_exit_5() {
    // Zero adder units with adder-class operations present: E005.
    let (stdout, _, code) = run_code(&[
        "lint",
        &fixture("differential-equation"),
        "--adders",
        "0",
        "--mults",
        "1",
    ]);
    assert_eq!(code, 5, "lint errors exit with code 5");
    assert!(stdout.contains("E005"), "{stdout}");
}

#[test]
fn lint_json_is_machine_readable_and_stable() {
    let args = [
        "lint",
        &fixture("differential-equation"),
        "--adders",
        "0",
        "--mults",
        "1",
        "--format",
        "json",
    ];
    let (first, _, code) = run_code(&args);
    let (second, _, _) = run_code(&args);
    assert_eq!(code, 5);
    assert_eq!(first, second, "lint JSON must be byte-stable");
    assert!(first.trim_start().starts_with('['), "{first}");
    assert!(first.contains("\"code\":\"E005\""), "{first}");
    assert!(first.contains("\"severity\":\"error\""), "{first}");
}

#[test]
fn solve_certify_passes_on_fixtures() {
    let (stdout, _, code) = run_code(&[
        "solve",
        &fixture("differential-equation"),
        "--adders",
        "1",
        "--mults",
        "2",
        "--certify",
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("certified:"), "{stdout}");
}

#[test]
fn solve_certify_json_emits_the_certificate() {
    let (stdout, _, code) = run_code(&[
        "solve",
        &fixture("differential-equation"),
        "--adders",
        "1",
        "--mults",
        "2",
        "--certify",
        "--format",
        "json",
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("\"kernel_length\":6"), "{stdout}");
    assert!(stdout.contains("\"proves_optimal\":true"), "{stdout}");
}

#[test]
fn bad_format_value_is_a_usage_error() {
    let (_, stderr, code) = run_code(&[
        "lint",
        &fixture("differential-equation"),
        "--format",
        "yaml",
    ]);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("--format") && stderr.contains("yaml"),
        "{stderr}"
    );
}

#[test]
fn analyze_json_is_byte_stable_across_runs() {
    let file = fixture("differential-equation");
    let args = ["analyze", &file, "--format", "json"];
    let (first, _, code) = run_code(&args);
    let (second, _, _) = run_code(&args);
    assert_eq!(code, 0);
    assert_eq!(first, second, "analysis JSON must be byte-stable");
    // `--jobs` is a solver knob; the analysis must not see it.
    let (jobs8, _, _) = run_code(&["analyze", &file, "--format", "json", "--jobs", "8"]);
    assert_eq!(first, jobs8, "--jobs must not reach the analysis bytes");
    assert!(
        first.starts_with("{\"schema\":\"rotsched-analysis-v1\""),
        "{first}"
    );
    assert!(first.contains("\"code\":\"A001\""), "{first}");
}

/// A multiplier-only recurrence: clean even under `--adders 0`, while
/// the adder-bearing fixtures raise `E005` there — the mix that shows
/// worst-of exit aggregation.
fn muls_only_file() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rotsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("muls-only.dfg");
    std::fs::write(
        &path,
        "dfg muls-only\nnode a mul 2\nnode b mul 2\nedge a b 1\nedge b a 1\n",
    )
    .unwrap();
    path
}

#[test]
fn analyze_takes_several_files_and_exits_with_the_worst() {
    let clean = muls_only_file();
    let failing = fixture("differential-equation");
    // Alone, the mult-only graph is clean under these flags.
    let (_, _, code) = run_code(&["analyze", clean.to_str().unwrap(), "--adders", "0"]);
    assert_eq!(code, 0);
    // Both reports print; the failing file's exit code wins either way.
    let (stdout, _, code) = run_code(&[
        "analyze",
        clean.to_str().unwrap(),
        &failing,
        "--adders",
        "0",
    ]);
    assert_eq!(code, 5, "worst exit code wins: {stdout}");
    assert!(stdout.contains("muls-only"), "{stdout}");
    assert!(stdout.contains("differential-equation"), "{stdout}");
    let (_, _, code) = run_code(&[
        "analyze",
        &failing,
        clean.to_str().unwrap(),
        "--adders",
        "0",
    ]);
    assert_eq!(code, 5, "order must not matter");
}

#[test]
fn lint_takes_several_files_and_exits_with_the_worst() {
    let clean = muls_only_file();
    let failing = fixture("differential-equation");
    let (stdout, _, code) = run_code(&["lint", clean.to_str().unwrap(), &failing, "--adders", "0"]);
    assert_eq!(code, 5, "worst exit code wins: {stdout}");
    assert!(stdout.contains("E005"), "{stdout}");
    let (_, _, code) = run_code(&["lint", &failing, clean.to_str().unwrap(), "--adders", "0"]);
    assert_eq!(code, 5, "order must not matter");
    // An unreadable path escalates a clean run to exit 1.
    let (_, _, code) = run_code(&["lint", clean.to_str().unwrap(), "/nonexistent.dfg"]);
    assert_eq!(code, 1, "read failures still aggregate");
}

#[test]
fn solve_analyze_extends_plain_solve_byte_for_byte() {
    let file = fixture("differential-equation");
    let base = ["solve", &file, "--adders", "1", "--mults", "2"];
    let (plain, _, ok) = run(&base);
    assert!(ok);
    let mut with_analysis = base.to_vec();
    with_analysis.push("--analyze");
    let (analyzed, _, ok) = run(&with_analysis);
    assert!(ok);
    assert!(
        analyzed.starts_with(&plain),
        "plain solve output must be a byte prefix of --analyze output:\n{plain}\nvs\n{analyzed}"
    );
    assert!(analyzed.len() > plain.len());
    assert!(analyzed.contains("iteration bound"), "{analyzed}");
}

/// The rotation count `T` a solve reports on its `quality:` line.
fn reported_rotations(stdout: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("quality:"))
        .unwrap_or_else(|| panic!("no quality line: {stdout}"));
    let count = line.split('(').nth(1).and_then(|s| s.split(' ').next());
    count
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no rotation count: {line}"))
}

/// A budget stops a search only where a rotation would otherwise run: a
/// rotation budget of exactly the `T` rotations the unlimited solve
/// performs reproduces every byte of it (trace included, so no
/// `Stopped` event), while `T − 1` is a real stop.
#[test]
fn a_budget_of_exactly_the_needed_rotations_is_not_a_stop() {
    let specs: [&[&str]; 3] = [
        &["--adders", "2", "--mults", "2"],
        &["--adders", "1", "--mults", "1"],
        &["--adders", "2", "--mults", "1", "--pipelined"],
    ];
    for name in [
        "2-cascaded-biquad-filter",
        "4-stage-lattice-filter",
        "5th-order-elliptic-filter",
        "all-pole-lattice-filter",
        "differential-equation",
    ] {
        for spec in specs {
            let path = fixture(name);
            let solve = |budget: Option<u64>| {
                let mut args = vec!["solve", path.as_str(), "--trace=json"];
                args.extend_from_slice(spec);
                let budget = budget.map(|k| k.to_string());
                if let Some(k) = &budget {
                    args.extend(["--max-rotations", k.as_str()]);
                }
                run_code(&args)
            };
            let (unlimited, _, code) = solve(None);
            assert_eq!(code, 0, "{name} {spec:?}: {unlimited}");
            let t = reported_rotations(&unlimited);
            assert!(t > 0, "{name} {spec:?}");
            let (at_t, _, code) = solve(Some(t));
            assert_eq!(code, 0, "{name} {spec:?} at k = {t}");
            assert_eq!(at_t, unlimited, "{name} {spec:?} at k = {t}");
            let (below, _, code) = solve(Some(t - 1));
            assert_eq!(code, 3, "{name} {spec:?} at k = {}", t - 1);
            assert!(
                below.contains(&format!(
                    "quality: budget-exhausted ({} rotations, stopped: rotation budget exhausted)",
                    t - 1
                )),
                "{name} {spec:?} at k = {}: {below}",
                t - 1
            );
        }
    }
}
