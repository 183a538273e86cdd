//! Golden `rotsched solve --trace` reports.
//!
//! The text trace prints each phase's rotation count and its weight-memo
//! `hit(s)/miss(es)` delta. Replay changes those counters: a rotation or
//! phase replayed from a log runs no step, so it adds no memo lookups.
//! Run-to-run stability alone cannot catch a change in what is replayed,
//! so these reports are pinned byte for byte: the five fixtures at
//! 2A 2M and 1A 2M, biquad at 2A 4M (whose sweep repeats, so later
//! phases are replayed whole), and one portfolio solve.
//!
//! Regenerate the goldens after an intentional change with
//! `ROTSCHED_UPDATE_GOLDEN=1 cargo test --test trace_golden`.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

const FIXTURES: [&str; 5] = [
    "2-cascaded-biquad-filter",
    "4-stage-lattice-filter",
    "5th-order-elliptic-filter",
    "all-pole-lattice-filter",
    "differential-equation",
];

/// `(fixture, adders, multipliers, jobs)` of every pinned solve.
fn cases() -> Vec<(&'static str, u32, u32, u32)> {
    let mut cases: Vec<_> = FIXTURES
        .iter()
        .flat_map(|&f| [(f, 2, 2, 1), (f, 1, 2, 1)])
        .collect();
    cases.push(("2-cascaded-biquad-filter", 2, 4, 1));
    cases.push(("differential-equation", 1, 2, 4));
    cases
}

fn solve_trace(fixture: &str, adders: u32, mults: u32, jobs: u32) -> String {
    let path = format!(
        "{}/crates/benchmarks/fixtures/{fixture}.dfg",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = Command::new(env!("CARGO_BIN_EXE_rotsched"))
        .args(["solve", &path, "--trace"])
        .args(["--adders", &adders.to_string()])
        .args(["--mults", &mults.to_string()])
        .args(["--jobs", &jobs.to_string()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{fixture}: solve failed");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

#[test]
fn traced_solves_match_their_goldens() {
    let update = std::env::var_os("ROTSCHED_UPDATE_GOLDEN").is_some();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace");
    if update {
        fs::create_dir_all(&dir).expect("golden dir");
    }
    for (fixture, adders, mults, jobs) in cases() {
        let got = solve_trace(fixture, adders, mults, jobs);
        let path = dir.join(format!("{fixture}-{adders}a{mults}m-j{jobs}.txt"));
        if update {
            fs::write(&path, &got).expect("write golden");
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); regenerate with ROTSCHED_UPDATE_GOLDEN=1",
                path.display()
            )
        });
        assert_eq!(got, want, "trace bytes drifted from {}", path.display());
    }
}
