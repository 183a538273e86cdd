//! Property suite for the pluggable objective core.
//!
//! The contract under test: the default length-only objective is
//! *bit-identical* to the pre-objective solver — same winners, same
//! scores, same states — across every policy, both heuristics, and
//! every portfolio width; and the lexicographic objectives are
//! monotone: breaking length ties by register count never costs
//! kernel length, and actually saves registers somewhere on the
//! paper's Table-3 grid. The quality verdict reads the length criterion
//! alone, so it never depends on the objective or the search.

use rotsched::baselines::TABLE_3;
use rotsched::core::objective::static_registers;
use rotsched::{
    all_benchmarks, allpole, biquad, diffeq, lattice4, Dfg, Objective, PriorityPolicy, ResourceSet,
    RotationScheduler, Score, SolveQuality, TimingModel,
};

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

fn table3_graph(name: &str) -> Dfg {
    let t = TimingModel::paper();
    match name {
        "Differential Equation" => diffeq(&t),
        "4-stage Lattice Filter" => lattice4(&t),
        "All-pole Lattice Filter" => allpole(&t),
        "2-cascaded Biquad Filter" => biquad(&t),
        other => panic!("unknown Table-3 benchmark {other}"),
    }
}

/// An explicit `Objective::Length` is the default: both heuristics
/// under all four policies produce bit-identical outcomes — same
/// lengths, same packed scores, same best-set states — whether the
/// objective knob was touched or not.
#[test]
fn length_only_is_bit_identical_across_policies_and_heuristics() {
    let graph = diffeq(&TimingModel::paper());
    let resources = ResourceSet::adders_multipliers(1, 2, false);
    for policy in POLICIES {
        let default = RotationScheduler::new(&graph, resources.clone()).with_policy(policy);
        let explicit = RotationScheduler::new(&graph, resources.clone())
            .with_policy(policy)
            .with_objective(Objective::Length);
        for name in ["heuristic1", "heuristic2"] {
            let run = |s: &RotationScheduler<'_>| {
                if name == "heuristic1" {
                    s.heuristic1()
                } else {
                    s.heuristic2()
                }
            };
            let base = run(&default).expect(name);
            let knob = run(&explicit).expect(name);
            assert_eq!(base.best_length, knob.best_length, "{policy:?} {name}");
            assert_eq!(base.best_score, knob.best_score, "{policy:?} {name}");
            assert_eq!(base.best, knob.best, "{policy:?} {name}: winner states");
            assert_eq!(
                base.best_score,
                Score::from_length(base.best_length),
                "{policy:?} {name}: a length-only score carries no secondaries"
            );
        }
    }
}

/// The portfolio stays deterministic in the job count under every
/// objective: jobs 1, 2, and 4 return the same winner state, score,
/// and kernel.
#[test]
fn portfolio_is_deterministic_in_jobs_for_every_objective() {
    let graph = biquad(&TimingModel::paper());
    let resources = ResourceSet::adders_multipliers(1, 2, false);
    for objective in Objective::ALL {
        let mut canonical = None;
        for jobs in [1_usize, 2, 4] {
            let scheduler = RotationScheduler::new(&graph, resources.clone())
                .with_jobs(jobs)
                .with_objective(objective);
            let solved = scheduler.solve_portfolio().expect("portfolio solves");
            let got = (solved.length, solved.score, solved.state.clone());
            match &canonical {
                None => canonical = Some(got),
                Some(first) => {
                    assert_eq!(*first, got, "{objective:?} diverged at --jobs {jobs}");
                }
            }
        }
    }
}

/// Lexicographic monotonicity over the whole Table-3 grid: the
/// `length,regs` winner is never longer than the length-only winner
/// (tightening the tie-break cannot cost primary quality), and on at
/// least one cell it strictly reduces the static register count.
#[test]
fn length_regs_never_lengthens_and_strictly_saves_registers_somewhere() {
    let mut strict_savings = Vec::new();
    for row in TABLE_3 {
        let graph = table3_graph(row.benchmark);
        let resources = ResourceSet::adders_multipliers(row.adders, row.multipliers, row.pipelined);
        let cell = format!(
            "{} {}A {}M{}",
            row.benchmark,
            row.adders,
            row.multipliers,
            if row.pipelined { "p" } else { "" }
        );
        let run = |objective: Objective| {
            let scheduler =
                RotationScheduler::new(&graph, resources.clone()).with_objective(objective);
            let solved = scheduler.solve().expect("solves");
            let kernel = scheduler.loop_schedule(&solved.state).expect("expands");
            (solved.length, static_registers(&graph, kernel.retiming()))
        };
        let (base_len, base_regs) = run(Objective::Length);
        let (lex_len, lex_regs) = run(Objective::LengthRegs);
        assert!(
            lex_len <= base_len,
            "{cell}: length,regs lengthened the kernel ({lex_len} > {base_len})"
        );
        // The register count is *not* universally monotone: the search
        // minimizes registers of the search-state retiming, while the
        // reported count is re-derived on the depth-reduced kernel
        // retiming, which can redistribute delays. The contract is the
        // existential one checked below the loop.
        if lex_len == base_len && lex_regs < base_regs {
            strict_savings.push(format!("{cell}: {base_regs} -> {lex_regs}"));
        }
    }
    assert!(
        !strict_savings.is_empty(),
        "no Table-3 cell saved registers under length,regs"
    );
}

/// A kernel at the lower bound is optimal whatever breaks its length
/// ties: under every objective, on the five paper graphs at 2A 2M, the
/// single sweep and the portfolio at `--jobs` 1 and 2 all report
/// [`SolveQuality::Optimal`] whenever the length meets the bound.
#[test]
fn verdict_is_optimal_at_the_bound_for_every_objective_and_search() {
    let resources = ResourceSet::adders_multipliers(2, 2, false);
    let mut lexicographic_portfolio_cells_at_the_bound = 0;
    for (name, graph) in all_benchmarks(&TimingModel::paper()) {
        for objective in Objective::ALL {
            for jobs in [1_usize, 2] {
                let scheduler = RotationScheduler::new(&graph, resources.clone())
                    .with_objective(objective)
                    .with_jobs(jobs);
                for (search, solved) in [
                    ("solve", scheduler.solve()),
                    ("solve_portfolio", scheduler.solve_portfolio()),
                ] {
                    let solved = solved.expect(search);
                    if solved.length != solved.stats.lower_bound {
                        continue;
                    }
                    assert_eq!(
                        solved.quality,
                        SolveQuality::Optimal,
                        "{name}, {objective:?}, --jobs {jobs}, {search}: length {} meets the bound",
                        solved.length
                    );
                    if search == "solve_portfolio" && objective != Objective::Length {
                        lexicographic_portfolio_cells_at_the_bound += 1;
                    }
                }
            }
        }
    }
    assert!(
        lexicographic_portfolio_cells_at_the_bound > 0,
        "no lexicographic portfolio solve reached the bound"
    );
}
