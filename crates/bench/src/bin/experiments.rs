//! Full-scale experiment driver: regenerates every table and figure.
//!
//! Usage:
//! ```text
//! experiments [table1|table2|table3|fig5|fig6|fig7|fig8|fig9|stats|ablation|all] [--quick]
//! ```
//!
//! `all` runs everything but `ablation`, and prints only panels 8a/8b of
//! Figure 8.

use o4a_bench::*;
use o4a_exec::ExecConfig;
use o4a_llm::LlmProfile;
use o4a_solvers::SolverId;

/// Figure 6's panels: solver, line (vs function) coverage, title.
const FIG6: [(SolverId, bool, &str); 4] = [
    (SolverId::OxiZ, true, "Figure 6a: line coverage on Z3*"),
    (SolverId::Cervo, true, "Figure 6b: line coverage on cvc5*"),
    (SolverId::OxiZ, false, "Figure 6c: function coverage on Z3*"),
    (
        SolverId::Cervo,
        false,
        "Figure 6d: function coverage on cvc5*",
    ),
];

/// Figure 8's panels, laid out as [`FIG6`].
const FIG8: [(SolverId, bool, &str); 4] = [
    (
        SolverId::OxiZ,
        true,
        "Figure 8a: line coverage on Z3* (variants)",
    ),
    (
        SolverId::Cervo,
        true,
        "Figure 8b: line coverage on cvc5* (variants)",
    ),
    (
        SolverId::OxiZ,
        false,
        "Figure 8c: function coverage on Z3* (variants)",
    ),
    (
        SolverId::Cervo,
        false,
        "Figure 8d: function coverage on cvc5* (variants)",
    ),
];

/// Case budget of each ablation campaign.
const ABLATION_CASES: usize = 400;

/// Figure 6 and the exclusive-coverage analysis: the nine fuzzers'
/// coverage campaigns.
fn fig6(scale: Scale, knob: &ExecConfig) {
    eprintln!("[experiments] running 9 coverage campaigns (fig6)...");
    let results =
        coverage_comparison_parallel(&Roster::paper_fuzzers(), scale, trunk_solvers(), knob);
    for (solver, lines, title) in FIG6 {
        print!("{}", render_coverage_panel(title, &results, solver, lines));
    }
    let others: Vec<&o4a_core::CampaignResult> = results[1..].iter().collect();
    print!("{}", render_exclusive(&results[0], &others));
}

/// Figure 7: the nine fuzzers' known bugs on the releases.
fn fig7(scale: Scale, knob: &ExecConfig) {
    eprintln!("[experiments] running 9 known-bug campaigns + bisection (fig7)...");
    let sets = known_bug_comparison_parallel(&Roster::paper_fuzzers(), scale, knob);
    print!(
        "{}",
        render_known_bugs(
            "Figure 7: unique known bugs found on previous solver versions",
            &sets
        )
    );
}

/// The given panels of Figure 8: the four variants' coverage campaigns.
fn fig8(scale: Scale, knob: &ExecConfig, panels: &[(SolverId, bool, &str)]) {
    eprintln!("[experiments] running 4 variant coverage campaigns (fig8)...");
    let results =
        coverage_comparison_parallel(&Roster::paper_variants(), scale, trunk_solvers(), knob);
    for &(solver, lines, title) in panels {
        print!("{}", render_coverage_panel(title, &results, solver, lines));
    }
}

/// Figure 9: the four variants' known bugs on the releases.
fn fig9(scale: Scale, knob: &ExecConfig) {
    eprintln!("[experiments] running 4 variant known-bug campaigns + bisection (fig9)...");
    let sets = known_bug_comparison_parallel(&Roster::paper_variants(), scale, knob);
    print!(
        "{}",
        render_known_bugs("Figure 9: unique known bugs found by variants", &sets)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { QUICK } else { FULL };
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    let knob = exec_knob();
    let run_t12 = matches!(
        what.as_str(),
        "table1" | "table2" | "fig5" | "stats" | "all"
    );
    let mut trunk = None;
    if run_t12 {
        eprintln!("[experiments] running trunk bug-hunting campaign ({scale:?})...");
        trunk = Some(trunk_campaign(scale));
    }

    match what.as_str() {
        "table1" => {
            let r = trunk.as_ref().expect("campaign ran");
            print!("{}", render_table1(&table1(r)));
        }
        "table2" => {
            let r = trunk.as_ref().expect("campaign ran");
            print!("{}", render_table2(&table2(r)));
        }
        "table3" => {
            print!("{}", render_table3(&table3_validity(LlmProfile::gpt4())));
        }
        "fig5" => {
            let r = trunk.as_ref().expect("campaign ran");
            print!("{}", render_fig5(&fig5(r)));
        }
        "fig6" => fig6(scale, &knob),
        "fig7" => fig7(scale, &knob),
        "fig8" => fig8(scale, &knob, &FIG8),
        "fig9" => fig9(scale, &knob),
        "stats" => {
            let r = trunk.as_ref().expect("campaign ran");
            print!("{}", render_stats(r));
        }
        "ablation" => {
            println!(
                "\n=== Ablation: design-choice sweep (bug-triggering cases per {ABLATION_CASES} cases) ==="
            );
            for (label, bug_triggering) in ablation(ABLATION_CASES) {
                println!("{label:<28} bug-triggering: {bug_triggering}");
            }
        }
        "all" => {
            let r = trunk.as_ref().expect("campaign ran");
            print!("{}", render_table1(&table1(r)));
            print!("{}", render_table2(&table2(r)));
            print!("{}", render_fig5(&fig5(r)));
            print!("{}", render_stats(r));
            print!("{}", render_table3(&table3_validity(LlmProfile::gpt4())));
            fig6(scale, &knob);
            fig7(scale, &knob);
            fig8(scale, &knob, &FIG8[..2]);
            fig9(scale, &knob);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}
