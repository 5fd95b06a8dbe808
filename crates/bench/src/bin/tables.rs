//! Regenerates the evaluation tables of the paper.
//!
//! ```text
//! cargo run --release -p futurerd-bench --bin tables -- all
//! cargo run --release -p futurerd-bench --bin tables -- fig6
//! cargo run --release -p futurerd-bench --bin tables -- fig7
//! cargo run --release -p futurerd-bench --bin tables -- fig8
//! cargo run --release -p futurerd-bench --bin tables -- geomean
//! cargo run --release -p futurerd-bench --bin tables -- scaling
//! ```
//!
//! Set `FUTURERD_REPEATS` (default 3) to average more runs per cell and
//! `FUTURERD_SCALE` to enlarge the inputs.

use futurerd_bench::{
    base_case_table, format_base_case_table, format_overhead_table, format_scaling_table, geomean,
    outln, overhead_table, scaling_table, Algorithm,
};
use futurerd_workloads::FutureMode;

fn repeats() -> u32 {
    std::env::var("FUTURERD_REPEATS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn fig6() {
    let rows = overhead_table(FutureMode::Structured, Algorithm::MultiBags, repeats());
    outln!(
        "{}",
        format_overhead_table(
            "Figure 6: structured futures, MultiBags race detection (times and overhead vs baseline)",
            &rows
        )
    );
}

fn fig7() {
    let rows = overhead_table(FutureMode::General, Algorithm::MultiBagsPlus, repeats());
    outln!(
        "{}",
        format_overhead_table(
            "Figure 7: general futures, MultiBags+ race detection (times and overhead vs baseline)",
            &rows
        )
    );
}

fn fig8() {
    let rows = base_case_table(repeats());
    outln!("{}", format_base_case_table(&rows));
}

fn geomeans() {
    let s = overhead_table(FutureMode::Structured, Algorithm::MultiBags, repeats());
    let g = overhead_table(FutureMode::General, Algorithm::MultiBagsPlus, repeats());
    outln!("Section 6 headline geometric means (paper: 1.06x / 1.40x reachability, 20.48x / 25.98x full)");
    outln!(
        "  structured + MultiBags : reachability {:.2}x, full {:.2}x",
        geomean(s.iter().map(|r| r.overhead(1))),
        geomean(s.iter().map(|r| r.overhead(3))),
    );
    outln!(
        "  general + MultiBags+   : reachability {:.2}x, full {:.2}x",
        geomean(g.iter().map(|r| r.overhead(1))),
        geomean(g.iter().map(|r| r.overhead(3))),
    );
}

fn scaling() {
    outln!("{}", format_scaling_table(&scaling_table()));
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "fig6" => fig6(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "geomean" => geomeans(),
        "scaling" => scaling(),
        "all" => {
            fig6();
            fig7();
            fig8();
            scaling();
            geomeans();
        }
        other => {
            eprintln!("unknown table '{other}'; expected fig6|fig7|fig8|geomean|scaling|all");
            std::process::exit(2);
        }
    }
}
