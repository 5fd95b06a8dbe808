//! Every benchmark of the workspace, from the table in
//! `futurerd_bench::kernels`:
//!
//! ```text
//! cargo bench -p futurerd-bench --bench figs                  # all rows
//! cargo bench -p futurerd-bench --bench figs -- fig_store     # a bench name
//! cargo bench -p futurerd-bench --bench figs -- lcs_B32       # an id substring
//! ```
//!
//! Prints one line per measured row. `FUTURERD_BENCH_JSON=<path>` also
//! writes the results as a baseline-shaped document that
//! `futurerd-trace regress --against`/`--from` read.

use futurerd_bench::kernels::{sweep, Table, SWEEP_NOTE};
use futurerd_bench::regress::{format_results_doc, load_results, BenchResult};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    // `cargo bench` passes `--bench`; the first other argument filters.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let results = match filter.as_deref() {
        Some(filter) => sweep(Some(filter)),
        None => match sweep_each_bench() {
            Ok(results) => results,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if results.is_empty() {
        eprintln!("no benchmark row matches '{}'", filter.unwrap_or_default());
        return ExitCode::FAILURE;
    }
    if let Some(path) = std::env::var_os("FUTURERD_BENCH_JSON").filter(|p| !p.is_empty()) {
        if let Err(e) = std::fs::write(&path, format_results_doc(&results, SWEEP_NOTE, false)) {
            eprintln!("cannot write {}: {e}", path.to_string_lossy());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The full sweep runs each bench in a process of its own (this binary,
/// filtered by the bench name), so every row is measured as a run of its
/// bench alone measures it. Late in one long process, rows that allocate
/// and free large blocks every iteration (`fig_store` warm_detect,
/// `fig_freeze_par` at n ≥ 128) read 25–45% faster than alone.
fn sweep_each_bench() -> Result<Vec<BenchResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let table = Table::all();
    let mut benches: Vec<&str> = table.rows().map(|r| r.bench).collect();
    benches.dedup();
    let mut results = Vec::new();
    for bench in benches {
        let name = format!("futurerd-figs-{bench}-{}.json", std::process::id());
        let doc = std::env::temp_dir().join(name);
        let status = Command::new(&exe)
            .arg(bench)
            .env("FUTURERD_BENCH_JSON", &doc)
            .status()
            .map_err(|e| format!("cannot run {bench}: {e}"))?;
        let loaded = load_results(&doc.to_string_lossy());
        std::fs::remove_file(&doc).ok();
        if !status.success() {
            return Err(format!("{bench}: {status}"));
        }
        results.extend(loaded?.results);
    }
    Ok(results)
}
