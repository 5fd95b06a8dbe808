//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6-structured --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run sets its workload up several times (reporting the median set-up
//! time), runs one untimed warm-up round, then closed-loop rounds for
//! `--seconds`: each round calls every timed entry point once, in a fixed
//! order. The last line of standard output is one JSON object with the
//! verdict accounting and the metrics (`--trace 0`: end-to-end, medians over
//! the rounds; `--trace 1`: per-layer, from the traced rounds of
//! `layers.rs`).

mod alloc;
mod clock;
mod host;
mod layers;
mod workload;

use clock::Clock;
use host::{Factors, Reference};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Fixture, Tally, Workload};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Measured rounds per run, at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <fig6-structured|fig7-general|follow> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

extern "C" {
    /// glibc's allocator tuning (`malloc.h`).
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keeps freed heap in the process: no `mmap`ed chunks (`M_MMAP_MAX` = 0)
/// and no trimming (`M_TRIM_THRESHOLD` at its maximum). Every round then
/// reuses memory that is already mapped, so timings measure the detector
/// rather than how fast the hypervisor serves page faults.
fn retain_freed_heap() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: `mallopt` only changes allocator parameters, and it runs
    // before the program starts any thread.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

fn main() -> ExitCode {
    retain_freed_heap();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let store_dir = StoreDir::new(&args);
    match run(&args, &store_dir.0) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The run's store directory, inside the working directory and removed
/// when the run ends.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(args: &Args) -> Self {
        Self(PathBuf::from(".bench_store").join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        )))
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Fails, and so keeps the parent, while other runs still use it.
        std::fs::remove_dir(".bench_store").ok();
    }
}

fn run(args: &Args, store_dir: &Path) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut setups = Vec::new();
    let mut refs = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so set-ups start from equal heaps.
        drop(fixture.take());
        let ((built, seconds), factors) = bracketed(&mut refs, || {
            Clock::Cpu.time(|| Fixture::build(args.workload, args.seed, threads, store_dir))
        });
        fixture = Some(built?);
        setups.push((vec![seconds], factors.cpu));
    }
    let fx = fixture.expect("SETUPS > 0");

    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    if args.trace {
        let rounds = measure(args.seconds, &mut tally, &mut refs, |t| {
            layers::round(&fx, t)
        });
        for (name, value, unit) in layers::metrics(&rounds, median(refs)) {
            println!("{name:<30} {value:>16.6} {unit}");
            metrics.entries.push((name, value, unit));
        }
    } else {
        metrics.timing("setup_s", &setups);
        let rounds = measure(args.seconds, &mut tally, &mut refs, |t| {
            workload::round(&fx, t)
        });
        let per = |f: fn(&workload::Round) -> Vec<f64>| -> Vec<(Vec<f64>, f64)> {
            rounds.iter().map(|(r, k)| (f(r), k.cpu)).collect()
        };
        metrics.timing("live_s", &per(|r| r.live_s.clone()));
        metrics.timing("replay_s", &per(|r| r.replay_s.clone()));
        let par = rounds
            .iter()
            .map(|(r, k)| (r.replay_par_s.clone(), k.pair))
            .collect::<Vec<_>>();
        metrics.timing("replay_par_s", &par);
        // The median of each round's median append: every round appends the
        // same chunks, so the median over all samples would sit between two
        // chunks' clusters and take the extremes of both.
        metrics.timing("append_p50_s", &per(|r| vec![median(r.appends_s.clone())]));
        let appends = rounds
            .iter()
            .flat_map(|(r, k)| r.appends_s.iter().map(|&s| (s, k.cpu)))
            .collect();
        metrics.tail("append_tail_s", appends);
        metrics.timing("store_append_s", &per(|r| r.store_append_s.clone()));
        metrics.timing("store_reopen_s", &per(|r| r.store_reopen_s.clone()));
        let per_bytes = |f: fn(&workload::Round) -> u64| -> Vec<f64> {
            rounds.iter().map(|(r, _)| f(r) as f64).collect()
        };
        metrics.mib("store_mb", per_bytes(|r| r.store_bytes));
        metrics.mib("peak_heap_mb", per_bytes(|r| r.peak_heap));
    }
    metrics.print(&tally);
    Ok(())
}

/// Runs `f` between two takes of the host reference, whose one-thread
/// kernel times go to `refs`; returns `f`'s result and the correction
/// factors.
fn bracketed<R>(refs: &mut Vec<f64>, f: impl FnOnce() -> R) -> (R, Factors) {
    let before = Reference::take();
    let result = f();
    let after = Reference::take();
    refs.extend([before.cpu_s, after.cpu_s]);
    (result, before.factors(after))
}

/// The untimed warm-up round, then measured rounds, each bracketed by the
/// host reference, until `seconds` have passed. Rounds with a failed
/// operation are counted and left out.
fn measure<R>(
    seconds: f64,
    tally: &mut Tally,
    refs: &mut Vec<f64>,
    mut round: impl FnMut(&mut Tally) -> Option<R>,
) -> Vec<(R, Factors)> {
    round(tally);
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut tried = 0;
    while tried < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        tried += 1;
        let (result, factors) = bracketed(refs, || round(tally));
        rounds.extend(result.map(|r| (r, factors)));
    }
    println!(
        "rounds: {} measured, {} with a failed operation",
        rounds.len(),
        tried - rounds.len()
    );
    rounds
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The metrics of one run, in print order.
#[derive(Default)]
struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// A timing from rounds of per-call samples: each call's median over
    /// the rounds (samples corrected by their round's factor), summed over
    /// the calls. A stall that hits one call in one round moves no median.
    fn timing(&mut self, name: &'static str, rounds: &[(Vec<f64>, f64)]) {
        let calls = rounds.first().map_or(0, |(calls, _)| calls.len());
        let summed = |factor: &dyn Fn(f64) -> f64| -> f64 {
            (0..calls)
                .map(|c| median(rounds.iter().map(|(s, k)| s[c] * factor(*k)).collect()))
                .sum()
        };
        let raw = summed(&|_| 1.0);
        let value = summed(&|k| k);
        println!(
            "{name:<16} {value:>12.6} s   raw {raw:.6} s   sum over {calls} call(s) of the median of {} rounds",
            rounds.len()
        );
        self.entries.push((name, value, "s"));
    }

    /// A timing at the highest percentile with at least ten samples above
    /// it, each sample corrected by its factor.
    fn tail(&mut self, name: &'static str, samples: Vec<(f64, f64)>) {
        let n = samples.len();
        let rank = n.saturating_sub(11);
        let at = |mut values: Vec<f64>| {
            values.sort_by(f64::total_cmp);
            values.get(rank).copied().unwrap_or(f64::NAN)
        };
        let raw = at(samples.iter().map(|(s, _)| *s).collect());
        let value = at(samples.iter().map(|(s, k)| s * k).collect());
        println!(
            "{name:<16} {value:>12.6} s   raw {raw:.6} s   p{:.1} of {n} samples ({} above)",
            100.0 * (rank + 1) as f64 / n.max(1) as f64,
            n.saturating_sub(rank + 1),
        );
        self.entries.push((name, value, "s"));
    }

    /// A byte count's median over rounds, in MiB.
    fn mib(&mut self, name: &'static str, bytes: Vec<f64>) {
        let n = bytes.len();
        let value = median(bytes) / (1u64 << 20) as f64;
        println!("{name:<16} {value:>12.6} MiB median of {n} rounds");
        self.entries.push((name, value, "MiB"));
    }

    fn print(&self, tally: &Tally) {
        if let Some(failure) = &tally.first_failure {
            println!("first failure: {failure}");
        }
        println!(
            "operations: {} attempted, {} failed",
            tally.attempted, tally.failed
        );
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN: a metric without samples reads 0.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        );
    }
}
