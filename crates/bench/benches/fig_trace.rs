//! Trace pipeline costs: what does it cost to *record* an execution, and
//! what does it cost to *replay-detect* on the recorded trace?
//!
//! The paper's detectors pay execution + detection on every run; the trace
//! subsystem splits that into a one-time record cost and a per-detector
//! replay cost. Five measurements per workload:
//!
//! * `record`     — run the workload under a `TraceRecorder` (no detection);
//! * `replay`     — feed the pre-recorded trace through the designated full
//!   detector (MultiBags for structured, MultiBags+ for general), without
//!   re-executing the workload;
//! * `inprocess`  — classic single-pass execution + full detection, the
//!   baseline the split is compared against;
//! * `encode`     — serialize the recorded trace to `FRDTRACE` bytes
//!   (`Trace::to_bytes`);
//! * `decode`     — parse those bytes back into events (`Trace::from_bytes`),
//!   the first layer of every replay from a stored trace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use futurerd_bench::bench_params;
use futurerd_core::detector::RaceDetector;
use futurerd_core::reachability::{MultiBags, MultiBagsPlus};
use futurerd_core::replay::{replay_detect_unchecked, ReplayAlgorithm};
use futurerd_dag::trace::Trace;
use futurerd_runtime::trace::TraceRecorder;
use futurerd_workloads::{run_workload, FutureMode, WorkloadKind, WorkloadParams};
use std::time::Duration;

fn record(kind: WorkloadKind, mode: FutureMode, params: &WorkloadParams) -> Trace {
    let (recorder, _) = run_workload(kind, mode, params, TraceRecorder::new());
    recorder.into_trace()
}

fn fig_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_trace_record_vs_replay");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    let cells = [
        (
            WorkloadKind::Lcs,
            FutureMode::Structured,
            ReplayAlgorithm::MultiBags,
        ),
        (
            WorkloadKind::Sw,
            FutureMode::Structured,
            ReplayAlgorithm::MultiBags,
        ),
        (
            WorkloadKind::Bst,
            FutureMode::General,
            ReplayAlgorithm::MultiBagsPlus,
        ),
        (
            WorkloadKind::Dedup,
            FutureMode::General,
            ReplayAlgorithm::MultiBagsPlus,
        ),
    ];
    for (kind, mode, algorithm) in cells {
        let params = bench_params(kind);
        let trace = record(kind, mode, &params);
        group.bench_with_input(
            BenchmarkId::new(kind.name(), "record"),
            &(kind, mode),
            |b, &(kind, mode)| b.iter(|| record(kind, mode, &params).len()),
        );
        group.bench_with_input(
            BenchmarkId::new(kind.name(), "replay"),
            &algorithm,
            |b, &algorithm| b.iter(|| replay_detect_unchecked(&trace, algorithm).race_count()),
        );
        group.bench_with_input(
            BenchmarkId::new(kind.name(), "inprocess"),
            &(kind, mode),
            |b, &(kind, mode)| {
                b.iter(|| match mode {
                    FutureMode::Structured => {
                        run_workload(kind, mode, &params, RaceDetector::<MultiBags>::structured())
                            .0
                            .report()
                            .race_count()
                    }
                    FutureMode::General => run_workload(
                        kind,
                        mode,
                        &params,
                        RaceDetector::<MultiBagsPlus>::general(),
                    )
                    .0
                    .report()
                    .race_count(),
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(kind.name(), "encode"),
            &trace,
            |b, trace| b.iter(|| trace.to_bytes().len()),
        );
        let bytes = trace.to_bytes();
        group.bench_with_input(
            BenchmarkId::new(kind.name(), "decode"),
            &bytes,
            |b, bytes| b.iter(|| Trace::from_bytes(bytes).expect("own encoding").len()),
        );
    }
    group.finish();
}

criterion_group!(benches, fig_trace);
criterion_main!(benches);
