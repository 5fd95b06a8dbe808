//! Detection-store economics: what does a warm `FRDIDX` load buy over
//! refreezing, and what does incremental re-detection buy over cold
//! re-detection after an append?
//!
//! Same large seeded genprog traces as `fig_par_detect`. Per algorithm:
//!
//! * `freeze`      — cold pass 1 (replay the whole trace through the
//!   freezing observer): the cost a warm load avoids;
//! * `warm_load`   — decode the sidecar + rebuild the freezer + snapshot
//!   the index (no detection): must be **strictly cheaper** than `freeze`;
//! * `warm_detect` — a full warm `Config::replay_stored` round trip (load +
//!   merge cached outcomes);
//! * `incremental` — a full `Config::replay_stored` after ~5% of the trace
//!   was appended: suffix refreeze + touched-partition re-runs + sidecar
//!   rewrite, vs refreezing and re-detecting everything.
//!
//! Scale the traces with `FUTURERD_SCALE`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use futurerd::Config;
use futurerd_core::parallel::IncrementalFreezer;
use futurerd_core::replay::ReplayAlgorithm;
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_dag::trace::Trace;
use futurerd_runtime::trace::record_spec;
use futurerd_store::{decode_sidecar, Store};
use std::time::Duration;

fn big_trace(general: bool, seed: u64) -> Trace {
    let scale = std::env::var("FUTURERD_SCALE")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or(1)
        .max(1);
    let cfg = if general {
        GenConfig {
            max_depth: 9 + scale.ilog2(),
            max_actions: 14,
            num_locations: 96 * scale,
            max_accesses: 12,
            general_futures: true,
            w_compute: 10,
            w_get: 2,
            w_create: 2,
            w_spawn: 3,
            w_sync: 1,
        }
    } else {
        GenConfig {
            max_depth: 7 + scale.ilog2(),
            max_actions: 10,
            num_locations: 64 * scale,
            max_accesses: 6,
            ..GenConfig::structured()
        }
    };
    let (trace, _) = record_spec(&generate_program(&cfg, seed));
    trace
}

fn fig_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_store");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let cells = [
        (ReplayAlgorithm::MultiBags, false, 0xf19u64),
        (ReplayAlgorithm::MultiBagsPlus, true, 0x2au64),
    ];
    let dir = std::env::temp_dir().join(format!("futurerd-fig-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    for (algorithm, general, seed) in cells {
        let trace = big_trace(general, seed);
        let config = Config::new().algorithm(algorithm.into());
        let mut store = Store::open(&dir).expect("store opens");
        store.put_trace("t", &trace).expect("trace stores");
        config.replay_stored(&mut store, "t").expect("cold detect");
        let sidecar_bytes =
            std::fs::read(store.sidecar_path("t", algorithm)).expect("sidecar written");
        eprintln!(
            "fig_store: {} trace, {} events, sidecar {} bytes",
            algorithm.name(),
            trace.len(),
            sidecar_bytes.len()
        );

        group.bench_with_input(
            BenchmarkId::new(algorithm.name(), "freeze"),
            &algorithm,
            |b, &algorithm| {
                b.iter(|| {
                    let mut fz = IncrementalFreezer::new(algorithm).expect("freezable");
                    fz.extend(trace.events());
                    fz.accesses().len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(algorithm.name(), "warm_load"),
            &sidecar_bytes,
            |b, bytes| {
                b.iter(|| {
                    let sidecar = decode_sidecar(bytes).expect("valid sidecar");
                    let fz = IncrementalFreezer::from_raw(sidecar.freeze).expect("valid state");
                    let index = fz.snapshot_index();
                    (fz.accesses().len(), index.num_attached_sets())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(algorithm.name(), "warm_detect"),
            &config,
            |b, &config| {
                b.iter(|| {
                    config
                        .replay_stored(&mut store, "t")
                        .expect("warm detect")
                        .race_count()
                })
            },
        );

        // Incremental: a sidecar frozen at 95% of the trace, the trace file
        // already holding all of it. Each iteration restores that sidecar
        // and re-detects — suffix refreeze + touched partitions only.
        let cut = trace.len() * 95 / 100;
        let mut prefix = Trace::new();
        prefix.extend_events(&trace.events()[..cut]);
        store.put_trace("t2", &prefix).expect("prefix stores");
        config
            .replay_stored(&mut store, "t2")
            .expect("prefix detect");
        let prefix_sidecar =
            std::fs::read(store.sidecar_path("t2", algorithm)).expect("sidecar written");
        store.put_trace("t2", &trace).expect("full trace stores");
        let sidecar_path = store.sidecar_path("t2", algorithm);
        group.bench_with_input(
            BenchmarkId::new(algorithm.name(), "incremental"),
            &config,
            |b, &config| {
                b.iter(|| {
                    std::fs::write(&sidecar_path, &prefix_sidecar).expect("restore sidecar");
                    config
                        .replay_stored(&mut store, "t2")
                        .expect("incremental detect")
                        .race_count()
                })
            },
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    group.finish();
}

criterion_group!(benches, fig_store);
criterion_main!(benches);
