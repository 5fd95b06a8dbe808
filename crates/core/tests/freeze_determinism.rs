//! Chunked ingest of the pass-1 freeze: feeding
//! [`IncrementalFreezer::extend`] the event stream in chunks must leave the
//! **same frozen state, bit for bit**, as one `extend` over the whole
//! stream — on every fuzz shape, for both freezable algorithms. Sessions
//! freeze this way, one ingested chunk at a time.
//!
//! The comparison is the raw export ([`IncrementalFreezer::to_raw`]), which
//! carries the closure rows with their stamps, every bag/DNSP timeline, and
//! the live resume state (disjoint-set shortcuts, per-function first
//! strands), next to the granule access stream
//! ([`IncrementalFreezer::accesses`]), which the raw export leaves out; both
//! are `Eq`, so `assert_eq!` is the whole oracle.

use futurerd_core::parallel::{GranuleAccess, IncrementalFreezer, RawFreeze};
use futurerd_core::replay::ReplayAlgorithm;
use futurerd_dag::trace::TraceEvent;
use futurerd_runtime::trace::record_spec;
use futurerd_workloads::fuzzgen::{generate_shaped, FuzzShape};

const SEEDS_PER_SHAPE: u64 = 4;
const ALGORITHMS: [ReplayAlgorithm; 2] =
    [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus];

fn frozen_in_chunks(
    events: &[TraceEvent],
    algorithm: ReplayAlgorithm,
    chunk: usize,
) -> (RawFreeze, Vec<GranuleAccess>) {
    let mut freezer = IncrementalFreezer::new(algorithm).expect("freezable algorithm");
    for part in events.chunks(chunk) {
        freezer.extend(part);
    }
    (freezer.to_raw(), freezer.accesses().to_vec())
}

#[test]
fn chunked_extends_match_one_freeze_on_every_fuzz_shape() {
    for shape in FuzzShape::ALL {
        for seed in 0..SEEDS_PER_SHAPE {
            let (trace, _) = record_spec(&generate_shaped(shape, seed).spec);
            let events = trace.events();
            for algorithm in ALGORITHMS {
                let expected = frozen_in_chunks(events, algorithm, events.len().max(1));
                for chunk in [1, 7, 64] {
                    assert_eq!(
                        frozen_in_chunks(events, algorithm, chunk),
                        expected,
                        "{shape:?} seed {seed}: {algorithm} extended in chunks of \
                         {chunk} diverged from one extend"
                    );
                }
            }
        }
    }
}
