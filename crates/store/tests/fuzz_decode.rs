//! Seeded fuzz-style robustness tests: truncated and bit-flipped `FRDTRACE`
//! and `FRDIDX` bytes must always produce a **typed error** — never a
//! panic, a hang, or (for checksummed formats) a silent mis-decode.

use futurerd_core::replay::ReplayAlgorithm;
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_dag::trace::Trace;
use futurerd_runtime::trace::record_spec;
use futurerd_store::{decode_sidecar, encode_sidecar, hash_events, Sidecar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// [`sample_trace`] as the retired v1 and v2 trace writers encoded it.
const SAMPLE_V1: &[u8] = include_bytes!("../testdata/sample.v1.frdtrace");
const SAMPLE_V2: &[u8] = include_bytes!("../testdata/sample.v2.frdtrace");

fn sample_trace() -> Trace {
    let spec = generate_program(
        &GenConfig {
            max_depth: 3,
            max_actions: 5,
            num_locations: 6,
            general_futures: true,
            ..GenConfig::structured()
        },
        42,
    );
    record_spec(&spec).0
}

fn sample_sidecar(trace: &Trace) -> Vec<u8> {
    use futurerd_core::parallel::IncrementalFreezer;
    let mut fz = IncrementalFreezer::new(ReplayAlgorithm::MultiBagsPlus).expect("freezable");
    fz.extend(trace.events());
    encode_sidecar(&Sidecar {
        trace_hash: hash_events(trace.events()),
        freeze: fz.to_raw(),
        outcomes: None,
    })
}

/// Every format version decodes to the same trace, and any strict prefix
/// of a trace file must fail to decode with a typed error.
#[test]
fn truncated_traces_are_typed_errors() {
    let trace = sample_trace();
    let v3 = trace.to_bytes();
    let mut rng = StdRng::seed_from_u64(0xF0F0);
    for (version, bytes) in [(1, SAMPLE_V1), (2, SAMPLE_V2), (3, &v3)] {
        assert_eq!(
            Trace::from_bytes(bytes).expect("intact bytes decode"),
            trace,
            "v{version}"
        );
        // Every short prefix, plus 200 random interior cuts.
        let cuts: Vec<usize> = (0..bytes.len().min(64))
            .chain((0..200).map(|_| rng.gen_range(0..bytes.len())))
            .collect();
        for cut in cuts {
            let result = Trace::from_bytes(&bytes[..cut]);
            assert!(
                result.is_err(),
                "v{version}: prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
            // Rendering the error must not panic either.
            let _ = result.unwrap_err().to_string();
        }
    }
}

/// Single-bit flips anywhere in a v3 trace are always *detected* (the
/// payload is checksummed; header fields are individually validated). For
/// v1/v2 — which predate the checksum — a flip may legitimately decode to a
/// different stream, but it must never panic.
#[test]
fn bit_flipped_traces_never_panic_and_v3_always_errors() {
    let trace = sample_trace();
    let mut rng = StdRng::seed_from_u64(0xB17F);

    let v3 = trace.to_bytes();
    for _ in 0..400 {
        let mut bytes = v3.clone();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0..8);
        let result = Trace::from_bytes(&bytes);
        assert!(
            result.is_err(),
            "v3 flip at byte {at} was not detected ({} bytes)",
            bytes.len()
        );
        let _ = result.unwrap_err().to_string();
    }

    for encoded in [SAMPLE_V1, SAMPLE_V2] {
        for _ in 0..200 {
            let mut bytes = encoded.to_vec();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
            // Decoding may succeed (absolute-field formats have no
            // checksum) — it must simply never panic.
            match Trace::from_bytes(&bytes) {
                Ok(decoded) => {
                    let _ = decoded.len();
                }
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
    }
}

/// Truncations and bit flips of an `FRDIDX` sidecar are always typed
/// errors: the payload checksum is verified before decoding, so corruption
/// can never produce a silently wrong index.
#[test]
fn corrupt_sidecars_are_typed_errors() {
    let trace = sample_trace();
    let bytes = sample_sidecar(&trace);
    assert!(decode_sidecar(&bytes).is_ok(), "control: intact decodes");
    let mut rng = StdRng::seed_from_u64(0x51D3);

    for cut in (0..bytes.len().min(64)).chain((0..200).map(|_| rng.gen_range(0..bytes.len()))) {
        let result = decode_sidecar(&bytes[..cut]);
        assert!(result.is_err(), "prefix of {cut}/{} decoded", bytes.len());
        let _ = result.unwrap_err().to_string();
    }

    for _ in 0..400 {
        let mut corrupt = bytes.clone();
        let at = rng.gen_range(0..corrupt.len());
        corrupt[at] ^= 1 << rng.gen_range(0..8);
        let result = decode_sidecar(&corrupt);
        assert!(result.is_err(), "flip at byte {at} was not detected");
        let _ = result.unwrap_err().to_string();
    }

    // Multi-byte garbage: random blocks overwritten.
    for _ in 0..100 {
        let mut corrupt = bytes.clone();
        let at = rng.gen_range(0..corrupt.len());
        let len = rng.gen_range(1..32.min(corrupt.len() - at + 1));
        for b in &mut corrupt[at..at + len] {
            *b = rng.gen();
        }
        if corrupt == bytes {
            continue;
        }
        let result = decode_sidecar(&corrupt);
        assert!(result.is_err(), "garbage block at {at}+{len} not detected");
    }
}

/// Arbitrary random bytes (not derived from a valid file) must also fail
/// cleanly for both decoders.
#[test]
fn random_bytes_fail_cleanly() {
    let mut rng = StdRng::seed_from_u64(0xA11A);
    for _ in 0..200 {
        let len = rng.gen_range(0..512);
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = rng.gen();
        }
        assert!(Trace::from_bytes(&bytes).is_err());
        assert!(decode_sidecar(&bytes).is_err());
    }
    // Valid magic but random everything else.
    for _ in 0..200 {
        let len = rng.gen_range(8..512);
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = rng.gen();
        }
        bytes[..8].copy_from_slice(b"FRDTRACE");
        assert!(Trace::from_bytes(&bytes).is_err());
        bytes[..8].copy_from_slice(b"FRDIDX\0\0");
        assert!(decode_sidecar(&bytes).is_err());
    }
}
