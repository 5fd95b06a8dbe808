//! Seeded fuzz-style robustness tests: truncated and bit-flipped `FRDTRACE`
//! and `FRDIDX` bytes must always produce a **typed error** — never a
//! panic, a hang, or (for checksummed formats) a silent mis-decode.

use futurerd_core::replay::ReplayAlgorithm;
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_dag::trace::{
    fnv1a64, hash64, Trace, TraceError, TraceEvent, TRACE_VERSION, TRACE_VERSION_V3,
};
use futurerd_dag::{MemAddr, StrandId};
use futurerd_runtime::trace::record_spec;
use futurerd_store::{decode_sidecar, encode_sidecar, hash_events, Sidecar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// [`sample_trace`] as the retired v1, v2 and v3 trace writers encoded it.
const SAMPLE_V1: &[u8] = include_bytes!("../testdata/sample.v1.frdtrace");
const SAMPLE_V2: &[u8] = include_bytes!("../testdata/sample.v2.frdtrace");
const SAMPLE_V3: &[u8] = include_bytes!("../testdata/sample.v3.frdtrace");

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
    let v4 = trace.to_bytes();
    let mut rng = StdRng::seed_from_u64(0xF0F0);
    for (version, bytes) in [(1, SAMPLE_V1), (2, SAMPLE_V2), (3, SAMPLE_V3), (4, &v4)] {
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

/// Single-bit flips anywhere in a v3 or v4 trace are always *detected*:
/// every flip of every bit, under both checksums (the payload is
/// checksummed; header fields are individually validated). For v1/v2 —
/// which predate the checksum — a flip may legitimately decode to a
/// different stream, but it must never panic.
#[test]
fn bit_flipped_traces_never_panic_and_v3_always_errors() {
    let trace = sample_trace();
    let mut rng = StdRng::seed_from_u64(0xB17F);

    let v4 = trace.to_bytes();
    for (version, encoded) in [(3, SAMPLE_V3), (4, &v4)] {
        for at in 0..encoded.len() {
            for bit in 0..8 {
                let mut bytes = encoded.to_vec();
                bytes[at] ^= 1 << bit;
                let result = Trace::from_bytes(&bytes);
                assert!(
                    result.is_err(),
                    "v{version} flip of bit {bit} at byte {at} was not detected ({} bytes)",
                    bytes.len()
                );
                let _ = result.unwrap_err().to_string();
            }
        }
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

/// `payload` under a v3 (FNV-1a) or v4 (word-folded) header whose checksum
/// matches it, so corrupt payload bytes get past the checksum and reach the
/// parser.
fn stamped(version: u32, payload: &[u8]) -> Vec<u8> {
    let checksum = if version == TRACE_VERSION_V3 {
        fnv1a64(payload)
    } else {
        hash64(payload)
    };
    let mut bytes = b"FRDTRACE".to_vec();
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// A canonical trace of a few thousand events mixing construct events,
/// plain accesses and constant-stride bursts (which the writer encodes as
/// run events): a general genprog program with a burst of eight reads after
/// every strand start.
fn parser_fuzz_trace() -> Trace {
    let spec = generate_program(
        &GenConfig {
            max_depth: 6,
            max_actions: 10,
            num_locations: 64,
            max_accesses: 6,
            general_futures: true,
            ..GenConfig::structured()
        },
        7,
    );
    let (recorded, _) = record_spec(&spec);
    let mut trace = Trace::new();
    for event in recorded.events() {
        trace.push(*event);
        if let TraceEvent::StrandStart { strand, .. } = *event {
            for k in 0..8 {
                trace.push(TraceEvent::Read {
                    strand,
                    addr: MemAddr(0x9000 + 8 * k),
                    size: 8,
                });
            }
        }
    }
    trace
}

/// The parser itself meets malformed bytes: payloads corrupted *under a
/// re-stamped checksum* — cuts, bit flips and garbage blocks — give a typed
/// error or a clean decode, never a panic, and the same result under the v3
/// and the v4 header. The cuts cover the payload's last 64 bytes, where the
/// decoder's fast access loop hands over to its general path.
#[test]
fn corrupt_payloads_reach_the_parser_and_fail_cleanly() {
    let trace = parser_fuzz_trace();
    assert!(trace.len() > 2_000, "{} events", trace.len());
    assert!(trace.validate().is_ok(), "the fuzz input is canonical");
    let payload = trace.to_bytes()[20..].to_vec();
    let mut rng = StdRng::seed_from_u64(0x9A25E);
    let decode = |payload: &[u8]| {
        let v3 = Trace::from_bytes(&stamped(TRACE_VERSION_V3, payload));
        let v4 = Trace::from_bytes(&stamped(TRACE_VERSION, payload));
        match (&v3, &v4) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "v3 and v4 headers decode differently"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            _ => panic!("v3 and v4 headers disagree: {v3:?} vs {v4:?}"),
        }
        v4
    };
    assert_eq!(decode(&payload).expect("intact payload decodes"), trace);

    // A strict prefix of a payload always runs out mid-event.
    let tail_cuts = payload.len().saturating_sub(64)..payload.len();
    let random_cuts: Vec<usize> = (0..500).map(|_| rng.gen_range(0..payload.len())).collect();
    for cut in tail_cuts.chain(random_cuts) {
        match decode(&payload[..cut]) {
            Err(TraceError::Truncated) => {}
            other => panic!("cut at {cut}/{}: {other:?}", payload.len()),
        }
    }

    let mut clean = 0;
    for _ in 0..2_000 {
        let mut corrupt = payload.clone();
        let at = rng.gen_range(0..corrupt.len());
        corrupt[at] ^= 1 << rng.gen_range(0..8);
        match decode(&corrupt) {
            Ok(_) => clean += 1,
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    for _ in 0..200 {
        let mut corrupt = payload.clone();
        let at = rng.gen_range(0..corrupt.len());
        let len = rng.gen_range(1..=64.min(corrupt.len() - at));
        for b in &mut corrupt[at..at + len] {
            *b = rng.gen();
        }
        match decode(&corrupt) {
            Ok(_) => clean += 1,
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    // A flip inside an address or size field still parses, so some
    // corruptions must reach the end of the payload and decode cleanly.
    assert!(clean > 0, "no corruption decoded cleanly");
}

/// LEB128, as the trace writer encodes every field.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Hand-built bad events give the same typed error wherever they sit: in
/// the middle of a run of plain accesses (the decoder's fast loop) and in
/// the payload's last bytes (its general path), under both headers.
#[test]
fn hand_built_bad_events_give_the_same_typed_error_on_every_path() {
    const READ: u8 = 7;
    const READ_RUN: u8 = 10;
    // A read on the previous strand, 4 bytes past the previous address.
    const PLAIN: [u8; 4] = [READ, 0, 8, 4];
    let eleven_byte_varint = {
        let mut v = vec![0x80; 10];
        v.push(0);
        v
    };
    let wide = |value: u64| {
        let mut v = Vec::new();
        put_varint(&mut v, value);
        v
    };
    let access =
        |strand: &[u8], addr: &[u8], size: &[u8]| [&[READ][..], strand, addr, size].concat();
    let is_overflow = |e: &TraceError| matches!(e, TraceError::FieldOverflow);
    type Check = fn(&TraceError) -> bool;
    // (what, the event's bytes, the expected error)
    let cases: Vec<(&str, Vec<u8>, Check)> = vec![
        (
            "11-byte strand delta",
            access(&eleven_byte_varint, &[8], &[4]),
            is_overflow,
        ),
        (
            "11-byte address delta",
            access(&[0], &eleven_byte_varint, &[4]),
            is_overflow,
        ),
        (
            "11-byte size",
            access(&[0], &[8], &eleven_byte_varint),
            is_overflow,
        ),
        (
            "10-byte varint past 64 bits",
            access(&[0], &[[0xff; 9].as_slice(), &[2]].concat(), &[4]),
            is_overflow,
        ),
        (
            "strand delta above i32",
            access(&wide(zigzag(i64::from(i32::MAX) + 1)), &[8], &[4]),
            is_overflow,
        ),
        (
            "strand delta below i32",
            access(&wide(zigzag(i64::from(i32::MIN) - 1)), &[8], &[4]),
            is_overflow,
        ),
        (
            "size above u32::MAX",
            access(&[0], &[8], &wide(u64::from(u32::MAX) + 1)),
            is_overflow,
        ),
        ("unknown opcode", vec![12, 0, 8, 4], |e| {
            matches!(e, TraceError::BadOpcode(12))
        }),
        ("opcode 0xff", vec![0xff, 0, 8, 4], |e| {
            matches!(e, TraceError::BadOpcode(0xff))
        }),
        // A run of 200 reads where at most 51 events are left to declare.
        (
            "run overshooting the count",
            vec![READ_RUN, 0, 8, 4, 0xc8, 0x01, 8],
            |e| matches!(e, TraceError::TrailingData),
        ),
    ];
    for (what, bad, expected) in cases {
        // Mid-stream (≥ 32 bytes follow: the fast loop), at the very start
        // and as the last event (the general path).
        for (before, after) in [(50, 50), (0, 50), (50, 0), (0, 0)] {
            let mut payload = Vec::new();
            put_varint(&mut payload, (before + 1 + after) as u64);
            for _ in 0..before {
                payload.extend_from_slice(&PLAIN);
            }
            payload.extend_from_slice(&bad);
            for _ in 0..after {
                payload.extend_from_slice(&PLAIN);
            }
            for version in [TRACE_VERSION_V3, TRACE_VERSION] {
                match Trace::from_bytes(&stamped(version, &payload)) {
                    Err(e) if expected(&e) => {}
                    other => {
                        panic!("{what} ({before} before, {after} after, v{version}): {other:?}")
                    }
                }
            }
        }
    }
    // Control: the same frame around a good event decodes.
    let mut payload = Vec::new();
    put_varint(&mut payload, 101);
    for _ in 0..101 {
        payload.extend_from_slice(&PLAIN);
    }
    let decoded = Trace::from_bytes(&stamped(TRACE_VERSION, &payload)).expect("good frame");
    assert_eq!(
        decoded.events()[100],
        TraceEvent::Read {
            strand: StrandId(0),
            addr: MemAddr(404),
            size: 4
        }
    );
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
