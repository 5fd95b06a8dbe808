//! The `FRDIDX` sidecar codec: a compact LEB128 binary encoding of a frozen
//! reachability index, its freeze resume state, and (optionally) the cached
//! per-partition detection outcomes. The granule access stream is not
//! stored: the trace the sidecar binds to holds every access, and
//! `IncrementalFreezer::from_raw` rebuilds the stream from it on load.
//!
//! ## Layout
//!
//! ```text
//! magic      8 bytes   "FRDIDX\0\0"
//! version    u32 LE    INDEX_VERSION
//! checksum   u64 LE    hash64 of the payload bytes
//! payload:
//!   algorithm      u8                  0 = multibags, 1 = multibags+
//!   frozen_pos     varint              events frozen
//!   trace_hash     u64 LE              hash of the frozen event prefix
//!   bags           merge forest + live resume state
//!   nsp            flag + DNSP forest + stamped closure of R (multibags+ only):
//!                    per row its u64 LE bit words and the position of its
//!                    first arc, then (row, bit, position) for each bit a row
//!                    gained after its first arc
//!   outcomes       flag + cached partition results
//! ```
//!
//! Scalars, counts and the small per-set records are LEB128 varints; the
//! *bulk* arrays — strand/set tables and the closure's bit rows — are raw
//! little-endian words, because a warm load must be strictly cheaper than
//! refreezing and fixed-width rows decode at memcpy speed where per-element
//! varints do not. The checksum ([`hash64`], an
//! FNV-style hash folded over 8-byte words, shared with `FRDTRACE` v4 trace
//! files) is verified **before** the payload is decoded — a truncated or
//! bit-flipped sidecar is a typed [`StoreError`], never a panic, a hang, or
//! a silently wrong index (the structural validation of
//! `IncrementalFreezer::from_raw` backstops the vanishingly unlikely
//! checksum collision).

use crate::StoreError;
use futurerd_core::bitset::DynBitSet;
use futurerd_core::parallel::{
    PartitionOutcome, RawBagSet, RawBags, RawFreeze, RawNsp, RawNspSet, RAW_NONE,
};
use futurerd_core::replay::ReplayAlgorithm;
use futurerd_core::stats::DetectorStats;
use futurerd_core::{AccessKind, Race};
use futurerd_dag::{MemAddr, StrandId};

/// Magic bytes identifying an `FRDIDX` sidecar file.
pub const INDEX_MAGIC: [u8; 8] = *b"FRDIDX\0\0";
/// Current sidecar format version. Version 2 added the per-partition
/// access-history counters ([`DetectorStats`]) to cached outcomes; version 3
/// replaced the closure's dense 32-bit position per pair with bit rows and
/// per-row stamps; version 4 dropped the 16-byte copy of every granule
/// access, which the load now rebuilds from the trace. Older sidecars are
/// rejected as [`StoreError::UnsupportedVersion`], which the store treats
/// as a routine invalidation (refreeze cold, rewrite).
pub const INDEX_VERSION: u32 = 4;

/// The sidecar checksum, shared with the `FRDTRACE` v4 payload: FNV-style
/// multiply-xor folded over 8-byte little-endian words (plus a
/// length-salted tail), defined next to the trace codec in
/// `futurerd-dag` so one word checksum serves both formats.
pub use futurerd_dag::trace::hash64;

/// The decoded contents of an `FRDIDX` sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sidecar {
    /// Hash of the event prefix this index was frozen from (binds the
    /// sidecar to its trace; a mismatch means the trace was rewritten and
    /// the index is stale).
    pub trace_hash: u64,
    /// The freezer state (frozen timelines + resume state); with the event
    /// prefix it binds to, it restores the freezer and its access stream
    /// (`IncrementalFreezer::from_raw`).
    pub freeze: RawFreeze,
    /// Cached per-partition detection outcomes, if detection ran.
    pub outcomes: Option<Vec<PartitionOutcome>>,
}

// ---------------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A bounds-checked cursor over the (already checksum-verified) payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn is_empty(&self) -> bool {
        self.at >= self.bytes.len()
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        let b = *self.bytes.get(self.at).ok_or(StoreError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    /// Takes the next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let bytes = self.raw(N)?;
        bytes.first_chunk().copied().ok_or(StoreError::Truncated)
    }

    fn varint(&mut self) -> Result<u64, StoreError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 63 && byte > 1 {
                return Err(StoreError::FieldOverflow);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(StoreError::FieldOverflow);
            }
        }
    }

    fn u32v(&mut self) -> Result<u32, StoreError> {
        u32::try_from(self.varint()?).map_err(|_| StoreError::FieldOverflow)
    }

    /// A declared element count, sanity-capped by the bytes that remain (no
    /// element costs fewer than `min_bytes` bytes) so corrupt lengths cannot
    /// trigger huge allocations.
    fn count(&mut self, min_bytes: usize) -> Result<usize, StoreError> {
        let n = usize::try_from(self.varint()?).map_err(|_| StoreError::FieldOverflow)?;
        let remaining = self.bytes.len() - self.at;
        if n > remaining / min_bytes.max(1) {
            return Err(StoreError::Truncated);
        }
        Ok(n)
    }

    /// Takes the next `n` raw bytes.
    fn raw(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.at.checked_add(n).ok_or(StoreError::Truncated)?;
        let bytes = self.bytes.get(self.at..end).ok_or(StoreError::Truncated)?;
        self.at = end;
        Ok(bytes)
    }
}

/// `Option<u32>`-like fields: [`RAW_NONE`] encodes as 0, everything else as
/// `value + 1` — absent fields cost one byte instead of five.
fn put_opt(out: &mut Vec<u8>, value: u32) {
    put_varint(
        out,
        if value == RAW_NONE {
            0
        } else {
            u64::from(value) + 1
        },
    );
}

fn get_opt(r: &mut Reader<'_>) -> Result<u32, StoreError> {
    let v = r.varint()?;
    if v == 0 {
        return Ok(RAW_NONE);
    }
    u32::try_from(v - 1).map_err(|_| StoreError::FieldOverflow)
}

/// Bulk arrays (strand/set tables, closure rows) are raw little-endian
/// words: a varint-per-element decode of a multi-megabyte closure costs more
/// than the freeze it is supposed to replace; fixed-width rows decode at
/// memcpy speed. [`RAW_NONE`] is `u32::MAX` and needs no translation.
fn put_words<T: Copy, const N: usize>(out: &mut Vec<u8>, values: &[T], le: impl Fn(T) -> [u8; N]) {
    put_varint(out, values.len() as u64);
    for &v in values {
        out.extend_from_slice(&le(v));
    }
}

fn get_words<T, const N: usize>(
    r: &mut Reader<'_>,
    le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, StoreError> {
    let n = r.count(N)?;
    let (words, _) = r.raw(n * N)?.as_chunks();
    Ok(words.iter().map(|&w| le(w)).collect())
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

fn algorithm_tag(algorithm: ReplayAlgorithm) -> u8 {
    match algorithm {
        ReplayAlgorithm::MultiBags => 0,
        ReplayAlgorithm::MultiBagsPlus => 1,
        // INVARIANT: only freezable algorithms have a frozen form
        // (`IncrementalFreezer::new` refuses the rest).
        _ => unreachable!("only freezable algorithms are persisted"),
    }
}

fn algorithm_from_tag(tag: u8) -> Result<ReplayAlgorithm, StoreError> {
    match tag {
        0 => Ok(ReplayAlgorithm::MultiBags),
        1 => Ok(ReplayAlgorithm::MultiBagsPlus),
        other => Err(StoreError::Corrupt(format!(
            "unknown algorithm tag {other}"
        ))),
    }
}

fn access_kind_tag(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

fn access_kind_from_tag(tag: u8) -> Result<AccessKind, StoreError> {
    match tag {
        0 => Ok(AccessKind::Read),
        1 => Ok(AccessKind::Write),
        other => Err(StoreError::Corrupt(format!("unknown access kind {other}"))),
    }
}

fn put_bags(out: &mut Vec<u8>, bags: &RawBags) {
    put_words(out, &bags.set_of_strand, u32::to_le_bytes);
    put_varint(out, bags.sets.len() as u64);
    for set in &bags.sets {
        out.extend_from_slice(&set.relabel.to_le_bytes());
        out.extend_from_slice(&set.merged_pos.to_le_bytes());
        out.extend_from_slice(&set.merged_target.to_le_bytes());
    }
    put_words(out, &bags.live, u32::to_le_bytes);
    put_words(out, &bags.first_strand, u32::to_le_bytes);
}

fn get_bags(r: &mut Reader<'_>) -> Result<RawBags, StoreError> {
    let set_of_strand = get_words(r, u32::from_le_bytes)?;
    let n = r.count(12)?;
    let (words, _) = r.raw(n * 12)?.as_chunks::<4>();
    let (records, _) = words.as_chunks::<3>();
    let sets = records
        .iter()
        .map(|&[relabel, merged_pos, merged_target]| RawBagSet {
            relabel: u32::from_le_bytes(relabel),
            merged_pos: u32::from_le_bytes(merged_pos),
            merged_target: u32::from_le_bytes(merged_target),
        })
        .collect();
    Ok(RawBags {
        set_of_strand,
        sets,
        live: get_words(r, u32::from_le_bytes)?,
        first_strand: get_words(r, u32::from_le_bytes)?,
    })
}

fn put_nsp(out: &mut Vec<u8>, nsp: &RawNsp) {
    put_words(out, &nsp.set_of_strand, u32::to_le_bytes);
    put_varint(out, nsp.sets.len() as u64);
    for set in &nsp.sets {
        out.push(u8::from(set.birth_attached));
        put_varint(out, set.birth_node.into());
        put_opt(out, set.attached_pos);
        put_varint(out, set.attached_node.into());
        put_varint(out, set.att_succ.len() as u64);
        for &(pos, node) in &set.att_succ {
            put_varint(out, pos.into());
            put_varint(out, node.into());
        }
        put_opt(out, set.merged_pos);
        put_varint(out, set.merged_target.into());
    }
    put_words(out, &nsp.live, u32::to_le_bytes);
    put_varint(out, nsp.closure_rows.len() as u64);
    for (row, &first) in nsp.closure_rows.iter().zip(&nsp.first_arc) {
        put_words(out, &row.words, u64::to_le_bytes);
        put_opt(out, first);
    }
    put_varint(out, nsp.late_bits.len() as u64);
    for &(row, bit, pos) in &nsp.late_bits {
        put_varint(out, row.into());
        put_varint(out, bit.into());
        put_varint(out, pos.into());
    }
}

fn get_nsp(r: &mut Reader<'_>) -> Result<RawNsp, StoreError> {
    let set_of_strand = get_words(r, u32::from_le_bytes)?;
    let n = r.count(6)?;
    let mut sets = Vec::with_capacity(n);
    for _ in 0..n {
        let birth_attached = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown DNSP birth tag {other}"
                )))
            }
        };
        let birth_node = r.u32v()?;
        let attached_pos = get_opt(r)?;
        let attached_node = r.u32v()?;
        let n_succ = r.count(2)?;
        let mut att_succ = Vec::with_capacity(n_succ);
        for _ in 0..n_succ {
            att_succ.push((r.u32v()?, r.u32v()?));
        }
        sets.push(RawNspSet {
            birth_attached,
            birth_node,
            attached_pos,
            attached_node,
            att_succ,
            merged_pos: get_opt(r)?,
            merged_target: r.u32v()?,
        });
    }
    let live = get_words(r, u32::from_le_bytes)?;
    let n_rows = r.count(2)?;
    let mut closure_rows = Vec::with_capacity(n_rows);
    let mut first_arc = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        closure_rows.push(DynBitSet {
            words: get_words(r, u64::from_le_bytes)?,
        });
        first_arc.push(get_opt(r)?);
    }
    let n_late = r.count(3)?;
    let mut late_bits = Vec::with_capacity(n_late);
    for _ in 0..n_late {
        late_bits.push((r.u32v()?, r.u32v()?, r.u32v()?));
    }
    Ok(RawNsp {
        set_of_strand,
        sets,
        live,
        closure_rows,
        first_arc,
        late_bits,
    })
}

fn put_outcomes(out: &mut Vec<u8>, outcomes: &[PartitionOutcome]) {
    put_varint(out, outcomes.len() as u64);
    for outcome in outcomes {
        put_varint(out, outcome.range.start);
        put_varint(out, outcome.range.end);
        put_varint(out, outcome.observations);
        put_varint(out, outcome.witnesses.len() as u64);
        for &(pos, race) in &outcome.witnesses {
            put_varint(out, pos.into());
            put_varint(out, race.addr.0);
            put_varint(out, race.prior_strand.0.into());
            out.push(access_kind_tag(race.prior_kind));
            put_varint(out, race.current_strand.0.into());
            out.push(access_kind_tag(race.current_kind));
        }
        let s = &outcome.stats;
        for field in [
            s.read_checks,
            s.write_checks,
            s.readers_recorded,
            s.readers_cleared,
            s.races_found,
            s.shadow_pages,
        ] {
            put_varint(out, field);
        }
    }
}

fn get_outcomes(r: &mut Reader<'_>) -> Result<Vec<PartitionOutcome>, StoreError> {
    let n = r.count(4)?;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        let start = r.varint()?;
        let end = r.varint()?;
        if start > end {
            return Err(StoreError::Corrupt(format!(
                "inverted partition range {start}..{end}"
            )));
        }
        let observations = r.varint()?;
        let n_wit = r.count(6)?;
        let mut witnesses = Vec::with_capacity(n_wit);
        for _ in 0..n_wit {
            let pos = r.u32v()?;
            witnesses.push((
                pos,
                Race {
                    addr: MemAddr(r.varint()?),
                    prior_strand: StrandId(r.u32v()?),
                    prior_kind: access_kind_from_tag(r.u8()?)?,
                    current_strand: StrandId(r.u32v()?),
                    current_kind: access_kind_from_tag(r.u8()?)?,
                },
            ));
        }
        if (witnesses.len() as u64) > observations {
            return Err(StoreError::Corrupt(
                "more witnesses than observations".to_string(),
            ));
        }
        let stats = DetectorStats {
            read_checks: r.varint()?,
            write_checks: r.varint()?,
            readers_recorded: r.varint()?,
            readers_cleared: r.varint()?,
            races_found: r.varint()?,
            shadow_pages: r.varint()?,
        };
        if stats.races_found < observations {
            return Err(StoreError::Corrupt(
                "fewer races counted than observations".to_string(),
            ));
        }
        outcomes.push(PartitionOutcome {
            range: start..end,
            witnesses,
            observations,
            stats,
        });
    }
    Ok(outcomes)
}

// ---------------------------------------------------------------------------
// Whole-file encode/decode
// ---------------------------------------------------------------------------

/// Header bytes before the payload: magic, version, checksum.
const HEADER_LEN: usize = 20;
/// The longest varint of a `u32` / a `u64`.
const MAX_U32V: usize = 5;
const MAX_U64V: usize = 10;

/// An upper bound on the encoded size of a sidecar, from its section
/// lengths, so that [`encode_sidecar`] allocates its buffer once.
fn encoded_bound(sidecar: &Sidecar) -> usize {
    let u32_slice = |len: usize| MAX_U64V + 4 * len;
    let freeze = &sidecar.freeze;
    let bags = &freeze.bags;
    let mut bound = HEADER_LEN + 1 + MAX_U32V + 8;
    bound += u32_slice(bags.set_of_strand.len())
        + MAX_U64V
        + 12 * bags.sets.len()
        + u32_slice(bags.live.len())
        + u32_slice(bags.first_strand.len());
    bound += 1;
    if let Some(nsp) = &freeze.nsp {
        bound += u32_slice(nsp.set_of_strand.len()) + MAX_U64V;
        bound += nsp
            .sets
            .iter()
            .map(|set| 1 + 5 * MAX_U32V + MAX_U64V + 2 * MAX_U32V * set.att_succ.len())
            .sum::<usize>();
        bound += u32_slice(nsp.live.len()) + MAX_U64V;
        bound += (nsp.closure_rows.iter())
            .map(|row| MAX_U64V + 8 * row.words.len() + MAX_U32V)
            .sum::<usize>();
        bound += MAX_U64V + 3 * MAX_U32V * nsp.late_bits.len();
    }
    bound += 1;
    if let Some(outcomes) = &sidecar.outcomes {
        bound += MAX_U64V;
        bound += outcomes
            .iter()
            .map(|o| {
                4 * MAX_U64V + o.witnesses.len() * (3 * MAX_U32V + MAX_U64V + 2) + 6 * MAX_U64V
            })
            .sum::<usize>();
    }
    bound
}

/// Serializes a sidecar to bytes (header + checksummed payload) in one
/// buffer: the header goes first with a zero checksum, the payload follows,
/// and the checksum is patched in place once the payload is written.
pub fn encode_sidecar(sidecar: &Sidecar) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(encoded_bound(sidecar));
    bytes.extend_from_slice(&INDEX_MAGIC);
    bytes.extend_from_slice(&INDEX_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    debug_assert_eq!(bytes.len(), HEADER_LEN);
    bytes.push(algorithm_tag(sidecar.freeze.algorithm));
    put_varint(&mut bytes, sidecar.freeze.pos.into());
    bytes.extend_from_slice(&sidecar.trace_hash.to_le_bytes());
    put_bags(&mut bytes, &sidecar.freeze.bags);
    match &sidecar.freeze.nsp {
        None => bytes.push(0),
        Some(nsp) => {
            bytes.push(1);
            put_nsp(&mut bytes, nsp);
        }
    }
    match &sidecar.outcomes {
        None => bytes.push(0),
        Some(outcomes) => {
            bytes.push(1);
            put_outcomes(&mut bytes, outcomes);
        }
    }
    let checksum = hash64(&bytes[HEADER_LEN..]);
    bytes[12..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Deserializes a sidecar, verifying the header checksum **before** decoding
/// the payload. Every failure is a typed [`StoreError`].
pub fn decode_sidecar(bytes: &[u8]) -> Result<Sidecar, StoreError> {
    let mut header = Reader::new(bytes);
    if header.array::<8>().is_ok_and(|magic| magic != INDEX_MAGIC) {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(header.array()?);
    if version != INDEX_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let expected = u64::from_le_bytes(header.array()?);
    let payload = bytes.get(HEADER_LEN..).ok_or(StoreError::Truncated)?;
    let found = hash64(payload);
    if found != expected {
        return Err(StoreError::Checksum { expected, found });
    }

    let mut r = Reader::new(payload);
    let algorithm = algorithm_from_tag(r.u8()?)?;
    let pos = r.u32v()?;
    let trace_hash = u64::from_le_bytes(r.array()?);
    let bags = get_bags(&mut r)?;
    let nsp = match r.u8()? {
        0 => None,
        1 => Some(get_nsp(&mut r)?),
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown DNSP section tag {other}"
            )))
        }
    };
    let outcomes = match r.u8()? {
        0 => None,
        1 => Some(get_outcomes(&mut r)?),
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown outcomes section tag {other}"
            )))
        }
    };
    if !r.is_empty() {
        return Err(StoreError::TrailingData);
    }
    Ok(Sidecar {
        trace_hash,
        freeze: RawFreeze {
            algorithm,
            pos,
            bags,
            nsp,
        },
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use futurerd_core::parallel::IncrementalFreezer;
    use futurerd_dag::events::SpawnEvent;
    use futurerd_dag::trace::{Trace, TraceEvent};
    use futurerd_dag::FunctionId;

    fn sample_sidecar(algorithm: ReplayAlgorithm) -> Sidecar {
        let trace = sample_trace();
        let mut fz = IncrementalFreezer::new(algorithm).expect("freezable");
        fz.extend(trace.events());
        Sidecar {
            trace_hash: 0xdead_beef_cafe_f00d,
            freeze: fz.to_raw(),
            outcomes: Some(vec![PartitionOutcome {
                range: 0..1024,
                witnesses: vec![(
                    7,
                    Race {
                        addr: MemAddr(0x1000),
                        prior_strand: StrandId(1),
                        prior_kind: AccessKind::Write,
                        current_strand: StrandId(2),
                        current_kind: AccessKind::Read,
                    },
                )],
                observations: 3,
                stats: DetectorStats {
                    read_checks: 5,
                    write_checks: 2,
                    readers_recorded: 4,
                    readers_cleared: 1,
                    races_found: 3,
                    shadow_pages: 1,
                },
            }]),
        }
    }

    fn sample_trace() -> Trace {
        let root = FunctionId(0);
        let child = FunctionId(1);
        let mut t = Trace::new();
        t.push(TraceEvent::ProgramStart {
            root,
            first: StrandId(0),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(0),
            function: root,
        });
        t.push(TraceEvent::Spawn(SpawnEvent {
            parent: root,
            child,
            fork_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(1),
            function: child,
        });
        t.push(TraceEvent::Write {
            strand: StrandId(1),
            addr: MemAddr(0x1000),
            size: 4,
        });
        t.push(TraceEvent::Return {
            function: child,
            last: StrandId(1),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(2),
            function: root,
        });
        t.push(TraceEvent::Read {
            strand: StrandId(2),
            addr: MemAddr(0x1000),
            size: 4,
        });
        t
    }

    #[test]
    fn sidecar_round_trips() {
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            let sidecar = sample_sidecar(algorithm);
            let bytes = encode_sidecar(&sidecar);
            assert_eq!(&bytes[..8], &INDEX_MAGIC);
            let back = decode_sidecar(&bytes).expect("decodes");
            assert_eq!(back, sidecar, "{algorithm}");
        }
    }

    #[test]
    fn one_buffer_encoding_is_header_then_payload_within_its_bound() {
        let mut wide = sample_sidecar(ReplayAlgorithm::MultiBagsPlus);
        // Widest varints everywhere the outcomes allow them.
        if let Some(outcome) = wide.outcomes.as_mut().and_then(|o| o.first_mut()) {
            outcome.range = u64::MAX - 1..u64::MAX;
            outcome.observations = u64::MAX;
            outcome.witnesses[0].0 = u32::MAX;
            outcome.witnesses[0].1.addr = MemAddr(u64::MAX);
            outcome.stats.races_found = u64::MAX;
        }
        let mut bare = sample_sidecar(ReplayAlgorithm::MultiBags);
        bare.outcomes = None;
        let sidecars = [
            sample_sidecar(ReplayAlgorithm::MultiBags),
            sample_sidecar(ReplayAlgorithm::MultiBagsPlus),
            wide,
            bare,
        ];
        for sidecar in sidecars {
            // The payload written on its own, as a header-less encoder would.
            let mut payload = Vec::new();
            payload.push(algorithm_tag(sidecar.freeze.algorithm));
            put_varint(&mut payload, sidecar.freeze.pos.into());
            payload.extend_from_slice(&sidecar.trace_hash.to_le_bytes());
            put_bags(&mut payload, &sidecar.freeze.bags);
            match &sidecar.freeze.nsp {
                None => payload.push(0),
                Some(nsp) => {
                    payload.push(1);
                    put_nsp(&mut payload, nsp);
                }
            }
            match &sidecar.outcomes {
                None => payload.push(0),
                Some(outcomes) => {
                    payload.push(1);
                    put_outcomes(&mut payload, outcomes);
                }
            }
            let bytes = encode_sidecar(&sidecar);
            assert_eq!(&bytes[..8], &INDEX_MAGIC);
            assert_eq!(&bytes[8..12], &INDEX_VERSION.to_le_bytes());
            assert_eq!(&bytes[12..HEADER_LEN], &hash64(&payload).to_le_bytes());
            assert_eq!(&bytes[HEADER_LEN..], &payload[..]);
            assert!(bytes.len() <= encoded_bound(&sidecar));
            assert_eq!(decode_sidecar(&bytes).expect("decodes"), sidecar);
        }
    }

    #[test]
    fn sidecar_without_outcomes_round_trips() {
        let mut sidecar = sample_sidecar(ReplayAlgorithm::MultiBags);
        sidecar.outcomes = None;
        let bytes = encode_sidecar(&sidecar);
        assert_eq!(decode_sidecar(&bytes).expect("decodes"), sidecar);
    }

    #[test]
    fn decoder_rejects_bad_magic_version_and_flips() {
        let bytes = encode_sidecar(&sample_sidecar(ReplayAlgorithm::MultiBagsPlus));

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_sidecar(&bad), Err(StoreError::BadMagic)));

        // Version 2 kept a 32-bit position per closure pair, version 3 a
        // copy of the access stream.
        for version in [2, 3, 99] {
            let mut bad = bytes.clone();
            bad[8] = version;
            assert!(matches!(
                decode_sidecar(&bad),
                Err(StoreError::UnsupportedVersion(v)) if v == u32::from(version)
            ));
        }

        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        assert!(matches!(
            decode_sidecar(&bad),
            Err(StoreError::Checksum { .. })
        ));

        for cut in 0..20.min(bytes.len()) {
            assert!(decode_sidecar(&bytes[..cut]).is_err(), "header cut {cut}");
        }
    }

    #[test]
    fn hash64_is_length_and_content_sensitive() {
        assert_ne!(hash64(b""), hash64(b"\0"));
        assert_ne!(hash64(b"\0\0"), hash64(b"\0"));
        assert_ne!(hash64(b"abcdefgh"), hash64(b"abcdefgi"));
        assert_eq!(hash64(b"abcdefghij"), hash64(b"abcdefghij"));
    }
}
