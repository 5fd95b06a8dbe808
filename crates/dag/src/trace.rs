//! A persistent, serializable form of the execution event stream.
//!
//! The [`Observer`] callbacks of [`crate::events`] only exist for the
//! duration of one execution; a [`Trace`] reifies them as a vector of
//! [`TraceEvent`]s that can be written to disk, read back, and *replayed*
//! through any observer — in particular through the race detectors of
//! `futurerd-core`. Recording once and replaying many times decouples
//! *running* a program from *detecting* on it: the same trace can be fed to
//! MultiBags, MultiBags+, SP-Bags and the graph oracle, offline, repeatedly,
//! and (eventually) sharded across machines.
//!
//! ## The canonical serial-DF ordering invariant
//!
//! A valid trace is exactly the event sequence the sequential depth-first
//! eager executor (`futurerd-runtime::exec`) would emit for some program:
//!
//! * the stream starts with `ProgramStart` for function `f0`/strand `s0` and
//!   ends with `ProgramEnd`;
//! * every construct allocates its function and strand ids *densely, in
//!   event order* (a `Spawn` at a point where `n` strands exist names
//!   `s(n)` as the child's first strand and `s(n+1)` as the continuation);
//! * a spawned or created child runs eagerly to completion (its `Return`
//!   appears) before the parent's continuation strand starts;
//! * every memory access is attributed to the currently executing strand;
//! * `Sync` joins pending spawned children innermost-first, and every
//!   function's children are joined before its `Return` (the implicit sync).
//!
//! [`Trace::validate`] checks all of this and returns the stream's
//! [`TraceCounts`]. The detectors assume this discipline (their amortized
//! bounds depend on it), so replay entry points validate before detecting.
//!
//! ## On-disk format
//!
//! A compact binary encoding: the magic bytes `FRDTRACE`, a little-endian
//! `u32` format version, and the event count followed by the events, each an
//! opcode byte plus LEB128 varint fields. Memory accesses — which dominate
//! real traces — cost a handful of bytes each. The event types also carry
//! `serde` derives (via the vendored shim) so that swapping in the real
//! `serde` for JSON export stays a manifest-only change.
//!
//! Version 2 additionally **delta-encodes the access events**: the strand id
//! and the byte address of each `Read`/`Write` are stored as zigzag varint
//! deltas against the previous access. Accesses are overwhelmingly
//! same-strand (delta 0 → one byte) at near-sequential addresses (delta
//! ±granule → one byte), so dense access runs shrink from ~4–6 bytes to ~3
//! per event.
//!
//! Version 3 adds two things behind the version field:
//!
//! * **run-length encoded access bursts** — a maximal run of ≥
//!   [`MIN_ACCESS_RUN`] same-kind, same-strand, same-size accesses whose
//!   addresses advance by a constant stride (a dense sweep, a repeated
//!   granule, a strided column walk) collapses into one run event carrying
//!   the first address, the count and the stride;
//! * a **payload checksum** — a little-endian FNV-1a 64 hash ([`fnv1a64`])
//!   of the encoded payload (event count + events) stored right after the
//!   version field, so a bit flip anywhere in the body is a typed
//!   [`TraceError::Checksum`] instead of a silent mis-decode.
//!
//! Version 4 (the current writer format) keeps v3's payload byte for byte
//! and changes only the checksum: [`hash64`], the FNV-style multiply-xor
//! folded over 8-byte words that `FRDIDX` sidecars use too, instead of
//! byte-serial FNV-1a. On a 2 MB payload it is about 8× cheaper. A v4 file
//! therefore differs from the v3 file of the same trace only in bytes 8..20
//! (version and checksum).
//!
//! Versions 1–3 remain fully readable, pinned by bytes their writers
//! produced (`testdata/`); the writer emits only v4. One slice decoder
//! serves every version and entry point: [`Trace::from_bytes`] parses the
//! buffer in place, and [`Trace::load`] and [`Trace::read_from`] read the
//! whole input and hand it to the same decoder. In delta-coded streams (v2
//! and later) runs of plain `Read`/`Write` events decode in a tight loop
//! that checks field overflow once per event; construct events, run events
//! and the last 32 bytes of the payload take the general path. Both paths
//! give the same typed error for the same bytes.

use crate::events::{CreateFutureEvent, ForkInfo, GetFutureEvent, Observer, SpawnEvent, SyncEvent};
use crate::ids::{FunctionId, MemAddr, StrandId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic bytes identifying a trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"FRDTRACE";
/// Current format version: v3's payload (run-length encoded access bursts
/// on top of v2's delta encoding) under the word-folded [`hash64`] checksum.
pub const TRACE_VERSION: u32 = 4;
/// The run-length encoded format under a byte-serial [`fnv1a64`] checksum;
/// still readable, and its checksum still verified. Its payload is the
/// payload of the current version.
pub const TRACE_VERSION_V3: u32 = 3;
/// The delta-encoded format version (no run events, no checksum); still
/// readable.
pub const TRACE_VERSION_V2: u32 = 2;
/// The original format version (absolute fields everywhere); still
/// readable.
pub const TRACE_VERSION_V1: u32 = 1;

/// Minimum number of accesses collapsed into one v3 run event. Shorter
/// bursts are written as plain access events (a run header would not pay for
/// itself).
pub const MIN_ACCESS_RUN: usize = 3;

/// One event of the serialized execution stream — the persistent counterpart
/// of one [`Observer`] callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The program begins; `root` is the top-level function, `first` its
    /// first strand.
    ProgramStart {
        /// The root function instance.
        root: FunctionId,
        /// The root's first strand.
        first: StrandId,
    },
    /// `strand`, belonging to `function`, begins executing.
    StrandStart {
        /// The strand that starts.
        strand: StrandId,
        /// The function it belongs to.
        function: FunctionId,
    },
    /// A `spawn` construct.
    Spawn(SpawnEvent),
    /// A `create_fut` construct.
    CreateFuture(CreateFutureEvent),
    /// `function` returned; `last` is its final strand.
    Return {
        /// The returning function instance.
        function: FunctionId,
        /// Its final strand.
        last: StrandId,
    },
    /// One binary `sync` join.
    Sync(SyncEvent),
    /// A `get_fut` operation.
    GetFuture(GetFutureEvent),
    /// `strand` read `size` bytes at `addr`.
    Read {
        /// The reading strand.
        strand: StrandId,
        /// Base address of the access.
        addr: MemAddr,
        /// Access width in bytes.
        size: u32,
    },
    /// `strand` wrote `size` bytes at `addr`.
    Write {
        /// The writing strand.
        strand: StrandId,
        /// Base address of the access.
        addr: MemAddr,
        /// Access width in bytes.
        size: u32,
    },
    /// The program finished; `last` is the root's final strand.
    ProgramEnd {
        /// The final strand of the root function.
        last: StrandId,
    },
}

/// Errors produced while encoding, decoding or validating a trace.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O error.
    Io(io::Error),
    /// The input does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The input's format version is not supported.
    UnsupportedVersion(u32),
    /// The input ended in the middle of an event.
    Truncated,
    /// The input continues past the declared event count (corrupt or
    /// concatenated file).
    TrailingData,
    /// The trace is well-formed but the selected consumer cannot process it
    /// (e.g. SP-Bags on a stream that contains future constructs).
    Unsupported {
        /// Why the consumer rejects this trace.
        message: String,
    },
    /// An unknown event opcode.
    BadOpcode(u8),
    /// A varint field does not fit the expected integer width.
    FieldOverflow,
    /// The payload checksum of a v3 or v4 stream ([`fnv1a64`] or
    /// [`hash64`]) does not match its contents (a bit flip or torn write
    /// somewhere in the body).
    Checksum {
        /// The checksum stored in the header.
        expected: u64,
        /// The checksum computed over the decoded payload.
        found: u64,
    },
    /// The stream violates the canonical serial-DF ordering invariant.
    Invariant {
        /// Index of the offending event.
        index: usize,
        /// Human-readable description of the violation.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a futurerd trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (expected {TRACE_VERSION})"
                )
            }
            TraceError::Truncated => write!(f, "trace truncated mid-event"),
            TraceError::TrailingData => {
                write!(f, "trace continues past its declared event count")
            }
            TraceError::Unsupported { message } => {
                write!(f, "trace not supported by this consumer: {message}")
            }
            TraceError::BadOpcode(op) => write!(f, "unknown event opcode {op:#x}"),
            TraceError::FieldOverflow => write!(f, "varint field exceeds its integer width"),
            TraceError::Checksum { expected, found } => write!(
                f,
                "payload checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
            ),
            TraceError::Invariant { index, message } => {
                write!(
                    f,
                    "serial-DF invariant violated at event {index}: {message}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Per-construct totals of a validated trace; the persistent analogue of
/// `futurerd-runtime`'s `ExecutionSummary`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCounts {
    /// Function instances (root + spawned + futures).
    pub functions: u64,
    /// Strands allocated.
    pub strands: u64,
    /// `spawn` constructs.
    pub spawns: u64,
    /// `create_fut` constructs.
    pub creates: u64,
    /// Binary sync joins.
    pub syncs: u64,
    /// `get_fut` operations (the paper's `k`).
    pub gets: u64,
    /// Read events.
    pub reads: u64,
    /// Write events.
    pub writes: u64,
}

impl TraceCounts {
    /// Total memory-access events.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total parallelism-creating constructs (the paper's `n`).
    pub fn parallel_constructs(&self) -> u64 {
        self.spawns + self.creates
    }
}

impl std::fmt::Display for TraceCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} functions, {} strands, {} spawns, {} creates, {} syncs, {} gets, {} reads, {} writes",
            self.functions,
            self.strands,
            self.spawns,
            self.creates,
            self.syncs,
            self.gets,
            self.reads,
            self.writes
        )
    }
}

/// A recorded execution event stream in canonical serial-DF order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. Recorders use this; the canonical ordering is *not*
    /// checked here (call [`Trace::validate`] on the finished stream).
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// True if the trace contains any `create_fut` construct.
    pub fn has_futures(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TraceEvent::CreateFuture(_)))
    }

    /// True if no future is consumed more than once. Necessary but not
    /// sufficient for the *structured* regime ([`Trace::is_structured`]):
    /// a single-touch handle can still escape its creating task's scope.
    pub fn is_single_touch(&self) -> bool {
        self.events.iter().all(|e| match e {
            TraceEvent::GetFuture(ev) => ev.prior_touches == 0,
            _ => true,
        })
    }

    /// True if the trace uses futures in the *structured* regime MultiBags
    /// is sound for: every future is consumed at most once, by a `get_fut`
    /// positioned like a join within the creating task's scope.
    ///
    /// Under the canonical depth-first eager order a task's scope is its
    /// span on the call stack, so "within the creating task's scope" is
    /// checkable directly: at each `get_fut` the task that performed the
    /// `create_fut` must not have returned yet (the toucher is then the
    /// creator or one of its still-active descendants, which is exactly the
    /// handle-flows-down discipline). An upward escape — a handle returned
    /// to an ancestor and touched after its creator completed — leaves
    /// strands that precede the future stranded in never-joined P-bags, and
    /// MultiBags would report false positives.
    pub fn is_structured(&self) -> bool {
        let mut creating_task: std::collections::HashMap<FunctionId, FunctionId> =
            std::collections::HashMap::new();
        let mut returned: std::collections::HashSet<FunctionId> = std::collections::HashSet::new();
        self.events.iter().all(|e| match e {
            TraceEvent::CreateFuture(ev) => {
                creating_task.insert(ev.child, ev.parent);
                true
            }
            TraceEvent::Return { function, .. } => {
                returned.insert(*function);
                true
            }
            TraceEvent::GetFuture(ev) => {
                ev.prior_touches == 0
                    && creating_task
                        .get(&ev.future)
                        .is_some_and(|creator| !returned.contains(creator))
            }
            _ => true,
        })
    }

    /// Replays the trace through `observer`, invoking the callback matching
    /// each event in order, and returns the observer.
    pub fn replay<O: Observer>(&self, mut observer: O) -> O {
        self.replay_into(&mut observer);
        observer
    }

    /// Replays the trace through a borrowed observer.
    pub fn replay_into<O: Observer + ?Sized>(&self, observer: &mut O) {
        replay_events(&self.events, observer);
    }

    /// Serializes the trace to `writer` in the current binary format
    /// ([`TRACE_VERSION`]).
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), TraceError> {
        writer.write_all(&TRACE_MAGIC)?;
        writer.write_all(&TRACE_VERSION.to_le_bytes())?;
        // The checksum precedes the payload, so the encoded payload is
        // buffered once.
        let mut codec = Codec::new(TRACE_VERSION);
        let mut payload = Vec::new();
        write_varint(&mut payload, self.events.len() as u64)?;
        // Collapse maximal constant-stride access bursts into run events.
        let mut i = 0;
        while i < self.events.len() {
            let run = access_run_len(&self.events, i);
            if run >= MIN_ACCESS_RUN {
                encode_access_run(&mut payload, &self.events[i..i + run], &mut codec)?;
                i += run;
            } else {
                encode_event(&mut payload, &self.events[i], &mut codec)?;
                i += 1;
            }
        }
        writer.write_all(&hash64(&payload).to_le_bytes())?;
        writer.write_all(&payload)?;
        Ok(())
    }

    /// Deserializes a trace from `reader` (any supported format version):
    /// reads the input to its end and decodes it like
    /// [`Trace::from_bytes`].
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Self, TraceError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Serializes the trace to an in-memory buffer (current format version).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("writing to a Vec cannot fail");
        buf
    }

    /// Deserializes a trace from an in-memory buffer (any supported format
    /// version), decoding the bytes in place.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        Ok(Self {
            events: decode_file(bytes)?,
        })
    }

    /// Writes the trace to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut file)?;
        file.flush()?;
        Ok(())
    }

    /// Reads a trace from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Checks the canonical serial-DF ordering invariant (see the module
    /// docs) and returns the per-construct totals.
    pub fn validate(&self) -> Result<TraceCounts, TraceError> {
        let (counts, complete) = self.validate_prefix()?;
        if !complete {
            return Err(TraceError::Invariant {
                index: self.events.len(),
                message: "stream ended before ProgramEnd".to_string(),
            });
        }
        Ok(counts)
    }

    /// Checks that the stream is a **prefix** of some canonical serial-DF
    /// trace — the append-aware variant of [`Trace::validate`]. A growing
    /// recorded execution is canonical at every cut point, so a detection
    /// store can validate, freeze and detect on a trace that has not reached
    /// its `ProgramEnd` yet and keep appending events to it.
    ///
    /// Returns the per-construct totals of the prefix plus `true` when the
    /// stream is actually complete (ends with `ProgramEnd`).
    pub fn validate_prefix(&self) -> Result<(TraceCounts, bool), TraceError> {
        let mut validator = PrefixValidator::new();
        validator.extend(&self.events)
    }

    /// Appends every event of `suffix`, in order. Like [`Trace::push`], the
    /// canonical ordering is not checked here — call
    /// [`Trace::validate_prefix`] (or [`Trace::validate`]) on the extended
    /// stream.
    pub fn extend_events(&mut self, suffix: &[TraceEvent]) {
        self.events.extend_from_slice(suffix);
    }

    /// Removes and returns every event, leaving the trace empty — the
    /// drain used by the [`EventSource`](crate::source::EventSource)
    /// implementation, which hands a whole recorded trace to a streaming
    /// consumer in one chunk.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Replays a slice of events through a borrowed observer — the event-slice
/// form of [`Trace::replay_into`], used by incremental consumers that feed
/// an observer only the suffix appended since the last replay.
pub fn replay_events<O: Observer + ?Sized>(events: &[TraceEvent], observer: &mut O) {
    for event in events {
        match event {
            TraceEvent::ProgramStart { root, first } => observer.on_program_start(*root, *first),
            TraceEvent::StrandStart { strand, function } => {
                observer.on_strand_start(*strand, *function)
            }
            TraceEvent::Spawn(ev) => observer.on_spawn(ev),
            TraceEvent::CreateFuture(ev) => observer.on_create_future(ev),
            TraceEvent::Return { function, last } => observer.on_return(*function, *last),
            TraceEvent::Sync(ev) => observer.on_sync(ev),
            TraceEvent::GetFuture(ev) => observer.on_get_future(ev),
            TraceEvent::Read { strand, addr, size } => {
                observer.on_read(*strand, *addr, *size as usize)
            }
            TraceEvent::Write { strand, addr, size } => {
                observer.on_write(*strand, *addr, *size as usize)
            }
            TraceEvent::ProgramEnd { last } => observer.on_program_end(*last),
        }
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// Shared encode/decode state for the delta fields of v2+ streams: the
/// previous access's strand id and byte address (both start at 0). In v1
/// mode the codec is stateless and fields are absolute (read only: the
/// writer always delta-encodes), and run events exist from v3 on.
#[derive(Debug)]
struct Codec {
    delta: bool,
    runs: bool,
    prev_strand: u32,
    prev_addr: u64,
}

impl Codec {
    fn new(version: u32) -> Self {
        Self {
            delta: version >= 2,
            runs: version >= 3,
            prev_strand: 0,
            prev_addr: 0,
        }
    }

    fn encode_access_fields<W: Write>(
        &mut self,
        w: &mut W,
        strand: StrandId,
        addr: MemAddr,
    ) -> Result<(), TraceError> {
        // Wrapping deltas round-trip every value without overflow handling;
        // zigzag keeps small negative deltas small.
        let strand_delta = strand.0.wrapping_sub(self.prev_strand) as i32;
        let addr_delta = addr.0.wrapping_sub(self.prev_addr) as i64;
        write_varint(w, zigzag64(i64::from(strand_delta)))?;
        write_varint(w, zigzag64(addr_delta))?;
        self.prev_strand = strand.0;
        self.prev_addr = addr.0;
        Ok(())
    }
}

#[inline]
fn zigzag64(v: i64) -> u64 {
    // Shift in u64 space so extreme deltas cannot overflow the signed shift.
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

#[inline]
fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

const OP_PROGRAM_START: u8 = 0;
const OP_STRAND_START: u8 = 1;
const OP_SPAWN: u8 = 2;
const OP_CREATE_FUTURE: u8 = 3;
const OP_RETURN: u8 = 4;
const OP_SYNC: u8 = 5;
const OP_GET_FUTURE: u8 = 6;
const OP_READ: u8 = 7;
const OP_WRITE: u8 = 8;
const OP_PROGRAM_END: u8 = 9;
// v3 only: a constant-stride burst of ≥ MIN_ACCESS_RUN same-strand,
// same-size accesses, stored as (first strand/addr via the delta codec,
// size, count, zigzag stride).
const OP_READ_RUN: u8 = 10;
const OP_WRITE_RUN: u8 = 11;

/// FNV-1a 64, one byte at a time — the payload checksum of v3 streams
/// ([`TRACE_VERSION_V3`]), still verified when one is read.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The payload checksum of v4 streams ([`TRACE_VERSION`]) and of the
/// `FRDIDX` sidecars of `futurerd-store`: FNV-style multiply-xor folded over
/// 8-byte little-endian words, plus a length-salted tail. It reads a word
/// per step where [`fnv1a64`] reads a byte, so it is several times cheaper
/// on the multi-megabyte payloads replays and warm loads read. Like
/// FNV-1a, it detects every single-bit flip: each step is a bijection of
/// the running state for a fixed word.
pub fn hash64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64);
    for word in words {
        hash = (hash ^ u64::from_le_bytes(*word)).wrapping_mul(PRIME);
    }
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    (hash ^ u64::from_le_bytes(last)).wrapping_mul(PRIME)
}

/// Length of the maximal run-length-encodable access burst starting at
/// `events[i]`: same event kind (all reads or all writes), same strand, same
/// size, and addresses advancing by one constant (wrapping) stride.
fn access_run_len(events: &[TraceEvent], i: usize) -> usize {
    let (is_write, strand, addr, size) = match events[i] {
        TraceEvent::Read { strand, addr, size } => (false, strand, addr, size),
        TraceEvent::Write { strand, addr, size } => (true, strand, addr, size),
        _ => return 1,
    };
    let mut stride: Option<u64> = None;
    let mut prev = addr.0;
    let mut len = 1;
    for event in &events[i + 1..] {
        let (w, s, a, n) = match *event {
            TraceEvent::Read { strand, addr, size } => (false, strand, addr, size),
            TraceEvent::Write { strand, addr, size } => (true, strand, addr, size),
            _ => break,
        };
        if w != is_write || s != strand || n != size {
            break;
        }
        let step = a.0.wrapping_sub(prev);
        match stride {
            None => stride = Some(step),
            Some(st) if st == step => {}
            Some(_) => break,
        }
        prev = a.0;
        len += 1;
    }
    len
}

/// Encodes one access burst (all reads or all writes, validated by the
/// caller via [`access_run_len`]) as a single run event.
fn encode_access_run<W: Write>(
    w: &mut W,
    run: &[TraceEvent],
    codec: &mut Codec,
) -> Result<(), TraceError> {
    let (op, strand, addr, size) = match run[0] {
        TraceEvent::Read { strand, addr, size } => (OP_READ_RUN, strand, addr, size),
        TraceEvent::Write { strand, addr, size } => (OP_WRITE_RUN, strand, addr, size),
        _ => unreachable!("access_run_len only groups access events"),
    };
    let second = match run[1] {
        TraceEvent::Read { addr, .. } | TraceEvent::Write { addr, .. } => addr,
        _ => unreachable!("access_run_len only groups access events"),
    };
    let stride = second.0.wrapping_sub(addr.0);
    w.write_all(&[op])?;
    codec.encode_access_fields(w, strand, addr)?;
    write_varint(w, size.into())?;
    write_varint(w, run.len() as u64)?;
    write_varint(w, zigzag64(stride as i64))?;
    // The delta baseline continues from the *last* access of the run.
    codec.prev_addr = addr
        .0
        .wrapping_add(stride.wrapping_mul(run.len() as u64 - 1));
    Ok(())
}

fn write_varint<W: Write>(w: &mut W, mut value: u64) -> Result<(), TraceError> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn encode_event<W: Write>(
    w: &mut W,
    event: &TraceEvent,
    codec: &mut Codec,
) -> Result<(), TraceError> {
    match event {
        TraceEvent::ProgramStart { root, first } => {
            w.write_all(&[OP_PROGRAM_START])?;
            write_varint(w, root.0.into())?;
            write_varint(w, first.0.into())?;
        }
        TraceEvent::StrandStart { strand, function } => {
            w.write_all(&[OP_STRAND_START])?;
            write_varint(w, strand.0.into())?;
            write_varint(w, function.0.into())?;
        }
        TraceEvent::Spawn(ev) => {
            w.write_all(&[OP_SPAWN])?;
            for field in [
                ev.parent.0,
                ev.child.0,
                ev.fork_strand.0,
                ev.cont_strand.0,
                ev.child_first_strand.0,
            ] {
                write_varint(w, field.into())?;
            }
        }
        TraceEvent::CreateFuture(ev) => {
            w.write_all(&[OP_CREATE_FUTURE])?;
            for field in [
                ev.parent.0,
                ev.child.0,
                ev.creator_strand.0,
                ev.cont_strand.0,
                ev.child_first_strand.0,
            ] {
                write_varint(w, field.into())?;
            }
        }
        TraceEvent::Return { function, last } => {
            w.write_all(&[OP_RETURN])?;
            write_varint(w, function.0.into())?;
            write_varint(w, last.0.into())?;
        }
        TraceEvent::Sync(ev) => {
            w.write_all(&[OP_SYNC])?;
            for field in [
                ev.parent.0,
                ev.child.0,
                ev.pre_join_strand.0,
                ev.join_strand.0,
                ev.child_last_strand.0,
                ev.fork.pre_fork_strand.0,
                ev.fork.child_first_strand.0,
                ev.fork.cont_strand.0,
            ] {
                write_varint(w, field.into())?;
            }
        }
        TraceEvent::GetFuture(ev) => {
            w.write_all(&[OP_GET_FUTURE])?;
            for field in [
                ev.parent.0,
                ev.future.0,
                ev.pre_get_strand.0,
                ev.getter_strand.0,
                ev.future_last_strand.0,
                ev.prior_touches,
            ] {
                write_varint(w, field.into())?;
            }
        }
        TraceEvent::Read { strand, addr, size } => {
            w.write_all(&[OP_READ])?;
            codec.encode_access_fields(w, *strand, *addr)?;
            write_varint(w, (*size).into())?;
        }
        TraceEvent::Write { strand, addr, size } => {
            w.write_all(&[OP_WRITE])?;
            codec.encode_access_fields(w, *strand, *addr)?;
            write_varint(w, (*size).into())?;
        }
        TraceEvent::ProgramEnd { last } => {
            w.write_all(&[OP_PROGRAM_END])?;
            write_varint(w, last.0.into())?;
        }
    }
    Ok(())
}

/// Bytes a plain access event can occupy at most, plus one: an opcode and
/// three varints of at most 10 bytes each (a longer varint is an overflow
/// by its tenth byte). While this many bytes remain, the fast path decodes
/// an access without checking for the end of the payload.
const FAST_WINDOW: usize = 32;

/// Parses a whole trace file image: header, checksum (v3 and later) and
/// payload.
fn decode_file(bytes: &[u8]) -> Result<Vec<TraceEvent>, TraceError> {
    if header_field::<8>(bytes, 0)? != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = u32::from_le_bytes(header_field(bytes, 8)?);
    if !(TRACE_VERSION_V1..=TRACE_VERSION).contains(&version) {
        return Err(TraceError::UnsupportedVersion(version));
    }
    if version < TRACE_VERSION_V3 {
        return decode_payload(&bytes[12..], version);
    }
    // The payload is checksummed: verify it **before** decoding anything, so
    // corruption (including a flipped run count, which could otherwise
    // drive a huge expansion) is a typed error before any event is
    // materialized.
    let expected = u64::from_le_bytes(header_field(bytes, 12)?);
    let payload = &bytes[20..];
    let found = if version == TRACE_VERSION_V3 {
        fnv1a64(payload)
    } else {
        hash64(payload)
    };
    if found != expected {
        return Err(TraceError::Checksum { expected, found });
    }
    decode_payload(payload, version)
}

/// The `N` header bytes at `at`, or [`TraceError::Truncated`].
fn header_field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], TraceError> {
    bytes
        .get(at..)
        .and_then(<[u8]>::first_chunk::<N>)
        .copied()
        .ok_or(TraceError::Truncated)
}

/// Decodes a payload — the event count, then the events — of any format
/// version. A trace is the whole input: bytes past the declared event count
/// mean corruption (torn write, concatenation, or for checksummed versions
/// an encoder bug) and are rejected.
fn decode_payload(payload: &[u8], version: u32) -> Result<Vec<TraceEvent>, TraceError> {
    let mut decoder = Decoder {
        bytes: payload,
        at: 0,
        codec: Codec::new(version),
    };
    let count = decoder.varint()?;
    // Decoder safety bound, not a format limit: v3 run events mean a few
    // bytes can legitimately declare millions of events, so the declared
    // count is the only lever bounding decoder memory. 2^28 events is
    // ~100× the largest trace in the repo while capping a crafted or
    // corrupt stream at a few GB instead of an OOM abort. (Positions are
    // 32-bit throughout the detection stack anyway.)
    if count >= 1 << 28 {
        return Err(TraceError::FieldOverflow);
    }
    let count = count as usize;
    let mut events = Vec::with_capacity(count.min(1 << 20));
    while events.len() < count {
        if decoder.codec.delta {
            decoder.plain_accesses(&mut events, count)?;
            if events.len() == count {
                break;
            }
        }
        decoder.next_into(&mut events, count)?;
    }
    if decoder.at < payload.len() {
        return Err(TraceError::TrailingData);
    }
    Ok(events)
}

/// The one trace decoder: a cursor over an in-memory payload plus the delta
/// codec state.
struct Decoder<'a> {
    bytes: &'a [u8],
    at: usize,
    codec: Codec,
}

impl Decoder<'_> {
    fn byte(&mut self) -> Result<u8, TraceError> {
        let byte = *self.bytes.get(self.at).ok_or(TraceError::Truncated)?;
        self.at += 1;
        Ok(byte)
    }

    /// One LEB128 varint. A tenth byte above 1 would carry bits past the
    /// 64th: [`TraceError::FieldOverflow`].
    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return Err(TraceError::FieldOverflow);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    fn u32v(&mut self) -> Result<u32, TraceError> {
        u32::try_from(self.varint()?).map_err(|_| TraceError::FieldOverflow)
    }

    /// The strand and address of an access: zigzag deltas against the
    /// previous access (v2 and later) or absolute fields (v1).
    fn access_fields(&mut self) -> Result<(StrandId, MemAddr), TraceError> {
        if !self.codec.delta {
            return Ok((StrandId(self.u32v()?), MemAddr(self.varint()?)));
        }
        let strand_delta =
            i32::try_from(unzigzag64(self.varint()?)).map_err(|_| TraceError::FieldOverflow)?;
        let addr_delta = unzigzag64(self.varint()?);
        self.codec.prev_strand = self.codec.prev_strand.wrapping_add(strand_delta as u32);
        self.codec.prev_addr = self.codec.prev_addr.wrapping_add(addr_delta as u64);
        Ok((
            StrandId(self.codec.prev_strand),
            MemAddr(self.codec.prev_addr),
        ))
    }

    /// The fast path of delta-coded streams: decodes consecutive plain
    /// `Read`/`Write` events while [`FAST_WINDOW`] bytes remain, and
    /// returns at the first other event, near the end of the payload or at
    /// the declared count. Every error an access can raise here is
    /// [`TraceError::FieldOverflow`], so one flag checked once per event
    /// stands in for a `Result` per field.
    fn plain_accesses(
        &mut self,
        events: &mut Vec<TraceEvent>,
        declared: usize,
    ) -> Result<(), TraceError> {
        let (mut prev_strand, mut prev_addr) = (self.codec.prev_strand, self.codec.prev_addr);
        while events.len() < declared {
            let Some(window) = self.bytes[self.at..].first_chunk::<FAST_WINDOW>() else {
                break;
            };
            let op = window[0];
            if op != OP_READ && op != OP_WRITE {
                break;
            }
            let mut at = 1;
            let mut overflow = false;
            let strand_delta = unzigzag64(window_varint(window, &mut at, &mut overflow));
            let addr_delta = unzigzag64(window_varint(window, &mut at, &mut overflow));
            let size = window_varint(window, &mut at, &mut overflow);
            if overflow || i32::try_from(strand_delta).is_err() || size > u64::from(u32::MAX) {
                return Err(TraceError::FieldOverflow);
            }
            prev_strand = prev_strand.wrapping_add(strand_delta as u32);
            prev_addr = prev_addr.wrapping_add(addr_delta as u64);
            let (strand, addr, size) = (StrandId(prev_strand), MemAddr(prev_addr), size as u32);
            events.push(if op == OP_READ {
                TraceEvent::Read { strand, addr, size }
            } else {
                TraceEvent::Write { strand, addr, size }
            });
            self.at += at;
        }
        self.codec.prev_strand = prev_strand;
        self.codec.prev_addr = prev_addr;
        Ok(())
    }

    /// Decodes the next stored event into `events` on the general path.
    /// Plain events push one element; a v3+ run event expands into its
    /// `count` accesses. `declared` is the stream's declared total event
    /// count — a run that would overshoot it is corrupt and rejected before
    /// anything is expanded.
    fn next_into(
        &mut self,
        events: &mut Vec<TraceEvent>,
        declared: usize,
    ) -> Result<(), TraceError> {
        let op = self.byte()?;
        let event = match op {
            OP_PROGRAM_START => TraceEvent::ProgramStart {
                root: FunctionId(self.u32v()?),
                first: StrandId(self.u32v()?),
            },
            OP_STRAND_START => TraceEvent::StrandStart {
                strand: StrandId(self.u32v()?),
                function: FunctionId(self.u32v()?),
            },
            OP_SPAWN => TraceEvent::Spawn(SpawnEvent {
                parent: FunctionId(self.u32v()?),
                child: FunctionId(self.u32v()?),
                fork_strand: StrandId(self.u32v()?),
                cont_strand: StrandId(self.u32v()?),
                child_first_strand: StrandId(self.u32v()?),
            }),
            OP_CREATE_FUTURE => TraceEvent::CreateFuture(CreateFutureEvent {
                parent: FunctionId(self.u32v()?),
                child: FunctionId(self.u32v()?),
                creator_strand: StrandId(self.u32v()?),
                cont_strand: StrandId(self.u32v()?),
                child_first_strand: StrandId(self.u32v()?),
            }),
            OP_RETURN => TraceEvent::Return {
                function: FunctionId(self.u32v()?),
                last: StrandId(self.u32v()?),
            },
            OP_SYNC => TraceEvent::Sync(SyncEvent {
                parent: FunctionId(self.u32v()?),
                child: FunctionId(self.u32v()?),
                pre_join_strand: StrandId(self.u32v()?),
                join_strand: StrandId(self.u32v()?),
                child_last_strand: StrandId(self.u32v()?),
                fork: ForkInfo {
                    pre_fork_strand: StrandId(self.u32v()?),
                    child_first_strand: StrandId(self.u32v()?),
                    cont_strand: StrandId(self.u32v()?),
                },
            }),
            OP_GET_FUTURE => TraceEvent::GetFuture(GetFutureEvent {
                parent: FunctionId(self.u32v()?),
                future: FunctionId(self.u32v()?),
                pre_get_strand: StrandId(self.u32v()?),
                getter_strand: StrandId(self.u32v()?),
                future_last_strand: StrandId(self.u32v()?),
                prior_touches: self.u32v()?,
            }),
            OP_READ | OP_WRITE => {
                let (strand, addr) = self.access_fields()?;
                let size = self.u32v()?;
                if op == OP_READ {
                    TraceEvent::Read { strand, addr, size }
                } else {
                    TraceEvent::Write { strand, addr, size }
                }
            }
            OP_PROGRAM_END => TraceEvent::ProgramEnd {
                last: StrandId(self.u32v()?),
            },
            OP_READ_RUN | OP_WRITE_RUN if self.codec.runs => {
                return self.run_into(op == OP_WRITE_RUN, events, declared);
            }
            other => return Err(TraceError::BadOpcode(other)),
        };
        events.push(event);
        Ok(())
    }

    /// Expands the rest of a run event (its opcode is consumed).
    fn run_into(
        &mut self,
        is_write: bool,
        events: &mut Vec<TraceEvent>,
        declared: usize,
    ) -> Result<(), TraceError> {
        let (strand, first) = self.access_fields()?;
        let size = self.u32v()?;
        let count = self.varint()?;
        let stride = unzigzag64(self.varint()?) as u64;
        let count = usize::try_from(count).map_err(|_| TraceError::FieldOverflow)?;
        if count == 0 || count > declared - events.len() {
            return Err(TraceError::TrailingData);
        }
        events.extend((0..count as u64).map(|k| {
            let addr = MemAddr(first.0.wrapping_add(stride.wrapping_mul(k)));
            if is_write {
                TraceEvent::Write { strand, addr, size }
            } else {
                TraceEvent::Read { strand, addr, size }
            }
        }));
        // The delta baseline continues from the *last* access of the run.
        self.codec.prev_addr = first.0.wrapping_add(stride.wrapping_mul(count as u64 - 1));
        Ok(())
    }
}

/// One LEB128 varint of a fast-path access, starting at `window[*at]`. It
/// reads at most 10 bytes, so the three varints after an opcode stay inside
/// the window. Instead of returning an error, a value wider than 64 bits
/// sets `overflow`.
#[inline(always)]
fn window_varint(window: &[u8; FAST_WINDOW], at: &mut usize, overflow: &mut bool) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        // `*at` stays below FAST_WINDOW; the modulo (a mask) only lets the
        // compiler drop the bounds check.
        let byte = window[*at % FAST_WINDOW];
        *at += 1;
        if shift == 63 {
            *overflow |= byte > 1;
            return value | u64::from(byte) << 63;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Serial-DF invariant validation
// ---------------------------------------------------------------------------

/// What the validator expects the next event to be when the stream is
/// between constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Any construct/access of the currently executing strand.
    Executing,
    /// `StrandStart(strand, function)` that pushes a new frame.
    EnterFrame(StrandId, FunctionId),
    /// `StrandStart(strand, function)` that resumes the current frame.
    Resume(StrandId, FunctionId),
    /// `ProgramEnd { last }`.
    End(StrandId),
    /// Nothing: the stream is complete.
    Done,
}

/// How a suspended caller resumes once the eagerly executed child returns.
#[derive(Debug)]
enum Suspension {
    Spawned {
        parent: FunctionId,
        cont: StrandId,
        fork: ForkInfo,
    },
    Created {
        parent: FunctionId,
        cont: StrandId,
    },
}

#[derive(Debug)]
struct PendingJoin {
    child: FunctionId,
    fork: ForkInfo,
    child_last: StrandId,
}

#[derive(Debug)]
struct VFrame {
    pending: Vec<PendingJoin>,
}

#[derive(Debug)]
struct FutureState {
    last: StrandId,
    touches: u32,
}

#[derive(Debug)]
struct Validator {
    next_strand: u32,
    next_function: u32,
    expect: Expect,
    current: Option<(FunctionId, StrandId)>,
    frames: Vec<VFrame>,
    suspensions: Vec<Suspension>,
    futures: HashMap<FunctionId, FutureState>,
    counts: TraceCounts,
}

impl Default for Validator {
    fn default() -> Self {
        Self {
            next_strand: 0,
            next_function: 0,
            expect: Expect::Executing,
            current: None,
            frames: Vec::new(),
            suspensions: Vec::new(),
            futures: HashMap::new(),
            counts: TraceCounts::default(),
        }
    }
}

/// Incremental canonical-prefix validation: the state of
/// [`Trace::validate_prefix`] kept alive between appends.
///
/// A consumer of a *growing* event stream (a detection session ingesting
/// chunks as an execution runs) feeds each chunk through
/// [`extend`](PrefixValidator::extend) exactly once — total validation work
/// stays linear in the stream length no matter how many chunks it arrives
/// in, instead of quadratic from revalidating the whole prefix per append.
///
/// ```
/// use futurerd_dag::trace::{PrefixValidator, Trace, TraceEvent};
/// use futurerd_dag::{FunctionId, StrandId};
///
/// let mut t = Trace::new();
/// t.push(TraceEvent::ProgramStart { root: FunctionId(0), first: StrandId(0) });
/// t.push(TraceEvent::StrandStart { strand: StrandId(0), function: FunctionId(0) });
/// t.push(TraceEvent::Return { function: FunctionId(0), last: StrandId(0) });
/// t.push(TraceEvent::ProgramEnd { last: StrandId(0) });
///
/// let mut v = PrefixValidator::new();
/// for event in t.events() {
///     // One event at a time is the worst case — still linear overall.
///     let (_, complete) = v.extend(std::slice::from_ref(event)).unwrap();
///     assert_eq!(complete, v.is_complete());
/// }
/// assert!(v.is_complete());
/// assert_eq!(v.position(), t.len());
/// ```
#[derive(Debug, Default)]
pub struct PrefixValidator {
    inner: Validator,
    position: usize,
    poisoned: bool,
}

impl PrefixValidator {
    /// A validator that has accepted no events yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events accepted so far — the stream position the next
    /// [`extend`](PrefixValidator::extend) continues from.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Per-construct totals of the accepted prefix.
    pub fn counts(&self) -> TraceCounts {
        self.inner.counts
    }

    /// True once the stream has reached its `ProgramEnd`.
    pub fn is_complete(&self) -> bool {
        self.inner.expect == Expect::Done
    }

    /// Validates the next chunk of the stream, continuing from where the
    /// previous call stopped. Returns the totals of the whole accepted
    /// prefix plus whether the stream is now complete.
    ///
    /// On an invariant failure the reported index is the *global* stream
    /// position of the offending event, and the validator is poisoned:
    /// every later call returns the same class of error instead of
    /// accepting events after a known-corrupt point.
    pub fn extend(&mut self, events: &[TraceEvent]) -> Result<(TraceCounts, bool), TraceError> {
        if self.poisoned {
            return Err(TraceError::Invariant {
                index: self.position,
                message: "stream already failed validation at this position".to_string(),
            });
        }
        for event in events {
            if let Err(message) = self.inner.step(self.position, event) {
                self.poisoned = true;
                return Err(TraceError::Invariant {
                    index: self.position,
                    message,
                });
            }
            self.position += 1;
        }
        Ok((self.inner.counts, self.is_complete()))
    }
}

/// An access must end inside the address space: `size` bytes at `addr`
/// may reach `u64::MAX` but not wrap past it.
#[inline]
fn check_span(what: &str, addr: MemAddr, size: u32) -> Result<(), String> {
    if size > 0 && addr.0.checked_add(u64::from(size) - 1).is_none() {
        return Err(wrapping_access(what, addr, size));
    }
    Ok(())
}

#[cold]
fn wrapping_access(what: &str, addr: MemAddr, size: u32) -> String {
    format!("{what} of {size} bytes at {addr} runs past the end of the address space")
}

impl Validator {
    fn current(&self) -> Result<(FunctionId, StrandId), String> {
        self.current
            .ok_or_else(|| "no strand executing".to_string())
    }

    fn require_executing(&self, what: &str) -> Result<(), String> {
        if self.expect != Expect::Executing {
            return Err(format!("{what} while expecting {:?}", self.expect));
        }
        Ok(())
    }

    fn alloc_strand(&mut self) -> StrandId {
        let id = StrandId(self.next_strand);
        self.next_strand += 1;
        self.counts.strands += 1;
        id
    }

    fn alloc_function(&mut self) -> FunctionId {
        let id = FunctionId(self.next_function);
        self.next_function += 1;
        self.counts.functions += 1;
        id
    }

    fn check_child_allocation(
        &mut self,
        parent: FunctionId,
        fork_strand: StrandId,
        child: FunctionId,
        child_first: StrandId,
        cont: StrandId,
        what: &str,
    ) -> Result<(), String> {
        let (cur_fn, cur_strand) = self.current()?;
        if parent != cur_fn {
            return Err(format!("{what} parent {parent} but {cur_fn} is executing"));
        }
        if fork_strand != cur_strand {
            return Err(format!(
                "{what} from strand {fork_strand} but {cur_strand} is executing"
            ));
        }
        let expected_child = self.alloc_function();
        let expected_first = self.alloc_strand();
        let expected_cont = self.alloc_strand();
        if child != expected_child {
            return Err(format!("{what} child {child}, expected {expected_child}"));
        }
        if child_first != expected_first {
            return Err(format!(
                "{what} child first strand {child_first}, expected {expected_first}"
            ));
        }
        if cont != expected_cont {
            return Err(format!(
                "{what} continuation {cont}, expected {expected_cont}"
            ));
        }
        Ok(())
    }

    fn step(&mut self, index: usize, event: &TraceEvent) -> Result<(), String> {
        if self.expect == Expect::Done {
            return Err("event after ProgramEnd".to_string());
        }
        match event {
            TraceEvent::ProgramStart { root, first } => {
                if index != 0 {
                    return Err("ProgramStart not the first event".to_string());
                }
                let expected_root = self.alloc_function();
                let expected_first = self.alloc_strand();
                if *root != expected_root || *first != expected_first {
                    return Err(format!(
                        "program must start at {expected_root}/{expected_first}, got {root}/{first}"
                    ));
                }
                self.expect = Expect::EnterFrame(*first, *root);
            }
            TraceEvent::StrandStart { strand, function } => match self.expect {
                Expect::EnterFrame(s, f) => {
                    if (*strand, *function) != (s, f) {
                        return Err(format!(
                            "expected child strand start {s}/{f}, got {strand}/{function}"
                        ));
                    }
                    self.frames.push(VFrame {
                        pending: Vec::new(),
                    });
                    self.current = Some((f, s));
                    self.expect = Expect::Executing;
                }
                Expect::Resume(s, f) => {
                    if (*strand, *function) != (s, f) {
                        return Err(format!(
                            "expected resumption {s}/{f}, got {strand}/{function}"
                        ));
                    }
                    self.current = Some((f, s));
                    self.expect = Expect::Executing;
                }
                _ => return Err(format!("unexpected StrandStart({strand}, {function})")),
            },
            TraceEvent::Spawn(ev) => {
                self.require_executing("Spawn")?;
                self.check_child_allocation(
                    ev.parent,
                    ev.fork_strand,
                    ev.child,
                    ev.child_first_strand,
                    ev.cont_strand,
                    "Spawn",
                )?;
                self.counts.spawns += 1;
                self.suspensions.push(Suspension::Spawned {
                    parent: ev.parent,
                    cont: ev.cont_strand,
                    fork: ForkInfo {
                        pre_fork_strand: ev.fork_strand,
                        child_first_strand: ev.child_first_strand,
                        cont_strand: ev.cont_strand,
                    },
                });
                self.expect = Expect::EnterFrame(ev.child_first_strand, ev.child);
            }
            TraceEvent::CreateFuture(ev) => {
                self.require_executing("CreateFuture")?;
                self.check_child_allocation(
                    ev.parent,
                    ev.creator_strand,
                    ev.child,
                    ev.child_first_strand,
                    ev.cont_strand,
                    "CreateFuture",
                )?;
                self.counts.creates += 1;
                self.suspensions.push(Suspension::Created {
                    parent: ev.parent,
                    cont: ev.cont_strand,
                });
                self.expect = Expect::EnterFrame(ev.child_first_strand, ev.child);
            }
            TraceEvent::Return { function, last } => {
                self.require_executing("Return")?;
                let (cur_fn, cur_strand) = self.current()?;
                if *function != cur_fn || *last != cur_strand {
                    return Err(format!(
                        "Return({function}, {last}) but {cur_fn} is executing strand {cur_strand}"
                    ));
                }
                let frame = self.frames.pop().expect("frame stack tracks current");
                if !frame.pending.is_empty() {
                    return Err(format!(
                        "{function} returned with {} unjoined spawned children (missing implicit sync)",
                        frame.pending.len()
                    ));
                }
                match self.suspensions.pop() {
                    Some(Suspension::Spawned { parent, cont, fork }) => {
                        self.frames
                            .last_mut()
                            .expect("spawned child has a parent frame")
                            .pending
                            .push(PendingJoin {
                                child: *function,
                                fork,
                                child_last: *last,
                            });
                        self.expect = Expect::Resume(cont, parent);
                    }
                    Some(Suspension::Created { parent, cont }) => {
                        self.futures.insert(
                            *function,
                            FutureState {
                                last: *last,
                                touches: 0,
                            },
                        );
                        self.expect = Expect::Resume(cont, parent);
                    }
                    None => {
                        // The root returned.
                        self.expect = Expect::End(*last);
                    }
                }
                self.current = None;
            }
            TraceEvent::Sync(ev) => {
                self.require_executing("Sync")?;
                let (cur_fn, cur_strand) = self.current()?;
                if ev.parent != cur_fn || ev.pre_join_strand != cur_strand {
                    return Err(format!(
                        "Sync in {} from strand {} but {cur_fn}/{cur_strand} is executing",
                        ev.parent, ev.pre_join_strand
                    ));
                }
                let expected_join = self.alloc_strand();
                if ev.join_strand != expected_join {
                    return Err(format!(
                        "Sync join strand {}, expected {expected_join}",
                        ev.join_strand
                    ));
                }
                let frame = self.frames.last_mut().expect("frame stack tracks current");
                let Some(pending) = frame.pending.pop() else {
                    return Err("Sync with no spawned child pending".to_string());
                };
                if pending.child != ev.child
                    || pending.child_last != ev.child_last_strand
                    || pending.fork != ev.fork
                {
                    return Err(format!(
                        "Sync joins {} (last {}), but innermost pending child is {} (last {})",
                        ev.child, ev.child_last_strand, pending.child, pending.child_last
                    ));
                }
                self.counts.syncs += 1;
                self.expect = Expect::Resume(ev.join_strand, ev.parent);
            }
            TraceEvent::GetFuture(ev) => {
                self.require_executing("GetFuture")?;
                let (cur_fn, cur_strand) = self.current()?;
                if ev.parent != cur_fn || ev.pre_get_strand != cur_strand {
                    return Err(format!(
                        "GetFuture in {} from strand {} but {cur_fn}/{cur_strand} is executing",
                        ev.parent, ev.pre_get_strand
                    ));
                }
                let expected_getter = self.alloc_strand();
                if ev.getter_strand != expected_getter {
                    return Err(format!(
                        "GetFuture getter strand {}, expected {expected_getter}",
                        ev.getter_strand
                    ));
                }
                let Some(fut) = self.futures.get_mut(&ev.future) else {
                    return Err(format!("GetFuture of {} which is not a future", ev.future));
                };
                if fut.last != ev.future_last_strand {
                    return Err(format!(
                        "GetFuture of {} claims last strand {}, recorded {}",
                        ev.future, ev.future_last_strand, fut.last
                    ));
                }
                if fut.touches != ev.prior_touches {
                    return Err(format!(
                        "GetFuture of {} claims {} prior touches, observed {}",
                        ev.future, ev.prior_touches, fut.touches
                    ));
                }
                fut.touches += 1;
                self.counts.gets += 1;
                self.expect = Expect::Resume(ev.getter_strand, ev.parent);
            }
            TraceEvent::Read { strand, addr, size } => {
                self.require_executing("Read")?;
                let (_, cur_strand) = self.current()?;
                if *strand != cur_strand {
                    return Err(format!(
                        "Read attributed to {strand} while {cur_strand} is executing"
                    ));
                }
                check_span("Read", *addr, *size)?;
                self.counts.reads += 1;
            }
            TraceEvent::Write { strand, addr, size } => {
                self.require_executing("Write")?;
                let (_, cur_strand) = self.current()?;
                if *strand != cur_strand {
                    return Err(format!(
                        "Write attributed to {strand} while {cur_strand} is executing"
                    ));
                }
                check_span("Write", *addr, *size)?;
                self.counts.writes += 1;
            }
            TraceEvent::ProgramEnd { last } => {
                let Expect::End(expected) = self.expect else {
                    return Err("ProgramEnd before the root returned".to_string());
                };
                if *last != expected {
                    return Err(format!("ProgramEnd names {last}, root ended on {expected}"));
                }
                self.expect = Expect::Done;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical trace of: root spawns a child, both access memory,
    /// root syncs.
    fn fork_join_trace() -> Trace {
        let root = FunctionId(0);
        let child = FunctionId(1);
        let fork = ForkInfo {
            pre_fork_strand: StrandId(0),
            child_first_strand: StrandId(1),
            cont_strand: StrandId(2),
        };
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
        t.push(TraceEvent::Sync(SyncEvent {
            parent: root,
            child,
            pre_join_strand: StrandId(2),
            join_strand: StrandId(3),
            child_last_strand: StrandId(1),
            fork,
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(3),
            function: root,
        });
        t.push(TraceEvent::Return {
            function: root,
            last: StrandId(3),
        });
        t.push(TraceEvent::ProgramEnd { last: StrandId(3) });
        t
    }

    #[test]
    fn fork_join_trace_validates_with_expected_counts() {
        let counts = fork_join_trace().validate().expect("valid trace");
        assert_eq!(counts.functions, 2);
        assert_eq!(counts.strands, 4);
        assert_eq!(counts.spawns, 1);
        assert_eq!(counts.syncs, 1);
        assert_eq!(counts.reads, 1);
        assert_eq!(counts.writes, 1);
        assert_eq!(counts.accesses(), 2);
        assert_eq!(counts.parallel_constructs(), 1);
    }

    #[test]
    fn codec_round_trips_bytes() {
        let t = fork_join_trace();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("decodes");
        assert_eq!(t, back);
    }

    // `fork_join_trace` and the extreme-field trace of
    // `delta_codec_round_trips_extreme_fields`, as the retired v1, v2 and v3
    // writers encoded them.
    const FORK_JOIN_V1: &[u8] = include_bytes!("../testdata/fork_join.v1.frdtrace");
    const FORK_JOIN_V2: &[u8] = include_bytes!("../testdata/fork_join.v2.frdtrace");
    const FORK_JOIN_V3: &[u8] = include_bytes!("../testdata/fork_join.v3.frdtrace");
    const EXTREME_FIELDS_V1: &[u8] = include_bytes!("../testdata/extreme_fields.v1.frdtrace");
    const EXTREME_FIELDS_V2: &[u8] = include_bytes!("../testdata/extreme_fields.v2.frdtrace");
    const EXTREME_FIELDS_V3: &[u8] = include_bytes!("../testdata/extreme_fields.v3.frdtrace");

    /// A file image of `payload` under a checksummed header of `version`.
    fn stamped(version: u32, payload: &[u8]) -> Vec<u8> {
        let checksum = if version == TRACE_VERSION_V3 {
            fnv1a64(payload)
        } else {
            hash64(payload)
        };
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn older_streams_remain_readable_and_equivalent() {
        let t = fork_join_trace();
        let v4 = t.to_bytes();
        for (version, bytes) in [
            (1, FORK_JOIN_V1),
            (2, FORK_JOIN_V2),
            (3, FORK_JOIN_V3),
            (4, &v4),
        ] {
            assert_eq!(
                u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
                version
            );
            assert_eq!(
                Trace::from_bytes(bytes).expect("decodes"),
                t,
                "version {version}"
            );
        }
        assert_ne!(
            FORK_JOIN_V1, FORK_JOIN_V2,
            "the delta encoding changes the byte stream"
        );
        assert_ne!(
            FORK_JOIN_V2, FORK_JOIN_V3,
            "the checksum header changes the byte stream"
        );
        // v4 is v3's payload under another checksum: only the version and
        // checksum fields (bytes 8..20) differ.
        assert_eq!(v4.len(), FORK_JOIN_V3.len());
        assert_eq!(v4[..8], FORK_JOIN_V3[..8]);
        assert_eq!(v4[20..], FORK_JOIN_V3[20..]);
        assert_eq!(v4, stamped(TRACE_VERSION, &FORK_JOIN_V3[20..]));
        assert_eq!(FORK_JOIN_V3, stamped(TRACE_VERSION_V3, &FORK_JOIN_V3[20..]));
    }

    #[test]
    fn v3_collapses_constant_stride_bursts_and_round_trips() {
        // Mixed burst shapes: a forward sweep, a stride-0 repeat, a backward
        // sweep, a run interrupted by a non-access event, and sub-threshold
        // pairs that must stay plain events.
        let mut t = Trace::new();
        for i in 0..100u64 {
            t.push(TraceEvent::Read {
                strand: StrandId(3),
                addr: MemAddr(0x1000 + i * 4),
                size: 4,
            });
        }
        for _ in 0..10 {
            t.push(TraceEvent::Write {
                strand: StrandId(3),
                addr: MemAddr(0x40),
                size: 8,
            });
        }
        for i in 0..10u64 {
            t.push(TraceEvent::Read {
                strand: StrandId(3),
                addr: MemAddr(0x9000 - i * 16),
                size: 4,
            });
        }
        t.push(TraceEvent::Return {
            function: FunctionId(0),
            last: StrandId(3),
        });
        t.push(TraceEvent::Read {
            strand: StrandId(3),
            addr: MemAddr(0x10),
            size: 4,
        });
        t.push(TraceEvent::Read {
            strand: StrandId(3),
            addr: MemAddr(0x20),
            size: 2, // size change breaks the run
        });
        // The v2 encoding of this trace, recorded before the v2 writer was
        // retired.
        const V2_LEN: usize = 510;
        let v3 = t.to_bytes();
        assert!(
            v3.len() * 4 < V2_LEN,
            "expected ≥4× shrink from run-length encoding: v2={V2_LEN} v3={}",
            v3.len()
        );
        assert_eq!(Trace::from_bytes(&v3).expect("v3 decodes"), t);
    }

    #[test]
    fn decoder_caps_declared_event_count() {
        // A crafted stream with a *valid* checksum declaring 2^28 events
        // backed by a single run event must be rejected by the declared-count
        // safety bound before any expansion happens (typed error, no OOM),
        // under the v3 and the v4 checksum alike.
        let mut payload = Vec::new();
        write_varint(&mut payload, 1 << 28).unwrap();
        payload.push(OP_READ_RUN);
        let mut codec = Codec::new(TRACE_VERSION);
        codec
            .encode_access_fields(&mut payload, StrandId(0), MemAddr(0))
            .unwrap();
        write_varint(&mut payload, 4).unwrap(); // size
        write_varint(&mut payload, 1 << 28).unwrap(); // run count
        write_varint(&mut payload, zigzag64(4)).unwrap(); // stride
        for version in [TRACE_VERSION_V3, TRACE_VERSION] {
            assert!(
                matches!(
                    Trace::from_bytes(&stamped(version, &payload)),
                    Err(TraceError::FieldOverflow)
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn v3_detects_payload_bit_flips() {
        for encoded in [FORK_JOIN_V3, &fork_join_trace().to_bytes()] {
            let mut bytes = encoded.to_vec();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40;
            assert!(
                matches!(
                    Trace::from_bytes(&bytes),
                    Err(TraceError::Checksum { .. }) | Err(TraceError::TrailingData)
                ),
                "flip must be caught by the checksum (or the layout check)"
            );
        }
    }

    #[test]
    fn validate_prefix_accepts_every_canonical_cut() {
        let t = fork_join_trace();
        for cut in 0..=t.len() {
            let mut prefix = Trace::new();
            prefix.extend_events(&t.events()[..cut]);
            let (counts, complete) = prefix
                .validate_prefix()
                .unwrap_or_else(|e| panic!("prefix of {cut} events rejected: {e}"));
            assert_eq!(complete, cut == t.len());
            if cut < t.len() {
                assert!(prefix.validate().is_err(), "incomplete prefix of {cut}");
            } else {
                assert_eq!(counts, t.validate().expect("complete trace validates"));
            }
        }
    }

    #[test]
    fn validate_prefix_still_rejects_corrupt_streams() {
        let mut t = fork_join_trace();
        t.push(TraceEvent::ProgramEnd { last: StrandId(3) });
        assert!(t.validate_prefix().is_err());
    }

    #[test]
    fn delta_codec_round_trips_extreme_fields() {
        // Hand-built access runs with wild strand/address jumps (not a
        // canonical trace — the codec must round-trip regardless).
        let mut t = Trace::new();
        let patterns = [
            (0u32, 0u64),
            (u32::MAX, u64::MAX),
            (1, 0),
            (u32::MAX - 1, 1 << 63),
            (7, 0x1000),
            (7, 0x1004),
            (7, 0x0ffc),
        ];
        for (i, &(strand, addr)) in patterns.iter().enumerate() {
            let event = if i % 2 == 0 {
                TraceEvent::Read {
                    strand: StrandId(strand),
                    addr: MemAddr(addr),
                    size: 4,
                }
            } else {
                TraceEvent::Write {
                    strand: StrandId(strand),
                    addr: MemAddr(addr),
                    size: 8,
                }
            };
            t.push(event);
        }
        let v4 = t.to_bytes();
        assert_eq!(v4[20..], EXTREME_FIELDS_V3[20..]);
        for (version, bytes) in [
            (1, EXTREME_FIELDS_V1),
            (2, EXTREME_FIELDS_V2),
            (3, EXTREME_FIELDS_V3),
            (4, &v4),
        ] {
            assert_eq!(
                Trace::from_bytes(bytes).expect("decodes"),
                t,
                "version {version}"
            );
        }
    }

    #[test]
    fn delta_encoding_shrinks_dense_access_runs() {
        // A long same-strand sequential sweep: the dominant shape of real
        // traces. Its v2 encoding, recorded before the v2 writer was
        // retired, was half the v1 encoding (80014 bytes).
        const V2_LEN: usize = 40_018;
        let mut t = Trace::new();
        for i in 0..10_000u64 {
            t.push(TraceEvent::Read {
                strand: StrandId(42),
                addr: MemAddr(0x4000_0000 + i * 4),
                size: 4,
            });
        }
        let v3 = t.to_bytes().len();
        assert!(
            v3 < V2_LEN / 100,
            "one run event should replace the whole sweep: v2={V2_LEN} v3={v3}"
        );
    }

    #[test]
    fn decoder_rejects_bad_magic() {
        let mut bytes = fork_join_trace().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn decoder_rejects_future_version() {
        let mut bytes = fork_join_trace().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn decoder_rejects_trailing_bytes() {
        // v3 and v4 payloads are checksummed, so an appended byte surfaces
        // as a checksum mismatch (verified before decode); the
        // unchecksummed formats report the trailing data itself, and so do
        // checksummed ones whose checksum covers the extra byte.
        let v4 = fork_join_trace().to_bytes();
        for (version, encoded) in [(3, FORK_JOIN_V3), (4, &v4)] {
            let mut bytes = encoded.to_vec();
            bytes.push(0);
            assert!(
                matches!(Trace::from_bytes(&bytes), Err(TraceError::Checksum { .. })),
                "version {version}"
            );
            assert!(
                matches!(
                    Trace::from_bytes(&stamped(version, &bytes[20..])),
                    Err(TraceError::TrailingData)
                ),
                "version {version}, re-stamped"
            );
        }
        for (version, fixture) in [(1, FORK_JOIN_V1), (2, FORK_JOIN_V2)] {
            let mut bytes = fixture.to_vec();
            bytes.push(0);
            assert!(
                matches!(Trace::from_bytes(&bytes), Err(TraceError::TrailingData)),
                "version {version}"
            );
        }
    }

    #[test]
    fn decoder_rejects_truncation_anywhere() {
        let bytes = fork_join_trace().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Trace::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn replay_reproduces_the_callback_stream() {
        #[derive(Default)]
        struct Counter {
            spawns: usize,
            reads: usize,
            writes: usize,
            ends: usize,
        }
        impl Observer for Counter {
            fn on_spawn(&mut self, _ev: &SpawnEvent) {
                self.spawns += 1;
            }
            fn on_read(&mut self, _s: StrandId, _a: MemAddr, _n: usize) {
                self.reads += 1;
            }
            fn on_write(&mut self, _s: StrandId, _a: MemAddr, _n: usize) {
                self.writes += 1;
            }
            fn on_program_end(&mut self, _s: StrandId) {
                self.ends += 1;
            }
        }
        let c = fork_join_trace().replay(Counter::default());
        assert_eq!((c.spawns, c.reads, c.writes, c.ends), (1, 1, 1, 1));
    }

    #[test]
    fn validator_rejects_misattributed_access() {
        let mut t = fork_join_trace();
        // Rewrite the child's write to claim the continuation strand.
        let events = t.events.clone();
        t.events.clear();
        for ev in events {
            t.push(match ev {
                TraceEvent::Write { addr, size, .. } => TraceEvent::Write {
                    strand: StrandId(2),
                    addr,
                    size,
                },
                other => other,
            });
        }
        assert!(matches!(
            t.validate(),
            Err(TraceError::Invariant { index: 4, .. })
        ));
    }

    #[test]
    fn validator_rejects_accesses_past_the_address_space_end() {
        let head = [
            TraceEvent::ProgramStart {
                root: FunctionId(0),
                first: StrandId(0),
            },
            TraceEvent::StrandStart {
                strand: StrandId(0),
                function: FunctionId(0),
            },
        ];
        let strand = StrandId(0);
        // The last byte of the address space is accessible; one byte more
        // wraps, for reads and writes, in whole traces and in prefixes.
        for (addr, size, wraps) in [
            (u64::MAX, 1, false),
            (u64::MAX - 3, 4, false),
            (u64::MAX, 0, false),
            (u64::MAX, 2, true),
            (u64::MAX - 2, 4, true),
            (1 << 63, u32::MAX, false),
        ] {
            let addr = MemAddr(addr);
            for access in [
                TraceEvent::Read { strand, addr, size },
                TraceEvent::Write { strand, addr, size },
            ] {
                let mut t = Trace::new();
                t.extend_events(&head);
                t.push(access);
                let mut validator = PrefixValidator::new();
                match (validator.extend(t.events()), t.validate_prefix(), wraps) {
                    (Ok(_), Ok(_), false) => {}
                    (
                        Err(TraceError::Invariant { index: 2, message }),
                        Err(TraceError::Invariant { index: 2, .. }),
                        true,
                    ) => assert!(message.contains("end of the address space"), "{message}"),
                    other => panic!("{access:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn validator_rejects_out_of_order_allocation() {
        let mut t = Trace::new();
        t.push(TraceEvent::ProgramStart {
            root: FunctionId(0),
            first: StrandId(5),
        });
        assert!(t.validate().is_err());
    }

    #[test]
    fn validator_rejects_missing_program_end() {
        let mut t = fork_join_trace();
        t.events.pop();
        assert!(t.validate().is_err());
    }

    #[test]
    fn validator_rejects_return_with_unjoined_children() {
        let t = fork_join_trace();
        // Drop the Sync and its join StrandStart: root now returns with a
        // pending (never joined) spawned child.
        let mut bad = Trace::new();
        for ev in t.events() {
            match ev {
                TraceEvent::Sync(_) => {}
                TraceEvent::StrandStart {
                    strand: StrandId(3),
                    ..
                } => {}
                TraceEvent::Return {
                    function: FunctionId(0),
                    ..
                } => bad.push(TraceEvent::Return {
                    function: FunctionId(0),
                    last: StrandId(2),
                }),
                TraceEvent::ProgramEnd { .. } => {
                    bad.push(TraceEvent::ProgramEnd { last: StrandId(2) })
                }
                other => bad.push(*other),
            }
        }
        let err = bad.validate().unwrap_err();
        assert!(
            err.to_string().contains("unjoined"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn single_touch_and_future_queries() {
        let t = fork_join_trace();
        assert!(!t.has_futures());
        assert!(t.is_single_touch());
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            let mut decoder = Decoder {
                bytes: &buf,
                at: 0,
                codec: Codec::new(TRACE_VERSION),
            };
            assert_eq!(decoder.varint().unwrap(), v);
            assert_eq!(decoder.at, buf.len());
        }
    }

    /// [`decode_payload`] with the fast access loop switched off: every
    /// event takes the general path.
    fn decode_general(payload: &[u8], version: u32) -> Result<Vec<TraceEvent>, TraceError> {
        let mut decoder = Decoder {
            bytes: payload,
            at: 0,
            codec: Codec::new(version),
        };
        let count = decoder.varint()?;
        if count >= 1 << 28 {
            return Err(TraceError::FieldOverflow);
        }
        let mut events = Vec::new();
        while events.len() < count as usize {
            decoder.next_into(&mut events, count as usize)?;
        }
        if decoder.at < payload.len() {
            return Err(TraceError::TrailingData);
        }
        Ok(events)
    }

    #[test]
    fn fast_and_general_paths_agree_on_corrupt_payloads() {
        // Accesses with multi-byte strand, address and size fields, bursts
        // the writer turns into run events, and construct events.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = fork_join_trace();
        for i in 0..500u64 {
            let strand = StrandId((next() % 5) as u32 * 40_000);
            let addr = MemAddr(next() >> (next() % 64));
            let size = [1, 4, 8, 1 << 20][(next() % 4) as usize];
            t.push(if i % 3 == 0 {
                TraceEvent::Write { strand, addr, size }
            } else {
                TraceEvent::Read { strand, addr, size }
            });
            if i % 97 == 0 {
                for k in 0..6 {
                    t.push(TraceEvent::Read {
                        strand,
                        addr: MemAddr(addr.0.wrapping_add(16 * k)),
                        size,
                    });
                }
                t.extend_events(&fork_join_trace().events()[2..3]);
            }
        }
        let payload = t.to_bytes()[20..].to_vec();
        let agree = |payload: &[u8]| {
            let (fast, general) = (
                decode_payload(payload, TRACE_VERSION),
                decode_general(payload, TRACE_VERSION),
            );
            match (&fast, &general) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                _ => panic!("fast {fast:?} vs general {general:?}"),
            }
            fast.is_ok()
        };
        assert!(agree(&payload));
        assert_eq!(decode_payload(&payload, TRACE_VERSION).unwrap(), t.events());
        let tail = payload.len() - 64..payload.len();
        for cut in (0..payload.len()).step_by(5).chain(tail) {
            assert!(!agree(&payload[..cut]), "cut at {cut}");
        }
        for _ in 0..3_000 {
            let mut corrupt = payload.clone();
            let at = (next() % corrupt.len() as u64) as usize;
            corrupt[at] ^= 1 << (next() % 8);
            agree(&corrupt);
        }
        for _ in 0..300 {
            let mut corrupt = payload.clone();
            let at = (next() % corrupt.len() as u64) as usize;
            let len = 1 + (next() % 32) as usize;
            for b in corrupt.iter_mut().skip(at).take(len) {
                *b = next() as u8;
            }
            agree(&corrupt);
        }
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let t = fork_join_trace();
        let path =
            std::env::temp_dir().join(format!("futurerd-trace-test-{}.bin", std::process::id()));
        t.save(&path).expect("save");
        let back = Trace::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(t, back);
    }
}
