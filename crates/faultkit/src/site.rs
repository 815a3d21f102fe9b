//! The fault-site registry: every injection the campaign performs, as a
//! static table so coverage is enumerable (and the campaign's tests can pin
//! how many sites ran).
//!
//! Each site is a pure function from a seeded RNG to an [`Outcome`]: it
//! builds a healthy fixture, corrupts it in one specific seeded way, feeds
//! it to the layer under test, and demands the layer reject it *with the
//! right classification* — a rejection with the wrong label is
//! [`Outcome::Absorbed`], because a mislabeled fault sends an operator
//! hunting in the wrong layer.

use rand::rngs::StdRng;
use rand::Rng;

use dss_memsim::protocol::{self, ExploreConfig, Kernel, KernelFault};
use dss_memsim::{Machine, MachineConfig, Protocol, MAX_PROCS};
use dss_tpcd::{from_tbl, table_def, ColType, TableDef};
use dss_trace::{
    check_lock_discipline, read_trace_blocks, write_trace_blocks, DataClass, LockClass,
    LockDisciplineError, LockToken, Trace, Tracer,
};

use crate::Outcome;

/// One named fault-injection site.
pub struct Site {
    /// Stable dotted name, `layer.component.fault` (e.g.
    /// `"trace.io.bit-flip"`): the seed of the site's RNG stream and the key
    /// campaign reports are compared by.
    pub name: &'static str,
    /// The layer under test, for grouping in reports.
    pub layer: &'static str,
    /// The classification the layer must produce for the fault.
    pub expect: &'static str,
    /// Injects the fault and reports what the layer did.
    pub run: fn(&mut StdRng) -> Outcome,
}

/// Every registered site, in stable order. The cache-state site needs the
/// per-transaction observer and is compiled in only with `check-invariants`.
pub fn sites() -> &'static [Site] {
    SITES
}

static SITES: &[Site] = &[
    Site {
        name: "trace.io.empty-file",
        layer: "trace codec",
        expect: "truncated",
        run: empty_file,
    },
    Site {
        name: "trace.io.bad-magic",
        layer: "trace codec",
        expect: "bad-magic",
        run: bad_magic,
    },
    Site {
        name: "trace.io.header-only",
        layer: "trace codec",
        expect: "truncated",
        run: header_only,
    },
    Site {
        name: "trace.io.truncated-event",
        layer: "trace codec",
        expect: "truncated",
        run: truncated_event,
    },
    Site {
        name: "trace.io.count-overrun",
        layer: "trace codec",
        expect: "truncated",
        run: count_overrun,
    },
    Site {
        name: "trace.io.bit-flip",
        layer: "trace codec",
        expect: "any classified error",
        run: bit_flip,
    },
    Site {
        name: "trace.io.bad-tag",
        layer: "trace codec",
        expect: "corrupt",
        run: bad_tag,
    },
    Site {
        name: "trace.io.bad-class",
        layer: "trace codec",
        expect: "corrupt",
        run: bad_class,
    },
    Site {
        name: "trace.io.bad-lock-class",
        layer: "trace codec",
        expect: "corrupt",
        run: bad_lock_class,
    },
    Site {
        name: "trace.blocks.truncated-mid-block",
        layer: "trace codec",
        expect: "truncated",
        run: block_truncated,
    },
    Site {
        name: "trace.blocks.chunk-seed-mismatch",
        layer: "trace codec",
        expect: "corrupt",
        run: block_chunk_swap,
    },
    Site {
        name: "trace.check.lock-truncated",
        layer: "trace semantics",
        expect: "lock-held-at-end",
        run: lock_truncated,
    },
    Site {
        name: "trace.check.stray-release",
        layer: "trace semantics",
        expect: "release-unheld",
        run: stray_release,
    },
    Site {
        name: "tpcd.tbl.arity",
        layer: "database loader",
        expect: "field-count mismatch",
        run: tbl_arity,
    },
    Site {
        name: "tpcd.tbl.bad-int",
        layer: "database loader",
        expect: "bad integer",
        run: tbl_bad_int,
    },
    Site {
        name: "tpcd.tbl.bad-date",
        layer: "database loader",
        expect: "bad date",
        run: tbl_bad_date,
    },
    Site {
        name: "tpcd.tbl.bad-decimal",
        layer: "database loader",
        expect: "bad decimal",
        run: tbl_bad_decimal,
    },
    Site {
        name: "memsim.dir.sharer-mask",
        layer: "coherence state",
        expect: "invariant violation",
        run: dir_sharer_mask,
    },
    Site {
        name: "memsim.dir.stale-owner",
        layer: "coherence state",
        expect: "invariant violation",
        run: dir_stale_owner,
    },
    Site {
        name: "protocol.kernel.silent-upgrade-msi",
        layer: "protocol kernel",
        expect: protocol::RULE_WRITABLE_NOT_OWNER,
        run: kernel_silent_upgrade_msi,
    },
    Site {
        name: "protocol.kernel.stale-owner",
        layer: "protocol kernel",
        expect: protocol::RULE_OWNER_NO_COPY,
        run: kernel_stale_owner,
    },
    #[cfg(feature = "check-invariants")]
    Site {
        name: "memsim.cache.state",
        layer: "coherence state",
        expect: "invariant violation",
        run: cache_state,
    },
];

// --- fixtures ---------------------------------------------------------------

/// Events per block in the fixtures: small enough that [`block_trace`]
/// spans several blocks, large enough that [`sample_trace`] is exactly one,
/// fixed so byte offsets are computable.
const BLOCK_EVENTS: usize = 16;
/// Number of full blocks [`block_trace`] encodes.
const BLOCKS: usize = 4;
/// Stream header size: magic, processor id, header checksum.
const BLOCK_HEADER: usize = 24;
/// Byte size of one event record: the packed word, little-endian.
const RECORD: usize = 8;
/// Byte offset of the first block's first event record (past its count and
/// chunk index).
const FIRST_RECORD: usize = BLOCK_HEADER + 16;
/// Byte size of one full block: count, chunk index, records, checksum.
const BLOCK_SIZE: usize = 8 + 8 + BLOCK_EVENTS * RECORD + 8;
/// Byte size of the end-of-stream marker: a zero count, the next chunk
/// index, checksum.
const END_MARKER: usize = 24;

/// A small, representative trace: a data Ref first (the `bad-class` site
/// targets its record), then a locked critical section and a busy spin.
fn sample_trace(rng: &mut StdRng) -> Trace {
    let t = Tracer::new(rng.gen_range(0..4usize));
    let base = dss_shmem::SHARED_BASE + rng.gen_range(0..1024u64) * 64;
    t.read(base, 8, DataClass::Data);
    t.lock_acquire(LockToken::new(0x40, LockClass::LockMgr));
    t.write(base + 64, 8, DataClass::Index);
    t.lock_release(LockToken::new(0x40, LockClass::LockMgr));
    t.busy(rng.gen_range(1..10_000u32));
    t.take()
}

/// A trace of exactly [`BLOCKS`]` × `[`BLOCK_EVENTS`] uniform events, so its
/// encoding is [`BLOCKS`] byte-interchangeable full blocks (every record is
/// [`RECORD`] bytes; only the chunk index distinguishes equal-count blocks)
/// plus the end marker.
fn block_trace(rng: &mut StdRng) -> Trace {
    let t = Tracer::new(rng.gen_range(0..4usize));
    let base = dss_shmem::SHARED_BASE + rng.gen_range(0..1024u64) * 64;
    for i in 0..(BLOCKS * BLOCK_EVENTS) as u64 {
        t.read(base + i * 8, 8, DataClass::Data);
    }
    t.take()
}

/// Serializes a trace as a block stream; in-memory writes cannot fail, so a
/// `None` here means the fixture itself is broken (reported as a skip by
/// callers).
fn encode(trace: &Trace) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    write_trace_blocks(trace, &mut buf, BLOCK_EVENTS).ok()?;
    Some(buf)
}

fn skipped(reason: &str) -> Outcome {
    Outcome::Skipped {
        reason: reason.to_string(),
    }
}

/// Feeds corrupted bytes to the decoder and demands error kind `want`.
fn classify_read(bytes: &[u8], want: &str) -> Outcome {
    match read_trace_blocks(bytes) {
        Err(e) if e.kind() == want => Outcome::Detected {
            classification: e.kind().to_string(),
        },
        Err(e) => Outcome::Absorbed {
            detail: format!(
                "detected, but classified {:?} where {want:?} was demanded: {e}",
                e.kind()
            ),
        },
        Ok(t) => Outcome::Absorbed {
            detail: format!("decoded {} events from corrupt input", t.events.len()),
        },
    }
}

/// Feeds corrupted bytes to the decoder; any structured error counts (the
/// bit-flip site cannot know which field a random bit lands in).
fn classify_read_any(bytes: &[u8]) -> Outcome {
    match read_trace_blocks(bytes) {
        Err(e) => Outcome::Detected {
            classification: e.kind().to_string(),
        },
        Ok(t) => Outcome::Absorbed {
            detail: format!("decoded {} events from corrupt input", t.events.len()),
        },
    }
}

// --- trace codec sites ------------------------------------------------------

/// A zero-byte trace file (created, never written).
fn empty_file(_rng: &mut StdRng) -> Outcome {
    classify_read(&[], "truncated")
}

/// One flipped bit inside the magic: the file is no longer a DSS trace.
fn bad_magic(rng: &mut StdRng) -> Outcome {
    let Some(mut buf) = encode(&sample_trace(rng)) else {
        return skipped("trace fixture failed to encode");
    };
    let i = rng.gen_range(0..8usize);
    buf[i] ^= 1u8 << rng.gen_range(0..8u32);
    classify_read(&buf, "bad-magic")
}

/// Magic plus a partial header: the classic interrupted-write shape.
fn header_only(rng: &mut StdRng) -> Outcome {
    let Some(mut buf) = encode(&sample_trace(rng)) else {
        return skipped("trace fixture failed to encode");
    };
    buf.truncate(8 + rng.gen_range(0..16usize));
    classify_read(&buf, "truncated")
}

/// The stream cut somewhere inside the (single) block's event records.
fn truncated_event(rng: &mut StdRng) -> Outcome {
    let trace = sample_trace(rng);
    let Some(mut buf) = encode(&trace) else {
        return skipped("trace fixture failed to encode");
    };
    let records_end = FIRST_RECORD + trace.events.len() * RECORD;
    buf.truncate(rng.gen_range(FIRST_RECORD..records_end));
    classify_read(&buf, "truncated")
}

/// A block header promises more events than the stream carries: the end
/// marker's zero count is bumped, so the reader looks for records where only
/// the marker's checksum remains. (From 2: a count of 1 would find exactly
/// that one word and judge it as an event instead.)
fn count_overrun(rng: &mut StdRng) -> Outcome {
    let Some(mut buf) = encode(&sample_trace(rng)) else {
        return skipped("trace fixture failed to encode");
    };
    let count = buf.len() - END_MARKER;
    let bumped = rng.gen_range(2..1000u64);
    buf[count..count + 8].copy_from_slice(&bumped.to_le_bytes());
    classify_read(&buf, "truncated")
}

/// One flipped bit anywhere after the magic — stream or block header, any
/// event field, a checksum, or the end marker. Whatever it hits must surface
/// as *some* error.
fn bit_flip(rng: &mut StdRng) -> Outcome {
    let Some(mut buf) = encode(&sample_trace(rng)) else {
        return skipped("trace fixture failed to encode");
    };
    let pos = rng.gen_range(8..buf.len());
    buf[pos] ^= 1u8 << rng.gen_range(0..8u32);
    classify_read_any(&buf)
}

/// An impossible tag byte in the first record: all four 2-bit tags are
/// events, so what makes the word impossible is one of the reserved bits
/// 11–15 beside them. Words are validated as they decode, ahead of the
/// block checksum, so this is `corrupt`, not a checksum mismatch.
fn bad_tag(rng: &mut StdRng) -> Outcome {
    let Some(mut buf) = encode(&sample_trace(rng)) else {
        return skipped("trace fixture failed to encode");
    };
    buf[FIRST_RECORD + 1] |= 1u8 << rng.gen_range(3..8u32);
    classify_read(&buf, "corrupt")
}

/// An out-of-range data class in the first Ref record (bits 3–6 of its
/// word; every other bit is preserved so only the class is impossible).
fn bad_class(rng: &mut StdRng) -> Outcome {
    let Some(mut buf) = encode(&sample_trace(rng)) else {
        return skipped("trace fixture failed to encode");
    };
    let class = rng.gen_range(10..16u8);
    buf[FIRST_RECORD] = (buf[FIRST_RECORD] & !0x78) | class << 3;
    classify_read(&buf, "corrupt")
}

/// The one out-of-range lock class (3, in bits 3–4) in the LockAcquire
/// record (event 1).
fn bad_lock_class(rng: &mut StdRng) -> Outcome {
    let Some(mut buf) = encode(&sample_trace(rng)) else {
        return skipped("trace fixture failed to encode");
    };
    buf[FIRST_RECORD + RECORD] |= 0x18;
    classify_read(&buf, "corrupt")
}

// --- block stream sites -----------------------------------------------------

/// The block stream cut anywhere past its header — inside a block's records,
/// its checksum, a block header, or the end marker. Every such cut is a torn
/// write the reader must classify as truncation.
fn block_truncated(rng: &mut StdRng) -> Outcome {
    let Some(mut buf) = encode(&block_trace(rng)) else {
        return skipped("block fixture failed to encode");
    };
    buf.truncate(rng.gen_range(BLOCK_HEADER..buf.len()));
    classify_read(&buf, "truncated")
}

/// Two whole blocks swapped in place — the shape a mis-seeded or mis-ordered
/// producer would emit. Every per-block checksum still verifies, so
/// only the sequential chunk-index check can reveal the damage.
fn block_chunk_swap(rng: &mut StdRng) -> Outcome {
    let Some(mut buf) = encode(&block_trace(rng)) else {
        return skipped("block fixture failed to encode");
    };
    if buf.len() < BLOCK_HEADER + BLOCKS * BLOCK_SIZE {
        return skipped("block fixture smaller than its declared layout");
    }
    let i = rng.gen_range(0..BLOCKS - 1);
    let j = rng.gen_range(i + 1..BLOCKS);
    for k in 0..BLOCK_SIZE {
        buf.swap(
            BLOCK_HEADER + i * BLOCK_SIZE + k,
            BLOCK_HEADER + j * BLOCK_SIZE + k,
        );
    }
    classify_read(&buf, "corrupt")
}

// --- trace semantics sites --------------------------------------------------

/// A trace that ends inside a critical section — what a truncated file looks
/// like after the codec-level checks are bypassed (e.g. the cut happened to
/// land on an event boundary of a checksum-less legacy trace).
fn lock_truncated(rng: &mut StdRng) -> Outcome {
    let t = Tracer::new(0);
    let addr = 0x40 + rng.gen_range(0..64u64) * 8;
    t.lock_acquire(LockToken::new(addr, LockClass::LockMgr));
    t.read(dss_shmem::SHARED_BASE, 8, DataClass::LockHash);
    // The release was lost with the tail of the file.
    match check_lock_discipline(&t.take()) {
        Err(LockDisciplineError::HeldAtEnd { .. }) => Outcome::Detected {
            classification: "lock-held-at-end".to_string(),
        },
        Err(e) => Outcome::Absorbed {
            detail: format!("detected, but classified as: {e}"),
        },
        Ok(()) => Outcome::Absorbed {
            detail: "truncated critical section passed lock discipline".to_string(),
        },
    }
}

/// A release of a lock that was never acquired — the head-truncation dual of
/// [`lock_truncated`].
fn stray_release(rng: &mut StdRng) -> Outcome {
    let t = Tracer::new(0);
    let addr = 0x40 + rng.gen_range(0..64u64) * 8;
    t.read(dss_shmem::SHARED_BASE, 8, DataClass::LockHash);
    t.lock_release(LockToken::new(addr, LockClass::LockMgr));
    match check_lock_discipline(&t.take()) {
        Err(LockDisciplineError::ReleaseUnheld { .. }) => Outcome::Detected {
            classification: "release-unheld".to_string(),
        },
        Err(e) => Outcome::Absorbed {
            detail: format!("detected, but classified as: {e}"),
        },
        Ok(()) => Outcome::Absorbed {
            detail: "stray release passed lock discipline".to_string(),
        },
    }
}

// --- database loader sites --------------------------------------------------

/// A syntactically valid field for each column type.
fn synth_row(def: &TableDef) -> Vec<String> {
    def.columns
        .iter()
        .map(|c| match c.ty {
            ColType::Int => "7".to_string(),
            ColType::Dec => "7.50".to_string(),
            ColType::Date => "1995-06-17".to_string(),
            ColType::Str(_) => "x".to_string(),
        })
        .collect()
}

/// Renders fields as one dbgen-convention row (trailing delimiter).
fn row_text(fields: &[String]) -> String {
    let mut s = fields.join("|");
    s.push('|');
    s.push('\n');
    s
}

/// Feeds a hostile row to the loader and demands a diagnostic mentioning
/// `want` (the classification an operator would grep for).
fn classify_tbl(def: &TableDef, text: &str, want: &str) -> Outcome {
    match from_tbl(def, text) {
        Err(e) if e.to_string().contains(want) => Outcome::Detected {
            classification: format!("tbl: {want}"),
        },
        Err(e) => Outcome::Absorbed {
            detail: format!("detected, but the diagnostic lacks {want:?}: {e}"),
        },
        Ok(rows) => Outcome::Absorbed {
            detail: format!("loaded {} hostile rows", rows.len()),
        },
    }
}

/// A row with a field dropped or duplicated.
fn tbl_arity(rng: &mut StdRng) -> Outcome {
    let Some(def) = table_def("region") else {
        return skipped("region schema missing");
    };
    let mut fields = synth_row(def);
    if rng.gen_bool(0.5) {
        fields.pop();
    } else {
        fields.push("extra".to_string());
    }
    classify_tbl(def, &row_text(&fields), "fields, found")
}

/// Junk in an integer column.
fn tbl_bad_int(rng: &mut StdRng) -> Outcome {
    let Some(def) = table_def("region") else {
        return skipped("region schema missing");
    };
    let Some(col) = def.columns.iter().position(|c| c.ty == ColType::Int) else {
        return skipped("region has no integer column");
    };
    let mut fields = synth_row(def);
    fields[col] = format!("{}x{}", rng.gen_range(0..100u32), rng.gen_range(0..100u32));
    classify_tbl(def, &row_text(&fields), "bad integer")
}

/// An impossible calendar date in a date column.
fn tbl_bad_date(rng: &mut StdRng) -> Outcome {
    let Some(def) = table_def("orders") else {
        return skipped("orders schema missing");
    };
    let Some(col) = def.columns.iter().position(|c| c.ty == ColType::Date) else {
        return skipped("orders has no date column");
    };
    let mut fields = synth_row(def);
    fields[col] = format!(
        "1995-{}-{}",
        rng.gen_range(13..99u32),
        rng.gen_range(1..28u32)
    );
    classify_tbl(def, &row_text(&fields), "bad date")
}

/// Junk in a decimal column.
fn tbl_bad_decimal(rng: &mut StdRng) -> Outcome {
    let Some(def) = table_def("orders") else {
        return skipped("orders schema missing");
    };
    let Some(col) = def.columns.iter().position(|c| c.ty == ColType::Dec) else {
        return skipped("orders has no decimal column");
    };
    let mut fields = synth_row(def);
    fields[col] = format!("x{}.00", rng.gen_range(0..100u32));
    classify_tbl(def, &row_text(&fields), "bad decimal")
}

// --- coherence state sites --------------------------------------------------

/// A tiny two-node run with one read-shared line and one written line, so
/// the directory holds both a sharer mask and an owner to corrupt.
fn run_machine(rng: &mut StdRng) -> Machine {
    let base = dss_shmem::SHARED_BASE + rng.gen_range(0..256u64) * 8192;
    let t0 = Tracer::new(0);
    t0.read(base, 8, DataClass::Data);
    t0.write(base + 4096, 8, DataClass::LockHash);
    let t1 = Tracer::new(1);
    t1.busy(10_000);
    t1.read(base, 8, DataClass::Data);
    let mut m = Machine::new(MachineConfig::baseline());
    m.run(&[t0.take(), t1.take()]);
    m
}

/// Lines with live directory state, to pick a corruption target from.
fn touched_lines(m: &Machine) -> Vec<u64> {
    let mut lines = Vec::new();
    m.for_each_directory_entry(|line, e| {
        if e.sharers != 0 || e.owner.is_some() {
            lines.push(line);
        }
    });
    lines
}

fn classify_verify(m: &Machine) -> Outcome {
    match m.verify_coherence() {
        Err(v) => Outcome::Detected {
            classification: v.rule.to_string(),
        },
        Ok(()) => Outcome::Absorbed {
            detail: "corrupted state passed the invariant sweep".to_string(),
        },
    }
}

/// The sharer mask rewritten to list only a phantom node: the real cached
/// copies vanish from the directory's view.
fn dir_sharer_mask(rng: &mut StdRng) -> Outcome {
    let mut m = run_machine(rng);
    let lines = touched_lines(&m);
    if lines.is_empty() {
        return skipped("no directory state to corrupt");
    }
    let line = lines[rng.gen_range(0..lines.len())];
    m.corrupt_directory_sharers(line, 1 << rng.gen_range(8..MAX_PROCS));
    classify_verify(&m)
}

/// The recorded owner swapped for a node that holds nothing.
fn dir_stale_owner(rng: &mut StdRng) -> Outcome {
    let mut m = run_machine(rng);
    let lines = touched_lines(&m);
    if lines.is_empty() {
        return skipped("no directory state to corrupt");
    }
    let line = lines[rng.gen_range(0..lines.len())];
    m.corrupt_directory_owner(line, Some(rng.gen_range(8..MAX_PROCS)));
    classify_verify(&m)
}

/// Exhausts the model state space under a faulted kernel and demands a
/// violation classified by exactly `expect` — the rule the injected bug
/// breaks. A clean exhaustion or a wrong classification is an absorption:
/// the model pass would let this kernel bug ship.
fn classify_explore(kernel: &Kernel, nprocs: usize, expect: &'static str) -> Outcome {
    let ex = protocol::explore(kernel, &ExploreConfig::new(nprocs, 1));
    match ex.violation {
        Some(v) if v.rule == expect => Outcome::Detected {
            classification: v.rule.to_string(),
        },
        Some(v) => Outcome::Absorbed {
            detail: format!(
                "detected, but classified {:?} where {expect:?} was demanded (replay {:?})",
                v.rule, v.path
            ),
        },
        None => Outcome::Absorbed {
            detail: format!("exhausted {} states without a violation", ex.states),
        },
    }
}

/// An MSI kernel that grants write permission on a shared hit without a
/// directory transaction — the classic "silent upgrade" bug MESI earns with
/// its Exclusive state and MSI must pay an invalidation round for.
fn kernel_silent_upgrade_msi(rng: &mut StdRng) -> Outcome {
    let kernel = Kernel::with_fault(Protocol::Msi, KernelFault::SilentUpgradeMsi);
    classify_explore(
        &kernel,
        rng.gen_range(2..=4),
        protocol::RULE_WRITABLE_NOT_OWNER,
    )
}

/// A kernel whose eviction path writes the data back but forgets to clear
/// the directory's owner field, leaving a registered owner with no copy.
fn kernel_stale_owner(rng: &mut StdRng) -> Outcome {
    let p = if rng.gen_range(0..2) == 0 {
        Protocol::Msi
    } else {
        Protocol::Mesi
    };
    let kernel = Kernel::with_fault(p, KernelFault::StaleOwner);
    classify_explore(&kernel, rng.gen_range(2..=4), protocol::RULE_OWNER_NO_COPY)
}

/// A shared L2 copy silently promoted to Modified — the cache now disagrees
/// with the directory about who may write.
#[cfg(feature = "check-invariants")]
fn cache_state(rng: &mut StdRng) -> Outcome {
    let mut m = run_machine(rng);
    let mut shared = Vec::new();
    m.for_each_directory_entry(|line, e| {
        if e.sharers != 0 {
            shared.push((line, e.sharers));
        }
    });
    if shared.is_empty() {
        return skipped("no shared line to corrupt");
    }
    let (line, sharers) = shared[rng.gen_range(0..shared.len())];
    let node = sharers.trailing_zeros() as usize;
    m.corrupt_cache_state(node, line, dss_memsim::LineState::Modified);
    classify_verify(&m)
}
