//! Chunked, parallel, allocation-lean `.tbl` generation.
//!
//! [`crate::Generator`] materializes the whole population in memory before a
//! single byte reaches disk — fine at the paper's 100×-reduced scale, but the
//! wrong shape for the streaming pipeline, which wants table data produced in
//! bounded memory at any scale factor. This module instead defines the
//! population as a sequence of independently seeded **units** — one row for
//! the entity tables, one part's four `partsupp` rows, one order with its one
//! to seven lineitems — where unit `u` of table `t` draws from
//! `StdRng::seed_from_u64(seed ^ fnv1a(t, u))`. Any contiguous range of
//! units can be rendered without generating its predecessors, so batch size
//! and worker count are pure throughput knobs: the bytes written are
//! identical for every [`ChunkedGenerator::batch_units`] and `jobs` choice
//! (pinned by `tests/chunking.rs`).
//!
//! Rows are rendered straight into reused `String` buffers — no per-row
//! `Vec<Value>`, no per-field allocation beyond the buffers themselves — and
//! each table streams through a temp-then-rename writer, so a killed run
//! never leaves a torn `.tbl` behind. Peak memory is one batch of text per
//! worker regardless of scale factor.
//!
//! The unit streams are intentionally a *different* population from
//! [`crate::Generator`], which draws each table from one sequential RNG; the
//! golden artifacts pin the legacy generator, and the chunked generator pins
//! its own bytes through the chunking property suite.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::{partsupp_suppkey, retail_price};
use crate::schema::{scaled_cardinality, table_def};
use crate::{text, Date};

/// Default units per rendering batch: large enough to amortize dispatch,
/// small enough that a worker's text buffer stays around a megabyte.
pub const DEFAULT_BATCH_UNITS: usize = 4096;

/// The seven independent generation tasks, in schema order. The `orders`
/// task also produces `lineitem` (an order and its lineitems are one unit).
const TASKS: [&str; 7] = [
    "region", "nation", "supplier", "customer", "part", "partsupp", "orders",
];

/// Row counts and output size from a [`ChunkedGenerator::write_dir`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenReport {
    /// Rows written per table, in schema order (all eight tables).
    pub rows: Vec<(&'static str, u64)>,
    /// Total `.tbl` bytes written.
    pub bytes: u64,
}

impl GenReport {
    /// Rows written for `table`, if it was generated.
    pub fn rows_for(&self, table: &str) -> Option<u64> {
        self.rows.iter().find(|(t, _)| *t == table).map(|(_, n)| *n)
    }
}

/// The chunked, parallel `.tbl` generator.
///
/// # Example
///
/// ```
/// use dss_tpcd::ChunkedGenerator;
///
/// let g = ChunkedGenerator::new(0.001, 42);
/// assert_eq!(g.unit_count("customer"), 150);
///
/// // Any batching yields the same bytes.
/// let mut one = (String::new(), String::new());
/// let mut many = (String::new(), String::new());
/// g.render_units("orders", 0..g.unit_count("orders"), &mut one.0, &mut one.1);
/// for u in 0..g.unit_count("orders") {
///     g.render_units("orders", u..u + 1, &mut many.0, &mut many.1);
/// }
/// assert_eq!(one, many);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ChunkedGenerator {
    scale: f64,
    seed: u64,
    batch: usize,
}

/// Scaled cardinalities the order generator needs for foreign keys.
#[derive(Clone, Copy)]
struct Cards {
    customers: i64,
    parts: i64,
    suppliers: i64,
}

impl ChunkedGenerator {
    /// Creates a generator for the given scale factor and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn new(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0, "scale factor must be positive");
        ChunkedGenerator {
            scale,
            seed,
            batch: DEFAULT_BATCH_UNITS,
        }
    }

    /// Sets the units rendered per batch (a pure throughput/memory knob).
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn batch_units(mut self, units: usize) -> Self {
        assert!(units > 0, "batch must hold at least one unit");
        self.batch = units;
        self
    }

    /// The configured scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of generation units for `table` at this scale factor.
    ///
    /// A unit is one row, except `partsupp` (one part's four rows) and
    /// `orders` (one order plus its lineitems). `lineitem` has no unit
    /// stream of its own — it rides on `orders`.
    ///
    /// # Panics
    ///
    /// Panics for `lineitem` or an unknown table.
    pub fn unit_count(&self, table: &str) -> u64 {
        match table {
            "region" | "nation" => table_def(table).expect("fixed table").base_cardinality,
            "partsupp" => self.unit_count("part"),
            "supplier" | "customer" | "part" | "orders" => scaled_cardinality(
                table_def(table).expect("scaled table").base_cardinality,
                self.scale,
            ),
            other => panic!("no unit stream for table {other:?} (lineitem rides on orders)"),
        }
    }

    /// The per-unit RNG: `seed ^ fnv1a(table bytes, unit index)`. Every unit
    /// is an independent stream, which is what makes chunk boundaries
    /// invisible in the output.
    fn unit_rng(&self, table: &str, unit: u64) -> StdRng {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in table.bytes().chain(unit.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        StdRng::seed_from_u64(self.seed ^ h)
    }

    fn cards(&self) -> Cards {
        Cards {
            customers: self.unit_count("customer") as i64,
            parts: self.unit_count("part") as i64,
            suppliers: self.unit_count("supplier") as i64,
        }
    }

    /// Appends the `.tbl` text of units `range` of `table` to `primary`
    /// (and, for the `orders` task, lineitem rows to `secondary`), returning
    /// `(primary, secondary)` row counts. Ranges past the unit count are
    /// clamped; buffers are appended to, not cleared.
    ///
    /// # Panics
    ///
    /// Panics for `lineitem` or an unknown table (see [`Self::unit_count`]).
    pub fn render_units(
        &self,
        table: &str,
        range: Range<u64>,
        primary: &mut String,
        secondary: &mut String,
    ) -> (u64, u64) {
        let end = range.end.min(self.unit_count(table));
        let cards = self.cards();
        let mut rows = (0u64, 0u64);
        for unit in range.start..end {
            let mut rng = self.unit_rng(table, unit);
            match table {
                "region" => rows.0 += region_unit(unit, &mut rng, primary),
                "nation" => rows.0 += nation_unit(unit, &mut rng, primary),
                "supplier" => rows.0 += supplier_unit(unit, &mut rng, primary),
                "customer" => rows.0 += customer_unit(unit, &mut rng, primary),
                "part" => rows.0 += part_unit(unit, &mut rng, primary),
                "partsupp" => rows.0 += partsupp_unit(unit, &mut rng, cards, primary),
                "orders" => {
                    let (o, l) = order_unit(unit, &mut rng, cards, primary, secondary);
                    rows.0 += o;
                    rows.1 += l;
                }
                other => unreachable!("unit_count admitted {other:?}"),
            }
        }
        rows
    }

    /// Generates all eight `.tbl` files under `dir` with up to `jobs` worker
    /// threads (zero means one).
    ///
    /// Parallelism is *batch*-grained, not table-grained: every batch of
    /// every table is an independent work item (the per-unit RNG makes unit
    /// ranges self-contained), so eight cores stay busy even though one
    /// table — `orders`/`lineitem` — dominates the output. Workers pull
    /// batches table-major off a shared queue and hand rendered text to a
    /// per-table in-order merge that writes batch `k` only after batch
    /// `k-1`, so the bytes on disk are identical for every `jobs` and batch
    /// size. Each table streams through a temp-then-rename writer, so a
    /// crashed or killed run leaves either no `.tbl` or a complete one.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from any writer, or an error if a worker
    /// thread panicked (no file is committed in that case).
    pub fn write_dir(&self, dir: &Path, jobs: usize) -> io::Result<GenReport> {
        fs::create_dir_all(dir)?;
        // One merge (and output file) per task, created up front so an
        // early failure never leaves a half-written table behind.
        let mut merges = Vec::with_capacity(TASKS.len());
        for table in TASKS {
            let main = AtomicFile::create(dir.join(format!("{table}.tbl")))?;
            let side = match table {
                "orders" => Some(AtomicFile::create(dir.join("lineitem.tbl"))?),
                _ => None,
            };
            merges.push(Mutex::new(Merge {
                next: 0,
                pending: BTreeMap::new(),
                main,
                side,
                rows: (0, 0),
                error: None,
            }));
        }
        // The flat batch queue, table-major: workers near each other in the
        // queue render neighboring batches, so each table's in-order merge
        // holds at most about `jobs` pending batches.
        let batch = self.batch as u64;
        let mut tasks = Vec::new();
        let mut total_batches = vec![0u64; TASKS.len()];
        for (ti, table) in TASKS.iter().enumerate() {
            let units = self.unit_count(table);
            let mut start = 0u64;
            while start < units {
                let end = (start + batch).min(units);
                tasks.push(BatchTask {
                    ti,
                    index: total_batches[ti],
                    units: start..end,
                });
                total_batches[ti] += 1;
                start = end;
            }
        }
        let jobs = jobs.max(1).min(tasks.len().max(1));
        let next = AtomicUsize::new(0);
        let pool: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());
        let clean = std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| s.spawn(|| self.run_batches(&tasks, &next, &merges, &pool)))
                .collect();
            handles.into_iter().all(|h| h.join().is_ok())
        });
        if !clean {
            return Err(io::Error::other("a generator worker thread panicked"));
        }
        // Commit in schema order; refuse to commit anything incomplete.
        let mut per_table = Vec::with_capacity(8);
        let mut bytes = 0;
        for ((mutex, table), total) in merges.into_iter().zip(TASKS).zip(total_batches) {
            let mut m = mutex.into_inner().unwrap_or_else(|e| e.into_inner());
            if let Some(e) = m.error.take() {
                return Err(e);
            }
            if m.next != total {
                return Err(io::Error::other(format!(
                    "table {table}: only {} of {total} batches were merged",
                    m.next
                )));
            }
            bytes += m.main.commit()?;
            per_table.push((table, m.rows.0));
            if let Some(mut f) = m.side.take() {
                bytes += f.commit()?;
                per_table.push(("lineitem", m.rows.1));
            }
        }
        // Deterministic report order regardless of which worker ran what.
        let mut rows = Vec::with_capacity(8);
        for def in crate::schema::tpcd_schema() {
            let n = per_table
                .iter()
                .find(|(t, _)| *t == def.name)
                .map(|(_, n)| *n)
                .expect("every table generated");
            rows.push((def.name, n));
        }
        Ok(GenReport { rows, bytes })
    }

    /// One worker's loop: pull batches off the queue, render into pooled
    /// buffers, hand the text to the owning table's in-order merge.
    fn run_batches(
        &self,
        tasks: &[BatchTask],
        next: &AtomicUsize,
        merges: &[Mutex<Merge>],
        pool: &Mutex<Vec<(String, String)>>,
    ) {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else { break };
            let Some(merge) = merges.get(task.ti) else {
                break;
            };
            let Some(table) = TASKS.get(task.ti) else {
                break;
            };
            // If this table already failed, don't waste cycles rendering
            // batches that will be discarded.
            if lock_clean(merge).error.is_some() {
                continue;
            }
            let (mut primary, mut secondary) = lock_clean(pool).pop().unwrap_or_default();
            primary.clear();
            secondary.clear();
            let rows = self.render_units(table, task.units.clone(), &mut primary, &mut secondary);
            let mut m = lock_clean(merge);
            if m.error.is_some() {
                drop(m);
                lock_clean(pool).push((primary, secondary));
                continue;
            }
            m.pending.insert(
                task.index,
                Rendered {
                    primary,
                    secondary,
                    rows,
                },
            );
            // Drain everything now in order — whichever worker completes the
            // gap writes the whole run, so writes never wait on a scheduler.
            loop {
                let due = m.next;
                let Some(r) = m.pending.remove(&due) else {
                    break;
                };
                let mut wrote = m.main.write(&r.primary);
                if let (Ok(()), Some(f)) = (&wrote, m.side.as_mut()) {
                    wrote = f.write(&r.secondary);
                }
                if let Err(e) = wrote {
                    m.error = Some(e);
                    break;
                }
                m.rows.0 += r.rows.0;
                m.rows.1 += r.rows.1;
                m.next += 1;
                lock_clean(pool).push((r.primary, r.secondary));
            }
        }
    }
}

/// One unit range of one table, ready to render independently.
struct BatchTask {
    /// Index into [`TASKS`].
    ti: usize,
    /// Batch sequence number within the table (the merge key).
    index: u64,
    /// The unit range this batch renders.
    units: Range<u64>,
}

/// Rendered batch text parked in a merge until its turn to be written.
struct Rendered {
    primary: String,
    secondary: String,
    rows: (u64, u64),
}

/// Per-table in-order merge state: batches may arrive in any order, but
/// batch `k` reaches the file only after `k-1` has.
struct Merge {
    next: u64,
    pending: BTreeMap<u64, Rendered>,
    main: AtomicFile,
    side: Option<AtomicFile>,
    rows: (u64, u64),
    error: Option<io::Error>,
}

/// Locks a mutex, treating poisoning (a panicked peer) as survivable — the
/// guarded state is either discarded wholesale or checked for completeness
/// before use.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A streaming temp-then-rename file: bytes land in a `.tmp.<pid>` sibling
/// and only an explicit [`AtomicFile::commit`] renames them into place, so
/// readers never observe a torn table. (The same protocol as the workbench's
/// `write_atomic`, restated here because the generator streams its contents
/// instead of holding them in memory.)
struct AtomicFile {
    out: BufWriter<File>,
    tmp: PathBuf,
    dest: PathBuf,
    bytes: u64,
    committed: bool,
}

impl AtomicFile {
    fn create(dest: PathBuf) -> io::Result<AtomicFile> {
        let mut name = dest
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        #[expect(clippy::disallowed_methods, reason = "names a temp file only")]
        name.push(format!(".tmp.{}", std::process::id()));
        let tmp = dest.with_file_name(name);
        let file = File::create(&tmp)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", tmp.display())))?;
        Ok(AtomicFile {
            out: BufWriter::new(file),
            tmp,
            dest,
            bytes: 0,
            committed: false,
        })
    }

    fn write(&mut self, text: &str) -> io::Result<()> {
        self.bytes += text.len() as u64;
        self.out.write_all(text.as_bytes())
    }

    fn commit(&mut self) -> io::Result<u64> {
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        fs::rename(&self.tmp, &self.dest)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", self.dest.display())))?;
        self.committed = true;
        Ok(self.bytes)
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Appends `v` in hundredths as `.tbl` decimal text plus the delimiter.
fn push_dec(out: &mut String, v: i64) {
    let _ = write!(out, "{}.{:02}|", v / 100, (v % 100).abs());
}

fn region_unit(unit: u64, rng: &mut StdRng, out: &mut String) -> u64 {
    let _ = write!(out, "{unit}|{}|", text::REGIONS[unit as usize]);
    text::comment_into(rng, 30, out);
    out.push_str("|\n");
    1
}

fn nation_unit(unit: u64, rng: &mut StdRng, out: &mut String) -> u64 {
    let (name, region) = text::NATIONS[unit as usize];
    let _ = write!(out, "{unit}|{name}|{region}|");
    text::comment_into(rng, 30, out);
    out.push_str("|\n");
    1
}

fn supplier_unit(unit: u64, rng: &mut StdRng, out: &mut String) -> u64 {
    let key = unit as i64 + 1;
    let nationkey: i64 = rng.gen_range(0..25);
    let _ = write!(out, "{key}|Supplier#{key:09}|");
    text::comment_into(rng, 24, out);
    let _ = write!(out, "|{nationkey}|");
    text::phone_into(rng, nationkey, out);
    out.push('|');
    push_dec(out, rng.gen_range(-99_999..=999_999));
    text::comment_into(rng, 25, out);
    out.push_str("|\n");
    1
}

fn customer_unit(unit: u64, rng: &mut StdRng, out: &mut String) -> u64 {
    let key = unit as i64 + 1;
    let nationkey: i64 = rng.gen_range(0..25);
    let _ = write!(out, "{key}|Customer#{key:09}|");
    text::comment_into(rng, 24, out);
    let _ = write!(out, "|{nationkey}|");
    text::phone_into(rng, nationkey, out);
    out.push('|');
    push_dec(out, rng.gen_range(-99_999..=999_999));
    let _ = write!(out, "{}|", text::pick(rng, &text::SEGMENTS));
    text::comment_into(rng, 60, out);
    out.push_str("|\n");
    1
}

fn part_unit(unit: u64, rng: &mut StdRng, out: &mut String) -> u64 {
    let key = unit as i64 + 1;
    let mfgr: i64 = rng.gen_range(1..=5);
    let brand = mfgr * 10 + rng.gen_range(1..=5);
    let _ = write!(out, "{key}|");
    for i in 0..5 {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(text::pick(rng, &text::PART_NAME_WORDS));
    }
    let _ = write!(
        out,
        "|Manufacturer#{mfgr}|Brand#{brand}|{} {} {}|{}|{} {}|",
        text::pick(rng, &text::TYPE_SYL1),
        text::pick(rng, &text::TYPE_SYL2),
        text::pick(rng, &text::TYPE_SYL3),
        rng.gen_range(1..=50),
        text::pick(rng, &text::CONTAINER_SYL1),
        text::pick(rng, &text::CONTAINER_SYL2),
    );
    push_dec(out, retail_price(key));
    text::comment_into(rng, 14, out);
    out.push_str("|\n");
    1
}

fn partsupp_unit(unit: u64, rng: &mut StdRng, cards: Cards, out: &mut String) -> u64 {
    let partkey = unit as i64 + 1;
    for i in 0..4i64 {
        let suppkey = partsupp_suppkey(partkey, i, cards.suppliers);
        let _ = write!(out, "{partkey}|{suppkey}|{}|", rng.gen_range(1..=9999));
        push_dec(out, rng.gen_range(100..=100_000));
        text::comment_into(rng, 50, out);
        out.push_str("|\n");
    }
    4
}

/// One order plus its lineitems, mirroring the spec distributions of
/// [`crate::Generator`]'s `gen_order` (dates in the population window,
/// one-to-seven lines, status flags from the fixed current date).
fn order_unit(
    unit: u64,
    rng: &mut StdRng,
    cards: Cards,
    orders: &mut String,
    lineitems: &mut String,
) -> (u64, u64) {
    let orderkey = unit as i64 + 1;
    let order_window = Date::END.days_since(Date::START) - 151;
    let custkey = rng.gen_range(1..=cards.customers);
    let orderdate = Date::START.add_days(rng.gen_range(0..=order_window));
    let lines: i64 = rng.gen_range(1..=7);
    let mut totalprice = 0i64;
    let mut shipped = 0;
    for linenumber in 1..=lines {
        let partkey = rng.gen_range(1..=cards.parts);
        let quantity = rng.gen_range(1..=50) * 100;
        let extendedprice = retail_price(partkey) * (quantity / 100);
        let discount = rng.gen_range(0..=10);
        let tax = rng.gen_range(0..=8);
        let shipdate = orderdate.add_days(rng.gen_range(1..=121));
        let commitdate = orderdate.add_days(rng.gen_range(30..=90));
        let receiptdate = shipdate.add_days(rng.gen_range(1..=30));
        let linestatus = if shipdate > Date::CURRENT { 'O' } else { 'F' };
        let returnflag = if receiptdate <= Date::CURRENT {
            if rng.gen_bool(0.5) {
                'R'
            } else {
                'A'
            }
        } else {
            'N'
        };
        if linestatus == 'F' {
            shipped += 1;
        }
        totalprice += extendedprice * (100 - discount) / 100 * (100 + tax) / 100;
        let suppkey = partsupp_suppkey(partkey, rng.gen_range(0..4), cards.suppliers);
        let _ = write!(lineitems, "{orderkey}|{partkey}|{suppkey}|{linenumber}|");
        push_dec(lineitems, quantity);
        push_dec(lineitems, extendedprice);
        push_dec(lineitems, discount);
        push_dec(lineitems, tax);
        let _ = write!(
            lineitems,
            "{returnflag}|{linestatus}|{shipdate}|{commitdate}|{receiptdate}|{}|{}|",
            text::pick(rng, &text::SHIP_INSTRUCTS),
            text::pick(rng, &text::SHIP_MODES),
        );
        text::comment_into(rng, 27, lineitems);
        lineitems.push_str("|\n");
    }
    let orderstatus = if shipped == lines {
        'F'
    } else if shipped == 0 {
        'O'
    } else {
        'P'
    };
    let _ = write!(orders, "{orderkey}|{custkey}|{orderstatus}|");
    push_dec(orders, totalprice);
    let _ = write!(
        orders,
        "{orderdate}|{}|Clerk#{:09}|0|",
        text::pick(rng, &text::ORDER_PRIORITIES),
        rng.gen_range(1..=1000),
    );
    text::comment_into(rng, 30, orders);
    orders.push_str("|\n");
    (1, lines as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_tbl, tpcd_schema};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dss-chunk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cardinalities_match_legacy_scaling() {
        let g = ChunkedGenerator::new(0.001, 7);
        assert_eq!(g.unit_count("region"), 5);
        assert_eq!(g.unit_count("nation"), 25);
        assert_eq!(g.unit_count("supplier"), 10);
        assert_eq!(g.unit_count("customer"), 150);
        assert_eq!(g.unit_count("part"), 200);
        assert_eq!(g.unit_count("partsupp"), 200); // units of four rows
        assert_eq!(g.unit_count("orders"), 1500);
    }

    #[test]
    fn every_table_parses_against_the_schema() {
        let g = ChunkedGenerator::new(0.001, 7);
        let mut primary = String::new();
        let mut secondary = String::new();
        for def in tpcd_schema() {
            if def.name == "lineitem" {
                continue;
            }
            primary.clear();
            secondary.clear();
            let (rows, lines) = g.render_units(
                def.name,
                0..g.unit_count(def.name),
                &mut primary,
                &mut secondary,
            );
            let parsed = from_tbl(def, &primary).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(parsed.len() as u64, rows, "{}", def.name);
            if def.name == "orders" {
                let li = table_def("lineitem").unwrap();
                let parsed = from_tbl(li, &secondary).unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(parsed.len() as u64, lines);
                assert!(lines >= rows && lines <= rows * 7);
            }
        }
    }

    #[test]
    fn write_dir_is_invariant_to_jobs_and_batch() {
        let base = temp_dir("base");
        let wide = temp_dir("wide");
        let swarm = temp_dir("swarm");
        let a = ChunkedGenerator::new(0.001, 7)
            .batch_units(10_000)
            .write_dir(&base, 1)
            .unwrap();
        let b = ChunkedGenerator::new(0.001, 7)
            .batch_units(17)
            .write_dir(&wide, 7)
            .unwrap();
        // More workers than tables and batches small enough that every
        // table's in-order merge sees out-of-order arrivals.
        let c = ChunkedGenerator::new(0.001, 7)
            .batch_units(3)
            .write_dir(&swarm, 16)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        for def in tpcd_schema() {
            let x = fs::read(base.join(format!("{}.tbl", def.name))).unwrap();
            let y = fs::read(wide.join(format!("{}.tbl", def.name))).unwrap();
            let z = fs::read(swarm.join(format!("{}.tbl", def.name))).unwrap();
            assert_eq!(x, y, "{} differs across jobs/batch", def.name);
            assert_eq!(x, z, "{} differs under batch-grain fan-out", def.name);
            assert!(!x.is_empty());
        }
        let _ = fs::remove_dir_all(&base);
        let _ = fs::remove_dir_all(&wide);
        let _ = fs::remove_dir_all(&swarm);
    }

    #[test]
    fn report_counts_rows_in_schema_order() {
        let dir = temp_dir("report");
        let report = ChunkedGenerator::new(0.001, 7).write_dir(&dir, 4).unwrap();
        let names: Vec<_> = report.rows.iter().map(|(t, _)| *t).collect();
        assert_eq!(
            names,
            [
                "region", "nation", "supplier", "customer", "part", "partsupp", "orders",
                "lineitem"
            ]
        );
        assert_eq!(report.rows_for("partsupp"), Some(800));
        assert_eq!(report.rows_for("orders"), Some(1500));
        let li = report.rows_for("lineitem").unwrap();
        assert!((1500..=1500 * 7).contains(&li));
        assert!(report.bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeds_produce_different_populations() {
        let g7 = ChunkedGenerator::new(0.001, 7);
        let g8 = ChunkedGenerator::new(0.001, 8);
        let mut a = (String::new(), String::new());
        let mut b = (String::new(), String::new());
        g7.render_units("customer", 0..10, &mut a.0, &mut a.1);
        g8.render_units("customer", 0..10, &mut b.0, &mut b.1);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn no_torn_tbl_left_behind_on_drop() {
        let dir = temp_dir("torn");
        let mut f = AtomicFile::create(dir.join("orders.tbl")).unwrap();
        f.write("1|partial").unwrap();
        drop(f);
        assert!(fs::read_dir(&dir).unwrap().next().is_none(), "temp cleaned");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "lineitem rides on orders")]
    fn lineitem_has_no_unit_stream() {
        ChunkedGenerator::new(0.001, 7).unit_count("lineitem");
    }
}
