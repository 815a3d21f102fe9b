//! Pins the loaded database image: every byte of every page of every
//! relation, and every table's planner statistics. The load is untraced, so
//! `trace_words.rs` only sees it through the queries that read it; a change
//! to how rows reach the pages (or how statistics are gathered) that moves a
//! single byte or estimate fails here first.

use dss_bufcache::{PageId, BLOCK_SIZE};
use dss_query::{Database, DbConfig, Session};

/// Byte count and FNV-1a 64 of the tiny database's image (see [`image`]).
/// On a deliberate change of the load the failure prints the replacement.
const IMAGE: (usize, u64) = (2282898, 0x70da_b334_8f95_3dcd);

/// The same, after deleting part of `orders` and `lineitem` and vacuuming
/// both, so the compaction rewrite and its statistics are pinned too.
const VACUUMED: (usize, u64) = (2659730, 0x976e_5341_a4fa_2a70);

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every page of every relation in rel/block order, then the `Debug` text of
/// every table's statistics in catalog order: `(bytes, FNV-1a 64)`.
fn image(db: &Database) -> (usize, u64) {
    let mut rels: Vec<u32> = db
        .catalog
        .iter()
        .flat_map(|(_, t)| {
            std::iter::once(t.heap.rel()).chain(t.indexes.iter().map(|i| i.tree.rel()))
        })
        .collect();
    rels.sort_unstable();
    let mut page = vec![0u8; BLOCK_SIZE as usize];
    let (mut len, mut h) = (0, 0xcbf2_9ce4_8422_2325);
    for rel in rels {
        for block in 0..db.pool.rel_len(rel) {
            let Some(buf) = db.pool.lookup(PageId::new(rel, block)) else {
                panic!("page {rel}/{block} is not resident");
            };
            db.pool.get_bytes(buf, 0, &mut page);
            len += page.len();
            h = fnv1a(h, &page);
        }
    }
    for (_, t) in db.catalog.iter() {
        let stats = format!("{:?}", t.stats);
        len += stats.len();
        h = fnv1a(h, stats.as_bytes());
    }
    (len, h)
}

fn check(name: &str, got: (usize, u64), want: (usize, u64)) {
    let (len, hash) = got;
    assert!(
        got == want,
        "the loaded image moved; this tree builds:\nconst {name}: (usize, u64) = ({len}, {hash:#018x});"
    );
}

#[test]
fn tiny_image_is_pinned() {
    let db = Database::build(&DbConfig::tiny());
    check("IMAGE", image(&db), IMAGE);
}

#[test]
fn vacuumed_image_is_pinned() {
    let mut db = Database::build(&DbConfig::tiny());
    let mut s = Session::untraced(0);
    for sql in [
        "delete from orders where o_orderkey > 1000",
        "delete from lineitem where l_quantity < 20",
    ] {
        assert!(db.execute(sql, &mut s).is_ok(), "{sql}");
    }
    for table in ["orders", "lineitem"] {
        assert!(db.vacuum(table).is_ok_and(|n| n > 0), "vacuum {table}");
    }
    check("VACUUMED", image(&db), VACUUMED);
}
