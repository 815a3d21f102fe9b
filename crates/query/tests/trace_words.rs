//! Pins the reference stream below the level of a count: for every query
//! template, the trace length, a hash over every packed event word and a
//! hash over the result rows' `Debug` text (what the benchmark's
//! `core.output_digest` is made of). A host-side optimization of the
//! executor or the tracer must leave all three where they are.

use dss_query::{sql_for, Database, DbConfig, Session};
use dss_tpcd::params;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `(events, hash of the event words, hash of the rows)` per template, at
/// parameter seeds 0 and 1000 — captured on the tree before PR 21.
const PINNED: [[(usize, u64, u64); 2]; 17] = [
    [
        (751051, 0xdb02f8d0d9ff4df2, 0x6f6ee567392a0815),
        (749352, 0xca95ccd4458f458e, 0xe8988bdd4689fa20),
    ],
    [
        (2616, 0x6b2d6f76a9aa7f40, 0x09612b07b5ecb5a5),
        (346, 0x61a92e2ee271d7cc, 0x09612b07b5ecb5a5),
    ],
    [
        (76424, 0xc32004ae55c322c6, 0x1849c351bf433359),
        (55047, 0x3125c4adbe7f2725, 0x617bdea421411c64),
    ],
    [
        (40871, 0xdf61f925ce3fb7f7, 0x9e0571852eef605a),
        (40376, 0xac54f37b9c877c8a, 0xe20ead6a06dab945),
    ],
    [
        (68323, 0x193a760abd4aa20b, 0x09612b07b5ecb5a5),
        (79297, 0x32e0b3a0d2cf7d43, 0xcdaf4b1c6d07753d),
    ],
    [
        (210253, 0x81ab8196596d3682, 0x113d55afc8f6de28),
        (187871, 0x617f07ec2e65242a, 0x728b4f7180062b8e),
    ],
    [
        (494394, 0x82b3437fe6ba6056, 0x6e9e02ebc5aba2dd),
        (431660, 0xa496901a701114e9, 0x1af7a055241f4ca0),
    ],
    [
        (94891, 0x8cf9ed68f78e0415, 0x09612b07b5ecb5a5),
        (125571, 0x366aa1666105748c, 0x09612b07b5ecb5a5),
    ],
    [
        (374521, 0x8fc52f7889057c2a, 0x0b2fea54d0ccb142),
        (405901, 0x10e2a5f8535a330b, 0xd59096e12372f862),
    ],
    [
        (33359, 0x51a087c6046de0c0, 0xeef86c87cc5222cb),
        (30319, 0xce91d77018c8e9d5, 0xf6ae6d3796c7b508),
    ],
    [
        (224, 0x0366cac2988c2f8c, 0x09612b07b5ecb5a5),
        (13269, 0xbefa5a0609e43e52, 0x2e7e217d3dc3cccf),
    ],
    [
        (262833, 0xc440d55e445a0bd2, 0xad6ea170e96ef1d9),
        (258420, 0x7d7445eb5ee3987e, 0xd3a719fa74c44a5a),
    ],
    [
        (94769, 0x447890bd5f6c4bb1, 0xf328dde5df696ca9),
        (85921, 0x6da63edc538ca6bc, 0xd471ab3f72d7016d),
    ],
    [
        (189421, 0xecafd69503d07b7c, 0x18214dad19a793b5),
        (199361, 0xaaf0814a3e1ca9bd, 0x148bb3d55069fc63),
    ],
    [
        (173332, 0x8ad447187bb17abf, 0x71cc4c15a17e3589),
        (182592, 0x8570f89b4ee338fd, 0x71cc4c15a17e3589),
    ],
    [
        (146134, 0xdbe997f24c3db15d, 0xe33f90a4fb1f49b3),
        (145333, 0xd017ed4db3121b9c, 0x3df60cff80e2edb9),
    ],
    [
        (6256, 0x223c2e3e6cb21288, 0xae166aaaa8a70075),
        (4657, 0x5f2c152ddea19d3e, 0xccafc8b5585c4839),
    ],
];

#[test]
fn every_template_records_the_pinned_words() {
    let mut db = Database::build(&DbConfig::tiny());
    let mut actual = [[(0usize, 0u64, 0u64); 2]; 17];
    for q in 1..=17u8 {
        for (i, seed) in [0u64, 1000].into_iter().enumerate() {
            let sql = sql_for(q, &params(q, seed));
            let mut session = Session::new(0);
            let out = db
                .run(&sql, &mut session)
                .unwrap_or_else(|e| panic!("Q{q}: {e}\n{sql}"));
            let trace = session.tracer.take();
            let words = trace
                .iter()
                .fold(FNV_OFFSET, |h, e| fnv1a(h, &e.to_bits().to_le_bytes()));
            let rows = fnv1a(FNV_OFFSET, format!("{:?}", out.rows).as_bytes());
            actual[q as usize - 1][i] = (trace.len(), words, rows);
        }
    }
    let table: String = actual
        .iter()
        .map(|[a, b]| {
            format!(
                "    [({}, {:#018x}, {:#018x}), ({}, {:#018x}, {:#018x})],\n",
                a.0, a.1, a.2, b.0, b.1, b.2
            )
        })
        .collect();
    assert!(
        actual == PINNED,
        "the reference stream or a result moved; this tree records:\n{table}"
    );
}
