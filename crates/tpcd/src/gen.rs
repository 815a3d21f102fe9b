//! The dbgen-equivalent population generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::schema::{scaled_cardinality, tpcd_schema, Value};
use crate::text;
use crate::Date;

/// A generated `customer` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Customer {
    /// Primary key, 1-based and dense.
    pub custkey: i64,
    /// `Customer#<key>`.
    pub name: String,
    /// Random address text.
    pub address: String,
    /// Foreign key into `nation`.
    pub nationkey: i64,
    /// Phone number.
    pub phone: String,
    /// Account balance in hundredths.
    pub acctbal: i64,
    /// One of the five market segments.
    pub mktsegment: &'static str,
    /// Filler.
    pub comment: String,
}

/// A generated `orders` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Order {
    /// Primary key, 1-based and dense.
    pub orderkey: i64,
    /// Foreign key into `customer`.
    pub custkey: i64,
    /// `F`, `O` or `P` depending on lineitem statuses.
    pub orderstatus: char,
    /// Total price in hundredths.
    pub totalprice: i64,
    /// Order placement date.
    pub orderdate: Date,
    /// One of the five priorities.
    pub orderpriority: &'static str,
    /// `Clerk#<n>`.
    pub clerk: String,
    /// Always zero in TPC-D.
    pub shippriority: i64,
    /// Filler.
    pub comment: String,
}

/// A generated `lineitem` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lineitem {
    /// Foreign key into `orders`.
    pub orderkey: i64,
    /// Foreign key into `part`.
    pub partkey: i64,
    /// Foreign key into `supplier`.
    pub suppkey: i64,
    /// 1-based line number within the order.
    pub linenumber: i64,
    /// Quantity in hundredths (1.00–50.00).
    pub quantity: i64,
    /// Extended price in hundredths.
    pub extendedprice: i64,
    /// Discount in hundredths (0.00–0.10).
    pub discount: i64,
    /// Tax in hundredths (0.00–0.08).
    pub tax: i64,
    /// `R`, `A` or `N`.
    pub returnflag: char,
    /// `O` or `F`.
    pub linestatus: char,
    /// Ship date.
    pub shipdate: Date,
    /// Committed delivery date.
    pub commitdate: Date,
    /// Receipt date.
    pub receiptdate: Date,
    /// One of the four instructions.
    pub shipinstruct: &'static str,
    /// One of the seven modes.
    pub shipmode: &'static str,
    /// Filler.
    pub comment: String,
}

/// A generated `part` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Part {
    /// Primary key, 1-based and dense.
    pub partkey: i64,
    /// Five noise words.
    pub name: String,
    /// `Manufacturer#<1-5>`.
    pub mfgr: String,
    /// `Brand#<mfgr><1-5>`.
    pub brand: String,
    /// Three-syllable type string.
    pub ty: String,
    /// 1–50.
    pub size: i64,
    /// Two-syllable container string.
    pub container: String,
    /// Retail price in hundredths.
    pub retailprice: i64,
    /// Filler.
    pub comment: String,
}

/// A generated `partsupp` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartSupp {
    /// Foreign key into `part`.
    pub partkey: i64,
    /// Foreign key into `supplier`.
    pub suppkey: i64,
    /// 1–9999.
    pub availqty: i64,
    /// Supply cost in hundredths.
    pub supplycost: i64,
    /// Filler.
    pub comment: String,
}

/// A generated `supplier` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Supplier {
    /// Primary key, 1-based and dense.
    pub suppkey: i64,
    /// `Supplier#<key>`.
    pub name: String,
    /// Random address text.
    pub address: String,
    /// Foreign key into `nation`.
    pub nationkey: i64,
    /// Phone number.
    pub phone: String,
    /// Account balance in hundredths.
    pub acctbal: i64,
    /// Filler.
    pub comment: String,
}

/// A generated `nation` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Nation {
    /// Primary key, 0-based like the spec.
    pub nationkey: i64,
    /// Nation name.
    pub name: &'static str,
    /// Foreign key into `region`.
    pub regionkey: i64,
    /// Filler.
    pub comment: String,
}

/// A generated `region` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Primary key, 0-based like the spec.
    pub regionkey: i64,
    /// Region name.
    pub name: &'static str,
    /// Filler.
    pub comment: String,
}

/// A complete generated database population.
#[derive(Clone, Debug, Default)]
pub struct DbData {
    /// `region` rows.
    pub regions: Vec<Region>,
    /// `nation` rows.
    pub nations: Vec<Nation>,
    /// `supplier` rows.
    pub suppliers: Vec<Supplier>,
    /// `customer` rows.
    pub customers: Vec<Customer>,
    /// `part` rows.
    pub parts: Vec<Part>,
    /// `partsupp` rows.
    pub partsupps: Vec<PartSupp>,
    /// `orders` rows.
    pub orders: Vec<Order>,
    /// `lineitem` rows.
    pub lineitems: Vec<Lineitem>,
}

impl DbData {
    /// Calls `f` with each row of table `name`, as generic values in schema
    /// column order, in generation order. At most one row is alive at a time,
    /// so a loader never holds a table-sized copy of the population.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a TPC-D table.
    pub fn for_each_row(&self, name: &str, mut f: impl FnMut(&[Value])) {
        self.visit(name, |row| f(&row));
    }

    /// Rows of table `name` as generic values in schema column order.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a TPC-D table.
    pub fn rows(&self, name: &str) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        self.visit(name, |row| rows.push(row));
        rows
    }

    fn visit(&self, name: &str, f: impl FnMut(Vec<Value>)) {
        match name {
            "region" => self.regions.iter().map(region_values).for_each(f),
            "nation" => self.nations.iter().map(nation_values).for_each(f),
            "supplier" => self.suppliers.iter().map(supplier_values).for_each(f),
            "customer" => self.customers.iter().map(customer_values).for_each(f),
            "part" => self.parts.iter().map(part_values).for_each(f),
            "partsupp" => self.partsupps.iter().map(partsupp_values).for_each(f),
            "orders" => self.orders.iter().map(order_values).for_each(f),
            "lineitem" => self.lineitems.iter().map(lineitem_values).for_each(f),
            other => panic!("unknown TPC-D table {other}"),
        }
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.regions.len()
            + self.nations.len()
            + self.suppliers.len()
            + self.customers.len()
            + self.parts.len()
            + self.partsupps.len()
            + self.orders.len()
            + self.lineitems.len()
    }
}

impl Order {
    /// The row as generic values in schema column order.
    pub fn values(&self) -> Vec<Value> {
        order_values(self)
    }
}

impl Lineitem {
    /// The row as generic values in schema column order.
    pub fn values(&self) -> Vec<Value> {
        lineitem_values(self)
    }
}

fn region_values(r: &Region) -> Vec<Value> {
    vec![r.regionkey.into(), r.name.into(), r.comment.clone().into()]
}

fn nation_values(n: &Nation) -> Vec<Value> {
    vec![
        n.nationkey.into(),
        n.name.into(),
        n.regionkey.into(),
        n.comment.clone().into(),
    ]
}

fn supplier_values(s: &Supplier) -> Vec<Value> {
    vec![
        s.suppkey.into(),
        s.name.clone().into(),
        s.address.clone().into(),
        s.nationkey.into(),
        s.phone.clone().into(),
        Value::Dec(s.acctbal),
        s.comment.clone().into(),
    ]
}

fn customer_values(c: &Customer) -> Vec<Value> {
    vec![
        c.custkey.into(),
        c.name.clone().into(),
        c.address.clone().into(),
        c.nationkey.into(),
        c.phone.clone().into(),
        Value::Dec(c.acctbal),
        c.mktsegment.into(),
        c.comment.clone().into(),
    ]
}

fn part_values(p: &Part) -> Vec<Value> {
    vec![
        p.partkey.into(),
        p.name.clone().into(),
        p.mfgr.clone().into(),
        p.brand.clone().into(),
        p.ty.clone().into(),
        p.size.into(),
        p.container.clone().into(),
        Value::Dec(p.retailprice),
        p.comment.clone().into(),
    ]
}

fn partsupp_values(ps: &PartSupp) -> Vec<Value> {
    vec![
        ps.partkey.into(),
        ps.suppkey.into(),
        ps.availqty.into(),
        Value::Dec(ps.supplycost),
        ps.comment.clone().into(),
    ]
}

fn order_values(o: &Order) -> Vec<Value> {
    vec![
        o.orderkey.into(),
        o.custkey.into(),
        o.orderstatus.to_string().into(),
        Value::Dec(o.totalprice),
        o.orderdate.into(),
        o.orderpriority.into(),
        o.clerk.clone().into(),
        o.shippriority.into(),
        o.comment.clone().into(),
    ]
}

fn lineitem_values(l: &Lineitem) -> Vec<Value> {
    vec![
        l.orderkey.into(),
        l.partkey.into(),
        l.suppkey.into(),
        l.linenumber.into(),
        Value::Dec(l.quantity),
        Value::Dec(l.extendedprice),
        Value::Dec(l.discount),
        Value::Dec(l.tax),
        l.returnflag.to_string().into(),
        l.linestatus.to_string().into(),
        l.shipdate.into(),
        l.commitdate.into(),
        l.receiptdate.into(),
        l.shipinstruct.into(),
        l.shipmode.into(),
        l.comment.clone().into(),
    ]
}

/// The deterministic TPC-D population generator.
///
/// Reproduces dbgen's value distributions (uniform dates within the 1992–1998
/// population window, spec price formulas, per-order lineitem fan-out of one
/// to seven) at an arbitrary scale factor. The paper scales the standard data
/// set down 100×, i.e. `scale = 0.01`, producing a ~15 MB heap image whose
/// `lineitem` table is ~70 % of the data.
///
/// # Example
///
/// ```
/// use dss_tpcd::Generator;
///
/// let db = Generator::new(0.001, 42).generate();
/// assert_eq!(db.customers.len(), 150);
/// assert!(!db.lineitems.is_empty());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Generator {
    scale: f64,
    seed: u64,
}

impl Generator {
    /// Creates a generator for the given scale factor and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics unless [`crate::valid_scale`] accepts `scale`.
    pub fn new(scale: f64, seed: u64) -> Self {
        assert!(
            crate::valid_scale(scale),
            "scale factor must be positive and at most {}",
            crate::MAX_SCALE
        );
        Generator { scale, seed }
    }

    /// The configured scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Generates the full population.
    pub fn generate(&self) -> DbData {
        let mut db = DbData {
            regions: self.regions(),
            nations: self.nations(),
            suppliers: self.suppliers(),
            customers: self.customers(),
            parts: self.parts(),
            partsupps: Vec::new(),
            orders: Vec::new(),
            lineitems: Vec::new(),
        };
        db.partsupps = self.partsupps(db.parts.len() as i64, db.suppliers.len() as i64);
        let (orders, lineitems) = self.orders_and_lineitems(
            db.customers.len() as i64,
            db.parts.len() as i64,
            db.suppliers.len() as i64,
        );
        db.orders = orders;
        db.lineitems = lineitems;
        db
    }

    fn cardinality_of(&self, table: &str) -> u64 {
        let def = tpcd_schema()
            .iter()
            .find(|t| t.name == table)
            .expect("known table");
        match table {
            // Fixed-size tables do not scale.
            "region" | "nation" => def.base_cardinality,
            _ => scaled_cardinality(def.base_cardinality, self.scale),
        }
    }

    fn rng_for(&self, table: &str) -> StdRng {
        // Independent, stable stream per table so adding columns to one table
        // never perturbs another.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in table.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }

    fn regions(&self) -> Vec<Region> {
        let mut rng = self.rng_for("region");
        text::REGIONS
            .iter()
            .enumerate()
            .map(|(i, name)| Region {
                regionkey: i as i64,
                name,
                comment: text::comment(&mut rng, 30),
            })
            .collect()
    }

    fn nations(&self) -> Vec<Nation> {
        let mut rng = self.rng_for("nation");
        text::NATIONS
            .iter()
            .enumerate()
            .map(|(i, (name, region))| Nation {
                nationkey: i as i64,
                name,
                regionkey: *region as i64,
                comment: text::comment(&mut rng, 30),
            })
            .collect()
    }

    fn suppliers(&self) -> Vec<Supplier> {
        let mut rng = self.rng_for("supplier");
        (1..=self.cardinality_of("supplier") as i64)
            .map(|k| {
                let nationkey = rng.gen_range(0..25);
                Supplier {
                    suppkey: k,
                    name: format!("Supplier#{k:09}"),
                    address: text::comment(&mut rng, 24),
                    nationkey,
                    phone: text::phone(&mut rng, nationkey),
                    acctbal: rng.gen_range(-99_999..=999_999),
                    comment: text::comment(&mut rng, 25),
                }
            })
            .collect()
    }

    fn customers(&self) -> Vec<Customer> {
        let mut rng = self.rng_for("customer");
        (1..=self.cardinality_of("customer") as i64)
            .map(|k| {
                let nationkey = rng.gen_range(0..25);
                Customer {
                    custkey: k,
                    name: format!("Customer#{k:09}"),
                    address: text::comment(&mut rng, 24),
                    nationkey,
                    phone: text::phone(&mut rng, nationkey),
                    acctbal: rng.gen_range(-99_999..=999_999),
                    mktsegment: text::pick(&mut rng, &text::SEGMENTS),
                    comment: text::comment(&mut rng, 60),
                }
            })
            .collect()
    }

    fn parts(&self) -> Vec<Part> {
        let mut rng = self.rng_for("part");
        (1..=self.cardinality_of("part") as i64)
            .map(|k| {
                let mfgr = rng.gen_range(1..=5);
                let brand = mfgr * 10 + rng.gen_range(1..=5);
                let mut name_words: Vec<&str> = Vec::with_capacity(5);
                for _ in 0..5 {
                    name_words.push(text::pick(&mut rng, &text::PART_NAME_WORDS));
                }
                Part {
                    partkey: k,
                    name: name_words.join(" "),
                    mfgr: format!("Manufacturer#{mfgr}"),
                    brand: format!("Brand#{brand}"),
                    ty: format!(
                        "{} {} {}",
                        text::pick(&mut rng, &text::TYPE_SYL1),
                        text::pick(&mut rng, &text::TYPE_SYL2),
                        text::pick(&mut rng, &text::TYPE_SYL3)
                    ),
                    size: rng.gen_range(1..=50),
                    container: format!(
                        "{} {}",
                        text::pick(&mut rng, &text::CONTAINER_SYL1),
                        text::pick(&mut rng, &text::CONTAINER_SYL2)
                    ),
                    retailprice: retail_price(k),
                    comment: text::comment(&mut rng, 14),
                }
            })
            .collect()
    }

    fn partsupps(&self, parts: i64, suppliers: i64) -> Vec<PartSupp> {
        let mut rng = self.rng_for("partsupp");
        let mut out = Vec::with_capacity(parts as usize * 4);
        for partkey in 1..=parts {
            for i in 0..4i64 {
                out.push(PartSupp {
                    partkey,
                    suppkey: partsupp_suppkey(partkey, i, suppliers),
                    availqty: rng.gen_range(1..=9999),
                    supplycost: rng.gen_range(100..=100_000),
                    comment: text::comment(&mut rng, 50),
                });
            }
        }
        out
    }

    fn orders_and_lineitems(
        &self,
        customers: i64,
        parts: i64,
        suppliers: i64,
    ) -> (Vec<Order>, Vec<Lineitem>) {
        let mut rng = self.rng_for("orders");
        let n_orders = self.cardinality_of("orders") as i64;
        let mut orders = Vec::with_capacity(n_orders as usize);
        let mut lineitems = Vec::with_capacity(n_orders as usize * 4);
        for orderkey in 1..=n_orders {
            let (o, ls) = gen_order(&mut rng, orderkey, customers, parts, suppliers);
            orders.push(o);
            lineitems.extend(ls);
        }
        (orders, lineitems)
    }

    /// Generates the rows inserted by TPC-D's update function UF1: `count`
    /// new orders (with their lineitems) keyed from `base_orderkey`, drawn
    /// from the same distributions as the base population.
    ///
    /// The paper declines to trace the update functions; this supports the
    /// reproduction's update-workload extension experiment.
    pub fn uf1_rows(
        &self,
        seed: u64,
        count: usize,
        base_orderkey: i64,
    ) -> (Vec<Order>, Vec<Lineitem>) {
        let customers = self.cardinality_of("customer") as i64;
        let parts = self.cardinality_of("part") as i64;
        let suppliers = self.cardinality_of("supplier") as i64;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7531_9d4a_11aa_22bb);
        let mut orders = Vec::with_capacity(count);
        let mut lineitems = Vec::new();
        for i in 0..count as i64 {
            let (o, ls) = gen_order(&mut rng, base_orderkey + i, customers, parts, suppliers);
            orders.push(o);
            lineitems.extend(ls);
        }
        (orders, lineitems)
    }
}

/// Generates one order and its lineitems from the spec distributions.
fn gen_order(
    rng: &mut StdRng,
    orderkey: i64,
    customers: i64,
    parts: i64,
    suppliers: i64,
) -> (Order, Vec<Lineitem>) {
    // Latest order date leaves room for ship+receipt offsets (151 days).
    let order_window = Date::END.days_since(Date::START) - 151;
    let custkey = rng.gen_range(1..=customers);
    let orderdate = Date::START.add_days(rng.gen_range(0..=order_window));
    let lines = rng.gen_range(1..=7);
    let mut totalprice = 0i64;
    let mut shipped = 0;
    let mut lineitems = Vec::with_capacity(lines as usize);
    for linenumber in 1..=lines {
        let partkey = rng.gen_range(1..=parts);
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
        lineitems.push(Lineitem {
            orderkey,
            partkey,
            suppkey: partsupp_suppkey(partkey, rng.gen_range(0..4), suppliers),
            linenumber,
            quantity,
            extendedprice,
            discount,
            tax,
            returnflag,
            linestatus,
            shipdate,
            commitdate,
            receiptdate,
            shipinstruct: text::pick(rng, &text::SHIP_INSTRUCTS),
            shipmode: text::pick(rng, &text::SHIP_MODES),
            comment: text::comment(rng, 27),
        });
    }
    let orderstatus = if shipped == lines {
        'F'
    } else if shipped == 0 {
        'O'
    } else {
        'P'
    };
    let order = Order {
        orderkey,
        custkey,
        orderstatus,
        totalprice,
        orderdate,
        orderpriority: text::pick(rng, &text::ORDER_PRIORITIES),
        clerk: format!("Clerk#{:09}", rng.gen_range(1..=1000)),
        shippriority: 0,
        comment: text::comment(rng, 30),
    };
    (order, lineitems)
}

/// The spec's retail price formula: `(90000 + ((partkey/10) % 20001) +
/// 100 * (partkey % 1000)) / 100` dollars, kept in hundredths.
fn retail_price(partkey: i64) -> i64 {
    90_000 + (partkey / 10) % 20_001 + 100 * (partkey % 1000)
}

/// The spec's partsupp supplier spreading formula.
fn partsupp_suppkey(partkey: i64, i: i64, suppliers: i64) -> i64 {
    let s = suppliers;
    (partkey + i * (s / 4 + (partkey - 1) / s)) % s + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_db() -> DbData {
        Generator::new(0.001, 7).generate()
    }

    #[test]
    fn cardinalities_scale() {
        let db = small_db();
        assert_eq!(db.regions.len(), 5);
        assert_eq!(db.nations.len(), 25);
        assert_eq!(db.suppliers.len(), 10);
        assert_eq!(db.customers.len(), 150);
        assert_eq!(db.parts.len(), 200);
        assert_eq!(db.partsupps.len(), 800);
        assert_eq!(db.orders.len(), 1500);
        // One to seven lineitems per order, averaging four.
        assert!(db.lineitems.len() >= db.orders.len());
        assert!(db.lineitems.len() <= db.orders.len() * 7);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Generator::new(0.001, 7).generate();
        let b = Generator::new(0.001, 7).generate();
        assert_eq!(a.lineitems, b.lineitems);
        assert_eq!(a.customers, b.customers);
        let c = Generator::new(0.001, 8).generate();
        assert_ne!(a.lineitems, c.lineitems);
    }

    #[test]
    fn foreign_keys_are_valid() {
        let db = small_db();
        for o in &db.orders {
            assert!(o.custkey >= 1 && o.custkey <= db.customers.len() as i64);
        }
        for l in &db.lineitems {
            assert!(l.orderkey >= 1 && l.orderkey <= db.orders.len() as i64);
            assert!(l.partkey >= 1 && l.partkey <= db.parts.len() as i64);
            assert!(l.suppkey >= 1 && l.suppkey <= db.suppliers.len() as i64);
        }
        for ps in &db.partsupps {
            assert!(ps.suppkey >= 1 && ps.suppkey <= db.suppliers.len() as i64);
        }
    }

    #[test]
    fn date_invariants_hold() {
        let db = small_db();
        let orders_by_key = &db.orders;
        for l in &db.lineitems {
            let o = &orders_by_key[(l.orderkey - 1) as usize];
            assert!(l.shipdate > o.orderdate);
            assert!(l.receiptdate > l.shipdate);
            assert!(l.commitdate >= o.orderdate.add_days(30));
            assert!(l.shipdate <= Date::END);
            // Status flags follow the current-date rule.
            if l.shipdate > Date::CURRENT {
                assert_eq!(l.linestatus, 'O');
            } else {
                assert_eq!(l.linestatus, 'F');
            }
            if l.receiptdate > Date::CURRENT {
                assert_eq!(l.returnflag, 'N');
            }
        }
    }

    #[test]
    fn lineitems_are_clustered_by_orderkey() {
        // dbgen emits lineitems grouped by order, which is what gives the
        // sequential scan its streaming behavior over orderkey.
        let db = small_db();
        let keys: Vec<i64> = db.lineitems.iter().map(|l| l.orderkey).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn values_match_schema_arity() {
        let db = small_db();
        for table in tpcd_schema() {
            let rows = db.rows(table.name);
            assert!(!rows.is_empty(), "{} empty", table.name);
            for row in &rows {
                assert_eq!(row.len(), table.columns.len(), "arity of {}", table.name);
            }
        }
    }

    #[test]
    fn all_segments_appear_at_tiny_scale() {
        let db = small_db();
        let mut seen: std::collections::HashSet<&str> = Default::default();
        for c in &db.customers {
            seen.insert(c.mktsegment);
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn retail_price_formula_matches_spec() {
        assert_eq!(retail_price(1), 90_100);
        assert_eq!(retail_price(10), 90_001 + 100 * 10);
    }

    #[test]
    fn partsupp_suppkeys_in_range() {
        for partkey in 1..=100 {
            for i in 0..4 {
                let k = partsupp_suppkey(partkey, i, 10);
                assert!((1..=10).contains(&k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        Generator::new(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "at most 1000")]
    fn scale_beyond_tpcd_rejected() {
        Generator::new(1e300, 1);
    }
}
