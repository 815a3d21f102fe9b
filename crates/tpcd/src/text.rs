//! Fixed value lists and filler-text pools from the TPC-D specification.

use std::fmt::Write as _;

use rand::Rng;

/// The five market segments (`c_mktsegment`).
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

/// The seven ship modes (`l_shipmode`).
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// The four ship instructions (`l_shipinstruct`).
pub const SHIP_INSTRUCTS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// The five order priorities (`o_orderpriority`).
pub const ORDER_PRIORITIES: [&str; 5] =
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Part type syllables (`p_type` is `<syl1> <syl2> <syl3>`).
pub const TYPE_SYL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
/// Second syllable of `p_type`.
pub const TYPE_SYL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
/// Third syllable of `p_type`.
pub const TYPE_SYL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// Container syllables (`p_container` is `<syl1> <syl2>`).
pub const CONTAINER_SYL1: [&str; 5] = ["SM", "MED", "LG", "JUMBO", "WRAP"];
/// Second syllable of `p_container`.
pub const CONTAINER_SYL2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// Part-name noise words (`p_name` is five of these).
pub const PART_NAME_WORDS: [&str; 30] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "floral",
    "forest",
    "frosted",
    "gainsboro",
];

/// The 25 nations with their region assignment (index into [`REGIONS`]).
pub const NATIONS: [(&str, usize); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// The five regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// Word pool for comment filler text.
const COMMENT_WORDS: [&str; 40] = [
    "blithely",
    "carefully",
    "express",
    "final",
    "furiously",
    "ironic",
    "pending",
    "quickly",
    "regular",
    "slyly",
    "special",
    "unusual",
    "accounts",
    "deposits",
    "foxes",
    "ideas",
    "instructions",
    "packages",
    "pinto",
    "beans",
    "platelets",
    "requests",
    "theodolites",
    "dependencies",
    "excuses",
    "sauternes",
    "asymptotes",
    "courts",
    "dolphins",
    "multipliers",
    "sentiments",
    "daring",
    "even",
    "bold",
    "silent",
    "sleep",
    "wake",
    "nag",
    "haggle",
    "detect",
];

/// Produces comment filler of exactly `len` bytes from the TPC-D word pool.
pub fn comment<R: Rng>(rng: &mut R, len: usize) -> String {
    let mut out = String::with_capacity(len + 16);
    while out.len() < len {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())]);
    }
    out.truncate(len);
    out
}

/// Produces a phone number in the spec's `CC-NNN-NNN-NNNN` shape.
pub fn phone<R: Rng>(rng: &mut R, nationkey: i64) -> String {
    let mut out = String::with_capacity(15);
    let _ = write!(
        out,
        "{:02}-{:03}-{:03}-{:04}",
        10 + nationkey,
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000)
    );
    out
}

/// Picks a random element of `choices`.
pub fn pick<'a, R: Rng>(rng: &mut R, choices: &[&'a str]) -> &'a str {
    choices[rng.gen_range(0..choices.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn comment_has_exact_length() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [1usize, 10, 27, 60, 117] {
            assert_eq!(comment(&mut rng, len).len(), len);
        }
    }

    #[test]
    fn phone_shape_matches_spec() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = phone(&mut rng, 3);
        assert_eq!(p.len(), 15);
        assert!(p.starts_with("13-"));
        assert_eq!(p.matches('-').count(), 3);
    }

    #[test]
    fn nations_reference_valid_regions() {
        for (name, region) in NATIONS {
            assert!(!name.is_empty());
            assert!(region < REGIONS.len());
        }
        assert_eq!(NATIONS.len(), 25);
    }

    #[test]
    fn value_lists_match_spec_sizes() {
        assert_eq!(SEGMENTS.len(), 5);
        assert_eq!(SHIP_MODES.len(), 7);
        assert_eq!(SHIP_INSTRUCTS.len(), 4);
        assert_eq!(ORDER_PRIORITIES.len(), 5);
    }

    #[test]
    fn pick_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(pick(&mut a, &SEGMENTS), pick(&mut b, &SEGMENTS));
        }
    }
}
