//! Runtime values.

use std::cmp::Ordering;
use std::fmt;

use dss_tpcd::{ColType, Date, Value};

/// A runtime value flowing through the executor.
///
/// Mirrors [`dss_tpcd::Value`] but is the engine's own type so operators can
/// carry evaluation results (e.g. decimal arithmetic) without reaching back
/// into the generator crate.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Datum {
    /// 8-byte integer.
    Int(i64),
    /// Decimal in hundredths.
    Dec(i64),
    /// Calendar date.
    Date(Date),
    /// Character string.
    Str(String),
}

impl Datum {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if this is not an [`Datum::Int`]; the planner type-checks
    /// expressions, so a mismatch is an engine bug.
    pub fn int(&self) -> i64 {
        match self {
            Datum::Int(v) => *v,
            other => panic!("expected Int, found {other:?}"),
        }
    }

    /// The decimal payload in hundredths.
    ///
    /// # Panics
    ///
    /// Panics if this is not a [`Datum::Dec`].
    pub fn dec(&self) -> i64 {
        match self {
            Datum::Dec(v) => *v,
            other => panic!("expected Dec, found {other:?}"),
        }
    }

    /// The date payload.
    ///
    /// # Panics
    ///
    /// Panics if this is not a [`Datum::Date`].
    pub fn date(&self) -> Date {
        match self {
            Datum::Date(d) => *d,
            other => panic!("expected Date, found {other:?}"),
        }
    }

    /// The string payload.
    ///
    /// # Panics
    ///
    /// Panics if this is not a [`Datum::Str`].
    pub fn str(&self) -> &str {
        match self {
            Datum::Str(s) => s,
            other => panic!("expected Str, found {other:?}"),
        }
    }

    /// The on-page width of this value under `ty`.
    pub fn width(ty: ColType) -> u64 {
        ty.width() as u64
    }

    /// Compares two datums of the same kind.
    ///
    /// # Panics
    ///
    /// Panics on a kind mismatch (planner bug).
    pub fn compare(&self, other: &Datum) -> Ordering {
        match (self, other) {
            (Datum::Int(a), Datum::Int(b)) => a.cmp(b),
            (Datum::Dec(a), Datum::Dec(b)) => a.cmp(b),
            (Datum::Date(a), Datum::Date(b)) => a.cmp(b),
            (Datum::Str(a), Datum::Str(b)) => a.as_str().cmp(b.as_str()),
            // Int/Dec mix arises from literals like `1 - l_discount`.
            (Datum::Int(a), Datum::Dec(b)) => (a * 100).cmp(b),
            (Datum::Dec(a), Datum::Int(b)) => a.cmp(&(b * 100)),
            (a, b) => panic!("type mismatch comparing {a:?} and {b:?}"),
        }
    }

    /// Numeric value scaled to hundredths, for arithmetic. Dates are their
    /// day number times 100 (so date subtraction yields day counts).
    ///
    /// # Panics
    ///
    /// Panics for strings.
    pub fn as_hundredths(&self) -> i64 {
        match self {
            Datum::Int(v) => v * 100,
            Datum::Dec(v) => *v,
            Datum::Date(d) => d.day_number() as i64 * 100,
            Datum::Str(s) => panic!("string {s:?} in arithmetic"),
        }
    }

    /// A 64-bit hash used by hash joins; deterministic.
    pub fn hash64(&self) -> u64 {
        match self {
            Datum::Int(v) | Datum::Dec(v) => hash_word(*v),
            Datum::Date(d) => hash_word(d.day_number() as i64),
            Datum::Str(s) => hash_str(s),
        }
    }
}

/// [`Datum::hash64`] of the datum `v` converts to, without converting it.
pub(crate) fn value_hash64(v: &Value) -> u64 {
    match v {
        Value::Int(v) | Value::Dec(v) => hash_word(*v),
        Value::Date(d) => hash_word(d.day_number() as i64),
        Value::Str(s) => hash_str(s),
    }
}

fn hash_word(v: i64) -> u64 {
    (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn hash_str(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

impl From<&Value> for Datum {
    fn from(v: &Value) -> Self {
        v.clone().into()
    }
}

impl From<Value> for Datum {
    fn from(v: Value) -> Self {
        match v {
            Value::Int(i) => Datum::Int(i),
            Value::Dec(d) => Datum::Dec(d),
            Value::Date(d) => Datum::Date(d),
            Value::Str(s) => Datum::Str(s),
        }
    }
}

impl From<Datum> for Value {
    fn from(d: Datum) -> Self {
        match d {
            Datum::Int(i) => Value::Int(i),
            Datum::Dec(d) => Value::Dec(d),
            Datum::Date(d) => Value::Date(d),
            Datum::Str(s) => Value::Str(s),
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Dec(v) => {
                let sign = if *v < 0 { "-" } else { "" };
                write!(f, "{sign}{}.{:02}", (v / 100).abs(), (v % 100).abs())
            }
            Datum::Date(d) => write!(f, "{d}"),
            Datum::Str(s) => write!(f, "{s}"),
        }
    }
}

/// SQL `like` matching with `%` (any run) and `_` (any char) wildcards.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                // Match zero or more characters.
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_same_kinds() {
        assert_eq!(Datum::Int(1).compare(&Datum::Int(2)), Ordering::Less);
        assert_eq!(
            Datum::Str("AIR".into()).compare(&Datum::Str("AIR".into())),
            Ordering::Equal
        );
        let a = Datum::Date(Date::from_ymd(1995, 1, 1));
        let b = Datum::Date(Date::from_ymd(1995, 1, 2));
        assert_eq!(a.compare(&b), Ordering::Less);
    }

    #[test]
    fn int_dec_comparisons_scale() {
        assert_eq!(Datum::Int(1).compare(&Datum::Dec(100)), Ordering::Equal);
        assert_eq!(Datum::Dec(99).compare(&Datum::Int(1)), Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn cross_kind_comparison_panics() {
        Datum::Int(1).compare(&Datum::Str("x".into()));
    }

    #[test]
    fn display_formats_decimals() {
        assert_eq!(Datum::Dec(1234).to_string(), "12.34");
        assert_eq!(Datum::Dec(-5).to_string(), "-0.05");
        assert_eq!(Datum::Dec(5).to_string(), "0.05");
    }

    #[test]
    fn like_semantics() {
        assert!(like_match("MEDIUM POLISHED TIN", "MEDIUM%"));
        assert!(like_match("MEDIUM POLISHED TIN", "%TIN"));
        assert!(like_match("MEDIUM POLISHED TIN", "%POLISHED%"));
        assert!(!like_match("SMALL BRUSHED TIN", "MEDIUM%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("anything", "%%"));
    }

    #[test]
    fn value_conversion() {
        assert_eq!(Datum::from(&Value::Int(7)), Datum::Int(7));
        assert_eq!(Datum::from(&Value::Str("x".into())), Datum::Str("x".into()));
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(Datum::Int(5).hash64(), Datum::Int(5).hash64());
        assert_ne!(Datum::Int(5).hash64(), Datum::Int(6).hash64());
        assert_ne!(
            Datum::Str("AIR".into()).hash64(),
            Datum::Str("RAIL".into()).hash64()
        );
    }
}
