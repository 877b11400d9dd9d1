//! Value generators for entity fields.

use rand::rngs::StdRng;
use rand::Rng;

use udi_store::Value;

use crate::vocab::{pool, PoolId};

/// How to synthesize values of a concept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueKind {
    /// `First Last` from the name pools.
    PersonName,
    /// `123 Maple Ave` style street addresses.
    StreetAddress,
    /// US-style `555-0123` phone numbers.
    Phone,
    /// `first.last@example.com` addresses.
    Email,
    /// A year in the inclusive range.
    Year {
        /// Earliest year.
        min: i64,
        /// Latest year.
        max: i64,
    },
    /// An integer in the inclusive range. With probability `stringly`, the
    /// value is stored as text — the web-table artifact behind the paper's
    /// Course-domain precision loss (lexicographic comparison of numbers).
    IntRange {
        /// Smallest value.
        min: i64,
        /// Largest value.
        max: i64,
        /// Probability of storing the number as text.
        stringly: f64,
    },
    /// A price with two decimals in the inclusive dollar range.
    Money {
        /// Minimum dollars.
        min: i64,
        /// Maximum dollars.
        max: i64,
    },
    /// One word/phrase from a static pool.
    FromPool(PoolId),
    /// A multi-word title assembled from a pool.
    TitleWords {
        /// Pool to draw words from.
        pool: PoolId,
        /// Minimum words.
        min_words: usize,
        /// Maximum words.
        max_words: usize,
    },
    /// `DEPT 123`-style course codes.
    CourseCode,
    /// `123-145`-style page ranges.
    Pages,
    /// `1234-5678`-style ISSNs.
    Issn,
    /// `https://...` links (e.g. the Bib corpus's `link to pubmed`).
    Url,
    /// `Mon 10:00`-style time slots.
    TimeSlot,
    /// 17-character vehicle identification numbers.
    Vin,
}

impl ValueKind {
    /// Generate one value.
    pub fn generate(self, rng: &mut StdRng) -> Value {
        match self {
            ValueKind::PersonName => {
                let f = choose(rng, PoolId::FirstNames);
                let l = choose(rng, PoolId::LastNames);
                Value::text(format!("{f} {l}"))
            }
            ValueKind::StreetAddress => {
                let n: u32 = rng.gen_range(1..999);
                let s = choose(rng, PoolId::Streets);
                Value::text(format!("{n} {s}"))
            }
            ValueKind::Phone => {
                let a: u32 = rng.gen_range(200..999);
                let b: u32 = rng.gen_range(0..10_000);
                Value::text(format!("{a}-{b:04}"))
            }
            ValueKind::Email => {
                let f = choose(rng, PoolId::FirstNames).to_lowercase();
                let l = choose(rng, PoolId::LastNames).to_lowercase();
                Value::text(format!("{f}.{l}@example.com"))
            }
            ValueKind::Year { min, max } => Value::Int(rng.gen_range(min..=max)),
            ValueKind::IntRange { min, max, stringly } => {
                let v = rng.gen_range(min..=max);
                if rng.gen_bool(stringly) {
                    Value::text(v.to_string())
                } else {
                    Value::Int(v)
                }
            }
            ValueKind::Money { min, max } => {
                let dollars = rng.gen_range(min..=max);
                let cents: i64 = rng.gen_range(0..100);
                Value::float(dollars as f64 + cents as f64 / 100.0)
            }
            ValueKind::FromPool(p) => Value::text(choose(rng, p)),
            ValueKind::TitleWords {
                pool: p,
                min_words,
                max_words,
            } => {
                let n = rng.gen_range(min_words..=max_words);
                let words: Vec<&str> = (0..n).map(|_| choose(rng, p)).collect();
                Value::text(words.join(" "))
            }
            ValueKind::CourseCode => {
                let dept = choose(rng, PoolId::Departments);
                let prefix: String = dept
                    .split_whitespace()
                    .map(|w| w.chars().next().unwrap_or('X'))
                    .collect::<String>()
                    .to_uppercase();
                let num: u32 = rng.gen_range(100..600);
                Value::text(format!("{prefix}{num}"))
            }
            ValueKind::Pages => {
                let start: u32 = rng.gen_range(1..900);
                let len: u32 = rng.gen_range(2..40);
                Value::text(format!("{start}-{}", start + len))
            }
            ValueKind::Issn => {
                let a: u32 = rng.gen_range(1000..10_000);
                let b: u32 = rng.gen_range(1000..10_000);
                Value::text(format!("{a}-{b}"))
            }
            ValueKind::Url => {
                let id: u32 = rng.gen_range(10_000..10_000_000);
                Value::text(format!("https://pubmed.example.org/{id}"))
            }
            ValueKind::TimeSlot => {
                const DAYS: [&str; 5] = ["Mon", "Tue", "Wed", "Thu", "Fri"];
                let day = DAYS.get(rng.gen_range(0..5)).copied().unwrap_or("Mon");
                let hour: u32 = rng.gen_range(8..18);
                Value::text(format!("{day} {hour}:00"))
            }
            ValueKind::Vin => {
                const CHARS: &[u8] = b"ABCDEFGHJKLMNPRSTUVWXYZ0123456789";
                let s: String = (0..17)
                    .map(|_| {
                        CHARS
                            .get(rng.gen_range(0..CHARS.len()))
                            .copied()
                            .unwrap_or(b'A') as char
                    })
                    .collect();
                Value::text(s)
            }
        }
    }
}

fn choose(rng: &mut StdRng, p: PoolId) -> &'static str {
    let words = pool(p);
    words
        .get(rng.gen_range(0..words.len()))
        .copied()
        .unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn generators_produce_expected_shapes() {
        let mut r = rng();
        assert!(matches!(
            ValueKind::PersonName.generate(&mut r),
            Value::Text(_)
        ));
        assert!(matches!(
            ValueKind::Year { min: 1950, max: 2008 }.generate(&mut r),
            Value::Int(y) if (1950..=2008).contains(&y)
        ));
        let money = ValueKind::Money { min: 1, max: 10 }.generate(&mut r);
        let f = money.as_f64().unwrap();
        assert!((1.0..11.0).contains(&f));
        let vin = ValueKind::Vin.generate(&mut r).to_string();
        assert_eq!(vin.len(), 17);
        let pages = ValueKind::Pages.generate(&mut r).to_string();
        assert!(pages.contains('-'));
    }

    #[test]
    fn stringly_int_emits_text_and_int() {
        let mut r = rng();
        let kind = ValueKind::IntRange {
            min: 1,
            max: 500,
            stringly: 0.5,
        };
        let mut text = 0;
        let mut int = 0;
        for _ in 0..200 {
            match kind.generate(&mut r) {
                Value::Text(_) => text += 1,
                Value::Int(_) => int += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(text > 50 && int > 50, "text={text} int={int}");
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let mut a = rng();
        let mut b = rng();
        for _ in 0..20 {
            assert_eq!(
                ValueKind::PersonName.generate(&mut a),
                ValueKind::PersonName.generate(&mut b)
            );
        }
    }
}
