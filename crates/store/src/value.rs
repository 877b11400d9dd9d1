//! Typed cell values with SQL-flavored comparison semantics.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single cell value.
///
/// Numeric kinds compare to each other numerically; text compares to text
/// lexicographically (case-sensitive). A comparison between text and a
/// numeric value renders the number as text and compares lexicographically —
/// the behaviour of a source that stored numbers as strings, which is exactly
/// the artifact the paper reports for the Course domain ("a numeric
/// comparison performed on a string data type generates incorrect answers").
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Compares below everything; equal only to itself for
    /// deduplication purposes (predicate evaluation treats it as no-match).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float. NaN is normalized to [`Value::Null`] at construction
    /// via [`Value::float`]; do not construct `Float(NaN)` directly.
    Float(f64),
    /// UTF-8 text, shared: cloning a text cell (projection, accumulation,
    /// `Catalog::clone`) bumps a reference count instead of copying the
    /// bytes. `Arc`, not `Rc`, because snapshots are read by several
    /// threads. Equality, ordering and hashing look at the contents only.
    Text(Arc<str>),
}

impl Value {
    /// Build a text value. The bytes are copied into their shared
    /// allocation once, here.
    pub fn text(s: impl Into<Arc<str>>) -> Value {
        Value::Text(s.into())
    }

    /// Build an integer value.
    pub fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// Build a float value; NaN becomes [`Value::Null`] so that `Eq`/`Ord`
    /// stay total.
    pub fn float(v: f64) -> Value {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }

    /// Is this the SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Parse a literal the way a web-table importer would: empty → NULL,
    /// integer-looking → `Int`, float-looking → `Float`, otherwise `Text`.
    ///
    /// ```
    /// use udi_store::Value;
    /// assert_eq!(Value::parse("42"), Value::Int(42));
    /// assert_eq!(Value::parse("4.5"), Value::Float(4.5));
    /// assert_eq!(Value::parse("abc"), Value::text("abc"));
    /// assert_eq!(Value::parse(""), Value::Null);
    /// ```
    pub fn parse(raw: &str) -> Value {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Value::Null;
        }
        if let Ok(i) = trimmed.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            return Value::float(f);
        }
        Value::text(trimmed)
    }

    /// Render the value the way it would appear in a result row.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// SQL-style comparison used by predicate evaluation.
    ///
    /// Returns `None` when either side is NULL (three-valued logic: the
    /// predicate is unknown, hence not satisfied). A comparison between
    /// text and a numeric value renders the number and compares
    /// lexicographically — the stringly-typed-source artifact (see
    /// type-level docs). That mixed rule is deliberately *not* part of
    /// [`Ord`]: it is intransitive (`Int(2) > Text("10")`,
    /// `Text("10") ~ Int(10)`, `Int(10) > Int(2)`), which would corrupt
    /// ordered containers; `Ord` ranks kinds strictly instead.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Text(x), Text(y)) => Some(x.cmp(y)),
            (Text(x), y) => Some((**x).cmp(y.to_string().as_str())),
            (x, Text(y)) => Some(x.to_string().as_str().cmp(y)),
            (a, b) => Some(total_cmp(a, b)),
        }
    }
}

/// Transitive total order for `Ord`/`Eq`/`Hash`: NULL < numerics < text;
/// numerics compare numerically across `Int`/`Float`, text
/// lexicographically. (Predicate evaluation uses [`Value::sql_cmp`], which
/// additionally coerces mixed text/number pairs.)
fn total_cmp(a: &Value, b: &Value) -> Ordering {
    use Value::*;
    fn rank(v: &Value) -> u8 {
        match v {
            Null => 0,
            Int(_) | Float(_) => 1,
            Text(_) => 2,
        }
    }
    match (a, b) {
        (Int(x), Int(y)) => x.cmp(y),
        (Int(x), Float(y)) => cmp_f64(*x as f64, *y),
        (Float(x), Int(y)) => cmp_f64(*x, *y as f64),
        (Float(x), Float(y)) => cmp_f64(*x, *y),
        (Text(x), Text(y)) => x.cmp(y),
        (Null, Null) => Ordering::Equal,
        (x, y) => rank(x).cmp(&rank(y)),
    }
}

fn cmp_f64(x: f64, y: f64) -> Ordering {
    // NaN is rejected at `Value` construction, so `partial_cmp` cannot
    // return `None`; `Equal` is a defensive fallback, not a reachable case.
    x.partial_cmp(&y).unwrap_or(Ordering::Equal)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        total_cmp(self, other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        total_cmp(self, other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash must agree with `eq`: Int(2) == Float(2.0), so both hash as
        // the f64 bit pattern; NULL and text hash under their own tags
        // (text never equals a number under the strict total order).
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(i) => {
                state.write_u8(1);
                state.write_u64((*i as f64).to_bits());
            }
            Value::Float(f) => {
                state.write_u8(1);
                state.write_u64(f.to_bits());
            }
            Value::Text(s) => {
                state.write_u8(2);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::text(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::text(s)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::float(v)
    }
}

/// SQL `LIKE` pattern matching: `%` matches any run (including empty),
/// `_` matches exactly one character. Matching is case-insensitive, as in
/// MySQL's default collation.
///
/// ```
/// use udi_store::like_match;
/// assert!(like_match("Alice", "a%"));
/// assert!(like_match("Alice", "%LIC%"));
/// assert!(like_match("cat", "c_t"));
/// assert!(!like_match("cart", "c_t"));
/// ```
pub fn like_match(text: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(text)
}

/// A `LIKE` pattern compiled for a scan: the pattern is lowercased once,
/// and each cell is lowercased into buffers reused from row to row.
///
/// ASCII text is lowercased byte by byte. Any other text goes through
/// `str::to_lowercase`, whose context rules (a final `Σ` becomes `ς`) a
/// per-character mapping would miss, so results match [`like_match`]
/// exactly.
#[derive(Debug, Clone)]
pub struct LikePattern {
    pattern: Vec<char>,
    /// The lowercased characters of the cell being matched.
    text: Vec<char>,
    /// A numeric cell rendered as text.
    rendered: String,
}

impl LikePattern {
    /// Compile `pattern`.
    pub fn new(pattern: &str) -> LikePattern {
        LikePattern {
            pattern: pattern.to_lowercase().chars().collect(),
            text: Vec::new(),
            rendered: String::new(),
        }
    }

    /// Whether `text` matches the pattern, case-insensitively.
    pub fn matches(&mut self, text: &str) -> bool {
        self.text.clear();
        if text.is_ascii() {
            self.text
                .extend(text.bytes().map(|b| char::from(b.to_ascii_lowercase())));
        } else {
            self.text.extend(text.to_lowercase().chars());
        }
        like_greedy(&self.text, &self.pattern)
    }

    /// Whether a cell matches: NULL never does, and a number matches as
    /// its display text.
    pub fn matches_value(&mut self, cell: &Value) -> bool {
        use std::fmt::Write;
        match cell {
            Value::Null => false,
            Value::Text(s) => self.matches(s),
            number => {
                let mut rendered = std::mem::take(&mut self.rendered);
                rendered.clear();
                let hit = write!(rendered, "{number}").is_ok() && self.matches(&rendered);
                self.rendered = rendered;
                hit
            }
        }
    }
}

/// Iterative greedy two-pointer wildcard matcher. Each `%` initially
/// absorbs nothing; on a later mismatch the scan backtracks to just past
/// the *most recent* `%` and lets it absorb one more character. Dropping
/// earlier-`%` alternatives is safe: a later `%` can absorb anything an
/// earlier one could. Worst case O(|t|·|p|) with no recursion — the
/// previous recursive matcher branched at every `%` and went exponential
/// on patterns like `%a%a%a%` against long non-matching text (also risking
/// stack overflow on long inputs).
fn like_greedy(t: &[char], p: &[char]) -> bool {
    let (mut ti, mut pi) = (0usize, 0usize);
    // After the most recent `%`: (pattern index past it, text index where
    // its current absorption ends).
    let mut retry: Option<(usize, usize)> = None;
    while let Some(&tc) = t.get(ti) {
        match p.get(pi) {
            Some(&pc) if pc == '_' || pc == tc => {
                ti += 1;
                pi += 1;
            }
            Some('%') => {
                retry = Some((pi + 1, ti));
                pi += 1;
            }
            _ => {
                let Some((rp, rt)) = retry else {
                    return false;
                };
                pi = rp;
                ti = rt + 1;
                retry = Some((rp, rt + 1));
            }
        }
    }
    // Only trailing `%`s can match the exhausted text.
    while p.get(pi) == Some(&'%') {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
        assert_eq!(h(&Value::Int(2)), h(&Value::Float(2.0)));
    }

    #[test]
    fn text_and_numbers_are_distinct_under_the_total_order() {
        // `Ord`/`Eq` are strictly typed (numbers < text); the lexicographic
        // coercion lives only in `sql_cmp`, where the predicate artifact
        // belongs.
        assert_ne!(Value::text("42"), Value::Int(42));
        assert!(Value::Int(42) < Value::text("42"));
        assert_eq!(
            Value::text("42").sql_cmp(&Value::Int(42)),
            Some(Ordering::Equal),
            "predicates still coerce"
        );
    }

    #[test]
    fn null_semantics() {
        assert!(Value::Null.sql_cmp(&Value::Int(1)).is_none());
        assert!(Value::Int(1).sql_cmp(&Value::Null).is_none());
        assert_eq!(Value::Null, Value::Null);
        assert!(Value::Null < Value::Int(i64::MIN));
    }

    #[test]
    fn stringly_typed_comparison_artifact() {
        // The Course-domain artifact: "9" > "30" lexicographically.
        let nine = Value::text("9");
        let thirty = Value::Int(30);
        assert_eq!(nine.sql_cmp(&thirty), Some(Ordering::Greater));
    }

    #[test]
    fn nan_is_normalized() {
        assert!(Value::float(f64::NAN).is_null());
        assert_eq!(Value::from(f64::NAN), Value::Null);
    }

    #[test]
    fn parse_covers_all_shapes() {
        assert_eq!(Value::parse(" 7 "), Value::Int(7));
        assert_eq!(Value::parse("-3.25"), Value::Float(-3.25));
        assert_eq!(Value::parse("7a"), Value::text("7a"));
        assert_eq!(Value::parse("   "), Value::Null);
    }

    #[test]
    fn display_round_trips_ints() {
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::text("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn like_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("anything", "%%"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "ab"));
        assert!(like_match("database systems", "%base%sys%"));
    }

    /// The pre-fix recursive matcher, kept as a test oracle: correct on
    /// small inputs, exponential on `%`-heavy non-matching ones.
    fn like_rec_reference(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => (0..=t.len()).any(|k| like_rec_reference(&t[k..], &p[1..])),
            Some('_') => !t.is_empty() && like_rec_reference(&t[1..], &p[1..]),
            Some(&c) => t.first() == Some(&c) && like_rec_reference(&t[1..], &p[1..]),
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "a wall-clock bound; Miri interprets ~100x slower")]
    fn like_pathological_pattern_is_fast() {
        // `%a%a%a%a%b` against 10k 'a's (no 'b' anywhere): the recursive
        // matcher branched at every `%` and effectively never returned;
        // the greedy matcher must answer (false) in milliseconds.
        let text: String = "a".repeat(10_000);
        let start = std::time::Instant::now();
        assert!(!like_match(&text, "%a%a%a%a%b"));
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "pathological LIKE took {:?}",
            start.elapsed()
        );
        // The matching variant stays correct on the same text.
        let mut with_b = text.clone();
        with_b.push('b');
        assert!(like_match(&with_b, "%a%a%a%a%b"));
    }

    #[test]
    fn like_backtracks_past_percent_correctly() {
        // Requires revisiting a `%`'s absorption: the first "ab" after the
        // `%` is a false start (only the second one is followed by `_c`).
        assert!(like_match("abdabxc", "%ab_c"));
        assert!(!like_match("abdabxd", "%ab_c"));
        // `_` after `%` must consume exactly one character.
        assert!(like_match("ab", "%_b"));
        assert!(!like_match("b", "%_b"));
    }

    #[test]
    fn a_value_is_three_words() {
        // A tag and a fat `Arc<str>` pointer.
        assert!(std::mem::size_of::<Value>() <= 24);
    }

    #[test]
    fn text_cells_compare_and_hash_by_contents() {
        let a = Value::text("Civic");
        let b = Value::from("Civic".to_owned());
        let Value::Text(x) = &a else { panic!() };
        let Value::Text(y) = &b else { panic!() };
        assert!(!Arc::ptr_eq(x, y), "two allocations");
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
        // `str` hashes the same bytes `String` did, so hash-keyed answer
        // order does not move.
        let mut s = DefaultHasher::new();
        s.write_u8(2);
        "Civic".to_owned().hash(&mut s);
        assert_eq!(h(&a), s.finish());
        // A clone shares the bytes.
        let Value::Text(z) = a.clone() else { panic!() };
        assert!(Arc::ptr_eq(x, &z));
    }

    #[test]
    fn ord_is_total_across_kinds() {
        let mut vs = [
            Value::text("zzz"),
            Value::Int(10),
            Value::Null,
            Value::Float(2.5),
            Value::text("aaa"),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
    }

    proptest! {
        #[test]
        fn eq_implies_same_hash(a in -1_000_000i64..1_000_000) {
            let i = Value::Int(a);
            let f = Value::Float(a as f64);
            prop_assert_eq!(&i, &f);
            prop_assert_eq!(h(&i), h(&f));
        }

        /// The `Ord` impl must be a transitive total order across every
        /// kind mix — the property the old text/number coercion violated.
        #[test]
        fn ord_is_transitive(
            raw in proptest::collection::vec(
                prop_oneof![
                    Just(Value::Null),
                    any::<i32>().prop_map(|i| Value::Int(i as i64)),
                    (-100.0f64..100.0).prop_map(Value::float),
                    "[0-9]{1,3}".prop_map(Value::text),
                ],
                3,
            )
        ) {
            let (a, b, c) = (&raw[0], &raw[1], &raw[2]);
            use std::cmp::Ordering::*;
            if a.cmp(b) != Greater && b.cmp(c) != Greater {
                prop_assert_ne!(a.cmp(c), Greater, "{:?} {:?} {:?}", a, b, c);
            }
        }

        #[test]
        fn cmp_antisymmetric(x in -1000i64..1000, y in -1000i64..1000) {
            let a = Value::Int(x);
            let b = Value::Int(y);
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        }

        #[test]
        fn like_literal_pattern_matches_itself(s in "[a-z]{0,10}") {
            prop_assert!(like_match(&s, &s));
        }

        /// The greedy matcher agrees with the (correct-but-exponential)
        /// recursive reference on every small text/pattern pair over an
        /// alphabet that exercises both wildcards.
        #[test]
        fn like_greedy_agrees_with_recursive_reference(
            text in "[ab]{0,8}",
            pattern in "[ab%_]{0,8}",
        ) {
            let t: Vec<char> = text.chars().collect();
            let p: Vec<char> = pattern.chars().collect();
            prop_assert_eq!(
                like_greedy(&t, &p),
                like_rec_reference(&t, &p),
                "text={:?} pattern={:?}", text, pattern
            );
        }

        #[test]
        fn like_percent_prefix_suffix(s in "[a-z]{1,10}") {
            let pre = format!("%{s}");
            let suf = format!("{s}%");
            let both = format!("%{s}%");
            prop_assert!(like_match(&s, &pre));
            prop_assert!(like_match(&s, &suf));
            prop_assert!(like_match(&s, &both));
        }
    }
}
