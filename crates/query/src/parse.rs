//! A hand-written parser for the `SELECT ... FROM ... WHERE ...` fragment.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query     := SELECT attrs FROM ident (WHERE pred (AND pred)*)?
//! attrs     := attr (',' attr)*
//! attr      := ident | quoted
//! pred      := attr op literal
//! op        := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>=' | LIKE
//! literal   := 'single-quoted string' | number
//! ident     := [A-Za-z0-9_$./()#-]+          (web-table labels are messy)
//! quoted    := '"' anything '"' | '`' anything '`'
//! ```

use udi_store::Value;

use crate::aggregate::{AggFunc, Aggregate, AggregateQuery};
use crate::ast::{CompareOp, Predicate, Query};

/// Parse failure with a human-readable message and byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the problem was noticed.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor { src, pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_whitespace()) {
            self.pos += self.rest().chars().next().map_or(0, char::len_utf8);
        }
    }

    fn rest(&self) -> &'a str {
        // `pos` always lands on a char boundary; checked slicing keeps the
        // cursor total even if that invariant were ever broken.
        self.src.get(self.pos..).unwrap_or("")
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.rest().is_empty()
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        // Checked slicing: a multibyte char at the boundary yields None
        // instead of panicking, which simply fails the match.
        let head_matches = rest
            .get(..kw.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(kw));
        if head_matches {
            // Keyword must end at a word boundary.
            let after = rest.get(kw.len()..).unwrap_or("");
            if after.is_empty() || !after.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    fn eat_char(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.rest().starts_with(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn parse_attr(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        if let Some(q) = rest.chars().next().filter(|&c| c == '"' || c == '`') {
            let body_start = self.pos + 1;
            let tail = self.src.get(body_start..).unwrap_or("");
            if let Some(end) = tail.find(q) {
                let name = tail.get(..end).unwrap_or("").to_owned();
                self.pos = body_start + end + 1;
                return Ok(name);
            }
            return Err(self.err(format!("unterminated {q}-quoted identifier")));
        }
        let is_ident = |c: char| c.is_alphanumeric() || "_$./()#-".contains(c);
        let len: usize = rest
            .chars()
            .take_while(|&c| is_ident(c))
            .map(char::len_utf8)
            .sum();
        if len == 0 {
            return Err(self.err("expected identifier"));
        }
        let name = rest.get(..len).unwrap_or("");
        self.pos += len;
        Ok(name.to_owned())
    }

    /// Like [`Cursor::parse_attr`] but for aggregate arguments, where the
    /// closing `)` belongs to the function call, not the identifier (plain
    /// identifiers may otherwise contain parentheses, e.g. `author(s)`).
    fn parse_agg_attr(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        if rest.starts_with('"') || rest.starts_with('`') {
            return self.parse_attr();
        }
        let is_ident = |c: char| c.is_alphanumeric() || "_$./#- ".contains(c);
        let len: usize = rest
            .chars()
            .take_while(|&c| is_ident(c))
            .map(char::len_utf8)
            .sum();
        if len == 0 {
            return Err(self.err("expected identifier"));
        }
        let name = rest.get(..len).unwrap_or("").trim_end();
        self.pos += name.len();
        Ok(name.to_owned())
    }

    fn parse_op(&mut self) -> Result<CompareOp, ParseError> {
        self.skip_ws();
        if self.eat_keyword("LIKE") {
            return Ok(CompareOp::Like);
        }
        let two = &self.rest().get(..2).unwrap_or("");
        let op = match *two {
            "!=" | "<>" => Some((CompareOp::Ne, 2)),
            "<=" => Some((CompareOp::Le, 2)),
            ">=" => Some((CompareOp::Ge, 2)),
            _ => None,
        };
        let (op, n) = match op {
            Some(x) => x,
            None => match self.rest().chars().next() {
                Some('=') => (CompareOp::Eq, 1),
                Some('<') => (CompareOp::Lt, 1),
                Some('>') => (CompareOp::Gt, 1),
                _ => return Err(self.err("expected comparison operator")),
            },
        };
        self.pos += n;
        Ok(op)
    }

    fn parse_literal(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        if rest.starts_with('\'') {
            // Single-quoted string; '' escapes a quote.
            let mut out = String::new();
            let mut chars = rest.char_indices().skip(1).peekable();
            while let Some((i, c)) = chars.next() {
                if c == '\'' {
                    if chars.peek().map(|&(_, c2)| c2) == Some('\'') {
                        out.push('\'');
                        chars.next();
                    } else {
                        self.pos += i + 1;
                        return Ok(Value::text(out));
                    }
                } else {
                    out.push(c);
                }
            }
            return Err(self.err("unterminated string literal"));
        }
        let is_num = |c: char| c.is_ascii_digit() || c == '.' || c == '-' || c == '+';
        let len: usize = rest.chars().take_while(|&c| is_num(c)).count();
        if len == 0 {
            return Err(self.err("expected literal"));
        }
        let raw = rest.get(..len).unwrap_or("");
        self.pos += len;
        if let Ok(i) = raw.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        raw.parse::<f64>()
            .map(Value::float)
            .map_err(|_| self.err(format!("invalid numeric literal `{raw}`")))
    }
}

/// Parse a SQL text into a [`Query`].
///
/// ```
/// use udi_query::parse_query;
/// let q = parse_query(
///     "SELECT title, year FROM movies WHERE year >= 1990 AND title LIKE '%star%'",
/// ).unwrap();
/// assert_eq!(q.select, vec!["title", "year"]);
/// assert_eq!(q.predicates.len(), 2);
/// ```
pub fn parse_query(sql: &str) -> Result<Query, ParseError> {
    let mut c = Cursor::new(sql);
    if !c.eat_keyword("SELECT") {
        return Err(c.err("expected SELECT"));
    }
    let mut select = vec![c.parse_attr()?];
    while c.eat_char(',') {
        select.push(c.parse_attr()?);
    }
    if !c.eat_keyword("FROM") {
        return Err(c.err("expected FROM"));
    }
    let from = c.parse_attr()?;
    let mut predicates = Vec::new();
    if c.eat_keyword("WHERE") {
        loop {
            let attribute = c.parse_attr()?;
            let op = c.parse_op()?;
            let value = c.parse_literal()?;
            predicates.push(Predicate {
                attribute,
                op,
                value,
            });
            if !c.eat_keyword("AND") {
                break;
            }
        }
    }
    if !c.at_end() {
        return Err(c.err("unexpected trailing input"));
    }
    Ok(Query {
        select,
        predicates,
        from,
    })
}

/// Parse a grouped aggregate query:
///
/// ```text
/// SELECT genre, COUNT(*), AVG(rating) FROM movies WHERE year >= 1990 GROUP BY genre
/// ```
///
/// Plain attributes in the select list must reappear in `GROUP BY` (SQL's
/// rule); an aggregate-only select list needs no `GROUP BY`.
///
/// ```
/// use udi_query::{parse_aggregate_query, AggFunc};
/// let q = parse_aggregate_query(
///     "SELECT genre, COUNT(*), MAX(rating) FROM m GROUP BY genre",
/// ).unwrap();
/// assert_eq!(q.group_by, vec!["genre"]);
/// assert_eq!(q.aggregates.len(), 2);
/// assert_eq!(q.aggregates[0].func, AggFunc::Count);
/// ```
pub fn parse_aggregate_query(sql: &str) -> Result<AggregateQuery, ParseError> {
    let mut c = Cursor::new(sql);
    if !c.eat_keyword("SELECT") {
        return Err(c.err("expected SELECT"));
    }
    let mut plain: Vec<String> = Vec::new();
    let mut aggregates: Vec<Aggregate> = Vec::new();
    loop {
        c.skip_ws();
        let agg = [
            ("COUNT", AggFunc::Count),
            ("SUM", AggFunc::Sum),
            ("AVG", AggFunc::Avg),
            ("MIN", AggFunc::Min),
            ("MAX", AggFunc::Max),
        ]
        .iter()
        .find(|(kw, _)| {
            let rest = c.rest();
            rest.get(..kw.len())
                .is_some_and(|head| head.eq_ignore_ascii_case(kw))
                && rest
                    .get(kw.len()..)
                    .unwrap_or("")
                    .trim_start()
                    .starts_with('(')
        })
        .copied();
        match agg {
            Some((kw, func)) => {
                c.advance(kw.len());
                if !c.eat_char('(') {
                    return Err(c.err("expected ( after aggregate function"));
                }
                c.skip_ws();
                let attribute = if c.eat_char('*') {
                    if func != AggFunc::Count {
                        return Err(c.err("only COUNT accepts *"));
                    }
                    None
                } else {
                    Some(c.parse_agg_attr()?)
                };
                if !c.eat_char(')') {
                    return Err(c.err("expected ) after aggregate argument"));
                }
                aggregates.push(Aggregate { func, attribute });
            }
            None => plain.push(c.parse_attr()?),
        }
        if !c.eat_char(',') {
            break;
        }
    }
    if aggregates.is_empty() {
        return Err(c.err("aggregate query needs at least one aggregate"));
    }
    if !c.eat_keyword("FROM") {
        return Err(c.err("expected FROM"));
    }
    let from = c.parse_attr()?;
    let mut predicates = Vec::new();
    if c.eat_keyword("WHERE") {
        loop {
            let attribute = c.parse_attr()?;
            let op = c.parse_op()?;
            let value = c.parse_literal()?;
            predicates.push(Predicate {
                attribute,
                op,
                value,
            });
            if !c.eat_keyword("AND") {
                break;
            }
        }
    }
    let mut group_by: Vec<String> = Vec::new();
    if c.eat_keyword("GROUP") {
        if !c.eat_keyword("BY") {
            return Err(c.err("expected BY after GROUP"));
        }
        group_by.push(c.parse_attr()?);
        while c.eat_char(',') {
            group_by.push(c.parse_attr()?);
        }
    }
    if !c.at_end() {
        return Err(c.err("unexpected trailing input"));
    }
    // SQL rule: every non-aggregated select attribute must be grouped.
    for a in &plain {
        if !group_by.contains(a) {
            return Err(ParseError {
                message: format!("select attribute `{a}` must appear in GROUP BY"),
                offset: 0,
            });
        }
    }
    // Output order: group-by attributes are projected in group_by order.
    Ok(AggregateQuery {
        group_by,
        aggregates,
        predicates,
        from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query() {
        let q = parse_query("SELECT name FROM people").unwrap();
        assert_eq!(q.select, vec!["name"]);
        assert_eq!(q.from, "people");
        assert!(q.predicates.is_empty());
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse_query("select Name from T where Age > 3").unwrap();
        assert_eq!(q.select, vec!["Name"]);
        assert_eq!(q.predicates[0].op, CompareOp::Gt);
    }

    #[test]
    fn all_operators_parse() {
        for (txt, op) in [
            ("=", CompareOp::Eq),
            ("!=", CompareOp::Ne),
            ("<>", CompareOp::Ne),
            ("<", CompareOp::Lt),
            ("<=", CompareOp::Le),
            (">", CompareOp::Gt),
            (">=", CompareOp::Ge),
            ("LIKE", CompareOp::Like),
        ] {
            let sql = format!("SELECT a FROM t WHERE a {txt} '1'");
            let q = parse_query(&sql).unwrap();
            assert_eq!(q.predicates[0].op, op, "{txt}");
        }
    }

    #[test]
    fn literals_and_escapes() {
        let q =
            parse_query("SELECT a FROM t WHERE a = 'O''Brien' AND b = -4.5 AND c = 12").unwrap();
        assert_eq!(q.predicates[0].value, Value::text("O'Brien"));
        assert_eq!(q.predicates[1].value, Value::Float(-4.5));
        assert_eq!(q.predicates[2].value, Value::Int(12));
    }

    #[test]
    fn quoted_and_messy_identifiers() {
        let q =
            parse_query("SELECT \"pages/rec. no\", `link to pubmed`, author(s) FROM t").unwrap();
        assert_eq!(
            q.select,
            vec!["pages/rec. no", "link to pubmed", "author(s)"]
        );
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse_query("ELECT a FROM t").unwrap_err();
        assert!(e.message.contains("SELECT"));
        let e = parse_query("SELECT a FROM t WHERE a = ").unwrap_err();
        assert!(e.message.contains("literal"));
        let e = parse_query("SELECT a FROM t garbage").unwrap_err();
        assert!(e.message.contains("trailing"));
        let e = parse_query("SELECT a FROM t WHERE a = 'x").unwrap_err();
        assert!(e.message.contains("unterminated"));
        assert!(e.to_string().contains("parse error"));
    }

    #[test]
    fn and_is_not_greedy_into_identifiers() {
        // `android` starts with AND but must parse as an attribute.
        let q = parse_query("SELECT android FROM t WHERE android = 1").unwrap();
        assert_eq!(q.select, vec!["android"]);
    }

    #[test]
    fn aggregate_query_parses() {
        let q = parse_aggregate_query(
            "SELECT genre, COUNT(*), AVG(rating) FROM m WHERE year >= 1990 GROUP BY genre",
        )
        .unwrap();
        assert_eq!(q.group_by, vec!["genre"]);
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(
            q.aggregates[0],
            Aggregate {
                func: AggFunc::Count,
                attribute: None
            }
        );
        assert_eq!(
            q.aggregates[1],
            Aggregate {
                func: AggFunc::Avg,
                attribute: Some("rating".into())
            }
        );
        assert_eq!(q.predicates.len(), 1);
    }

    #[test]
    fn ungrouped_aggregate_parses() {
        let q = parse_aggregate_query("SELECT COUNT(*), MAX(price) FROM cars").unwrap();
        assert!(q.group_by.is_empty());
        assert_eq!(q.aggregates.len(), 2);
    }

    #[test]
    fn aggregate_query_display_round_trips() {
        let src = "SELECT genre, COUNT(*), AVG(rating) FROM m WHERE year >= 1990 GROUP BY genre";
        let q = parse_aggregate_query(src).unwrap();
        let q2 = parse_aggregate_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn aggregate_errors() {
        let e = parse_aggregate_query("SELECT genre FROM m GROUP BY genre").unwrap_err();
        assert!(e.message.contains("at least one aggregate"));
        let e = parse_aggregate_query("SELECT SUM(*) FROM m").unwrap_err();
        assert!(e.message.contains("only COUNT"));
        let e = parse_aggregate_query("SELECT title, COUNT(*) FROM m GROUP BY genre").unwrap_err();
        assert!(e.message.contains("must appear in GROUP BY"));
        let e = parse_aggregate_query("SELECT COUNT(x FROM m").unwrap_err();
        assert!(e.message.contains(")"));
    }

    #[test]
    fn count_is_not_greedy_on_identifiers() {
        // `counter` is an identifier, not COUNT(.
        let q = parse_aggregate_query("SELECT counter, COUNT(*) FROM m GROUP BY counter").unwrap();
        assert_eq!(q.group_by, vec!["counter"]);
    }

    #[test]
    fn display_parse_round_trip() {
        let src = "SELECT name, phone FROM T WHERE year >= 1990 AND title LIKE '%star%'";
        let q = parse_query(src).unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }
}
