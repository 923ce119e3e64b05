//! # sp-pattern — pattern expressions for security punctuations
//!
//! Security punctuations (Nehme, Rundensteiner, Bertino; ICDE 2008) describe
//! the objects they govern — streams, tuples, attributes — and the roles they
//! authorize with *regular expressions*, so that one compact punctuation can
//! cover many objects ("patients with ids between 120 and 133", "Temperature
//! or Beats_per_min"). This crate implements that expression dialect from
//! scratch: a recursive-descent parser, a bytecode compiler, a memoized
//! backtracking VM with guaranteed one-visit-per-state behaviour, and fast
//! paths for the overwhelmingly common shapes (match-all, plain literal,
//! literal alternation, single numeric range).
//!
//! Patterns are **anchored**: they must match the entire name. See
//! [`ast`] for the full syntax.
//!
//! ```
//! use sp_pattern::Pattern;
//!
//! let p = Pattern::compile("<120-133>").unwrap();
//! assert!(p.matches("125"));
//! assert!(!p.matches("200"));
//!
//! let p = Pattern::compile("Temperature|Beats_per_min").unwrap();
//! assert!(p.matches("Temperature"));
//!
//! let all = Pattern::compile("*").unwrap();
//! assert!(all.is_match_all());
//! ```

pub mod ast;
pub mod parser;
pub mod vm;

use std::fmt;
use std::sync::Arc;

use ast::Ast;
use vm::Program;

/// An error produced while compiling a pattern expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// The offending pattern source.
    pub pattern: String,
    /// Character offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pattern {:?} at offset {}: {}", self.pattern, self.offset, self.message)
    }
}

impl std::error::Error for PatternError {}

/// Execution strategy selected at compile time.
#[derive(Debug, Clone)]
enum Matcher {
    /// `*` — matches everything, including the empty string.
    All,
    /// A plain literal string.
    Literal(Arc<str>),
    /// An alternation of plain literals (`a|b|c`), kept sorted for binary
    /// search.
    Literals(Arc<[Box<str>]>),
    /// A single `<lo-hi>` numeric range.
    Range(u64, u64),
    /// Anything else: run the compiled VM.
    Vm(Arc<Program>),
}

/// A compiled, immutable, cheaply-cloneable pattern.
///
/// Cloning shares the compiled program via [`Arc`], so patterns can be
/// embedded in punctuations that flow through multi-operator plans without
/// recompilation or deep copies. The match-all pattern `*` — every
/// unscoped data description carries three — holds nothing shared: making,
/// cloning and dropping it never touches the heap or an atomic counter.
#[derive(Clone)]
pub struct Pattern {
    /// The source text; `None` is `*`.
    source: Option<Arc<str>>,
    matcher: Matcher,
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Pattern").field(&self.source()).finish()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.source())
    }
}

impl PartialEq for Pattern {
    fn eq(&self, other: &Self) -> bool {
        self.source() == other.source()
    }
}

impl Eq for Pattern {}

impl std::hash::Hash for Pattern {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.source().hash(state);
    }
}

impl Pattern {
    /// Compiles a pattern expression.
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] if the expression is syntactically invalid.
    pub fn compile(src: &str) -> Result<Self, PatternError> {
        if src == "*" {
            return Ok(Self::match_all());
        }
        let ast = parser::parse(src)?;
        let matcher = select_matcher(&ast);
        Ok(Self { source: Some(Arc::from(src)), matcher })
    }

    /// A pattern that matches every name (`*`).
    #[must_use]
    pub fn match_all() -> Self {
        Self { source: None, matcher: Matcher::All }
    }

    /// A pattern matching exactly the given name, with all metacharacters
    /// escaped. Never fails.
    #[must_use]
    pub fn literal(name: &str) -> Self {
        let mut escaped = String::with_capacity(name.len());
        for c in name.chars() {
            if "\\|*+?{}()[]<>.".contains(c) {
                escaped.push('\\');
            }
            escaped.push(c);
        }
        Self {
            source: Some(Arc::from(escaped.as_str())),
            matcher: Matcher::Literal(Arc::from(name)),
        }
    }

    /// A pattern matching any decimal integer in `lo..=hi`. Never fails.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn numeric_range(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "numeric range bounds out of order");
        Self {
            source: Some(Arc::from(format!("<{lo}-{hi}>").as_str())),
            matcher: Matcher::Range(lo, hi),
        }
    }

    /// The original pattern source text.
    #[must_use]
    pub fn source(&self) -> &str {
        self.source.as_deref().unwrap_or("*")
    }

    /// Tests whether `input` is matched (full-string, anchored).
    #[must_use]
    pub fn matches(&self, input: &str) -> bool {
        match &self.matcher {
            Matcher::All => true,
            Matcher::Literal(lit) => lit.as_ref() == input,
            Matcher::Literals(lits) => {
                lits.binary_search_by(|probe| probe.as_ref().cmp(input)).is_ok()
            }
            Matcher::Range(lo, hi) => match_decimal_in_range(input, *lo, *hi),
            Matcher::Vm(prog) => prog.matches(input),
        }
    }

    /// Tests a decimal integer without allocating its string form.
    ///
    /// Identifiers such as tuple ids are integers on the hot path; the
    /// match-all and numeric-range shapes — the common cases in security
    /// punctuations — are decided with plain comparisons. Other shapes fall
    /// back to formatting into a stack buffer.
    #[must_use]
    pub fn matches_u64(&self, value: u64) -> bool {
        match &self.matcher {
            Matcher::All => true,
            Matcher::Range(lo, hi) => (*lo..=*hi).contains(&value),
            _ => {
                let mut buf = [0u8; 20];
                self.matches(format_u64(value, &mut buf))
            }
        }
    }

    /// True if this pattern matches every possible name.
    #[must_use]
    pub fn is_match_all(&self) -> bool {
        matches!(self.matcher, Matcher::All)
    }

    /// If the pattern matches exactly one literal name, returns it.
    #[must_use]
    pub fn as_literal(&self) -> Option<&str> {
        match &self.matcher {
            Matcher::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// The paper's `eval(N, e)` helper: the subset of `names` matching `e`.
    pub fn eval<'n, I>(&self, names: I) -> Vec<&'n str>
    where
        I: IntoIterator<Item = &'n str>,
    {
        names.into_iter().filter(|n| self.matches(n)).collect()
    }
}

/// Formats `value` as decimal into `buf`, returning the written prefix.
fn format_u64(mut value: u64, buf: &mut [u8; 20]) -> &str {
    let mut end = buf.len();
    loop {
        end -= 1;
        buf[end] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[end..]).expect("decimal digits are valid UTF-8")
}

/// Matches a full string as a decimal integer within `lo..=hi`, accepting
/// leading zeros (zero-padded tuple identifiers are common).
fn match_decimal_in_range(input: &str, lo: u64, hi: u64) -> bool {
    if input.is_empty() || !input.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    let trimmed = input.trim_start_matches('0');
    let value = if trimmed.is_empty() {
        0
    } else if trimmed.len() > 20 {
        return false; // longer than any u64
    } else {
        match trimmed.parse::<u64>() {
            Ok(v) => v,
            Err(_) => return false,
        }
    };
    (lo..=hi).contains(&value)
}

fn select_matcher(ast: &Ast) -> Matcher {
    if ast.is_match_all() {
        return Matcher::All;
    }
    if let Some(lit) = ast.as_literal() {
        return Matcher::Literal(Arc::from(lit.as_str()));
    }
    if let Ast::NumRange(lo, hi) = ast {
        return Matcher::Range(*lo, *hi);
    }
    if let Ast::Alt(branches) = ast {
        let lits: Option<Vec<Box<str>>> =
            branches.iter().map(|b| b.as_literal().map(String::into_boxed_str)).collect();
        if let Some(mut lits) = lits {
            lits.sort_unstable();
            lits.dedup();
            return Matcher::Literals(lits.into());
        }
    }
    Matcher::Vm(Arc::new(Program::compile(ast)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_selection() {
        assert!(matches!(Pattern::compile("*").unwrap().matcher, Matcher::All));
        assert!(matches!(Pattern::compile("HeartRate").unwrap().matcher, Matcher::Literal(_)));
        assert!(matches!(Pattern::compile("a|b|c").unwrap().matcher, Matcher::Literals(_)));
        assert!(matches!(Pattern::compile("<1-9>").unwrap().matcher, Matcher::Range(1, 9)));
        assert!(matches!(Pattern::compile("a.c").unwrap().matcher, Matcher::Vm(_)));
    }

    #[test]
    fn literal_constructor_escapes_metacharacters() {
        let p = Pattern::literal("a*b(c)");
        assert!(p.matches("a*b(c)"));
        assert!(!p.matches("ab(c)"));
        // Round-trips through the compiler.
        let recompiled = Pattern::compile(p.source()).unwrap();
        assert!(recompiled.matches("a*b(c)"));
        assert!(!recompiled.matches("aXb(c)"));
    }

    #[test]
    fn numeric_range_constructor() {
        let p = Pattern::numeric_range(5, 7);
        assert!(p.matches("6"));
        assert!(!p.matches("8"));
        assert_eq!(p.source(), "<5-7>");
    }

    #[test]
    #[should_panic(expected = "numeric range bounds out of order")]
    fn numeric_range_constructor_rejects_reversed() {
        let _ = Pattern::numeric_range(7, 5);
    }

    #[test]
    fn decimal_range_edge_cases() {
        assert!(match_decimal_in_range("0", 0, 0));
        assert!(match_decimal_in_range("000", 0, 5));
        assert!(!match_decimal_in_range("", 0, 5));
        assert!(!match_decimal_in_range("1a", 0, 5));
        assert!(match_decimal_in_range("18446744073709551615", 0, u64::MAX));
        assert!(!match_decimal_in_range("99999999999999999999999", 0, u64::MAX));
    }

    #[test]
    fn matches_u64_all_shapes() {
        assert!(Pattern::match_all().matches_u64(42));
        let range = Pattern::numeric_range(10, 20);
        assert!(range.matches_u64(10) && range.matches_u64(20));
        assert!(!range.matches_u64(9) && !range.matches_u64(21));
        let lit = Pattern::compile("120").unwrap();
        assert!(lit.matches_u64(120));
        assert!(!lit.matches_u64(12));
        let vm = Pattern::compile("1.0").unwrap();
        assert!(vm.matches_u64(120));
        assert!(vm.matches_u64(100));
        assert!(!vm.matches_u64(200));
        assert!(Pattern::compile("0").unwrap().matches_u64(0));
        let big = Pattern::compile(r"\d+").unwrap();
        assert!(big.matches_u64(u64::MAX));
    }

    #[test]
    fn eval_filters_name_sets() {
        let p = Pattern::compile("s[12]").unwrap();
        let names = ["s1", "s2", "s3"];
        assert_eq!(p.eval(names), vec!["s1", "s2"]);
    }

    #[test]
    fn star_holds_no_source_text() {
        for star in [Pattern::match_all(), Pattern::compile("*").unwrap()] {
            assert!(star.source.is_none());
            assert_eq!(format!("{star:?}"), r#"Pattern("*")"#);
        }
        // Other spellings that match everything keep their own source.
        let spelled = Pattern::compile(".*").unwrap();
        assert!(spelled.is_match_all());
        assert_ne!(spelled, Pattern::match_all());
    }

    #[test]
    fn equality_and_display_use_source() {
        let a = Pattern::compile("a|b").unwrap();
        let b = Pattern::compile("a|b").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "a|b");
    }

    #[test]
    fn literal_alternation_is_sorted_and_deduped() {
        let p = Pattern::compile("c|a|b|a").unwrap();
        assert!(p.matches("a"));
        assert!(p.matches("b"));
        assert!(p.matches("c"));
        assert!(!p.matches("d"));
    }
}
