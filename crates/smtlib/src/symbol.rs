//! Interned symbols used for variable, function, and sort names.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// The global symbol interner: every distinct name is backed by exactly one
/// `Arc<str>`, so equality of symbols with the same text is a pointer
/// comparison and repeated `Symbol::new("x")` calls allocate nothing.
///
/// The table only ever grows, but the name population is bounded by the
/// grammars and rename schemes in play (generator variables, seed symbols,
/// clash suffixes), so this is an interner, not a leak.
fn interner() -> &'static RwLock<HashSet<Arc<str>>> {
    static INTERNER: OnceLock<RwLock<HashSet<Arc<str>>>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(HashSet::new()))
}

/// A symbol (identifier) appearing in an SMT-LIB script.
///
/// Symbols are immutable and cheap to clone (`Arc<str>` internally), and
/// deduplicated through a global interner, which matters because fuzzing
/// churns through millions of terms that share variable names.
///
/// # Examples
///
/// ```
/// use o4a_smtlib::Symbol;
/// let s = Symbol::new("x0");
/// assert_eq!(s.as_str(), "x0");
/// assert_eq!(s.to_string(), "x0");
/// ```
#[derive(Clone, Eq, PartialOrd, Ord)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// Creates a new symbol from anything string-like, deduplicated through
    /// the global interner.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        {
            let set = interner().read().expect("symbol interner poisoned");
            if let Some(existing) = set.get(name) {
                return Symbol(existing.clone());
            }
        }
        let mut set = interner().write().expect("symbol interner poisoned");
        if let Some(existing) = set.get(name) {
            return Symbol(existing.clone());
        }
        let arc: Arc<str> = Arc::from(name);
        set.insert(arc.clone());
        Symbol(arc)
    }

    /// Returns the symbol text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The address of the interned text: equal symbols share it, so it
    /// identifies a name within the process.
    pub(crate) fn addr(&self) -> usize {
        Arc::as_ptr(&self.0).cast::<u8>() as usize
    }

    /// Returns a derived symbol with a numeric suffix, used when renaming
    /// clashing declarations during formula synthesis.
    ///
    /// # Examples
    ///
    /// ```
    /// use o4a_smtlib::Symbol;
    /// assert_eq!(Symbol::new("v").with_suffix(3).as_str(), "v!3");
    /// ```
    pub fn with_suffix(&self, n: u64) -> Self {
        Symbol::new(format!("{}!{n}", self.0))
    }

    /// True when the symbol needs `|...|` quoting in SMT-LIB output.
    pub fn needs_quoting(&self) -> bool {
        let mut chars = self.0.chars();
        match chars.next() {
            None => return true,
            Some(c) if c.is_ascii_digit() => return true,
            Some(c) if !is_simple_symbol_char(c) => return true,
            _ => {}
        }
        !self.0.chars().all(is_simple_symbol_char)
    }
}

/// Characters allowed in unquoted SMT-LIB simple symbols.
fn is_simple_symbol_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "~!@$%^&*_-+=<>.?/".contains(c)
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // Interned symbols with equal text share one allocation, so the
        // pointer comparison almost always decides; the content comparison
        // only runs for symbols predating each other in different processes
        // (never within one interner) and keeps the impl total.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Content hash, matching the content-based `PartialEq` above.
        self.0.hash(state);
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.needs_quoting() {
            write!(f, "|{}|", self.0)
        } else {
            f.write_str(&self.0)
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(s)
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_plain() {
        assert_eq!(Symbol::new("abc_1").to_string(), "abc_1");
    }

    #[test]
    fn display_quoted_when_leading_digit() {
        assert_eq!(Symbol::new("1abc").to_string(), "|1abc|");
    }

    #[test]
    fn display_quoted_when_space() {
        assert_eq!(Symbol::new("a b").to_string(), "|a b|");
    }

    #[test]
    fn suffix_derivation() {
        let s = Symbol::new("x");
        assert_eq!(s.with_suffix(0).as_str(), "x!0");
        assert_eq!(s.with_suffix(12).as_str(), "x!12");
    }

    #[test]
    fn ordering_is_textual() {
        assert!(Symbol::new("a") < Symbol::new("b"));
    }

    #[test]
    fn interner_dedupes_allocations() {
        let a = Symbol::new("interned-probe");
        let b = Symbol::new(String::from("interned-probe"));
        assert!(Arc::ptr_eq(&a.0, &b.0), "same text must share one Arc");
        assert_eq!(a, b);
    }

    #[test]
    fn borrow_str_lookup() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(Symbol::new("k"), 1);
        assert_eq!(m.get("k"), Some(&1));
    }
}
