//! Structural features of a formula, used by bug triggers and coverage
//! attribution.
//!
//! There is one implementation: the frontend's single arena walk over a
//! script's assertions. [`crate::Parsed::new`] takes the features from the
//! walk it does anyway; [`FormulaFeatures::of`] interns a boxed script into
//! a scratch arena and runs the same walk.

use o4a_smtlib::{Script, Theory};
use std::collections::BTreeSet;

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A cheap structural summary of a script computed once per `check-sat`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FormulaFeatures {
    /// SMT names of all operators appearing in assertions.
    pub op_names: BTreeSet<String>,
    /// Theories exercised (operators and declared sorts).
    pub theories: BTreeSet<Theory>,
    /// Whether any assertion contains a quantifier.
    pub has_quantifier: bool,
    /// Whether any assertion contains a `let` binder.
    pub has_let: bool,
    /// Maximum assertion depth.
    pub max_depth: usize,
    /// Total assertion AST size.
    pub size: usize,
    /// Number of assertions.
    pub assert_count: usize,
    /// FNV-1a hash of the printed script (stable across runs; used as the
    /// deterministic rarity gate for bug triggers).
    pub hash: u64,
}

impl FormulaFeatures {
    /// The features of the empty script.
    pub const EMPTY: FormulaFeatures = FormulaFeatures {
        op_names: BTreeSet::new(),
        theories: BTreeSet::new(),
        has_quantifier: false,
        has_let: false,
        max_depth: 0,
        size: 0,
        assert_count: 0,
        hash: FNV_OFFSET,
    };

    /// Computes features for a script.
    pub fn of(script: &Script) -> FormulaFeatures {
        crate::frontend::features_of(script)
    }

    /// True when the formula uses operator `name`.
    pub fn has_op(&self, name: &str) -> bool {
        self.op_names.contains(name)
    }
}

/// FNV-1a, 64-bit: deterministic, platform-independent.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_smtlib::parse_script;

    #[test]
    fn features_of_figure1() {
        let s = parse_script(
            "(declare-fun s () (Seq Int))\
             (assert (exists ((f Int)) (distinct (seq.len (seq.rev s)) \
             (seq.nth (as seq.empty (Seq Int)) (div 0 0)))))(check-sat)",
        )
        .unwrap();
        let f = FormulaFeatures::of(&s);
        assert!(f.has_quantifier);
        assert!(f.has_op("seq.rev"));
        assert!(f.has_op("seq.len"));
        assert!(f.theories.contains(&Theory::Sequences));
        assert!(f.theories.contains(&Theory::Ints));
        assert_eq!(f.assert_count, 1);
        assert!(f.size > 5);
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = parse_script("(assert true)").unwrap();
        let b = parse_script("(assert false)").unwrap();
        assert_eq!(FormulaFeatures::of(&a).hash, FormulaFeatures::of(&a).hash);
        assert_ne!(FormulaFeatures::of(&a).hash, FormulaFeatures::of(&b).hash);
    }

    #[test]
    fn let_detection() {
        let s = parse_script("(declare-const p Bool)(assert (let ((q p)) q))").unwrap();
        assert!(FormulaFeatures::of(&s).has_let);
    }

    #[test]
    fn empty_script_has_the_empty_features() {
        assert_eq!(
            FormulaFeatures::of(&Script::default()),
            FormulaFeatures::EMPTY
        );
    }

    #[test]
    fn declared_sorts_contribute_theories() {
        let s = parse_script("(declare-const v (_ FiniteField 3))(assert true)").unwrap();
        let f = FormulaFeatures::of(&s);
        assert!(f.theories.contains(&Theory::FiniteFields));
    }
}
