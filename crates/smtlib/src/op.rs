//! Operators of the supported SMT-LIB theories.

use crate::{Sort, Symbol, Theory};
use std::fmt;

/// An operator (function symbol) applicable in a term application.
///
/// Indexed operators carry their indices (`(_ extract 7 3)`), and
/// uninterpreted function applications carry the function name.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Op {
    // ---- Core ----
    /// `not`.
    Not,
    /// `and` (n-ary).
    And,
    /// `or` (n-ary).
    Or,
    /// `xor` (n-ary, left-assoc).
    Xor,
    /// `=>` (right-assoc implication).
    Implies,
    /// `=` (chainable equality).
    Eq,
    /// `distinct` (pairwise).
    Distinct,
    /// `ite`.
    Ite,

    // ---- Int / Real arithmetic ----
    /// `+` (n-ary).
    Add,
    /// Binary/n-ary `-`.
    Sub,
    /// Unary `-`.
    Neg,
    /// `*` (n-ary).
    Mul,
    /// Integer `div`.
    IntDiv,
    /// Real `/`.
    RealDiv,
    /// Integer `mod`.
    Mod,
    /// Integer `abs`.
    Abs,
    /// `(_ divisible n)`.
    Divisible(u64),
    /// `<=` (chainable).
    Le,
    /// `<` (chainable).
    Lt,
    /// `>=` (chainable).
    Ge,
    /// `>` (chainable).
    Gt,
    /// `to_real`.
    ToReal,
    /// `to_int` (floor).
    ToInt,
    /// `is_int`.
    IsInt,

    // ---- Bit-vectors ----
    /// `bvnot`.
    BvNot,
    /// `bvneg`.
    BvNeg,
    /// `bvand`.
    BvAnd,
    /// `bvor`.
    BvOr,
    /// `bvxor`.
    BvXor,
    /// `bvnand`.
    BvNand,
    /// `bvnor`.
    BvNor,
    /// `bvadd`.
    BvAdd,
    /// `bvsub`.
    BvSub,
    /// `bvmul`.
    BvMul,
    /// `bvudiv` (totalized: x/0 = all-ones).
    BvUdiv,
    /// `bvurem` (totalized: x%0 = x).
    BvUrem,
    /// `bvsdiv`.
    BvSdiv,
    /// `bvsrem`.
    BvSrem,
    /// `bvshl`.
    BvShl,
    /// `bvlshr`.
    BvLshr,
    /// `bvashr`.
    BvAshr,
    /// `concat`.
    Concat,
    /// `(_ extract i j)` with `i >= j`.
    Extract(u32, u32),
    /// `(_ zero_extend k)`.
    ZeroExtend(u32),
    /// `(_ sign_extend k)`.
    SignExtend(u32),
    /// `(_ rotate_left k)`.
    RotateLeft(u32),
    /// `(_ rotate_right k)`.
    RotateRight(u32),
    /// `(_ repeat k)` with `k >= 1`.
    Repeat(u32),
    /// `bvult`.
    BvUlt,
    /// `bvule`.
    BvUle,
    /// `bvugt`.
    BvUgt,
    /// `bvuge`.
    BvUge,
    /// `bvslt`.
    BvSlt,
    /// `bvsle`.
    BvSle,
    /// `bvsgt`.
    BvSgt,
    /// `bvsge`.
    BvSge,

    // ---- Strings ----
    /// `str.++`.
    StrConcat,
    /// `str.len`.
    StrLen,
    /// `str.at`.
    StrAt,
    /// `str.substr`.
    StrSubstr,
    /// `str.contains`.
    StrContains,
    /// `str.prefixof`.
    StrPrefixof,
    /// `str.suffixof`.
    StrSuffixof,
    /// `str.indexof`.
    StrIndexof,
    /// `str.replace`.
    StrReplace,
    /// `str.replace_all`.
    StrReplaceAll,
    /// `str.<`.
    StrLt,
    /// `str.<=`.
    StrLe,
    /// `str.to_int` (-1 when not a numeral).
    StrToInt,
    /// `str.from_int` ("" for negatives).
    StrFromInt,
    /// `str.to_code` (Z3 Unicode extension surface; -1 unless length 1).
    StrToCode,
    /// `str.from_code`.
    StrFromCode,
    /// `str.is_digit`.
    StrIsDigit,

    // ---- Sequences (extended) ----
    /// `seq.unit`.
    SeqUnit,
    /// `seq.++`.
    SeqConcat,
    /// `seq.len`.
    SeqLen,
    /// `seq.nth` (element default when out of range).
    SeqNth,
    /// `seq.extract`.
    SeqExtract,
    /// `seq.contains`.
    SeqContains,
    /// `seq.indexof`.
    SeqIndexof,
    /// `seq.rev` (cvc5 extension).
    SeqRev,
    /// `seq.update` (cvc5 extension).
    SeqUpdate,
    /// `seq.at` (singleton or empty sequence).
    SeqAt,
    /// `seq.replace`.
    SeqReplace,
    /// `seq.prefixof` (cvc5 extension).
    SeqPrefixof,
    /// `seq.suffixof` (cvc5 extension).
    SeqSuffixof,

    // ---- Sets and relations (extended) ----
    /// `set.union`.
    SetUnion,
    /// `set.inter`.
    SetInter,
    /// `set.minus`.
    SetMinus,
    /// `set.member`.
    SetMember,
    /// `set.subset`.
    SetSubset,
    /// `set.insert` (n-ary elements then set).
    SetInsert,
    /// `set.singleton`.
    SetSingleton,
    /// `set.card`.
    SetCard,
    /// `set.complement` (only evaluable over exhaustible element sorts).
    SetComplement,
    /// `rel.join` over sets of tuples.
    RelJoin,
    /// `rel.product`.
    RelProduct,
    /// `rel.transpose`.
    RelTranspose,

    // ---- Bags (extended) ----
    /// `bag` — make a bag with one element and a count.
    BagMake,
    /// `bag.union_max`.
    BagUnionMax,
    /// `bag.union_disjoint`.
    BagUnionDisjoint,
    /// `bag.inter_min`.
    BagInterMin,
    /// `bag.difference_subtract`.
    BagDiffSubtract,
    /// `bag.count`.
    BagCount,
    /// `bag.card`.
    BagCard,
    /// `bag.member`.
    BagMember,
    /// `bag.subbag`.
    BagSubbag,

    // ---- Finite fields (extended) ----
    /// `ff.add`.
    FfAdd,
    /// `ff.mul`.
    FfMul,
    /// `ff.neg`.
    FfNeg,
    /// `ff.bitsum` — positional sum `Σ 2^i * child_i` (cvc5 extension).
    FfBitsum,

    // ---- Arrays ----
    /// `select`.
    Select,
    /// `store`.
    Store,
    /// `(as const (Array K V))` applied to the default value.
    ConstArray(Sort),

    // ---- Tuples ----
    /// `tuple` constructor (n-ary; zero arity is the unit tuple).
    MkTuple,
    /// `(_ tuple.select i)`.
    TupleSelect(u32),

    // ---- Uninterpreted functions ----
    /// Application of a user-declared function.
    Uf(Symbol),
}

impl Op {
    /// The theory this operator belongs to (for coverage tagging, grammar
    /// construction, and bug triage grouping).
    pub fn theory(&self) -> Theory {
        use Op::*;
        match self {
            Not | And | Or | Xor | Implies | Eq | Distinct | Ite => Theory::Core,
            Add | Sub | Neg | Mul | IntDiv | Mod | Abs | Divisible(_) | Le | Lt | Ge | Gt
            | ToReal | ToInt | IsInt => Theory::Ints,
            RealDiv => Theory::Reals,
            BvNot
            | BvNeg
            | BvAnd
            | BvOr
            | BvXor
            | BvNand
            | BvNor
            | BvAdd
            | BvSub
            | BvMul
            | BvUdiv
            | BvUrem
            | BvSdiv
            | BvSrem
            | BvShl
            | BvLshr
            | BvAshr
            | Concat
            | Extract(_, _)
            | ZeroExtend(_)
            | SignExtend(_)
            | RotateLeft(_)
            | RotateRight(_)
            | Repeat(_)
            | BvUlt
            | BvUle
            | BvUgt
            | BvUge
            | BvSlt
            | BvSle
            | BvSgt
            | BvSge => Theory::BitVectors,
            StrConcat | StrLen | StrAt | StrSubstr | StrContains | StrPrefixof | StrSuffixof
            | StrIndexof | StrReplace | StrReplaceAll | StrLt | StrLe | StrToInt | StrFromInt
            | StrToCode | StrFromCode | StrIsDigit => Theory::Strings,
            SeqUnit | SeqConcat | SeqLen | SeqNth | SeqExtract | SeqContains | SeqIndexof
            | SeqRev | SeqUpdate | SeqAt | SeqReplace | SeqPrefixof | SeqSuffixof => {
                Theory::Sequences
            }
            SetUnion | SetInter | SetMinus | SetMember | SetSubset | SetInsert | SetSingleton
            | SetCard | SetComplement | RelJoin | RelProduct | RelTranspose | MkTuple
            | TupleSelect(_) => Theory::Sets,
            BagMake | BagUnionMax | BagUnionDisjoint | BagInterMin | BagDiffSubtract | BagCount
            | BagCard | BagMember | BagSubbag => Theory::Bags,
            FfAdd | FfMul | FfNeg | FfBitsum => Theory::FiniteFields,
            Select | Store | ConstArray(_) => Theory::Arrays,
            Uf(_) => Theory::Uf,
        }
    }

    /// True for the Boolean connectives `not`, `and`, `or`, `xor`, `=>`
    /// and `ite`: the operators skeleton extraction walks through rather
    /// than hollows out.
    pub fn is_connective(&self) -> bool {
        matches!(
            self,
            Op::Not | Op::And | Op::Or | Op::Xor | Op::Implies | Op::Ite
        )
    }

    /// The SMT-LIB spelling of the operator head. Indexed operators return
    /// only the base name; the printer adds `(_ name indices)`.
    pub fn smt_name(&self) -> &str {
        use Op::*;
        match self {
            Not => "not",
            And => "and",
            Or => "or",
            Xor => "xor",
            Implies => "=>",
            Eq => "=",
            Distinct => "distinct",
            Ite => "ite",
            Add => "+",
            Sub | Neg => "-",
            Mul => "*",
            IntDiv => "div",
            RealDiv => "/",
            Mod => "mod",
            Abs => "abs",
            Divisible(_) => "divisible",
            Le => "<=",
            Lt => "<",
            Ge => ">=",
            Gt => ">",
            ToReal => "to_real",
            ToInt => "to_int",
            IsInt => "is_int",
            BvNot => "bvnot",
            BvNeg => "bvneg",
            BvAnd => "bvand",
            BvOr => "bvor",
            BvXor => "bvxor",
            BvNand => "bvnand",
            BvNor => "bvnor",
            BvAdd => "bvadd",
            BvSub => "bvsub",
            BvMul => "bvmul",
            BvUdiv => "bvudiv",
            BvUrem => "bvurem",
            BvSdiv => "bvsdiv",
            BvSrem => "bvsrem",
            BvShl => "bvshl",
            BvLshr => "bvlshr",
            BvAshr => "bvashr",
            Concat => "concat",
            Extract(_, _) => "extract",
            ZeroExtend(_) => "zero_extend",
            SignExtend(_) => "sign_extend",
            RotateLeft(_) => "rotate_left",
            RotateRight(_) => "rotate_right",
            Repeat(_) => "repeat",
            BvUlt => "bvult",
            BvUle => "bvule",
            BvUgt => "bvugt",
            BvUge => "bvuge",
            BvSlt => "bvslt",
            BvSle => "bvsle",
            BvSgt => "bvsgt",
            BvSge => "bvsge",
            StrConcat => "str.++",
            StrLen => "str.len",
            StrAt => "str.at",
            StrSubstr => "str.substr",
            StrContains => "str.contains",
            StrPrefixof => "str.prefixof",
            StrSuffixof => "str.suffixof",
            StrIndexof => "str.indexof",
            StrReplace => "str.replace",
            StrReplaceAll => "str.replace_all",
            StrLt => "str.<",
            StrLe => "str.<=",
            StrToInt => "str.to_int",
            StrFromInt => "str.from_int",
            StrToCode => "str.to_code",
            StrFromCode => "str.from_code",
            StrIsDigit => "str.is_digit",
            SeqUnit => "seq.unit",
            SeqConcat => "seq.++",
            SeqLen => "seq.len",
            SeqNth => "seq.nth",
            SeqExtract => "seq.extract",
            SeqContains => "seq.contains",
            SeqIndexof => "seq.indexof",
            SeqRev => "seq.rev",
            SeqUpdate => "seq.update",
            SeqAt => "seq.at",
            SeqReplace => "seq.replace",
            SeqPrefixof => "seq.prefixof",
            SeqSuffixof => "seq.suffixof",
            SetUnion => "set.union",
            SetInter => "set.inter",
            SetMinus => "set.minus",
            SetMember => "set.member",
            SetSubset => "set.subset",
            SetInsert => "set.insert",
            SetSingleton => "set.singleton",
            SetCard => "set.card",
            SetComplement => "set.complement",
            RelJoin => "rel.join",
            RelProduct => "rel.product",
            RelTranspose => "rel.transpose",
            BagMake => "bag",
            BagUnionMax => "bag.union_max",
            BagUnionDisjoint => "bag.union_disjoint",
            BagInterMin => "bag.inter_min",
            BagDiffSubtract => "bag.difference_subtract",
            BagCount => "bag.count",
            BagCard => "bag.card",
            BagMember => "bag.member",
            BagSubbag => "bag.subbag",
            FfAdd => "ff.add",
            FfMul => "ff.mul",
            FfNeg => "ff.neg",
            FfBitsum => "ff.bitsum",
            Select => "select",
            Store => "store",
            ConstArray(_) => "const",
            MkTuple => "tuple",
            TupleSelect(_) => "tuple.select",
            Uf(s) => s.as_str(),
        }
    }

    /// Resolves a *simple* (non-indexed, non-`as`) operator name.
    ///
    /// Indexed operators (`extract`, `divisible`, ...) and qualified
    /// constants are handled by the parser directly. Unknown names fall back
    /// to uninterpreted function applications at type-checking time.
    pub fn from_simple_name(name: &str) -> Option<Op> {
        use Op::*;
        Some(match name {
            "not" => Not,
            "and" => And,
            "or" => Or,
            "xor" => Xor,
            "=>" => Implies,
            "=" => Eq,
            "distinct" => Distinct,
            "ite" => Ite,
            "+" => Add,
            "-" => Sub, // arity-1 applications are normalized to Neg in typeck
            "*" => Mul,
            "div" => IntDiv,
            "/" => RealDiv,
            "mod" => Mod,
            "abs" => Abs,
            "<=" => Le,
            "<" => Lt,
            ">=" => Ge,
            ">" => Gt,
            "to_real" => ToReal,
            "to_int" => ToInt,
            "is_int" => IsInt,
            "bvnot" => BvNot,
            "bvneg" => BvNeg,
            "bvand" => BvAnd,
            "bvor" => BvOr,
            "bvxor" => BvXor,
            "bvnand" => BvNand,
            "bvnor" => BvNor,
            "bvadd" => BvAdd,
            "bvsub" => BvSub,
            "bvmul" => BvMul,
            "bvudiv" => BvUdiv,
            "bvurem" => BvUrem,
            "bvsdiv" => BvSdiv,
            "bvsrem" => BvSrem,
            "bvshl" => BvShl,
            "bvlshr" => BvLshr,
            "bvashr" => BvAshr,
            "concat" => Concat,
            "bvult" => BvUlt,
            "bvule" => BvUle,
            "bvugt" => BvUgt,
            "bvuge" => BvUge,
            "bvslt" => BvSlt,
            "bvsle" => BvSle,
            "bvsgt" => BvSgt,
            "bvsge" => BvSge,
            "str.++" => StrConcat,
            "str.len" => StrLen,
            "str.at" => StrAt,
            "str.substr" => StrSubstr,
            "str.contains" => StrContains,
            "str.prefixof" => StrPrefixof,
            "str.suffixof" => StrSuffixof,
            "str.indexof" => StrIndexof,
            "str.replace" => StrReplace,
            "str.replace_all" => StrReplaceAll,
            "str.<" => StrLt,
            "str.<=" => StrLe,
            "str.to_int" => StrToInt,
            "str.from_int" => StrFromInt,
            "str.to_code" => StrToCode,
            "str.from_code" => StrFromCode,
            "str.is_digit" => StrIsDigit,
            "seq.unit" => SeqUnit,
            "seq.++" => SeqConcat,
            "seq.len" => SeqLen,
            "seq.nth" => SeqNth,
            "seq.extract" => SeqExtract,
            "seq.contains" => SeqContains,
            "seq.indexof" => SeqIndexof,
            "seq.rev" => SeqRev,
            "seq.update" => SeqUpdate,
            "seq.at" => SeqAt,
            "seq.replace" => SeqReplace,
            "seq.prefixof" => SeqPrefixof,
            "seq.suffixof" => SeqSuffixof,
            "set.union" => SetUnion,
            "set.inter" => SetInter,
            "set.minus" => SetMinus,
            "set.member" => SetMember,
            "set.subset" => SetSubset,
            "set.insert" => SetInsert,
            "set.singleton" => SetSingleton,
            "set.card" => SetCard,
            "set.complement" => SetComplement,
            "rel.join" => RelJoin,
            "rel.product" => RelProduct,
            "rel.transpose" => RelTranspose,
            "bag" => BagMake,
            "bag.union_max" => BagUnionMax,
            "bag.union_disjoint" => BagUnionDisjoint,
            "bag.inter_min" => BagInterMin,
            "bag.difference_subtract" => BagDiffSubtract,
            "bag.count" => BagCount,
            "bag.card" => BagCard,
            "bag.member" => BagMember,
            "bag.subbag" => BagSubbag,
            "ff.add" => FfAdd,
            "ff.mul" => FfMul,
            "ff.neg" => FfNeg,
            "ff.bitsum" => FfBitsum,
            "select" => Select,
            "store" => Store,
            "tuple" => MkTuple,
            _ => return None,
        })
    }

    /// All non-indexed, non-UF operators; used by grammar builders and
    /// property tests to sweep the full operator surface.
    pub fn all_simple() -> Vec<Op> {
        use Op::*;
        vec![
            Not,
            And,
            Or,
            Xor,
            Implies,
            Eq,
            Distinct,
            Ite,
            Add,
            Sub,
            Neg,
            Mul,
            IntDiv,
            RealDiv,
            Mod,
            Abs,
            Le,
            Lt,
            Ge,
            Gt,
            ToReal,
            ToInt,
            IsInt,
            BvNot,
            BvNeg,
            BvAnd,
            BvOr,
            BvXor,
            BvNand,
            BvNor,
            BvAdd,
            BvSub,
            BvMul,
            BvUdiv,
            BvUrem,
            BvSdiv,
            BvSrem,
            BvShl,
            BvLshr,
            BvAshr,
            Concat,
            BvUlt,
            BvUle,
            BvUgt,
            BvUge,
            BvSlt,
            BvSle,
            BvSgt,
            BvSge,
            StrConcat,
            StrLen,
            StrAt,
            StrSubstr,
            StrContains,
            StrPrefixof,
            StrSuffixof,
            StrIndexof,
            StrReplace,
            StrReplaceAll,
            StrLt,
            StrLe,
            StrToInt,
            StrFromInt,
            StrToCode,
            StrFromCode,
            StrIsDigit,
            SeqUnit,
            SeqConcat,
            SeqLen,
            SeqNth,
            SeqExtract,
            SeqContains,
            SeqIndexof,
            SeqRev,
            SeqUpdate,
            SeqAt,
            SeqReplace,
            SeqPrefixof,
            SeqSuffixof,
            SetUnion,
            SetInter,
            SetMinus,
            SetMember,
            SetSubset,
            SetInsert,
            SetSingleton,
            SetCard,
            SetComplement,
            RelJoin,
            RelProduct,
            RelTranspose,
            BagMake,
            BagUnionMax,
            BagUnionDisjoint,
            BagInterMin,
            BagDiffSubtract,
            BagCount,
            BagCard,
            BagMember,
            BagSubbag,
            FfAdd,
            FfMul,
            FfNeg,
            FfBitsum,
            Select,
            Store,
            MkTuple,
        ]
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Op::*;
        match self {
            Divisible(n) => write!(f, "(_ divisible {n})"),
            Extract(i, j) => write!(f, "(_ extract {i} {j})"),
            ZeroExtend(k) => write!(f, "(_ zero_extend {k})"),
            SignExtend(k) => write!(f, "(_ sign_extend {k})"),
            RotateLeft(k) => write!(f, "(_ rotate_left {k})"),
            RotateRight(k) => write!(f, "(_ rotate_right {k})"),
            Repeat(k) => write!(f, "(_ repeat {k})"),
            TupleSelect(i) => write!(f, "(_ tuple.select {i})"),
            ConstArray(s) => write!(f, "(as const {s})"),
            other => f.write_str(other.smt_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_names_round_trip() {
        for op in Op::all_simple() {
            // Neg prints as "-" which parses back to Sub; everything else must
            // round-trip exactly.
            if op == Op::Neg {
                continue;
            }
            let parsed = Op::from_simple_name(op.smt_name());
            assert_eq!(parsed, Some(op.clone()), "failed for {op:?}");
        }
    }

    #[test]
    fn indexed_ops_display() {
        assert_eq!(Op::Extract(7, 3).to_string(), "(_ extract 7 3)");
        assert_eq!(Op::Divisible(3).to_string(), "(_ divisible 3)");
        assert_eq!(Op::TupleSelect(0).to_string(), "(_ tuple.select 0)");
        assert_eq!(
            Op::ConstArray(Sort::array(Sort::Int, Sort::Bool)).to_string(),
            "(as const (Array Int Bool))"
        );
    }

    #[test]
    fn theory_tags() {
        assert_eq!(Op::SeqRev.theory(), Theory::Sequences);
        assert_eq!(Op::RelJoin.theory(), Theory::Sets);
        assert_eq!(Op::FfBitsum.theory(), Theory::FiniteFields);
        assert_eq!(Op::BvAdd.theory(), Theory::BitVectors);
        assert!(Op::SeqRev.theory().is_extended());
        assert!(Op::StrToCode.theory().is_standard());
    }

    #[test]
    fn unknown_simple_name_is_none() {
        assert_eq!(Op::from_simple_name("frobnicate"), None);
    }
}
