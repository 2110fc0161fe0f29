//! Coverage instrumentation for the simulated solvers — the stand-in for
//! gcov line/function coverage in the paper's Figures 6 and 8.
//!
//! Every instrumented *function* in a solver has a name
//! (`"component::function"`) and a small number of *branches*, each carrying
//! a line weight. Solver code reports hits at runtime
//! ([`CoverageMap::hit`]); which branch fires depends on the actual data
//! flowing through the solver, so input diversity translates into line
//! coverage exactly as it does under gcov.
//!
//! The *universe* of instrumentable points is fixed per solver
//! ([`universe`]) and includes component groups that are never reachable in
//! the default configuration (proof production, parallel mode, ...), which
//! keeps absolute percentages below 50% as in the paper. It is a constant
//! table, built once per process and shared by every solver, campaign
//! stepper, shard merge and journal codec.

use crate::features::fnv1a;
use crate::SolverId;
use o4a_smtlib::{Op, Theory};
use std::collections::{BTreeMap, HashMap};
use std::mem::Discriminant;
use std::sync::OnceLock;

/// The fixed `frontend::cmd_*` point names, in universe layout order.
/// [`Universe::frontend_cmd`] caches their indices slot-for-slot.
pub(crate) const CMD_POINTS: [&str; 12] = [
    "set_logic",
    "set_option",
    "set_info",
    "declare_const",
    "declare_fun",
    "declare_sort",
    "define_fun",
    "assert",
    "check_sat",
    "get_model",
    "get_value",
    "push_pop",
];

/// The fixed `frontend::term_*` point names, in universe layout order.
pub(crate) const TERM_POINTS: [&str; 6] = ["const", "var", "app", "let", "quant", "annotation"];

/// The fixed `frontend::sort_*` point names, in universe layout order.
pub(crate) const SORT_POINTS: [&str; 12] = [
    "bool", "int", "real", "string", "bitvec", "ff", "seq", "set", "bag", "array", "tuple", "usort",
];

/// Pre-resolved coverage row for one operator family: the universe indices
/// of its `typeck::`/`rewrite::`/`eval::` points plus the FNV-1a hash of
/// its SMT name. Indexed operators (`extract`, `zero_extend`, ...) share
/// one row per family, exactly as they share one [`op_slug`] — the row is
/// keyed by enum discriminant, so `(_ extract 7 3)` resolves to the same
/// points as the `(_ extract 0 0)` representative the universe was built
/// from.
#[derive(Clone, Copy, Debug)]
pub struct OpRow {
    /// Index of the family's `typeck::<theory>::<slug>` point.
    pub typeck: usize,
    /// Index of the family's `rewrite::<theory>::<slug>` point.
    pub rewrite: usize,
    /// Index of the family's `eval::<theory>::<slug>` point.
    pub eval: usize,
    /// `fnv1a(op.smt_name())`, cached for the engines' branch-selection
    /// roll so the hot loop never re-hashes operator names.
    pub name_fnv: u64,
}

/// A function's instrumentation record within the universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionInfo {
    /// `component::function` name.
    pub name: String,
    /// Line weight of each branch; `lines[0]` is the entry branch.
    pub branch_lines: Vec<u32>,
    /// True when the function is gated behind a non-default option and can
    /// never be executed in these experiments (dead mass).
    pub reachable: bool,
}

impl FunctionInfo {
    /// Total line weight across branches.
    pub fn total_lines(&self) -> u32 {
        self.branch_lines.iter().sum()
    }
}

/// The full instrumentation universe of one solver.
#[derive(Clone, Debug)]
pub struct Universe {
    solver: SolverId,
    functions: Vec<FunctionInfo>,
    total_lines: u64,
    index: BTreeMap<String, usize>,
    /// `frontend::cmd_*` indices, slot-for-slot with [`CMD_POINTS`].
    pub(crate) frontend_cmd: [usize; 12],
    /// `frontend::term_*` indices, slot-for-slot with [`TERM_POINTS`].
    pub(crate) frontend_term: [usize; 6],
    /// `frontend::sort_*` indices, slot-for-slot with [`SORT_POINTS`].
    pub(crate) frontend_sort: [usize; 12],
    /// Index of `frontend::error_reporting`.
    pub(crate) error_reporting: usize,
    /// Per-operator-family point rows, keyed by enum discriminant.
    op_rows: HashMap<Discriminant<Op>, OpRow>,
}

impl Universe {
    /// Which solver this universe instruments.
    pub fn solver(&self) -> SolverId {
        self.solver
    }

    /// Number of functions (gcov "functions" denominator).
    pub fn total_functions(&self) -> usize {
        self.functions.len()
    }

    /// Total line count (gcov "lines" denominator).
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }

    /// Looks up a function index by name.
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The function records.
    pub fn functions(&self) -> &[FunctionInfo] {
        &self.functions
    }

    /// The pre-resolved point row for an operator's family, or `None` when
    /// the solver does not instrument the family (`Op::Uf`, theories the
    /// solver rejects). Behaviourally identical to formatting the point
    /// name and calling [`Universe::function_index`], but allocation-free.
    pub fn op_row(&self, op: &Op) -> Option<OpRow> {
        self.op_rows.get(&std::mem::discriminant(op)).copied()
    }
}

/// The instrumentation universe of a solver: built on first use, then
/// shared for the life of the process.
pub fn universe(solver: SolverId) -> &'static Universe {
    static OXIZ: OnceLock<Universe> = OnceLock::new();
    static CERVO: OnceLock<Universe> = OnceLock::new();
    let cell = match solver {
        SolverId::OxiZ => &OXIZ,
        SolverId::Cervo => &CERVO,
    };
    cell.get_or_init(|| build_universe(solver))
}

/// Builds the instrumentation universe for a solver.
///
/// The layout mirrors a real solver source tree: frontend (lexer, parser,
/// typechecker), per-theory rewriters and evaluators, the search core, the
/// model builder, and a block of option-gated components that stay dark in
/// default-configuration runs.
fn build_universe(solver: SolverId) -> Universe {
    let mut functions = Vec::new();
    let mut push = |name: String, branch_lines: Vec<u32>, reachable: bool| {
        functions.push(FunctionInfo {
            name,
            branch_lines,
            reachable,
        });
    };

    // --- frontend ---
    for cmd in CMD_POINTS {
        push(format!("frontend::cmd_{cmd}"), vec![6, 4], true);
    }
    for node in TERM_POINTS {
        push(format!("frontend::term_{node}"), vec![8, 5, 4], true);
    }
    for sort in SORT_POINTS {
        push(format!("frontend::sort_{sort}"), vec![5, 3], true);
    }
    push("frontend::error_reporting".into(), vec![10, 6], true);

    // --- per-operator typecheck / rewrite / eval ---
    let supported = supported_ops(solver);
    for op in &supported {
        let t = op.theory();
        // Extended theories carry more code mass (they are newer, richer
        // modules in real solvers; this is what gives Once4All its coverage
        // headroom on Cervo).
        let scale = if t.is_extended() { 2 } else { 1 };
        let slug = op_slug(op);
        push(
            format!("typeck::{}::{slug}", t.name()),
            vec![4 * scale, 3 * scale],
            true,
        );
        push(
            format!("rewrite::{}::{slug}", t.name()),
            vec![6 * scale, 5 * scale, 4 * scale],
            true,
        );
        push(
            format!("eval::{}::{slug}", t.name()),
            vec![7 * scale, 5 * scale, 5 * scale],
            true,
        );
    }

    // --- theory module initialization ---
    for t in supported_theories(solver) {
        push(format!("theory::{}::init", t.name()), vec![12, 8], true);
        push(
            format!("theory::{}::propagate", t.name()),
            vec![10, 8, 6],
            true,
        );
        push(format!("theory::{}::explain", t.name()), vec![9, 6], true);
    }

    // --- search core (solver-specific phase names) ---
    let phases: &[&str] = match solver {
        SolverId::OxiZ => &[
            "simplify_pass",
            "flatten",
            "const_fold",
            "domain_build",
            "enumerate",
            "prune",
            "model_build",
            "model_eval",
            "quant_expand",
            "uf_assign",
        ],
        SolverId::Cervo => &[
            "nnf",
            "let_inline",
            "atom_abstract",
            "dpll_decide",
            "dpll_propagate",
            "theory_check",
            "repair_climb",
            "enumerate_exhaustive",
            "model_build",
            "model_check",
        ],
    };
    for p in phases {
        push(format!("core::{p}"), vec![14, 10, 8, 6], true);
    }
    for q in ["forall_inst", "exists_witness", "binder_scope"] {
        push(format!("quant::{q}"), vec![11, 8, 7], true);
    }

    // --- option-gated dark mass (never reachable in default config) ---
    // Sized so that full exercise of the reachable portion lands in the
    // paper's coverage range (~30-35% lines, ~40-50% functions).
    let dark: &[(&str, usize, u32)] = match solver {
        SolverId::OxiZ => &[
            ("proof", 60, 22),
            ("interpolation", 40, 20),
            ("opt", 45, 18),
            ("fixedpoint", 70, 20),
            ("nlsat_advanced", 45, 16),
            ("parallel", 35, 18),
            ("tactics_ext", 80, 14),
            ("spacer", 60, 18),
        ],
        SolverId::Cervo => &[
            ("proof", 55, 20),
            ("sygus", 65, 18),
            ("abduction", 30, 16),
            ("interpolation", 30, 18),
            ("parallel", 25, 16),
            ("datatypes_adv", 40, 14),
            ("ho_elim", 35, 16),
        ],
    };
    for (component, count, lines) in dark {
        for i in 0..*count {
            push(format!("{component}::fn_{i}"), vec![*lines], false);
        }
    }

    let index: BTreeMap<String, usize> = functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i))
        .collect();

    // Pre-resolve the hot-path point indices so per-node coverage hits
    // need neither a `format!` nor a name lookup. Resolution goes through
    // `index`, so slug collisions (e.g. `+`/`-`/`*` all slugging to
    // `typeck::ints::_`) land on exactly the index a name lookup would.
    let frontend_cmd = CMD_POINTS.map(|c| index[format!("frontend::cmd_{c}").as_str()]);
    let frontend_term = TERM_POINTS.map(|n| index[format!("frontend::term_{n}").as_str()]);
    let frontend_sort = SORT_POINTS.map(|s| index[format!("frontend::sort_{s}").as_str()]);
    let error_reporting = index["frontend::error_reporting"];
    let mut op_rows = HashMap::new();
    for op in &supported {
        let t = op.theory().name();
        let slug = op_slug(op);
        op_rows.insert(
            std::mem::discriminant(op),
            OpRow {
                typeck: index[format!("typeck::{t}::{slug}").as_str()],
                rewrite: index[format!("rewrite::{t}::{slug}").as_str()],
                eval: index[format!("eval::{t}::{slug}").as_str()],
                name_fnv: fnv1a(op.smt_name().as_bytes()),
            },
        );
    }

    Universe {
        solver,
        total_lines: functions.iter().map(|f| f.total_lines() as u64).sum(),
        functions,
        index,
        frontend_cmd,
        frontend_term,
        frontend_sort,
        error_reporting,
        op_rows,
    }
}

/// Operators supported by a solver's frontend. OxiZ (like Z3) rejects the
/// cvc5-specific Sets/Relations, Bags, and FiniteFields extensions.
pub fn supported_ops(solver: SolverId) -> Vec<Op> {
    Op::all_simple()
        .into_iter()
        .chain([
            Op::Divisible(2),
            Op::Extract(0, 0),
            Op::ZeroExtend(1),
            Op::SignExtend(1),
            Op::RotateLeft(1),
            Op::RotateRight(1),
            Op::Repeat(1),
            Op::TupleSelect(0),
        ])
        .filter(|op| supported_theories(solver).contains(&op.theory()))
        .collect()
}

/// Theories supported by a solver's frontend.
pub fn supported_theories(solver: SolverId) -> Vec<Theory> {
    match solver {
        SolverId::OxiZ => vec![
            Theory::Core,
            Theory::Ints,
            Theory::Reals,
            Theory::BitVectors,
            Theory::Strings,
            Theory::Arrays,
            Theory::Uf,
            Theory::Sequences,
        ],
        SolverId::Cervo => Theory::ALL.to_vec(),
    }
}

/// Canonical coverage slug for an operator (indexed operators share one
/// slug per family, like one C++ function handles all indices).
pub fn op_slug(op: &Op) -> String {
    op.smt_name()
        .replace(['.', '+', '<', '>', '=', '/', '*', '-'], "_")
}

/// A set of hit branches, accumulated across a fuzzing campaign.
///
/// Dense: `masks[idx]` is the bitmask of hit branches of the function at
/// universe index `idx`, grown on demand up to the highest index hit. A
/// hit is one OR, [`CoverageMap::merge`] an element-wise OR and `clone`
/// a copy of at most one word per universe function (767 for OxiZ, 702
/// for Cervo). `Debug` prints the `{idx: mask}` map of the hit functions
/// only, in index order.
#[derive(Clone, Default)]
pub struct CoverageMap {
    masks: Vec<u32>,
}

impl std::fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let hits: BTreeMap<usize, u32> = self.hits().collect();
        f.debug_struct("CoverageMap").field("hits", &hits).finish()
    }
}

impl CoverageMap {
    /// Creates an empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Forgets every hit, keeping the buffer for the next case.
    pub fn clear(&mut self) {
        self.masks.clear();
    }

    /// The hit functions' `(index, mask)` pairs, in index order.
    fn hits(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.masks
            .iter()
            .enumerate()
            .filter(|&(_, &mask)| mask != 0)
            .map(|(idx, &mask)| (idx, mask))
    }

    /// ORs `bits` into the function at `idx`.
    fn or(&mut self, idx: usize, bits: u32) {
        if idx >= self.masks.len() {
            self.masks.resize(idx + 1, 0);
        }
        self.masks[idx] |= bits;
    }

    /// Records a hit of `branch` in function `name`. Unknown names and
    /// out-of-range branches are ignored (they indicate instrumentation
    /// drift, not solver behaviour).
    pub fn hit(&mut self, universe: &Universe, name: &str, branch: usize) {
        if let Some(idx) = universe.function_index(name) {
            self.hit_idx(universe, idx, branch);
        }
    }

    /// Records a hit of `branch` in the function at `idx` — the
    /// pre-resolved twin of [`CoverageMap::hit`] for hot paths that cache
    /// point indices ([`Universe::op_row`], the frontend tables). Bounds,
    /// reachability, and out-of-range behaviour are identical to the
    /// name-based path.
    pub fn hit_idx(&mut self, universe: &Universe, idx: usize, branch: usize) {
        if let Some(f) = universe.functions().get(idx) {
            if branch < f.branch_lines.len() && f.reachable {
                self.or(idx, 1 << branch);
            }
        }
    }

    /// Merges another map into this one (used to accumulate per-testcase
    /// coverage into campaign totals).
    pub fn merge(&mut self, other: &CoverageMap) {
        if other.masks.len() > self.masks.len() {
            self.masks.resize(other.masks.len(), 0);
        }
        for (mask, &bits) in self.masks.iter_mut().zip(&other.masks) {
            *mask |= bits;
        }
    }

    /// Number of functions with at least one hit branch.
    pub fn functions_hit(&self) -> usize {
        self.hits().count()
    }

    /// Total line weight of hit branches.
    pub fn lines_hit(&self, universe: &Universe) -> u64 {
        let mut total = 0u64;
        for (idx, mask) in self.hits() {
            let f = &universe.functions()[idx];
            for (b, lines) in f.branch_lines.iter().enumerate() {
                if mask & (1 << b) != 0 {
                    total += *lines as u64;
                }
            }
        }
        total
    }

    /// Function coverage in percent of the universe.
    pub fn function_coverage_pct(&self, universe: &Universe) -> f64 {
        100.0 * self.functions_hit() as f64 / universe.total_functions() as f64
    }

    /// Line coverage in percent of the universe.
    pub fn line_coverage_pct(&self, universe: &Universe) -> f64 {
        100.0 * self.lines_hit(universe) as f64 / universe.total_lines() as f64
    }

    /// Names of covered functions (for the paper's "which directories did
    /// only Once4All reach" analysis).
    pub fn covered_function_names<'u>(&self, universe: &'u Universe) -> Vec<&'u str> {
        self.hits()
            .map(|(i, _)| universe.functions()[i].name.as_str())
            .collect()
    }

    /// True when no branch has been hit.
    pub fn is_empty(&self) -> bool {
        self.hits().next().is_none()
    }

    /// Exports the map as `(function name, branch bitmask)` pairs in
    /// universe order — the stable on-disk representation used by the
    /// campaign findings store (names survive universe relayouts that
    /// indices would not).
    pub fn export(&self, universe: &Universe) -> Vec<(String, u32)> {
        self.hits()
            .map(|(idx, mask)| (universe.functions()[idx].name.clone(), mask))
            .collect()
    }

    /// ORs a whole branch bitmask into the named function (the inverse of
    /// [`CoverageMap::export`]). Unknown names are ignored; masks are
    /// clipped to the function's branch count and unreachable functions are
    /// dropped, mirroring [`CoverageMap::hit`].
    pub fn absorb_mask(&mut self, universe: &Universe, name: &str, mask: u32) {
        if let Some(idx) = universe.function_index(name) {
            let f = &universe.functions()[idx];
            let valid = if f.branch_lines.len() >= 32 {
                u32::MAX
            } else {
                (1u32 << f.branch_lines.len()) - 1
            };
            let clipped = mask & valid;
            if clipped != 0 && f.reachable {
                self.or(idx, clipped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_is_built_once_per_process() {
        for solver in SolverId::ALL {
            let first = universe(solver);
            assert!(std::ptr::eq(first, universe(solver)));
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| universe(solver) as *const Universe as usize);
                let b = s.spawn(|| universe(solver) as *const Universe as usize);
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_eq!(a, first as *const Universe as usize);
            assert_eq!(b, a);
            // The shared table is exactly what a fresh build produces.
            let fresh = build_universe(solver);
            assert_eq!(first.solver(), fresh.solver());
            assert_eq!(first.functions(), fresh.functions());
            assert_eq!(first.total_lines(), fresh.total_lines());
        }
    }

    #[test]
    fn universes_have_dark_mass() {
        for solver in SolverId::ALL {
            let u = universe(solver);
            let reachable: u64 = u
                .functions()
                .iter()
                .filter(|f| f.reachable)
                .map(|f| f.total_lines() as u64)
                .sum();
            let frac = reachable as f64 / u.total_lines() as f64;
            assert!(
                (0.25..=0.70).contains(&frac),
                "{solver}: reachable fraction {frac} out of calibration range"
            );
        }
    }

    #[test]
    fn cervo_universe_is_larger() {
        // cvc5 supports more extended theories, hence more instrumented code.
        let oz = universe(SolverId::OxiZ);
        let cv = universe(SolverId::Cervo);
        let oz_reach = oz.functions().iter().filter(|f| f.reachable).count();
        let cv_reach = cv.functions().iter().filter(|f| f.reachable).count();
        assert!(cv_reach > oz_reach);
    }

    #[test]
    fn hits_accumulate_and_merge() {
        let u = universe(SolverId::Cervo);
        let mut a = CoverageMap::new();
        a.hit(u, "core::nnf", 0);
        a.hit(u, "core::nnf", 1);
        let mut b = CoverageMap::new();
        b.hit(u, "core::model_build", 0);
        a.merge(&b);
        assert_eq!(a.functions_hit(), 2);
        assert!(a.lines_hit(u) >= 14 + 10 + 14);
    }

    /// Random-ish coverage map over the reachable part of a universe.
    fn sample_map(u: &Universe, stride: usize, offset: usize) -> CoverageMap {
        let mut m = CoverageMap::new();
        for (i, f) in u.functions().iter().enumerate() {
            if f.reachable && i % stride == offset % stride {
                m.hit(u, &f.name, i % f.branch_lines.len());
            }
        }
        m
    }

    fn fingerprint(m: &CoverageMap, u: &Universe) -> (usize, u64, Vec<(String, u32)>) {
        (m.functions_hit(), m.lines_hit(u), m.export(u))
    }

    #[test]
    fn merge_is_idempotent() {
        let u = universe(SolverId::OxiZ);
        let mut a = sample_map(u, 3, 0);
        let before = fingerprint(&a, u);
        let copy = a.clone();
        a.merge(&copy);
        assert_eq!(fingerprint(&a, u), before);
    }

    #[test]
    fn merge_is_commutative() {
        let u = universe(SolverId::Cervo);
        let a = sample_map(u, 3, 0);
        let b = sample_map(u, 5, 1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(fingerprint(&ab, u), fingerprint(&ba, u));
    }

    #[test]
    fn merge_is_monotone() {
        let u = universe(SolverId::OxiZ);
        let mut a = sample_map(u, 4, 2);
        let b = sample_map(u, 7, 3);
        let lines_before = a.lines_hit(u);
        let fns_before = a.functions_hit();
        a.merge(&b);
        assert!(a.lines_hit(u) >= lines_before);
        assert!(a.lines_hit(u) >= b.lines_hit(u));
        assert!(a.functions_hit() >= fns_before.max(b.functions_hit()));
    }

    #[test]
    fn export_absorb_round_trip() {
        let u = universe(SolverId::Cervo);
        let a = sample_map(u, 2, 1);
        let mut b = CoverageMap::new();
        for (name, mask) in a.export(u) {
            b.absorb_mask(u, &name, mask);
        }
        assert_eq!(fingerprint(&a, u), fingerprint(&b, u));
        // Unknown names and oversized masks are ignored/clipped.
        b.absorb_mask(u, "no::such::function", 0xff);
        b.absorb_mask(u, "proof::fn_0", 0x1); // dark mass stays dark
        assert_eq!(fingerprint(&a, u), fingerprint(&b, u));
    }

    #[test]
    fn unknown_points_ignored() {
        let u = universe(SolverId::OxiZ);
        let mut m = CoverageMap::new();
        m.hit(u, "no::such::function", 0);
        m.hit(u, "core::enumerate", 99);
        assert_eq!(m.functions_hit(), 0);
    }

    #[test]
    fn dark_functions_never_counted() {
        let u = universe(SolverId::OxiZ);
        let mut m = CoverageMap::new();
        m.hit(u, "proof::fn_0", 0);
        assert_eq!(m.functions_hit(), 0);
    }

    #[test]
    fn oxiz_rejects_extended_set_ops() {
        let ops = supported_ops(SolverId::OxiZ);
        assert!(ops.iter().all(|o| o.theory() != Theory::Sets));
        assert!(ops.iter().any(|o| o.theory() == Theory::Sequences));
        let cv = supported_ops(SolverId::Cervo);
        assert!(cv.iter().any(|o| o.theory() == Theory::FiniteFields));
    }

    #[test]
    fn fast_tables_match_name_lookups() {
        for solver in SolverId::ALL {
            let u = universe(solver);
            for (slot, c) in CMD_POINTS.iter().enumerate() {
                assert_eq!(
                    Some(u.frontend_cmd[slot]),
                    u.function_index(&format!("frontend::cmd_{c}"))
                );
            }
            for (slot, n) in TERM_POINTS.iter().enumerate() {
                assert_eq!(
                    Some(u.frontend_term[slot]),
                    u.function_index(&format!("frontend::term_{n}"))
                );
            }
            for (slot, s) in SORT_POINTS.iter().enumerate() {
                assert_eq!(
                    Some(u.frontend_sort[slot]),
                    u.function_index(&format!("frontend::sort_{s}"))
                );
            }
            assert_eq!(
                Some(u.error_reporting),
                u.function_index("frontend::error_reporting")
            );
            for op in supported_ops(solver) {
                let row = u.op_row(&op).expect("supported op has a row");
                let t = op.theory().name();
                let slug = op_slug(&op);
                assert_eq!(
                    Some(row.typeck),
                    u.function_index(&format!("typeck::{t}::{slug}"))
                );
                assert_eq!(
                    Some(row.rewrite),
                    u.function_index(&format!("rewrite::{t}::{slug}"))
                );
                assert_eq!(
                    Some(row.eval),
                    u.function_index(&format!("eval::{t}::{slug}"))
                );
                assert_eq!(row.name_fnv, fnv1a(op.smt_name().as_bytes()));
            }
            // Indexed variants share the representative's row; Uf has none.
            let a = u.op_row(&Op::Extract(7, 3)).unwrap();
            let b = u.op_row(&Op::Extract(0, 0)).unwrap();
            assert_eq!(a.typeck, b.typeck);
            assert!(u.op_row(&Op::Uf(o4a_smtlib::Symbol::new("f"))).is_none());
        }
    }

    #[test]
    fn hit_idx_matches_hit() {
        let u = universe(SolverId::Cervo);
        let mut by_name = CoverageMap::new();
        let mut by_idx = CoverageMap::new();
        for (name, branch) in [
            ("frontend::cmd_assert", 0),
            ("frontend::cmd_assert", 1),
            ("frontend::term_app", 1),
            ("core::nnf", 0),
            ("proof::fn_0", 0),        // dark: ignored on both paths
            ("core::model_build", 99), // out of range: ignored on both
        ] {
            by_name.hit(u, name, branch);
            if let Some(i) = u.function_index(name) {
                by_idx.hit_idx(u, i, branch);
            }
        }
        by_idx.hit_idx(u, usize::MAX, 0); // unknown index: ignored
        assert_eq!(by_name.export(u), by_idx.export(u));
    }

    /// The map's semantics kept as the sparse `BTreeMap` it once was,
    /// with the derived `Debug` the findings store and fleet frames
    /// printed.
    #[derive(Clone, Debug, Default)]
    struct CoverageMapModel {
        hits: BTreeMap<usize, u32>,
    }

    impl CoverageMapModel {
        fn hit_idx(&mut self, u: &Universe, idx: usize, branch: usize) {
            if let Some(f) = u.functions().get(idx) {
                if branch < f.branch_lines.len() && f.reachable {
                    *self.hits.entry(idx).or_insert(0) |= 1 << branch;
                }
            }
        }

        fn absorb_mask(&mut self, u: &Universe, name: &str, mask: u32) {
            if let Some(idx) = u.function_index(name) {
                let f = &u.functions()[idx];
                let clipped = mask & ((1u32 << f.branch_lines.len()) - 1);
                if clipped != 0 && f.reachable {
                    *self.hits.entry(idx).or_insert(0) |= clipped;
                }
            }
        }

        fn merge(&mut self, other: &CoverageMapModel) {
            for (&idx, &mask) in &other.hits {
                *self.hits.entry(idx).or_insert(0) |= mask;
            }
        }

        fn lines_hit(&self, u: &Universe) -> u64 {
            let mut total = 0;
            for (&idx, &mask) in &self.hits {
                for (b, &lines) in u.functions()[idx].branch_lines.iter().enumerate() {
                    if mask & (1 << b) != 0 {
                        total += u64::from(lines);
                    }
                }
            }
            total
        }
    }

    /// Everything the map reports, as `model` would report it.
    fn assert_agrees(map: &CoverageMap, model: &CoverageMapModel, u: &Universe, step: &str) {
        let export: Vec<(String, u32)> = model
            .hits
            .iter()
            .map(|(&i, &m)| (u.functions()[i].name.clone(), m))
            .collect();
        assert_eq!(map.export(u), export, "{step}");
        assert_eq!(map.functions_hit(), model.hits.len(), "{step}");
        assert_eq!(map.lines_hit(u), model.lines_hit(u), "{step}");
        assert_eq!(map.is_empty(), model.hits.is_empty(), "{step}");
        let names: Vec<&str> = model
            .hits
            .keys()
            .map(|&i| u.functions()[i].name.as_str())
            .collect();
        assert_eq!(map.covered_function_names(u), names, "{step}");
        let model_debug = format!("{model:?}").replacen("CoverageMapModel", "CoverageMap", 1);
        assert_eq!(format!("{map:?}"), model_debug, "{step}");
        let model_pretty = format!("{model:#?}").replacen("CoverageMapModel", "CoverageMap", 1);
        assert_eq!(format!("{map:#?}"), model_pretty, "{step}");
    }

    /// Seeded random sequences of every mutation, each followed by a
    /// full comparison against the sparse model: unknown names, branches
    /// past 4, dark functions, masks that need clipping, and merges of
    /// maps grown to different lengths.
    #[test]
    fn dense_map_matches_the_sparse_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for solver in SolverId::ALL {
            let u = universe(solver);
            let n = u.total_functions();
            let mut rng = StdRng::seed_from_u64(0xc0de + solver as u64);
            let random_map = |rng: &mut StdRng| {
                // A short map (low indices only) or one grown to the end.
                let top = if rng.gen_bool(0.5) { n / 8 } else { n };
                let mut map = CoverageMap::new();
                let mut model = CoverageMapModel::default();
                for _ in 0..rng.gen_range(0..40) {
                    let (idx, branch) = (rng.gen_range(0..top), rng.gen_range(0..6));
                    map.hit_idx(u, idx, branch);
                    model.hit_idx(u, idx, branch);
                }
                (map, model)
            };
            for run in 0..20 {
                let mut map = CoverageMap::new();
                let mut model = CoverageMapModel::default();
                for step in 0..150 {
                    let what = rng.gen_range(0..6);
                    let step = format!("{solver} run {run} step {step} op {what}");
                    match what {
                        0 => {
                            let idx = rng.gen_range(0..n + 3);
                            let name = match u.functions().get(idx) {
                                Some(f) => f.name.clone(),
                                None => format!("no::such::fn_{idx}"),
                            };
                            let branch = rng.gen_range(0..6);
                            map.hit(u, &name, branch);
                            if let Some(i) = u.function_index(&name) {
                                model.hit_idx(u, i, branch);
                            }
                        }
                        1 => {
                            let idx = match rng.gen_range(0..10) {
                                0 => usize::MAX,
                                _ => rng.gen_range(0..n + 3),
                            };
                            let branch = rng.gen_range(0..6);
                            map.hit_idx(u, idx, branch);
                            model.hit_idx(u, idx, branch);
                        }
                        2 => {
                            let idx = rng.gen_range(0..n + 3);
                            let name = u
                                .functions()
                                .get(idx)
                                .map_or("no::such::function".to_string(), |f| f.name.clone());
                            let mask = match rng.gen_range(0..3) {
                                0 => 0,
                                1 => rng.gen_range(0..16),
                                _ => rng.gen::<u32>(),
                            };
                            map.absorb_mask(u, &name, mask);
                            model.absorb_mask(u, &name, mask);
                        }
                        3 | 4 => {
                            let (other, other_model) = random_map(&mut rng);
                            if what == 3 {
                                map.merge(&other);
                                model.merge(&other_model);
                            } else {
                                // The other way round: the longer map
                                // merges into the shorter one.
                                let mut other = other;
                                let mut other_model = other_model;
                                other.merge(&map);
                                other_model.merge(&model);
                                map = other;
                                model = other_model;
                            }
                        }
                        _ => {
                            if rng.gen_bool(0.3) {
                                map.clear();
                                model = CoverageMapModel::default();
                            }
                        }
                    }
                    assert_agrees(&map, &model, u, &step);
                    let copy = map.clone();
                    assert_agrees(&copy, &model, u, &step);
                }
            }
        }
    }

    /// `reset_coverage` clears in place: a second case's coverage on a
    /// reused engine is exactly that case's coverage on a fresh one.
    #[test]
    fn reset_engine_reports_what_a_fresh_engine_reports() {
        use crate::{solver_at, TRUNK_COMMIT};
        let cases = [
            "(declare-const x Int)(declare-const s String)\
             (assert (and (> x 3) (= (str.len s) x)))(check-sat)",
            "(declare-const a (_ BitVec 8))(assert (bvult a #x10))(check-sat)",
            "(declare-const p Bool)(assert (forall ((y Int)) (or p (> y 0))))(check-sat)",
            "(assert (= 1 2))(check-sat)",
        ];
        for solver in SolverId::ALL {
            let u = universe(solver);
            let mut reused = solver_at(solver, TRUNK_COMMIT);
            for (k, case) in cases.iter().enumerate() {
                reused.reset_coverage();
                reused.check(case);
                let mut fresh = solver_at(solver, TRUNK_COMMIT);
                fresh.check(case);
                assert!(!fresh.coverage().is_empty(), "{solver} case {k}");
                assert_eq!(
                    reused.coverage().export(u),
                    fresh.coverage().export(u),
                    "{solver} case {k}"
                );
                assert_eq!(
                    format!("{:?}", reused.coverage()),
                    format!("{:?}", fresh.coverage()),
                    "{solver} case {k}"
                );
            }
        }
    }

    #[test]
    fn coverage_percentages_bounded() {
        let u = universe(SolverId::Cervo);
        let mut m = CoverageMap::new();
        // Hit everything reachable.
        let names: Vec<(String, usize)> = u
            .functions()
            .iter()
            .filter(|f| f.reachable)
            .flat_map(|f| (0..f.branch_lines.len()).map(move |b| (f.name.clone(), b)))
            .collect();
        for (name, b) in names {
            m.hit(u, &name, b);
        }
        let line_pct = m.line_coverage_pct(u);
        let fn_pct = m.function_coverage_pct(u);
        assert!(line_pct < 70.0, "line pct {line_pct}");
        assert!(fn_pct < 70.0, "fn pct {fn_pct}");
        assert!(line_pct > 20.0);
    }
}
