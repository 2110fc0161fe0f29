//! Bug inspection, deduplication, and report bookkeeping (paper §4.2,
//! "Bug Inspection and Reduction"): crashes cluster by stack signature,
//! soundness/invalid-model findings group by theory, and each issue is
//! attributed to its underlying registry defect for developer-response
//! accounting (Table 1) and type distribution (Table 2).

use crate::oracle::Verdict;
use o4a_smtlib::Theory;
use o4a_solvers::bugs::{registry, BugKind, BugSpec, DevStatus};
use o4a_solvers::{CommitIdx, FormulaFeatures, SolverId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The observable class of a finding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FoundKind {
    /// Abnormal termination.
    Crash,
    /// sat/unsat disagreement.
    Soundness,
    /// Model fails re-evaluation.
    InvalidModel,
}

impl FoundKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            FoundKind::Crash => "Crash",
            FoundKind::Soundness => "Soundness",
            FoundKind::InvalidModel => "Invalid model",
        }
    }
}

/// One bug-triggering test case recorded during a campaign.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The test case text.
    pub case_text: String,
    /// The solver the bug manifests in.
    pub solver: SolverId,
    /// Observable class.
    pub kind: FoundKind,
    /// Crash signature, for crash findings.
    pub signature: Option<String>,
    /// Theories the formula exercises.
    pub theories: Vec<Theory>,
    /// Ground-truth attribution (for experiment bookkeeping only — triage
    /// itself never consults it for clustering).
    pub attributed: Option<&'static BugSpec>,
    /// Virtual hour of discovery.
    pub vhour: f64,
}

impl Finding {
    /// Builds a finding from an oracle verdict, attributing it to the
    /// registry defect that fired (first-match, same order the solvers
    /// apply effects).
    pub fn from_verdict(
        case_text: &str,
        verdict: &Verdict,
        features: &FormulaFeatures,
        commits: &BTreeMap<SolverId, CommitIdx>,
        vhour: f64,
    ) -> Option<Finding> {
        let (solver, kind, signature) = match verdict {
            Verdict::Crash { solver, signature } => {
                (*solver, FoundKind::Crash, Some(signature.clone()))
            }
            Verdict::Soundness {
                unsat_solver,
                sat_solver,
                model_confirms_sat,
            } => {
                // Direction: the confirmed-sat case blames the unsat
                // solver; otherwise blame whichever solver has a firing
                // registry defect (observable tie-break mirrors manual
                // inspection).
                let blamed = match model_confirms_sat {
                    Some(true) => *unsat_solver,
                    _ => {
                        let commit = |s: &SolverId| commits.get(s).copied().unwrap_or(100);
                        if attribute(*unsat_solver, commit(unsat_solver), features).is_some() {
                            *unsat_solver
                        } else {
                            *sat_solver
                        }
                    }
                };
                (blamed, FoundKind::Soundness, None)
            }
            Verdict::InvalidModel { solver } => (*solver, FoundKind::InvalidModel, None),
            _ => return None,
        };
        let commit = commits.get(&solver).copied().unwrap_or(100);
        Some(Finding {
            case_text: case_text.to_string(),
            solver,
            kind,
            signature,
            theories: features.theories.iter().copied().collect(),
            attributed: attribute(solver, commit, features),
            vhour,
        })
    }
}

/// Ground-truth attribution: the first registry defect that fires on these
/// features at the given commit.
pub fn attribute(
    solver: SolverId,
    commit: CommitIdx,
    features: &FormulaFeatures,
) -> Option<&'static BugSpec> {
    registry()
        .iter()
        .find(|b| b.solver == solver && b.fires(commit, features))
}

/// A deduplicated issue (what gets "reported" upstream).
#[derive(Clone, Debug)]
pub struct Issue {
    /// Dedup key (crash signature or solver/kind/theory group).
    pub key: String,
    /// Solver.
    pub solver: SolverId,
    /// Class.
    pub kind: FoundKind,
    /// How many findings collapsed into this issue.
    pub occurrences: usize,
    /// Representative test case.
    pub representative: String,
    /// Ground-truth attribution of the representative.
    pub attributed: Option<&'static BugSpec>,
    /// Virtual hour of first discovery.
    pub first_vhour: f64,
}

/// What [`dedup`] groups findings by. Its `Display` is the issue's
/// [`Issue::key`], and distinct keys display distinctly (the first
/// segment tells crash keys from the rest, and solver, kind and theory
/// names are fixed and `::`-free), so counting keys counts issues.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum IssueKey<'a> {
    /// A crash with a signature: clustered by solver and signature.
    Crash(SolverId, &'a str),
    /// Any other finding: grouped by kind, solver and theory.
    Group(FoundKind, SolverId, Theory),
}

impl fmt::Display for IssueKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueKey::Crash(solver, sig) => write!(f, "crash::{solver}::{sig}"),
            IssueKey::Group(kind, solver, theory) => write!(f, "{kind:?}::{solver}::{theory}"),
        }
    }
}

impl Finding {
    /// The issue this finding deduplicates into: crashes by signature,
    /// other kinds by (solver, kind, most-specific theory).
    pub fn issue_key(&self) -> IssueKey<'_> {
        match (&self.kind, &self.signature) {
            (FoundKind::Crash, Some(sig)) => IssueKey::Crash(self.solver, sig),
            _ => {
                // Soundness/invalid-model findings group by the theory the
                // defect lives in. Manual inspection of one representative
                // per group identifies that theory in the paper's workflow;
                // here the attribution stands in for the inspecting human.
                // Unattributed findings fall back to formula features.
                let theory = self
                    .attributed
                    .map(|spec| spec.theory)
                    .or_else(|| self.theories.iter().find(|t| t.is_extended()).copied())
                    .or_else(|| self.theories.first().copied())
                    .unwrap_or(Theory::Core);
                IssueKey::Group(self.kind, self.solver, theory)
            }
        }
    }
}

/// Deduplicates findings into issues by [`Finding::issue_key`].
pub fn dedup(findings: &[Finding]) -> Vec<Issue> {
    let mut map: BTreeMap<String, Issue> = BTreeMap::new();
    for f in findings {
        let key = f.issue_key().to_string();
        match map.get_mut(&key) {
            Some(issue) => {
                issue.occurrences += 1;
                if f.vhour < issue.first_vhour {
                    issue.first_vhour = f.vhour;
                }
            }
            None => {
                map.insert(
                    key.clone(),
                    Issue {
                        key,
                        solver: f.solver,
                        kind: f.kind,
                        occurrences: 1,
                        representative: f.case_text.clone(),
                        attributed: f.attributed,
                        first_vhour: f.vhour,
                    },
                );
            }
        }
    }
    map.into_values().collect()
}

/// `dedup(findings).len()` without building the issues: the
/// number of distinct [`IssueKey`]s. The campaign engine counts each
/// hourly snapshot's issues this way.
pub fn issue_count<'a>(findings: impl IntoIterator<Item = &'a Finding>) -> usize {
    findings
        .into_iter()
        .map(Finding::issue_key)
        .collect::<BTreeSet<_>>()
        .len()
}

/// Table 1 row values for one solver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Issues reported.
    pub reported: usize,
    /// Unique confirmed defects.
    pub confirmed: usize,
    /// Confirmed defects the developers fixed.
    pub fixed: usize,
    /// Reports marked duplicate.
    pub duplicate: usize,
}

/// Aggregates issues into the paper's Table 1 (bug status) per solver.
pub fn status_table(issues: &[Issue]) -> BTreeMap<SolverId, StatusCounts> {
    let mut out: BTreeMap<SolverId, StatusCounts> = BTreeMap::new();
    for id in SolverId::ALL {
        out.insert(id, StatusCounts::default());
    }
    // Count unique underlying defects per solver.
    let mut seen_underlying: BTreeMap<SolverId, std::collections::BTreeSet<&str>> = BTreeMap::new();
    for issue in issues {
        let entry = out.entry(issue.solver).or_default();
        entry.reported += 1;
        let Some(spec) = issue.attributed else {
            continue;
        };
        if let Some(orig) = spec.duplicate_of {
            entry.duplicate += 1;
            let _ = orig;
            continue;
        }
        let fresh = seen_underlying
            .entry(issue.solver)
            .or_default()
            .insert(spec.id);
        if fresh {
            match spec.dev_status {
                DevStatus::Fixed => {
                    entry.confirmed += 1;
                    entry.fixed += 1;
                }
                DevStatus::Confirmed => entry.confirmed += 1,
                DevStatus::Reported => {}
            }
        } else {
            // A second issue hit the same underlying defect (e.g. theory
            // grouping was too coarse); developers flag it duplicate.
            entry.reported -= 1;
            entry.duplicate += 1;
        }
    }
    out
}

/// Table 2 row values (bug types among reported issues) per solver.
pub fn type_table(issues: &[Issue]) -> BTreeMap<SolverId, BTreeMap<FoundKind, usize>> {
    let mut out: BTreeMap<SolverId, BTreeMap<FoundKind, usize>> = BTreeMap::new();
    for issue in issues {
        *out.entry(issue.solver)
            .or_default()
            .entry(issue.kind)
            .or_insert(0) += 1;
    }
    out
}

/// How many unique confirmed defects involve extended/solver-specific
/// theories (the paper's "11 bugs" claim).
pub fn extended_theory_count(issues: &[Issue]) -> usize {
    let mut seen = std::collections::BTreeSet::new();
    for issue in issues {
        if let Some(spec) = issue.attributed {
            if spec.duplicate_of.is_none() && spec.is_extended_theory() {
                seen.insert(spec.id);
            }
        }
    }
    seen.len()
}

/// Expected kind for a registry bug (consistency checks between observable
/// classification and ground truth).
pub fn expected_kind(spec: &BugSpec) -> FoundKind {
    match spec.kind {
        BugKind::Crash(_) => FoundKind::Crash,
        BugKind::Soundness => FoundKind::Soundness,
        BugKind::InvalidModel => FoundKind::InvalidModel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(
        solver: SolverId,
        kind: FoundKind,
        sig: Option<&str>,
        theory: Theory,
        attributed: Option<&'static BugSpec>,
    ) -> Finding {
        Finding {
            case_text: "(check-sat)".into(),
            solver,
            kind,
            signature: sig.map(String::from),
            theories: vec![theory],
            attributed,
            vhour: 1.0,
        }
    }

    fn spec_by_id(id: &str) -> &'static BugSpec {
        registry().iter().find(|b| b.id == id).unwrap()
    }

    #[test]
    fn crashes_cluster_by_signature() {
        let findings = vec![
            finding(
                SolverId::OxiZ,
                FoundKind::Crash,
                Some("a:1"),
                Theory::Ints,
                None,
            ),
            finding(
                SolverId::OxiZ,
                FoundKind::Crash,
                Some("a:1"),
                Theory::Ints,
                None,
            ),
            finding(
                SolverId::OxiZ,
                FoundKind::Crash,
                Some("b:2"),
                Theory::Ints,
                None,
            ),
        ];
        let issues = dedup(&findings);
        assert_eq!(issues.len(), 2);
        let total: usize = issues.iter().map(|i| i.occurrences).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn soundness_groups_by_theory() {
        let findings = vec![
            finding(
                SolverId::Cervo,
                FoundKind::Soundness,
                None,
                Theory::Sequences,
                None,
            ),
            finding(
                SolverId::Cervo,
                FoundKind::Soundness,
                None,
                Theory::Sequences,
                None,
            ),
            finding(
                SolverId::Cervo,
                FoundKind::Soundness,
                None,
                Theory::Ints,
                None,
            ),
        ];
        assert_eq!(dedup(&findings).len(), 2);
    }

    /// Counting keys counts issues: every kind of key, with findings of
    /// equal and of different keys, crashes with and without signatures.
    #[test]
    fn issue_count_is_the_number_of_issues() {
        let mut findings = Vec::new();
        for solver in SolverId::ALL {
            for theory in [Theory::Ints, Theory::Sequences, Theory::Core] {
                for (kind, sig) in [
                    (FoundKind::Crash, Some("a:1")),
                    (FoundKind::Crash, Some("b:2")),
                    (FoundKind::Crash, None),
                    (FoundKind::Soundness, None),
                    (FoundKind::InvalidModel, None),
                ] {
                    findings.push(finding(solver, kind, sig, theory, None));
                    let n = findings.len();
                    assert_eq!(issue_count(&findings), dedup(&findings).len());
                    assert_eq!(
                        issue_count(&findings[n / 2..]),
                        dedup(&findings[n / 2..]).len()
                    );
                }
            }
        }
        assert_eq!(issue_count(&findings), 2 * (2 + 3 * 3));
        assert_eq!(issue_count(&[]), 0);
    }

    /// Distinct group keys display as distinct issue keys, over every
    /// kind, solver and theory.
    #[test]
    fn group_keys_display_distinctly() {
        let mut shown = BTreeSet::new();
        let mut keys = 0;
        for solver in SolverId::ALL {
            shown.insert(IssueKey::Crash(solver, "sig").to_string());
            keys += 1;
            for kind in [
                FoundKind::Crash,
                FoundKind::Soundness,
                FoundKind::InvalidModel,
            ] {
                for theory in Theory::ALL {
                    shown.insert(IssueKey::Group(kind, solver, theory).to_string());
                    keys += 1;
                }
            }
        }
        assert_eq!(shown.len(), keys);
    }

    #[test]
    fn extended_theory_preferred_as_group_key() {
        let f = Finding {
            theories: vec![Theory::Ints, Theory::Sequences],
            ..finding(
                SolverId::Cervo,
                FoundKind::Soundness,
                None,
                Theory::Ints,
                None,
            )
        };
        let issues = dedup(&[f]);
        assert!(issues[0].key.contains("sequences"), "{}", issues[0].key);
    }

    #[test]
    fn status_table_counts_duplicates() {
        let findings = vec![
            finding(
                SolverId::OxiZ,
                FoundKind::Crash,
                Some("oxiz::seq_rewriter::mk_rev:184"),
                Theory::Sequences,
                Some(spec_by_id("oz-07")),
            ),
            finding(
                SolverId::OxiZ,
                FoundKind::Crash,
                Some("oxiz::model_evaluator::eval_seq:233"),
                Theory::Sequences,
                Some(spec_by_id("oz-26")), // duplicate of oz-07
            ),
        ];
        let table = status_table(&dedup(&findings));
        let oz = table[&SolverId::OxiZ];
        assert_eq!(oz.reported, 2);
        assert_eq!(oz.confirmed, 1);
        assert_eq!(oz.duplicate, 1);
        assert_eq!(oz.fixed, 1);
    }

    #[test]
    fn type_table_counts_kinds() {
        let findings = vec![
            finding(
                SolverId::OxiZ,
                FoundKind::Crash,
                Some("x:1"),
                Theory::Ints,
                None,
            ),
            finding(
                SolverId::OxiZ,
                FoundKind::InvalidModel,
                None,
                Theory::Ints,
                None,
            ),
            finding(
                SolverId::OxiZ,
                FoundKind::Soundness,
                None,
                Theory::Strings,
                None,
            ),
        ];
        let t = type_table(&dedup(&findings));
        assert_eq!(t[&SolverId::OxiZ][&FoundKind::Crash], 1);
        assert_eq!(t[&SolverId::OxiZ][&FoundKind::InvalidModel], 1);
        assert_eq!(t[&SolverId::OxiZ][&FoundKind::Soundness], 1);
    }

    #[test]
    fn extended_count_dedups_by_underlying() {
        let findings = vec![
            finding(
                SolverId::Cervo,
                FoundKind::Crash,
                Some("cervo::sets::type_rules::join_type:77"),
                Theory::Sets,
                Some(spec_by_id("cv-07")),
            ),
            finding(
                SolverId::Cervo,
                FoundKind::Crash,
                Some("cervo::sets::type_rules::join_type:77"),
                Theory::Sets,
                Some(spec_by_id("cv-07")),
            ),
        ];
        assert_eq!(extended_theory_count(&dedup(&findings)), 1);
    }
}
