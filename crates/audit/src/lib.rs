//! `cfq-audit`: static soundness auditor for constraint classifications and
//! optimizer plans.
//!
//! The optimizer (`cfq-core`) rewrites a constrained frequent set query
//! into pruning conditions using the paper's tables: Figure 1 classifies
//! each constraint, Figures 2–3 reduce quasi-succinct 2-var constraints to
//! 1-var conditions over `L1`, Figure 4 induces weaker quasi-succinct
//! constraints from `sum`/`avg` shapes, and §5.2 attaches `J^k_max`
//! iterative bounds. Each rewrite carries a proof obligation; a bug in any
//! table silently corrupts the answer set.
//!
//! This crate discharges those obligations *statically* — from the
//! constraint ASTs, the catalog, and the optimizer's [`PlanTrace`], never
//! touching transaction data. [`crate::derive`] re-derives every table
//! from scratch (deliberately not calling `classify`/`reduce`/`induce`),
//! and the walker in `check` compares the production plan against the
//! derivation, emitting [`Diagnostic`]s with source spans. An
//! [`AuditReport`] with any error-severity finding marks the plan unsound;
//! the `cfq audit` CLI command and the `--audit` execution gate refuse to
//! run such a plan.

#![deny(missing_docs)]

pub mod derive;

mod check;
mod diag;

pub use diag::{json_escape, AuditReport, Diagnostic, Severity};

use cfq_constraints::{
    bind_constraint, classify_two, parse_dnf_spanned, parse_query_spanned, Bound, BoundQuery,
    Span, TwoVar, TwoVarClass,
};
use cfq_core::PlanTrace;
use cfq_types::{Catalog, Result};

/// Byte spans of each bound constraint in the query source, parallel to
/// [`BoundQuery::one_var`] and [`BoundQuery::two_var`].
#[derive(Clone, Debug, Default)]
pub struct SpanMap {
    /// Span of each 1-var conjunct, in `one_var` order.
    pub one: Vec<Span>,
    /// Span of each 2-var conjunct, in `two_var` order.
    pub two: Vec<Span>,
}

/// The plan soundness auditor.
///
/// Holds the catalog the plans were built against and the 2-var classifier
/// under audit (the production [`classify_two`] by default; tests inject
/// deliberately broken classifiers to prove the cross-check fires). There
/// is one plan per query whatever strategy executes it (`cfq_core::plan`
/// takes no flags), so there is no strategy to choose here.
pub struct Auditor<'a> {
    catalog: &'a Catalog,
    classify: Box<dyn Fn(&TwoVar) -> TwoVarClass + 'a>,
}

impl<'a> Auditor<'a> {
    /// An auditor for plans built against `catalog`, with the production
    /// classifier.
    pub fn new(catalog: &'a Catalog) -> Self {
        Auditor { catalog, classify: Box::new(classify_two) }
    }

    /// Replaces the 2-var classifier that is cross-checked against the
    /// structural derivation. Used by tests to inject misclassifications.
    pub fn with_two_var_classifier(
        mut self,
        classify: impl Fn(&TwoVar) -> TwoVarClass + 'a,
    ) -> Self {
        self.classify = Box::new(classify);
        self
    }

    /// Audits an existing plan trace against the query it was planned
    /// from. `spans` (when the query came from source text) lets the
    /// diagnostics point at the offending constraint.
    pub fn audit_trace(
        &self,
        trace: &PlanTrace,
        query: &BoundQuery,
        spans: Option<&SpanMap>,
    ) -> AuditReport {
        let mut report = AuditReport::default();
        check::check_trace(trace, query, self.catalog, &*self.classify, spans, &mut report);
        report
    }

    /// Plans `query` and audits the result.
    pub fn audit_query(&self, query: &BoundQuery, spans: Option<&SpanMap>) -> AuditReport {
        let plan = cfq_core::plan(query, self.catalog);
        self.audit_trace(plan.trace(), query, spans)
    }

    /// Parses, binds, plans, and audits a conjunctive query from source
    /// text; diagnostics carry byte spans into `src`.
    pub fn audit_source(&self, src: &str) -> Result<AuditReport> {
        let (ast, spans) = parse_query_spanned(src)?;
        let (query, map) = bind_spanned(&ast, &spans, self.catalog)?;
        Ok(self.audit_query(&query, Some(&map)))
    }

    /// Parses a DNF query and audits each disjunct's plan separately.
    pub fn audit_dnf(&self, src: &str) -> Result<Vec<AuditReport>> {
        let (dnf, spans) = parse_dnf_spanned(src)?;
        dnf.disjuncts
            .iter()
            .zip(&spans)
            .map(|(q, sp)| {
                let (query, map) = bind_spanned(q, sp, self.catalog)?;
                Ok(self.audit_query(&query, Some(&map)))
            })
            .collect()
    }
}

/// Binds a parsed conjunction constraint-by-constraint, keeping each bound
/// constraint's source span aligned with its slot in the [`BoundQuery`]
/// (mirrors `bind_query`'s push order).
fn bind_spanned(
    ast: &cfq_constraints::Query,
    spans: &[Span],
    catalog: &Catalog,
) -> Result<(BoundQuery, SpanMap)> {
    let mut query = BoundQuery::default();
    let mut map = SpanMap::default();
    for (c, span) in ast.constraints.iter().zip(spans) {
        match bind_constraint(c, catalog)? {
            Some(Bound::One(c)) => {
                query.one_var.push(c);
                map.one.push(*span);
            }
            Some(Bound::Two(c)) => {
                query.two_var.push(c);
                map.two.push(*span);
            }
            None => {} // freq(S)/freq(T): implicit
        }
    }
    Ok((query, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_core::Optimizer;
    use cfq_types::CatalogBuilder;

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new(6);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        b.cat_attr("Type", &["A", "B", "A", "C", "B", "C"]).unwrap();
        b.build()
    }

    fn audit_clean(src: &str) {
        let cat = catalog();
        let report = Auditor::new(&cat).audit_source(src).unwrap();
        assert!(
            report.is_sound(),
            "`{src}` should audit clean, got:\n{}",
            report.render()
        );
        assert_eq!(report.errors().count(), 0, "{src}");
    }

    #[test]
    fn shipped_query_shapes_audit_clean() {
        // Quasi-succinct aggregate + domain shapes (Figs. 2–3).
        audit_clean("max(S.Price) <= min(T.Price)");
        audit_clean("max(S.Price) <= 400 & min(T.Price) >= 600 & S.Type = T.Type");
        audit_clean("S.Type disjoint T.Type & count(S) < 4");
        audit_clean("S.Type subseteq T.Type & min(S.Price) >= 15");
        // Induced-weaker shapes (Fig. 4) + J^k_max (§5.2).
        audit_clean("avg(S.Price) <= avg(T.Price)");
        audit_clean("sum(S.Price) <= sum(T.Price)");
        audit_clean("sum(S.Price) = sum(T.Price) & freq(S) & freq(T)");
        audit_clean("count(S) < count(T)");
        // Final-verify-only shapes.
        audit_clean("S.Type != T.Type");
    }

    /// The strategy families share one plan (the flags only switch its
    /// steps off at execution), so one audit covers all three.
    #[test]
    fn audit_all_strategy_families() {
        let cat = catalog();
        let src = "avg(S.Price) <= avg(T.Price) & count(S) < 4";
        let report = Auditor::new(&cat).audit_source(src).unwrap();
        assert!(report.is_sound(), "{}", report.render());
        let (ast, spans) = parse_query_spanned(src).unwrap();
        let (query, _) = bind_spanned(&ast, &spans, &cat).unwrap();
        let audited = cfq_core::plan(&query, &cat);
        for opt in [Optimizer::default(), Optimizer::apriori_plus(), Optimizer::cap_one_var()] {
            assert_eq!(opt.build_plan(&query, &cat).trace(), audited.trace(), "{opt:?}");
        }
    }

    #[test]
    fn injected_misclassification_is_detected() {
        let cat = catalog();
        let src = "count(S) < 4 & sum(S.Price) <= sum(T.Price)";
        // A "buggy" classifier that calls the sum comparison quasi-succinct.
        let auditor = Auditor::new(&cat).with_two_var_classifier(|c| {
            let mut cls = classify_two(c);
            if matches!(c, TwoVar::AggCmp { .. }) {
                cls.quasi_succinct = true;
            }
            cls
        });
        let report = auditor.audit_source(src).unwrap();
        assert!(!report.is_sound());
        let diag = report.errors().find(|d| d.code == "misclassified").expect("misclassified");
        // The span points at the offending constraint in the source.
        let span = diag.span.expect("span");
        assert_eq!(span.slice(src), Some("sum(S.Price) <= sum(T.Price)"));
    }

    #[test]
    fn doctored_trace_missing_recheck_is_rejected() {
        let cat = catalog();
        let src = "avg(S.Price) <= avg(T.Price)";
        let (ast, spans) = parse_query_spanned(src).unwrap();
        let (query, map) = bind_spanned(&ast, &spans, &cat).unwrap();
        let plan = Optimizer::default().build_plan(&query, &cat);
        let mut trace = plan.trace().clone();
        assert!(
            trace.nodes[0].pushed.iter().any(|w| *w != trace.nodes[0].constraint),
            "avg comparison should get induced weakenings"
        );

        // Drop the final re-evaluation of the original: the plan now relies
        // on the sound-only weakening alone.
        trace.final_two.clear();
        trace.nodes[0].reverified = false;
        let report = Auditor::new(&cat).audit_trace(&trace, &query, Some(&map));
        assert!(!report.is_sound());
        assert!(
            report.errors().any(|d| d.code == "induced-weaker-missing-recheck"),
            "got:\n{}",
            report.render()
        );
        // Lying in the node flag alone doesn't help: final_two is the
        // ground truth.
        let mut trace2 = plan.trace().clone();
        trace2.final_two.clear();
        let report2 = Auditor::new(&cat).audit_trace(&trace2, &query, None);
        assert!(report2.errors().any(|d| d.code == "induced-weaker-missing-recheck"));
    }

    #[test]
    fn foreign_and_dropped_constraints_are_rejected() {
        let cat = catalog();
        let (ast, spans) = parse_query_spanned("min(S.Price) >= 15 & S.Type = T.Type").unwrap();
        let (query, map) = bind_spanned(&ast, &spans, &cat).unwrap();
        let plan = Optimizer::default().build_plan(&query, &cat);

        // Plan audits clean as produced.
        let auditor = Auditor::new(&cat);
        assert!(auditor.audit_trace(plan.trace(), &query, Some(&map)).is_sound());

        // Doctor 1: drop the pushed 1-var condition.
        let mut t = plan.trace().clone();
        t.s_one.clear();
        let r = auditor.audit_trace(&t, &query, Some(&map));
        assert!(r.errors().any(|d| d.code == "one-var-dropped"), "{}", r.render());

        // Doctor 2: final verification checks a constraint not in the query.
        let mut t = plan.trace().clone();
        let (q2, _) = bind_spanned(
            &parse_query_spanned("S.Type != T.Type").unwrap().0,
            &parse_query_spanned("S.Type != T.Type").unwrap().1,
            &cat,
        )
        .unwrap();
        t.final_two.push(q2.two_var[0].clone());
        let r = auditor.audit_trace(&t, &query, Some(&map));
        assert!(r.errors().any(|d| d.code == "final-check-not-in-query"), "{}", r.render());

        // Doctor 3: a rewrite node for a foreign constraint.
        let mut t = plan.trace().clone();
        t.nodes[0].constraint = q2.two_var[0].clone();
        let r = auditor.audit_trace(&t, &query, None);
        assert!(r.errors().any(|d| d.code == "foreign-constraint"), "{}", r.render());
        assert!(r.errors().any(|d| d.code == "unplanned-constraint"), "{}", r.render());
    }

    #[test]
    fn unsanctioned_weakening_is_rejected() {
        let cat = catalog();
        let (ast, spans) = parse_query_spanned("sum(S.Price) >= sum(T.Price)").unwrap();
        let (query, map) = bind_spanned(&ast, &spans, &cat).unwrap();
        let plan = Optimizer::default().build_plan(&query, &cat);
        assert!(Auditor::new(&cat).audit_trace(plan.trace(), &query, Some(&map)).is_sound());

        // Doctor the induced set: push `max(S) >= min(T)` — NOT implied by
        // `sum(S) >= sum(T)` (sum on the bounding side weakens to nothing).
        let (wq, _) = bind_spanned(
            &parse_query_spanned("max(S.Price) >= min(T.Price)").unwrap().0,
            &parse_query_spanned("max(S.Price) >= min(T.Price)").unwrap().1,
            &cat,
        )
        .unwrap();
        let mut t = plan.trace().clone();
        t.nodes[0].pushed.push(wq.two_var[0].clone());
        let r = Auditor::new(&cat).audit_trace(&t, &query, Some(&map));
        assert!(r.errors().any(|d| d.code == "unsanctioned-weakening"), "{}", r.render());
    }

    #[test]
    fn dnf_audits_each_disjunct() {
        let cat = catalog();
        let reports = Auditor::new(&cat)
            .audit_dnf("max(S.Price) <= min(T.Price) | avg(S.Price) <= avg(T.Price)")
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(AuditReport::is_sound));
    }

    #[test]
    fn json_report_is_well_formed() {
        let cat = catalog();
        let report = Auditor::new(&cat)
            .with_two_var_classifier(|c| {
                let mut cls = classify_two(c);
                cls.anti_monotone = !cls.anti_monotone;
                cls
            })
            .audit_source("S.Type = T.Type")
            .unwrap();
        assert!(!report.is_sound());
        let json = report.to_json();
        assert!(json.contains("\"sound\": false"));
        assert!(json.contains("\"code\": \"misclassified\""));
        assert!(json.contains("\"span\": [0, 15]"), "{json}");
    }
}
