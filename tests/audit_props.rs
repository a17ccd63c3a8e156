//! Property tests for the static plan auditor (`cfq-audit`):
//!
//! 1. every plan the optimizer builds for a random CFQ conjunction audits
//!    clean — the production classifier and rewrite tables always agree
//!    with the auditor's independent re-derivation;
//! 2. the audit verdict means something: on every audit-clean plan, the
//!    full optimizer returns exactly the Apriori⁺ answer (the paper's
//!    semantics oracle — no pushing, everything checked at pair
//!    formation).

use cfq::prelude::*;
use proptest::prelude::*;

/// Constraint templates instantiated with random parameters, spanning all
/// strategy families (quasi-succinct, induced-weaker, J^k_max,
/// final-verify-only).
fn constraint_pool(p1: u32, p2: u32) -> Vec<String> {
    vec![
        format!("max(S.Price) <= {p1}"),
        format!("min(T.Price) >= {p2}"),
        format!("sum(S.Price) <= {}", p1 + p2),
        format!("min(S.Price) = {p2}"),
        "count(T) <= 3".to_string(),
        "S.Type = {a}".to_string(),
        "T.Type disjoint {b}".to_string(),
        "max(S.Price) <= min(T.Price)".to_string(),
        "min(S.Price) >= max(T.Price)".to_string(),
        "S.Type disjoint T.Type".to_string(),
        "S.Type = T.Type".to_string(),
        "S.Type subset T.Type".to_string(),
        "S.Type != T.Type".to_string(),
        "sum(S.Price) <= sum(T.Price)".to_string(),
        "sum(S.Price) >= sum(T.Price)".to_string(),
        "sum(S.Price) = sum(T.Price)".to_string(),
        "avg(S.Price) <= avg(T.Price)".to_string(),
        "avg(S.Price) >= min(T.Price)".to_string(),
        "count(S) < count(T)".to_string(),
        "count(S.Type) >= count(T.Type)".to_string(),
    ]
}

fn sorted_sets(v: &[(Itemset, u64)]) -> Vec<Itemset> {
    let mut out: Vec<Itemset> = v.iter().map(|(s, _)| s.clone()).collect();
    out.sort_by(|a, b| (a.len(), a).cmp(&(b.len(), b)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_plans_audit_clean_and_audited_answers_match_naive(
        n_items in 3usize..7,
        txs in prop::collection::vec(
            prop::collection::vec(0u32..7, 1..5),
            4..14,
        ),
        prices in prop::collection::vec(1u32..50, 7),
        types in prop::collection::vec(0u32..3, 7),
        picks in prop::collection::vec(0usize..20, 1..4),
        p1 in 5u32..40,
        p2 in 1u32..25,
        min_support in 1u64..4,
    ) {
        let txs: Vec<Vec<ItemId>> = txs
            .into_iter()
            .map(|t| t.into_iter().map(|i| ItemId(i % n_items as u32)).collect())
            .collect();
        let db = TransactionDb::new(n_items, txs).unwrap();
        let mut b = CatalogBuilder::new(n_items);
        b.num_attr("Price", prices[..n_items].iter().map(|&p| p as f64).collect()).unwrap();
        let labels: Vec<String> =
            types[..n_items].iter().map(|&t| ((b'a' + t as u8) as char).to_string()).collect();
        b.cat_attr("Type", &labels).unwrap();
        let catalog = b.build();

        let pool = constraint_pool(p1, p2);
        let srcs: Vec<&str> = picks.iter().map(|&i| pool[i].as_str()).collect();
        let text = srcs.join(" & ");

        // Property 1: the plan audits clean — and it is every strategy
        // family's plan, so the one audit covers them all.
        let auditor = Auditor::new(&catalog);
        let report = auditor.audit_source(&text).unwrap();
        prop_assert!(
            report.is_sound(),
            "`{}` should audit clean, got:\n{}", &text, report.render()
        );
        let q = bind_query(&parse_query(&text).unwrap(), &catalog).unwrap();
        let audited = Optimizer::default().build_plan(&q, &catalog);
        for opt in [Optimizer::apriori_plus(), Optimizer::cap_one_var()] {
            let plan = opt.build_plan(&q, &catalog);
            prop_assert_eq!(plan.trace(), audited.trace(), "`{}` under {:?}", &text, opt);
        }

        // Property 2: the audit-clean optimized plan returns exactly the
        // naive Apriori⁺ answer.
        let env = QueryEnv::new(&db, &catalog, min_support);
        let naive = Optimizer::apriori_plus().evaluate(&q, &env).unwrap();
        let optimized = Optimizer::default().evaluate(&q, &env).unwrap();
        prop_assert_eq!(
            optimized.pair_result.count, naive.pair_result.count,
            "pair count diverged for `{}`", &text
        );
        prop_assert_eq!(
            sorted_sets(&optimized.s_sets), sorted_sets(&naive.s_sets),
            "S-sets diverged for `{}`", &text
        );
        prop_assert_eq!(
            sorted_sets(&optimized.t_sets), sorted_sets(&naive.t_sets),
            "T-sets diverged for `{}`", &text
        );
    }
}

/// The audit is not vacuous: a classifier bug is caught. (The CLI relies
/// on this to refuse unsound plans; see `cfq-audit`'s unit tests for the
/// doctored-trace rejections.)
#[test]
fn audit_rejects_injected_classifier_bug() {
    let mut b = CatalogBuilder::new(4);
    b.num_attr("Price", vec![5.0, 10.0, 15.0, 20.0]).unwrap();
    let catalog = b.build();
    let report = Auditor::new(&catalog)
        .with_two_var_classifier(|c| {
            let mut cls = classify_two(c);
            cls.quasi_succinct = !cls.quasi_succinct;
            cls
        })
        .audit_source("max(S.Price) <= min(T.Price)")
        .unwrap();
    assert!(!report.is_sound());
    assert!(report.errors().any(|d| d.code == "misclassified"));
}
