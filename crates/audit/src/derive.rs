//! Independent structural re-derivation of the paper's tables.
//!
//! Everything here is derived *from scratch* from the constraint AST and
//! the catalog — deliberately without calling `cfq_constraints::classify`,
//! `reduce`, or `induce` — so a bug in those modules shows up as a
//! derivation/classifier mismatch instead of being silently trusted. The
//! rules transcribed:
//!
//! * Figure 1 (plus \[15\]'s 1-var taxonomy): anti-monotonicity and
//!   (quasi-)succinctness per constraint shape, with vacuity folding
//!   against the catalog's column envelopes;
//! * Figures 2–3: which side of each quasi-succinct reduction is tight;
//! * Figure 4: which aggregate weakenings are sound (`avg→min`, `sum→max`
//!   on the bounded side, `avg→max` on the bounding side, `sum` never on
//!   the bounding side), including the non-negative-domain side condition;
//! * §5.2: which constraints justify a `J^k_max` iterative bound and in
//!   which direction.

use cfq_constraints::{Agg, CmpOp, OneVar, OneVarClass, SetRel, TwoVar, TwoVarClass, Var};
use cfq_core::JkTask;
use cfq_types::{AttrId, Catalog};

/// The value envelope `[lo, hi]` of a numeric column; `None` when the
/// catalog is empty. `min`, `max`, and `avg` over any nonempty itemset all
/// land inside the envelope.
fn envelope(catalog: &Catalog, attr: AttrId) -> Option<(f64, f64)> {
    Some((catalog.column_min_num(attr)?, catalog.column_max_num(attr)?))
}

/// Whether a comparison against a constant is decided for *every* nonempty
/// set, given that the aggregate's reachable values span exactly `[lo, hi]`
/// (the extremes are hit by the singletons holding the column min/max).
/// Returns `Some(true)` for trivially true, `Some(false)` for trivially
/// false, `None` when both outcomes are reachable.
fn decided(reach_lo: f64, reach_hi: f64, op: CmpOp, v: f64) -> Option<bool> {
    match op {
        CmpOp::Le => {
            if v >= reach_hi {
                Some(true)
            } else if v < reach_lo {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Lt => {
            if v > reach_hi {
                Some(true)
            } else if v <= reach_lo {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Ge => {
            if v <= reach_lo {
                Some(true)
            } else if v > reach_hi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Gt => {
            if v < reach_lo {
                Some(true)
            } else if v >= reach_hi {
                Some(false)
            } else {
                None
            }
        }
        // Equality can only be *refuted* by the envelope (a target inside
        // it may still be unreachable, but never provably hit everywhere).
        CmpOp::Eq => (v < reach_lo || v > reach_hi).then_some(false),
        CmpOp::Ne => (v < reach_lo || v > reach_hi).then_some(true),
    }
}

/// Re-derives the 1-var classification from the AST shape (\[15\]'s
/// taxonomy, Definitions 1–2). A constraint that is decided for every set
/// — trivially true (no violated sets) or trivially false (no satisfied
/// sets) — is *vacuously* anti-monotone regardless of its operator shape.
pub fn derive_one(c: &OneVar, catalog: &Catalog) -> OneVarClass {
    match c {
        // Domain constraints: violated sets keep violating under growth
        // exactly for ⊆-like shapes (⊆, ∩=∅, ⊉). All are succinct: their
        // solution spaces are powerset-algebra expressions (Lemma 1).
        OneVar::Domain { rel, .. } => OneVarClass {
            anti_monotone: matches!(rel, SetRel::Subset | SetRel::Disjoint | SetRel::NotSuperset),
            succinct: true,
        },
        OneVar::AggCmp { agg, attr, op, value, .. } => {
            let env = envelope(catalog, *attr);
            match agg {
                // min can only fall as the set grows → lower bounds prune.
                Agg::Min => OneVarClass {
                    anti_monotone: matches!(op, CmpOp::Ge | CmpOp::Gt)
                        || env.is_some_and(|(lo, hi)| decided(lo, hi, *op, *value).is_some()),
                    succinct: true,
                },
                // max can only rise as the set grows → upper bounds prune.
                Agg::Max => OneVarClass {
                    anti_monotone: matches!(op, CmpOp::Le | CmpOp::Lt)
                        || env.is_some_and(|(lo, hi)| decided(lo, hi, *op, *value).is_some()),
                    succinct: true,
                },
                // sum is monotone in the set exactly when the domain does
                // not change sign: non-negative → grows (upper bounds
                // prune), non-positive → falls (lower bounds prune).
                Agg::Sum => {
                    let grows = env.is_none_or(|(lo, _)| lo >= 0.0);
                    let falls = env.is_none_or(|(_, hi)| hi <= 0.0);
                    OneVarClass {
                        anti_monotone: (matches!(op, CmpOp::Le | CmpOp::Lt) && grows)
                            || (matches!(op, CmpOp::Ge | CmpOp::Gt) && falls),
                        succinct: false,
                    }
                }
                // avg moves in neither direction predictably.
                Agg::Avg => OneVarClass { anti_monotone: false, succinct: false },
            }
        }
        // count grows with the set → upper bounds prune; only weakly
        // succinct per [15], treated as non-succinct.
        OneVar::CountCmp { op, .. } => OneVarClass {
            anti_monotone: matches!(op, CmpOp::Le | CmpOp::Lt),
            succinct: false,
        },
    }
}

/// Note: for min/max the *constant-folding* in [`derive_one`] intentionally
/// also fires on trivially-false sides that the Min/Max base rule already
/// covers (e.g. `min ≥ v` with `v > M`); the disjunction makes that
/// harmless.
///
/// Re-derives the 2-var classification (Figure 1) from the AST shape.
///
/// Anti-monotone requires growth of either variable to preserve violation:
/// among domain relations only `∩ = ∅`, among aggregate comparisons only
/// `max(S) ≤ min(T)` and its mirror `min(S) ≥ max(T)`. Quasi-succinct
/// requires a reduction to two succinct 1-var conditions computable from
/// L1 alone: every domain relation qualifies; aggregate comparisons
/// qualify iff both sides are min/max (succinct aggregates) and the
/// operator is an inequality (Figures 2–3 have no `=`/`≠` aggregate rows).
pub fn derive_two(c: &TwoVar) -> TwoVarClass {
    match c {
        TwoVar::Domain { rel, .. } => TwoVarClass {
            anti_monotone: *rel == SetRel::Disjoint,
            quasi_succinct: true,
        },
        TwoVar::AggCmp { s_agg, op, t_agg, .. } => TwoVarClass {
            anti_monotone: matches!(
                (s_agg, op, t_agg),
                (Agg::Max, CmpOp::Le | CmpOp::Lt, Agg::Min)
                    | (Agg::Min, CmpOp::Ge | CmpOp::Gt, Agg::Max)
            ),
            quasi_succinct: matches!(s_agg, Agg::Min | Agg::Max)
                && matches!(t_agg, Agg::Min | Agg::Max)
                && matches!(op, CmpOp::Le | CmpOp::Lt | CmpOp::Ge | CmpOp::Gt),
        },
        // No succinct 1-var count reduction is computable from L1 alone.
        TwoVar::CountCmp { .. } => {
            TwoVarClass { anti_monotone: false, quasi_succinct: false }
        }
    }
}

/// Expected `(s_tight, t_tight)` of a quasi-succinct reduction
/// (Figures 2–3). A side is tight when a frequent *singleton* partner
/// witnesses validity; the coverage sides of `⊆`/`=`, the non-empty side
/// of `⊄`, and both sides of `≠` need a multi-element witness `L1` cannot
/// promise, so they are sound-only. Returns `None` for shapes that have no
/// quasi-succinct reduction at all.
pub fn expected_tightness(c: &TwoVar) -> Option<(bool, bool)> {
    match c {
        TwoVar::Domain { rel, .. } => Some(match rel {
            SetRel::Disjoint | SetRel::Intersects | SetRel::NotSuperset => (true, true),
            SetRel::Subset => (false, true),
            SetRel::NotSubset => (false, true),
            SetRel::Superset => (true, false),
            SetRel::Eq | SetRel::Ne => (false, false),
        }),
        // Figure 3 reductions pick the loosest frequent singleton partner
        // on each side — tight in both directions.
        TwoVar::AggCmp { .. } => derive_two(c).quasi_succinct.then_some((true, true)),
        TwoVar::CountCmp { .. } => None,
    }
}

/// Whether `weak` is a Figure-4-sanctioned sound weakening of `original`
/// (`original ⇒ weak` for every pair of sets), re-derived structurally:
///
/// * attributes and variable orientation must be unchanged;
/// * the operator must be the original's, or — for an `=` original — one
///   of its two directional relaxations;
/// * per side, the aggregate must be unchanged, or replaced by one that
///   the original aggregate dominates in the needed direction: on the
///   bounded side `avg→min` (min ≤ avg) and `sum→max` (max ≤ sum, only on
///   a non-negative domain); on the bounding side `avg→max` (avg ≤ max)
///   and nothing for `sum`.
pub fn is_sanctioned_weakening(original: &TwoVar, weak: &TwoVar, catalog: &Catalog) -> bool {
    if original == weak {
        return true;
    }
    let (TwoVar::AggCmp { s_agg, s_attr, op, t_agg, t_attr },
         TwoVar::AggCmp { s_agg: ws, s_attr: was, op: wop, t_agg: wt, t_attr: wat }) =
        (original, weak)
    else {
        return false;
    };
    if s_attr != was || t_attr != wat {
        return false;
    }
    let direction_ok = wop == op
        || (*op == CmpOp::Eq && matches!(wop, CmpOp::Le | CmpOp::Ge));
    if !direction_ok {
        return false;
    }
    let non_negative = |attr: &AttrId| {
        catalog.column_min_num(*attr).map(|m| m >= 0.0).unwrap_or(true)
    };
    // `bounded` side: its aggregate sits on the small side of ≤, so any
    // replacement must be ≤ the original aggregate on every set.
    let bounded_ok = |orig: Agg, new: Agg, attr: &AttrId| {
        orig == new
            || matches!((orig, new), (Agg::Avg, Agg::Min))
            || (matches!((orig, new), (Agg::Sum, Agg::Max)) && non_negative(attr))
    };
    // `bounding` side: any replacement must be ≥ the original on every set.
    let bounding_ok = |orig: Agg, new: Agg| {
        orig == new || matches!((orig, new), (Agg::Avg, Agg::Max))
    };
    match wop {
        CmpOp::Le | CmpOp::Lt => bounded_ok(*s_agg, *ws, s_attr) && bounding_ok(*t_agg, *wt),
        CmpOp::Ge | CmpOp::Gt => bounding_ok(*s_agg, *ws) && bounded_ok(*t_agg, *wt, t_attr),
        _ => false,
    }
}

/// Whether a `J^k_max` task attachment is justified by the constraint's
/// shape (§5.2): the bound series must come from a `sum` (over a
/// non-negative domain) or a `count` on the *partner* side, the original
/// comparison must bound the pruned side from above (directly, mirrored,
/// or as half of an equality), and the task's own comparison must be an
/// upper bound (the series is an upper envelope).
pub fn jk_is_justified(c: &TwoVar, jk: &JkTask, catalog: &Catalog) -> bool {
    if !matches!(jk.op, CmpOp::Le | CmpOp::Lt) {
        return false;
    }
    let non_negative = |attr: &AttrId| {
        catalog.column_min_num(*attr).map(|m| m >= 0.0).unwrap_or(true)
    };
    match c {
        // The pruned side's own aggregate places no obligation on the task
        // (any aggregate can be bounded by the partner's series); the
        // partner side must be the sum source bounding the pruned side
        // from above. An unfolded `=` must use the non-strict bound.
        TwoVar::AggCmp { s_agg, s_attr, op, t_agg, t_attr } => match jk.pruned {
            Var::S => {
                matches!(op, CmpOp::Le | CmpOp::Lt | CmpOp::Eq)
                    && *t_agg == Agg::Sum
                    && non_negative(t_attr)
                    && (*op != CmpOp::Eq || jk.op == CmpOp::Le)
            }
            Var::T => {
                matches!(op, CmpOp::Ge | CmpOp::Gt | CmpOp::Eq)
                    && *s_agg == Agg::Sum
                    && non_negative(s_attr)
                    && (*op != CmpOp::Eq || jk.op == CmpOp::Le)
            }
        },
        // count series: non-negative by construction, no domain gate.
        TwoVar::CountCmp { op, .. } => match jk.pruned {
            Var::S => {
                matches!(op, CmpOp::Le | CmpOp::Lt | CmpOp::Eq)
                    && (*op != CmpOp::Eq || jk.op == CmpOp::Le)
            }
            Var::T => {
                matches!(op, CmpOp::Ge | CmpOp::Gt | CmpOp::Eq)
                    && (*op != CmpOp::Eq || jk.op == CmpOp::Le)
            }
        },
        TwoVar::Domain { .. } => false,
    }
}
