//! Post-execution reporting — the system's "EXPLAIN ANALYZE".
//!
//! [`ExecutionOutcome::report`] renders what actually happened: per-level
//! candidate/frequent counts for both lattices, pruning and constraint-check
//! counters, the `V^k` bound trajectories, and the pair-formation summary.
//! The §7.1 per-level table of the paper is exactly the `frequent` column
//! of this report compared across two runs.

use crate::optimizer::ExecutionOutcome;
use cfq_constraints::Var;
use cfq_mining::WorkStats;
use cfq_types::Itemset;
use std::fmt::Write as _;
use std::time::Duration;

impl ExecutionOutcome {
    /// Iterates the materialized pairs as `(S, T, S-support, T-support)`.
    pub fn pairs(&self) -> impl Iterator<Item = (&Itemset, &Itemset, u64, u64)> {
        self.pair_result.pairs.iter().map(|&(si, ti)| {
            let (s, s_sup) = &self.s_sets[si as usize];
            let (t, t_sup) = &self.t_sets[ti as usize];
            (s, t, *s_sup, *t_sup)
        })
    }

    /// Writes the materialized pairs as CSV
    /// (`antecedent,consequent,antecedent_support,consequent_support`;
    /// itemsets as `;`-separated item ids).
    pub fn write_pairs_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "antecedent,consequent,antecedent_support,consequent_support")?;
        let ids = |s: &Itemset| {
            s.iter().map(|i| i.0.to_string()).collect::<Vec<_>>().join(";")
        };
        for (s, t, s_sup, t_sup) in self.pairs() {
            writeln!(w, "{},{},{s_sup},{t_sup}", ids(s), ids(t))?;
        }
        Ok(())
    }

    /// The two summary lines `cfq query` prints for a run at `min_support`:
    /// answer size, sets counted and database scans, then scan volume and
    /// trim drops. `wall` is the run's wall time; `None` leaves that field
    /// out, which is the form the ledger golden compares.
    pub fn summary(&self, min_support: u64, wall: Option<Duration>) -> String {
        let wall = wall.map(|w| format!(" | {:.3}s", w.as_secs_f64())).unwrap_or_default();
        format!(
            "{} valid pairs ({} S-sets x {} T-sets) | min_support={min_support}{wall} | {} sets counted | {} db scans\n\
             scan volume: {} rows / {} items ({} KiB); trim dropped {} rows / {} items over {} passes\n",
            self.pair_result.count,
            self.s_sets.len(),
            self.t_sets.len(),
            self.s_stats.support_counted + self.t_stats.support_counted,
            self.db_scans,
            self.scan.rows_scanned,
            self.scan.items_scanned,
            self.scan.bytes_scanned() / 1024,
            self.scan.trim_rows_dropped,
            self.scan.trim_items_dropped,
            self.scan.trim_passes,
        )
    }

    /// Renders a human-readable execution report.
    pub fn report(&self) -> String {
        let mut out = String::from("CFQ execution report\n====================\n");
        let _ = writeln!(out, "database scans: {}", self.db_scans);
        let mut backends = self.s_stats.backends_used.clone();
        for b in &self.t_stats.backends_used {
            if !backends.contains(b) {
                backends.push(b);
            }
        }
        let _ = writeln!(out, "backends: {}", backends.join(", "));
        for (name, stats, sets) in [
            ("S", &self.s_stats, self.s_sets.len()),
            ("T", &self.t_stats, self.t_sets.len()),
        ] {
            let _ = writeln!(out, "\n[{name}-lattice]");
            render_levels(&mut out, stats);
            let _ = writeln!(
                out,
                "  counted {} sets, pruned {} candidates, {} constraint checks",
                stats.support_counted, stats.pruned_candidates, stats.constraint_checks
            );
            let _ = writeln!(out, "  {sets} frequent valid sets in the answer");
        }
        if !self.v_histories.is_empty() {
            let _ = writeln!(out, "\n[iterative bounds]");
            for (var, hist) in &self.v_histories {
                let side = match var {
                    Var::S => "S",
                    Var::T => "T",
                };
                let series: Vec<String> =
                    hist.iter().map(|(k, v)| format!("V^{k}={v:.0}")).collect();
                let _ = writeln!(out, "  pruning {side}: {}", series.join("  "));
            }
        }
        let _ = writeln!(
            out,
            "\n[pairs] {} valid pairs ({} checks{})",
            self.pair_result.count,
            self.pair_result.checks,
            if self.pair_result.truncated { ", materialization truncated" } else { "" }
        );
        out
    }
}

fn render_levels(out: &mut String, stats: &WorkStats) {
    if stats.levels.is_empty() {
        let _ = writeln!(out, "  (no levels counted)");
        return;
    }
    let _ = write!(out, "  level:     ");
    for l in &stats.levels {
        let _ = write!(out, "{:>8}", l.level);
    }
    let _ = write!(out, "\n  candidates:");
    for l in &stats.levels {
        let _ = write!(out, "{:>8}", l.candidates);
    }
    let _ = write!(out, "\n  frequent:  ");
    for l in &stats.levels {
        let _ = write!(out, "{:>8}", l.frequent);
    }
    let _ = write!(out, "\n  micros:    ");
    for l in &stats.levels {
        let _ = write!(out, "{:>8}", l.micros);
    }
    let counted_by: Vec<&str> = stats.levels.iter().map(|l| l.counted_by).collect();
    let _ = writeln!(out, "\n  counted by: {}", counted_by.join(", "));
}

#[cfg(test)]
mod tests {
    use crate::optimizer::{Optimizer, QueryEnv};
    use cfq_constraints::{bind_query, parse_query};
    use cfq_types::{CatalogBuilder, TransactionDb};

    #[test]
    fn report_renders_all_sections() {
        let db = TransactionDb::from_u32(
            4,
            &[&[0, 1, 2], &[0, 1], &[1, 2, 3], &[0, 2, 3], &[0, 1, 2, 3]],
        );
        let mut b = CatalogBuilder::new(4);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        let cat = b.build();
        let q = bind_query(&parse_query("sum(S.Price) <= sum(T.Price)").unwrap(), &cat)
            .unwrap();
        let out = Optimizer::default().evaluate(&q, &QueryEnv::new(&db, &cat, 2)).unwrap();
        let report = out.report();
        assert!(report.contains("[S-lattice]"));
        assert!(report.contains("[T-lattice]"));
        assert!(report.contains("[iterative bounds]"));
        assert!(report.contains("[pairs]"));
        assert!(report.contains("candidates:"));
        assert!(report.contains("micros:"));
        assert!(report.contains("database scans:"));
        // Every optimizer-path level says what counted it.
        assert!(report.contains("backends: horizontal\n"), "{report}");
        assert!(report.contains("counted by: column, triangle, projection"), "{report}");
    }

    #[test]
    fn pairs_iterator_and_csv() {
        let db = TransactionDb::from_u32(3, &[&[0, 1], &[1, 2], &[0, 1, 2]]);
        let cat = cfq_types::Catalog::empty(3);
        let q = bind_query(&parse_query("S disjoint T").unwrap(), &cat).unwrap();
        let out = Optimizer::default().evaluate(&q, &QueryEnv::new(&db, &cat, 1)).unwrap();
        assert_eq!(out.pairs().count() as u64, out.pair_result.count);
        for (s, t, s_sup, t_sup) in out.pairs() {
            assert!(!s.intersects(t));
            assert!(s_sup >= 1 && t_sup >= 1);
        }
        let mut buf = Vec::new();
        out.write_pairs_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("antecedent,consequent"));
        assert_eq!(text.lines().count() as u64, out.pair_result.count + 1);
    }

    #[test]
    fn report_without_bounds_section() {
        let db = TransactionDb::from_u32(3, &[&[0, 1], &[1, 2], &[0, 1, 2]]);
        let cat = cfq_types::Catalog::empty(3);
        let q = bind_query(&parse_query("S disjoint T").unwrap(), &cat).unwrap();
        let out = Optimizer::default().evaluate(&q, &QueryEnv::new(&db, &cat, 1)).unwrap();
        let report = out.report();
        assert!(!report.contains("[iterative bounds]"));
        assert!(report.contains("[pairs]"));
    }
}
