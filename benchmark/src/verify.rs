//! The `verify` phase: the oracle on every kept reply, and cheap
//! invariants on all the rest. Runs after the measured phase and is not
//! part of `setup_s`.

use crate::inputs::{Data, Workload, SUPPORT};
use crate::oracle::Oracle;
use crate::workloads::Pass;
use std::collections::HashMap;
use std::time::Instant;

/// The verdict on one pass.
#[derive(Default)]
pub struct Verdict {
    /// Operations attempted: queries, appends, and the restart palette.
    pub attempted: u64,
    /// Operations that returned an error, lost the connection, timed out,
    /// or gave an answer the oracle or an invariant rejects.
    pub failed: u64,
    /// The first few reasons, for the log.
    pub reasons: Vec<String>,
    /// Seconds the whole phase took (the oracle's mining included).
    pub verify_s: f64,
    /// Replies checked against the oracle.
    pub oracle_checked: u64,
}

impl Verdict {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 10 {
            self.reasons.push(reason);
        }
    }
}

/// Verifies `pass`. For `append_churn` the oracle's database is the base
/// plus every acknowledged delta, and only the replies of the restarted
/// server (the final epoch) go to it.
pub fn verify(workload: Workload, data: &Data, pass: &Pass) -> Verdict {
    let t0 = Instant::now();
    let mut v = Verdict {
        attempted: (pass.samples.len()
            + pass.restart_samples.len()
            + pass.append_ms.len()
            + pass.append_failures.len()) as u64,
        ..Verdict::default()
    };
    for reason in &pass.append_failures {
        v.fail(reason.clone());
    }

    // Cheap invariants, on every reply.
    let mut answers: HashMap<(usize, u64), u64> = HashMap::new();
    let mut last_epoch: HashMap<usize, u64> = HashMap::new();
    for s in pass.samples.iter().chain(&pass.restart_samples) {
        let key = &pass.requests[s.req].key;
        let meta = match &s.meta {
            Ok(meta) => meta,
            Err(e) => {
                v.fail(format!("{key}: {e}"));
                continue;
            }
        };
        if *answers
            .entry((s.req, meta.epoch))
            .or_insert(meta.answer_hash)
            != meta.answer_hash
        {
            v.fail(format!(
                "{key}: two different answers within epoch {}",
                meta.epoch
            ));
        }
        if (meta.db_scans == 0) != meta.both_hit {
            v.fail(format!(
                "{key}: db_scans {} but lattices {}",
                meta.db_scans,
                if meta.both_hit {
                    "both hit"
                } else {
                    "not both hit"
                }
            ));
        }
        let last = last_epoch.entry(s.client).or_insert(meta.epoch);
        if meta.epoch < *last {
            v.fail(format!(
                "{key}: epoch went back from {last} to {}",
                meta.epoch
            ));
        }
        *last = meta.epoch;
        if workload == Workload::WarmRefine && meta.db_scans != 0 {
            v.fail(format!(
                "{key}: a refinement scanned the database {} times",
                meta.db_scans
            ));
        }
    }

    // The oracle.
    let acked = pass.append_ms.len();
    let mut final_db = None;
    if workload == Workload::AppendChurn {
        if pass.restart_epoch != acked as u64 {
            v.fail(format!(
                "restart recovered epoch {} but {acked} appends were acknowledged",
                pass.restart_epoch
            ));
        }
        let mut db = data.db.clone();
        for delta in &data.deltas[..acked] {
            db = db
                .concat(delta)
                .expect("deltas share the base's item universe");
        }
        final_db = Some(db);
    }
    let db = final_db.as_ref().unwrap_or(&data.db);
    let oracle = Oracle::new(db, &data.catalog, SUPPORT);
    for (req, reply) in &pass.kept {
        let r = &pass.requests[*req];
        match oracle.check(&r.req, reply) {
            Ok(()) => v.oracle_checked += 1,
            Err(e) => v.fail(format!("{}: {e}", r.key)),
        }
    }
    if workload == Workload::AppendChurn && pass.restart_samples.len() != pass.requests.len() {
        v.fail("the palette was not re-asked after the restart".into());
    }
    v.verify_s = t0.elapsed().as_secs_f64();
    v
}
