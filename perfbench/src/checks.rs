//! Correctness checks on a judged report, run outside the timed region.
//!
//! Each answer of the report (every protocol record, then every
//! multiplexed-query record) carries one failure flag; a check that
//! fails marks the answers it covers.

use crate::lower::{Cell, Prepared};
use crate::replay::CellRecords;
use pov_core::mux::solo_twin;
use pov_scenario::{Report, Scenario, WorkloadRecord};

/// Failure flags over a report's answers, with a note per failed check.
pub struct Flags {
    /// One flag per answer, protocol records first, then workload
    /// records, each in report order.
    pub failed: Vec<bool>,
    /// One line per check that failed.
    pub notes: Vec<String>,
}

impl Flags {
    /// All-clear flags for `report`.
    pub fn new(report: &Report) -> Flags {
        Flags {
            failed: vec![false; answer_count(report)],
            notes: Vec::new(),
        }
    }

    /// Answers flagged so far.
    pub fn count(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }

    fn fail(&mut self, answer: usize, note: impl FnOnce() -> String) {
        if self.notes.len() < 20 {
            self.notes.push(note());
        }
        self.failed[answer] = true;
    }
}

/// Answers in a report: one per protocol record, one per workload query.
pub fn answer_count(report: &Report) -> usize {
    report
        .protocols
        .iter()
        .map(|s| s.records.len())
        .sum::<usize>()
        + workload_records(report).len()
}

fn workload_records(report: &Report) -> &[WorkloadRecord] {
    report
        .workload
        .as_ref()
        .map_or(&[], |w| w.records.as_slice())
}

/// `hc ≤ hu` for every answer, and every declaration at or before its
/// deadline: `2·D̂·δ` ticks into a protocol window, `arrival + 2·D̂` for
/// a multiplexed query.
pub fn invariants(scn: &Scenario, report: &Report, flags: &mut Flags) {
    let deadline = 2 * u64::from(report.d_hat) * scn.delay.bound();
    let mut i = 0;
    for section in &report.protocols {
        for r in &section.records {
            if r.hc > r.hu {
                flags.fail(i, || {
                    format!("{}: hc {} > hu {}", section.protocol, r.hc, r.hu)
                });
            }
            if r.time_cost.is_some_and(|t| t > deadline) {
                flags.fail(i, || {
                    format!(
                        "{}: declared at {:?} past {deadline}",
                        section.protocol, r.time_cost
                    )
                });
            }
            i += 1;
        }
    }
    for r in workload_records(report) {
        if r.hc > r.hu {
            flags.fail(i, || {
                format!("query {}: hc {} > hu {}", r.query, r.hc, r.hu)
            });
        }
        let due = r.arrival + 2 * u64::from(report.d_hat);
        if r.declared_at.is_some_and(|t| t > due) {
            flags.fail(i, || {
                format!(
                    "query {}: declared at {:?} past {due}",
                    r.query, r.declared_at
                )
            });
        }
        i += 1;
    }
}

/// A layer-by-layer replay of `cell` must reproduce the report's records
/// for that cell exactly: values, verdicts, host sets, messages and
/// declaration times.
pub fn replay_matches(report: &Report, cell: &Cell, replayed: &CellRecords, flags: &mut Flags) {
    let key = (cell.seed, cell.rep);
    let mut offset = 0;
    for (section, mine) in report.protocols.iter().zip(&replayed.protocols) {
        let theirs: Vec<usize> = (0..section.records.len())
            .filter(|&k| (section.records[k].seed, section.records[k].rep) == key)
            .collect();
        for (n, &k) in theirs.iter().enumerate() {
            if mine.get(n) != Some(&section.records[k]) {
                flags.fail(offset + k, || {
                    format!(
                        "{} cell {key:?} window {}: replay {:?} != report {:?}",
                        section.protocol,
                        section.records[k].window,
                        mine.get(n),
                        section.records[k]
                    )
                });
            }
        }
        offset += section.records.len();
    }
    let records = workload_records(report);
    let theirs: Vec<usize> = (0..records.len())
        .filter(|&k| (records[k].seed, records[k].rep) == key)
        .collect();
    for (n, &k) in theirs.iter().enumerate() {
        if replayed.workload.get(n) != Some(&records[k]) {
            flags.fail(offset + k, || {
                format!(
                    "query {} of cell {key:?}: replay differs from report",
                    records[k].query
                )
            });
        }
    }
}

/// Up to `sample` non-joined queries of `cell`, spread evenly over its
/// workload, must equal their solo twins: the same query run alone over
/// the same environment.
pub fn solo_twins(report: &Report, cell: &Cell, prep: &Prepared, sample: usize, flags: &mut Flags) {
    let Some((queries, plan)) = &cell.mux else {
        return;
    };
    let offset: usize = report.protocols.iter().map(|s| s.records.len()).sum();
    let records = workload_records(report);
    let mine: Vec<usize> = (0..records.len())
        .filter(|&k| (records[k].seed, records[k].rep) == (cell.seed, cell.rep))
        .filter(|&k| !records[k].joined)
        .collect();
    let step = mine.len().div_ceil(sample.max(1)).max(1);
    for &k in mine.iter().step_by(step) {
        let r = &records[k];
        let Some(q) = queries.iter().find(|q| q.id.0 == r.query) else {
            flags.fail(offset + k, || {
                format!("query {} missing from the workload", r.query)
            });
            continue;
        };
        let twin = solo_twin(&prep.graph, &prep.values, q, plan);
        let got = (
            twin.value,
            twin.declared_at.map(|t| t.ticks()),
            twin.is_valid(),
            twin.hc_size,
            twin.hu_size,
        );
        let want = (r.value, r.declared_at, r.valid, r.hc, r.hu);
        if got != want {
            flags.fail(offset + k, || {
                format!(
                    "query {}: solo twin {got:?} != multiplexed {want:?}",
                    r.query
                )
            });
        }
    }
}
