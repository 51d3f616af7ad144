//! Correctness checks on every answer the program returns, against
//! exact distances and brute-force ground truth.

use algas_vector::{Metric, VectorStore};

/// One failed check. Any violation makes the run exit non-zero.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// The answer has the wrong number of ids or distances.
    WrongLength { query: usize, ids: usize, distances: usize },
    /// A returned id is not a row of the corpus.
    IdOutOfRange { query: usize, id: u32 },
    /// An id appears twice in one answer.
    DuplicateId { query: usize, id: u32 },
    /// A returned distance differs from a fresh exact distance.
    DistanceMismatch { query: usize, id: u32, returned: f32, exact: f32 },
    /// Recall over the run fell below the pinned floor.
    RecallBelowFloor { recall: f64, floor: f64 },
    /// The load driver's counts do not add up.
    CountMismatch { sent: u64, ok: u64, rejected: u64, failed: u64 },
}

/// Relative tolerance between a returned and a recomputed distance
/// (different summation order in the SIMD kernels).
const REL_TOL: f32 = 1e-3;
/// Absolute tolerance for distances near zero.
const ABS_TOL: f32 = 1e-4;

/// Checks answers against the corpus and the ground truth.
pub struct Checker<'a> {
    base: &'a VectorStore,
    queries: &'a VectorStore,
    truth: &'a [Vec<u32>],
    metric: Metric,
    k: usize,
    hits: u64,
    answers: u64,
    violations: Vec<Violation>,
}

impl<'a> Checker<'a> {
    /// A checker for top-`k` answers over `base`.
    pub fn new(
        base: &'a VectorStore,
        queries: &'a VectorStore,
        truth: &'a [Vec<u32>],
        metric: Metric,
        k: usize,
    ) -> Self {
        Self { base, queries, truth, metric, k, hits: 0, answers: 0, violations: Vec::new() }
    }

    /// An empty checker over the same corpus, queries and truth.
    pub fn fresh(&self) -> Checker<'a> {
        Checker::new(self.base, self.queries, self.truth, self.metric, self.k)
    }

    /// Checks one answer to query `query` and counts its recall.
    pub fn answer(&mut self, query: usize, ids: &[u32], distances: &[f32]) {
        self.answers += 1;
        if ids.len() != self.k || distances.len() != ids.len() {
            self.violations.push(Violation::WrongLength {
                query,
                ids: ids.len(),
                distances: distances.len(),
            });
            return;
        }
        let q = self.queries.get(query);
        for (i, (&id, &d)) in ids.iter().zip(distances).enumerate() {
            if id as usize >= self.base.len() {
                self.violations.push(Violation::IdOutOfRange { query, id });
                continue;
            }
            if ids[..i].contains(&id) {
                self.violations.push(Violation::DuplicateId { query, id });
            }
            let exact = self.metric.distance(q, self.base.get(id as usize));
            if (d - exact).abs() > ABS_TOL + REL_TOL * exact.abs() {
                self.violations.push(Violation::DistanceMismatch { query, id, returned: d, exact });
            }
        }
        let truth = &self.truth[query][..self.k];
        self.hits += ids.iter().filter(|id| truth.contains(id)).count() as u64;
    }

    /// Answers checked so far.
    pub fn answers(&self) -> u64 {
        self.answers
    }

    /// Mean recall@k over the checked answers.
    pub fn recall(&self) -> f64 {
        if self.answers == 0 {
            0.0
        } else {
            self.hits as f64 / (self.answers * self.k as u64) as f64
        }
    }

    /// Every violation found, including recall below `floor`.
    pub fn finish(mut self, floor: f64) -> Vec<Violation> {
        let recall = self.recall();
        if recall < floor {
            self.violations.push(Violation::RecallBelowFloor { recall, floor });
        }
        self.violations
    }
}

/// The load driver's invariant: every sent request ended exactly one
/// way.
pub fn counts(sent: u64, ok: u64, rejected: u64, failed: u64) -> Option<Violation> {
    (sent != ok + rejected + failed).then_some(Violation::CountMismatch {
        sent,
        ok,
        rejected,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four points on a line; queries at 0.1 and 2.9.
    fn fixture() -> (VectorStore, VectorStore, Vec<Vec<u32>>) {
        let base = VectorStore::from_flat(2, vec![0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let queries = VectorStore::from_flat(2, vec![0.1, 0.0, 2.9, 0.0]);
        (base, queries, vec![vec![0, 1], vec![3, 2]])
    }

    fn exact(base: &VectorStore, queries: &VectorStore, q: usize, ids: &[u32]) -> Vec<f32> {
        ids.iter().map(|&i| Metric::L2.distance(queries.get(q), base.get(i as usize))).collect()
    }

    #[test]
    fn correct_answers_pass_at_full_recall() {
        let (base, queries, truth) = fixture();
        let mut c = Checker::new(&base, &queries, &truth, Metric::L2, 2);
        c.answer(0, &[0, 1], &exact(&base, &queries, 0, &[0, 1]));
        c.answer(1, &[3, 2], &exact(&base, &queries, 1, &[3, 2]));
        assert_eq!(c.recall(), 1.0);
        assert!(c.finish(1.0).is_empty());
    }

    #[test]
    fn out_of_range_id_fires() {
        let (base, queries, truth) = fixture();
        let mut c = Checker::new(&base, &queries, &truth, Metric::L2, 2);
        c.answer(0, &[0, 4], &[0.01, 0.0]);
        assert!(c.finish(0.0).contains(&Violation::IdOutOfRange { query: 0, id: 4 }));
    }

    #[test]
    fn duplicate_id_fires() {
        let (base, queries, truth) = fixture();
        let mut c = Checker::new(&base, &queries, &truth, Metric::L2, 2);
        c.answer(0, &[0, 0], &exact(&base, &queries, 0, &[0, 0]));
        assert_eq!(c.finish(0.0), vec![Violation::DuplicateId { query: 0, id: 0 }]);
    }

    #[test]
    fn wrong_distance_fires() {
        let (base, queries, truth) = fixture();
        let mut c = Checker::new(&base, &queries, &truth, Metric::L2, 2);
        let mut d = exact(&base, &queries, 0, &[0, 1]);
        d[1] *= 1.01;
        c.answer(0, &[0, 1], &d);
        let v = c.finish(0.0);
        assert!(matches!(v[..], [Violation::DistanceMismatch { query: 0, id: 1, .. }]));
    }

    #[test]
    fn wrong_length_fires() {
        let (base, queries, truth) = fixture();
        let mut c = Checker::new(&base, &queries, &truth, Metric::L2, 2);
        c.answer(0, &[0], &[0.01]);
        assert_eq!(c.finish(0.0), vec![Violation::WrongLength { query: 0, ids: 1, distances: 1 }]);
    }

    #[test]
    fn recall_below_floor_fires() {
        let (base, queries, truth) = fixture();
        let mut c = Checker::new(&base, &queries, &truth, Metric::L2, 2);
        // Correct distances for the wrong neighbours: recall 0.5.
        c.answer(0, &[0, 2], &exact(&base, &queries, 0, &[0, 2]));
        assert_eq!(c.recall(), 0.5);
        assert_eq!(c.finish(0.9), vec![Violation::RecallBelowFloor { recall: 0.5, floor: 0.9 }]);
    }

    #[test]
    fn count_mismatch_fires() {
        assert_eq!(counts(10, 7, 2, 1), None);
        assert_eq!(
            counts(10, 7, 2, 0),
            Some(Violation::CountMismatch { sent: 10, ok: 7, rejected: 2, failed: 0 })
        );
    }
}
