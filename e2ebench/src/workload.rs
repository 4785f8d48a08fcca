//! Workload inputs and op streams, all derived from the `--seed`
//! argument. Nothing here names a workload to the program under test:
//! the server only ever sees the generated rows, the query texts below
//! and the generated requests.

use adp_core::query::parse_query;
use adp_datagen::uniform::{correlated_q7, uniform_db_for_query};
use adp_datagen::zipf::{zipf_pair, ZipfConfig};
use adp_engine::database::Database;
use std::collections::BTreeSet;

/// The paper's NP-hard path query (§8.4).
pub const QPATH: &str = "Qpath(A,B) :- R1(A), R2(A,B), R3(B)";
/// Singleton shape over the same relations (Q6, §8.4).
pub const Q6: &str = "Q6(A,B) :- R1(A), R2(A,B)";
/// Universal-attribute shape on relations of its own: the two atoms of
/// the paper's Q7 (§8.5) that share `A,B,C,D` without either being a
/// singleton atom, so the dispatcher takes the universe branch (the full
/// Q7 has the singleton atom `R1(A,B,C)` and never reaches it).
pub const Q7: &str = "Q7(A,B,C,D,E,G) :- T2(A,B,C,D,E), T3(A,B,C,D,G)";
/// Disconnected shape with three easy components (Q8, §8.5).
pub const Q8: &str =
    "Q8(A1,B1,A2,B2,A3,B3) :- R11(A1), R12(A1,B1), R21(A2), R22(A2,B2), R31(A3), R32(A3,B3)";
/// Boolean path: resilience by min-cut.
pub const QBOOL: &str = "Qb() :- R1(A), R2(A,B), R3(B)";

/// Ratio targets every workload cycles through.
pub const RATIOS: [f64; 4] = [0.05, 0.1, 0.2, 0.4];

/// Zipf skew of the `R2` degrees (paper §8.4).
pub const ZIPF_ALPHA: f64 = 0.5;
/// `R2` rows for `read_hard` and `htap_churn`.
pub const HARD_ROWS: usize = 20_000;
/// `R2` rows for `exact_mix` (Q6 and the boolean path run over them).
pub const EXACT_ROWS: usize = 2_000;
/// Q7 rows per relation, drawn from a shared pool of `(A,B,C)` keys.
pub const Q7_ROWS: usize = 2_000;
/// Q8 relation sizes (small/large alternating, domain 1..=100).
pub const Q8_SIZES: [usize; 6] = [25, 50, 25, 50, 25, 50];

/// Tuples deleted per delete batch; every fourth batch restores all of
/// them, so the data never drifts from its base size over a run.
pub const DELETE_BATCH: usize = 32;
/// Solves after each mutation batch in `htap_churn`. A cold first solve
/// costs several warm ones, so this many keeps one run's solves at
/// about a thousand, enough for `solve_p99_ms`.
pub const SOLVES_PER_BATCH: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadHard,
    ExactMix,
    HtapChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReadHard, Workload::ExactMix, Workload::HtapChurn];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHard => "read_hard",
            Workload::ExactMix => "exact_mix",
            Workload::HtapChurn => "htap_churn",
        }
    }

    /// The queries the workload sends, by index. `read_hard` and
    /// `htap_churn` send one prepared statement; `exact_mix` sends its
    /// four shapes as text.
    pub fn queries(self) -> &'static [&'static str] {
        match self {
            Workload::ReadHard | Workload::HtapChurn => &[QPATH],
            Workload::ExactMix => &[Q6, Q7, Q8, QBOOL],
        }
    }

    /// Times each query's `(query, ratio)` pairs appear in one solve
    /// cycle, by index in [`queries`](Self::queries). `exact_mix`
    /// sends the two sub-ms shapes (Q6, Q8) twice per cycle. Its
    /// latencies form clusters (Q6/Q8 under 1 ms, the min-cut about
    /// 3 ms, Q7 about 9 ms); with equal weights the short shapes are
    /// exactly half of the solves, so the median fell in the gap
    /// between clusters and jumped with noise. With these weights it
    /// falls inside the short cluster, where wire and service overhead
    /// are the largest share.
    pub fn weights(self) -> &'static [usize] {
        match self {
            Workload::ReadHard | Workload::HtapChurn => &[1],
            Workload::ExactMix => &[2, 1, 2, 1],
        }
    }

    /// True when solves go over the text SOLVE path (plan-cache lookup
    /// per request) instead of a prepared statement.
    pub fn text_requests(self) -> bool {
        self == Workload::ExactMix
    }

    /// Index in [`queries`](Self::queries) of the statement the
    /// mutation probe (or the churn itself) watches; its relations are
    /// the ones the batches touch.
    pub fn churn_index(self) -> usize {
        match self {
            Workload::ReadHard | Workload::HtapChurn => 0,
            // The boolean path: its subscription re-solves a min-cut on
            // every push, so a batch is ms of real work, not just
            // thread wake-ups.
            Workload::ExactMix => 3,
        }
    }

    pub fn churn_query(self) -> &'static str {
        self.queries()[self.churn_index()]
    }
}

/// splitmix64: a small, fixed, seedable generator, so streams do not
/// depend on any library's RNG algorithm.
#[derive(Clone, Debug)]
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Rng64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Derives an independent sub-seed for one purpose from the run seed.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    Rng64::new(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// The database a workload serves.
pub fn database(w: Workload, seed: u64) -> Database {
    let data_seed = sub_seed(seed, 1);
    match w {
        Workload::ReadHard | Workload::HtapChurn => {
            zipf_pair(&ZipfConfig::new(HARD_ROWS, ZIPF_ALPHA, data_seed, true))
        }
        Workload::ExactMix => {
            let mut db = zipf_pair(&ZipfConfig::new(EXACT_ROWS, ZIPF_ALPHA, data_seed, true));
            for rel in small_shapes_database(seed).relations() {
                db.add(rel.clone());
            }
            db
        }
    }
}

/// The relations of [`Q7`] and [`Q8`], the shapes whose relations are
/// not `R1`..`R3`.
pub fn small_shapes_database(seed: u64) -> Database {
    let q7 = parse_query(Q7).expect("Q7 parses");
    let q8 = parse_query(Q8).expect("Q8 parses");
    let mut db = correlated_q7(&q7, Q7_ROWS, 60, 100, sub_seed(seed, 2));
    let q8_db = uniform_db_for_query(&q8, &Q8_SIZES, 100, sub_seed(seed, 3));
    for rel in q8_db.relations() {
        db.add(rel.clone());
    }
    db
}

/// One client operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Solve query `query` (an index into [`Workload::queries`]) for a
    /// ratio target.
    Solve { query: usize, ratio: f64 },
    /// A delete (or restore) batch of `(relation, base tuple index)`
    /// pairs; every entry changes the deletion state.
    Mutate {
        delete: bool,
        entries: Vec<(String, u32)>,
    },
}

/// Deterministic delete/restore batches over the relations of a query.
/// Three delete batches of [`DELETE_BATCH`] live tuples, then one batch
/// restoring all of them: every batch is effective, and the deleted set
/// is empty again after every fourth batch.
pub struct BatchGen {
    rng: Rng64,
    relations: Vec<(String, u32)>,
    deleted: BTreeSet<(usize, u32)>,
    round: u64,
}

impl BatchGen {
    pub fn new(seed: u64, db: &Database, query: &str) -> Self {
        let q = parse_query(query).expect("churn query parses");
        let relations = q
            .atoms()
            .iter()
            .map(|a| {
                let len = db.expect(a.name()).len();
                (
                    a.name().to_string(),
                    u32::try_from(len).expect("relation fits u32"),
                )
            })
            .collect();
        BatchGen {
            rng: Rng64::new(seed),
            relations,
            deleted: BTreeSet::new(),
            round: 0,
        }
    }

    pub fn next_batch(&mut self) -> Op {
        let restore = self.round % 4 == 3;
        self.round += 1;
        let picked: Vec<(usize, u32)> = if restore {
            std::mem::take(&mut self.deleted).into_iter().collect()
        } else {
            let mut batch = BTreeSet::new();
            while batch.len() < DELETE_BATCH {
                let rel = self.rng.below(self.relations.len() as u64) as usize;
                let idx = self.rng.below(u64::from(self.relations[rel].1)) as u32;
                if !self.deleted.contains(&(rel, idx)) {
                    batch.insert((rel, idx));
                }
            }
            self.deleted.extend(batch.iter().copied());
            batch.into_iter().collect()
        };
        let entries = picked
            .into_iter()
            .map(|(rel, idx)| (self.relations[rel].0.clone(), idx))
            .collect();
        Op::Mutate {
            delete: !restore,
            entries,
        }
    }
}

fn shuffled<T: Clone>(rng: &mut Rng64, items: &[T]) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// A workload's endless, seed-determined op stream. Solves come in
/// cycles that cover every `(query, ratio)` pair (as often as its
/// query's weight) in a shuffled order, so any window of whole cycles
/// is the same mix.
pub struct OpStream {
    rng: Rng64,
    pairs: Vec<(usize, f64)>,
    batches: Option<BatchGen>,
    batches_per_round: usize,
    solves_per_round: usize,
    pending: std::collections::VecDeque<Op>,
}

impl OpStream {
    /// The measured stream of workload `w`.
    pub fn new(w: Workload, seed: u64, db: &Database) -> Self {
        match w {
            Workload::HtapChurn => Self::churn(w, seed, db, 1, SOLVES_PER_BATCH),
            _ => OpStream {
                rng: Rng64::new(sub_seed(seed, 4)),
                pairs: solve_pairs(w.weights()),
                batches: None,
                batches_per_round: 0,
                solves_per_round: 0,
                pending: Default::default(),
            },
        }
    }

    /// Rounds of `batches_per_round` mutation batches on `w`'s churn
    /// statement, each round followed by `solves_per_round` solves of it.
    pub fn churn(
        w: Workload,
        seed: u64,
        db: &Database,
        batches_per_round: usize,
        solves_per_round: usize,
    ) -> Self {
        let query = w.churn_index();
        OpStream {
            rng: Rng64::new(sub_seed(seed, 5)),
            pairs: RATIOS.iter().map(|&r| (query, r)).collect(),
            batches: Some(BatchGen::new(sub_seed(seed, 6), db, w.churn_query())),
            batches_per_round,
            solves_per_round,
            pending: Default::default(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        if let Some(op) = self.pending.pop_front() {
            return op;
        }
        let cycle = shuffled(&mut self.rng, &self.pairs);
        let solve = |&(query, ratio): &(usize, f64)| Op::Solve { query, ratio };
        match self.batches.as_mut() {
            None => self.pending.extend(cycle.iter().map(solve)),
            Some(gen) => {
                for _ in 0..self.batches_per_round {
                    self.pending.push_back(gen.next_batch());
                }
                let solves = cycle.iter().cycle().take(self.solves_per_round);
                self.pending.extend(solves.map(solve));
            }
        }
        self.pending.pop_front().expect("every refill queues an op")
    }
}

/// One cycle's `(query, ratio)` pairs, each query's repeated its
/// weight's times.
fn solve_pairs(weights: &[usize]) -> Vec<(usize, f64)> {
    weights
        .iter()
        .enumerate()
        .flat_map(|(q, &n)| std::iter::repeat_n(q, n))
        .flat_map(|q| RATIOS.iter().map(move |&r| (q, r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(w: Workload, seed: u64, n: usize) -> Vec<Op> {
        let db = database(w, seed);
        let mut stream = OpStream::new(w, seed, &db);
        (0..n).map(|_| stream.next_op()).collect()
    }

    fn rows(w: Workload, seed: u64) -> Vec<Vec<Vec<u64>>> {
        database(w, seed)
            .relations()
            .iter()
            .map(|r| r.to_rows())
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_stream_and_data() {
        for w in Workload::ALL {
            assert_eq!(ops(w, 7, 300), ops(w, 7, 300), "{}", w.name());
            assert_eq!(rows(w, 7), rows(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn another_seed_gives_another_stream_and_data() {
        for w in Workload::ALL {
            assert_ne!(ops(w, 7, 300), ops(w, 8, 300), "{}", w.name());
            assert_ne!(rows(w, 7), rows(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn solve_cycles_cover_every_query_and_ratio_by_weight() {
        let w = Workload::ExactMix;
        let cycle = w.weights().iter().sum::<usize>() * RATIOS.len();
        let mut seen: Vec<(usize, u64)> = ops(w, 3, cycle)
            .into_iter()
            .map(|op| match op {
                Op::Solve { query, ratio } => (query, ratio.to_bits()),
                Op::Mutate { .. } => panic!("exact_mix never mutates while measured"),
            })
            .collect();
        seen.sort_unstable();
        for (q, &n) in w.weights().iter().enumerate() {
            for r in RATIOS {
                let count = seen.iter().filter(|&&p| p == (q, r.to_bits())).count();
                assert_eq!(count, n, "query {q} ratio {r}");
            }
        }
        seen.dedup();
        assert_eq!(seen.len(), w.queries().len() * RATIOS.len());
    }

    #[test]
    fn every_batch_is_effective_and_every_fourth_restores_all() {
        let db = database(Workload::HtapChurn, 5);
        let mut gen = BatchGen::new(9, &db, QPATH);
        let mut deleted = BTreeSet::new();
        for round in 0..40 {
            let Op::Mutate { delete, entries } = gen.next_batch() else {
                unreachable!()
            };
            assert_eq!(delete, round % 4 != 3);
            assert!(!entries.is_empty());
            for e in entries {
                assert!(if delete {
                    deleted.insert(e)
                } else {
                    deleted.remove(&e)
                });
            }
            if !delete {
                assert!(deleted.is_empty(), "a restore brings back every deletion");
            }
        }
    }

    #[test]
    fn answer_cost_sums_whole_solve_cycles() {
        for w in Workload::ALL {
            let cycle = w.weights().iter().sum::<usize>() * RATIOS.len();
            assert_eq!(crate::FIXED_SOLVES % cycle, 0, "{}", w.name());
        }
    }

    /// The program must not be able to tell workloads apart by anything
    /// but their data and requests.
    #[test]
    fn nothing_the_program_receives_names_a_workload() {
        let words: Vec<String> = Workload::ALL
            .iter()
            .flat_map(|w| w.name().split('_').map(str::to_string))
            .collect();
        for w in Workload::ALL {
            let db = database(w, 1);
            let mut seen: Vec<String> = db.names().map(str::to_lowercase).collect();
            seen.extend(w.queries().iter().map(|q| q.to_lowercase()));
            for text in &seen {
                for word in &words {
                    assert!(!text.contains(word.as_str()), "{text:?} contains {word:?}");
                }
            }
        }
    }
}
