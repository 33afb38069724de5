//! Inputs made from `--seed`: data series, query pools and the answers
//! every response is checked against. The program under test only ever
//! sees the generated series and specs, and nothing here asks it what a
//! query costs: the pool is a function of the seed and of this file alone.
//!
//! Queries are noisy copies (σ = 0.05 × the query's σ) of random
//! subsequences at the fixed ε `bench_report` uses on this generator. On
//! `composite_series` the work such a query causes spans three orders of
//! magnitude (a copy of a Gaussian regime matches a third of the series, a
//! copy of a random-walk excursion almost nothing), so a pool drawn blindly
//! measures which regimes the seed happened to produce. As the paper does
//! when it groups queries by selectivity, a draw is therefore kept only
//! when its **filter selectivity** lies in the workload's band: the share
//! of positions whose disjoint-window means all fall inside the ranges the
//! paper's Lemmas 1–4 give for the query, counted here from prefix sums of
//! the raw series ([`lemma_selectivity`]). That is a property of the data,
//! the query and ε — not of the index's row layout, the cache, the cascade
//! or a kernel — so a change to any of those meets the same queries. Where
//! the filter's share leaves cost too scattered (`dtw_verify`), a second
//! measure of the same kind narrows it: the [`abandon_depth`] of the query
//! on its series.

use kvmatch_core::{
    naive_search, IndexAppender, IndexBuildConfig, KvIndex, KvMatcher, MatchResult, QuerySpec,
    SeriesId,
};
use kvmatch_storage::memory::MemoryKvStoreBuilder;
use kvmatch_storage::{MemoryKvStore, MemorySeriesStore};
use kvmatch_timeseries::generator::{composite_series, gaussian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index window width of every workload.
pub const WINDOW: usize = 50;
/// Query noise, relative to the query's own standard deviation.
const NOISE: f64 = 0.05;
/// Every `NAIVE_EVERY`-th pool query is also checked against `naive_search`.
pub const NAIVE_EVERY: usize = 16;

/// SplitMix64 finalizer: decorrelates the per-series / per-purpose seeds
/// derived from one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, salt))
}

/// Series `i` of a workload: `composite_series` under a derived seed.
pub fn series(seed: u64, i: usize, n: usize) -> Vec<f64> {
    composite_series(mix(seed, 0x5E71E5 + i as u64), n)
}

pub fn series_id(i: usize) -> SeriesId {
    SeriesId::new(i as u64 + 1)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    RsmEd,
    RsmDtw,
    CnsmEd,
    CnsmDtw,
}

/// One query class: kind, length, and `Some(k)` for top-k.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Class {
    pub kind: Kind,
    pub m: usize,
    pub top_k: Option<usize>,
}

impl Class {
    pub const RSM_ED: Class = Class { kind: Kind::RsmEd, m: 256, top_k: None };
    pub const RSM_DTW: Class = Class { kind: Kind::RsmDtw, m: 192, top_k: None };
    pub const CNSM_ED: Class = Class { kind: Kind::CnsmEd, m: 256, top_k: None };
    pub const CNSM_DTW: Class = Class { kind: Kind::CnsmDtw, m: 160, top_k: None };
    pub const RSM_ED_TOP5: Class = Class { kind: Kind::RsmEd, m: 256, top_k: Some(5) };

    pub fn with_len(self, m: usize) -> Class {
        Class { m, ..self }
    }

    pub fn name(&self) -> &'static str {
        match (self.kind, self.top_k) {
            (Kind::RsmEd, None) => "rsm_ed",
            (Kind::RsmEd, Some(_)) => "rsm_ed_topk",
            (Kind::RsmDtw, _) => "rsm_dtw",
            (Kind::CnsmEd, _) => "cnsm_ed",
            (Kind::CnsmDtw, _) => "cnsm_dtw",
        }
    }

    /// The fixed ε of the kind: `bench_report`'s value on this generator.
    pub fn epsilon(&self) -> f64 {
        match self.kind {
            Kind::RsmEd => 20.0,
            Kind::RsmDtw => 10.0,
            Kind::CnsmEd => 3.0,
            Kind::CnsmDtw => 2.5,
        }
    }

    /// Warping band ρ of the DTW kinds (0 for ED).
    fn rho(&self) -> usize {
        match self.kind {
            Kind::RsmDtw => 8,
            Kind::CnsmDtw => 5,
            Kind::RsmEd | Kind::CnsmEd => 0,
        }
    }

    /// The spec for query sequence `q` at the kind's ε (rsm_dtw ρ=8;
    /// cnsm_ed α=1.5 β=5; cnsm_dtw ρ=5 α=1.5 β=5).
    pub fn spec(&self, q: Vec<f64>, series: SeriesId) -> QuerySpec {
        let epsilon = self.epsilon();
        let spec = match self.kind {
            Kind::RsmEd => QuerySpec::rsm_ed(q, epsilon),
            Kind::RsmDtw => QuerySpec::rsm_dtw(q, epsilon, self.rho()),
            Kind::CnsmEd => QuerySpec::cnsm_ed(q, epsilon, ALPHA, BETA),
            Kind::CnsmDtw => QuerySpec::cnsm_dtw(q, epsilon, self.rho(), ALPHA, BETA),
        };
        let spec = spec.with_series(series);
        match self.top_k {
            Some(k) => spec.top_k(k),
            None => spec,
        }
    }

    /// `[LR_i, UR_i]` for each disjoint window of `q`: the range the
    /// paper's lemma for this kind confines the matching subsequence's
    /// `i`-th window mean to (Lemma 1 RSM-ED, 2 cNSM-ED, 3 RSM-DTW,
    /// 4 cNSM-DTW; the DTW lemmas take the window means of the query's
    /// Keogh envelope in place of the query's).
    fn mean_ranges(&self, q: &[f64]) -> Vec<(f64, f64)> {
        let rho = self.rho();
        let reach = |t: usize| &q[t.saturating_sub(rho)..(t + rho + 1).min(q.len())];
        let lower: Vec<f64> =
            (0..q.len()).map(|t| reach(t).iter().copied().fold(f64::INFINITY, f64::min)).collect();
        let upper: Vec<f64> = (0..q.len())
            .map(|t| reach(t).iter().copied().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        let (mu, sigma) = mean_std(q);
        let normalized = matches!(self.kind, Kind::CnsmEd | Kind::CnsmDtw);
        let slack = self.epsilon() * if normalized { sigma } else { 1.0 } / (WINDOW as f64).sqrt();
        lower
            .chunks_exact(WINDOW)
            .zip(upper.chunks_exact(WINDOW))
            .map(|(l, u)| {
                let (mu_l, mu_u) = (mean_std(l).0, mean_std(u).0);
                if normalized {
                    let (a, b) = (mu_l - mu - slack, mu_u - mu + slack);
                    ((ALPHA * a).min(a / ALPHA) + mu - BETA, (ALPHA * b).max(b / ALPHA) + mu + BETA)
                } else {
                    (mu_l - slack, mu_u + slack)
                }
            })
            .collect()
    }
}

/// The cNSM constraint of every normalized query: σ within a factor α,
/// mean within β of the query's.
const ALPHA: f64 = 1.5;
const BETA: f64 = 5.0;

/// Population mean and standard deviation.
fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mu = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / n;
    (mu, var.sqrt())
}

/// One series the oracle can answer for: a dedicated memory index, the
/// raw points, and the sequential matcher's view of them.
pub struct OracleSeries {
    pub id: SeriesId,
    pub index: KvIndex<MemoryKvStore>,
    pub data: MemorySeriesStore,
    /// `prefix[j]` = sum of the first `j` points: window means in O(1).
    prefix: Vec<f64>,
}

/// How the index under test lays its rows out. cNSM distances are computed
/// from per-interval prefix statistics, so an answer is bit-identical only
/// to an oracle whose index yields the same candidate intervals — the
/// oracle's index must be built the way the measured one is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `IndexAppender` rows, as every `Catalog` series has.
    Appended,
    /// `KvIndex::build_into` rows, as the library path builds.
    Bulk,
}

impl OracleSeries {
    pub fn new(id: SeriesId, xs: Vec<f64>, layout: Layout) -> Self {
        let config = IndexBuildConfig::new(WINDOW);
        let builder = MemoryKvStoreBuilder::new();
        let (index, _) = match layout {
            Layout::Appended => {
                let mut appender = IndexAppender::new(config);
                appender.push_chunk(&xs);
                appender.finish_into(builder)
            }
            Layout::Bulk => KvIndex::<MemoryKvStore>::build_into(&xs, config, builder),
        }
        .expect("oracle index builds");
        let mut prefix = Vec::with_capacity(xs.len() + 1);
        prefix.push(0.0);
        for x in &xs {
            prefix.push(prefix[prefix.len() - 1] + x);
        }
        Self { id, index, data: MemorySeriesStore::new(xs), prefix }
    }

    /// The raw points.
    pub fn xs(&self) -> &[f64] {
        self.data.data()
    }

    pub fn matcher(&self) -> KvMatcher<'_, MemoryKvStore, MemorySeriesStore> {
        KvMatcher::new(&self.index, &self.data).expect("oracle matcher binds")
    }
}

/// One pool query with the answer it must produce.
pub struct PoolEntry {
    pub class: Class,
    /// Index into the workload's series list.
    pub series: usize,
    /// Targets the series' catalog id.
    pub spec: QuerySpec,
    /// The sequential `KvMatcher` answer over the initial data.
    pub expected: Vec<MatchResult>,
}

/// A noisy copy of a random subsequence of `xs`.
fn noisy_query(rng: &mut StdRng, xs: &[f64], m: usize) -> Vec<f64> {
    let off = rng.random_range(0..=xs.len() - m);
    let mut q = xs[off..off + m].to_vec();
    let (_, sigma) = mean_std(&q);
    let scale = sigma.max(1e-9) * NOISE;
    for v in &mut q {
        *v += scale * gaussian(rng);
    }
    q
}

/// True when every disjoint-window mean of the subsequence at `j` lies in
/// its range.
fn admits(oracle: &OracleSeries, ranges: &[(f64, f64)], j: usize) -> bool {
    ranges.iter().enumerate().all(|(i, &(lo, hi))| {
        let at = j + i * WINDOW;
        let mu = (oracle.prefix[at + WINDOW] - oracle.prefix[at]) / WINDOW as f64;
        lo <= mu && mu <= hi
    })
}

/// Filter selectivity of query `q` of `class` on a series: the share of
/// its positions whose disjoint-window means all lie in the query's
/// [`Class::mean_ranges`] — the candidates the paper's filter cannot rule
/// out, whatever index serves it.
fn lemma_selectivity(oracle: &OracleSeries, class: Class, q: &[f64]) -> f64 {
    let ranges = class.mean_ranges(q);
    let positions = oracle.xs().len() - q.len() + 1;
    let admitted = (0..positions).filter(|&j| admits(oracle, &ranges, j)).count();
    admitted as f64 / positions as f64
}

/// How deep verification has to look on this series before it can give a
/// candidate up: the number of leading points after which the candidate's
/// squared Euclidean distance to `q` provably exceeds ε² (all of them when
/// it never does), averaged over every position. Filter selectivity says
/// how many candidates a query has; this says how dear they are — between
/// two queries the filter admits equally often, DTW verification cost
/// follows it within a factor of two. Raw values, so RSM classes only.
fn abandon_depth(oracle: &OracleSeries, q: &[f64], epsilon: f64) -> f64 {
    let xs = oracle.xs();
    let positions = xs.len() - q.len() + 1;
    let bound = epsilon * epsilon;
    let read: usize = (0..positions)
        .map(|j| {
            let mut acc = 0.0;
            let beyond = xs[j..j + q.len()].iter().zip(q).position(|(x, y)| {
                acc += (x - y) * (x - y);
                acc > bound
            });
            beyond.map_or(q.len(), |t| t + 1)
        })
        .sum();
    read as f64 / positions as f64
}

/// Which draws a workload keeps for one class.
#[derive(Clone, Copy, Debug)]
pub struct Band {
    /// [`lemma_selectivity`] must lie in `selectivity.0 ..= selectivity.1`.
    pub selectivity: (f64, f64),
    /// [`abandon_depth`] must lie in this range, where one is given.
    pub abandon_depth: Option<(f64, f64)>,
    /// A query answered by more subsequences than this is passed over:
    /// response size is a second axis of cost (16 bytes a match on the
    /// wire) that the filter does not see. The answer is the query's by
    /// definition, so this too is no property of the implementation.
    pub max_matches: usize,
}

/// Draws `count` queries of `class` over `oracles` (series round-robin),
/// keeping those inside `band`, and answers them with the sequential
/// matcher.
pub fn draw_pool(
    rng: &mut StdRng,
    oracles: &[OracleSeries],
    class: Class,
    count: usize,
    band: Band,
) -> Vec<PoolEntry> {
    let mut pool = Vec::with_capacity(count);
    let mut shares = Vec::with_capacity(count);
    let mut draws = 0usize;
    while pool.len() < count {
        let which = draws % oracles.len();
        draws += 1;
        assert!(draws <= count * 2_000, "no {} query falls in {band:?}", class.name());
        let oracle = &oracles[which];
        let q = noisy_query(rng, oracle.xs(), class.m);
        let share = lemma_selectivity(oracle, class, &q);
        if share < band.selectivity.0 || share > band.selectivity.1 {
            continue;
        }
        if let Some((shallow, deep)) = band.abandon_depth {
            assert!(matches!(class.kind, Kind::RsmEd | Kind::RsmDtw), "depth is on raw values");
            let depth = abandon_depth(oracle, &q, class.epsilon());
            if depth < shallow || depth > deep {
                continue;
            }
        }
        let spec = class.spec(q, oracle.id);
        let (expected, _) = oracle.matcher().execute(&spec).expect("oracle answers its pool");
        if expected.len() <= band.max_matches {
            shares.push(share);
            pool.push(PoolEntry { class, series: which, spec, expected });
        }
    }
    let mut matches: Vec<usize> = pool.iter().map(|e| e.expected.len()).collect();
    matches.sort_unstable();
    shares.sort_by(f64::total_cmp);
    eprintln!(
        "pool {}(m={}): {count} queries in {draws} draws; filter selectivity p50={:.5} \
         [{:.5}, {:.5}]; matches p50={} p90={} max={}",
        class.name(),
        class.m,
        shares[count / 2],
        shares[0],
        shares[count - 1],
        matches[count / 2],
        matches[count * 9 / 10],
        matches[count - 1]
    );
    pool
}

/// A uniformly random permutation of `0..len` (Fisher–Yates).
fn permutation(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// A seeded order over `len` pool entries for one connection: a shuffled
/// cycle, so every entry is replayed equally often.
pub fn replay_order(seed: u64, connection: usize, len: usize) -> Vec<usize> {
    permutation(&mut rng_for(seed, 0x0DE5 + connection as u64), len)
}

/// Interleaves per-class pools into one seeded order.
pub fn shuffle_pool(seed: u64, pool: Vec<PoolEntry>) -> Vec<PoolEntry> {
    let order = permutation(&mut rng_for(seed, 0x5AFF1E), pool.len());
    let mut slots: Vec<Option<PoolEntry>> = pool.into_iter().map(Some).collect();
    order.into_iter().map(|i| slots[i].take().expect("a permutation")).collect()
}

/// `f64::to_bits`-identical answers, in order.
pub fn same_bits(got: &[MatchResult], want: &[MatchResult]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.offset == w.offset && g.distance.to_bits() == w.distance.to_bits())
}

/// Relative tolerance between two computations of one distance that
/// normalize differently: the matcher takes µ and σ from prefix sums over
/// the fetched block, the exhaustive scan from prefix sums over the whole
/// series, and the cancellation in Σx² − (Σx)²/m differs (1.4e-9 observed).
const RECOMPUTE_TOLERANCE: f64 = 1e-6;

/// No false dismissals: the exhaustive scan finds the same offsets, with
/// distances equal up to how the candidate was normalized and summed.
pub fn naive_agrees(xs: &[f64], entry: &PoolEntry) -> bool {
    let mut spec = entry.spec.clone();
    spec.series = SeriesId::DEFAULT;
    let want = naive_search(xs, &spec);
    want.len() == entry.expected.len()
        && want.iter().zip(&entry.expected).all(|(w, g)| {
            w.offset == g.offset
                && (w.distance - g.distance).abs()
                    <= RECOMPUTE_TOLERANCE * w.distance.abs().max(1.0)
        })
}

/// Checks every [`NAIVE_EVERY`]-th entry against `naive_search`; returns
/// `(checked, disagreeing)`.
pub fn naive_check(oracles: &[OracleSeries], pool: &[PoolEntry]) -> (u64, u64) {
    let mut checked = 0;
    let mut bad = 0;
    for entry in pool.iter().step_by(NAIVE_EVERY) {
        checked += 1;
        if !naive_agrees(oracles[entry.series].xs(), entry) {
            eprintln!("naive_search disagrees with the matcher on a {} query", entry.class.name());
            bad += 1;
        }
    }
    (checked, bad)
}

/// Distance of one reported match recomputed from the raw points — the
/// check for matches the pre-computed answer cannot contain (they touch
/// points appended during the run). ED classes only.
pub fn recomputed_match_ok(xs: &[f64], spec: &QuerySpec, hit: &MatchResult) -> bool {
    let m = spec.query.len();
    let Some(s) = xs.get(hit.offset..hit.offset + m) else { return false };
    let close = |d: f64| (d - hit.distance).abs() <= RECOMPUTE_TOLERANCE * d.abs().max(1.0);
    match &spec.constraint {
        None => {
            let d = kvmatch_distance::ed(s, &spec.query);
            close(d) && d <= spec.epsilon * (1.0 + RECOMPUTE_TOLERANCE)
        }
        Some(c) => {
            let (mu_q, sigma_q) = mean_std(&spec.query);
            let (mu_s, sigma_s) = mean_std(s);
            let d = kvmatch_distance::ed(
                &kvmatch_distance::z_normalized(s),
                &kvmatch_distance::z_normalized(&spec.query),
            );
            let slack = 1.0 + RECOMPUTE_TOLERANCE;
            close(d)
                && d <= spec.epsilon * slack
                && (mu_s - mu_q).abs() <= c.beta * slack
                && sigma_s >= sigma_q / c.alpha / slack
                && sigma_s <= sigma_q * c.alpha * slack
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps every draw.
    const ANY: Band =
        Band { selectivity: (0.0, 1.0), abandon_depth: None, max_matches: usize::MAX };

    fn oracle(seed: u64, n: usize, layout: Layout) -> Vec<OracleSeries> {
        vec![OracleSeries::new(series_id(0), series(seed, 0, n), layout)]
    }

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        let make = |seed: u64| {
            let oracles = oracle(seed, 6_000, Layout::Appended);
            draw_pool(&mut rng_for(seed, 1), &oracles, Class::RSM_ED, 4, ANY)
        };
        let (a, b, c) = (make(5), make(5), make(6));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.spec == y.spec && same_bits(&x.expected, &y.expected)));
        assert!(a.iter().zip(&c).any(|(x, y)| x.spec != y.spec));
    }

    /// The lemma ranges are this file's own arithmetic; what holds them to
    /// the paper is that they never rule out a true match, for any kind.
    #[test]
    fn the_filter_admits_every_match_of_the_exhaustive_scan() {
        let oracles = oracle(9, 8_000, Layout::Bulk);
        let mut rng = rng_for(9, 1);
        for class in [Class::RSM_ED, Class::CNSM_ED, Class::RSM_DTW, Class::CNSM_DTW] {
            for entry in draw_pool(&mut rng, &oracles, class, 6, ANY) {
                let ranges = class.mean_ranges(&entry.spec.query);
                assert_eq!(ranges.len(), class.m / WINDOW);
                let mut spec = entry.spec.clone();
                spec.series = SeriesId::DEFAULT;
                let matches = naive_search(oracles[0].xs(), &spec);
                assert!(!matches.is_empty(), "a noisy copy matches where it was taken");
                for hit in &matches {
                    assert!(
                        admits(&oracles[0], &ranges, hit.offset),
                        "{} at {}",
                        class.name(),
                        hit.offset
                    );
                }
                let share = lemma_selectivity(&oracles[0], class, &entry.spec.query);
                let positions = oracles[0].xs().len() - class.m + 1;
                assert!(share * positions as f64 >= matches.len() as f64 - 0.5);
            }
        }
    }

    #[test]
    fn a_pool_holds_only_queries_inside_its_band() {
        let oracles = oracle(7, 20_000, Layout::Appended);
        let band =
            Band { selectivity: (0.2, 0.5), abandon_depth: Some((5.0, 120.0)), max_matches: 64 };
        let pool = draw_pool(&mut rng_for(7, 1), &oracles, Class::RSM_ED, 8, band);
        assert_eq!(pool.len(), 8);
        for entry in &pool {
            let share = lemma_selectivity(&oracles[0], entry.class, &entry.spec.query);
            assert!((0.2..=0.5).contains(&share), "{share}");
            let depth = abandon_depth(&oracles[0], &entry.spec.query, entry.spec.epsilon);
            assert!((5.0..=120.0).contains(&depth), "{depth}");
            assert!(entry.expected.len() <= 64);
            assert_eq!(entry.spec.epsilon, Class::RSM_ED.epsilon(), "ε is the class's, fixed");
        }
    }

    #[test]
    fn abandon_depth_counts_the_points_read_before_the_bound_is_passed() {
        // Every candidate of a flat series differs from the query by 3 at
        // each point: 9 a point against ε² = 20 passes at the third.
        let flat = OracleSeries::new(series_id(0), vec![3.0; 100], Layout::Bulk);
        assert_eq!(abandon_depth(&flat, &[0.0; 10], 20f64.sqrt()), 3.0);
        // A bound never passed reads the whole candidate.
        assert_eq!(abandon_depth(&flat, &[0.0; 10], 10.0), 10.0);
    }

    #[test]
    fn answers_are_checked_by_bits_and_by_exhaustive_scan() {
        let oracles = oracle(3, 5_000, Layout::Appended);
        let pool = draw_pool(&mut rng_for(3, 1), &oracles, Class::RSM_DTW, 2, ANY);
        assert_eq!(naive_check(&oracles, &pool), (1, 0));
        let mut wrong = pool[0].expected.clone();
        wrong[0].distance = f64::from_bits(wrong[0].distance.to_bits() + 1);
        assert!(!same_bits(&wrong, &pool[0].expected));
        assert!(same_bits(&pool[0].expected, &pool[0].expected));
    }

    #[test]
    fn recomputed_matches_accept_the_matcher_and_reject_forgeries() {
        let oracles = oracle(4, 5_000, Layout::Bulk);
        let mut rng = rng_for(4, 1);
        for class in [Class::RSM_ED, Class::CNSM_ED] {
            let pool = draw_pool(&mut rng, &oracles, class, 2, ANY);
            for e in &pool {
                for hit in &e.expected {
                    assert!(recomputed_match_ok(oracles[0].xs(), &e.spec, hit));
                }
                let forged = MatchResult { offset: e.expected[0].offset, distance: 0.123 };
                assert!(!recomputed_match_ok(oracles[0].xs(), &e.spec, &forged));
            }
        }
    }

    #[test]
    fn replay_order_is_a_seeded_permutation() {
        let a = replay_order(1, 0, 50);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, replay_order(1, 0, 50));
        assert_ne!(a, replay_order(1, 1, 50));
    }
}
