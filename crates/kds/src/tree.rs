//! The array-backed kd-tree and the KDS sampling algorithm.

use irs_core::{
    vec_bytes, Endpoint, Interval, ItemId, MemoryFootprint, PreparedSampler, RangeCount,
    RangeSampler, RangeSearch, WeightedRangeSampler,
};
use irs_sampling::{prefetch_read, sample_prefix_range, AliasTable};

/// How many draws each batched sampling pass resolves at once: enough
/// to amortize the alias table and RNG plumbing across a chunk, small
/// enough that the per-chunk scratch lives in two stack cache lines.
const DRAW_CHUNK: usize = 64;

/// A 2-D point `(lo, hi)` with its dataset id.
#[derive(Clone, Copy, Debug)]
struct Point<E> {
    lo: E,
    hi: E,
    id: ItemId,
}

const NIL: u32 = u32::MAX;

/// A kd-tree node over the contiguous point range `[begin, end)`, with the
/// bounding box of its points.
#[derive(Clone, Copy, Debug)]
struct KdNode<E> {
    begin: u32,
    end: u32,
    min_lo: E,
    max_lo: E,
    min_hi: E,
    max_hi: E,
    left: u32,
    right: u32,
}

impl<E: Endpoint> KdNode<E> {
    /// Box fully inside the query rectangle `lo ≤ qhi ∧ hi ≥ qlo`.
    #[inline]
    fn inside(&self, q: &Interval<E>) -> bool {
        self.max_lo <= q.hi && self.min_hi >= q.lo
    }

    /// Box disjoint from the query rectangle.
    #[inline]
    fn disjoint(&self, q: &Interval<E>) -> bool {
        self.min_lo > q.hi || self.max_hi < q.lo
    }
}

/// Default leaf bucket size (points per unsplit node). Small enough that
/// boundary-leaf scans stay cheap, large enough to keep the node count and
/// build time down.
pub const DEFAULT_LEAF_SIZE: usize = 16;

/// The KDS index: a static kd-tree over interval endpoints supporting
/// independent range sampling, range search, and range counting.
///
/// ```
/// use irs_kds::Kds;
/// use irs_core::{Interval, RangeSampler, RangeCount};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let data: Vec<_> = (0..1000i64).map(|i| Interval::new(i, i + 50)).collect();
/// let kds = Kds::new(&data);
/// let q = Interval::new(200, 240);
/// assert_eq!(kds.range_count(q), 91);
/// let mut rng = StdRng::seed_from_u64(1);
/// assert_eq!(kds.sample(q, 10, &mut rng).len(), 10);
/// ```
#[derive(Debug)]
pub struct Kds<E> {
    points: Vec<Point<E>>,
    nodes: Vec<KdNode<E>>,
    root: u32,
    leaf_size: usize,
    /// Prefix sums of weights in `points` order (weighted variant only):
    /// `prefix[i] = Σ_{k≤i} w(points[k])`.
    weight_prefix: Vec<f64>,
    /// Per-point weights in `points` order, for boundary-leaf filtering.
    point_weights: Vec<f64>,
}

impl<E: Endpoint> Kds<E> {
    /// Builds the kd-tree with [`DEFAULT_LEAF_SIZE`].
    pub fn new(data: &[Interval<E>]) -> Self {
        Self::with_leaf_size(data, DEFAULT_LEAF_SIZE)
    }

    /// Builds the weighted variant.
    pub fn new_weighted(data: &[Interval<E>], weights: &[f64]) -> Self {
        assert_eq!(data.len(), weights.len(), "weights must align with data");
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive"
        );
        let mut kds = Self::with_leaf_size(data, DEFAULT_LEAF_SIZE);
        // Weights follow the kd-tree's point permutation.
        let mut point_weights = Vec::with_capacity(kds.points.len());
        let mut prefix = Vec::with_capacity(kds.points.len());
        let mut acc = 0.0;
        for p in &kds.points {
            let w = weights[p.id as usize];
            point_weights.push(w);
            acc += w;
            prefix.push(acc);
        }
        kds.point_weights = point_weights;
        kds.weight_prefix = prefix;
        kds
    }

    /// Builds with an explicit leaf bucket size (ablation hook).
    pub fn with_leaf_size(data: &[Interval<E>], leaf_size: usize) -> Self {
        assert!(leaf_size >= 1, "leaf size must be at least 1");
        let mut points: Vec<Point<E>> = data
            .iter()
            .enumerate()
            .map(|(i, iv)| Point {
                lo: iv.lo,
                hi: iv.hi,
                id: i as ItemId,
            })
            .collect();
        let mut kds = Kds {
            points: Vec::new(),
            nodes: Vec::new(),
            root: NIL,
            leaf_size,
            weight_prefix: Vec::new(),
            point_weights: Vec::new(),
        };
        if !points.is_empty() {
            let n = points.len();
            kds.root = build(&mut points, 0, n, 0, leaf_size, &mut kds.nodes);
        }
        kds.points = points;
        kds
    }

    /// Number of intervals indexed.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Leaf bucket size the tree was built with.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Whether the index carries per-interval weights (built with
    /// [`Kds::new_weighted`], or decoded from a weighted snapshot).
    /// Empty indexes report `false` either way.
    pub fn is_weighted(&self) -> bool {
        !self.weight_prefix.is_empty()
    }

    /// Canonical decomposition of the query rectangle: fully covered
    /// subtrees are kept as array ranges; boundary leaves are scanned and
    /// their qualifying point positions collected.
    fn decompose(&self, q: Interval<E>, full: &mut Vec<(u32, u32)>, partial: &mut Vec<u32>) {
        if self.root == NIL {
            return;
        }
        let mut stack = vec![self.root];
        while let Some(at) = stack.pop() {
            let node = &self.nodes[at as usize];
            // Pull both children toward L1 while this node's box tests
            // run; boundary descents visit most pushed nodes anyway.
            if node.left != NIL {
                prefetch_read(&self.nodes[node.left as usize]);
                prefetch_read(&self.nodes[node.right as usize]);
            }
            if node.disjoint(&q) {
                continue;
            }
            if node.inside(&q) {
                full.push((node.begin, node.end));
                continue;
            }
            if node.left == NIL {
                // Boundary leaf: filter its bucket point by point.
                for pos in node.begin..node.end {
                    let p = &self.points[pos as usize];
                    if p.lo <= q.hi && p.hi >= q.lo {
                        partial.push(pos);
                    }
                }
                continue;
            }
            stack.push(node.left);
            stack.push(node.right);
        }
    }
}

fn build<E: Endpoint>(
    points: &mut [Point<E>],
    begin: usize,
    end: usize,
    depth: usize,
    leaf_size: usize,
    nodes: &mut Vec<KdNode<E>>,
) -> u32 {
    let slice = &points[begin..end];
    let mut min_lo = slice[0].lo;
    let mut max_lo = slice[0].lo;
    let mut min_hi = slice[0].hi;
    let mut max_hi = slice[0].hi;
    for p in &slice[1..] {
        min_lo = min_lo.min(p.lo);
        max_lo = max_lo.max(p.lo);
        min_hi = min_hi.min(p.hi);
        max_hi = max_hi.max(p.hi);
    }
    let idx = nodes.len() as u32;
    nodes.push(KdNode {
        begin: begin as u32,
        end: end as u32,
        min_lo,
        max_lo,
        min_hi,
        max_hi,
        left: NIL,
        right: NIL,
    });
    if end - begin > leaf_size {
        let mid = (end - begin) / 2;
        // Alternate split axis; in-place median partition keeps every
        // subtree a contiguous array range (the property O(1) piece
        // sampling relies on).
        if depth.is_multiple_of(2) {
            points[begin..end].select_nth_unstable_by_key(mid, |p| (p.lo, p.hi, p.id));
        } else {
            points[begin..end].select_nth_unstable_by_key(mid, |p| (p.hi, p.lo, p.id));
        }
        let left = build(points, begin, begin + mid, depth + 1, leaf_size, nodes);
        let right = build(points, begin + mid, end, depth + 1, leaf_size, nodes);
        nodes[idx as usize].left = left;
        nodes[idx as usize].right = right;
    }
    idx
}

impl<E: Endpoint> irs_core::StabbingQuery<E> for Kds<E> {
    /// Stabbing as a degenerate range query (`q.lo = q.hi = p`).
    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        self.range_search_into(Interval::point(p), out);
    }
}

impl<E: Endpoint> RangeSearch<E> for Kds<E> {
    fn range_search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        let mut full = Vec::new();
        let mut partial = Vec::new();
        self.decompose(q, &mut full, &mut partial);
        for (b, e) in full {
            out.extend(self.points[b as usize..e as usize].iter().map(|p| p.id));
        }
        out.extend(partial.iter().map(|&pos| self.points[pos as usize].id));
    }
}

impl<E: Endpoint> RangeCount<E> for Kds<E> {
    /// `O(√n)` range counting: full pieces contribute their size, boundary
    /// leaves are scanned.
    fn range_count(&self, q: Interval<E>) -> usize {
        let mut full = Vec::new();
        let mut partial = Vec::new();
        self.decompose(q, &mut full, &mut partial);
        full.iter().map(|&(b, e)| (e - b) as usize).sum::<usize>() + partial.len()
    }
}

/// Phase-2 handle of KDS: the canonical decomposition. Sampling builds an
/// alias over pieces (boundary matches pooled as one pseudo-piece), then
/// draws `O(1)` per sample (unweighted) or `O(log n)` (weighted).
pub struct KdsPrepared<'a, E> {
    kds: &'a Kds<E>,
    full: Vec<(u32, u32)>,
    partial: Vec<u32>,
    weighted: bool,
}

impl<E: Endpoint> KdsPrepared<'_, E> {
    /// Total result-set weight `Σ_{x ∈ q∩X} w(x)`, read off the canonical
    /// decomposition: `O(pieces)` via the weight prefix sums — no
    /// enumeration of the result set. Unweighted handles count 1 per
    /// candidate.
    pub fn total_weight(&self) -> f64 {
        if !self.weighted {
            return self.candidate_count() as f64;
        }
        let prefix = &self.kds.weight_prefix;
        let full: f64 = self
            .full
            .iter()
            .map(|&(b, e)| {
                let base = if b == 0 { 0.0 } else { prefix[b as usize - 1] };
                prefix[e as usize - 1] - base
            })
            .sum();
        let partial: f64 = self
            .partial
            .iter()
            .map(|&pos| self.kds.point_weights[pos as usize])
            .sum();
        full + partial
    }
}

impl<E: Endpoint> PreparedSampler for KdsPrepared<'_, E> {
    fn candidate_count(&self) -> usize {
        self.full
            .iter()
            .map(|&(b, e)| (e - b) as usize)
            .sum::<usize>()
            + self.partial.len()
    }

    fn sample_into<R: rand::RngCore + ?Sized>(&self, rng: &mut R, s: usize, out: &mut Vec<ItemId>) {
        let n_full = self.full.len();
        let has_partial = !self.partial.is_empty();
        if n_full == 0 && !has_partial {
            return;
        }
        let mut weights: Vec<f64> = Vec::with_capacity(n_full + 1);
        let mut partial_cum: Vec<f64> = Vec::new();
        if self.weighted {
            let prefix = &self.kds.weight_prefix;
            for &(b, e) in &self.full {
                let base = if b == 0 { 0.0 } else { prefix[b as usize - 1] };
                weights.push(prefix[e as usize - 1] - base);
            }
            if has_partial {
                let mut acc = 0.0;
                partial_cum.reserve(self.partial.len());
                for &pos in &self.partial {
                    acc += self.kds.point_weights[pos as usize];
                    partial_cum.push(acc);
                }
                weights.push(acc);
            }
        } else {
            weights.extend(self.full.iter().map(|&(b, e)| (e - b) as f64));
            if has_partial {
                weights.push(self.partial.len() as f64);
            }
        }
        let alias = AliasTable::new(&weights);
        out.reserve(s);
        // Chunked three-pass draw loop: (1) batched alias draws while the
        // table's cells are hot, (2) per-draw position resolution issuing
        // a prefetch for the point each draw resolved, (3) id gather in
        // draw order. RNG consumption order is identical to a draw-at-a-
        // time loop, so seeded replay is chunk-size independent.
        let mut ks = [0u32; DRAW_CHUNK];
        let mut poss = [0usize; DRAW_CHUNK];
        let mut done = 0;
        while done < s {
            let c = DRAW_CHUNK.min(s - done);
            alias.sample_fill(rng, &mut ks[..c]);
            for i in 0..c {
                let k = ks[i] as usize;
                let pos = if k < n_full {
                    let (b, e) = self.full[k];
                    if self.weighted {
                        sample_prefix_range(
                            &self.kds.weight_prefix,
                            b as usize,
                            e as usize - 1,
                            rng,
                        )
                    } else {
                        rand::Rng::random_range(&mut *rng, b as usize..e as usize)
                    }
                } else {
                    let j = if self.weighted {
                        sample_prefix_range(&partial_cum, 0, partial_cum.len() - 1, rng)
                    } else {
                        rand::Rng::random_range(&mut *rng, 0..self.partial.len())
                    };
                    self.partial[j] as usize
                };
                prefetch_read(&self.kds.points[pos]);
                poss[i] = pos;
            }
            for &pos in &poss[..c] {
                out.push(self.kds.points[pos].id);
            }
            done += c;
        }
    }
}

impl<E: Endpoint> RangeSampler<E> for Kds<E> {
    type Prepared<'a> = KdsPrepared<'a, E>;

    fn prepare(&self, q: Interval<E>) -> KdsPrepared<'_, E> {
        let mut full = Vec::new();
        let mut partial = Vec::new();
        self.decompose(q, &mut full, &mut partial);
        KdsPrepared {
            kds: self,
            full,
            partial,
            weighted: false,
        }
    }
}

impl<E: Endpoint> WeightedRangeSampler<E> for Kds<E> {
    type Prepared<'a> = KdsPrepared<'a, E>;

    fn prepare_weighted(&self, q: Interval<E>) -> KdsPrepared<'_, E> {
        assert!(
            !self.weight_prefix.is_empty() || self.is_empty(),
            "weighted sampling requires Kds::new_weighted"
        );
        let mut full = Vec::new();
        let mut partial = Vec::new();
        self.decompose(q, &mut full, &mut partial);
        KdsPrepared {
            kds: self,
            full,
            partial,
            weighted: true,
        }
    }
}

impl<E: Endpoint> MemoryFootprint for Kds<E> {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.points)
            + vec_bytes(&self.nodes)
            + vec_bytes(&self.weight_prefix)
            + vec_bytes(&self.point_weights)
    }
}

// ---------------------------------------------------------------------
// On-disk codec (see DESIGN.md, "On-disk snapshot format").

use irs_core::persist::{check_arena_link, Codec, PersistError, Reader};

impl<E: Endpoint + Codec> Codec for Point<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.lo.encode_into(out);
        self.hi.encode_into(out);
        self.id.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Point {
            lo: E::decode(r)?,
            hi: E::decode(r)?,
            id: ItemId::decode(r)?,
        })
    }
}

impl<E: Endpoint + Codec> Codec for KdNode<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.begin.encode_into(out);
        self.end.encode_into(out);
        self.min_lo.encode_into(out);
        self.max_lo.encode_into(out);
        self.min_hi.encode_into(out);
        self.max_hi.encode_into(out);
        self.left.encode_into(out);
        self.right.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(KdNode {
            begin: u32::decode(r)?,
            end: u32::decode(r)?,
            min_lo: E::decode(r)?,
            max_lo: E::decode(r)?,
            min_hi: E::decode(r)?,
            max_hi: E::decode(r)?,
            left: u32::decode(r)?,
            right: u32::decode(r)?,
        })
    }
}

impl<E: Endpoint + Codec> Codec for Kds<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.points.encode_into(out);
        self.nodes.encode_into(out);
        self.root.encode_into(out);
        self.leaf_size.encode_into(out);
        self.weight_prefix.encode_into(out);
        self.point_weights.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let points: Vec<Point<E>> = Vec::decode(r)?;
        if points.iter().any(|p| p.id as usize >= points.len()) {
            return Err(PersistError::Corrupt {
                what: "kd-tree point id out of range",
            });
        }
        let nodes: Vec<KdNode<E>> = Vec::decode(r)?;
        let root = u32::decode(r)?;
        check_arena_link(root, nodes.len(), "kd-tree link out of range")?;
        for n in &nodes {
            check_arena_link(n.left, nodes.len(), "kd-tree link out of range")?;
            check_arena_link(n.right, nodes.len(), "kd-tree link out of range")?;
        }
        if nodes
            .iter()
            .any(|n| n.begin > n.end || n.end as usize > points.len())
        {
            return Err(PersistError::Corrupt {
                what: "kd-tree node range outside the point array",
            });
        }
        let leaf_size = usize::decode(r)?;
        if leaf_size == 0 {
            return Err(PersistError::Corrupt {
                what: "kd-tree leaf size is zero",
            });
        }
        let weight_prefix: Vec<f64> = Vec::decode(r)?;
        let point_weights: Vec<f64> = Vec::decode(r)?;
        if !weight_prefix.is_empty()
            && (weight_prefix.len() != points.len() || point_weights.len() != points.len())
        {
            return Err(PersistError::Corrupt {
                what: "kd-tree weight arrays do not match the point array",
            });
        }
        Ok(Kds {
            points,
            nodes,
            root,
            leaf_size,
            weight_prefix,
            point_weights,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::BruteForce;
    use irs_sampling::stats::{chi_square_ok, chi_square_uniformity_ok};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn iv(lo: i64, hi: i64) -> Interval<i64> {
        Interval::new(lo, hi)
    }

    fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_index() {
        let kds = Kds::<i64>::new(&[]);
        assert!(kds.is_empty());
        assert!(kds.range_search(iv(0, 10)).is_empty());
        assert_eq!(kds.range_count(iv(0, 10)), 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(kds.sample(iv(0, 10), 5, &mut rng).is_empty());
    }

    #[test]
    fn matches_oracle_on_fixture() {
        let data: Vec<_> = (0..777)
            .map(|i| iv((i * 31) % 500, (i * 31) % 500 + i % 40))
            .collect();
        let kds = Kds::new(&data);
        let bf = BruteForce::new(&data);
        for q in [
            iv(0, 550),
            iv(100, 101),
            iv(499, 520),
            iv(-10, -1),
            iv(250, 250),
        ] {
            assert_eq!(
                sorted(kds.range_search(q)),
                sorted(bf.range_search(q)),
                "query {q:?}"
            );
            assert_eq!(kds.range_count(q), bf.range_count(q), "count {q:?}");
        }
    }

    #[test]
    fn leaf_size_one_still_correct() {
        let data: Vec<_> = (0..100).map(|i| iv(i, i + 7)).collect();
        let kds = Kds::with_leaf_size(&data, 1);
        let bf = BruteForce::new(&data);
        let q = iv(20, 40);
        assert_eq!(sorted(kds.range_search(q)), sorted(bf.range_search(q)));
    }

    #[test]
    fn uniform_sampling_chi_square() {
        let data: Vec<_> = (0..400).map(|i| iv(i, i + 60)).collect();
        let kds = Kds::new(&data);
        let bf = BruteForce::new(&data);
        let q = iv(150, 200);
        let support = sorted(bf.range_search(q));
        let mut rng = StdRng::seed_from_u64(21);
        let draws = 200_000usize;
        let mut counts = vec![0u64; support.len()];
        for id in kds.sample(q, draws, &mut rng) {
            counts[irs_sampling::stats::expect_in_support(&support, &id)] += 1;
        }
        assert!(
            chi_square_uniformity_ok(&counts, draws as u64),
            "KDS sampling not uniform"
        );
    }

    #[test]
    fn weighted_sampling_matches_weights() {
        let data: Vec<_> = (0..60).map(|i| iv(i, i + 30)).collect();
        let weights: Vec<f64> = (0..60).map(|i| 1.0 + (i % 5) as f64 * 7.0).collect();
        let kds = Kds::new_weighted(&data, &weights);
        let bf = BruteForce::new_weighted(&data, &weights);
        let q = iv(25, 45);
        let support = sorted(bf.range_search(q));
        let total: f64 = support.iter().map(|&id| weights[id as usize]).sum();
        let expected: Vec<f64> = support
            .iter()
            .map(|&id| weights[id as usize] / total)
            .collect();
        let mut rng = StdRng::seed_from_u64(22);
        let draws = 250_000usize;
        let mut counts = vec![0u64; support.len()];
        for id in kds.sample_weighted(q, draws, &mut rng) {
            counts[irs_sampling::stats::expect_in_support(&support, &id)] += 1;
        }
        assert!(
            chi_square_ok(&counts, &expected, draws as u64),
            "KDS weighted sampling off"
        );
    }

    #[test]
    fn decomposition_is_sublinear_for_large_queries() {
        let data: Vec<_> = (0..65_536).map(|i| iv(i, i + 20)).collect();
        let kds = Kds::new(&data);
        let prepared = kds.prepare(iv(10_000, 50_000));
        // O(√n) pieces: for n = 65536 expect on the order of hundreds,
        // certainly far below n / leaf_size = 4096.
        let pieces = prepared.full.len() + prepared.partial.len().div_ceil(DEFAULT_LEAF_SIZE);
        assert!(
            pieces < 1500,
            "{pieces} canonical pieces — decomposition not sublinear"
        );
        assert_eq!(
            prepared.candidate_count(),
            kds.range_count(iv(10_000, 50_000))
        );
    }

    #[test]
    fn duplicate_points() {
        let data = vec![iv(5, 10); 50];
        let kds = Kds::new(&data);
        assert_eq!(kds.range_count(iv(7, 8)), 50);
        let mut rng = StdRng::seed_from_u64(3);
        let samples = kds.sample(iv(0, 20), 500, &mut rng);
        assert_eq!(samples.len(), 500);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_matches_oracle(
            raw in prop::collection::vec((-500i64..500, 0i64..300), 1..300),
            queries in prop::collection::vec((-600i64..600, 0i64..500), 12),
            leaf in 1usize..40,
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let kds = Kds::with_leaf_size(&data, leaf);
            let bf = BruteForce::new(&data);
            for &(lo, len) in &queries {
                let q = iv(lo, lo + len);
                prop_assert_eq!(sorted(kds.range_search(q)), sorted(bf.range_search(q)));
                prop_assert_eq!(kds.range_count(q), bf.range_count(q));
            }
        }
    }
}
