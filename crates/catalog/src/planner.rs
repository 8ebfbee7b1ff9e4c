//! The adaptive planner: picks an [`IndexKind`] from declared
//! [`WorkloadHints`] using the capability table plus a static cost
//! model from frozen throughput rows.
//!
//! Two stages:
//!
//! 1. **Capability filter.** A positive `update_rate` restricts the
//!    candidate set to update-capable kinds (`ait`, or `awit-dynamic`
//!    when weighted); a read-only workload considers the static kinds
//!    (weighted workloads only the weighted-capable ones). This stage
//!    alone guarantees the contract the catalog tests pin: churning
//!    hints never land on a static snapshot.
//! 2. **Cost model.** Among the survivors, each kind is scored by a
//!    throughput estimate from `SAMPLE_QPS` / `SEARCH_QPS`: QPS at
//!    `n = 200 000` and `n = 1 000 000`, interpolated log-linearly in
//!    the collection size and blended between the *sampling* and
//!    *enumeration* columns by `expected_extent` (wider queries shift
//!    weight toward enumeration throughput). Every kind has a pinned
//!    row; ties break in [`IndexKind::ALL`] order. The model is
//!    deliberately static, so planning is deterministic across
//!    machines.
//!
//! The rows are frozen: the tool that measured them is gone, and
//! nothing re-measures them. Today's measurements come from the repo
//! benchmark (`bash benchmark/run.sh`, per-layer rungs with
//! `--trace 1`) and the paper's per-kind tables from the `repro`
//! runner in `irs-bench`; ROADMAP item 16 replaces these rows with
//! committed per-kind results.

use crate::WorkloadHints;
use irs_engine::IndexKind;

/// One pinned bench row pair: `(kind, qps@200k, qps@1M)`.
type Row = (IndexKind, f64, f64);

/// Sampling QPS (1 shard, 1 thread, batch 256, s = 1000, taxi profile,
/// seed 42): a frozen copy of the 1-shard rows of a 1-CPU baseline file
/// the repo no longer carries (`git show
/// 395b854:BENCH_2026-08-07.json`). Kept byte-for-byte so every planner
/// pick stays what it was; ROADMAP item 16 replaces it.
const SAMPLE_QPS: [Row; 5] = [
    (IndexKind::Ait, 21_549.6, 16_807.3),
    (IndexKind::AitV, 15_938.6, 7_770.1),
    (IndexKind::Awit, 14_950.5, 5_694.0),
    (IndexKind::AwitDynamic, 10_890.7, 4_599.0),
    (IndexKind::Kds, 35_343.5, 16_460.1),
];

/// Enumeration QPS from the same frozen rows; item 16 replaces it too.
const SEARCH_QPS: [Row; 5] = [
    (IndexKind::Ait, 139_489.8, 6_220.7),
    (IndexKind::AitV, 43_108.3, 5_781.9),
    (IndexKind::Awit, 17_651.6, 5_083.6),
    (IndexKind::AwitDynamic, 46_090.4, 10_518.0),
    (IndexKind::Kds, 80_696.3, 14_735.7),
];

/// The two dataset sizes the pinned matrix measured.
const N_LO: f64 = 200_000.0;
const N_HI: f64 = 1_000_000.0;

/// QPS for `kind` at collection size `n`, log-linearly interpolated
/// between the two pinned sizes (clamped outside them). `None` for
/// kinds the pinned matrix never measured.
fn interpolate(table: &[Row], kind: IndexKind, n: usize) -> Option<f64> {
    let &(_, lo, hi) = table.iter().find(|(k, _, _)| *k == kind)?;
    let n = (n.max(1) as f64).clamp(N_LO, N_HI);
    let t = (n.ln() - N_LO.ln()) / (N_HI.ln() - N_LO.ln());
    Some(lo + (hi - lo) * t)
}

/// The planner's score for one candidate: higher is better. Public so
/// tooling (and the docs) can show why a kind won.
pub fn score(kind: IndexKind, hints: &WorkloadHints, n: usize) -> f64 {
    let extent = hints.expected_extent.clamp(0.0, 1.0);
    let sample = interpolate(&SAMPLE_QPS, kind, n).unwrap_or(0.0);
    let search = interpolate(&SEARCH_QPS, kind, n).unwrap_or(0.0);
    sample * (1.0 - extent) + search * extent
}

/// Candidate kinds after the capability filter.
pub fn candidates(hints: &WorkloadHints) -> Vec<IndexKind> {
    IndexKind::ALL
        .into_iter()
        .filter(|k| {
            let caps = k.capabilities(hints.weighted);
            if hints.update_rate > 0.0 && !caps.update {
                return false;
            }
            if hints.weighted {
                caps.weighted_sample
            } else {
                caps.uniform_sample
            }
        })
        .collect()
}

/// Picks the kind for a collection of `n` intervals declaring `hints`.
/// Deterministic: the capability filter, then the highest score, ties
/// broken in [`IndexKind::ALL`] order.
pub fn choose(hints: &WorkloadHints, n: usize) -> IndexKind {
    let candidates = candidates(hints);
    let mut best = candidates[0];
    let mut best_score = score(best, hints, n);
    for &k in &candidates[1..] {
        let s = score(k, hints, n);
        if s > best_score {
            best = k;
            best_score = s;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hints(update_rate: f64, weighted: bool, extent: f64) -> WorkloadHints {
        WorkloadHints {
            update_rate,
            weighted,
            expected_extent: extent,
        }
    }

    #[test]
    fn churning_hints_pick_update_capable_kinds() {
        for n in [0, 1_000, 200_000, 5_000_000] {
            let k = choose(&hints(0.2, false, 0.01), n);
            assert!(k.capabilities(false).update, "{k} is static");
            let k = choose(&hints(0.9, true, 0.5), n);
            assert!(k.capabilities(true).update, "{k} is static");
            assert!(k.capabilities(true).weighted_sample, "{k} not weighted");
        }
    }

    #[test]
    fn read_only_hints_pick_static_kinds() {
        for weighted in [false, true] {
            for extent in [0.0, 0.01, 0.5, 1.0] {
                let k = choose(&hints(0.0, weighted, extent), 200_000);
                // "Static" here means: the planner was free to pick a
                // snapshot kind, and with update_rate = 0 it never
                // pays for an update-capable wrapper it doesn't need.
                assert!(
                    !matches!(k, IndexKind::AwitDynamic) || weighted,
                    "uniform read-only picked the dynamic AWIT"
                );
                if weighted {
                    assert!(k.capabilities(true).weighted_sample);
                } else {
                    assert!(k.capabilities(false).uniform_sample);
                }
            }
        }
    }

    #[test]
    fn scores_interpolate_between_pinned_sizes() {
        let h = hints(0.0, false, 0.0);
        let lo = score(IndexKind::Kds, &h, 200_000);
        let mid = score(IndexKind::Kds, &h, 500_000);
        let hi = score(IndexKind::Kds, &h, 1_000_000);
        assert!(lo > mid && mid > hi, "{lo} {mid} {hi}");
        // Clamped outside the measured range.
        assert_eq!(score(IndexKind::Kds, &h, 10), lo);
        assert_eq!(score(IndexKind::Kds, &h, 50_000_000), hi);
    }

    #[test]
    fn every_kind_has_pinned_rows() {
        for k in IndexKind::ALL {
            assert!(interpolate(&SAMPLE_QPS, k, 200_000).is_some(), "{k}");
            assert!(interpolate(&SEARCH_QPS, k, 200_000).is_some(), "{k}");
        }
    }

    #[test]
    fn choice_is_deterministic() {
        let h = hints(0.0, true, 0.2);
        let first = choose(&h, 300_000);
        for _ in 0..10 {
            assert_eq!(choose(&h, 300_000), first);
        }
    }
}
