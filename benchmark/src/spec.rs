//! The benchmark's dictionary: every workload and every metric, by the
//! name a later performance claim has to cite. `list` prints it,
//! `BENCHMARK.json` mirrors it (a unit test keeps the two equal), and
//! README.md explains it.

use irs::IndexKind;

/// Which top path a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopPath {
    /// The in-process `Client`.
    Lib,
    /// `irs-cli serve --data <csv>` as a child: `Backing::Single`, no log.
    WireSingle,
    /// `irs-cli serve --catalog <dir> --wal <file>` as a child,
    /// restarted from a saved catalog snapshot.
    WireCatalogWal,
}

/// What one call of the query phase asks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CallShape {
    /// One sampling query of `s` draws at `extent_pct` % of the domain.
    One { s: usize, extent_pct: f64 },
    /// The 16-query mixed batch of `lib-sharded-mixed`.
    Batch16,
}

impl CallShape {
    pub fn queries_per_call(self) -> usize {
        match self {
            CallShape::One { .. } => 1,
            CallShape::Batch16 => 16,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One sentence: which layers carry the cost, so which change must
    /// (and must not) move it.
    pub why: &'static str,
    pub path: TopPath,
    pub kind: IndexKind,
    pub weighted: bool,
    /// Intervals per index; the dataset is `n_per_index * shards`.
    pub n_per_index: usize,
    pub shards: usize,
    pub callers: usize,
    /// Timed set-ups per run, after one discarded.
    pub timed_setups: usize,
    /// Mutations in the fixed-count mutation phase.
    pub mutations: usize,
    pub call: CallShape,
    /// Mutations per second issued beside the query phase (open loop).
    pub writes_beside_reads_per_s: Option<f64>,
}

impl WorkloadSpec {
    pub fn n(&self) -> usize {
        self.n_per_index * self.shards
    }
}

/// Rule 5: larger indexes measured 25 % run-to-run swings from
/// neighbours' memory traffic on the reference host.
pub const N_PER_INDEX: usize = 250_000;

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "lib-weighted-wide",
        why: "Problem 2 at the paper's defaults (awit-dynamic, s=1000, 8% extent) in process: all irs_ait + irs_sampling, so a search-form, layout or arena change shows here and nowhere else",
        path: TopPath::Lib,
        kind: IndexKind::AwitDynamic,
        weighted: true,
        n_per_index: N_PER_INDEX,
        shards: 1,
        callers: 1,
        timed_setups: 7,
        mutations: 9000,
        call: CallShape::One {
            s: 1000,
            extent_pct: 8.0,
        },
        writes_beside_reads_per_s: None,
    },
    WorkloadSpec {
        name: "lib-sharded-mixed",
        why: "16-query mixed batches from 2 callers on a 4-shard ait Engine behind Client: shard read locks, multinomial allocation, scratch, merge, mutation workers carry the cost; a wire change must not move it",
        path: TopPath::Lib,
        kind: IndexKind::Ait,
        weighted: false,
        n_per_index: N_PER_INDEX,
        shards: 4,
        callers: 2,
        timed_setups: 3,
        mutations: 1000,
        call: CallShape::Batch16,
        writes_beside_reads_per_s: None,
    },
    WorkloadSpec {
        name: "wire-small-s",
        why: "one Sample s=10 at 0.1% per frame against irs-cli serve: index work is a fifth of a same-CPU round trip, so irs_wire codec + framing + irs_server dispatch do the work; an index change must not move it",
        path: TopPath::WireSingle,
        kind: IndexKind::Ait,
        weighted: false,
        n_per_index: N_PER_INDEX,
        shards: 1,
        callers: 1,
        timed_setups: 7,
        mutations: 1000,
        call: CallShape::One {
            s: 10,
            extent_pct: 0.1,
        },
        writes_beside_reads_per_s: None,
    },
    WorkloadSpec {
        name: "wire-write-beside-read",
        why: "catalog + WAL server restarted from a snapshot, reads beside 40 logged writes/s: query_qps is read goodput lost to the write lock and WAL mutex; a read gain bought with write cost shows only here",
        path: TopPath::WireCatalogWal,
        kind: IndexKind::Ait,
        weighted: false,
        n_per_index: N_PER_INDEX,
        shards: 1,
        callers: 1,
        timed_setups: 5,
        mutations: 1000,
        call: CallShape::One {
            s: 100,
            extent_pct: 1.0,
        },
        writes_beside_reads_per_s: Some(40.0),
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some` = gated end-to-end metric with its regression bound (a
    /// share of the parent's median); `None` = ungated per-layer metric.
    pub bound: Option<f64>,
    /// The prediction written down before measuring: which end-to-end
    /// metric this one should move, on which workload.
    pub moves: &'static str,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees: the paper's four numbers (query
/// time, update time, pre-processing time, memory) as six metrics. Every
/// workload reports all of them on every plain run.
///
/// The timing bounds are the driver contract's largest, 25 %, not the
/// issue's sizing guess of a tenth. The contract wants a spread (IQR over
/// median of ten runs) under a third of the bound; on the reference host
/// (2-vCPU KVM guest) the timing metrics spread by 3-9 % over ten runs in
/// quiet minutes and by 1-18 % in noisy ones, so no bound the contract
/// allows leaves that margin on every workload, and a tenth would fail on
/// identical code. README.md ("What was measured to get here") has the
/// tables and the noise source.
pub const END_TO_END: [MetricSpec; 6] = [
    gated("setup_s", "s", Lower, 0.25, "itself: seeded data -> index ready -> first verified answer through the top path (warm restart on wire-write-beside-read); median of the timed set-ups"),
    gated("query_qps", "1/s", Higher, 0.25, "itself: queries completed per second, closed loop, in the best quarter-second block of the query phase"),
    gated("query_p50_us", "us", Lower, 0.25, "itself: median latency of one call in the quietest quarter-second block of the query phase"),
    gated("mutation_ops_s", "1/s", Higher, 0.25, "itself: acked mutations per second in the best block (one rebuild cycle, or a tenth) of the fixed-count mutation phase"),
    gated("heap_bytes_per_interval", "B", Lower, 0.01, "itself: Client::heap_bytes() / n after set-up (exact)"),
    gated("rss_mib", "MiB", Lower, 0.05, "itself: VmRSS of the process holding the index after the last set-up"),
];

// Shorthands for the `moves` column.
const Q_WIDE: &str = "query_p50_us, query_qps on lib-weighted-wide; none on wire-small-s";
const Q_SHARDED: &str = "query_p50_us, query_qps on lib-sharded-mixed";
const Q_WIRE: &str = "query_p50_us, query_qps on wire-small-s; none on lib-*";
const Q_WBR: &str = "query_p50_us on wire-write-beside-read";
const SETUP_BUILD: &str =
    "setup_s on lib-* and wire-small-s (wire-write-beside-read loads instead)";
const MUT_AIT: &str = "mutation_ops_s on the three ait workloads; query_qps on wire-write-beside-read (shorter write-lock hold)";
const MUT_SHARDED: &str = "mutation_ops_s on lib-sharded-mixed";
const HEAP: &str = "heap_bytes_per_interval, rss_mib";
const INFO: &str = "informational";
const OPEN: &str = "none gated: includes the cross-CPU wake-up of the open-loop generator";

/// Single layers, timed from outside through their public functions in
/// the traced run (`--trace 1`), plus the end-to-end tails that are too
/// timer- and neighbour-sensitive to gate.
pub const PER_LAYER: [MetricSpec; 86] = [
    layer(
        "query_p99_us",
        "us",
        Lower,
        "tail of query_p50_us; ungated: timer- and neighbour-sensitive",
    ),
    layer("mutation_p50_us", "us", Lower, "mutation_ops_s"),
    layer(
        "mutation_p99_us",
        "us",
        Lower,
        "rebuild/flush stalls inside mutation_ops_s",
    ),
    layer(
        "mutation_max_us",
        "us",
        Lower,
        "the single worst stall (a rebuild, or the first delete's id table)",
    ),
    layer(
        "setup_cold_s",
        "s",
        Lower,
        "the discarded first set-up (fresh page faults)",
    ),
    layer(
        "read_stall_max_us",
        "us",
        Lower,
        "longest read beside logged writes (wire-write-beside-read's mechanism)",
    ),
    layer(
        "host.steal_share",
        "ratio",
        Lower,
        "noise: share of the pinned CPU taken by the hypervisor",
    ),
    layer("irs_sampling.alias_fill_ns_per_draw", "ns", Lower, Q_WIDE),
    layer(
        "irs_sampling.window_fill_ns_per_draw.w32",
        "ns",
        Lower,
        Q_WIDE,
    ),
    layer(
        "irs_sampling.window_fill_ns_per_draw.w1024",
        "ns",
        Lower,
        Q_WIDE,
    ),
    layer(
        "irs_sampling.window_fill_ns_per_draw.w65536",
        "ns",
        Lower,
        Q_WIDE,
    ),
    layer(
        "irs_sampling.window_draw_ns.w1024",
        "ns",
        Lower,
        "query_* on lib-weighted-wide (the unbatched DynamicAwit draw)",
    ),
    layer(
        "irs_sampling.eytzinger_range_ns_per_draw.w65536",
        "ns",
        Lower,
        Q_WIDE,
    ),
    layer("irs_sampling.eytzinger_pp_ns.w65536", "ns", Lower, Q_WIDE),
    layer("irs_sampling.slice_pp_ns.w65536", "ns", Lower, Q_WIDE),
    layer("irs_ait.ait.build_s", "s", Lower, SETUP_BUILD),
    layer(
        "irs_ait.awit.build_s",
        "s",
        Lower,
        "setup_s and (via rebuild) mutation_ops_s on lib-weighted-wide",
    ),
    layer(
        "irs_ait.dynamic_awit.rebuild_s",
        "s",
        Lower,
        "mutation_ops_s on lib-weighted-wide",
    ),
    layer("irs_ait.ait.prepare_us", "us", Lower, Q_SHARDED),
    layer("irs_ait.ait.draw_ns_per_sample", "ns", Lower, Q_SHARDED),
    layer("irs_ait.ait.search_ns_per_id", "ns", Lower, Q_SHARDED),
    layer(
        "irs_ait.ait.candidates_per_query",
        "count",
        Lower,
        "exact; query_* on lib-sharded-mixed",
    ),
    layer("irs_ait.awit.prepare_us", "us", Lower, Q_WIDE),
    layer("irs_ait.awit.draw_ns_per_sample", "ns", Lower, Q_WIDE),
    layer("irs_ait.dynamic_awit.prepare_us", "us", Lower, Q_WIDE),
    layer(
        "irs_ait.dynamic_awit.draw_ns_per_sample",
        "ns",
        Lower,
        Q_WIDE,
    ),
    layer("irs_ait.ait.insert_us", "us", Lower, MUT_AIT),
    layer("irs_ait.ait.insert_buffered_us", "us", Lower, INFO),
    layer("irs_ait.ait.delete_us", "us", Lower, MUT_AIT),
    layer(
        "irs_ait.dynamic_awit.insert_us",
        "us",
        Lower,
        "mutation_ops_s on lib-weighted-wide",
    ),
    layer("irs_ait.ait.heap_bytes_per_interval", "B", Lower, HEAP),
    layer("irs_ait.awit.heap_bytes_per_interval", "B", Lower, HEAP),
    layer("irs_ait.aitv.sample_us", "us", Lower, INFO),
    layer("irs_kds.sample_us", "us", Lower, INFO),
    layer(
        "irs_engine.dyn_added_us",
        "us",
        Lower,
        "query_p50_us on every workload (Box<dyn DynIndex> minus concrete)",
    ),
    layer("irs_engine.run_added_us.k1", "us", Lower, INFO),
    layer("irs_engine.run_added_us.k4", "us", Lower, Q_SHARDED),
    layer("irs_engine.batch16_us_per_query", "us", Lower, Q_SHARDED),
    layer(
        "irs_engine.two_caller_speedup",
        "ratio",
        Higher,
        "query_qps on lib-sharded-mixed",
    ),
    layer("irs_engine.apply_added_us", "us", Lower, MUT_SHARDED),
    layer(
        "irs_client.run_added_us.mono",
        "us",
        Lower,
        "query_p50_us on lib-weighted-wide and wire-* (predicted ~0)",
    ),
    layer(
        "irs_client.run_added_us.sharded",
        "us",
        Lower,
        "query_p50_us on lib-sharded-mixed (predicted ~0)",
    ),
    layer(
        "irs_client.apply_added_us",
        "us",
        Lower,
        "mutation_ops_s on lib-* (predicted ~0)",
    ),
    layer("irs_catalog.run_in_added_us", "us", Lower, Q_WBR),
    layer(
        "irs_catalog.apply_in_added_us",
        "us",
        Lower,
        "mutation_ops_s on wire-write-beside-read",
    ),
    layer("irs_catalog.save_s", "s", Lower, INFO),
    layer(
        "irs_catalog.load_s",
        "s",
        Lower,
        "setup_s on wire-write-beside-read",
    ),
    layer(
        "irs_core.persist.snapshot_bytes_per_interval",
        "B",
        Lower,
        "exact; setup_s on wire-write-beside-read",
    ),
    layer(
        "irs_datagen.load_csv_s",
        "s",
        Lower,
        "setup_s on wire-small-s",
    ),
    layer("irs_wire.request_encode_ns", "ns", Lower, Q_WIRE),
    layer("irs_wire.request_decode_ns", "ns", Lower, Q_WIRE),
    layer("irs_wire.response_encode_ns.s10", "ns", Lower, Q_WIRE),
    layer("irs_wire.response_encode_ns.s1000", "ns", Lower, INFO),
    layer("irs_wire.response_decode_ns.s10", "ns", Lower, Q_WIRE),
    layer("irs_wire.response_decode_ns.s1000", "ns", Lower, INFO),
    layer("irs_wire.frame_ns", "ns", Lower, Q_WIRE),
    layer("irs_wire.request_bytes", "B", Lower, "exact"),
    layer("irs_wire.response_bytes.s10", "B", Lower, "exact"),
    layer("irs_wire.response_bytes.s1000", "B", Lower, "exact"),
    layer(
        "irs_server.health_rtt_us",
        "us",
        Lower,
        "query_p50_us on wire-* (the floor of a round trip)",
    ),
    layer("irs_server.dispatch_added_us", "us", Lower, Q_WIRE),
    layer("irs_server.connect_us", "us", Lower, "setup_s on wire-*"),
    layer(
        "irs_server.requests",
        "count",
        Higher,
        "wire Stats counter, for ratios",
    ),
    layer(
        "irs_server.protocol_errors",
        "count",
        Lower,
        "0 on a good run; the gate fails otherwise",
    ),
    layer("irs_server.open_p50_us.r1000", "us", Lower, OPEN),
    layer("irs_server.open_p50_us.r5000", "us", Lower, OPEN),
    layer("irs_server.open_p50_us.r10000", "us", Lower, OPEN),
    layer("irs_server.open_p99_us.r1000", "us", Lower, OPEN),
    layer("irs_server.open_p99_us.r5000", "us", Lower, OPEN),
    layer("irs_server.open_p99_us.r10000", "us", Lower, OPEN),
    layer(
        "irs_server.slo_rate_qps",
        "1/s",
        Higher,
        "highest fixed rate with open-loop p99 <= 1000 us",
    ),
    layer(
        "irs_server.loadgen.lateness_p99_us.r1000",
        "us",
        Lower,
        "how late the generator ran",
    ),
    layer(
        "irs_server.loadgen.lateness_p99_us.r5000",
        "us",
        Lower,
        "how late the generator ran",
    ),
    layer(
        "irs_server.loadgen.lateness_p99_us.r10000",
        "us",
        Lower,
        "how late the generator ran",
    ),
    layer(
        "irs_server.loadgen.writer_lateness_p99_us",
        "us",
        Lower,
        "how late the 40/s writer ran",
    ),
    layer(
        "irs_core.wal.append_us",
        "us",
        Lower,
        "mutation_ops_s on wire-write-beside-read (predicted ~2 % of a mutation)",
    ),
    layer("irs_core.wal.bytes_per_mutation", "B", Lower, "exact"),
    layer(
        "irs_core.wal.recover_us_per_record",
        "us",
        Lower,
        "setup_s on wire-write-beside-read after a crash",
    ),
    layer(
        "irs_core.wal.apply_added_us",
        "us",
        Lower,
        "mutation_ops_s on wire-write-beside-read",
    ),
    layer(
        "trace.overhead_share",
        "ratio",
        Lower,
        "cost of span recording on the top rung",
    ),
    layer(
        "trace.top_rung_p50_us",
        "us",
        Lower,
        "query_p50_us of the same workload (one caller)",
    ),
    layer(
        "trace.self_sum_share",
        "ratio",
        Higher,
        "rung self times summed over the top rung's median (1 = accounted for)",
    ),
    layer(
        "trace.share.index",
        "ratio",
        Lower,
        "share of the top rung spent in the concrete index",
    ),
    layer(
        "trace.share.engine_client_catalog",
        "ratio",
        Lower,
        "share added by dyn + engine/client + catalog",
    ),
    layer(
        "trace.share.wire_server",
        "ratio",
        Lower,
        "share added by codec, framing, sockets and dispatch",
    ),
    layer(
        "trace.share.wal",
        "ratio",
        Lower,
        "share of a remote mutation added by the log",
    ),
];

pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_fit_the_contract_and_are_used_once() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    /// `BENCHMARK.json` is what the driver reads; `list` is what people
    /// read. Both are rendered from this dictionary, so the committed file
    /// must equal what `list --benchmark-json` prints.
    #[test]
    fn benchmark_json_equals_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(committed, crate::report::benchmark_json());
    }
}
