//! The traced run (`--trace 1`): every layer measured from outside, by
//! timing calls into its public functions, from the sampling primitives
//! up to a `RemoteClient` over loopback. Each call is a span recorded
//! by this file; the spans go to `benchmark/out/trace-<workload>.json`.
//!
//! The ladder replays the workload's own call through every rung,
//! rung after rung for each request (round-robin, so drift cancels),
//! and a layer's self time is its rung minus the rung below, paired per
//! request. End-to-end metrics never come from here.

use crate::check::Gate;
use crate::json::Json;
use crate::openloop::{self, WallClock};
use crate::pin;
use crate::run::{beside_writer, Measured, Stage};
use crate::spec::{CallShape, TopPath};
use crate::stats::{self, Summary};
use crate::target::{only, Server, Target, WireTarget};
use crate::workload::{self, Dataset};
use irs::catalog::{Catalog, CollectionSpec, KindSpec, DEFAULT_COLLECTION};
use irs::datagen::{uniform_weights, QueryWorkload, TAXI};
use irs::prelude::{
    Ait, AitV, Awit, Client, DynamicAwit, Engine, EngineConfig, IndexKind, Irs, Kds, RemoteClient,
};
use irs::sampling::{
    sample_prefix_range_eytzinger, sample_prefix_window, sample_prefix_window_fill, AliasTable,
    CumulativeSum, Eytzinger,
};
use irs::wire::frame::{read_frame_blocking, write_frame};
use irs::wire::message::{decode_message, encode_message};
use irs::wire::{FrameReader, Request, Response};
use irs::{
    DynIndex, Interval64, ItemId, MemoryFootprint, Mutation, PreparedSampler, Query, QueryOutput,
    RangeCount, RangeSampler, RangeSearch, StabbingQuery, UpdateOutput, WalWriter,
    WeightedRangeSampler,
};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// One timed call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span of the next rung up for the same request.
    parent: Option<u32>,
    request: u32,
}

/// Spans of a run, kept in memory and written out at the end.
#[derive(Default)]
pub struct SpanLog {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

/// Spans written per name; the traced query phase alone records
/// hundreds of thousands.
const SPANS_WRITTEN_PER_NAME: usize = 20_000;

impl SpanLog {
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant, request: u32) -> u32 {
        let origin = *self.origin.get_or_insert(start);
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            request,
        });
        self.spans.len() as u32 - 1
    }

    fn set_parent(&mut self, child: u32, parent: u32) {
        self.spans[child as usize].parent = Some(parent);
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut written = std::collections::HashMap::new();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                let n = written.entry(s.name).or_insert(0usize);
                *n += 1;
                *n <= SPANS_WRITTEN_PER_NAME
            })
            .map(|(id, s)| {
                Json::obj()
                    .with("id", id)
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as usize)),
                    )
                    .with("request", s.request as usize)
            })
            .collect();
        let doc = Json::obj()
            .with("recorded", self.spans.len())
            .with("spans", Json::Arr(spans));
        std::fs::write(path, doc.render() + "\n")
    }
}

pub struct Ladder {
    pub measured: Measured,
    /// Rung medians and self times, for the result file.
    pub report: Json,
}

/// Requests replayed through every rung, and how many times.
const LADDER_REQUESTS: usize = 128;
const LADDER_ROUNDS: usize = 4;
/// Inserts timed per mutation rung (an AIT insert is ~6 ms).
const APPLY_SAMPLES: usize = 30;
/// Queries per probe of the concrete structures.
const PROBE_QUERIES: usize = 200;
/// Seconds per open-loop rate, and of the write-beside-read probe.
const OPEN_LOOP_SECONDS: f64 = 1.0;
/// Seconds per side of the two-caller comparison.
const TWO_CALLER_SECONDS: f64 = 0.5;
const OPEN_LOOP_RATES: [(f64, &str, &str, &str); 3] = [
    (
        1000.0,
        "irs_server.open_p50_us.r1000",
        "irs_server.open_p99_us.r1000",
        "irs_server.loadgen.lateness_p99_us.r1000",
    ),
    (
        5000.0,
        "irs_server.open_p50_us.r5000",
        "irs_server.open_p99_us.r5000",
        "irs_server.loadgen.lateness_p99_us.r5000",
    ),
    (
        10000.0,
        "irs_server.open_p50_us.r10000",
        "irs_server.open_p99_us.r10000",
        "irs_server.loadgen.lateness_p99_us.r10000",
    ),
];
/// The latency limit the open-loop ladder is judged against.
const SLO_P99_US: f64 = 1000.0;

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn summary(mut values: Vec<f64>) -> Summary {
    Summary::of(&mut values)
}

/// Median over `reps` batches of `per_batch` operations, in ns per
/// operation.
fn ns_per_op(reps: usize, per_batch: usize, mut batch: impl FnMut()) -> Summary {
    summary(
        (0..reps)
            .map(|_| timed(&mut batch).0 * 1e9 / per_batch as f64)
            .collect(),
    )
}

/// `irs_sampling`: the primitives every draw is made of, on arrays of
/// the sizes the index structures hand them.
fn sampling_primitives(measured: &mut Measured, seed: u64) {
    const BATCH: usize = 1024;
    const REPS: usize = 41;
    let mut rng = SmallRng::seed_from_u64(seed);
    let weights = uniform_weights(1 << 17, seed);
    let mut buf = [0u32; BATCH];

    // An alias over as many records as a wide query collects.
    let alias = AliasTable::new(&weights[..64]);
    measured.push((
        "irs_sampling.alias_fill_ns_per_draw",
        ns_per_op(REPS, BATCH, || {
            alias.sample_fill(&mut rng, &mut buf);
            black_box(&buf);
        }),
    ));

    let cumulative = CumulativeSum::new(&weights);
    let prefix = cumulative.prefix();
    let lo = 1000;
    let window = |w: usize| {
        let base = prefix[lo - 1];
        (&prefix[lo..lo + w], base, prefix[lo + w - 1] - base)
    };
    for (w, name) in [
        (32, "irs_sampling.window_fill_ns_per_draw.w32"),
        (1024, "irs_sampling.window_fill_ns_per_draw.w1024"),
        (65536, "irs_sampling.window_fill_ns_per_draw.w65536"),
    ] {
        let (win, base, total) = window(w);
        measured.push((
            name,
            ns_per_op(REPS, BATCH, || {
                sample_prefix_window_fill(win, base, total, &mut rng, &mut buf);
                black_box(&buf);
            }),
        ));
    }
    let (win, base, total) = window(1024);
    measured.push((
        "irs_sampling.window_draw_ns.w1024",
        ns_per_op(REPS, BATCH, || {
            for slot in buf.iter_mut() {
                *slot = sample_prefix_window(win, base, total, &mut rng) as u32;
            }
            black_box(&buf);
        }),
    ));

    let layout = Eytzinger::from_sorted(prefix);
    measured.push((
        "irs_sampling.eytzinger_range_ns_per_draw.w65536",
        ns_per_op(REPS, BATCH, || {
            for slot in buf.iter_mut() {
                *slot =
                    sample_prefix_range_eytzinger(&layout, prefix, lo, lo + 65535, &mut rng) as u32;
            }
            black_box(&buf);
        }),
    ));

    let sorted = &prefix[..65536];
    let layout = Eytzinger::from_sorted(sorted);
    let top = sorted[sorted.len() - 1];
    let needles: Vec<f64> = (0..BATCH).map(|_| rng.random_range(0.0..top)).collect();
    measured.push((
        "irs_sampling.eytzinger_pp_ns.w65536",
        ns_per_op(REPS, BATCH, || {
            for (slot, &u) in buf.iter_mut().zip(&needles) {
                *slot = layout.partition_point(|&p| p < u) as u32;
            }
            black_box(&buf);
        }),
    ));
    measured.push((
        "irs_sampling.slice_pp_ns.w65536",
        ns_per_op(REPS, BATCH, || {
            for (slot, &u) in buf.iter_mut().zip(&needles) {
                *slot = sorted.partition_point(|&p| p < u) as u32;
            }
            black_box(&buf);
        }),
    ));
}

/// Phase-1 and phase-2 cost of one structure over the probe queries:
/// `(prepare µs, draw ns per sample, mean candidates)`.
fn probe_sampler<P: PreparedSampler>(
    queries: &[Interval64],
    seed: u64,
    prepare: impl Fn(Interval64) -> P,
) -> (Summary, Summary, f64) {
    const S: usize = 1000;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut prepare_us = Vec::with_capacity(queries.len());
    let mut draw_ns = Vec::with_capacity(queries.len());
    let mut candidates = 0usize;
    let mut out = Vec::with_capacity(S);
    for &q in queries {
        let (t, prepared) = timed(|| prepare(q));
        prepare_us.push(t * 1e6);
        candidates += prepared.candidate_count();
        out.clear();
        let (t, ()) = timed(|| prepared.sample_into(&mut rng, S, &mut out));
        draw_ns.push(t * 1e9 / S as f64);
        black_box(&out);
    }
    (
        summary(prepare_us),
        summary(draw_ns),
        candidates as f64 / queries.len() as f64,
    )
}

/// Whole-query cost (`prepare` + `s = 1000` draws) in µs.
fn probe_sample_us<P: PreparedSampler>(
    queries: &[Interval64],
    seed: u64,
    prepare: impl Fn(Interval64) -> P,
) -> Summary {
    let mut rng = SmallRng::seed_from_u64(seed);
    summary(
        queries
            .iter()
            .map(|&q| {
                let mut out = Vec::with_capacity(1000);
                let (t, ()) = timed(|| prepare(q).sample_into(&mut rng, 1000, &mut out));
                black_box(&out);
                t * 1e6
            })
            .collect(),
    )
}

/// Builds twice and reports the second build (the first one pays the
/// fresh page faults, like the discarded first set-up).
fn second_build<T>(build: impl Fn() -> T) -> (Summary, T) {
    drop(build());
    let (t, built) = timed(build);
    (Summary::exact(t, 1), built)
}

/// `irs_ait` and `irs_kds`: the concrete structures on their own —
/// build, the two query phases, footprint, and the update algorithms
/// (last, on structures nothing else reads afterwards).
fn concrete_structures(measured: &mut Measured, ds: &Dataset, seed: u64) {
    let data = &ds.data;
    let weights = ds.weights.as_deref().unwrap_or(&[]);
    let n = data.len() as f64;
    let gen = QueryWorkload::from_data(data);
    let wide = gen.generate(PROBE_QUERIES, 8.0, seed ^ 0xA17);
    let mid = gen.generate(PROBE_QUERIES, 1.0, seed ^ 0xA18);
    let fresh = TAXI.generate(1000, seed ^ 0xF4E5);

    let (build, mut ait) = second_build(|| Ait::new(data));
    measured.push(("irs_ait.ait.build_s", build));
    let (prepare, draw, candidates) =
        probe_sampler(&wide, seed, |q| RangeSampler::prepare(&ait, q));
    measured.push(("irs_ait.ait.prepare_us", prepare));
    measured.push(("irs_ait.ait.draw_ns_per_sample", draw));
    measured.push((
        "irs_ait.ait.candidates_per_query",
        Summary::exact(candidates, wide.len()),
    ));
    let mut ids = Vec::new();
    let search: Vec<f64> = mid
        .iter()
        .filter_map(|&q| {
            ids.clear();
            let (t, ()) = timed(|| ait.range_search_into(q, &mut ids));
            (!ids.is_empty()).then(|| t * 1e9 / ids.len() as f64)
        })
        .collect();
    measured.push(("irs_ait.ait.search_ns_per_id", summary(search)));
    measured.push((
        "irs_ait.ait.heap_bytes_per_interval",
        Summary::exact(MemoryFootprint::heap_bytes(&ait) as f64 / n, 1),
    ));
    let one_by_one: Vec<f64> = fresh[..100]
        .iter()
        .map(|&iv| timed(|| ait.insert(iv)).0 * 1e6)
        .collect();
    measured.push(("irs_ait.ait.insert_us", summary(one_by_one)));
    let deletes: Vec<f64> = (0..100)
        .map(|i| {
            let id = (i * 37 % data.len()) as ItemId;
            timed(|| ait.delete(data[id as usize], id)).0 * 1e6
        })
        .collect();
    measured.push(("irs_ait.ait.delete_us", summary(deletes)));
    // Amortized over at least one pool flush.
    let buffered = &fresh[100..600];
    let (t, ()) = timed(|| {
        for &iv in buffered {
            ait.insert_buffered(iv);
        }
    });
    measured.push((
        "irs_ait.ait.insert_buffered_us",
        Summary::exact(t * 1e6 / buffered.len() as f64, buffered.len()),
    ));
    drop(ait);

    {
        let (build, awit) = second_build(|| Awit::new(data, weights));
        measured.push(("irs_ait.awit.build_s", build));
        let (prepare, draw, _) = probe_sampler(&wide, seed, |q| awit.prepare_weighted(q));
        measured.push(("irs_ait.awit.prepare_us", prepare));
        measured.push(("irs_ait.awit.draw_ns_per_sample", draw));
        measured.push((
            "irs_ait.awit.heap_bytes_per_interval",
            Summary::exact(MemoryFootprint::heap_bytes(&awit) as f64 / n, 1),
        ));
    }
    {
        let aitv = AitV::new(data);
        let sample = probe_sample_us(&wide, seed, |q| RangeSampler::prepare(&aitv, q));
        measured.push(("irs_ait.aitv.sample_us", sample));
    }
    {
        let kds = Kds::new(data);
        let sample = probe_sample_us(&wide, seed, |q| RangeSampler::prepare(&kds, q));
        measured.push(("irs_kds.sample_us", sample));
    }

    let mut dynamic_awit = DynamicAwit::new(data, weights);
    let (prepare, draw, _) = probe_sampler(&wide, seed, |q| dynamic_awit.prepare_weighted(q));
    measured.push(("irs_ait.dynamic_awit.prepare_us", prepare));
    measured.push(("irs_ait.dynamic_awit.draw_ns_per_sample", draw));
    let (t, ()) = timed(|| dynamic_awit.rebuild());
    measured.push(("irs_ait.dynamic_awit.rebuild_s", Summary::exact(t, 1)));
    // Amortized over one rebuild (the pool holds ⌈log₂ n⌉² inserts).
    let pooled = &fresh[600..1000];
    let (t, ()) = timed(|| {
        for &iv in pooled {
            dynamic_awit.insert(iv, 1.0);
        }
    });
    measured.push((
        "irs_ait.dynamic_awit.insert_us",
        Summary::exact(t * 1e6 / pooled.len() as f64, pooled.len()),
    ));
}

/// The bottom rung: the workload's concrete structure, no erasure.
enum ConcreteIndex {
    Ait(Ait<i64>),
    DynamicAwit(DynamicAwit<i64>),
}

/// Answers one query the way `Client`'s mono backend does, minus the
/// lock: what the index itself costs.
fn answer<Rg: RngCore>(
    query: &Query<i64>,
    rng: &mut Rg,
    count: impl Fn(Interval64) -> usize,
    search: impl Fn(Interval64, &mut Vec<ItemId>),
    stab: impl Fn(i64, &mut Vec<ItemId>),
    sample: impl Fn(Interval64, usize, &mut Rg, &mut Vec<ItemId>),
) -> usize {
    match *query {
        Query::Count { q } => count(q),
        Query::Search { q } => {
            let mut ids = Vec::new();
            search(q, &mut ids);
            black_box(ids).len()
        }
        Query::Stab { p } => {
            let mut ids = Vec::new();
            stab(p, &mut ids);
            black_box(ids).len()
        }
        Query::Sample { q, s } | Query::SampleWeighted { q, s } => {
            let mut ids = Vec::with_capacity(s);
            sample(q, s, rng, &mut ids);
            black_box(ids).len()
        }
    }
}

/// One rung of the ladder: a way to answer the workload's call.
enum Rung<'a> {
    Ait(&'a Ait<i64>),
    DynamicAwit(&'a DynamicAwit<i64>),
    Dyn(&'a dyn DynIndex<i64>),
    Engine(&'a Engine<i64>),
    Client(&'a Client<i64>),
    Catalog(&'a Catalog<i64>),
    Remote(&'a mut dyn Target),
}

impl Rung<'_> {
    fn call(&mut self, call: &[Query<i64>], seed: u64) -> Result<usize, String> {
        Ok(match self {
            Rung::Ait(ait) => {
                let mut rng = SmallRng::seed_from_u64(seed);
                call.iter()
                    .map(|query| {
                        answer(
                            query,
                            &mut rng,
                            |q| ait.range_count(q),
                            |q, out| ait.range_search_into(q, out),
                            |p, out| StabbingQuery::stab_into(*ait, p, out),
                            |q, s, rng, out| {
                                RangeSampler::prepare(*ait, q).sample_into(rng, s, out)
                            },
                        )
                    })
                    .sum()
            }
            Rung::DynamicAwit(idx) => {
                let mut rng = SmallRng::seed_from_u64(seed);
                call.iter()
                    .map(|query| {
                        answer(
                            query,
                            &mut rng,
                            |q| idx.range_count(q),
                            |q, out| idx.range_search_into(q, out),
                            |p, out| idx.range_search_into(Interval64::point(p), out),
                            |q, s, rng, out| idx.prepare_weighted(q).sample_into(rng, s, out),
                        )
                    })
                    .sum()
            }
            Rung::Dyn(index) => {
                let mut rng = SmallRng::seed_from_u64(seed);
                call.iter()
                    .map(|query| {
                        answer(
                            query,
                            &mut rng,
                            |q| index.count(q),
                            |q, out| index.search_into(q, out),
                            |p, out| index.stab_into(p, out),
                            |q, s, rng, out| {
                                let handle = match query {
                                    Query::SampleWeighted { .. } => index.prepare_weighted(q),
                                    _ => index.prepare(q),
                                };
                                if let Some(handle) = handle {
                                    handle.sample_into_dyn(rng as &mut dyn RngCore, s, out);
                                }
                            },
                        )
                    })
                    .sum()
            }
            Rung::Engine(engine) => engine.run(call).len(),
            Rung::Client(client) => client.run(call).len(),
            Rung::Catalog(catalog) => catalog
                .run_in(DEFAULT_COLLECTION, call)
                .map_err(|e| e.to_string())?
                .len(),
            Rung::Remote(target) => target.run(call)?.len(),
        })
    }
}

/// Codec and framing of one exchange on memory, both directions: what
/// the wire format costs without a socket. Returns seconds.
fn codec_on_memory(call: &[Query<i64>], results: &[Result<QueryOutput, irs::WireError>]) -> f64 {
    let request = Request::Run {
        seed: None,
        queries: call.to_vec(),
    };
    let response = Response::Run(results.to_vec());
    timed(|| {
        let mut wire = Vec::new();
        let _ = write_frame(&mut wire, &encode_message(&request));
        let payload = read_frame_blocking(&mut FrameReader::new(), &mut wire.as_slice());
        black_box(payload.map(|p| decode_message::<Request<i64>>(&p).is_ok())).ok();
        let mut wire = Vec::new();
        let _ = write_frame(&mut wire, &encode_message(&response));
        let payload = read_frame_blocking(&mut FrameReader::new(), &mut wire.as_slice());
        black_box(payload.map(|p| decode_message::<Response>(&p).is_ok())).ok();
    })
    .0
}

/// `irs_wire`: the codec and the frame, piece by piece, on the small
/// answer `wire-small-s` carries and on a thousand-id one.
fn wire_pieces(measured: &mut Measured, small_call: &[Query<i64>]) {
    const BATCH: usize = 256;
    const REPS: usize = 41;
    let request = Request::Run {
        seed: None,
        queries: small_call.to_vec(),
    };
    let request_payload = encode_message(&request);
    measured.push((
        "irs_wire.request_encode_ns",
        ns_per_op(REPS, BATCH, || {
            for _ in 0..BATCH {
                black_box(encode_message(black_box(&request)));
            }
        }),
    ));
    measured.push((
        "irs_wire.request_decode_ns",
        ns_per_op(REPS, BATCH, || {
            for _ in 0..BATCH {
                black_box(decode_message::<Request<i64>>(black_box(&request_payload)).is_ok());
            }
        }),
    ));
    let framed = |payload: &[u8]| {
        let mut wire = Vec::new();
        let _ = write_frame(&mut wire, payload);
        wire
    };
    measured.push((
        "irs_wire.request_bytes",
        Summary::exact(framed(&request_payload).len() as f64, 1),
    ));
    for (s, encode, decode, bytes) in [
        (
            10,
            "irs_wire.response_encode_ns.s10",
            "irs_wire.response_decode_ns.s10",
            "irs_wire.response_bytes.s10",
        ),
        (
            1000,
            "irs_wire.response_encode_ns.s1000",
            "irs_wire.response_decode_ns.s1000",
            "irs_wire.response_bytes.s1000",
        ),
    ] {
        let response = Response::Run(vec![Ok(QueryOutput::Samples((0..s).collect()))]);
        let payload = encode_message(&response);
        measured.push((
            encode,
            ns_per_op(REPS, BATCH, || {
                for _ in 0..BATCH {
                    black_box(encode_message(black_box(&response)));
                }
            }),
        ));
        measured.push((
            decode,
            ns_per_op(REPS, BATCH, || {
                for _ in 0..BATCH {
                    black_box(decode_message::<Response>(black_box(&payload)).is_ok());
                }
            }),
        ));
        measured.push((bytes, Summary::exact(framed(&payload).len() as f64, 1)));
        if s == 10 {
            measured.push((
                "irs_wire.frame_ns",
                ns_per_op(REPS, BATCH, || {
                    for _ in 0..BATCH {
                        let wire = framed(black_box(&payload));
                        let back =
                            read_frame_blocking(&mut FrameReader::new(), &mut wire.as_slice());
                        black_box(back.is_ok());
                    }
                }),
            ));
        }
    }
}

/// `irs_core::wal` on its own: append (with its `sync_data`), bytes per
/// logged mutation, and recovery.
fn wal_pieces(measured: &mut Measured, dir: &Path, fresh: &[Interval64]) -> Result<(), String> {
    let path = dir.join("micro.wal");
    let mut wal = WalWriter::<i64>::create(&path, 1).map_err(|e| e.to_string())?;
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let before = size(&path);
    let mut appends = Vec::with_capacity(fresh.len());
    for &iv in fresh {
        let (t, r) = timed(|| wal.append(None, &[Mutation::Insert { iv }]));
        r.map_err(|e| e.to_string())?;
        appends.push(t * 1e6);
    }
    drop(wal);
    measured.push(("irs_core.wal.append_us", summary(appends)));
    measured.push((
        "irs_core.wal.bytes_per_mutation",
        Summary::exact(
            (size(&path) - before) as f64 / fresh.len() as f64,
            fresh.len(),
        ),
    ));
    let (t, recovered) = timed(|| WalWriter::<i64>::recover(&path));
    let (_, replay) = recovered.map_err(|e| e.to_string())?;
    if replay.records.len() != fresh.len() {
        return Err(format!(
            "wal recovery replayed {} of {} records",
            replay.records.len(),
            fresh.len()
        ));
    }
    measured.push((
        "irs_core.wal.recover_us_per_record",
        Summary::exact(t * 1e6 / fresh.len() as f64, fresh.len()),
    ));
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            _ => entry.metadata().map(|m| m.len()).unwrap_or(0),
        })
        .sum()
}

/// Queries per second of `callers` closed loops on one engine.
fn engine_qps(
    engine: &Engine<i64>,
    calls: &[Vec<Query<i64>>],
    callers: usize,
    other_cpu: usize,
    seconds: f64,
) -> f64 {
    let barrier = std::sync::Barrier::new(callers);
    let run = |caller: usize| {
        barrier.wait();
        let begin = Instant::now();
        let mut done = 0usize;
        while begin.elapsed().as_secs_f64() < seconds {
            black_box(engine.run(&calls[(done + caller * calls.len() / 2) % calls.len()]));
            done += 1;
        }
        (done * 16) as f64 / begin.elapsed().as_secs_f64()
    };
    std::thread::scope(|scope| {
        let second = (callers == 2).then(|| {
            scope.spawn(|| {
                let _ = pin::pin_to(other_cpu);
                run(1)
            })
        });
        run(0) + second.and_then(|t| t.join().ok()).unwrap_or(0.0)
    })
}

/// µs of each single-insert call, in the order of `fresh`.
fn apply_us(
    fresh: &[Interval64],
    weighted: bool,
    mut apply: impl FnMut(Mutation<i64>) -> Result<UpdateOutput, String>,
) -> Result<Vec<f64>, String> {
    let mut us = Vec::with_capacity(fresh.len());
    for &iv in fresh {
        let m = if weighted {
            Mutation::InsertWeighted { iv, weight: 1.0 }
        } else {
            Mutation::Insert { iv }
        };
        let (t, r) = timed(|| apply(m));
        r?;
        us.push(t * 1e6);
    }
    Ok(us)
}

/// Paired difference `upper − lower` per request, as a summary.
fn paired(upper: &[f64], lower: &[f64]) -> Summary {
    summary(upper.iter().zip(lower).map(|(u, l)| u - l).collect())
}

pub fn run(
    stage: &Stage,
    spans: &mut SpanLog,
    gate: &mut Gate,
    invalid: &mut Vec<String>,
) -> Result<Ladder, String> {
    let spec = stage.spec;
    let seed = stage.opts.seed;
    let weighted = spec.weighted;
    let mut measured = Measured::new();

    // The ladder always runs at one index's worth of data, whatever the
    // workload's own n; both weighted and uniform structures are built
    // over it.
    let n = stage.scale.n.min(crate::spec::N_PER_INDEX);
    let ds = workload::dataset(n, true, seed);
    let weights = ds.weights.clone().unwrap_or_default();
    let kind_weights = weighted.then_some(weights.as_slice());
    let calls = workload::calls(spec.call, weighted, &ds.data, seed);
    let small = CallShape::One {
        s: 10,
        extent_pct: 0.1,
    };
    let small_calls = workload::calls(small, weighted, &ds.data, seed);
    let batch_calls = workload::calls(CallShape::Batch16, false, &ds.data, seed);
    let fresh = TAXI.generate(100, seed ^ 0xAB1E);

    sampling_primitives(&mut measured, seed);
    stage.progress("ladder: sampling primitives done");
    concrete_structures(&mut measured, &ds, seed);
    stage.progress("ladder: concrete structures done");
    wire_pieces(&mut measured, &small_calls[0]);
    wal_pieces(&mut measured, &stage.work, &fresh)?;

    // The rungs above the concrete structure, all over the same data.
    let build_client = |shards: usize| {
        let mut builder = Irs::builder().kind(spec.kind).shards(shards).seed(seed);
        if weighted {
            builder = builder.weights(weights.clone());
        }
        builder.build(&ds.data).map_err(|e| e.to_string())
    };
    let build_engine = |shards: usize| {
        let config = EngineConfig::new(spec.kind).shards(shards).seed(seed);
        match kind_weights {
            Some(w) => Engine::try_new_weighted(&ds.data, w, config),
            None => Engine::try_new(&ds.data, config),
        }
        .map_err(|e| e.to_string())
    };
    let concrete = match spec.kind {
        IndexKind::AwitDynamic => ConcreteIndex::DynamicAwit(DynamicAwit::new(&ds.data, &weights)),
        _ => ConcreteIndex::Ait(Ait::new(&ds.data)),
    };
    let mut dyn_index = spec.kind.build_index(&ds.data, kind_weights);
    let engine_k1 = build_engine(1)?;
    let engine_k4 = build_engine(4)?;
    let client_mono = build_client(1)?;
    let client_sharded = build_client(4)?;
    let catalog = Catalog::<i64>::new();
    let mut collection = CollectionSpec::new(DEFAULT_COLLECTION)
        .kind(KindSpec::Fixed(spec.kind))
        .seed(seed)
        .data(ds.data.clone());
    if weighted {
        collection = collection.weights(weights.clone());
    }
    catalog.create(collection).map_err(|e| e.to_string())?;

    stage.progress("ladder: rungs built");
    // Catalog persistence and the CSV loader, while the catalog is whole.
    let catalog_dir = stage.work.join("ladder-catalog");
    let (t, saved) = timed(|| catalog.save(&catalog_dir));
    saved.map_err(|e| e.to_string())?;
    measured.push(("irs_catalog.save_s", Summary::exact(t, 1)));
    measured.push((
        "irs_core.persist.snapshot_bytes_per_interval",
        Summary::exact(dir_bytes(&catalog_dir) as f64 / n as f64, 1),
    ));
    let (t, loaded) = timed(|| Catalog::<i64>::load(&catalog_dir));
    drop(loaded.map_err(|e| e.to_string())?);
    measured.push(("irs_catalog.load_s", Summary::exact(t, 1)));
    let csv = stage.work.join("ladder.csv");
    let as_served = Dataset {
        data: ds.data.clone(),
        weights: weighted.then(|| weights.clone()),
    };
    workload::write_csv(&csv, &as_served).map_err(|e| e.to_string())?;
    let (t, parsed) = timed(|| irs::datagen::load_csv(&csv));
    drop(parsed?);
    measured.push(("irs_datagen.load_csv_s", Summary::exact(t, 1)));

    // The children: the plain server, the same with a log, and — for
    // the workload that runs one — the catalog server with a log.
    let cli = &stage.cli;
    let csv_arg = csv.to_str().ok_or("non-UTF-8 path")?;
    let mut serve_args = vec!["--data", csv_arg, "--kind", spec.kind.name()];
    if weighted {
        serve_args.push("--weighted");
    }
    let plain = Server::spawn(cli, &serve_args)?;
    let wal_path = stage.work.join("ladder.wal");
    let mut logged_args = serve_args.clone();
    logged_args.extend(["--wal", wal_path.to_str().ok_or("non-UTF-8 path")?]);
    let logged = Server::spawn(cli, &logged_args)?;
    let catalog_wal = stage.work.join("ladder-catalog.wal");
    let catalog_server = match spec.path {
        TopPath::WireCatalogWal => Some(Server::spawn(
            cli,
            &[
                "--catalog",
                catalog_dir.to_str().ok_or("non-UTF-8 path")?,
                "--wal",
                catalog_wal.to_str().ok_or("non-UTF-8 path")?,
            ],
        )?),
        _ => None,
    };
    let mut remote_top: Box<dyn Target> = match &catalog_server {
        Some(server) => Box::new(WireTarget {
            remote: server.connect()?,
            in_default: true,
        }),
        None => Box::new(WireTarget {
            remote: plain.connect()?,
            in_default: false,
        }),
    };

    stage.progress("ladder: children up");
    // The ladder proper.
    const NAMES: [&str; 9] = [
        "irs_ait",
        "irs_engine.dyn",
        "irs_engine.k1",
        "irs_engine.k4",
        "irs_client.mono",
        "irs_client.sharded",
        "irs_catalog",
        "irs_server.remote",
        // Computed on memory, not called: last, so the rungs that are
        // called index one array.
        "irs_wire.codec",
    ];
    const AIT: usize = 0;
    const DYN: usize = 1;
    const K1: usize = 2;
    const K4: usize = 3;
    const MONO: usize = 4;
    const SHARDED: usize = 5;
    const CATALOG: usize = 6;
    const REMOTE: usize = 7;
    const CODEC: usize = 8;
    let chain: &[usize] = match (spec.path, spec.shards) {
        (TopPath::Lib, 1) => &[AIT, DYN, MONO],
        (TopPath::Lib, _) => &[AIT, DYN, K4, SHARDED],
        (TopPath::WireSingle, _) => &[AIT, DYN, MONO, CODEC, REMOTE],
        (TopPath::WireCatalogWal, _) => &[AIT, DYN, MONO, CATALOG, CODEC, REMOTE],
    };
    let top = chain[chain.len() - 1];
    let below_codec = if chain.contains(&CATALOG) {
        CATALOG
    } else {
        MONO
    };
    let samples = LADDER_REQUESTS * LADDER_ROUNDS;
    let mut us: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); NAMES.len()];
    let mut top_recorded = Vec::with_capacity(samples);
    let mut top_plain = Vec::with_capacity(samples);
    {
        let mut rungs = [
            match &concrete {
                ConcreteIndex::DynamicAwit(index) => Rung::DynamicAwit(index),
                ConcreteIndex::Ait(index) => Rung::Ait(index),
            },
            Rung::Dyn(&*dyn_index),
            Rung::Engine(&engine_k1),
            Rung::Engine(&engine_k4),
            Rung::Client(&client_mono),
            Rung::Client(&client_sharded),
            Rung::Catalog(&catalog),
            Rung::Remote(&mut *remote_top),
        ];
        for round in 0..LADDER_ROUNDS {
            for (r, call) in calls[..LADDER_REQUESTS].iter().enumerate() {
                let k = round * LADDER_REQUESTS + r;
                let request = k as u32;
                let call_seed = seed ^ k as u64;
                let mut span_of = [0u32; NAMES.len()];
                // Bottom-up on even rounds, top-down on odd ones: whoever
                // goes first meets the request cold, and that must not
                // always be the same rung.
                let mut order: Vec<usize> = (0..rungs.len()).collect();
                if round % 2 == 1 {
                    order.reverse();
                }
                for i in order {
                    let start = Instant::now();
                    black_box(rungs[i].call(call, call_seed)?);
                    let end = Instant::now();
                    us[i].push((end - start).as_secs_f64() * 1e6);
                    span_of[i] = spans.push(NAMES[i], start, end, request);
                }
                // The codec rung runs on memory: the lib rung below it
                // plus encoding, framing and decoding both messages.
                let results: Vec<_> = client_mono
                    .run(call)
                    .into_iter()
                    .map(|r| r.map_err(|e| irs::WireError::from(&e)))
                    .collect();
                let start = Instant::now();
                let t = codec_on_memory(call, &results);
                span_of[CODEC] = spans.push(NAMES[CODEC], start, Instant::now(), request);
                let below = us[below_codec][k];
                us[CODEC].push(below + t * 1e6);
                // The same request id across rungs gives the parent
                // chain: each rung is caused by the next one up.
                for pair in chain.windows(2) {
                    spans.set_parent(span_of[pair[0]], span_of[pair[1]]);
                }
                // What recording costs: the top rung twice more, with
                // and without the span pushed inside the timed window,
                // in alternating order.
                for recorded in [k.is_multiple_of(2), !k.is_multiple_of(2)] {
                    let start = Instant::now();
                    black_box(rungs[top].call(call, call_seed)?);
                    if recorded {
                        spans.push("trace.recorded", start, Instant::now(), request);
                        top_recorded.push(start.elapsed().as_secs_f64() * 1e6);
                    } else {
                        top_plain.push(start.elapsed().as_secs_f64() * 1e6);
                    }
                }
            }
        }
    }
    gate.attempt((samples * (NAMES.len() + 2)) as u64);

    measured.push(("irs_engine.dyn_added_us", paired(&us[DYN], &us[AIT])));
    measured.push(("irs_engine.run_added_us.k1", paired(&us[K1], &us[DYN])));
    measured.push(("irs_engine.run_added_us.k4", paired(&us[K4], &us[DYN])));
    measured.push(("irs_client.run_added_us.mono", paired(&us[MONO], &us[DYN])));
    measured.push((
        "irs_client.run_added_us.sharded",
        paired(&us[SHARDED], &us[K4]),
    ));
    measured.push((
        "irs_catalog.run_in_added_us",
        paired(&us[CATALOG], &us[MONO]),
    ));

    let medians: Vec<f64> = us.iter().map(|v| summary(v.clone()).median).collect();
    let top_median = medians[top];
    let mut self_sum = medians[chain[0]];
    let mut selves = vec![(NAMES[chain[0]], medians[chain[0]])];
    for pair in chain.windows(2) {
        let own = paired(&us[pair[1]], &us[pair[0]]).median;
        self_sum += own;
        selves.push((NAMES[pair[1]], own));
    }
    let last_lib = *chain.iter().rfind(|&&i| i < REMOTE).unwrap_or(&AIT);
    measured.push(("trace.top_rung_p50_us", summary(us[top].clone())));
    measured.push((
        "trace.self_sum_share",
        Summary::exact(self_sum / top_median, samples),
    ));
    measured.push((
        "trace.share.index",
        Summary::exact(medians[AIT] / top_median, samples),
    ));
    measured.push((
        "trace.share.engine_client_catalog",
        Summary::exact((medians[last_lib] - medians[AIT]) / top_median, samples),
    ));
    measured.push((
        "trace.share.wire_server",
        Summary::exact((top_median - medians[last_lib]) / top_median, samples),
    ));
    let (recorded, unrecorded) = (summary(top_recorded).median, summary(top_plain).median);
    measured.push((
        "trace.overhead_share",
        Summary::exact((recorded - unrecorded) / unrecorded, samples),
    ));

    stage.progress("ladder: replay done");
    // irs_engine on the fixed 16-query batch.
    let batch: Vec<f64> = batch_calls[..LADDER_REQUESTS]
        .iter()
        .map(|call| timed(|| black_box(engine_k4.run(call))).0 * 1e6 / 16.0)
        .collect();
    measured.push(("irs_engine.batch16_us_per_query", summary(batch)));
    let callers = stage.pin.callers(2);
    let one = engine_qps(
        &engine_k4,
        &batch_calls,
        1,
        stage.pin.other,
        TWO_CALLER_SECONDS,
    );
    let two = engine_qps(
        &engine_k4,
        &batch_calls,
        callers,
        stage.pin.other,
        TWO_CALLER_SECONDS,
    );
    measured.push((
        "irs_engine.two_caller_speedup",
        Summary::exact(two / one, callers),
    ));

    stage.progress("ladder: engine done");
    // irs_server on the plain child: the floor of a round trip, what
    // dispatch adds to it, connecting, and the open-loop ladder.
    let mut plain_remote = plain.connect()?;
    let health: Vec<f64> = (0..2000)
        .map(|_| timed(|| plain_remote.health()).0 * 1e6)
        .collect();
    let health = summary(health);
    measured.push(("irs_server.health_rtt_us", health));
    measured.push((
        "irs_server.dispatch_added_us",
        // remote − health RTT − codec and framing − the lib rung below.
        Summary::exact(medians[REMOTE] - health.median - medians[CODEC], samples),
    ));
    let connects: Vec<f64> = (0..50)
        .map(|_| timed(|| RemoteClient::<i64>::connect(plain.addr.as_str()).is_ok()).0 * 1e6)
        .collect();
    measured.push(("irs_server.connect_us", summary(connects)));

    let shared_cpu = stage.pin.other == stage.pin.main;
    let mut slo_rate = 0.0;
    for (rate, p50_name, p99_name, lateness_name) in OPEN_LOOP_RATES {
        let count = (rate * OPEN_LOOP_SECONDS) as usize;
        let other_cpu = stage.pin.other;
        let mut remote = plain.connect()?;
        let small_calls = &small_calls;
        // The generator spins to its due times on the other CPU.
        let run = std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    let pinned = pin::pin_to(other_cpu);
                    let clock = WallClock::start(!shared_cpu);
                    let run = openloop::run(&clock, rate, count, |i| {
                        black_box(remote.run(&small_calls[i % small_calls.len()]).is_ok())
                    });
                    (run, pinned)
                })
                .join()
        });
        let (mut run, pinned) = run.map_err(|_| "open-loop generator panicked".to_string())?;
        if let Err(e) = pinned {
            invalid.push(format!("open-loop generator could not pin: {e}"));
        }
        gate.attempt(count as u64);
        let latency = stats::sorted(&mut run.latency_us);
        let p99 = stats::percentile(latency, 99.0);
        measured.push((p50_name, Summary::exact(stats::median(latency), count)));
        measured.push((p99_name, Summary::exact(p99, count)));
        let lateness = stats::percentile(stats::sorted(&mut run.lateness_us), 99.0);
        measured.push((lateness_name, Summary::exact(lateness, count)));
        // Meets the limit, and the backlog is not growing.
        if p99 <= SLO_P99_US && lateness <= SLO_P99_US {
            slo_rate = rate;
        }
    }
    measured.push(("irs_server.slo_rate_qps", Summary::exact(slo_rate, 3)));

    // Reads beside logged writes, on the logged child — unless the
    // workload's own query phase just measured exactly that.
    let mut logged_remote = logged.connect()?;
    if spec.writes_beside_reads_per_s.is_none() {
        let steps = workload::mutation_stream(128, n, weighted, seed ^ 0xBE51DE);
        let mut writer = WireTarget {
            remote: logged.connect()?,
            in_default: false,
        };
        let stop = AtomicBool::new(false);
        let (reads, lateness) = std::thread::scope(|scope| {
            let beside = scope.spawn(|| beside_writer(&mut writer, &steps, 40.0, &stop));
            let begin = Instant::now();
            let mut reads = Vec::new();
            let mut i = 0;
            while begin.elapsed().as_secs_f64() < OPEN_LOOP_SECONDS {
                let call = &small_calls[i % small_calls.len()];
                reads.push(timed(|| black_box(logged_remote.run(call).is_ok())).0 * 1e6);
                i += 1;
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let lateness = beside
                .join()
                .map(|(_, lateness)| lateness)
                .unwrap_or_default();
            (reads, lateness)
        });
        let mut lateness = lateness;
        measured.push((
            "read_stall_max_us",
            Summary::exact(reads.iter().copied().fold(0.0, f64::max), reads.len()),
        ));
        measured.push((
            "irs_server.loadgen.writer_lateness_p99_us",
            Summary::exact(
                stats::percentile(stats::sorted(&mut lateness), 99.0),
                lateness.len(),
            ),
        ));
    }

    stage.progress("ladder: server done");
    // The mutation rungs: the same inserts, one per call, through each
    // layer. Every rung holds its own copy of the same data, so the
    // cost of an insert pairs across rungs and the difference is what
    // the layer adds.
    let inserts = &fresh[..APPLY_SAMPLES];
    let dyn_apply = apply_us(inserts, weighted, |m| {
        match m {
            Mutation::InsertWeighted { iv, weight } => dyn_index
                .insert_weighted(iv, weight)
                .map(UpdateOutput::Inserted),
            Mutation::Insert { iv } => dyn_index.insert(iv).map(UpdateOutput::Inserted),
            Mutation::Delete { id } => dyn_index.remove(id).map(|()| UpdateOutput::Removed),
        }
        .map_err(|e| e.to_string())
    })?;
    let engine_apply = apply_us(inserts, weighted, |m| only(engine_k1.apply(&[m])))?;
    let client_apply = apply_us(inserts, weighted, |m| {
        only(client_mono.writer().apply(&[m]))
    })?;
    let catalog_apply = apply_us(inserts, weighted, |m| {
        only(
            catalog
                .apply_in(DEFAULT_COLLECTION, &[m])
                .map_err(|e| e.to_string())?,
        )
    })?;
    let plain_apply = apply_us(inserts, weighted, |m| {
        only(plain_remote.apply(&[m]).map_err(|e| e.to_string())?)
    })?;
    let logged_apply = apply_us(inserts, weighted, |m| {
        only(logged_remote.apply(&[m]).map_err(|e| e.to_string())?)
    })?;
    gate.attempt(6 * APPLY_SAMPLES as u64);
    measured.push((
        "irs_engine.apply_added_us",
        paired(&engine_apply, &dyn_apply),
    ));
    measured.push((
        "irs_client.apply_added_us",
        paired(&client_apply, &dyn_apply),
    ));
    measured.push((
        "irs_catalog.apply_in_added_us",
        paired(&catalog_apply, &client_apply),
    ));
    let wal_added = paired(&logged_apply, &plain_apply);
    measured.push(("irs_core.wal.apply_added_us", wal_added));
    let p50 = |us: &[f64]| summary(us.to_vec()).median;
    measured.push((
        "trace.share.wal",
        Summary::exact(wal_added.median / p50(&logged_apply), APPLY_SAMPLES),
    ));

    stage.progress("ladder: mutation rungs done");
    // Take the children down; their counters are the last numbers.
    drop(remote_top);
    drop(plain_remote);
    drop(logged_remote);
    let mut requests = 0;
    let mut protocol_errors = 0;
    for server in [Some(plain), Some(logged), catalog_server]
        .into_iter()
        .flatten()
    {
        let stats = server.stop()?;
        requests += stats.requests;
        protocol_errors += stats.protocol_errors;
    }
    if protocol_errors > 0 {
        gate.fail(format!(
            "ladder servers report {protocol_errors} protocol errors"
        ));
    }
    measured.push(("irs_server.requests", Summary::exact(requests as f64, 1)));
    measured.push((
        "irs_server.protocol_errors",
        Summary::exact(protocol_errors as f64, 1),
    ));

    let report = Json::obj()
        .with("n", n)
        .with("requests", LADDER_REQUESTS)
        .with("rounds", LADDER_ROUNDS)
        .with(
            "rung_p50_us",
            Json::Obj(
                NAMES
                    .iter()
                    .zip(&medians)
                    .map(|(name, m)| (name.to_string(), Json::from(*m)))
                    .collect(),
            ),
        )
        .with(
            "chain_self_us",
            Json::Obj(
                selves
                    .iter()
                    .map(|(name, own)| (name.to_string(), Json::from(*own)))
                    .collect(),
            ),
        )
        .with(
            "apply_p50_us",
            Json::obj()
                .with("irs_engine.dyn", p50(&dyn_apply))
                .with("irs_engine.k1", p50(&engine_apply))
                .with("irs_client.mono", p50(&client_apply))
                .with("irs_catalog", p50(&catalog_apply))
                .with("irs_server.remote", p50(&plain_apply))
                .with("irs_server.remote+wal", p50(&logged_apply)),
        );
    Ok(Ladder { measured, report })
}
