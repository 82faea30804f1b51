//! `catalog_topk`: sequential full-catalog `retrieve_top_k` queries under
//! the default Exact profile. The retrieval layer (bounds, best-first scan,
//! repair, top-K merge) and the exact block forward do the work; the
//! engine's scoring queue and the trainer do none.

use crate::common::{
    cpu_seconds, median_or_zero, peak_rss_mb, same_bits, seqfm, skew_item_weights, tail_note,
    timed_setup, Opts, Report, Shadow, Skewed,
};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqfm_core::{FrozenSeqFm, Scorer, Scratch, SeqFmConfig};
use seqfm_data::{build_instance, Batch, FeatureLayout};
use seqfm_retrieval::{CatalogIndex, Retrieval};
use seqfm_serve::{Engine, EngineConfig};
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const D: usize = 32;
const MAX_SEQ: usize = 10;
const N_USERS: usize = 1_000;
const USER_SKEW: f64 = 1.0;
/// Sized so one exact query takes a few hundred milliseconds on two cores;
/// a million items takes seconds per query, too long to repeat in a run.
const N_ITEMS: usize = 100_000;
const BLOCK: usize = 64;
const K: usize = 100;
const SETUPS: usize = 7;
/// Queries before timing starts, so the scan statistics have settled.
const WARM_QUERIES: usize = 3;
/// Queries replayed against the index directly in a traced run.
const REPLAYED: usize = 4;
/// Rows per batch when the check scores the whole catalog.
const CHECK_ROWS: usize = 512;

fn layout() -> FeatureLayout {
    FeatureLayout { n_users: N_USERS, n_items: N_ITEMS }
}

fn model_cfg() -> SeqFmConfig {
    SeqFmConfig { d: D, max_seq: MAX_SEQ, dropout: 0.0, ..Default::default() }
}

fn frozen_model() -> FrozenSeqFm {
    let layout = layout();
    let (model, mut ps) = seqfm(&layout, model_cfg());
    skew_item_weights(&mut ps, &layout);
    FrozenSeqFm::freeze(&model, &ps)
}

/// A query kept for the after-run checks.
struct Query {
    user: u32,
    window: Vec<u32>,
    got: Vec<(u32, f32)>,
}

struct Phase {
    latencies_ms: Vec<f64>,
    elapsed_s: f64,
    cpu_s: f64,
    kept: Vec<Query>,
    /// Summed `Retrieval` counters.
    scored: usize,
    pruned: usize,
    repaired: usize,
    items_scored: usize,
    items_screened: usize,
}

/// The retrieval order: descending score, ascending id on ties, NaN last.
fn rank(a: &(u32, f32), b: &(u32, f32)) -> Ordering {
    match (a.1.is_nan(), b.1.is_nan()) {
        (false, true) => Ordering::Less,
        (true, false) => Ordering::Greater,
        _ => b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)),
    }
}

/// The top-`K` of the whole catalog for `user` after `window`, computed by
/// scoring every item through the model's plain forward.
fn catalog_top_k(model: &FrozenSeqFm, user: u32, window: &[u32]) -> Vec<(u32, f32)> {
    let layout = layout();
    let row = build_instance(&layout, user, 0, window, MAX_SEQ, 0.0).dyn_idx;
    let mut scratch = Scratch::new();
    let mut all = Vec::with_capacity(N_ITEMS);
    let items: Vec<u32> = (0..N_ITEMS as u32).collect();
    for chunk in items.chunks(CHECK_ROWS) {
        let mut batch = Batch {
            len: chunk.len(),
            n_static: 2,
            n_dynamic: MAX_SEQ,
            static_idx: Vec::with_capacity(chunk.len() * 2),
            dyn_idx: Vec::with_capacity(chunk.len() * MAX_SEQ),
            targets: vec![0.0; chunk.len()],
        };
        for &item in chunk {
            batch.static_idx.extend([layout.user_feature(user), layout.item_feature(item)]);
            batch.dyn_idx.extend_from_slice(&row);
        }
        let scores = model.score(&batch, &mut scratch);
        all.extend(chunk.iter().copied().zip(scores.iter().copied()));
    }
    all.sort_by(rank);
    all.truncate(K);
    all
}

fn pairs(r: &Retrieval) -> Vec<(u32, f32)> {
    r.items.iter().map(|s| (s.item, s.score)).collect()
}

struct Client {
    engine: Engine,
    rng: StdRng,
    users: Skewed,
    shadow: Shadow,
    queries: u64,
}

impl Client {
    /// Appends one event for a drawn user, so its view must be rebuilt,
    /// then retrieves that user's top-`K`.
    fn query(
        &mut self,
        rep: &mut Report,
        tracer: &mut Tracer,
        n_blocks: usize,
    ) -> Option<(Query, Retrieval, f64)> {
        let id = self.queries;
        self.queries += 1;
        let user = self.users.draw(&mut self.rng);
        let item = self.rng.gen_range(0..N_ITEMS as u32);
        let ta = Instant::now();
        let span = tracer.open("client.query", id, ta);
        let appended = self.engine.append_event(user, item);
        let t0 = Instant::now();
        tracer.record("serve.append", id, span, ta, t0);
        rep.op(appended)?;
        self.shadow.push(user, item);
        let r = self.engine.retrieve_top_k(user, K);
        let t1 = Instant::now();
        tracer.record("serve.retrieve_top_k", id, span, t0, t1);
        tracer.close(span, t1);
        let r = rep.op(r)?;
        let got = pairs(&r);
        rep.check(r.blocks_scored + r.blocks_pruned == n_blocks, || {
            format!(
                "query {id}: {} scored + {} pruned of {n_blocks} blocks",
                r.blocks_scored, r.blocks_pruned
            )
        });
        rep.check(got.len() == K, || format!("query {id}: {} items", got.len()));
        rep.check(got.windows(2).all(|w| rank(&w[0], &w[1]) == Ordering::Less), || {
            format!("query {id}: items out of retrieval order")
        });
        let q = Query { user, window: self.shadow.window(user).to_vec(), got };
        Some((q, r, (t1 - t0).as_secs_f64() * 1e3))
    }

    fn phase(
        &mut self,
        secs: f64,
        rep: &mut Report,
        tracer: &mut Tracer,
        n_blocks: usize,
    ) -> Phase {
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let mut p = Phase {
            latencies_ms: Vec::new(),
            elapsed_s: 0.0,
            cpu_s: 0.0,
            kept: Vec::new(),
            scored: 0,
            pruned: 0,
            repaired: 0,
            items_scored: 0,
            items_screened: 0,
        };
        while Instant::now() < deadline {
            let Some((q, r, ms)) = self.query(rep, tracer, n_blocks) else { continue };
            p.latencies_ms.push(ms);
            p.scored += r.blocks_scored;
            p.pruned += r.blocks_pruned;
            p.repaired += r.blocks_repaired;
            p.items_scored += r.items_scored;
            p.items_screened += r.items_screened;
            p.kept.push(q);
        }
        p.elapsed_s = start.elapsed().as_secs_f64();
        p.cpu_s = cpu_seconds() - cpu0;
        p
    }
}

/// Checks kept queries against a top-`K` computed apart from the index:
/// the first and the last query of the phase.
fn verify(kept: &[Query], model: &FrozenSeqFm, rep: &mut Report) {
    let picks = kept.first().into_iter().chain(kept.last().filter(|_| kept.len() > 1));
    for q in picks {
        let want = catalog_top_k(model, q.user, &q.window);
        rep.check(same_bits(&want, &q.got), || {
            format!("user {}: retrieved top-{K} differs from scoring the whole catalog", q.user)
        });
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let layout = layout();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let users = Skewed::new(N_USERS, USER_SKEW, &mut rng);
    let mut events = Vec::new();
    for u in 0..N_USERS as u32 {
        for _ in 0..rng.gen_range(MAX_SEQ / 2..=MAX_SEQ) {
            events.push((u, rng.gen_range(0..N_ITEMS as u32)));
        }
    }
    let cfg = EngineConfig::builder().threads(1).max_seq(MAX_SEQ).build().expect("valid config");
    let mut build_s = Vec::new();
    let ((engine, index), setup_s) = timed_setup(SETUPS, || {
        let model = frozen_model();
        let served = FrozenSeqFm::from_params(Arc::clone(model.params()), *model.config());
        let t = Instant::now();
        let index = Arc::new(CatalogIndex::build(Arc::new(model), layout, BLOCK));
        build_s.push(t.elapsed().as_secs_f64());
        let engine = Engine::new_frozen(served, layout, cfg)
            .expect("valid engine")
            .with_catalog_index(Arc::clone(&index));
        for &(u, i) in &events {
            engine.append_event(u, i).expect("generated ids are in the layout");
        }
        (engine, index)
    });
    let check_model = frozen_model();
    let n_blocks = index.n_blocks();
    let mut shadow = Shadow::new(N_USERS, MAX_SEQ);
    for &(u, i) in &events {
        shadow.push(u, i);
    }
    let mut client = Client { engine, rng, users, shadow, queries: 0 };
    let mut quiet = Tracer::new(false);
    for _ in 0..WARM_QUERIES {
        client.query(&mut rep, &mut quiet, n_blocks);
    }
    let untraced = client.phase(opts.seconds, &mut rep, &mut quiet, n_blocks);
    let p50 = median_or_zero(&untraced.latencies_ms);
    let n = untraced.latencies_ms.len().max(1) as f64;
    rep.note(tail_note("retrieve", &untraced.latencies_ms));
    rep.note(format!(
        "retrieval: {} queries over {} blocks; per query {:.1} scored, {:.1} pruned, {:.1} repaired",
        untraced.latencies_ms.len(),
        n_blocks,
        untraced.scored as f64 / n,
        untraced.pruned as f64 / n,
        untraced.repaired as f64 / n
    ));
    if !opts.trace {
        let rss = peak_rss_mb();
        verify(&untraced.kept, &check_model, &mut rep);
        rep.metric("setup_s", setup_s, "s");
        rep.metric("peak_rss_mb", rss, "MB");
        rep.metric("latency_p50_ms", p50, "ms");
        rep.metric("work_per_s", untraced.latencies_ms.len() as f64 / untraced.elapsed_s, "1/s");
        return rep;
    }
    let mut tracer = Tracer::new(true);
    let traced = client.phase(opts.seconds, &mut rep, &mut tracer, n_blocks);
    verify(&traced.kept, &check_model, &mut rep);
    // Replays: the index's pruned scan and its brute-force scan on the same
    // prebuilt view, timed directly.
    let mut scratch = Scratch::new();
    for (i, q) in traced.kept.iter().take(REPLAYED).enumerate() {
        let row = build_instance(&layout, q.user, 0, &q.window, MAX_SEQ, 0.0).dyn_idx;
        let id = i as u64;
        let span = tracer.open("client.replay", id, Instant::now());
        let t0 = Instant::now();
        let view = index.model().history_view(&row, &mut scratch);
        let t1 = Instant::now();
        // Alternate which scan goes first, so neither always finds the
        // other's data in cache.
        let (pruned, brute, t3) = if i % 2 == 0 {
            let pruned = index.retrieve(q.user, &view, K);
            let t2 = Instant::now();
            let brute = index.retrieve_brute(q.user, &view, K);
            let t3 = Instant::now();
            tracer.record("retrieval.retrieve", id, span, t1, t2);
            tracer.record("retrieval.brute", id, span, t2, t3);
            (pruned, brute, t3)
        } else {
            let brute = index.retrieve_brute(q.user, &view, K);
            let t2 = Instant::now();
            let pruned = index.retrieve(q.user, &view, K);
            let t3 = Instant::now();
            tracer.record("retrieval.brute", id, span, t1, t2);
            tracer.record("retrieval.retrieve", id, span, t2, t3);
            (pruned, brute, t3)
        };
        tracer.record("core.view", id, span, t0, t1);
        tracer.close(span, t3);
        if let (Some(p), Some(b)) = (rep.op(pruned), rep.op(brute)) {
            rep.check(same_bits(&pairs(&p), &pairs(&b)), || {
                format!("user {}: pruned retrieval differs from brute force", q.user)
            });
        }
    }
    crate::write_spans(opts, &tracer, &mut rep);
    let n = traced.latencies_ms.len().max(1) as f64;
    let ms = |name: &str| median_or_zero(&tracer.self_us(name)) / 1e3;
    rep.metric(
        "trace.overhead_pct",
        (median_or_zero(&traced.latencies_ms) / p50 - 1.0) * 100.0,
        "%",
    );
    rep.metric("proc.cpu_ms_per_op", traced.cpu_s * 1e3 / n, "ms");
    rep.metric("retrieval.retrieve_ms", ms("retrieval.retrieve"), "ms");
    rep.metric("retrieval.brute_ms", ms("retrieval.brute"), "ms");
    rep.metric("retrieval.blocks_scored", traced.scored as f64 / n, "count/query");
    rep.metric("retrieval.blocks_pruned", traced.pruned as f64 / n, "count/query");
    rep.metric("retrieval.blocks_repaired", traced.repaired as f64 / n, "count/query");
    rep.metric("retrieval.items_scored", traced.items_scored as f64 / n, "count/query");
    rep.metric("retrieval.items_screened", traced.items_screened as f64 / n, "count/query");
    rep.metric("retrieval.skip_ratio", 1.0 - traced.scored as f64 / (n * n_blocks as f64), "ratio");
    rep.metric("retrieval.build_s", median_or_zero(&build_s), "s");
    rep
}
