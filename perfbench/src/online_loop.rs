//! `online_loop`: the serve→train loop, one round at a time. Each round
//! appends events to an engine with an event log and a catalog index, has
//! `OnlineTrainer` drain and train on them, publishes the one epoch that
//! produced, and waits until the index is rebuilt for it. Training,
//! freezing, publishing and index rebuilds do the work; the scoring queue
//! does none.

use crate::common::{
    cpu_seconds, median_or_zero, peak_rss_mb, same_bits, seqfm, skew_item_weights, tail_note,
    timed_setup, Opts, Report, Shadow, Skewed,
};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqfm_autograd::FrozenParams;
use seqfm_core::{FrozenSeqFm, ModelEpoch, Scratch, SeqFmConfig};
use seqfm_data::{build_instance, FeatureLayout};
use seqfm_retrieval::CatalogIndex;
use seqfm_serve::{Engine, EngineConfig};
use seqfm_train::{OnlineConfig, OnlineTrainer};
use std::sync::Arc;
use std::time::{Duration, Instant};

const D: usize = 32;
const MAX_SEQ: usize = 20;
const N_USERS: usize = 1_000;
const USER_SKEW: f64 = 1.0;
/// 313 index blocks of 64 items.
const N_ITEMS: usize = 20_000;
const BLOCK: usize = 64;
const K: usize = 100;
const BATCH: usize = 32;
const PUBLISH_EVERY: usize = 2;
/// Events per round: exactly one published epoch's worth.
const ROUND_EVENTS: usize = BATCH * PUBLISH_EVERY;
/// Every this-many-th round also checks one retrieval against brute force.
const CHECK_EVERY: u64 = 16;
const SETUPS: usize = 7;
const WARM_ROUNDS: usize = 3;
/// Events per replay call: 31.5 rounds, so call boundaries fall mid-round.
const REPLAY_CHUNK: usize = 2_016;
/// Old/new model pairs whose delta and full rebuilds a traced run times.
const REBUILD_PAIRS: usize = 3;

fn layout() -> FeatureLayout {
    FeatureLayout { n_users: N_USERS, n_items: N_ITEMS }
}

fn online_cfg() -> OnlineConfig {
    OnlineConfig {
        batch_size: BATCH,
        publish_every: PUBLISH_EVERY,
        max_seq: MAX_SEQ,
        ..Default::default()
    }
}

/// A trainer over the skewed initial model, plus that model frozen for
/// serving.
fn trainer() -> (OnlineTrainer, FrozenSeqFm) {
    let layout = layout();
    let (model, mut ps) =
        seqfm(&layout, SeqFmConfig { d: D, max_seq: MAX_SEQ, ..Default::default() });
    skew_item_weights(&mut ps, &layout);
    let frozen = FrozenSeqFm::freeze(&model, &ps);
    (OnlineTrainer::new(model, ps, layout, online_cfg()), frozen)
}

struct Loop {
    engine: Engine,
    trainer: OnlineTrainer,
    rng: StdRng,
    users: Skewed,
    shadow: Shadow,
    /// Every event appended, in order: the stream a replay must reproduce.
    log: Vec<(u32, u32)>,
    drained: Vec<(u32, u32)>,
    rounds: u64,
    last_epoch: ModelEpoch,
    /// The index before and the model after each recent publish.
    pairs: Vec<(Arc<CatalogIndex>, Arc<FrozenSeqFm>)>,
}

#[derive(Default)]
struct Phase {
    fresh_ms: Vec<f64>,
    ingest_eps: Vec<f64>,
    reused: Vec<f64>,
    steps: u64,
    cpu_s: f64,
}

impl Loop {
    fn round(&mut self, rep: &mut Report, tracer: &mut Tracer, p: &mut Phase) {
        let id = self.rounds;
        self.rounds += 1;
        let span = tracer.open("client.round", id, Instant::now());
        let sent = self.log.len();
        for _ in 0..ROUND_EVENTS {
            let (u, i) = (self.users.draw(&mut self.rng), self.rng.gen_range(0..N_ITEMS as u32));
            let t = Instant::now();
            let r = self.engine.append_event(u, i);
            tracer.record("serve.append", id, span, t, Instant::now());
            if rep.op(r).is_some() {
                self.log.push((u, i));
                self.shadow.push(u, i);
            }
        }
        let log = self.engine.event_log().expect("engine built with an event log");
        self.drained.clear();
        let t0 = Instant::now();
        log.drain_into(&mut self.drained);
        let t1 = Instant::now();
        let snaps = self.trainer.ingest(&self.drained);
        let t2 = Instant::now();
        tracer.record("train.drain", id, span, t0, t1);
        tracer.record("train.ingest", id, span, t1, t2);
        rep.check(self.drained[..] == self.log[sent..], || {
            format!("round {id}: drained events differ from the appended ones")
        });
        rep.check(snaps.len() == 1, || format!("round {id}: {} epochs published", snaps.len()));
        let Some(snap) = snaps.last() else { return };
        let old_index = self.engine.catalog_index().expect("engine built with an index");
        let t3 = Instant::now();
        let model = self.trainer.frozen_for(snap);
        let t4 = Instant::now();
        tracer.record("core.freeze", id, span, t3, t4);
        // Trainer time: drain, train and freeze, not the index lookup between.
        p.ingest_eps.push(self.drained.len() as f64 / ((t2 - t0) + (t4 - t3)).as_secs_f64());
        rep.check(model.epoch() > self.last_epoch, || {
            format!("round {id}: epoch {} after {}", model.epoch(), self.last_epoch)
        });
        self.last_epoch = model.epoch();
        if tracer.on() {
            let again = FrozenSeqFm::from_params(Arc::clone(model.params()), *model.config());
            self.pairs.push((Arc::clone(&old_index), Arc::new(again)));
            if self.pairs.len() > REBUILD_PAIRS {
                self.pairs.remove(0);
            }
        }
        let want = model.epoch();
        let t5 = Instant::now();
        let served = self.engine.publish_frozen(model);
        let t6 = Instant::now();
        let index = self.engine.wait_for_index();
        let t7 = Instant::now();
        rep.attempted += 1;
        rep.check(served == want, || {
            format!("round {id}: published {want}, engine serves {served}")
        });
        tracer.record("serve.publish", id, span, t5, t6);
        tracer.record("serve.settle", id, span, t6, t7);
        tracer.close(span, t7);
        p.fresh_ms.push((t7 - t5).as_secs_f64() * 1e3);
        let Some(index) = rep.op(index.ok_or("no index after settle")) else { return };
        p.reused.push(index.delta_reused_blocks() as f64);
        rep.check(index.model().epoch() == self.engine.current_epoch(), || {
            format!(
                "round {id}: index serves {} while the engine serves {}",
                index.model().epoch(),
                self.engine.current_epoch()
            )
        });
        if id.is_multiple_of(CHECK_EVERY) {
            self.check_retrieval(rep, &index, id);
        }
    }

    /// One retrieval after settle against the brute-force top-`K` of the
    /// landed index's model, over a view built from the client's own copy
    /// of the user's window.
    fn check_retrieval(&mut self, rep: &mut Report, index: &CatalogIndex, id: u64) {
        let user = self.users.draw(&mut self.rng);
        let Some(got) = rep.op(self.engine.retrieve_top_k(user, K)) else { return };
        let row =
            build_instance(&layout(), user, 0, self.shadow.window(user), MAX_SEQ, 0.0).dyn_idx;
        let view = index.model().history_view(&row, &mut Scratch::new());
        let Some(want) = rep.op(index.retrieve_brute(user, &view, K)) else { return };
        let pairs = |items: &[seqfm_retrieval::ScoredItem]| -> Vec<(u32, f32)> {
            items.iter().map(|s| (s.item, s.score)).collect()
        };
        rep.check(same_bits(&pairs(&got.items), &pairs(&want.items)), || {
            format!(
                "round {id}: retrieval after settle differs from brute force under {}",
                index.model().epoch()
            )
        });
    }

    fn phase(&mut self, secs: f64, rep: &mut Report, tracer: &mut Tracer) -> Phase {
        let mut p = Phase::default();
        let steps0 = self.trainer.steps();
        let cpu0 = cpu_seconds();
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        while Instant::now() < deadline {
            self.round(rep, tracer, &mut p);
        }
        p.steps = self.trainer.steps() - steps0;
        p.cpu_s = cpu_seconds() - cpu0;
        p
    }
}

/// Replay: a fresh trainer fed the logged stream must publish the online
/// trainer's final parameters bit for bit. The stream goes in calls of
/// `REPLAY_CHUNK` events, each spanning many rounds, so the replay's
/// minibatch cuts never line up with the online calls' by construction.
/// (`OnlineTrainer::ingest` returns every snapshot a call publishes, so one
/// call over the whole stream would hold one parameter copy per round.)
fn check_replay(lp: &Loop, rep: &mut Report) {
    let (mut fresh, _) = trainer();
    let mut last = None;
    for chunk in lp.log.chunks(REPLAY_CHUNK) {
        if let Some(snap) = fresh.ingest(chunk).pop() {
            last = Some(snap);
        }
    }
    let same = match (last, lp.trainer.latest_snapshot()) {
        (Some(a), Some(b)) => a.epoch() == b.epoch() && same_params(&a, b),
        _ => false,
    };
    rep.check(same, || {
        format!("replaying {} events does not reproduce the online parameters", lp.log.len())
    });
}

fn same_params(a: &FrozenParams, b: &FrozenParams) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((na, ta), (nb, tb))| {
            na == nb && ta.data().iter().zip(tb.data()).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

pub fn run(opts: &Opts) -> Report {
    // Kernels run on the calling thread, before any pool exists: over the
    // two-worker pool the trainer's ingest rate moved 13% between runs,
    // inline 4%, at about 10% less throughput.
    std::env::set_var("SEQFM_WORKERS", "1");
    let mut rep = Report::default();
    let layout = layout();
    let cfg = EngineConfig::builder().threads(1).max_seq(MAX_SEQ).build().expect("valid config");
    let mut build_s = Vec::new();
    let ((engine, trainer), setup_s) = timed_setup(SETUPS, || {
        let (trainer, frozen) = trainer();
        let served = FrozenSeqFm::from_params(Arc::clone(frozen.params()), *frozen.config());
        let t = Instant::now();
        let index = CatalogIndex::build(Arc::new(frozen), layout, BLOCK);
        build_s.push(t.elapsed().as_secs_f64());
        let engine = Engine::new_frozen(served, layout, cfg)
            .expect("valid engine")
            .with_catalog_index(Arc::new(index))
            .with_event_log();
        (engine, trainer)
    });
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let users = Skewed::new(N_USERS, USER_SKEW, &mut rng);
    let mut lp = Loop {
        engine,
        trainer,
        rng,
        users,
        shadow: Shadow::new(N_USERS, MAX_SEQ),
        log: Vec::new(),
        drained: Vec::new(),
        rounds: 0,
        last_epoch: ModelEpoch::ZERO,
        pairs: Vec::new(),
    };
    let mut quiet = Tracer::new(false);
    let mut warm = Phase::default();
    for _ in 0..WARM_ROUNDS {
        lp.round(&mut rep, &mut quiet, &mut warm);
    }
    let untraced = lp.phase(opts.seconds, &mut rep, &mut quiet);
    let fresh_p50 = median_or_zero(&untraced.fresh_ms);
    rep.note(tail_note("publish-to-settle", &untraced.fresh_ms));
    rep.note(format!(
        "online: {} rounds of {ROUND_EVENTS} events; index reused {:.1} of {} blocks per publish",
        untraced.fresh_ms.len(),
        median_or_zero(&untraced.reused),
        lp.engine.catalog_index().map_or(0, |i| i.n_blocks())
    ));
    if !opts.trace {
        let rss = peak_rss_mb();
        check_replay(&lp, &mut rep);
        rep.metric("setup_s", setup_s, "s");
        rep.metric("peak_rss_mb", rss, "MB");
        rep.metric("latency_p50_ms", fresh_p50, "ms");
        rep.metric("work_per_s", median_or_zero(&untraced.ingest_eps), "1/s");
        return rep;
    }
    let mut tracer = Tracer::new(true);
    let traced = lp.phase(opts.seconds, &mut rep, &mut tracer);
    check_replay(&lp, &mut rep);
    let (mut delta_ms, mut full_ms) = (Vec::new(), Vec::new());
    for (old, new) in &lp.pairs {
        let t0 = Instant::now();
        let delta = old.rebuild_for(Arc::clone(new));
        let t1 = Instant::now();
        let full = old.rebuild_full(Arc::clone(new));
        let t2 = Instant::now();
        delta_ms.push((t1 - t0).as_secs_f64() * 1e3);
        full_ms.push((t2 - t1).as_secs_f64() * 1e3);
        rep.check(delta.n_blocks() == full.n_blocks(), || {
            "delta and full rebuilds disagree on blocks".into()
        });
    }
    crate::write_spans(opts, &tracer, &mut rep);
    let rounds = traced.fresh_ms.len().max(1) as f64;
    let us = |name: &str| median_or_zero(&tracer.self_us(name));
    rep.metric(
        "trace.overhead_pct",
        (median_or_zero(&traced.fresh_ms) / fresh_p50 - 1.0) * 100.0,
        "%",
    );
    rep.metric("proc.cpu_ms_per_op", traced.cpu_s * 1e3 / rounds, "ms");
    rep.metric("retrieval.build_s", median_or_zero(&build_s), "s");
    rep.metric("train.drain_us", us("train.drain"), "us");
    rep.metric("train.ingest_ms", us("train.ingest") / 1e3, "ms");
    rep.metric("train.steps", traced.steps as f64 / rounds, "count/round");
    rep.metric("core.freeze_ms", us("core.freeze") / 1e3, "ms");
    rep.metric("serve.publish_us", us("serve.publish"), "us");
    rep.metric("serve.settle_ms", us("serve.settle") / 1e3, "ms");
    rep.metric("retrieval.rebuild_delta_ms", median_or_zero(&delta_ms), "ms");
    rep.metric("retrieval.rebuild_full_ms", median_or_zero(&full_ms), "ms");
    rep.metric("retrieval.reused_blocks", median_or_zero(&traced.reused), "count");
    rep
}
