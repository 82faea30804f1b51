//! `rank_stored`: a closed loop of stored-history ranking requests against
//! a Fast-profile engine. The serve layer (admission, coalescing, history
//! store, view cache) and the fast per-request forward do the work;
//! retrieval and training do none.

use crate::common::{
    cpu_seconds, distinct_items, median_or_zero, peak_rss_mb, same_bits, seqfm, tail_note,
    timed_setup, Opts, Report, Shadow, Skewed,
};
use crate::trace::{SpanId, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqfm_core::{FrozenSeqFm, ModelEpoch, Scorer, ScorerPrecision, Scratch, SeqFmConfig};
use seqfm_data::{build_instance, Batch, FeatureLayout};
use seqfm_serve::{Engine, EngineConfig, PendingResponse};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const D: usize = 32;
const MAX_SEQ: usize = 20;
/// Population several times the view cache, so popular users hit and the
/// tail misses.
const N_USERS: usize = 8_192;
const CACHE_ENTRIES: usize = 1_024;
const USER_SKEW: f64 = 1.0;
const N_ITEMS: usize = 20_000;
const CANDIDATES: usize = 100;
const TOP_K: usize = 10;
/// Requests the single client keeps in flight against one engine worker:
/// two busy threads at most, matching a 2-CPU host.
const IN_FLIGHT: usize = 2;
const ENGINE_THREADS: usize = 1;
/// One append per this many requests, always to a user with no request in
/// flight, so every response's window is known.
const APPEND_EVERY: u64 = 10;
/// Every this-many-th request is kept for re-scoring after the run.
const SAMPLE_EVERY: u64 = 64;
const MAX_SAMPLES: usize = 256;
const SETUPS: usize = 7;
const WARM: Duration = Duration::from_millis(1_000);
/// Per-logit envelope of the Fast profile against Exact, as documented in
/// `seqfm_core::precision`.
const ENV_ABS: f32 = 2e-2;
const ENV_REL: f32 = 1e-2;

fn layout() -> FeatureLayout {
    FeatureLayout { n_users: N_USERS, n_items: N_ITEMS }
}

fn model_cfg() -> SeqFmConfig {
    SeqFmConfig { d: D, max_seq: MAX_SEQ, dropout: 0.0, ..Default::default() }
}

/// A request kept for the after-run checks.
struct Sample {
    user: u32,
    window: Vec<u32>,
    candidates: Vec<u32>,
    ranked: Vec<(u32, f32)>,
}

struct InFlight {
    id: u64,
    user: u32,
    t0: Instant,
    candidates: Vec<u32>,
    window: Option<Vec<u32>>,
    pending: PendingResponse,
    span: Option<SpanId>,
}

/// What one timed phase measured.
struct Phase {
    latencies_ms: Vec<f64>,
    /// Completions in each whole second of the phase.
    per_second: Vec<u64>,
    cpu_s: f64,
    hits: u64,
    misses: u64,
}

struct Client {
    engine: Engine,
    rng: StdRng,
    users: Skewed,
    shadow: Shadow,
    submitted: u64,
    samples: Vec<Sample>,
}

impl Client {
    fn append(&mut self, rep: &mut Report, tracer: &mut Tracer, busy: &VecDeque<InFlight>) {
        let user = loop {
            let u = self.users.draw(&mut self.rng);
            if busy.iter().all(|f| f.user != u) {
                break u;
            }
        };
        let item = self.rng.gen_range(0..N_ITEMS as u32);
        let t = Instant::now();
        let r = self.engine.append_event(user, item);
        if tracer.on() {
            tracer.record("serve.append", self.submitted, None, t, Instant::now());
        }
        if rep.op(r).is_some() {
            self.shadow.push(user, item);
        }
    }

    fn submit(&mut self, rep: &mut Report, tracer: &mut Tracer, busy: &mut VecDeque<InFlight>) {
        if self.submitted.is_multiple_of(APPEND_EVERY) {
            self.append(rep, tracer, busy);
        }
        let id = self.submitted;
        self.submitted += 1;
        let user = self.users.draw(&mut self.rng);
        let mut candidates = Vec::with_capacity(CANDIDATES);
        distinct_items(&mut self.rng, N_ITEMS, CANDIDATES, &mut candidates);
        let window = (id.is_multiple_of(SAMPLE_EVERY) && self.samples.len() < MAX_SAMPLES)
            .then(|| self.shadow.window(user).to_vec());
        let t0 = Instant::now();
        let span = tracer.open("client.request", id, t0);
        let r = self.engine.submit_stored(user, candidates.clone());
        if tracer.on() {
            tracer.record("serve.submit", id, span, t0, Instant::now());
        }
        if let Some(pending) = rep.op(r) {
            busy.push_back(InFlight { id, user, t0, candidates, window, pending, span });
        }
    }

    /// Runs the closed loop for `secs`, then drains the requests still in
    /// flight.
    fn phase(&mut self, secs: f64, rep: &mut Report, tracer: &mut Tracer) -> Phase {
        let stats0 = self.engine.cache_stats();
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let mut busy: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
        let mut latencies_ms = Vec::new();
        let mut per_second = vec![0u64; secs.floor() as usize];
        loop {
            while busy.len() < IN_FLIGHT && Instant::now() < deadline {
                self.submit(rep, tracer, &mut busy);
            }
            let Some(f) = busy.pop_front() else { break };
            let tw = Instant::now();
            let r = f.pending.wait();
            let t2 = Instant::now();
            if tracer.on() {
                tracer.record("serve.wait", f.id, f.span, tw, t2);
                tracer.close(f.span, t2);
            }
            let Some(resp) = rep.op(r) else { continue };
            latencies_ms.push((t2 - f.t0).as_secs_f64() * 1e3);
            let sec = (t2 - start).as_secs_f64() as usize;
            if let Some(slot) = per_second.get_mut(sec) {
                *slot += 1;
            }
            let ranked: Vec<(u32, f32)> = resp.ranked.iter().map(|c| (c.item, c.score)).collect();
            rep.check(resp.epoch == ModelEpoch::ZERO, || {
                format!("request {}: epoch {}", f.id, resp.epoch)
            });
            rep.check(ranked.len() == TOP_K, || {
                format!("request {}: {} entries", f.id, ranked.len())
            });
            rep.check(ranked.iter().all(|(it, _)| f.candidates.contains(it)), || {
                format!("request {}: an entry is not one of its candidates", f.id)
            });
            rep.check(ranked.windows(2).all(|w| w[0].1 >= w[1].1), || {
                format!("request {}: entries out of score order", f.id)
            });
            if let Some(window) = f.window {
                self.samples.push(Sample {
                    user: f.user,
                    window,
                    candidates: f.candidates,
                    ranked,
                });
            }
        }
        let stats1 = self.engine.cache_stats();
        Phase {
            latencies_ms,
            per_second,
            cpu_s: cpu_seconds() - cpu0,
            hits: stats1.hits - stats0.hits,
            misses: stats1.misses - stats0.misses,
        }
    }
}

/// The candidate-expansion batch of one request, built from the data
/// crate's instance builder rather than the serve layer's expansion.
fn expansion(layout: &FeatureLayout, s: &Sample) -> Batch {
    let rows: Vec<_> = s
        .candidates
        .iter()
        .map(|&c| build_instance(layout, s.user, c, &s.window, MAX_SEQ, 0.0))
        .collect();
    Batch::try_from_instances(&rows).expect("non-empty request")
}

/// Best `TOP_K` of `(candidate, score)` by descending score, ties in
/// request order: the ranking a response must reproduce.
fn top_k(candidates: &[u32], scores: &[f32]) -> Vec<(u32, f32)> {
    let mut all: Vec<(u32, f32)> = candidates.iter().copied().zip(scores.iter().copied()).collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1));
    all.truncate(TOP_K);
    all
}

/// Re-scores the kept requests outside the engine: bit for bit through a
/// separately frozen Fast model, within the documented envelope through an
/// Exact one. With a tracer on, also times the history view and the
/// view-based forward the engine runs per request.
fn verify_samples(
    samples: &[Sample],
    fast: &FrozenSeqFm,
    exact: &FrozenSeqFm,
    rep: &mut Report,
    tracer: &mut Tracer,
) {
    let layout = layout();
    let mut scratch = Scratch::new();
    for (i, s) in samples.iter().enumerate() {
        let batch = expansion(&layout, s);
        let fast_scores = fast.score(&batch, &mut scratch).to_vec();
        let want = top_k(&s.candidates, &fast_scores);
        rep.check(same_bits(&want, &s.ranked), || {
            format!("user {}: response differs from a direct Fast re-score", s.user)
        });
        let exact_scores = exact.score(&batch, &mut scratch).to_vec();
        for &(item, got) in &s.ranked {
            let pos = s.candidates.iter().position(|&c| c == item).expect("checked in the loop");
            let e = exact_scores[pos];
            rep.check((got - e).abs() <= ENV_ABS + ENV_REL * e.abs(), || {
                format!("user {} item {item}: fast {got} vs exact {e} outside the envelope", s.user)
            });
        }
        if tracer.on() {
            let span = tracer.open("client.replay", i as u64, Instant::now());
            let t0 = Instant::now();
            let view = fast.history_view(&batch.dyn_idx[..MAX_SEQ], &mut scratch);
            let t1 = Instant::now();
            let replayed = fast.score_with_view(&batch, &view, &mut scratch).to_vec();
            let t2 = Instant::now();
            tracer.record("core.view", i as u64, span, t0, t1);
            tracer.record("core.score", i as u64, span, t1, t2);
            tracer.close(span, t2);
            rep.check(
                replayed.iter().zip(&fast_scores).all(|(a, b)| a.to_bits() == b.to_bits()),
                || format!("user {}: view-based forward differs from the plain forward", s.user),
            );
        }
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let layout = layout();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let users = Skewed::new(N_USERS, USER_SKEW, &mut rng);
    // Initial histories: 10 to 20 events per user.
    let mut events = Vec::new();
    for u in 0..N_USERS as u32 {
        for _ in 0..rng.gen_range(MAX_SEQ / 2..=MAX_SEQ) {
            events.push((u, rng.gen_range(0..N_ITEMS as u32)));
        }
    }
    let cfg = EngineConfig::builder()
        .threads(ENGINE_THREADS)
        .max_seq(MAX_SEQ)
        .top_k(TOP_K)
        .cache_entries(CACHE_ENTRIES)
        .precision(ScorerPrecision::Fast)
        .build()
        .expect("valid engine config");
    let (engine, setup_s) = timed_setup(SETUPS, || {
        let (model, ps) = seqfm(&layout, model_cfg());
        let engine = Engine::new_frozen(FrozenSeqFm::freeze(&model, &ps), layout, cfg)
            .expect("valid engine");
        for &(u, i) in &events {
            engine.append_event(u, i).expect("generated ids are in the layout");
        }
        engine
    });
    let (model, ps) = seqfm(&layout, model_cfg());
    let exact = FrozenSeqFm::freeze(&model, &ps);
    let fast = FrozenSeqFm::freeze(&model, &ps).with_precision(ScorerPrecision::Fast);
    let mut shadow = Shadow::new(N_USERS, MAX_SEQ);
    for &(u, i) in &events {
        shadow.push(u, i);
    }
    let mut client = Client { engine, rng, users, shadow, submitted: 0, samples: Vec::new() };
    let mut quiet = Tracer::new(false);
    client.phase(WARM.as_secs_f64(), &mut rep, &mut quiet);
    client.samples.clear();
    let untraced = client.phase(opts.seconds, &mut rep, &mut quiet);
    let p50 = median_or_zero(&untraced.latencies_ms);
    rep.note(tail_note("score", &untraced.latencies_ms));
    rep.note(format!("completions per second: {:?}", untraced.per_second));
    rep.note(format!(
        "view cache: {} hits, {} misses over {} requests",
        untraced.hits,
        untraced.misses,
        untraced.latencies_ms.len()
    ));
    if !opts.trace {
        let rss = peak_rss_mb();
        verify_samples(&client.samples, &fast, &exact, &mut rep, &mut quiet);
        let rates: Vec<f64> = untraced.per_second.iter().map(|&n| n as f64).collect();
        rep.metric("setup_s", setup_s, "s");
        rep.metric("peak_rss_mb", rss, "MB");
        rep.metric("latency_p50_ms", p50, "ms");
        rep.metric("work_per_s", median_or_zero(&rates), "1/s");
        return rep;
    }
    client.samples.clear();
    let mut tracer = Tracer::new(true);
    let traced = client.phase(opts.seconds, &mut rep, &mut tracer);
    verify_samples(&client.samples, &fast, &exact, &mut rep, &mut tracer);
    crate::write_spans(opts, &tracer, &mut rep);
    let lookups = (traced.hits + traced.misses).max(1) as f64;
    rep.metric(
        "trace.overhead_pct",
        (median_or_zero(&traced.latencies_ms) / p50 - 1.0) * 100.0,
        "%",
    );
    rep.metric("serve.submit_us", median_or_zero(&tracer.self_us("serve.submit")), "us");
    rep.metric("serve.wait_us", median_or_zero(&tracer.self_us("serve.wait")), "us");
    rep.metric("serve.append_us", median_or_zero(&tracer.self_us("serve.append")), "us");
    rep.metric("serve.cache_hits", traced.hits as f64, "count");
    rep.metric("serve.cache_misses", traced.misses as f64, "count");
    rep.metric("serve.cache_hit_ratio", traced.hits as f64 / lookups, "ratio");
    rep.metric("core.view_us", median_or_zero(&tracer.self_us("core.view")), "us");
    rep.metric("core.score_us", median_or_zero(&tracer.self_us("core.score")), "us");
    rep.metric(
        "proc.cpu_ms_per_op",
        traced.cpu_s * 1e3 / traced.latencies_ms.len().max(1) as f64,
        "ms",
    );
    rep
}
