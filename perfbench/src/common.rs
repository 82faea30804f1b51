//! What the three workloads share: options, the report they print, process
//! readings, input generators and model construction.

use crate::stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqfm_autograd::ParamStore;
use seqfm_core::{SeqFm, SeqFmConfig};
use seqfm_data::FeatureLayout;
use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line of one workload run.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
}

/// One workload run's outcome: the operation counts, the correctness
/// verdict, the metrics, and free-form notes printed before the result.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed correctness check (the run then reports
    /// `"correct": false`); the message goes to standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.errors.push(msg);
        }
    }

    /// Counts one attempted operation and whether it failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {e}");
                None
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes, then the result object as the last line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Runs `setup` `n` times and returns the last result with the median
/// wall time of one set-up in seconds. Earlier results are dropped before
/// the next set-up starts, so only one copy is ever alive.
pub fn timed_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&secs))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    // `after` starts at field 3 (state), so field 14 is at index 11.
    (tick(11) + tick(12)) / 100.0
}

/// Draws ids `0..n` with Zipf-like popularity `1 / rank^s`, the ranks
/// shuffled over the ids so popular ids are spread across the id space.
pub struct Skewed {
    cdf: Vec<f64>,
    ids: Vec<u32>,
}

impl Skewed {
    pub fn new(n: usize, s: f64, rng: &mut StdRng) -> Skewed {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        rand::seq::SliceRandom::shuffle(&mut ids[..], rng);
        Skewed { cdf, ids }
    }

    pub fn draw(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.ids.len() - 1);
        self.ids[rank]
    }
}

/// `k` distinct items drawn uniformly from `0..n_items`.
pub fn distinct_items(rng: &mut StdRng, n_items: usize, k: usize, out: &mut Vec<u32>) {
    out.clear();
    while out.len() < k {
        let item = rng.gen_range(0..n_items as u32);
        if !out.contains(&item) {
            out.push(item);
        }
    }
}

/// Seed of the model weights. The weights are fixed across runs so that
/// `--seed` varies only the traffic (users, histories, candidates, events)
/// and runs with different seeds measure the same model.
pub const MODEL_SEED: u64 = 17;

/// A fresh SeqFM over `layout`, initialised from [`MODEL_SEED`].
pub fn seqfm(layout: &FeatureLayout, cfg: SeqFmConfig) -> (SeqFm, ParamStore) {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let model = SeqFm::new(&mut ps, &mut rng, layout, cfg);
    (model, ps)
}

/// Reshapes the item linear weights into a popularity skew, the shape of a
/// trained implicit-feedback model (a hot head, a long negative tail) and
/// the regime in which the retrieval prune fires. Same curve as
/// `crates/bench/benches/retrieval.rs`: `2 − 24·√(rank / n)`.
pub fn skew_item_weights(ps: &mut ParamStore, layout: &FeatureLayout) {
    let id = ps.id_of("seqfm.w_static.table").expect("item linear table");
    let w = ps.value_mut(id).data_mut();
    let n = layout.n_items;
    for c in 0..n {
        let r = (c as f32 + 1.0) / n as f32;
        w[layout.n_users + c] = 2.0 - 24.0 * r.sqrt();
    }
}

/// Per-user recent-history mirror kept by the client, so every request's
/// window is known without asking the program under test.
pub struct Shadow {
    cap: usize,
    rings: Vec<Vec<u32>>,
}

impl Shadow {
    pub fn new(n_users: usize, cap: usize) -> Shadow {
        Shadow { cap, rings: vec![Vec::new(); n_users] }
    }

    pub fn push(&mut self, user: u32, item: u32) {
        let ring = &mut self.rings[user as usize];
        if ring.len() == self.cap {
            ring.remove(0);
        }
        ring.push(item);
    }

    pub fn window(&self, user: u32) -> &[u32] {
        &self.rings[user as usize]
    }
}

/// Exact total order of two score lists, bit for bit.
pub fn same_bits(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// The note naming a latency sample's median and tail, with its count.
pub fn tail_note(label: &str, latencies_ms: &[f64]) -> String {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match stats::tail(&sorted) {
        Some((p, v, beyond)) => format!(
            "{label} latency: p50 {:.4} ms, tail p{p:.2} {v:.4} ms over {n} samples ({beyond} beyond it)",
            median_or_zero(&sorted)
        ),
        None => format!("{label} latency: p50 {:.4} ms over {n} samples, too few for a tail", median_or_zero(&sorted)),
    }
}

/// Median of a non-empty sample, else 0 (a layer the run never reached).
pub fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}
