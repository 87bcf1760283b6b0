//! The three workloads, their request mixes, and the closed loops that
//! drive the engine from the caller's side: in process through
//! `Engine::submit`/`Ticket::wait`, and over loopback through `POST /plan`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Instant;

use rrp_core::{PlanningParams, RentalPlan};
use rrp_engine::{
    Engine, EngineConfig, MetricsConfig, PlanRequest, PlanResponse, PolicyKind, RungOutcome,
    ShardConfig,
};

use crate::gen::{self, Stream, REPLAN_TENANTS};
use crate::oracle;
use crate::spans::Spans;
use crate::sys::percentile;

/// Engine workers. The load never uses more client threads than there
/// are cores (two here), so the workers are what the cores run.
pub const WORKERS: usize = 2;
/// In the `milp_mix` round: this many capacitated re-plans, then one SRRP.
const MIX_REPLANS: u64 = 3;
/// In the `http_plan` round, the body at this position is malformed.
const HTTP_MALFORMED_AT: u64 = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DpUncached,
    MilpMix,
    HttpPlan,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::DpUncached, Workload::MilpMix, Workload::HttpPlan];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DpUncached => "dp_uncached",
            Workload::MilpMix => "milp_mix",
            Workload::HttpPlan => "http_plan",
        }
    }

    /// Requests per round; every run attempts whole rounds.
    pub fn round_len(self) -> u64 {
        match self {
            Workload::DpUncached => 64,
            Workload::MilpMix => MIX_REPLANS + 1,
            Workload::HttpPlan => 50,
        }
    }

    /// Requests in flight: the submit window in process, client
    /// connections over HTTP. The in-process windows are deep so that while
    /// the host stalls one CPU, the other worker still has queued work (the
    /// generator waits in submission order and refills only behind the
    /// oldest ticket).
    pub fn window(self) -> usize {
        match self {
            Workload::DpUncached => 4096,
            Workload::MilpMix => 64,
            Workload::HttpPlan => WORKERS,
        }
    }

    /// Answers per block of a phase. Each block's p99 has at least ten
    /// answers beyond it; on `dp_uncached` a block is three windows, about
    /// 0.8 s at the reference rate.
    pub fn block_len(self) -> usize {
        match self {
            Workload::DpUncached => 3 * self.window(),
            Workload::MilpMix | Workload::HttpPlan => 1000,
        }
    }

    /// Rounds of the warm-up pass that set-up ends with.
    pub fn warmup_rounds(self) -> u64 {
        match self {
            Workload::DpUncached => 128,
            // one re-plan per tenant, so every measured re-plan warm-starts
            Workload::MilpMix => REPLAN_TENANTS as u64 / MIX_REPLANS,
            Workload::HttpPlan => 8,
        }
    }

    pub fn is_http(self) -> bool {
        self == Workload::HttpPlan
    }

    /// Build the engine this workload drives: sharded, two workers, and
    /// for HTTP the `/plan` intake on an ephemeral loopback port.
    /// `count_events` turns on the engine's solver-event counters.
    pub fn engine(self, count_events: bool) -> Engine {
        let metrics = self.is_http().then(|| MetricsConfig {
            addr: Some("127.0.0.1:0".to_string()),
            ..MetricsConfig::default()
        });
        let config = EngineConfig {
            shard: Some(ShardConfig::default()),
            count_solver_events: count_events,
            metrics,
            ..EngineConfig::default()
        };
        Engine::with_config(WORKERS, config)
    }
}

/// What a request is, for the per-class tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Dp,
    Replan,
    Srrp,
    Malformed,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Dp => "dp",
            Class::Replan => "drrp_replan",
            Class::Srrp => "srrp",
            Class::Malformed => "malformed",
        }
    }
}

/// Request `index` of an in-process workload's stream.
pub fn inproc_request(w: Workload, seed: u64, stream: Stream, index: u64) -> (Class, PlanRequest) {
    match w {
        Workload::DpUncached | Workload::HttpPlan => {
            (Class::Dp, gen::dp_input(seed, stream, index).to_request(index))
        }
        Workload::MilpMix => {
            let round = index / (MIX_REPLANS + 1);
            let pos = index % (MIX_REPLANS + 1);
            if pos < MIX_REPLANS {
                let k = round * MIX_REPLANS + pos;
                let tenants = REPLAN_TENANTS as u64;
                (
                    Class::Replan,
                    gen::replan_request(seed, stream, (k % tenants) as usize, k / tenants),
                )
            } else {
                (Class::Srrp, gen::srrp_request(seed, stream, round))
            }
        }
    }
}

/// Check an in-process answer: a plan from the requested rung, solved (not
/// cut by the clock) and on time, that passes [`check_plan_answer`].
pub fn check_response(req: &PlanRequest, resp: &PlanResponse) -> Result<(), String> {
    let plan = match (&resp.plan, &resp.rejection) {
        (Some(plan), _) => plan,
        (None, Some(proof)) => return Err(format!("rejected: {proof}")),
        (None, None) => return Err("neither plan nor rejection".to_string()),
    };
    let want = req.policy.start_level();
    if resp.degradation != want {
        return Err(format!("answered from {:?}, asked for {want:?}", resp.degradation));
    }
    if !resp.cache_hit {
        match resp.trace.last() {
            Some(e) if e.level == want && e.outcome == RungOutcome::Solved => {}
            other => return Err(format!("rung not solved: {other:?}")),
        }
    }
    if !resp.deadline_met {
        return Err("deadline missed".to_string());
    }
    check_plan_answer(req, plan)
}

/// The plan properties, and an objective at the optimum the oracles
/// compute (SRRP: no cheaper than the uncapacitated optimum at schedule
/// prices, a lower bound on any plan meeting the schedule's demand).
pub fn check_plan_answer(req: &PlanRequest, plan: &RentalPlan) -> Result<(), String> {
    oracle::check_plan(&req.schedule, &req.params, plan)?;
    let s = &req.schedule;
    match req.policy {
        PolicyKind::DynamicProgram | PolicyKind::Deterministic => {
            let opt = match req.params.capacity {
                Some(cap) => oracle::capacitated_optimum(s, &req.params, cap),
                None => oracle::uncapacitated_optimum(s, &req.params),
            };
            if !oracle::matches_optimum(plan.objective, opt, 0.0) {
                return Err(format!("objective {} vs oracle {opt}", plan.objective));
            }
        }
        PolicyKind::Stochastic => {
            let relaxed = PlanningParams { capacity: None, ..req.params };
            let bound = oracle::uncapacitated_optimum(s, &relaxed);
            if !oracle::at_least(plan.objective, bound) {
                return Err(format!(
                    "SRRP plan costs {} below the DP bound {bound}",
                    plan.objective
                ));
            }
        }
        PolicyKind::OnDemand => {}
    }
    Ok(())
}

/// Whether body `index` of an HTTP round is the malformed one.
pub fn is_malformed(index: u64, round: u64) -> bool {
    index % round == HTTP_MALFORMED_AT
}

/// How long a loop runs: a fixed number of rounds, or whole rounds until
/// the given number of seconds has passed.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Rounds(u64),
    Seconds(f64),
}

/// Request and failure counts of one closed-loop phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: BTreeMap<&'static str, u64>,
    /// Failures by kind; `malformed_500` is the known intake fault.
    pub failed: BTreeMap<&'static str, u64>,
    /// Answers that disagreed with an oracle or a plan property.
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

impl Tally {
    pub fn attempted_total(&self) -> u64 {
        self.attempted.values().sum()
    }

    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        *self.failed.entry("mismatch").or_default() += 1;
        self.first_mismatch.get_or_insert(what);
    }

    fn merge(&mut self, other: Tally) {
        for (k, v) in other.attempted {
            *self.attempted.entry(k).or_default() += v;
        }
        for (k, v) in other.failed {
            *self.failed.entry(k).or_default() += v;
        }
        self.mismatches += other.mismatches;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
    }
}

/// Caller-side figures of one block of consecutive answers.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub answers: usize,
    /// Answers over the time from the previous block's last answer (or the
    /// phase start) to this block's last, per second.
    pub throughput: f64,
    pub sojourn_p50: f64,
    pub sojourn_p99: f64,
    /// The engine's own `PlanResponse::latency` (or the reply's
    /// `latency_ms`), median.
    pub service_p50: f64,
    /// Sojourn minus service: queue wait in process, the intake's overhead
    /// over HTTP.
    pub gap_p50: f64,
    pub gap_p99: f64,
}

/// The answers of a phase, reduced block by block: every `len`
/// consecutive answers become one [`Block`] as soon as they are in. The
/// buffers are allocated and written in full before the phase starts, so
/// the benchmark's own memory does not grow with the number of answers and
/// `peak_rss_mb` stays the engine's.
#[derive(Debug)]
pub struct Blocks {
    sojourn_ms: Vec<f64>,
    service_ms: Vec<f64>,
    gap_ms: Vec<f64>,
    filled: usize,
    /// When the last answer before the open block was held, seconds since
    /// the phase started.
    start_s: f64,
    last_s: f64,
    pub done: Vec<Block>,
    /// Answers in total, blocked or not.
    pub answered: u64,
}

impl Blocks {
    fn new(len: usize) -> Self {
        Self {
            sojourn_ms: vec![0.0; len],
            service_ms: vec![0.0; len],
            gap_ms: vec![0.0; len],
            filled: 0,
            start_s: 0.0,
            last_s: 0.0,
            done: Vec::new(),
            answered: 0,
        }
    }

    /// One answer, held `done_s` after the phase started.
    fn record(&mut self, done_s: f64, sojourn_ms: f64, service_ms: f64) {
        let i = self.filled;
        self.sojourn_ms[i] = sojourn_ms;
        self.service_ms[i] = service_ms;
        self.gap_ms[i] = sojourn_ms - service_ms;
        self.filled += 1;
        self.answered += 1;
        self.last_s = self.last_s.max(done_s);
        if self.filled == self.sojourn_ms.len() {
            self.close();
        }
    }

    fn close(&mut self) {
        let n = self.filled;
        let p50_p99 = |xs: &mut Vec<f64>| {
            let part = &mut xs[..n];
            part.sort_by(f64::total_cmp);
            (percentile(part, 0.50), percentile(part, 0.99))
        };
        let (sojourn_p50, sojourn_p99) = p50_p99(&mut self.sojourn_ms);
        let (service_p50, _) = p50_p99(&mut self.service_ms);
        let (gap_p50, gap_p99) = p50_p99(&mut self.gap_ms);
        self.done.push(Block {
            answers: n,
            throughput: n as f64 / (self.last_s - self.start_s),
            sojourn_p50,
            sojourn_p99,
            service_p50,
            gap_p50,
            gap_p99,
        });
        self.start_s = self.last_s;
        self.filled = 0;
    }

    /// End of the phase: a phase too short for one whole block makes one
    /// block of what it has; otherwise the answers after the last whole
    /// block stay out of the blocks.
    fn finish(&mut self) {
        if self.done.is_empty() && self.filled > 0 {
            self.close();
        }
    }

    /// Answers after the last whole block, in no block.
    pub fn unblocked(&self) -> usize {
        self.filled
    }
}

/// What one closed-loop phase counted and measured.
#[derive(Debug)]
pub struct LoopStats {
    pub tally: Tally,
    pub blocks: Blocks,
    /// Per-rung elapsed time reported in `PlanResponse::trace`, ms (traced
    /// phases only).
    pub rung_ms: BTreeMap<&'static str, Vec<f64>>,
    /// From the first submission to the last answer, seconds.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
}

impl LoopStats {
    pub fn answered(&self) -> u64 {
        self.blocks.answered
    }
}

/// One in-process closed loop: a single generator thread keeps
/// `w.window()` tickets in flight and waits on them in submission order.
/// With `spans`, each request records a `request` span with its `submit`
/// and `wait` calls as children, and rung times are kept.
pub fn run_inproc(
    engine: &Engine,
    w: Workload,
    seed: u64,
    stream: Stream,
    limit: Limit,
    mut spans: Option<&mut Spans>,
) -> LoopStats {
    let mut tally = Tally::default();
    let mut blocks = Blocks::new(w.block_len());
    let mut rung_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut inflight: VecDeque<(u64, Instant, PlanRequest, rrp_engine::Ticket, Option<usize>)> =
        VecDeque::with_capacity(w.window());
    let round = w.round_len();
    let t0 = Instant::now();
    let cpu0 = crate::sys::cpu_seconds();
    let mut next = 0u64;
    let mut stop = false;
    let mut last_answer = t0;
    loop {
        while !stop && inflight.len() < w.window() {
            let (class, req) = inproc_request(w, seed, stream, next);
            *tally.attempted.entry(class.name()).or_default() += 1;
            let span = spans.as_deref_mut().map(|s| s.open("request", None, next));
            let sub = spans.as_deref_mut().map(|s| s.open("submit", span, next));
            let submitted = Instant::now();
            let ticket = engine.submit(req.clone());
            if let (Some(s), Some(id)) = (spans.as_deref_mut(), sub) {
                s.close(id);
            }
            inflight.push_back((next, submitted, req, ticket, span));
            next += 1;
            stop = match limit {
                Limit::Rounds(n) => next == n * round,
                Limit::Seconds(secs) => {
                    next.is_multiple_of(round) && t0.elapsed().as_secs_f64() >= secs
                }
            };
        }
        let Some((index, submitted, req, ticket, span)) = inflight.pop_front() else { break };
        let wait = spans.as_deref_mut().map(|s| s.open("wait", span, index));
        let resp = ticket.wait();
        let now = Instant::now();
        if let Some(s) = spans.as_deref_mut() {
            s.close(wait.expect("wait span"));
            s.close(span.expect("request span"));
        }
        last_answer = now;
        match check_response(&req, &resp) {
            Ok(()) => {
                blocks.record(
                    (now - t0).as_secs_f64(),
                    (now - submitted).as_secs_f64() * 1e3,
                    resp.latency.as_secs_f64() * 1e3,
                );
                if spans.is_some() {
                    for e in &resp.trace {
                        rung_ms
                            .entry(e.level.as_str())
                            .or_default()
                            .push(e.elapsed.as_secs_f64() * 1e3);
                    }
                }
            }
            Err(why) => tally.mismatch(format!("request {index} ({}): {why}", req.app_id)),
        }
    }
    blocks.finish();
    LoopStats {
        tally,
        blocks,
        rung_ms,
        wall_s: (last_answer - t0).as_secs_f64(),
        cpu_s: crate::sys::cpu_seconds() - cpu0,
    }
}

/// Hands out request indices to the HTTP clients, stopping after a whole
/// round once the time is up.
struct Dispenser {
    next: u64,
    stopped: bool,
}

/// The HTTP closed loop: `w.window()` client threads, each sending its next
/// `POST /plan` (one TCP connection per request) when the previous reply
/// has arrived. The answers of all clients go into one set of blocks, in
/// the order they are held.
pub fn run_http(
    addr: SocketAddr,
    w: Workload,
    seed: u64,
    stream: Stream,
    limit: Limit,
    spans: Option<&mut Spans>,
) -> LoopStats {
    let round = w.round_len();
    let dispenser = Mutex::new(Dispenser { next: 0, stopped: false });
    let blocks = Mutex::new(Blocks::new(w.block_len()));
    let traced = spans.is_some();
    let t0 = Instant::now();
    let origin = spans.as_ref().map_or(t0, |s| s.origin());
    let cpu0 = crate::sys::cpu_seconds();
    let results: Vec<(Tally, Spans, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.window())
            .map(|_| {
                let (dispenser, blocks) = (&dispenser, &blocks);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut local = Spans::new(origin);
                    let mut last = t0;
                    loop {
                        let index = {
                            let mut d = dispenser.lock().expect("dispenser lock poisoned");
                            if d.stopped {
                                break;
                            }
                            let i = d.next;
                            d.next += 1;
                            d.stopped = match limit {
                                Limit::Rounds(n) => d.next == n * round,
                                Limit::Seconds(secs) => {
                                    d.next.is_multiple_of(round)
                                        && t0.elapsed().as_secs_f64() >= secs
                                }
                            };
                            i
                        };
                        let spans = traced.then_some(&mut local);
                        let one = HttpOne { addr, seed, stream, index, round, t0 };
                        one.run(&mut tally, blocks, spans);
                        last = Instant::now();
                    }
                    (tally, local, last)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("HTTP client thread panicked")).collect()
    });
    let mut tally = Tally::default();
    let mut last = t0;
    let mut all_spans = spans;
    for (t, local, l) in results {
        tally.merge(t);
        last = last.max(l);
        if let Some(target) = all_spans.as_deref_mut() {
            target.absorb(local);
        }
    }
    let mut blocks = blocks.into_inner().expect("blocks lock poisoned");
    blocks.finish();
    LoopStats {
        tally,
        blocks,
        rung_ms: BTreeMap::new(),
        wall_s: (last - t0).as_secs_f64(),
        cpu_s: crate::sys::cpu_seconds() - cpu0,
    }
}

/// One `POST /plan` of an HTTP phase.
struct HttpOne {
    addr: SocketAddr,
    seed: u64,
    stream: Stream,
    index: u64,
    round: u64,
    t0: Instant,
}

impl HttpOne {
    /// Send the request and account its reply.
    fn run(&self, tally: &mut Tally, blocks: &Mutex<Blocks>, mut spans: Option<&mut Spans>) {
        let index = self.index;
        let malformed = is_malformed(index, self.round);
        let class = if malformed { Class::Malformed } else { Class::Dp };
        *tally.attempted.entry(class.name()).or_default() += 1;
        let input = gen::dp_input(self.seed, self.stream, index);
        let body = gen::plan_body(&input, index, malformed);
        let span = spans.as_deref_mut().map(|s| s.open("http_request", None, index));
        let sent = Instant::now();
        let reply = post_plan(self.addr, &body);
        let held = Instant::now();
        if let (Some(s), Some(id)) = (spans, span) {
            s.close(id);
        }
        let (status, reply) = match reply {
            Ok(r) => r,
            Err(e) => {
                *tally.failed.entry("io_error").or_default() += 1;
                tally.first_mismatch.get_or_insert(format!("request {index}: {e}"));
                return;
            }
        };
        if malformed {
            // the intake should refuse a negative demand with a 400; until it
            // validates, the worker panics and the client gets a 500
            match status {
                400 => {}
                500 => *tally.failed.entry("malformed_500").or_default() += 1,
                other => tally.mismatch(format!("malformed body {index} got {other}: {reply}")),
            }
            return;
        }
        match check_http_reply(&input, status, &reply) {
            Ok(latency_ms) => blocks.lock().expect("blocks lock poisoned").record(
                (held - self.t0).as_secs_f64(),
                (held - sent).as_secs_f64() * 1e3,
                latency_ms,
            ),
            Err(why) => tally.mismatch(format!("request {index}: {why}")),
        }
    }
}

/// A `/plan` reply must be a 200 with an unrejected plan from the DP rung,
/// on time, whose objective matches the oracle (up to the reply's six
/// printed decimals). Returns the engine's reported latency.
fn check_http_reply(input: &gen::DpInput, status: u16, body: &str) -> Result<f64, String> {
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    if json_field(body, "degradation") != Some("\"dynamic-program\"") {
        return Err(format!("not answered from the DP rung: {body}"));
    }
    if json_field(body, "rejected") != Some("false")
        || json_field(body, "deadline_met") != Some("true")
    {
        return Err(format!("rejected or late: {body}"));
    }
    let number = |name: &str| -> Result<f64, String> {
        json_field(body, name)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("no numeric \"{name}\" in {body}"))
    };
    let objective = number("objective")?;
    let schedule = input.to_request(0).schedule;
    let opt = oracle::uncapacitated_optimum(&schedule, &Default::default());
    if !oracle::matches_optimum(objective, opt, 1e-6) {
        return Err(format!("objective {objective} vs oracle {opt}"));
    }
    number("latency_ms")
}

/// The raw text of a top-level field of a flat JSON object.
fn json_field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let start = body.find(&key)? + key.len();
    let rest = &body[start..];
    let end = match rest.strip_prefix('"') {
        Some(quoted) => quoted.find('"')? + 2,
        None => rest.find([',', '}'])?,
    };
    Some(&rest[..end])
}

/// One `POST /plan` on a fresh connection; returns status and body.
fn post_plan(addr: SocketAddr, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "POST /plan HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::with_capacity(512);
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line: {text}")))?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}
