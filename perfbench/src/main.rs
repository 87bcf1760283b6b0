//! Caller-side benchmark of the rrp planning engine.
//!
//! ```text
//! perfbench --workload <dp_uncached|milp_mix|http_plan> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selfcheck [--seed <n>]
//! ```
//!
//! `--trace 0` runs one workload's closed loop and reports the end-to-end
//! metrics; `--trace 1` runs the traced pass and reports the per-layer
//! metrics; `--selfcheck` checks the oracles against `rrp_milp`. The last
//! line of standard output is the JSON result. See `README.md`.

mod gen;
mod layers;
mod oracle;
mod selfcheck;
mod spans;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use rrp_engine::Engine;

use crate::gen::Stream;
use crate::layers::Replay;
use crate::spans::Spans;
use crate::sys::median;
use crate::workload::{run_http, run_inproc, Block, Limit, LoopStats, Workload, WORKERS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Measured rounds of the traced replay, per workload.
const REPLAY_ROUNDS: [(Workload, u64); 3] =
    [(Workload::DpUncached, 100), (Workload::MilpMix, 24), (Workload::HttpPlan, 128)];
/// Where the traced run writes its spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10.0, trace: false, selfcheck: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck::run(args.seed);
    }
    let Some(w) = args.workload else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} workers={WORKERS} nproc={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc()
    );
    let result = if args.trace {
        traced(w, args.seed, args.seconds)
    } else {
        untraced(w, args.seed, args.seconds)
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// The final JSON line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // a metric with no samples would be NaN, which JSON cannot hold
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// A started engine after its warm-up pass.
struct Ready {
    engine: Engine,
    warmup: LoopStats,
}

/// Start the engine, bind the listener, run the warm-up pass.
fn set_up(w: Workload, seed: u64, count_events: bool) -> Ready {
    let engine = w.engine(count_events);
    let warmup = drive(&engine, w, seed, Stream::Warmup, Limit::Rounds(w.warmup_rounds()), None);
    Ready { engine, warmup }
}

/// Run one closed-loop phase against a ready engine.
fn drive(
    engine: &Engine,
    w: Workload,
    seed: u64,
    stream: Stream,
    limit: Limit,
    spans: Option<&mut Spans>,
) -> LoopStats {
    if w.is_http() {
        let addr = engine.metrics_addr().expect("HTTP workload binds a /plan listener");
        run_http(addr, w, seed, stream, limit, spans)
    } else {
        run_inproc(engine, w, seed, stream, limit, spans)
    }
}

fn throughput(s: &LoopStats) -> f64 {
    s.answered() as f64 / s.wall_s
}

fn print_tallies(label: &str, stats: &LoopStats) {
    let s = &stats.tally;
    let attempted: Vec<String> = s.attempted.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let failed: Vec<String> = s.failed.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "{label}: attempted {} [{}] failed {} [{}] answered {}",
        s.attempted_total(),
        attempted.join(" "),
        s.failed_total(),
        failed.join(" "),
        stats.answered()
    );
    if let Some(m) = &s.first_mismatch {
        println!("{label}: first mismatch: {m}");
    }
}

fn print_solver_totals(label: &str, r: &Replay) {
    println!(
        "{label}: {} requests, B&B nodes {}, LP iterations {}, audits {}, oracle mismatches {}",
        r.requests, r.milp_nodes, r.lp_iters, r.audits, r.mismatches
    );
    if let Some(m) = &r.first_mismatch {
        println!("{label}: first mismatch: {m}");
    }
}

/// `--trace 0`: set up [`SETUP_REPEATS`] times, measure the last engine for
/// `seconds`, report the end-to-end metrics.
fn untraced(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut correct = true;
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let t0 = Instant::now();
        let r = set_up(w, seed, false);
        setup_s.push(t0.elapsed().as_secs_f64());
        correct &= r.warmup.tally.mismatches == 0;
        ready = Some(r);
    }
    let ready = ready.expect("at least one set-up");
    print_tallies("warm-up", &ready.warmup);
    let stats = drive(&ready.engine, w, seed, Stream::Measured, Limit::Seconds(seconds), None);
    let snap = ready.engine.metrics();
    println!(
        "engine: completed {} cache hits {} audits {} rejections {} deadline misses {} \
         basis hit rate {:.4}",
        snap.completed,
        snap.cache_hits,
        snap.audits,
        snap.audit_rejections,
        snap.deadline_misses,
        ready.engine.basis_cache_hit_rate()
    );
    drop(ready);
    let peak_rss_mb = sys::peak_rss_mb();
    print_tallies("measured", &stats);
    correct &= stats.tally.mismatches == 0 && stats.answered() > 0;
    // exact solver totals over the fixed warm-up set, by replay (untimed)
    let totals = layers::replay(w, seed, &[(Stream::Warmup, w.warmup_rounds(), false)], None);
    print_solver_totals("solver totals over the warm-up set", &totals);
    correct &= totals.mismatches == 0;

    let blocks = &stats.blocks.done;
    println!(
        "sojourn samples {} in {} blocks of {} consecutive answers ({} after the last whole \
         block are in none); per block (answers, req/s, p50 ms, p99 ms):",
        stats.answered(),
        blocks.len(),
        w.block_len(),
        stats.blocks.unblocked()
    );
    for b in blocks {
        println!(
            "  {:>8} {:>12.2} {:>10.4} {:>10.4}{}",
            b.answers,
            b.throughput,
            b.sojourn_p50,
            b.sojourn_p99,
            if b.answers < 1000 {
                "  (under 1000 answers: p99 has fewer than 10 beyond it)"
            } else {
                ""
            }
        );
    }
    let metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("throughput_rps", per_block(blocks, |b| b.throughput), "1/s"),
        ("sojourn_p50_ms", per_block(blocks, |b| b.sojourn_p50), "ms"),
        ("sojourn_p99_ms", per_block(blocks, |b| b.sojourn_p99), "ms"),
        ("cpu_ms_per_req", stats.cpu_s * 1e3 / stats.answered().max(1) as f64, "ms"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("setup runs (s): {}", setups.join(" "));
    for (name, value, unit) in &metrics {
        println!("{name} = {value:.4} {unit}");
    }
    RunResult {
        correct,
        attempted: stats.tally.attempted_total(),
        failed: stats.tally.failed_total(),
        metrics,
    }
}

/// The median over blocks of one block figure. The medians matter on a
/// virtual machine whose host takes the CPUs away in bursts: a burst then
/// moves one block, not the result.
fn per_block(blocks: &[Block], f: fn(&Block) -> f64) -> f64 {
    median(&blocks.iter().map(f).collect::<Vec<_>>())
}

/// The per-layer values one workload's traced phases produced.
type LayerTable = BTreeMap<&'static str, f64>;

/// Traced engine phase of workload `w`, on a fresh engine with its solver
/// event counters on: engine latency, queue wait or HTTP overhead, and on
/// `milp_mix` the basis hit rate and rung times.
fn engine_layers(
    w: Workload,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    table: &mut LayerTable,
    correct: &mut bool,
) -> LoopStats {
    let ready = set_up(w, seed, true);
    *correct &= ready.warmup.tally.mismatches == 0;
    let stats =
        drive(&ready.engine, w, seed, Stream::Measured, Limit::Seconds(seconds), Some(spans));
    *correct &= stats.tally.mismatches == 0 && stats.answered() > 0;
    let snap = ready.engine.metrics();
    println!(
        "{}: traced engine phase {:.2} s, {} answered; engine counted B&B nodes {} LP iterations {}",
        w.name(),
        stats.wall_s,
        stats.answered(),
        snap.milp_nodes_total,
        snap.lp_iters_total
    );
    print_tallies(&format!("{} traced", w.name()), &stats);
    let blocks = &stats.blocks.done;
    table.insert("engine.service_p50_ms", per_block(blocks, |b| b.service_p50));
    let (p50, p99) = if w.is_http() {
        ("obs.overhead_p50_ms", "obs.overhead_p99_ms")
    } else {
        ("engine.queue_wait_p50_ms", "engine.queue_wait_p99_ms")
    };
    table.insert(p50, per_block(blocks, |b| b.gap_p50));
    table.insert(p99, per_block(blocks, |b| b.gap_p99));
    if w == Workload::MilpMix {
        table.insert("engine.basis_hit_ratio", ready.engine.basis_cache_hit_rate());
        for (rung, name) in
            [("deterministic", "ladder.deterministic_ms"), ("full", "ladder.full_ms")]
        {
            if let Some(ms) = stats.rung_ms.get(rung) {
                table.insert(name, median(ms));
            }
        }
    }
    stats
}

/// Traced replay of workload `w`'s inputs through the layer functions.
fn replay_layers(
    w: Workload,
    seed: u64,
    spans: &mut Spans,
    table: &mut LayerTable,
    correct: &mut bool,
) {
    let rounds = REPLAY_ROUNDS.iter().find(|(x, _)| *x == w).map_or(1, |(_, r)| *r);
    let mut local = Spans::new(spans.origin());
    let r = layers::replay(
        w,
        seed,
        &[(Stream::Warmup, w.warmup_rounds(), false), (Stream::Measured, rounds, true)],
        Some(&mut local),
    );
    print_solver_totals(&format!("{} replay (warm-up + {rounds} rounds)", w.name()), &r);
    *correct &= r.mismatches == 0 && engine_matches_replay(w, seed, rounds, &r);
    let self_us = local.self_times_us();
    println!("{} replay self time per layer (µs): name count p50 mean total_ms", w.name());
    for (name, xs) in &self_us {
        let total: f64 = xs.iter().sum();
        println!(
            "  {name:<20} {:>7} {:>10.2} {:>10.2} {:>10.2}",
            xs.len(),
            median(xs),
            total / xs.len() as f64,
            total / 1e3
        );
    }
    for (span, metric) in [
        ("core.fingerprint", "core.fingerprint_us"),
        ("core.drrp_build", "core.drrp_build_us"),
        ("audit.gate", "audit.gate_us"),
        ("core.wagner_whitin", "core.wagner_whitin_us"),
        ("core.srrp_build", "core.srrp_build_us"),
    ] {
        if let Some(xs) = self_us.get(span) {
            table.insert(metric, median(xs));
        }
    }
    if let Some(xs) = self_us.get("milp.solve") {
        table.insert("milp.solve_ms", median(xs) / 1e3);
    }
    if r.drrp_solves > 0 {
        table.insert("milp.nodes_per_req", r.drrp_nodes as f64 / r.drrp_solves as f64);
        table.insert("lp.iters_per_node", r.drrp_lp_iters as f64 / r.drrp_nodes.max(1) as f64);
        table.insert(
            "lp.warm_hit_ratio",
            r.drrp_warm_hits as f64 / r.drrp_warm_attempts.max(1) as f64,
        );
    }
    spans.absorb(local);
}

/// Run the replayed inputs (the warm-up set, then `rounds` measured rounds)
/// through a fresh engine with its solver-event counters on, and compare
/// the engine's B&B node, LP iteration and audit totals with the replay's.
/// A difference means the replay no longer makes the calls the engine
/// makes, so its per-layer split would describe another program: the run
/// is then not correct until `layers.rs` follows the engine again.
fn engine_matches_replay(w: Workload, seed: u64, rounds: u64, r: &Replay) -> bool {
    let ready = set_up(w, seed, true);
    let stats = drive(&ready.engine, w, seed, Stream::Measured, Limit::Rounds(rounds), None);
    let snap = ready.engine.metrics();
    let engine = (snap.milp_nodes_total, snap.lp_iters_total, snap.audits);
    let replay = (r.milp_nodes, r.lp_iters, r.audits);
    let same = engine == replay && stats.tally.mismatches == 0;
    println!(
        "{} engine on the replayed inputs: B&B nodes {}, LP iterations {}, audits {} ({})",
        w.name(),
        engine.0,
        engine.1,
        engine.2,
        if same { "as replayed" } else { "DIFFERS from the replay" }
    );
    same
}

/// Every per-layer metric with its unit and the workload whose traffic
/// measures it when the run's own workload does not reach that layer.
const PER_LAYER: [(&str, &str, Workload); 18] = [
    ("engine.service_p50_ms", "ms", Workload::DpUncached),
    ("engine.queue_wait_p50_ms", "ms", Workload::DpUncached),
    ("engine.queue_wait_p99_ms", "ms", Workload::DpUncached),
    ("engine.basis_hit_ratio", "ratio", Workload::MilpMix),
    ("core.fingerprint_us", "us", Workload::DpUncached),
    ("core.drrp_build_us", "us", Workload::DpUncached),
    ("audit.gate_us", "us", Workload::DpUncached),
    ("core.wagner_whitin_us", "us", Workload::DpUncached),
    ("core.srrp_build_us", "us", Workload::MilpMix),
    ("ladder.deterministic_ms", "ms", Workload::MilpMix),
    ("ladder.full_ms", "ms", Workload::MilpMix),
    ("milp.nodes_per_req", "count", Workload::MilpMix),
    ("milp.solve_ms", "ms", Workload::MilpMix),
    ("lp.iters_per_node", "count", Workload::MilpMix),
    ("lp.warm_hit_ratio", "ratio", Workload::MilpMix),
    ("obs.overhead_p50_ms", "ms", Workload::HttpPlan),
    ("obs.overhead_p99_ms", "ms", Workload::HttpPlan),
    ("bench.trace_overhead_ratio", "ratio", Workload::DpUncached),
];

/// `--trace 1`: an untraced and a traced phase of the run's workload
/// (their throughput ratio prices the tracing), traced phases of the other
/// workloads for the layers this one does not reach, and traced replays of
/// the in-process inputs through the layer functions. Spans go to
/// `out/trace-<workload>-<seed>.jsonl`.
fn traced(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let mut correct = true;
    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let mut tables: BTreeMap<&'static str, LayerTable> = BTreeMap::new();

    // untraced and traced phases of the run's own workload
    let own = set_up(w, seed, false);
    correct &= own.warmup.tally.mismatches == 0;
    let plain = drive(&own.engine, w, seed, Stream::Measured, Limit::Seconds(seconds / 4.0), None);
    drop(own);
    correct &= plain.tally.mismatches == 0 && plain.answered() > 0;
    let mut table = LayerTable::new();
    let traced = engine_layers(w, seed, seconds / 4.0, &mut spans, &mut table, &mut correct);
    table.insert("bench.trace_overhead_ratio", throughput(&traced) / throughput(&plain));
    println!(
        "{}: untraced {:.1} req/s, traced {:.1} req/s",
        w.name(),
        throughput(&plain),
        throughput(&traced)
    );
    tables.insert(w.name(), table);

    // the other workloads' engine phases, for the layers only they reach
    for other in Workload::ALL.into_iter().filter(|&o| o != w) {
        let mut table = LayerTable::new();
        engine_layers(other, seed, seconds / 8.0, &mut spans, &mut table, &mut correct);
        tables.insert(other.name(), table);
    }
    // replays: the run's own inputs, plus the other input kind
    let kinds: &[Workload] = match w {
        Workload::MilpMix => &[Workload::MilpMix, Workload::DpUncached],
        other => &[other, Workload::MilpMix],
    };
    for &kind in kinds {
        let table = tables.entry(kind.name()).or_default();
        replay_layers(kind, seed, &mut spans, table, &mut correct);
    }

    let own_table = &tables[w.name()];
    let mut metrics = Vec::new();
    println!("per-layer metrics (value, unit, workload whose traffic measured it):");
    for (name, unit, fallback) in PER_LAYER {
        let (source, value) = match own_table.get(name) {
            Some(v) => (w, *v),
            None => (
                fallback,
                tables.get(fallback.name()).and_then(|t| t.get(name)).copied().unwrap_or(f64::NAN),
            ),
        };
        correct &= value.is_finite();
        println!("  {name:<28} {value:>12.4} {unit:<6} {}", source.name());
        metrics.push((name, value, unit));
    }
    let path = format!("{OUT_DIR}/trace-{}-{seed}.jsonl", w.name());
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, spans.to_jsonl())) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => println!("spans not written ({path}): {e}"),
    }
    RunResult {
        correct,
        attempted: plain.tally.attempted_total() + traced.tally.attempted_total(),
        failed: plain.tally.failed_total() + traced.tally.failed_total(),
        metrics,
    }
}
