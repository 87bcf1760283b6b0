//! Single-threaded replay of a workload's inputs through the public
//! function of each layer the engine's request path calls, in the engine's
//! order: fingerprint, DRRP model build, audit gate, then the rung the
//! request asks for. Spans around each call give the layers' self times;
//! the solver's own counters give node and LP-iteration totals.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use rrp_audit::{audit_milp_with, AuditOptions, UpperBoundHint};
use rrp_core::{wagner_whitin, RentalPlan, SrrpProblem};
use rrp_engine::{PlanRequest, PolicyKind, PreparedDrrp};
use rrp_milp::{Basis, MilpOptions, SolveBudget, SolveStatus};
use rrp_trace::{CounterSink, TraceHandle};

use crate::gen::{Stream, DEADLINE};
use crate::spans::Spans;
use crate::workload::{check_plan_answer, inproc_request, is_malformed, Workload};

/// What a replay counted.
#[derive(Debug, Default)]
pub struct Replay {
    /// Requests replayed (all streams).
    pub requests: u64,
    /// Requests whose answer disagreed with an oracle.
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    /// Branch-and-bound nodes and LP iterations over every MILP solve
    /// (capacitated DRRP and SRRP).
    pub milp_nodes: u64,
    pub lp_iters: u64,
    /// Audit-gate passes, one per replayed request.
    pub audits: u64,
    /// Capacitated-DRRP solves of the recorded stream and their
    /// `MilpSolution` statistics.
    pub drrp_solves: u64,
    pub drrp_nodes: u64,
    pub drrp_lp_iters: u64,
    pub drrp_warm_attempts: u64,
    pub drrp_warm_hits: u64,
}

/// Replay `rounds` whole rounds of each `(stream, rounds, record)` in
/// order, recording spans into `spans` for the streams marked `record`.
/// Re-plans warm-start from their tenant's previous root basis, exactly as
/// the engine's basis side-table hands it on.
pub fn replay(
    w: Workload,
    seed: u64,
    plan: &[(Stream, u64, bool)],
    mut spans: Option<&mut Spans>,
) -> Replay {
    let counter = Arc::new(CounterSink::new());
    let counted = TraceHandle::new(Arc::clone(&counter) as Arc<dyn rrp_trace::Sink>);
    let mut bases: HashMap<String, Arc<Basis>> = HashMap::new();
    let mut out = Replay::default();
    for &(stream, rounds, record) in plan {
        for index in 0..rounds * w.round_len() {
            let (_, req) = match w {
                Workload::HttpPlan if is_malformed(index, w.round_len()) => continue,
                _ => inproc_request(w, seed, stream, index),
            };
            let recorder = if record { spans.as_deref_mut() } else { None };
            let answer = replay_one(&req, index, &mut bases, &counted, recorder, &mut out, record);
            out.requests += 1;
            let checked = answer.and_then(|p| check_plan_answer(&req, &p));
            if let Err(why) = checked {
                out.mismatches += 1;
                out.first_mismatch.get_or_insert(format!("replay {}: {why}", req.app_id));
            }
        }
    }
    out.milp_nodes += counter.milp_nodes.load(Ordering::Relaxed);
    out.lp_iters += counter.lp_iters.load(Ordering::Relaxed);
    out
}

fn replay_one(
    req: &PlanRequest,
    index: u64,
    bases: &mut HashMap<String, Arc<Basis>>,
    counted: &TraceHandle,
    mut spans: Option<&mut Spans>,
    out: &mut Replay,
    record: bool,
) -> Result<RentalPlan, String> {
    // spans are recorded only when a recorder is given; the calls are the
    // same either way
    let root = open(&mut spans, "request", None, index);
    let fp = open(&mut spans, "core.fingerprint", root, index);
    black_box(req.fingerprint());
    close(&mut spans, fp);

    let build = open(&mut spans, "core.drrp_build", root, index);
    let mut prepared = PreparedDrrp::from_request(req);
    close(&mut spans, build);

    let gate = open(&mut spans, "audit.gate", root, index);
    let hints = prepared
        .problem
        .implied_alpha_bounds()
        .into_iter()
        .map(|(var, upper)| UpperBoundHint {
            var,
            upper,
            why: "remaining demand / capacity".to_string(),
        })
        .collect();
    let audit_opts =
        AuditOptions { hints, structure: false, numerics: false, ..AuditOptions::default() };
    let audit = audit_milp_with(&prepared.milp, &audit_opts);
    out.audits += 1;
    if let Some(proof) = &audit.infeasibility {
        close(&mut spans, gate);
        close(&mut spans, root);
        return Err(format!("audit rejected a feasible instance: {proof}"));
    }
    audit.apply(&mut prepared.milp);
    close(&mut spans, gate);

    let budget = SolveBudget::with_deadline(Instant::now() + DEADLINE)
        .and_node_limit(MilpOptions::default().node_limit);
    let plan = match req.policy {
        PolicyKind::DynamicProgram => {
            let ww = open(&mut spans, "core.wagner_whitin", root, index);
            let plan = wagner_whitin::solve(&req.schedule, &req.params);
            close(&mut spans, ww);
            Ok(plan)
        }
        PolicyKind::Deterministic => {
            let opts = MilpOptions {
                root_basis: bases.get(&req.app_id).cloned(),
                ..MilpOptions::default()
            };
            let solve = open(&mut spans, "milp.solve", root, index);
            let status = prepared.milp.solve_budgeted(&opts, &budget);
            close(&mut spans, solve);
            match status {
                SolveStatus::Optimal(sol) => {
                    out.milp_nodes += sol.nodes as u64;
                    out.lp_iters += sol.lp_stats.iterations;
                    if record {
                        out.drrp_solves += 1;
                        out.drrp_nodes += sol.nodes as u64;
                        out.drrp_lp_iters += sol.lp_stats.iterations;
                        out.drrp_warm_attempts += sol.lp_stats.warm_attempts;
                        out.drrp_warm_hits += sol.lp_stats.warm_hits;
                    }
                    if let Some(basis) = &sol.root_basis {
                        bases.insert(req.app_id.clone(), Arc::clone(basis));
                    }
                    Ok(prepared.problem.extract(&sol.values, &prepared.vars))
                }
                other => Err(format!("DRRP MILP did not solve: optimal={}", other.is_optimal())),
            }
        }
        PolicyKind::Stochastic => {
            let tree = req.tree.clone().ok_or("SRRP request without a tree")?;
            let build = open(&mut spans, "core.srrp_build", root, index);
            let srrp = SrrpProblem::new(req.schedule.clone(), req.params, tree);
            black_box(srrp.to_milp());
            close(&mut spans, build);
            let opts = MilpOptions { trace: counted.clone(), ..MilpOptions::default() };
            let solve = open(&mut spans, "srrp.solve", root, index);
            let outcome = srrp.solve_milp_budgeted(&opts, &budget);
            close(&mut spans, solve);
            match outcome {
                rrp_core::PlanOutcome::Optimal(p) => Ok(p.commit_path(&srrp.tree, &req.schedule)),
                _ => Err("SRRP MILP did not solve".to_string()),
            }
        }
        PolicyKind::OnDemand => Ok(rrp_core::on_demand_plan(&req.schedule, &req.params)),
    };
    close(&mut spans, root);
    plan
}

fn open(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    parent: Option<usize>,
    index: u64,
) -> Option<usize> {
    spans.as_deref_mut().map(|s| s.open(name, parent, index))
}

fn close(spans: &mut Option<&mut Spans>, id: Option<usize>) {
    if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
        s.close(id);
    }
}
