//! Oracles computed apart from the program: textbook lot-sizing dynamic
//! programs and plan-property checks, written without reference to
//! `rrp_core::wagner_whitin` or the MILP model builders. Every answer the
//! benchmark gets back is checked against these.

use rrp_core::{CostSchedule, PlanningParams, RentalPlan};

/// Relative tolerance of objective comparisons: the MILP stops at a 1e-6
/// relative gap.
pub const REL_GAP: f64 = 1e-6;
/// Feasibility tolerance for plan decisions.
const FEAS_TOL: f64 = 1e-6;

/// Demand net of the initial inventory (consumed by the earliest demand,
/// the only option the balance constraint leaves) and the holding cost
/// that carrying it induces.
fn net_demand(s: &CostSchedule, initial_inventory: f64) -> (Vec<f64>, f64) {
    let mut avail = initial_inventory;
    let mut carry_cost = 0.0;
    let net = (0..s.horizon())
        .map(|t| {
            let served = avail.min(s.demand[t]);
            avail -= served;
            carry_cost += s.inventory[t] * avail;
            s.demand[t] - served
        })
        .collect();
    (net, carry_cost)
}

/// The plan-independent transfer-out term `Σ out_t·D_t`.
fn shipping(s: &CostSchedule) -> f64 {
    (0..s.horizon()).map(|t| s.out[t] * s.demand[t]).sum()
}

/// Optimal cost of the uncapacitated model by the textbook forward
/// recursion: `f[j]` is the cheapest way to cover slots `[0, j)`, and the
/// last order placed in slot `i` covers slots `[i, j)` exactly (zero
/// inventory at order points).
pub fn uncapacitated_optimum(s: &CostSchedule, params: &PlanningParams) -> f64 {
    let t_max = s.horizon();
    let (net, carry_cost) = net_demand(s, params.initial_inventory);
    let mut f = vec![f64::INFINITY; t_max + 1];
    f[0] = 0.0;
    for i in 0..t_max {
        if !f[i].is_finite() {
            continue;
        }
        // cost of ordering in slot i for slots [i, j), grown one slot at a
        // time: slot u's demand pays production at i plus holding through
        // slots i..u-1
        let mut variable = 0.0;
        let mut holding_rate = 0.0;
        let mut ordered = 0.0;
        for j in (i + 1)..=t_max {
            let u = j - 1;
            if u > i {
                holding_rate += s.inventory[u - 1];
            }
            variable += net[u] * (s.gen[i] + holding_rate);
            ordered += net[u];
            let setup = if ordered > 0.0 { s.compute[i] } else { 0.0 };
            let c = f[i] + setup + variable;
            if c < f[j] {
                f[j] = c;
            }
        }
    }
    f[t_max] + carry_cost + shipping(s)
}

/// Optimal cost of the model with a constant capacity `C`, by the
/// Florian–Klein decomposition: an optimal plan splits into regeneration
/// intervals (zero stock entering and leaving), and within each interval at
/// most one slot produces strictly between 0 and `C`. The outer recursion
/// runs over interval end points; each interval's cost is an inner
/// recursion over (full batches so far, partial batch used).
pub fn capacitated_optimum(s: &CostSchedule, params: &PlanningParams, capacity: f64) -> f64 {
    let t_max = s.horizon();
    let (net, carry_cost) = net_demand(s, params.initial_inventory);
    let mut g = vec![f64::INFINITY; t_max + 1];
    g[0] = 0.0;
    for i in 0..t_max {
        if !g[i].is_finite() {
            continue;
        }
        for j in (i + 1)..=t_max {
            let c = regeneration_interval(s, &net[i..j], i, capacity);
            if g[i] + c < g[j] {
                g[j] = g[i] + c;
            }
        }
    }
    g[t_max] + carry_cost + shipping(s)
}

/// Cheapest production of the demand `d` of slots `first..first+d.len()`
/// entering and leaving with zero stock, using `k` full batches and at most
/// one partial batch of the remainder. Infinite when no such schedule keeps
/// stock non-negative.
fn regeneration_interval(s: &CostSchedule, d: &[f64], first: usize, cap: f64) -> f64 {
    let total: f64 = d.iter().sum();
    let mut k = (total / cap).floor() as usize;
    let mut rem = total - k as f64 * cap;
    if rem > cap - 1e-9 {
        k += 1;
        rem = 0.0;
    }
    if rem < 1e-9 {
        rem = 0.0;
    }
    let needs_partial = rem > 0.0;
    // cost[n][p]: n full batches and p partial batches placed so far
    let mut cost = vec![[f64::INFINITY; 2]; k + 1];
    cost[0][0] = 0.0;
    let mut cum_demand = 0.0;
    for (off, &demand) in d.iter().enumerate() {
        let t = first + off;
        cum_demand += demand;
        let mut next = vec![[f64::INFINITY; 2]; k + 1];
        for (n, row) in cost.iter().enumerate() {
            for (p, &base) in row.iter().enumerate() {
                if !base.is_finite() {
                    continue;
                }
                let mut relax = |n2: usize, p2: usize, produce: f64| {
                    let made = n2 as f64 * cap + if p2 == 1 { rem } else { 0.0 };
                    let stock = made - cum_demand;
                    if stock < -1e-9 {
                        return;
                    }
                    let setup = if produce > 0.0 { s.compute[t] } else { 0.0 };
                    let c = base + setup + s.gen[t] * produce + s.inventory[t] * stock.max(0.0);
                    if c < next[n2][p2] {
                        next[n2][p2] = c;
                    }
                };
                relax(n, p, 0.0);
                if n < k {
                    relax(n + 1, p, cap);
                }
                if p == 0 && needs_partial {
                    relax(n, 1, rem);
                }
            }
        }
        cost = next;
    }
    cost[k][usize::from(needs_partial)]
}

/// Objective of a decision set recomputed at the schedule's prices.
pub fn plan_cost(s: &CostSchedule, plan: &RentalPlan) -> f64 {
    (0..s.horizon())
        .map(|t| {
            s.gen[t] * plan.alpha[t]
                + s.inventory[t] * plan.beta[t]
                + s.out[t] * s.demand[t]
                + if plan.chi[t] { s.compute[t] } else { 0.0 }
        })
        .sum()
}

/// Plan properties every answer must have: inventory balance, non-negative
/// decisions, `α ≤ capacity`, `α > 0 ⇒ χ`, and an objective equal to the
/// decisions priced at the schedule.
pub fn check_plan(
    s: &CostSchedule,
    params: &PlanningParams,
    plan: &RentalPlan,
) -> Result<(), String> {
    let t_max = s.horizon();
    if plan.alpha.len() != t_max || plan.beta.len() != t_max || plan.chi.len() != t_max {
        return Err(format!("plan length differs from the horizon {t_max}"));
    }
    let mut stock = params.initial_inventory;
    for t in 0..t_max {
        let (a, b) = (plan.alpha[t], plan.beta[t]);
        if a < -FEAS_TOL || b < -FEAS_TOL {
            return Err(format!("slot {t}: negative decision alpha={a} beta={b}"));
        }
        stock += a - s.demand[t];
        if (stock - b).abs() > FEAS_TOL * (1.0 + stock.abs()) {
            return Err(format!("slot {t}: balance broken, stock {stock} vs beta {b}"));
        }
        if let Some(cap) = params.capacity {
            if a > cap + FEAS_TOL {
                return Err(format!("slot {t}: alpha {a} over capacity {cap}"));
            }
        }
        if a > FEAS_TOL && !plan.chi[t] {
            return Err(format!("slot {t}: alpha {a} produced without a rental"));
        }
    }
    let recomputed = plan_cost(s, plan);
    if (recomputed - plan.objective).abs() > 1e-9 * (1.0 + recomputed.abs()) {
        return Err(format!("objective {} but decisions cost {recomputed}", plan.objective));
    }
    Ok(())
}

/// `value` equals the optimum `opt` up to the MILP's relative gap (plus
/// `abs_slack` for values that crossed a text format).
pub fn matches_optimum(value: f64, opt: f64, abs_slack: f64) -> bool {
    (value - opt).abs() <= REL_GAP * opt.abs().max(1.0) + abs_slack
}

/// `value` is no better than the lower bound `bound`, up to the same gap.
pub fn at_least(value: f64, bound: f64) -> bool {
    value >= bound - REL_GAP * bound.abs().max(1.0)
}
