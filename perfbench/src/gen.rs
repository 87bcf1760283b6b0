//! Seeded input generation. Every request is a pure function of
//! `(seed, stream, index)`, so the same seed yields the same inputs no
//! matter how many requests a run gets through or in what order the engine
//! answers them.

use std::sync::OnceLock;
use std::time::Duration;

use rrp_core::{CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{shard_of, PlanRequest, PolicyKind};
use rrp_spotmarket::{CostRates, EmpiricalDist};

use crate::workload::WORKERS;

/// Far above any sojourn the workloads produce, so no solve is ever cut by
/// the clock and node/iteration totals repeat exactly — also once
/// deadlines start counting at submit rather than at dequeue.
pub const DEADLINE: Duration = Duration::from_secs(120);

/// Uncapacitated DP horizon (`dp_uncached`, `http_plan`).
pub const DP_SLOTS: usize = 24;
/// Tenants the uncached DP traffic is spread over.
pub const DP_TENANTS: usize = 10_000;
/// Capacitated rolling re-plan window (`milp_mix`).
pub const REPLAN_SLOTS: usize = 16;
/// Re-planning tenants: fewer than the 512-entry basis side-table.
pub const REPLAN_TENANTS: usize = 48;
/// Capacity over the window's peak demand.
pub const CAPACITY_HEADROOM: f64 = 1.15;
/// Stages of the two-state SRRP price tree (2^7 − 1 = 127 nodes).
pub const SRRP_STAGES: usize = 6;
/// Tenants issuing SRRP requests.
pub const SRRP_TENANTS: usize = 16;

/// `count` tenant names `"{prefix}-{j}"`, ordered so that the name at
/// position `t` lives on engine shard `t % WORKERS` (by the engine's own
/// public `shard_of`). Requests take their tenant from the position of
/// their own index modulo `WORKERS`, so consecutive requests alternate
/// shards and a window of `n` in flight puts `n / WORKERS` on each. With
/// tenants hashed at random, the shards' shares of the window drift as a
/// slow random walk, and its excursions — not the engine — set the p99.
fn balanced_tenants(prefix: &str, count: usize) -> Vec<String> {
    let per_shard = count.div_ceil(WORKERS);
    let mut by_shard: Vec<Vec<String>> =
        (0..WORKERS).map(|_| Vec::with_capacity(per_shard)).collect();
    let mut j = 0;
    while by_shard.iter().any(|names| names.len() < per_shard) {
        let name = format!("{prefix}-{j}");
        let names = &mut by_shard[shard_of(&name, WORKERS)];
        if names.len() < per_shard {
            names.push(name);
        }
        j += 1;
    }
    (0..count).map(|t| by_shard[t % WORKERS][t / WORKERS].clone()).collect()
}

fn tenants(cell: &'static OnceLock<Vec<String>>, prefix: &str, count: usize) -> &'static [String] {
    cell.get_or_init(|| balanced_tenants(prefix, count))
}

static DP_NAMES: OnceLock<Vec<String>> = OnceLock::new();
static REPLAN_NAMES: OnceLock<Vec<String>> = OnceLock::new();
static SRRP_NAMES: OnceLock<Vec<String>> = OnceLock::new();

/// Tenant of request `index` drawn from `names`: random within the shard
/// the index's turn falls on.
fn pick(names: &'static [String], rng: &mut Rng, index: u64) -> &'static str {
    let turn = (index % WORKERS as u64) as usize;
    let slot = rng.below((names.len() / WORKERS) as u64) as usize;
    &names[slot * WORKERS + turn]
}

/// Request streams; warm-up requests come from their own streams so they
/// never share a fingerprint with measured ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    Measured = 1,
    Warmup = 2,
}

/// SplitMix64: small, fast, and good enough to spread seeds.
pub struct Rng(u64);

impl Rng {
    /// Generator for item `index` of `stream` under `seed`.
    pub fn at(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Self(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1));
        r.0 ^= r.next_u64().wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn request(
    app_id: String,
    schedule: CostSchedule,
    params: PlanningParams,
    tree: Option<ScenarioTree>,
    policy: PolicyKind,
    seed: u64,
) -> PlanRequest {
    PlanRequest {
        app_id,
        vm_class: "m1.small".to_string(),
        schedule,
        params,
        tree,
        policy,
        deadline: DEADLINE,
        seed,
    }
}

/// Spot-like compute prices and strictly positive demand for `slots` slots.
fn prices_and_demand(rng: &mut Rng, slots: usize) -> (Vec<f64>, Vec<f64>) {
    let compute = (0..slots).map(|_| rng.range(0.02, 0.14)).collect();
    let demand = (0..slots).map(|_| rng.range(0.1, 1.0)).collect();
    (compute, demand)
}

/// One unique 24-slot uncapacitated DP request: tenant, prices, demand.
pub struct DpInput {
    pub tenant: &'static str,
    pub compute: Vec<f64>,
    pub demand: Vec<f64>,
}

pub fn dp_input(seed: u64, stream: Stream, index: u64) -> DpInput {
    let mut rng = Rng::at(seed, stream as u64 * 16 + 1, index);
    let tenant = pick(tenants(&DP_NAMES, "dp", DP_TENANTS), &mut rng, index);
    let (compute, demand) = prices_and_demand(&mut rng, DP_SLOTS);
    DpInput { tenant, compute, demand }
}

impl DpInput {
    pub fn to_request(&self, seed: u64) -> PlanRequest {
        let schedule =
            CostSchedule::ec2(self.compute.clone(), self.demand.clone(), &CostRates::ec2_2011());
        request(
            self.tenant.to_string(),
            schedule,
            PlanningParams::default(),
            None,
            PolicyKind::DynamicProgram,
            seed,
        )
    }
}

/// Per-tenant trace value for slot `k` of a re-planning tenant: an
/// endless, seed-determined price and demand series the window slides over.
fn replan_slot(seed: u64, stream: Stream, tenant: usize, k: u64) -> (f64, f64) {
    let mut rng = Rng::at(seed ^ ((tenant as u64) << 40), stream as u64 * 16 + 2, k);
    (rng.range(0.02, 0.14), rng.range(0.2, 1.0))
}

/// The `step`-th rolling re-plan of re-planning tenant number `tenant`
/// (shard `tenant % WORKERS`): its window starts at slot `step` of the
/// tenant's trace, with capacity at [`CAPACITY_HEADROOM`] times the
/// window's peak demand.
pub fn replan_request(seed: u64, stream: Stream, tenant: usize, step: u64) -> PlanRequest {
    let (compute, demand): (Vec<f64>, Vec<f64>) =
        (0..REPLAN_SLOTS as u64).map(|k| replan_slot(seed, stream, tenant, step + k)).unzip();
    let peak = demand.iter().cloned().fold(0.0, f64::max);
    let params =
        PlanningParams { initial_inventory: 0.0, capacity: Some(CAPACITY_HEADROOM * peak) };
    let schedule = CostSchedule::ec2(compute, demand, &CostRates::ec2_2011());
    request(
        tenants(&REPLAN_NAMES, "rp", REPLAN_TENANTS)[tenant].clone(),
        schedule,
        params,
        None,
        PolicyKind::Deterministic,
        step,
    )
}

/// The `index`-th 6-stage SRRP request, over a two-state (low/high spot)
/// price tree.
pub fn srrp_request(seed: u64, stream: Stream, index: u64) -> PlanRequest {
    let mut rng = Rng::at(seed, stream as u64 * 16 + 3, index);
    let tenant = pick(tenants(&SRRP_NAMES, "srrp", SRRP_TENANTS), &mut rng, index);
    let mut dists = Vec::with_capacity(SRRP_STAGES);
    let mut expected = Vec::with_capacity(SRRP_STAGES);
    for _ in 0..SRRP_STAGES {
        let low = rng.range(0.02, 0.07);
        let high = rng.range(0.08, 0.16);
        let p_low = rng.range(0.35, 0.85);
        expected.push(p_low * low + (1.0 - p_low) * high);
        dists.push(EmpiricalDist::from_parts(vec![low, high], vec![p_low, 1.0 - p_low]));
    }
    let demand = (0..SRRP_STAGES).map(|_| rng.range(0.2, 1.0)).collect();
    let tree = ScenarioTree::from_stage_distributions(&dists, 1 << 10);
    let schedule = CostSchedule::ec2(expected, demand, &CostRates::ec2_2011());
    request(
        tenant.to_string(),
        schedule,
        PlanningParams::default(),
        Some(tree),
        PolicyKind::Stochastic,
        index,
    )
}

/// The `/plan` wire body of a DP request; `malformed` turns one demand
/// entry negative (a body the intake should refuse with a 400).
pub fn plan_body(input: &DpInput, seed: u64, malformed: bool) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"app_id\":\"");
    out.push_str(input.tenant);
    out.push_str("\",\"policy\":\"dynamic-program\",\"deadline_ms\":");
    out.push_str(&DEADLINE.as_millis().to_string());
    out.push_str(",\"seed\":");
    out.push_str(&seed.to_string());
    out.push_str(",\"compute\":");
    push_array(&mut out, &input.compute);
    out.push_str(",\"demand\":");
    if malformed {
        let mut demand = input.demand.clone();
        demand[DP_SLOTS / 2] = -demand[DP_SLOTS / 2];
        push_array(&mut out, &demand);
    } else {
        push_array(&mut out, &input.demand);
    }
    out.push('}');
    out
}

/// Floats in Rust's shortest round-trip form, so the engine parses back
/// exactly the values the oracle checks against.
fn push_array(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{x:?}"));
    }
    out.push(']');
}
