//! `--selfcheck`: the oracles against `rrp_milp` on small seeded
//! instances, so that a disagreement in a run points at the program and not
//! at the benchmark.

use std::process::ExitCode;

use rrp_core::{CostSchedule, DrrpProblem, PlanningParams};
use rrp_milp::MilpOptions;
use rrp_spotmarket::CostRates;

use crate::gen::Rng;
use crate::oracle;

/// Instances per model (uncapacitated, capacitated).
const INSTANCES: u64 = 150;

pub fn run(seed: u64) -> ExitCode {
    let mut failures = 0u64;
    let mut checked = 0u64;
    for i in 0..INSTANCES {
        for capacitated in [false, true] {
            let mut rng = Rng::at(seed, 99, i * 2 + u64::from(capacitated));
            let slots = 3 + rng.below(10) as usize;
            let compute = (0..slots).map(|_| rng.range(0.02, 0.3)).collect();
            // zero-demand slots and initial stock exercise the netting
            let demand: Vec<f64> = (0..slots)
                .map(|_| if rng.below(6) == 0 { 0.0 } else { rng.range(0.05, 1.0) })
                .collect();
            let peak = demand.iter().cloned().fold(0.0, f64::max).max(0.05);
            let initial_inventory = if rng.below(3) == 0 { rng.range(0.0, 1.0) } else { 0.0 };
            let capacity = capacitated.then(|| peak * rng.range(1.0, 2.5));
            let params = PlanningParams { initial_inventory, capacity };
            let schedule = CostSchedule::ec2(compute, demand, &CostRates::ec2_2011());
            let problem = DrrpProblem::new(schedule.clone(), params);
            let plan = match problem.solve_milp(&MilpOptions::default()) {
                Ok(plan) => plan,
                Err(e) => {
                    failures += 1;
                    println!("instance {i} (capacitated={capacitated}): MILP failed: {e}");
                    continue;
                }
            };
            let opt = match capacity {
                Some(cap) => oracle::capacitated_optimum(&schedule, &params, cap),
                None => oracle::uncapacitated_optimum(&schedule, &params),
            };
            checked += 1;
            let verdict = oracle::check_plan(&schedule, &params, &plan).and_then(|()| {
                if oracle::matches_optimum(plan.objective, opt, 0.0) {
                    Ok(())
                } else {
                    Err(format!("MILP objective {} vs oracle {opt}", plan.objective))
                }
            });
            if let Err(why) = verdict {
                failures += 1;
                println!("instance {i} (capacitated={capacitated}, T={slots}): {why}");
            }
        }
    }
    println!("selfcheck seed={seed}: {checked} instances checked, {failures} disagreements");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
