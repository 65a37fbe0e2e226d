//! The seeded input generator and the simulator ground truth.
//!
//! The system under test is fixed: one lab scenario, built from
//! [`SCENARIO_SEED`] (devices plus the pattern database its chamber
//! campaign measures). The workload seed draws only what the program is
//! fed: the yaw sequence of the `session` workload, and the orientations,
//! probe subsets and sweep readings of the `fleet` and `replay`
//! workloads. The same seed gives the same inputs; another seed gives
//! other inputs for the same system.

use crate::spans;
use css::ProbeStrategy;
use eval::scenario::{EvalScenario, Fidelity};
use geom::rng::sub_rng;
use rand::Rng;
use talon_array::SectorId;
use talon_channel::{Device, Orientation, SweepReading};

/// Seed of the lab scenario every workload runs against.
pub const SCENARIO_SEED: u64 = 42;

/// Probes per CSS sweep (the paper's operating point).
pub const PROBES: usize = 14;

/// Yaws are drawn from this grid: −60° to +60° in steps of 0.25°.
pub const YAW_STEP_DEG: f64 = 0.25;
/// Points on the yaw grid.
pub const YAW_STEPS: usize = 481;

/// Length of the session workload's yaw sequence (it wraps around).
pub const SESSION_YAWS: usize = 1 << 16;
/// Links in the fleet workload.
pub const FLEET_LINKS: usize = 4096;
/// Decisions in the replay workload's trace.
pub const REPLAY_DECISIONS: usize = 8 * 1024;

/// Builds the lab scenario: devices, link and the chamber campaign's
/// pattern database.
pub fn scenario() -> EvalScenario {
    let _s = spans::span("chamber.patterns");
    EvalScenario::lab(Fidelity::Fast, SCENARIO_SEED)
}

/// Yaw of point `k` on the yaw grid, degrees.
pub fn yaw_deg(k: usize) -> f64 {
    -60.0 + YAW_STEP_DEG * k as f64
}

/// True SNR of every DUT sector for a fixed set of DUT orientations
/// ("cases"): the exhaustive pass a simulator can afford and a station
/// cannot.
pub struct Truth {
    /// `snr[case * 256 + sector]`, NaN for a sector outside the codebook.
    snr: Vec<f64>,
    best: Vec<f64>,
}

/// Loss charged to a decision that chose no sector, dB.
pub const NO_CHOICE_LOSS_DB: f64 = 100.0;

impl Truth {
    /// Computes the table for each orientation in `cases`.
    pub fn new(scenario: &EvalScenario, cases: &[Orientation]) -> Self {
        let rxw = scenario.fixed.codebook.rx_sector().weights.clone();
        let sectors = scenario.dut.codebook.sweep_order();
        let mut dut = scenario.dut.clone();
        let mut snr = vec![f64::NAN; cases.len() * 256];
        let mut best = Vec::with_capacity(cases.len());
        for (case, o) in cases.iter().enumerate() {
            dut.orientation = *o;
            let mut top = f64::NEG_INFINITY;
            for &s in &sectors {
                let v = scenario.link.true_snr_db(&dut, s, &scenario.fixed, &rxw);
                snr[case * 256 + usize::from(s.raw())] = v;
                top = top.max(v);
            }
            best.push(top);
        }
        Truth { snr, best }
    }

    /// The table over the yaw grid (no tilt).
    pub fn yaw_grid(scenario: &EvalScenario) -> Self {
        let cases: Vec<Orientation> = (0..YAW_STEPS)
            .map(|k| Orientation::new(yaw_deg(k), 0.0))
            .collect();
        Self::new(scenario, &cases)
    }

    /// True-SNR gap between the exhaustive best sector of `case` and
    /// `chosen`, dB.
    pub fn loss_db(&self, case: usize, chosen: Option<SectorId>) -> f64 {
        match chosen {
            Some(s) => {
                let v = self.snr[case * 256 + usize::from(s.raw())];
                if v.is_nan() {
                    NO_CHOICE_LOSS_DB
                } else {
                    self.best[case] - v
                }
            }
            None => NO_CHOICE_LOSS_DB,
        }
    }
}

/// Orientations of the lab evaluation grid: the DUT turned so that the
/// peer appears at each grid direction.
pub fn grid_orientations(scenario: &EvalScenario) -> Vec<Orientation> {
    scenario
        .eval_grid
        .iter()
        .map(|(_, d)| Orientation::new(-d.az_deg, -d.el_deg))
        .collect()
}

/// What the session workload is fed.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInputs {
    /// Yaw-grid index of each session's DUT orientation.
    pub yaw_idx: Vec<u16>,
    /// Seed of the SLS measurement noise.
    pub sls_seed: u64,
    /// Seed of the DUT's probe subsets.
    pub dut_seed: u64,
    /// Seed of the peer agent's probe subsets.
    pub agent_seed: u64,
}

/// Draws the session workload's inputs.
pub fn session_inputs(seed: u64) -> SessionInputs {
    let mut rng = sub_rng(seed, "perfbench-session-yaws");
    SessionInputs {
        yaw_idx: (0..SESSION_YAWS)
            .map(|_| rng.gen_range(0..YAW_STEPS) as u16)
            .collect(),
        sls_seed: geom::rng::derive_seed(seed, "perfbench-session-sls"),
        dut_seed: geom::rng::derive_seed(seed, "perfbench-session-dut"),
        agent_seed: geom::rng::derive_seed(seed, "perfbench-session-agent"),
    }
}

/// One link's sweep: the orientation case it was taken at and what the
/// peer's firmware reported.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepInput {
    /// Index into the orientation set the sweep was drawn over.
    pub case: usize,
    /// The M probe readings.
    pub readings: Vec<SweepReading>,
}

/// Draws `n` CSS sweeps of `PROBES` random probes each through the
/// channel simulator (`Link::sweep`, timed as `channel.sweep`). Sweep `k`
/// is taken at orientation `k mod cases.len()`, so every orientation gets
/// the same share; the seed draws the probe subsets and the measurement
/// noise.
pub fn sweeps(
    scenario: &EvalScenario,
    cases: &[Orientation],
    n: usize,
    seed: u64,
    label: &str,
) -> Vec<SweepInput> {
    let mut rng = sub_rng(seed, label);
    let available = scenario.patterns.sector_ids();
    let devices: Vec<Device> = cases
        .iter()
        .map(|o| {
            let mut d = scenario.dut.clone();
            d.orientation = *o;
            d
        })
        .collect();
    (0..n)
        .map(|k| {
            let case = k % cases.len();
            let probes = ProbeStrategy::UniformRandom.pick(&mut rng, &available, PROBES);
            let readings = {
                let _s = spans::span("channel.sweep");
                scenario
                    .link
                    .sweep(&mut rng, &devices[case], &probes, &scenario.fixed)
            };
            SweepInput { case, readings }
        })
        .collect()
}

/// The fleet workload's links, over the lab orientation grid.
pub fn fleet_inputs(scenario: &EvalScenario, seed: u64, n: usize) -> Vec<SweepInput> {
    sweeps(
        scenario,
        &grid_orientations(scenario),
        n,
        seed,
        "perfbench-fleet",
    )
}

/// The sweeps the replay workload's trace records, over the yaw grid.
pub fn replay_inputs(scenario: &EvalScenario, seed: u64, n: usize) -> Vec<SweepInput> {
    let cases: Vec<Orientation> = (0..YAW_STEPS)
        .map(|k| Orientation::new(yaw_deg(k), 0.0))
        .collect();
    sweeps(scenario, &cases, n, seed, "perfbench-replay")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = session_inputs(7);
        assert_eq!(a, session_inputs(7));
        let b = session_inputs(8);
        assert_ne!(a.yaw_idx, b.yaw_idx);
        assert_ne!(a.sls_seed, b.sls_seed);
        assert!(a.yaw_idx.iter().all(|&k| usize::from(k) < YAW_STEPS));
    }

    #[test]
    fn sweep_inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let scenario = scenario();
        let a = fleet_inputs(&scenario, 7, 64);
        assert_eq!(a, fleet_inputs(&scenario, 7, 64));
        assert_ne!(a, fleet_inputs(&scenario, 8, 64));
        assert!(a.iter().all(|l| l.readings.len() == PROBES));
        let r = replay_inputs(&scenario, 7, 64);
        assert_eq!(r, replay_inputs(&scenario, 7, 64));
        assert_ne!(r, replay_inputs(&scenario, 8, 64));
    }

    #[test]
    fn truth_charges_the_gap_to_the_exhaustive_best() {
        let scenario = scenario();
        let truth = Truth::yaw_grid(&scenario);
        let losses: Vec<f64> = scenario
            .dut
            .codebook
            .sweep_order()
            .into_iter()
            .map(|s| truth.loss_db(240, Some(s)))
            .collect();
        assert!(losses
            .iter()
            .all(|&l| (0.0..NO_CHOICE_LOSS_DB).contains(&l)));
        assert!(losses.contains(&0.0), "the exhaustive best loses nothing");
        assert_eq!(truth.loss_db(240, None), NO_CHOICE_LOSS_DB);
    }
}
