//! One module per regenerated table/figure. The [`registry`](crate::registry)
//! maps experiment ids to these entry points.

use hsm_runtime::parallel::{available_workers, try_par_map};
use hsm_runtime::EngineError;
use hsm_scenario::runner::ScenarioError;
use hsm_tcp::connection::ConnectionScratch;

pub mod extensions;
pub mod fig01_arrival;
pub mod fig02_recovery;
pub mod fig03_loss_cdf;
pub mod fig04_ack_timeout;
pub mod fig05_burst_cases;
pub mod fig06_ack_cdf;
pub mod fig10_accuracy;
pub mod fig11_single_ack;
pub mod fig12_mptcp;
pub mod headline;
pub mod table1;
pub mod table3;
pub mod va_delack;
pub mod vb_qsweep;
pub mod window_evolution;

/// Runs rides `0..reps` over every core, each worker reusing one
/// [`ConnectionScratch`] across its rides, and returns their results in
/// ride order — the same for any worker count.
///
/// # Panics
///
/// Panics when a ride fails (naming the lowest failing ride) or a worker
/// is lost.
pub(crate) fn rides<T: Send>(
    reps: u64,
    ride: impl Fn(&mut ConnectionScratch, u64) -> Result<T, ScenarioError> + Sync,
) -> Vec<T> {
    try_par_map(
        reps as usize,
        available_workers(),
        ConnectionScratch::new,
        |scratch, i| {
            ride(scratch, i as u64).map_err(|source| EngineError::FlowFailed { index: i, source })
        },
    )
    .map(|(values, _)| values)
    .unwrap_or_else(|e| panic!("experiment rides failed: {e}"))
}
