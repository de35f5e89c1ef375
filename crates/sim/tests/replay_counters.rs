//! The simulated-query counter counts real replays only. It is
//! process-wide, so this check lives in a test binary of its own where
//! no other test replays concurrently.

use ansmet_sim::experiment::{Scale, Suite};
use ansmet_sim::workload::IndexKind;
use ansmet_sim::{queries_simulated, Design};
use ansmet_vecdata::SynthSpec;

#[test]
fn memo_hits_are_not_simulated_queries() {
    let suite = Suite::new(Scale::Quick, 1);
    let wl = suite.workload(
        &SynthSpec::sift().scaled(300, 3),
        10,
        Some(20),
        IndexKind::Hnsw,
    );
    let cfg = suite.config();
    let q0 = queries_simulated();
    let first = suite.replay(Design::NdpEtOpt, &wl, &cfg);
    let q1 = queries_simulated();
    assert_eq!(
        q1 - q0,
        wl.traces.len() as u64,
        "a replay counts its queries"
    );
    assert_eq!(suite.replay(Design::NdpEtOpt, &wl, &cfg), first);
    assert_eq!(queries_simulated(), q1, "a memo hit replays nothing");
}
