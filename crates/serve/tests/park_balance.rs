//! Park/wake balance on clean shutdown.
//!
//! The `bye` frame reports the process-global `POOL_PARKS` / `POOL_WAKES`
//! counters, so this check needs a process with exactly one engine in it —
//! hence its own integration-test binary with a single test (cargo runs
//! test binaries one at a time).

mod common;

use pcmax_core::wire::WireOutcome;
use pcmax_engine::EngineConfig;
use pcmax_serve::Client;

#[test]
fn clean_shutdown_balances_parks_and_wakes() {
    let (server, addr) = common::spawn_server(EngineConfig {
        workers: 3,
        capacity: 64,
        cache_capacity: 1024,
    });
    let outcomes = common::closed_loop(addr, 2, 48, 9);
    assert_eq!(outcomes.len(), 48);
    assert!(outcomes
        .iter()
        .all(|outcome| matches!(outcome, WireOutcome::Ok { .. })));
    let bye = Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("bye");
    match bye.outcome {
        WireOutcome::Bye { parks, wakes, .. } => {
            assert!(
                parks > 0,
                "a 3-worker engine under 2 clients must actually park"
            );
            assert_eq!(
                parks, wakes,
                "every parked worker must be woken exactly once more by shutdown"
            );
        }
        other => panic!("expected bye, got {other:?}"),
    }
    server.join().expect("server thread").expect("server io");
}
