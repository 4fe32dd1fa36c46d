//! Daemon set-up and closed-loop traffic shared by the serve test binaries.

use pcmax_core::wire::{WireOutcome, WireSolve};
use pcmax_engine::{EngineConfig, EngineTotals};
use pcmax_serve::{Client, Server, ServerConfig};
use pcmax_workloads::{generate_batch, paper_families};
use std::io;
use std::net::SocketAddr;
use std::thread::JoinHandle;

/// Binds a daemon with `engine` on an ephemeral port and runs it on its
/// own thread.
pub fn spawn_server(engine: EngineConfig) -> (JoinHandle<io::Result<EngineTotals>>, SocketAddr) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        engine,
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    (std::thread::spawn(move || server.run()), addr)
}

/// Sends `requests` `pptas` solves at ε 0.5 over `clients` concurrent
/// closed-loop connections and returns every answer's outcome. The pool
/// holds one instance of each of the paper's 24 families, drawn from
/// `seed`; the clients stride through it, so later laps revisit instances
/// whose probes the profile cache already holds.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    requests: usize,
    seed: u64,
) -> Vec<WireOutcome> {
    let pool: Vec<_> = paper_families()
        .into_iter()
        .flat_map(|family| generate_batch(family, seed, 1))
        .collect();
    let pool = &pool;
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..clients)
            .map(|lane| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    (lane..requests)
                        .step_by(clients)
                        .map(|i| {
                            let frame = WireSolve {
                                solver: "pptas".into(),
                                eps: 0.5,
                                threads: None,
                                timeout_ms: None,
                                instance: pool[i % pool.len()].clone(),
                            };
                            client.solve(frame).expect("solve").outcome
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        lanes
            .into_iter()
            .flat_map(|lane| lane.join().expect("client thread"))
            .collect()
    })
}
