//! End-to-end daemon tests: real TCP, real frames, real engine.

mod common;

use pcmax_core::json::FromJson;
use pcmax_core::wire::{read_frame, WireOutcome, WireResponse, WireSolve};
use pcmax_core::{Instance, Time};
use pcmax_engine::EngineConfig;
use pcmax_serve::Client;
use pcmax_workloads::{generate, generate_batch, Distribution, Family};
use std::io::Write;
use std::time::Duration;

fn small_server() -> (
    std::thread::JoinHandle<std::io::Result<pcmax_engine::EngineTotals>>,
    std::net::SocketAddr,
) {
    common::spawn_server(EngineConfig {
        workers: 2,
        capacity: 64,
        cache_capacity: 256,
    })
}

fn sample_instance() -> Instance {
    generate_batch(Family::new(4, 30, Distribution::U1To100), 11, 1)
        .pop()
        .expect("one instance")
}

fn solve_frame(solver: &str, instance: Instance) -> WireSolve {
    WireSolve {
        solver: solver.into(),
        eps: 0.4,
        threads: None,
        timeout_ms: None,
        instance,
    }
}

/// Sends `payloads` as raw frames on a fresh connection and returns a
/// reader that decodes the answers in order.
fn send_raw(addr: std::net::SocketAddr, payloads: &[&str]) -> impl FnMut() -> WireResponse {
    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    for payload in payloads {
        raw.write_all(&(payload.len() as u32).to_be_bytes())
            .expect("send length");
        raw.write_all(payload.as_bytes()).expect("send payload");
    }
    move || {
        let frame = read_frame(&mut raw).expect("read").expect("a frame");
        WireResponse::from_json(&frame).expect("decode")
    }
}

fn makespan_of(instance: &Instance, assignment: &[u64]) -> Time {
    let mut loads = vec![0; instance.machines()];
    for (job, &machine) in assignment.iter().enumerate() {
        loads[machine as usize] += instance.times()[job];
    }
    loads.into_iter().max().unwrap_or(0)
}

#[test]
fn solve_roundtrip_and_bye_balance() {
    let (server, addr) = small_server();
    let instance = sample_instance();
    let mut client = Client::connect(addr).expect("connect");
    let response = client
        .solve(solve_frame("lpt", instance.clone()))
        .expect("solve");
    match response.outcome {
        WireOutcome::Ok {
            makespan,
            assignment,
            ..
        } => {
            assert_eq!(assignment.len(), instance.jobs());
            assert_eq!(makespan_of(&instance, &assignment), makespan);
        }
        other => panic!("expected ok, got {other:?}"),
    }
    let bye = client.shutdown().expect("bye");
    match bye.outcome {
        WireOutcome::Bye { served, .. } => assert_eq!(served, 1),
        other => panic!("expected bye, got {other:?}"),
    }
    server.join().expect("server thread").expect("server io");
}

#[test]
fn repeat_solves_report_cache_hits_on_the_wire() {
    let (server, addr) = small_server();
    let instance = sample_instance();
    let mut client = Client::connect(addr).expect("connect");
    let cold = client
        .solve(solve_frame("pptas", instance.clone()))
        .expect("cold solve");
    let warm = client
        .solve(solve_frame("pptas", instance.clone()))
        .expect("warm solve");
    let (cold_hit, cold_makespan) = match cold.outcome {
        WireOutcome::Ok {
            cache_hit,
            makespan,
            ..
        } => (cache_hit, makespan),
        other => panic!("expected ok, got {other:?}"),
    };
    let (warm_hit, warm_makespan) = match warm.outcome {
        WireOutcome::Ok {
            cache_hit,
            makespan,
            ..
        } => (cache_hit, makespan),
        other => panic!("expected ok, got {other:?}"),
    };
    assert!(
        !cold_hit,
        "first solve of an instance cannot be a cache hit"
    );
    assert!(warm_hit, "identical repeat must be served from the cache");
    assert_eq!(
        cold_makespan, warm_makespan,
        "cache must not change answers"
    );
    let bye = client.shutdown().expect("bye");
    match bye.outcome {
        WireOutcome::Bye {
            cache_hits,
            cache_misses,
            ..
        } => {
            assert!(cache_hits > 0, "bye must report the warm solve's hits");
            assert!(cache_misses > 0, "bye must report the cold solve's misses");
        }
        other => panic!("expected bye, got {other:?}"),
    }
    server.join().expect("server thread").expect("server io");
}

#[test]
fn errors_do_not_wedge_the_connection() {
    let (server, addr) = small_server();
    let mut client = Client::connect(addr).expect("connect");
    let bad = client
        .solve(solve_frame("no-such-solver", sample_instance()))
        .expect("bad solve");
    match bad.outcome {
        WireOutcome::Error { code, .. } => assert_eq!(code, "unknown-solver"),
        other => panic!("expected error, got {other:?}"),
    }
    let missing = client.cancel(999).expect("cancel send");
    let ack = client.recv().expect("cancel ack").expect("frame");
    assert_eq!(ack.id, missing);
    match ack.outcome {
        WireOutcome::Error { code, .. } => assert_eq!(code, "unknown-target"),
        other => panic!("expected error, got {other:?}"),
    }
    // The connection still serves real work after both failures.
    let ok = client
        .solve(solve_frame("ls", sample_instance()))
        .expect("good solve");
    assert!(matches!(ok.outcome, WireOutcome::Ok { .. }));
    client.shutdown().expect("bye");
    server.join().expect("server thread").expect("server io");
}

#[test]
fn a_cancel_frame_stops_an_in_flight_solve_and_the_connection_serves_on() {
    let (server, addr) = small_server();
    // `milp` runs for minutes on this instance without a deadline, so only
    // the cancel can end it in time.
    let slow = generate(Family::new(5, 40, Distribution::U1To100), 1);
    let mut client = Client::connect(addr).expect("connect");
    let solve = client.submit(solve_frame("milp", slow)).expect("submit");
    let cancel = client.cancel(solve).expect("cancel send");
    // Read on a helper thread, so a solve the cancel missed fails the test
    // after 5 s instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let answers = (client.recv(), client.recv());
        let _ = tx.send((answers, client));
    });
    let ((stopped, ack), mut client) = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the solve and the cancel answered within 5 s");
    reader.join().expect("reader thread");
    // Answers come in submission order: the solve's, then the cancel's ack.
    let stopped = stopped.expect("recv").expect("frame");
    assert_eq!(stopped.id, solve);
    assert!(
        matches!(stopped.outcome, WireOutcome::Cancelled),
        "{stopped:?}"
    );
    let ack = ack.expect("recv").expect("frame");
    assert_eq!(ack.id, cancel);
    assert!(matches!(ack.outcome, WireOutcome::Cancelled), "{ack:?}");
    let ok = client
        .solve(solve_frame("ls", sample_instance()))
        .expect("good solve");
    assert!(matches!(ok.outcome, WireOutcome::Ok { .. }), "{ok:?}");
    client.shutdown().expect("bye");
    server.join().expect("server thread").expect("server io");
}

#[test]
fn a_deeply_nested_frame_only_loses_its_own_connection() {
    let (server, addr) = small_server();
    // 100,000 nested arrays as the instance's job times: about 200 KB,
    // far inside the frame cap, and far deeper than the JSON parser's
    // nesting bound.
    let depth = 100_000;
    let payload = format!(
        r#"{{"proto":"pcmax-wire/1","id":1,"op":"solve","solver":"lpt","eps":0.4,"instance":{{"times":{}1{},"machines":2}}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    raw.write_all(&(payload.len() as u32).to_be_bytes())
        .expect("send length");
    raw.write_all(payload.as_bytes()).expect("send payload");
    // The undecodable frame closes this connection without an answer.
    assert!(
        !matches!(read_frame(&mut raw), Ok(Some(_))),
        "a frame the server cannot parse gets no response"
    );

    // The daemon survived: a fresh client is served and says goodbye.
    let instance = sample_instance();
    let mut client = Client::connect(addr).expect("connect");
    let response = client
        .solve(solve_frame("lpt", instance.clone()))
        .expect("solve");
    match response.outcome {
        WireOutcome::Ok { assignment, .. } => assert_eq!(assignment.len(), instance.jobs()),
        other => panic!("expected ok, got {other:?}"),
    }
    let bye = client.shutdown().expect("bye");
    assert!(matches!(bye.outcome, WireOutcome::Bye { .. }), "{bye:?}");
    server.join().expect("server thread").expect("server io");
}

#[test]
fn instances_no_solver_can_take_get_typed_errors_and_the_connection_serves_on() {
    let (server, addr) = small_server();
    let mut next = send_raw(
        addr,
        &[
            // An identical-machine solver on an instance with machine speeds.
            r#"{"proto":"pcmax-wire/1","id":1,"op":"solve","solver":"exact","eps":0.4,"instance":{"times":[4,4],"machines":2,"speeds":[3,1]}}"#,
            // Σ tⱼ overflows u64: the instance does not decode.
            r#"{"proto":"pcmax-wire/1","id":2,"op":"solve","solver":"lpt","eps":0.4,"instance":{"times":[18446744073709551615,18446744073709551615],"machines":1}}"#,
            r#"{"proto":"pcmax-wire/1","id":3,"op":"solve","solver":"ptas-q","eps":0.4,"instance":{"times":[4,4],"machines":2,"speeds":[3,1]}}"#,
            r#"{"proto":"pcmax-wire/1","id":4,"op":"shutdown"}"#,
        ],
    );
    let refused = next();
    assert_eq!(refused.id, 1);
    match refused.outcome {
        WireOutcome::Error { message, .. } => {
            assert!(message.contains("machine speeds"), "{message}")
        }
        other => panic!("expected an error, got {other:?}"),
    }
    match next().outcome {
        WireOutcome::Error { code, message } => {
            assert_eq!(code, "bad-request");
            assert!(message.contains("overflows u64"), "{message}");
        }
        other => panic!("expected bad-request, got {other:?}"),
    }
    let served = next();
    assert_eq!(served.id, 3);
    match served.outcome {
        WireOutcome::Ok { makespan, .. } => assert_eq!(makespan, 3),
        other => panic!("expected ok, got {other:?}"),
    }
    assert!(matches!(next().outcome, WireOutcome::Bye { .. }));
    server.join().expect("server thread").expect("server io");
}

#[test]
fn a_milp_frame_with_ten_thousand_machines_is_answered_and_the_connection_serves_on() {
    let (server, addr) = small_server();
    let mut next = send_raw(
        addr,
        &[
            r#"{"proto":"pcmax-wire/1","id":1,"op":"solve","solver":"milp","eps":0.4,"instance":{"times":[3,4],"machines":10000}}"#,
            r#"{"proto":"pcmax-wire/1","id":2,"op":"solve","solver":"lpt","eps":0.4,"instance":{"times":[3,4,5],"machines":2}}"#,
            r#"{"proto":"pcmax-wire/1","id":3,"op":"shutdown"}"#,
        ],
    );
    let milp = next();
    assert_eq!(milp.id, 1);
    match milp.outcome {
        WireOutcome::Ok {
            makespan,
            certified_target,
            ..
        } => assert_eq!((makespan, certified_target), (4, Some(4))),
        other => panic!("expected ok, got {other:?}"),
    }
    let served = next();
    assert_eq!(served.id, 2);
    match served.outcome {
        WireOutcome::Ok { makespan, .. } => assert_eq!(makespan, 7),
        other => panic!("expected ok, got {other:?}"),
    }
    match next().outcome {
        WireOutcome::Bye { served, .. } => assert_eq!(served, 2),
        other => panic!("expected bye, got {other:?}"),
    }
    server.join().expect("server thread").expect("server io");
}

#[test]
fn a_frame_with_a_repeated_key_gets_an_error_and_the_connection_serves_on() {
    let (server, addr) = small_server();
    let mut next = send_raw(
        addr,
        &[
            r#"{"proto":"pcmax-wire/1","id":1,"op":"solve","solver":"lpt","solver":"milp","eps":0.4,"instance":{"times":[3,4,5],"machines":2}}"#,
            r#"{"proto":"pcmax-wire/1","id":2,"op":"solve","solver":"lpt","eps":0.4,"instance":{"times":[3,4,5],"machines":2}}"#,
            r#"{"proto":"pcmax-wire/1","id":3,"op":"shutdown"}"#,
        ],
    );
    match next().outcome {
        WireOutcome::Error { code, message } => {
            assert_eq!(code, "bad-request");
            assert!(message.contains(r#"duplicate key "solver""#), "{message}");
        }
        other => panic!("expected bad-request, got {other:?}"),
    }
    let served = next();
    assert_eq!(served.id, 2);
    match served.outcome {
        WireOutcome::Ok { makespan, .. } => assert_eq!(makespan, 7),
        other => panic!("expected ok, got {other:?}"),
    }
    match next().outcome {
        WireOutcome::Bye { served, .. } => assert_eq!(served, 1),
        other => panic!("expected bye, got {other:?}"),
    }
    server.join().expect("server thread").expect("server io");
}

#[test]
fn pipelined_submissions_answer_in_order() {
    let (server, addr) = small_server();
    let instances = generate_batch(Family::new(8, 50, Distribution::U1To10), 3, 6);
    let mut client = Client::connect(addr).expect("connect");
    let ids: Vec<u64> = instances
        .iter()
        .map(|inst| {
            client
                .submit(solve_frame("pptas", inst.clone()))
                .expect("submit")
        })
        .collect();
    for id in ids {
        let response = client.recv().expect("recv").expect("frame");
        assert_eq!(
            response.id, id,
            "responses must come back in submission order"
        );
        assert!(matches!(response.outcome, WireOutcome::Ok { .. }));
    }
    client.shutdown().expect("bye");
    server.join().expect("server thread").expect("server io");
}

#[test]
fn concurrent_clients_over_the_paper_families_get_every_answer_and_cache_hits() {
    let (server, addr) = common::spawn_server(EngineConfig {
        workers: 2,
        capacity: 64,
        cache_capacity: 1024,
    });
    let outcomes = common::closed_loop(addr, 3, 96, 5);
    assert_eq!(outcomes.len(), 96, "every request must get a response");
    for outcome in &outcomes {
        assert!(matches!(outcome, WireOutcome::Ok { .. }), "{outcome:?}");
    }
    assert!(
        outcomes.iter().any(|outcome| matches!(
            outcome,
            WireOutcome::Ok {
                cache_hit: true,
                ..
            }
        )),
        "fixed-seed laps over the pool must produce wire-visible cache hits"
    );
    let bye = Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("bye");
    match bye.outcome {
        WireOutcome::Bye { served, .. } => assert_eq!(served, 96),
        other => panic!("expected bye, got {other:?}"),
    }
    server.join().expect("server thread").expect("server io");
}
