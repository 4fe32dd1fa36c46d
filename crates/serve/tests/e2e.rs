//! End-to-end daemon tests: real TCP, real frames, real engine.

use pcmax_core::wire::{read_frame, WireOutcome, WireSolve};
use pcmax_core::{Instance, Time};
use pcmax_engine::EngineConfig;
use pcmax_serve::{run_loadtest, Client, LoadtestConfig, Server, ServerConfig};
use pcmax_workloads::{generate_batch, Distribution, Family};

fn small_server() -> (
    std::thread::JoinHandle<std::io::Result<pcmax_engine::EngineTotals>>,
    std::net::SocketAddr,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        engine: EngineConfig {
            workers: 2,
            capacity: 64,
            cache_capacity: 256,
        },
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    (std::thread::spawn(move || server.run()), addr)
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
fn a_deeply_nested_frame_only_loses_its_own_connection() {
    use std::io::Write;

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
    use pcmax_core::json::FromJson;
    use pcmax_core::wire::WireResponse;
    use std::io::Write;

    let (server, addr) = small_server();
    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    let frames = [
        // An identical-machine solver on an instance with machine speeds.
        r#"{"proto":"pcmax-wire/1","id":1,"op":"solve","solver":"exact","eps":0.4,"instance":{"times":[4,4],"machines":2,"speeds":[3,1]}}"#,
        // Σ tⱼ overflows u64: the instance does not decode.
        r#"{"proto":"pcmax-wire/1","id":2,"op":"solve","solver":"lpt","eps":0.4,"instance":{"times":[18446744073709551615,18446744073709551615],"machines":1}}"#,
        r#"{"proto":"pcmax-wire/1","id":3,"op":"solve","solver":"ptas-q","eps":0.4,"instance":{"times":[4,4],"machines":2,"speeds":[3,1]}}"#,
        r#"{"proto":"pcmax-wire/1","id":4,"op":"shutdown"}"#,
    ];
    for payload in frames {
        raw.write_all(&(payload.len() as u32).to_be_bytes())
            .expect("send length");
        raw.write_all(payload.as_bytes()).expect("send payload");
    }
    let mut next = || {
        let frame = read_frame(&mut raw).expect("read").expect("a frame");
        WireResponse::from_json(&frame).expect("decode")
    };
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
fn loadtest_smoke_has_zero_dropped_responses() {
    let report = run_loadtest(&LoadtestConfig {
        clients: 3,
        requests: 96,
        solver: "pptas".into(),
        eps: 0.5,
        seed: 5,
        per_family: 1,
        engine: EngineConfig {
            workers: 2,
            capacity: 64,
            cache_capacity: 1024,
        },
    })
    .expect("loadtest");
    assert_eq!(report.requests, 96, "every request must get a response");
    assert_eq!(report.ok, 96, "no request may fail");
    assert_eq!(report.served, 96);
    assert!(
        report.cache_hit_responses > 0,
        "fixed-seed laps over the pool must produce wire-visible cache hits"
    );
    // parks == wakes is asserted in tests/park_balance.rs, which runs as
    // its own binary: the counters are process-global, so any concurrently
    // running test with parked workers would make the check flaky here.
    assert!(report.p99_micros >= report.p50_micros);
}
