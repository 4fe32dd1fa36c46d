//! The daemon: TCP listener, per-connection reader/responder pair, shared
//! session engine.

use pcmax_core::json::{FromJson, ToJson};
use pcmax_core::wire::{
    error_code, read_frame, write_frame, WireOp, WireRequest, WireResponse, WireSolve,
};
use pcmax_core::{Budget, CancelToken, Error};
use pcmax_engine::{Engine, EngineConfig, EngineTotals, SolveHandle, Submission};
use pcmax_metrics::{family, Counter, Family};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Connections the daemon accepted over its lifetime.
static CONNECTIONS: Counter = Counter::new(
    "pcmax_serve_connections_total",
    "Connections accepted by the pcmax-serve daemon",
);

/// Request frames per operation (`solve` / `cancel` / `shutdown` /
/// `bad-request`).
static REQUESTS: Family<Counter> = family(
    "pcmax_serve_requests_total",
    "Request frames handled by the pcmax-serve daemon, per operation",
    "op",
);

/// How the daemon is built: the listen address and the engine sizing.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port `0` picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Sizing of the shared session engine.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            engine: EngineConfig::default(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The daemon. [`bind`](Server::bind), then [`run`](Server::run) until a
/// client sends `shutdown`.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and builds the shared engine. Nothing is
    /// accepted until [`run`](Server::run).
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(&config.addr)?,
            engine: Arc::new(Engine::with_config(config.engine)),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until a `shutdown` frame arrives;
    /// then joins every connection thread and returns the engine totals.
    pub fn run(self) -> io::Result<EngineTotals> {
        let addr = self.listener.local_addr()?;
        let mut connections = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            CONNECTIONS.inc();
            let engine = Arc::clone(&self.engine);
            let stop = Arc::clone(&self.stop);
            connections.push(std::thread::spawn(move || {
                // A broken connection only loses that client.
                let _ = handle_connection(stream, &engine, &stop, addr);
            }));
        }
        for conn in connections {
            let _ = conn.join();
        }
        Ok(self.engine.shutdown())
    }
}

/// What the responder thread writes next, in submission order.
enum Pending {
    /// An admitted solve: wait on the handle, then answer.
    Solve { id: u64, handle: SolveHandle },
    /// An immediately-known response (cancel acks, admission errors).
    Ready(WireResponse),
}

fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    stop: &Arc<AtomicBool>,
    listener_addr: SocketAddr,
) -> io::Result<()> {
    let writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let cancels: Arc<Mutex<HashMap<u64, CancelToken>>> = Arc::new(Mutex::new(HashMap::new()));
    let (tx, rx) = mpsc::channel::<Pending>();

    let responder_cancels = Arc::clone(&cancels);
    let responder = std::thread::spawn(move || -> io::Result<BufWriter<TcpStream>> {
        let mut writer = BufWriter::new(writer);
        for pending in rx {
            let response = match pending {
                Pending::Ready(response) => response,
                Pending::Solve { id, handle } => {
                    let result = handle.wait();
                    lock(&responder_cancels).remove(&id);
                    WireResponse::from_result(id, &result)
                }
            };
            write_frame(&mut writer, &response.to_json())?;
        }
        Ok(writer)
    });

    let mut shutdown_id = None;
    loop {
        // A repeated key breaks a rule of the protocol, not the framing:
        // the frame was read whole, so it is answered like any frame that
        // does not decode, and the connection reads on.
        let decoded = match read_frame(&mut reader) {
            Ok(Some(value)) => WireRequest::from_json(&value),
            Ok(None) => break,
            Err(e) => Err(duplicate_key(e)?),
        };
        let request = match decoded {
            Ok(request) => request,
            Err(e) => {
                REQUESTS.with_label("bad-request").inc();
                let _ = tx.send(Pending::Ready(error_response(0, "bad-request", &e)));
                continue;
            }
        };
        match request.op {
            WireOp::Solve(solve) => {
                REQUESTS.with_label("solve").inc();
                let cancel = CancelToken::new();
                match engine.submit(submission_of(solve, cancel.clone())) {
                    Ok(handle) => {
                        lock(&cancels).insert(request.id, cancel);
                        let _ = tx.send(Pending::Solve {
                            id: request.id,
                            handle,
                        });
                    }
                    Err(e) => {
                        let _ = tx.send(Pending::Ready(error_response(
                            request.id,
                            error_code(&e),
                            &e,
                        )));
                    }
                }
            }
            WireOp::Cancel { target } => {
                REQUESTS.with_label("cancel").inc();
                let token = lock(&cancels).get(&target).cloned();
                let response = match token {
                    Some(token) => {
                        token.cancel();
                        WireResponse {
                            id: request.id,
                            outcome: pcmax_core::wire::WireOutcome::Cancelled,
                        }
                    }
                    None => error_response(
                        request.id,
                        "unknown-target",
                        &Error::BadModel(format!("serve: no in-flight request {target}")),
                    ),
                };
                let _ = tx.send(Pending::Ready(response));
            }
            WireOp::Shutdown => {
                REQUESTS.with_label("shutdown").inc();
                shutdown_id = Some(request.id);
                break;
            }
        }
    }

    // Close the channel so the responder drains outstanding solves (in
    // submission order) and hands the writer back.
    drop(tx);
    let mut writer = responder
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;

    if let Some(id) = shutdown_id {
        // Tear the engine down *before* reporting totals: joining the
        // workers wakes every parked thread once more, so the park/wake
        // counters the `bye` frame carries balance exactly on a clean
        // shutdown.
        let totals = engine.shutdown();
        let bye = WireResponse {
            id,
            outcome: pcmax_core::wire::WireOutcome::Bye {
                served: totals.served,
                cache_hits: totals.cache_hits,
                cache_misses: totals.cache_misses,
                parks: pcmax_parallel::metrics::POOL_PARKS.get(),
                wakes: pcmax_parallel::metrics::POOL_WAKES.get(),
            },
        };
        write_frame(&mut writer, &bye.to_json())?;
        stop.store(true, Ordering::Release);
        // Unblock the accept loop so `run` can join and return.
        let _ = TcpStream::connect(listener_addr);
    }
    Ok(())
}

/// Maps a wire solve to an engine submission: ε and threads (see
/// [`wire_threads`]) go to the solver params, `timeout_ms` becomes the
/// request budget (the clock starts now, so queue time counts), and the
/// caller's token is attached for `cancel` frames.
fn submission_of(solve: WireSolve, cancel: CancelToken) -> Submission {
    let mut params = pcmax_engine::SolverParams::with_epsilon(solve.eps);
    params.threads = wire_threads(solve.threads);
    let budget = match solve.timeout_ms {
        Some(ms) => Budget::with_timeout(Duration::from_millis(ms)),
        None => Budget::unlimited(),
    };
    Submission::new(solve.instance, solve.solver)
        .with_params(params)
        .with_budget(budget)
        .with_cancel(cancel)
}

/// A wire client's thread count, clamped to the host's cores. `threads` is
/// an upper bound, and a sweep above the wavefront's serial cutoff starts
/// one OS thread per worker, so an unclamped frame could ask the host for
/// any number of threads per probe.
fn wire_threads(threads: Option<usize>) -> Option<usize> {
    threads.map(|t| t.min(pcmax_parallel::effective_threads(None)))
}

/// The [`Error::DuplicateKey`] that made [`read_frame`] refuse a frame, or
/// `e` itself for any other failure.
fn duplicate_key(e: io::Error) -> io::Result<Error> {
    match e.get_ref().and_then(|inner| inner.downcast_ref::<Error>()) {
        Some(dup @ Error::DuplicateKey { .. }) => Ok(dup.clone()),
        _ => Err(e),
    }
}

fn error_response(id: u64, code: &str, e: &Error) -> WireResponse {
    WireResponse {
        id,
        outcome: pcmax_core::wire::WireOutcome::Error {
            code: code.into(),
            message: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_threads_are_clamped_to_the_host_cores() {
        let cores = pcmax_parallel::effective_threads(None);
        assert_eq!(wire_threads(Some(100_000)), Some(cores));
        assert_eq!(wire_threads(Some(usize::MAX)), Some(cores));
        assert_eq!(wire_threads(None), None);
        assert_eq!(wire_threads(Some(1)), Some(1));
    }
}
