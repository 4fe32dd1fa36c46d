//! `pcmax-wire/1`: the serving layer's length-prefixed JSON protocol.
//!
//! Every frame on the wire is a 4-byte big-endian payload length followed
//! by one compact JSON document rendered by the in-tree [`json`] codec.
//! Requests carry an operation (`solve` / `cancel` / `shutdown`) plus a
//! client-chosen `id`; responses echo the `id` with a `status` of `ok`,
//! `cancelled`, `error`, or (for shutdown acknowledgements) `bye`. The
//! field layout is pinned by golden-file round-trip tests in
//! `crates/core/tests/wire_golden.rs` — change it there first.
//!
//! [`json`]: crate::json

use crate::json::{self, object, u64_array, Value};
use crate::{Error, Instance, Result, SolveReport, Time};
use std::io::{self, Read, Write};

/// Protocol identifier carried in every frame.
pub const PROTO: &str = "pcmax-wire/1";

/// Upper bound on a single frame's payload, guarding the length prefix
/// against corrupt or hostile peers.
pub const MAX_FRAME: usize = 16 << 20;

/// Parameters of one remote solve.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSolve {
    /// Registry name of the solver (`"ptas"`, `"lpt"`, `"ptas-q"`, …).
    pub solver: String,
    /// PTAS accuracy parameter ε.
    pub eps: f64,
    /// Worker-thread count (`None` = solver default).
    pub threads: Option<usize>,
    /// Wall-clock budget in milliseconds (`None` = unlimited).
    pub timeout_ms: Option<u64>,
    /// The problem instance.
    pub instance: Instance,
}

/// Operation of one request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Solve an instance.
    Solve(WireSolve),
    /// Cancel the in-flight request whose id is `target`.
    Cancel {
        /// Request id to cancel.
        target: u64,
    },
    /// Drain, report server totals, and close the listener.
    Shutdown,
}

/// One request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The requested operation.
    pub op: WireOp,
}

/// The stats subset a response carries (enough for clients to see cost
/// and cache behaviour without shipping the full [`SolveStats`]).
///
/// [`SolveStats`]: crate::SolveStats
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Bisection probes over the target makespan.
    pub bisection_probes: u64,
    /// DP cells computed.
    pub dp_cells: u64,
    /// Profile-cache hits during the solve.
    pub cache_hits: u64,
    /// Profile-cache misses during the solve.
    pub cache_misses: u64,
    /// Total wall time in microseconds.
    pub wall_micros: u64,
}

/// Outcome of one response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// The solve completed.
    Ok {
        /// Achieved makespan.
        makespan: Time,
        /// Converged bisection target, when the solver certifies one.
        certified_target: Option<Time>,
        /// Per-job machine assignment.
        assignment: Vec<u64>,
        /// Whether any probe was served from the instance-profile cache.
        cache_hit: bool,
        /// Cost counters.
        stats: WireStats,
    },
    /// The request's cancel token was raised before completion.
    Cancelled,
    /// The solve failed; `code` is machine-readable, `message` human-.
    Error {
        /// Stable error code (`"budget-exhausted"`, `"bad-request"`, …).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Shutdown acknowledgement with server lifetime totals.
    Bye {
        /// Solve requests answered over the server's lifetime.
        served: u64,
        /// Profile-cache hits over the server's lifetime.
        cache_hits: u64,
        /// Profile-cache misses over the server's lifetime.
        cache_misses: u64,
        /// Worker park events aggregated from every solve.
        parks: u64,
        /// Worker wake events aggregated from every solve.
        wakes: u64,
    },
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// Correlation id of the request being answered.
    pub id: u64,
    /// The outcome.
    pub outcome: WireOutcome,
}

impl WireResponse {
    /// Builds the response for a finished solve: `Ok` on success,
    /// `Cancelled` for a raised token, `Error` with a stable code
    /// otherwise. `cache_hit` is read off the report's own stats — never
    /// reused from a different solve.
    pub fn from_result(id: u64, result: &Result<SolveReport>) -> Self {
        let outcome = match result {
            Ok(report) => WireOutcome::Ok {
                makespan: report.makespan,
                certified_target: report.certified_target,
                assignment: report
                    .schedule
                    .assignment()
                    .iter()
                    .map(|&m| m as u64)
                    .collect(),
                cache_hit: report.stats.cache_hits > 0,
                stats: WireStats {
                    bisection_probes: report.stats.bisection_probes,
                    dp_cells: report.stats.dp_cells,
                    cache_hits: report.stats.cache_hits,
                    cache_misses: report.stats.cache_misses,
                    wall_micros: report.stats.wall.as_micros() as u64,
                },
            },
            Err(Error::Cancelled) => WireOutcome::Cancelled,
            Err(e) => WireOutcome::Error {
                code: error_code(e).into(),
                message: e.to_string(),
            },
        };
        Self { id, outcome }
    }
}

/// Stable wire error code for a solve failure. `Cancelled` is not an
/// error on the wire (it has its own status) but maps here for callers
/// that log raw results.
pub fn error_code(e: &Error) -> &'static str {
    match e {
        Error::Cancelled => "cancelled",
        Error::BudgetExhausted { .. } => "budget-exhausted",
        Error::UnknownSolver { .. } => "unknown-solver",
        Error::Overloaded { .. } => "overloaded",
        _ => "error",
    }
}

fn bad(msg: impl Into<String>) -> Error {
    Error::BadModel(format!("wire: {}", msg.into()))
}

fn check_proto(v: &Value) -> Result<()> {
    match v.get("proto").and_then(Value::as_str) {
        Some(PROTO) => Ok(()),
        Some(other) => Err(bad(format!("unsupported protocol `{other}`"))),
        None => Err(bad("missing `proto` field")),
    }
}

impl json::ToJson for WireRequest {
    fn to_json(&self) -> Value {
        let mut members = vec![
            ("proto", Value::Str(PROTO.into())),
            ("id", Value::UInt(self.id)),
        ];
        match &self.op {
            WireOp::Solve(s) => {
                members.push(("op", Value::Str("solve".into())));
                members.push(("solver", Value::Str(s.solver.clone())));
                members.push(("eps", Value::Float(s.eps)));
                if let Some(t) = s.threads {
                    members.push(("threads", Value::UInt(t as u64)));
                }
                if let Some(ms) = s.timeout_ms {
                    members.push(("timeout_ms", Value::UInt(ms)));
                }
                members.push(("instance", s.instance.to_json()));
            }
            WireOp::Cancel { target } => {
                members.push(("op", Value::Str("cancel".into())));
                members.push(("target", Value::UInt(*target)));
            }
            WireOp::Shutdown => members.push(("op", Value::Str("shutdown".into()))),
        }
        object(members)
    }
}

impl json::FromJson for WireRequest {
    fn from_json(v: &Value) -> Result<Self> {
        check_proto(v)?;
        let id = json::field_u64(v, "id")?;
        let op = match v.get("op").and_then(Value::as_str) {
            Some("solve") => {
                let solver = v
                    .get("solver")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("missing `solver` field"))?
                    .to_string();
                let eps = v
                    .get("eps")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad("missing `eps` field"))?;
                let threads = v
                    .get("threads")
                    .map(|t| {
                        t.as_u64()
                            .map(|t| t as usize)
                            .ok_or_else(|| bad("non-integer `threads`"))
                    })
                    .transpose()?;
                let timeout_ms = v
                    .get("timeout_ms")
                    .map(|t| t.as_u64().ok_or_else(|| bad("non-integer `timeout_ms`")))
                    .transpose()?;
                let instance = Instance::from_json(
                    v.get("instance")
                        .ok_or_else(|| bad("missing `instance` field"))?,
                )?;
                WireOp::Solve(WireSolve {
                    solver,
                    eps,
                    threads,
                    timeout_ms,
                    instance,
                })
            }
            Some("cancel") => WireOp::Cancel {
                target: json::field_u64(v, "target")?,
            },
            Some("shutdown") => WireOp::Shutdown,
            Some(other) => return Err(bad(format!("unknown op `{other}`"))),
            None => return Err(bad("missing `op` field")),
        };
        Ok(Self { id, op })
    }
}

impl json::ToJson for WireStats {
    fn to_json(&self) -> Value {
        object(vec![
            ("bisection_probes", Value::UInt(self.bisection_probes)),
            ("dp_cells", Value::UInt(self.dp_cells)),
            ("cache_hits", Value::UInt(self.cache_hits)),
            ("cache_misses", Value::UInt(self.cache_misses)),
            ("wall_micros", Value::UInt(self.wall_micros)),
        ])
    }
}

impl json::FromJson for WireStats {
    fn from_json(v: &Value) -> Result<Self> {
        Ok(Self {
            bisection_probes: json::field_u64(v, "bisection_probes")?,
            dp_cells: json::field_u64(v, "dp_cells")?,
            cache_hits: json::field_u64(v, "cache_hits")?,
            cache_misses: json::field_u64(v, "cache_misses")?,
            wall_micros: json::field_u64(v, "wall_micros")?,
        })
    }
}

impl json::ToJson for WireResponse {
    fn to_json(&self) -> Value {
        let mut members = vec![
            ("proto", Value::Str(PROTO.into())),
            ("id", Value::UInt(self.id)),
        ];
        match &self.outcome {
            WireOutcome::Ok {
                makespan,
                certified_target,
                assignment,
                cache_hit,
                stats,
            } => {
                members.push(("status", Value::Str("ok".into())));
                members.push(("makespan", Value::UInt(*makespan)));
                if let Some(t) = certified_target {
                    members.push(("certified_target", Value::UInt(*t)));
                }
                members.push(("assignment", u64_array(assignment.iter().copied())));
                members.push(("cache_hit", Value::Bool(*cache_hit)));
                members.push(("stats", stats.to_json()));
            }
            WireOutcome::Cancelled => {
                members.push(("status", Value::Str("cancelled".into())));
            }
            WireOutcome::Error { code, message } => {
                members.push(("status", Value::Str("error".into())));
                members.push(("code", Value::Str(code.clone())));
                members.push(("message", Value::Str(message.clone())));
            }
            WireOutcome::Bye {
                served,
                cache_hits,
                cache_misses,
                parks,
                wakes,
            } => {
                members.push(("status", Value::Str("bye".into())));
                members.push(("served", Value::UInt(*served)));
                members.push(("cache_hits", Value::UInt(*cache_hits)));
                members.push(("cache_misses", Value::UInt(*cache_misses)));
                members.push(("parks", Value::UInt(*parks)));
                members.push(("wakes", Value::UInt(*wakes)));
            }
        }
        object(members)
    }
}

impl json::FromJson for WireResponse {
    fn from_json(v: &Value) -> Result<Self> {
        check_proto(v)?;
        let id = json::field_u64(v, "id")?;
        let outcome = match v.get("status").and_then(Value::as_str) {
            Some("ok") => WireOutcome::Ok {
                makespan: json::field_u64(v, "makespan")?,
                certified_target: v
                    .get("certified_target")
                    .map(|t| {
                        t.as_u64()
                            .ok_or_else(|| bad("non-integer `certified_target`"))
                    })
                    .transpose()?,
                assignment: json::field_u64_array(v, "assignment")?,
                cache_hit: matches!(v.get("cache_hit"), Some(Value::Bool(true))),
                stats: WireStats::from_json(
                    v.get("stats").ok_or_else(|| bad("missing `stats` field"))?,
                )?,
            },
            Some("cancelled") => WireOutcome::Cancelled,
            Some("error") => WireOutcome::Error {
                code: v
                    .get("code")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("missing `code` field"))?
                    .to_string(),
                message: v
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
            },
            Some("bye") => WireOutcome::Bye {
                served: json::field_u64(v, "served")?,
                cache_hits: json::field_u64(v, "cache_hits")?,
                cache_misses: json::field_u64(v, "cache_misses")?,
                parks: json::field_u64(v, "parks")?,
                wakes: json::field_u64(v, "wakes")?,
            },
            Some(other) => return Err(bad(format!("unknown status `{other}`"))),
            None => return Err(bad("missing `status` field")),
        };
        Ok(Self { id, outcome })
    }
}

/// Encodes one frame (length prefix + compact JSON) into a byte vector.
pub fn encode_frame(v: &Value) -> Vec<u8> {
    let payload = v.to_string_compact();
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Writes one frame to `w` and flushes it.
pub fn write_frame(w: &mut impl Write, v: &Value) -> io::Result<()> {
    w.write_all(&encode_frame(v))?;
    w.flush()
}

/// Reads one frame from `r`. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; mid-frame EOF, oversized frames, and malformed payloads are
/// `InvalidData` errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Value>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wire: frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("wire: {e}")))?;
    json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, ToJson};

    fn sample_solve() -> WireRequest {
        WireRequest {
            id: 7,
            op: WireOp::Solve(WireSolve {
                solver: "ptas".into(),
                eps: 0.25,
                threads: Some(2),
                timeout_ms: Some(500),
                instance: Instance::new(vec![5, 4, 3], 2).unwrap(),
            }),
        }
    }

    #[test]
    fn request_round_trips() {
        for req in [
            sample_solve(),
            WireRequest {
                id: 8,
                op: WireOp::Cancel { target: 7 },
            },
            WireRequest {
                id: 9,
                op: WireOp::Shutdown,
            },
        ] {
            let v = req.to_json();
            assert_eq!(WireRequest::from_json(&v).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            WireResponse {
                id: 7,
                outcome: WireOutcome::Ok {
                    makespan: 9,
                    certified_target: Some(8),
                    assignment: vec![0, 1, 0],
                    cache_hit: true,
                    stats: WireStats {
                        bisection_probes: 4,
                        dp_cells: 120,
                        cache_hits: 3,
                        cache_misses: 1,
                        wall_micros: 842,
                    },
                },
            },
            WireResponse {
                id: 7,
                outcome: WireOutcome::Cancelled,
            },
            WireResponse {
                id: 7,
                outcome: WireOutcome::Error {
                    code: "budget-exhausted".into(),
                    message: "budget exhausted".into(),
                },
            },
            WireResponse {
                id: 0,
                outcome: WireOutcome::Bye {
                    served: 12,
                    cache_hits: 5,
                    cache_misses: 7,
                    parks: 40,
                    wakes: 40,
                },
            },
        ] {
            let v = resp.to_json();
            assert_eq!(WireResponse::from_json(&v).unwrap(), resp);
        }
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let req = sample_solve();
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.to_json()).unwrap();
        write_frame(
            &mut buf,
            &WireRequest {
                id: 9,
                op: WireOp::Shutdown,
            }
            .to_json(),
        )
        .unwrap();
        let mut r = &buf[..];
        let first = read_frame(&mut r).unwrap().expect("first frame");
        assert_eq!(WireRequest::from_json(&first).unwrap(), req);
        let second = read_frame(&mut r).unwrap().expect("second frame");
        assert_eq!(
            WireRequest::from_json(&second).unwrap().op,
            WireOp::Shutdown
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_error() {
        let mut buf = encode_frame(&sample_solve().to_json());
        buf.truncate(buf.len() - 1);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err(), "mid-frame EOF must error");

        let mut huge = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        huge.extend_from_slice(b"x");
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err(), "oversized frame must error");
    }

    #[test]
    fn out_of_range_job_time_is_a_bad_request() {
        let frame = r#"{"proto":"pcmax-wire/1","id":3,"op":"solve","solver":"lpt","eps":0.3,"instance":{"times":[18446744073709551616,3],"machines":2}}"#;
        let err = WireRequest::from_json(&json::parse(frame).unwrap()).unwrap_err();
        assert!(
            matches!(&err, Error::BadModel(m) if m.starts_with("json:")),
            "{err}"
        );
    }

    #[test]
    fn wrapping_job_total_is_a_bad_request() {
        let frame = r#"{"proto":"pcmax-wire/1","id":3,"op":"solve","solver":"lpt","eps":0.3,"instance":{"times":[18446744073709551615,18446744073709551615],"machines":1}}"#;
        let err = WireRequest::from_json(&json::parse(frame).unwrap()).unwrap_err();
        assert!(
            matches!(&err, Error::BadModel(m) if m.contains("overflows u64")),
            "{err}"
        );
    }

    #[test]
    fn wrong_protocol_is_rejected() {
        let mut v = sample_solve().to_json();
        if let Value::Object(members) = &mut v {
            members[0].1 = Value::Str("pcmax-wire/0".into());
        }
        assert!(WireRequest::from_json(&v).is_err());
    }
}
