//! In-memory spans around the benchmark's calls into the program, written
//! out at the end as Chrome trace-event JSON (opens in Perfetto, like
//! `pcmax trace` output).

use pcmax_core::json::{object, Value};
use std::time::Instant;

/// One timed call: `tid` groups spans onto a track, `request` ties the
/// spans of one request together.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tid: u64,
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

/// Track ids of the replay and figure phases (request tracks are the
/// load-generator thread indices).
pub const REPLAY_TID: u64 = 100;

fn micros_since(origin: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(origin).as_secs_f64() * 1e6
}

/// Renders `spans` as a Chrome trace document with `meta` under
/// `otherData`.
pub fn chrome_trace(spans: &[Span], origin: Instant, meta: Value) -> Value {
    let mut events = Vec::with_capacity(spans.len() + 4);
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let name = if tid == REPLAY_TID {
            "replay".to_string()
        } else {
            format!("loadgen-{tid}")
        };
        events.push(object(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(tid)),
            ("args", object(vec![("name", Value::Str(name))])),
        ]));
    }
    for s in spans {
        events.push(object(vec![
            ("name", Value::Str(s.name.to_string())),
            ("cat", Value::Str("perfbench".into())),
            ("ph", Value::Str("X".into())),
            ("ts", Value::Float(micros_since(origin, s.start))),
            (
                "dur",
                Value::Float(s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6),
            ),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(s.tid)),
            ("args", object(vec![("request", Value::UInt(s.request))])),
        ]));
    }
    object(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
        ("otherData", meta),
    ])
}
