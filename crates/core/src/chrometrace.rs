//! Chrome trace-event / Perfetto exporter for flight-recorder events.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and <https://ui.perfetto.dev>: duration events
//! (`ph: "B"`/`"E"`) for recorder spans, instant events (`ph: "i"`) for
//! point occurrences (block outcomes, retries, fallbacks, pool and cache
//! traffic, lane JIT compiles), and one metadata `thread_name`
//! record per [`Track`] so every lane and pipeline stage gets its
//! own named row on the timeline.
//!
//! The exporter is defensive about balance: a ring-buffer recorder can
//! legitimately hold an `E` whose `B` was overwritten (or a `B` whose `E`
//! never happened because the run was cut short). Unmatched halves are
//! dropped here, per track, so the emitted document always satisfies the
//! trace-event contract — monotonic non-negative timestamps and strictly
//! paired `B`/`E` per thread.

use crate::json::Json;
use crate::recorder::{Event, EventKind, Track};
use std::collections::BTreeMap;

/// All trace events share one process row.
const PID: u64 = 1;

/// Converts drained recorder events into a Chrome trace-event JSON
/// document. Events are sorted by timestamp, unmatched span halves are
/// dropped per track, and every referenced track gets a `thread_name`
/// metadata record.
pub fn export_chrome_trace(events: &[Event]) -> Json {
    let mut sorted: Vec<Event> = events.to_vec();
    sorted.sort_by_key(|e| (e.ts_ns, e.seq));

    let keep = balanced_span_mask(&sorted);

    let mut tracks: BTreeMap<u32, Track> = BTreeMap::new();
    for e in &sorted {
        tracks.entry(e.track.encoded()).or_insert(e.track);
    }

    let mut trace_events = Vec::new();
    for track in tracks.values() {
        trace_events.push(thread_name_record(*track));
    }
    for (i, e) in sorted.iter().enumerate() {
        match e.kind {
            EventKind::SpanBegin | EventKind::SpanEnd => {
                if keep[i] {
                    trace_events.push(span_record(e));
                }
            }
            _ => trace_events.push(instant_record(e)),
        }
    }

    Json::obj()
        .set("traceEvents", Json::Arr(trace_events))
        .set("displayTimeUnit", Json::Str("ns".into()))
}

/// Marks which `SpanBegin`/`SpanEnd` events form matched pairs, per track,
/// treating each track's spans as a stack (recorder guards nest LIFO).
fn balanced_span_mask(sorted: &[Event]) -> Vec<bool> {
    let mut keep = vec![false; sorted.len()];
    let mut open: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, e) in sorted.iter().enumerate() {
        match e.kind {
            EventKind::SpanBegin => open.entry(e.track.encoded()).or_default().push(i),
            EventKind::SpanEnd => {
                let stack = open.entry(e.track.encoded()).or_default();
                // Pop until we find the begin this end closes; begins whose
                // end was lost to ring overwrite are discarded on the way.
                while let Some(b) = stack.pop() {
                    if sorted[b].name == e.name {
                        keep[b] = true;
                        keep[i] = true;
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    keep
}

fn track_label(track: Track) -> String {
    match track.class() {
        "main" => "main".to_string(),
        "stage" if track.id() == 0 => "stage 0 (tile walk)".to_string(),
        class => format!("{class} {}", track.id()),
    }
}

fn thread_name_record(track: Track) -> Json {
    Json::obj()
        .set("name", Json::Str("thread_name".into()))
        .set("ph", Json::Str("M".into()))
        .set("pid", Json::U64(PID))
        .set("tid", Json::U64(u64::from(track.encoded())))
        .set("args", Json::obj().set("name", Json::Str(track_label(track))))
}

fn ts_us(e: &Event) -> Json {
    #[allow(clippy::cast_precision_loss)]
    Json::F64(e.ts_ns as f64 / 1000.0)
}

fn span_record(e: &Event) -> Json {
    let ph = if e.kind == EventKind::SpanBegin { "B" } else { "E" };
    Json::obj()
        .set("name", Json::Str(e.name.to_string()))
        .set("cat", Json::Str("span".into()))
        .set("ph", Json::Str(ph.into()))
        .set("pid", Json::U64(PID))
        .set("tid", Json::U64(u64::from(e.track.encoded())))
        .set("ts", ts_us(e))
}

fn instant_record(e: &Event) -> Json {
    Json::obj()
        .set("name", Json::Str(e.name.to_string()))
        .set("cat", Json::Str(e.kind.label().into()))
        .set("ph", Json::Str("i".into()))
        .set("s", Json::Str("t".into()))
        .set("pid", Json::U64(PID))
        .set("tid", Json::U64(u64::from(e.track.encoded())))
        .set("ts", ts_us(e))
        .set("args", Json::obj().set("a", Json::U64(e.a)).set("b", Json::U64(e.b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, seq: u64, kind: EventKind, track: Track, name: &'static str) -> Event {
        Event { ts_ns, seq, kind, track, name, a: 0, b: 0 }
    }

    #[test]
    fn matched_spans_survive_and_unmatched_halves_are_dropped() {
        let lane = Track::lane(2);
        let events = [
            ev(5, 0, EventKind::SpanEnd, lane, "orphan-end"),
            ev(10, 1, EventKind::SpanBegin, lane, "decode"),
            ev(20, 2, EventKind::SpanEnd, lane, "decode"),
            ev(30, 3, EventKind::SpanBegin, lane, "orphan-begin"),
        ];
        let doc = export_chrome_trace(&events);
        let arr = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
        let phases: Vec<&str> =
            arr.iter().filter_map(|e| e.get("ph").and_then(Json::as_str)).collect();
        assert_eq!(phases, ["M", "B", "E"], "one thread_name + the one matched pair");
    }

    #[test]
    fn every_track_gets_a_thread_name_row_and_instants_carry_payload() {
        let events = [
            ev(1, 0, EventKind::SpanBegin, Track::MAIN, "job"),
            Event {
                ts_ns: 2,
                seq: 1,
                kind: EventKind::BlockOutcome,
                track: Track::lane(0),
                name: "block",
                a: 97,
                b: 0,
            },
            ev(3, 2, EventKind::SpanEnd, Track::MAIN, "job"),
            ev(4, 3, EventKind::CacheHit, Track::stage(0), "cache.hit"),
        ];
        let doc = export_chrome_trace(&events);
        let arr = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
        let names: Vec<&str> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str))
            .collect();
        assert_eq!(names, ["main", "lane 0", "stage 0 (tile walk)"]);
        let block = arr
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("block"))
            .expect("block instant present");
        assert_eq!(block.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(block.get("args").and_then(|a| a.get("a")).and_then(Json::as_u64), Some(97));
        assert_eq!(block.get("cat").and_then(Json::as_str), Some("block_outcome"));
    }

    #[test]
    fn timestamps_are_microseconds_and_monotonic() {
        let events = [
            ev(1_500, 0, EventKind::SpanBegin, Track::MAIN, "a"),
            ev(2_500, 1, EventKind::SpanEnd, Track::MAIN, "a"),
        ];
        let doc = export_chrome_trace(&events);
        let arr = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
        let ts: Vec<f64> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .filter_map(|e| e.get("ts").and_then(Json::as_f64))
            .collect();
        assert_eq!(ts, [1.5, 2.5], "ns payloads render as fractional microseconds");
    }
}
