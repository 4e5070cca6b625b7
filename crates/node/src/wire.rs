//! Parsing and printing of the line-delimited JSON wire format.
//!
//! The codec is deliberately strict: every event line must carry the exact
//! fields the protocol needs, and anything malformed is a [`WireError`]
//! naming the offending field rather than a silent default. Output lines
//! are compact (single-line) JSON so the framing survives any
//! line-buffered pipe.

use fnp_bench::json::Json;
use fnp_gossip::FloodMessage;
use fnp_netsim::{NodeId, SimTime};
use std::fmt;

/// One event arriving on stdin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Identity and topology; must be the first event.
    Init {
        /// This node's identifier.
        node: NodeId,
        /// Number of nodes in the overlay.
        node_count: usize,
        /// This node's neighbours.
        neighbors: Vec<NodeId>,
        /// Seed of the node-local RNG.
        seed: u64,
    },
    /// Originate a broadcast of `tx_id` at event time `at`.
    Start {
        /// Event timestamp.
        at: SimTime,
        /// The transaction to broadcast.
        tx_id: u64,
    },
    /// A peer's message arrives at event time `at`.
    Deliver {
        /// Event timestamp.
        at: SimTime,
        /// Sending peer.
        from: NodeId,
        /// The flooded message.
        message: FloodMessage,
    },
    /// A previously requested timer fires at event time `at`.
    Tick {
        /// Event timestamp.
        at: SimTime,
        /// The tag passed to `SetTimer`.
        tag: u64,
    },
    /// Finish up: acknowledge with `done` and exit.
    Shutdown,
}

/// A malformed wire line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the line.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid wire line: {}", self.message)
    }
}

impl std::error::Error for WireError {}

fn field_u64(value: &Json, key: &str) -> Result<u64, WireError> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::new(format!("missing or non-integer field {key:?}")))
}

fn field_node(value: &Json, key: &str) -> Result<NodeId, WireError> {
    Ok(NodeId::new(field_u64(value, key)? as usize))
}

/// Parses one stdin line into an [`Event`].
///
/// # Errors
///
/// Returns a [`WireError`] for malformed JSON, unknown event types and
/// missing or mistyped fields.
pub fn parse_event(line: &str) -> Result<Event, WireError> {
    let value = Json::parse(line).map_err(|e| WireError::new(e.to_string()))?;
    let kind = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new("missing \"type\""))?;
    match kind {
        "init" => {
            let neighbors = value
                .get("neighbors")
                .and_then(Json::as_array)
                .ok_or_else(|| WireError::new("missing or non-array field \"neighbors\""))?
                .iter()
                .map(|item| {
                    item.as_u64()
                        .map(|index| NodeId::new(index as usize))
                        .ok_or_else(|| WireError::new("non-integer neighbour"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Event::Init {
                node: field_node(&value, "node")?,
                node_count: field_u64(&value, "node_count")? as usize,
                neighbors,
                seed: field_u64(&value, "seed")?,
            })
        }
        "start" => Ok(Event::Start {
            at: field_u64(&value, "at")?,
            tx_id: field_u64(&value, "tx_id")?,
        }),
        "deliver" => {
            let message = value
                .get("message")
                .ok_or_else(|| WireError::new("missing field \"message\""))?;
            Ok(Event::Deliver {
                at: field_u64(&value, "at")?,
                from: field_node(&value, "from")?,
                message: FloodMessage {
                    tx_id: field_u64(message, "tx_id")?,
                },
            })
        }
        "tick" => Ok(Event::Tick {
            at: field_u64(&value, "at")?,
            tag: field_u64(&value, "tag")?,
        }),
        "shutdown" => Ok(Event::Shutdown),
        other => Err(WireError::new(format!("unknown event type {other:?}"))),
    }
}

/// The `init_ok` acknowledgement line.
pub fn init_ok_line(node: NodeId) -> String {
    Json::obj([
        ("type", Json::from("init_ok")),
        ("node", Json::from(node.index())),
    ])
    .to_compact_string()
}

/// A `send` output line.
pub fn send_line(to: NodeId, message: &FloodMessage) -> String {
    Json::obj([
        ("type", Json::from("send")),
        ("to", Json::from(to.index())),
        ("message", Json::obj([("tx_id", Json::from(message.tx_id))])),
    ])
    .to_compact_string()
}

/// A `delivered` output line.
pub fn delivered_line(at: SimTime) -> String {
    Json::obj([("type", Json::from("delivered")), ("at", Json::from(at))]).to_compact_string()
}

/// A `timer` request line (`at` is the absolute fire time).
pub fn timer_line(at: SimTime, tag: u64) -> String {
    Json::obj([
        ("type", Json::from("timer")),
        ("at", Json::from(at)),
        ("tag", Json::from(tag)),
    ])
    .to_compact_string()
}

/// A `counter` metrics line.
pub fn counter_line(name: &str, amount: u64) -> String {
    Json::obj([
        ("type", Json::from("counter")),
        ("name", Json::from(name)),
        ("amount", Json::from(amount)),
    ])
    .to_compact_string()
}

/// The `done` shutdown acknowledgement line.
pub fn done_line(node: NodeId, delivered: bool) -> String {
    Json::obj([
        ("type", Json::from("done")),
        ("node", Json::from(node.index())),
        ("delivered", Json::from(delivered)),
    ])
    .to_compact_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_event_type() {
        assert_eq!(
            parse_event(r#"{"type":"init","node":2,"node_count":5,"neighbors":[1,3],"seed":7}"#)
                .unwrap(),
            Event::Init {
                node: NodeId::new(2),
                node_count: 5,
                neighbors: vec![NodeId::new(1), NodeId::new(3)],
                seed: 7,
            }
        );
        assert_eq!(
            parse_event(r#"{"type":"start","at":0,"tx_id":9}"#).unwrap(),
            Event::Start { at: 0, tx_id: 9 }
        );
        assert_eq!(
            parse_event(r#"{"type":"deliver","at":4,"from":1,"message":{"tx_id":9}}"#).unwrap(),
            Event::Deliver {
                at: 4,
                from: NodeId::new(1),
                message: FloodMessage { tx_id: 9 },
            }
        );
        assert_eq!(
            parse_event(r#"{"type":"tick","at":8,"tag":1}"#).unwrap(),
            Event::Tick { at: 8, tag: 1 }
        );
        assert_eq!(
            parse_event(r#"{"type":"shutdown"}"#).unwrap(),
            Event::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "not json",
            r#"{"no_type":1}"#,
            r#"{"type":"warp"}"#,
            r#"{"type":"start","at":0}"#,
            r#"{"type":"start","at":"soon","tx_id":1}"#,
            r#"{"type":"deliver","at":0,"from":1}"#,
            r#"{"type":"init","node":0,"node_count":2,"neighbors":1,"seed":0}"#,
            r#"{"type":"init","node":0,"node_count":2,"neighbors":["x"],"seed":0}"#,
        ] {
            let err = parse_event(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deeply_nested_line_is_an_error_not_an_abort() {
        assert!(parse_event(&"[".repeat(300_000)).is_err());
    }

    #[test]
    fn output_lines_are_single_line_json() {
        for line in [
            init_ok_line(NodeId::new(3)),
            send_line(NodeId::new(1), &FloodMessage { tx_id: 2 }),
            delivered_line(5),
            timer_line(9, 1),
            counter_line("flood-dups", 1),
            done_line(NodeId::new(0), true),
        ] {
            assert!(!line.contains('\n'));
            Json::parse(&line).unwrap();
        }
        assert_eq!(
            send_line(NodeId::new(1), &FloodMessage { tx_id: 2 }),
            r#"{"type":"send","to":1,"message":{"tx_id":2}}"#
        );
    }
}
