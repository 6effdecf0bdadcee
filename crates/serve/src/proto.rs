//! The line protocol: hand-rolled parse/format in the same style as
//! `core::spec`, one request per line.
//!
//! ```text
//! <tenant> <event>            # e.g.  alpha delete 5
//!                             #       alpha delete-batch 1 2 3
//!                             #       alpha join 4 5   (bare `join` = isolated node)
//! query <tenant> components
//! query <tenant> degree <id>
//! query <tenant> gprime-edges
//! query <tenant> stats
//! tick                        # apply queued events, publish snapshots
//! ```
//!
//! Blank lines and `#` comments are ignored. The event wire form is
//! `NetworkEvent`'s `Display`/`FromStr` pair (defined in `core`), so
//! `parse` and `Display` here round-trip exactly — pinned by the
//! proptests in `tests/serve.rs`. Tenant names therefore must not be
//! the keywords `query` or `tick`; spec-file stems never are.
//!
//! Every parse error is a complete sentence naming the offending token
//! — the serving loop reports it to the client verbatim and carries on.

use crate::shard::ShardSnapshot;
use selfheal_core::scenario::NetworkEvent;
use selfheal_graph::NodeId;
use std::fmt;
use std::fmt::Write as _;

/// A read-only query against one tenant's published snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Broadcast component IDs with member counts.
    Components,
    /// One node's degree in the healed graph `G'`.
    Degree(NodeId),
    /// Edge count of `G'`.
    GprimeEdges,
    /// The per-tenant aggregate counters.
    Stats,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Components => f.write_str("components"),
            Query::Degree(v) => write!(f, "degree {}", v.0),
            Query::GprimeEdges => f.write_str("gprime-edges"),
            Query::Stats => f.write_str("stats"),
        }
    }
}

/// One parsed protocol line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Enqueue an event for a tenant's shard.
    Event {
        /// Target tenant.
        tenant: String,
        /// The event, in `NetworkEvent` wire form.
        event: NetworkEvent,
    },
    /// Read a tenant's published snapshot.
    Query {
        /// Target tenant.
        tenant: String,
        /// What to read.
        query: Query,
    },
    /// Apply every queued event and publish fresh snapshots.
    Tick,
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Event { tenant, event } => write!(f, "{tenant} {event}"),
            Request::Query { tenant, query } => write!(f, "query {tenant} {query}"),
            Request::Tick => f.write_str("tick"),
        }
    }
}

/// Parse one line. `Ok(None)` for blank lines and `#` comments.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut words = line.splitn(2, char::is_whitespace);
    let head = words.next().unwrap_or_default();
    let rest = words.next().unwrap_or("").trim();
    match head {
        "tick" => {
            if rest.is_empty() {
                Ok(Some(Request::Tick))
            } else {
                Err(format!("'tick' takes no arguments, got '{rest}'"))
            }
        }
        "query" => {
            let mut words = rest.splitn(2, char::is_whitespace);
            let tenant = words.next().unwrap_or_default();
            if tenant.is_empty() {
                return Err("'query' needs a tenant and a query kind".to_string());
            }
            let q = words.next().unwrap_or("").trim();
            let query = parse_query(q)?;
            Ok(Some(Request::Query {
                tenant: tenant.to_string(),
                query,
            }))
        }
        tenant => {
            if rest.is_empty() {
                return Err(format!(
                    "expected '<tenant> <event>', 'query ...' or 'tick', got \
                     bare '{tenant}'"
                ));
            }
            let event: NetworkEvent = rest.parse()?;
            Ok(Some(Request::Event {
                tenant: tenant.to_string(),
                event,
            }))
        }
    }
}

fn parse_query(q: &str) -> Result<Query, String> {
    let mut words = q.split_whitespace();
    let kind = words.next().unwrap_or_default();
    let args: Vec<&str> = words.collect();
    match (kind, args.as_slice()) {
        ("components", []) => Ok(Query::Components),
        ("gprime-edges", []) => Ok(Query::GprimeEdges),
        ("stats", []) => Ok(Query::Stats),
        ("degree", [id]) => id
            .parse::<u32>()
            .map(|v| Query::Degree(NodeId(v)))
            .map_err(|_| format!("invalid node id '{id}'")),
        ("degree", _) => Err("'degree' takes exactly one node id".to_string()),
        ("", _) => Err("'query' needs a query kind".to_string()),
        (other, _) => Err(format!(
            "unknown query '{other}' (expected components, degree, \
             gprime-edges, or stats)"
        )),
    }
}

/// Render a query's answer from a published snapshot, tagged with the
/// epoch it was read at (so clients can tell how fresh the data is).
#[must_use]
pub fn answer(query: Query, epoch: usize, snap: &ShardSnapshot) -> String {
    format!("epoch {epoch} {}", answer_body(query, snap))
}

/// The answer text without the epoch prefix — what a snapshot read
/// closure renders; the read returns the epoch alongside it.
#[must_use]
pub fn answer_body(query: Query, snap: &ShardSnapshot) -> String {
    let mut out = String::new();
    match query {
        Query::Components => {
            let _ = write!(out, "components {}:", snap.state.components.len());
            for &(id, size) in &snap.state.components {
                let _ = write!(out, " {id}:{size}");
            }
        }
        Query::Degree(v) => match snap.state.degree_of(v) {
            Some(d) => {
                let _ = write!(out, "degree {} {d}", v.0);
            }
            None => {
                let _ = write!(
                    out,
                    "degree {} unknown (node id out of range, {} slots)",
                    v.0,
                    snap.state.degrees.len()
                );
            }
        },
        Query::GprimeEdges => {
            let _ = write!(out, "gprime-edges {}", snap.state.gprime_edges);
        }
        Query::Stats => {
            let s = &snap.stats;
            let _ = write!(
                out,
                "stats events {} skipped {} deletions {} joins {} live {} \
                 max-delta {} messages {} healing-edges {} violations {} \
                 pending {}",
                s.events,
                s.skipped,
                s.deletions,
                s.joins,
                snap.state.live_count(),
                s.max_delta,
                s.messages,
                s.edges_added,
                snap.violations,
                snap.pending
            );
        }
    }
    out
}
