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
//!
//! The request path is allocation-free: `Cluster::handle_line` splits a
//! line into tokens borrowed from it (`RequestRef`), looks the tenant
//! up by `&str`, and parses an event's ids straight into the shard's
//! queue (`EventRef::parse_into`). Only reply `String`s, error paths and
//! buffer growth allocate. [`parse_request`] is the owned form of the
//! same parse, for callers that keep a [`Request`].

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

/// One protocol line, borrowed from it: what `Cluster::handle_line`
/// dispatches on. An event stays text until it is parsed into its
/// tenant's queue.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RequestRef<'a> {
    /// `<tenant> <event>`, the event not yet parsed.
    Event {
        /// Target tenant.
        tenant: &'a str,
        /// The event's wire form.
        event: &'a str,
    },
    /// `query <tenant> <kind>`.
    Query {
        /// Target tenant.
        tenant: &'a str,
        /// What to read.
        query: Query,
    },
    /// `tick`.
    Tick,
}

/// Parse one line without allocating, except for an error message.
/// `Ok(None)` for blank lines and `#` comments. An event's syntax is
/// checked by whoever parses its text.
pub(crate) fn parse_line(line: &str) -> Result<Option<RequestRef<'_>>, String> {
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
                Ok(Some(RequestRef::Tick))
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
            let query = parse_query(words.next().unwrap_or("").trim())?;
            Ok(Some(RequestRef::Query { tenant, query }))
        }
        tenant => {
            if rest.is_empty() {
                return Err(format!(
                    "expected '<tenant> <event>', 'query ...' or 'tick', got \
                     bare '{tenant}'"
                ));
            }
            Ok(Some(RequestRef::Event {
                tenant,
                event: rest,
            }))
        }
    }
}

/// Parse one line into an owned [`Request`]. `Ok(None)` for blank lines
/// and `#` comments.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let request = match parse_line(line)? {
        None => return Ok(None),
        Some(RequestRef::Event { tenant, event }) => Request::Event {
            tenant: tenant.to_string(),
            event: event.parse()?,
        },
        Some(RequestRef::Query { tenant, query }) => Request::Query {
            tenant: tenant.to_string(),
            query,
        },
        Some(RequestRef::Tick) => Request::Tick,
    };
    Ok(Some(request))
}

fn parse_query(q: &str) -> Result<Query, String> {
    let mut words = q.split_whitespace();
    let kind = words.next().unwrap_or_default();
    // The first argument, and whether there are more.
    let (arg, more) = (words.next(), words.next().is_some());
    match (kind, arg, more) {
        ("components", None, _) => Ok(Query::Components),
        ("gprime-edges", None, _) => Ok(Query::GprimeEdges),
        ("stats", None, _) => Ok(Query::Stats),
        ("degree", Some(id), false) => id
            .parse::<u32>()
            .map(|v| Query::Degree(NodeId(v)))
            .map_err(|_| format!("invalid node id '{id}'")),
        ("degree", _, _) => Err("'degree' takes exactly one node id".to_string()),
        ("", _, _) => Err("'query' needs a query kind".to_string()),
        (other, _, _) => Err(format!(
            "unknown query '{other}' (expected components, degree, \
             gprime-edges, or stats)"
        )),
    }
}

/// Append a query's answer to `out`: the reply without its epoch
/// prefix, which [`Cluster::query`](crate::Cluster::query) writes first.
pub(crate) fn answer_body(query: Query, snap: &ShardSnapshot, out: &mut String) {
    match query {
        Query::Components => {
            let _ = write!(out, "components {}:", snap.state.components.len());
            for (id, size) in snap.state.components.iter() {
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
}
