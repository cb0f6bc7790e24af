//! Frame-level encoders/decoders: the [`RpcRequest`]/[`RpcResponse`]
//! envelopes, including the optional trace context, deadline budget +
//! priority, and degraded opt-in fields.
//!
//! Field numbering is local to each message; envelope field 1 is the
//! message kind discriminator.
// wire-schema: registry

use ips_codec::wire::{WireReader, WireWriter};
use ips_core::query::{ProfileQuery, QueryResult};
use ips_trace::{SpanContext, SpanId, TraceId};
use ips_types::{
    ActionTypeId, CallerId, CountVector, Deadline, DurationMs, FeatureId, IpsError, Priority,
    ProfileId, Result, SlotId, TableId, Timestamp,
};

use super::codec::{
    decode_error, decode_profile_write, decode_query, decode_query_result, decode_snapshot_ack,
    decode_snapshot_chunk, encode_error, encode_profile_write, encode_query, encode_query_result,
    encode_snapshot_ack, encode_snapshot_chunk, put_count_vector, SnapshotChunkParts,
};
use super::{CallOptions, RequestEnvelope, RpcRequest, RpcResponse};

const REQ_ADD: u64 = 1;
const REQ_QUERY: u64 = 2;
const REQ_QUERY_BATCH: u64 = 3;
const REQ_ADD_BATCH: u64 = 4;
const REQ_SNAPSHOT_CHUNK: u64 = 5;
const RESP_OK: u64 = 1;
const RESP_QUERY: u64 = 2;
const RESP_QUERY_BATCH: u64 = 3;
const RESP_SNAPSHOT_ACK: u64 = 4;

/// Envelope field carrying the optional [`SpanContext`] on both requests
/// and responses. Decoders that predate tracing skip it as an unknown
/// field, so traced and untraced peers interoperate.
const TRACE_CTX_FIELD: u32 = 15;

/// Envelope field carrying the optional remaining [`Deadline`] budget
/// (sub-field 1) and non-default [`Priority`] (sub-field 2) on requests.
/// Like the trace context: absent means unbounded/normal, old decoders skip
/// it, and frames without either are byte-identical to pre-deadline
/// encoders.
const DEADLINE_FIELD: u32 = 16;

/// Envelope field carrying the optional degraded-serving opt-in (the
/// caller's staleness tolerance, milliseconds) on requests.
const DEGRADED_FIELD: u32 = 17;

fn put_call_options(w: &mut WireWriter, opts: &CallOptions) {
    // One sub-message carries both scheduling options; it is written only
    // when at least one departs from the default, so default-option frames
    // stay byte-identical to options-unaware encoders.
    if opts.deadline.is_some() || opts.priority != Priority::Normal {
        w.put_message(DEADLINE_FIELD, |dw| {
            if let Some(deadline) = opts.deadline {
                dw.put_u64(1, deadline.budget_us());
            }
            if opts.priority != Priority::Normal {
                dw.put_u64(2, opts.priority.code());
            }
        });
    }
    if let Some(staleness) = opts.degraded {
        w.put_message(DEGRADED_FIELD, |gw| {
            gw.put_u64(1, staleness.as_millis());
        });
    }
}

/// Decode the [`DEADLINE_FIELD`] sub-message: the deadline budget rides
/// sub-field 1 (absent means unbounded — a priority-only envelope carries
/// no budget), the priority code sub-field 2 (absent decodes to `Normal`).
fn decode_deadline_opts(bytes: &[u8]) -> Result<(Option<u64>, Priority)> {
    let mut budget: Option<u64> = None;
    let mut priority = Priority::Normal;
    WireReader::new(bytes)
        .for_each(|f, v| {
            if f == 1 {
                budget = Some(v.as_u64(f)?);
            } else if f == 2 {
                priority = Priority::from_code(v.as_u64(f)?);
            }
            Ok(())
        })
        .map_err(|e| IpsError::Codec(e.to_string()))?;
    Ok((budget, priority))
}

fn decode_sub_u64(bytes: &[u8]) -> Result<u64> {
    let mut value = 0u64;
    WireReader::new(bytes)
        .for_each(|f, v| {
            if f == 1 {
                value = v.as_u64(f)?;
            }
            Ok(())
        })
        .map_err(|e| IpsError::Codec(e.to_string()))?;
    Ok(value)
}

fn put_span_context(w: &mut WireWriter, ctx: &SpanContext) {
    w.put_message(TRACE_CTX_FIELD, |tw| {
        tw.put_fixed64(1, ctx.trace.0);
        tw.put_fixed64(2, ctx.span.0);
        tw.put_bool(3, ctx.sampled);
    });
}

fn decode_span_context(bytes: &[u8]) -> Result<SpanContext> {
    let (mut trace, mut span, mut sampled) = (0u64, 0u64, false);
    WireReader::new(bytes)
        .for_each(|f, v| {
            match f {
                1 => trace = v.as_u64(f)?,
                2 => span = v.as_u64(f)?,
                3 => sampled = v.as_bool(f)?,
                _ => {}
            }
            Ok(())
        })
        .map_err(|e| IpsError::Codec(e.to_string()))?;
    Ok(SpanContext {
        trace: TraceId(trace),
        span: SpanId(span),
        sampled,
    })
}

impl RpcRequest {
    /// Serialize for transport with the full envelope: span context plus
    /// per-call options (deadline budget, priority, degraded opt-in). Each
    /// optional field is written only when present or non-default.
    #[must_use]
    pub fn encode_with(&self, trace: Option<&SpanContext>, opts: &CallOptions) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(256);
        match self {
            RpcRequest::Add {
                caller,
                table,
                profile,
                at,
                slot,
                action,
                features,
            } => {
                w.put_u64(1, REQ_ADD);
                w.put_u64(2, u64::from(caller.raw()));
                w.put_u64(3, u64::from(table.raw()));
                w.put_u64(4, profile.raw());
                w.put_fixed64(5, at.as_millis());
                w.put_u64(6, u64::from(slot.raw()));
                w.put_u64(7, u64::from(action.raw()));
                for (fid, counts) in features {
                    w.put_message(8, |fw| {
                        fw.put_u64(1, fid.raw());
                        put_count_vector(fw, 2, counts);
                    });
                }
            }
            RpcRequest::Query { caller, query } => {
                w.put_u64(1, REQ_QUERY);
                w.put_u64(2, u64::from(caller.raw()));
                w.put_message(9, |qw| encode_query(qw, query));
            }
            RpcRequest::QueryBatch { caller, queries } => {
                w.put_u64(1, REQ_QUERY_BATCH);
                w.put_u64(2, u64::from(caller.raw()));
                for query in queries {
                    w.put_message(10, |qw| encode_query(qw, query));
                }
            }
            RpcRequest::AddBatch { caller, writes } => {
                w.put_u64(1, REQ_ADD_BATCH);
                w.put_u64(2, u64::from(caller.raw()));
                for write in writes {
                    w.put_message(11, |ww| encode_profile_write(ww, write));
                }
            }
            RpcRequest::SnapshotChunk {
                table,
                handoff,
                seq,
                last,
                entries,
            } => {
                w.put_u64(1, REQ_SNAPSHOT_CHUNK);
                // Fields 12–14 stay reserved for future query extensions;
                // the chunk rides a fresh envelope tag past the options.
                w.put_message(18, |cw| {
                    encode_snapshot_chunk(cw, *table, *handoff, *seq, *last, entries);
                });
            }
        }
        if let Some(ctx) = trace {
            put_span_context(&mut w, ctx);
        }
        put_call_options(&mut w, opts);
        // lint: allow(encode-alloc, reason = "top-level entry point; the transport owns the returned frame")
        w.into_bytes()
    }

    /// Deserialize from transport bytes along with the full optional
    /// envelope (trace context, deadline budget, priority, degraded
    /// opt-in).
    pub fn decode_envelope(bytes: &[u8]) -> Result<(Self, RequestEnvelope)> {
        let mut kind = 0u64;
        let mut caller = 0u64;
        let mut table = 0u64;
        let mut profile = 0u64;
        let mut at = 0u64;
        let mut slot = 0u64;
        let mut action = 0u64;
        let mut features: Vec<(FeatureId, CountVector)> = Vec::new();
        let mut query: Option<ProfileQuery> = None;
        let mut queries: Vec<ProfileQuery> = Vec::new();
        let mut writes: Vec<super::ProfileWrite> = Vec::new();
        let mut chunk: Option<SnapshotChunkParts> = None;
        let mut envelope = RequestEnvelope::default();

        WireReader::new(bytes)
            .for_each(|f, v| {
                match f {
                    1 => kind = v.as_u64(f)?,
                    2 => caller = v.as_u64(f)?,
                    3 => table = v.as_u64(f)?,
                    4 => profile = v.as_u64(f)?,
                    5 => at = v.as_u64(f)?,
                    6 => slot = v.as_u64(f)?,
                    7 => action = v.as_u64(f)?,
                    8 => {
                        let mut fid = 0u64;
                        let mut counts = CountVector::empty();
                        WireReader::new(v.as_bytes(f)?).for_each(|ff, fv| {
                            match ff {
                                1 => fid = fv.as_u64(ff)?,
                                2 => counts = CountVector::from_slice(&fv.as_packed_i64(ff)?),
                                _ => {}
                            }
                            Ok(())
                        })?;
                        features.push((FeatureId::new(fid), counts));
                    }
                    9 => {
                        query = Some(
                            decode_query(v.as_bytes(f)?)
                                .map_err(|_| ips_codec::wire::WireError::MissingField(f))?,
                        );
                    }
                    10 => {
                        queries.push(
                            decode_query(v.as_bytes(f)?)
                                .map_err(|_| ips_codec::wire::WireError::MissingField(f))?,
                        );
                    }
                    11 => {
                        writes.push(
                            decode_profile_write(v.as_bytes(f)?)
                                .map_err(|_| ips_codec::wire::WireError::MissingField(f))?,
                        );
                    }
                    18 => {
                        chunk = Some(
                            decode_snapshot_chunk(v.as_bytes(f)?)
                                .map_err(|_| ips_codec::wire::WireError::MissingField(f))?,
                        );
                    }
                    TRACE_CTX_FIELD => {
                        envelope.trace = Some(
                            decode_span_context(v.as_bytes(f)?)
                                .map_err(|_| ips_codec::wire::WireError::MissingField(f))?,
                        );
                    }
                    DEADLINE_FIELD => {
                        let (budget_us, priority) = decode_deadline_opts(v.as_bytes(f)?)
                            .map_err(|_| ips_codec::wire::WireError::MissingField(f))?;
                        envelope.deadline = budget_us.map(Deadline::from_budget_us);
                        envelope.priority = priority;
                    }
                    DEGRADED_FIELD => {
                        let staleness_ms = decode_sub_u64(v.as_bytes(f)?)
                            .map_err(|_| ips_codec::wire::WireError::MissingField(f))?;
                        envelope.degraded = Some(DurationMs::from_millis(staleness_ms));
                    }
                    _ => {}
                }
                Ok(())
            })
            .map_err(|e| IpsError::Codec(e.to_string()))?;

        let request = match kind {
            REQ_ADD => RpcRequest::Add {
                caller: CallerId::new(caller as u32),
                table: TableId::new(table as u32),
                profile: ProfileId::new(profile),
                at: Timestamp::from_millis(at),
                slot: SlotId::new(slot as u32),
                action: ActionTypeId::new(action as u32),
                features,
            },
            REQ_QUERY => RpcRequest::Query {
                caller: CallerId::new(caller as u32),
                query: query.ok_or_else(|| IpsError::Codec("query missing".into()))?,
            },
            REQ_QUERY_BATCH => RpcRequest::QueryBatch {
                caller: CallerId::new(caller as u32),
                queries,
            },
            REQ_ADD_BATCH => RpcRequest::AddBatch {
                caller: CallerId::new(caller as u32),
                writes,
            },
            REQ_SNAPSHOT_CHUNK => {
                let (table, handoff, seq, last, entries) =
                    chunk.ok_or_else(|| IpsError::Codec("snapshot chunk missing".into()))?;
                RpcRequest::SnapshotChunk {
                    table,
                    handoff,
                    seq,
                    last,
                    entries,
                }
            }
            other => return Err(IpsError::Codec(format!("bad request kind {other}"))),
        };
        Ok((request, envelope))
    }
}

impl RpcResponse {
    /// Serialize for transport.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// Serialize for transport, stamping the server span's context into the
    /// envelope when one is supplied.
    #[must_use]
    pub fn encode_traced(&self, trace: Option<&SpanContext>) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(256);
        match self {
            RpcResponse::Ok => w.put_u64(1, RESP_OK),
            RpcResponse::Query(result) => {
                w.put_u64(1, RESP_QUERY);
                w.put_message(2, |rw| encode_query_result(rw, result));
            }
            RpcResponse::QueryBatch(results) => {
                w.put_u64(1, RESP_QUERY_BATCH);
                // One sub-message per sub-result, in request order: field 1
                // carries a result, field 2 an error.
                for sub in results {
                    w.put_message(3, |sw| match sub {
                        Ok(result) => sw.put_message(1, |rw| encode_query_result(rw, result)),
                        Err(e) => sw.put_message(2, |ew| encode_error(ew, e)),
                    });
                }
            }
            RpcResponse::SnapshotAck(ack) => {
                w.put_u64(1, RESP_SNAPSHOT_ACK);
                w.put_message(4, |aw| encode_snapshot_ack(aw, ack));
            }
        }
        if let Some(ctx) = trace {
            put_span_context(&mut w, ctx);
        }
        // lint: allow(encode-alloc, reason = "top-level entry point; the transport owns the returned frame")
        w.into_bytes()
    }

    /// Deserialize from transport bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Self::decode_traced(bytes).map(|(resp, _)| resp)
    }

    /// Deserialize from transport bytes, surfacing the server's span
    /// context if the envelope carries one.
    pub fn decode_traced(bytes: &[u8]) -> Result<(Self, Option<SpanContext>)> {
        let mut kind = 0u64;
        let mut result: Option<QueryResult> = None;
        let mut batch: Vec<Result<QueryResult>> = Vec::new();
        let mut ack: Option<super::SnapshotAck> = None;
        let mut trace_ctx: Option<SpanContext> = None;
        WireReader::new(bytes)
            .for_each(|f, v| {
                match f {
                    1 => kind = v.as_u64(f)?,
                    2 => {
                        result = Some(
                            decode_query_result(v.as_bytes(f)?)
                                .map_err(|_| ips_codec::wire::WireError::MissingField(f))?,
                        );
                    }
                    3 => {
                        let mut sub: Option<Result<QueryResult>> = None;
                        WireReader::new(v.as_bytes(f)?).for_each(|sf, sv| {
                            match sf {
                                1 => {
                                    sub = Some(Ok(decode_query_result(sv.as_bytes(sf)?).map_err(
                                        |_| ips_codec::wire::WireError::MissingField(sf),
                                    )?));
                                }
                                2 => {
                                    sub = Some(Err(decode_error(sv.as_bytes(sf)?).map_err(
                                        |_| ips_codec::wire::WireError::MissingField(sf),
                                    )?));
                                }
                                _ => {}
                            }
                            Ok(())
                        })?;
                        batch.push(sub.ok_or(ips_codec::wire::WireError::MissingField(f))?);
                    }
                    4 => {
                        ack = Some(
                            decode_snapshot_ack(v.as_bytes(f)?)
                                .map_err(|_| ips_codec::wire::WireError::MissingField(f))?,
                        );
                    }
                    TRACE_CTX_FIELD => {
                        trace_ctx = Some(
                            decode_span_context(v.as_bytes(f)?)
                                .map_err(|_| ips_codec::wire::WireError::MissingField(f))?,
                        );
                    }
                    _ => {}
                }
                Ok(())
            })
            .map_err(|e| IpsError::Codec(e.to_string()))?;
        let response = match kind {
            RESP_OK => RpcResponse::Ok,
            RESP_QUERY => RpcResponse::Query(result.unwrap_or_default()),
            RESP_QUERY_BATCH => RpcResponse::QueryBatch(batch),
            RESP_SNAPSHOT_ACK => RpcResponse::SnapshotAck(ack.unwrap_or_default()),
            other => return Err(IpsError::Codec(format!("bad response kind {other}"))),
        };
        Ok((response, trace_ctx))
    }
}
