//! The `harpd` request/response frames.
//!
//! Every frame is a JSON object with a `"type"` discriminant. Requests flow
//! client → daemon; the daemon answers each request with exactly one frame,
//! except `watch`, which streams `snapshot` frames followed by one terminal
//! `result` or `job` frame. The full protocol and job lifecycle are
//! documented in ROADMAP.md; frames embed the checkpoint-layer codecs
//! ([`harp_sim::checkpoint::encode_config`] /
//! [`harp_sim::checkpoint::encode_sweep`]), so a result frame carries the
//! same bytes a single-process sweep would persist.

use harp_profiler::ProfilerKind;
use harp_sim::checkpoint::{decode_config, decode_profilers, encode_config, encode_profilers};
use harp_sim::minijson::Json;
use harp_sim::EvaluationConfig;

/// Version of the wire protocol. Bump on any incompatible frame change;
/// the daemon rejects mismatched `hello` frames instead of misreading them.
pub const PROTOCOL_VERSION: u64 = 1;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a sweep job; answered with a `submitted` frame carrying the
    /// job id once the job is durably on disk.
    Submit {
        /// The sweep configuration to evaluate.
        config: EvaluationConfig,
        /// Profiler lineup, in evaluation order.
        profilers: Vec<ProfilerKind>,
    },
    /// One `job` status frame for the given job.
    Status {
        /// Job id from a `submitted` frame.
        job: u64,
    },
    /// A `jobs` frame listing every job the daemon knows.
    List,
    /// Stream `snapshot` frames for the job from round 0, then the terminal
    /// `result` (completed) or `job` (cancelled/failed) frame.
    Watch {
        /// Job id from a `submitted` frame.
        job: u64,
    },
    /// Request cancellation; answered with a `job` frame.
    Cancel {
        /// Job id from a `submitted` frame.
        job: u64,
    },
    /// Checkpoint running jobs and stop the daemon; answered with an `ok`
    /// frame before the daemon winds down.
    Shutdown,
}

/// Encodes a request frame.
pub fn encode_request(request: &Request) -> Json {
    let typed = |name: &str, mut rest: Vec<(String, Json)>| {
        let mut entries = vec![("type".to_owned(), Json::Str(name.to_owned()))];
        entries.append(&mut rest);
        Json::Object(entries)
    };
    match request {
        Request::Submit { config, profilers } => typed(
            "submit",
            vec![
                ("config".to_owned(), encode_config(config)),
                ("profilers".to_owned(), encode_profilers(profilers)),
            ],
        ),
        Request::Status { job } => typed("status", vec![("job".to_owned(), Json::from_u64(*job))]),
        Request::List => typed("list", vec![]),
        Request::Watch { job } => typed("watch", vec![("job".to_owned(), Json::from_u64(*job))]),
        Request::Cancel { job } => typed("cancel", vec![("job".to_owned(), Json::from_u64(*job))]),
        Request::Shutdown => typed("shutdown", vec![]),
    }
}

/// Decodes a request frame from untrusted bytes.
///
/// # Errors
///
/// Returns a user-facing description of the first problem: unknown type,
/// missing field, an unusable embedded configuration, or an empty or
/// unknown profiler lineup.
pub fn decode_request(frame: &Json) -> Result<Request, String> {
    let kind = frame
        .get("type")
        .and_then(Json::as_str)
        .ok_or("request has no 'type'")?;
    let job = || {
        frame
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("'{kind}' request has no numeric 'job'"))
    };
    match kind {
        "submit" => {
            let config = decode_config(
                frame
                    .get("config")
                    .ok_or("submit request has no 'config'")?,
            )?;
            let profilers = decode_profilers(
                frame
                    .get("profilers")
                    .ok_or("submit request has no 'profilers'")?,
            )?;
            if profilers.is_empty() {
                return Err("profiler lineup is empty".to_owned());
            }
            Ok(Request::Submit { config, profilers })
        }
        "status" => Ok(Request::Status { job: job()? }),
        "list" => Ok(Request::List),
        "watch" => Ok(Request::Watch { job: job()? }),
        "cancel" => Ok(Request::Cancel { job: job()? }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request type '{other}'")),
    }
}

/// Builds an `error` response frame.
pub fn error_frame(message: &str) -> Json {
    Json::Object(vec![
        ("type".to_owned(), Json::Str("error".to_owned())),
        ("message".to_owned(), Json::Str(message.to_owned())),
    ])
}

/// Builds an `ok` acknowledgement frame.
pub fn ok_frame() -> Json {
    Json::Object(vec![("type".to_owned(), Json::Str("ok".to_owned()))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let requests = [
            Request::Submit {
                config: EvaluationConfig::smoke(),
                profilers: vec![ProfilerKind::HarpU, ProfilerKind::Naive],
            },
            Request::Status { job: 7 },
            Request::List,
            Request::Watch { job: 0 },
            Request::Cancel { job: 3 },
            Request::Shutdown,
        ];
        for request in requests {
            let rendered = encode_request(&request).render();
            let reparsed = Json::parse(&rendered).unwrap();
            assert_eq!(decode_request(&reparsed).unwrap(), request, "{rendered}");
        }
    }

    #[test]
    fn malformed_requests_are_described_not_panicked_on() {
        for (text, needle) in [
            (r#"{"job":1}"#, "no 'type'"),
            (r#"{"type":"frobnicate"}"#, "unknown request type"),
            (r#"{"type":"watch"}"#, "no numeric 'job'"),
            (r#"{"type":"submit"}"#, "no 'config'"),
            (r#"{"type":"cancel","job":"x"}"#, "no numeric 'job'"),
        ] {
            let err = decode_request(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn submit_rejects_unusable_configs_and_lineups() {
        let mut bad_config = EvaluationConfig::smoke();
        bad_config.rounds = 0;
        let frame = encode_request(&Request::Submit {
            config: bad_config,
            profilers: vec![ProfilerKind::HarpU],
        });
        assert!(decode_request(&frame).unwrap_err().contains("rounds"));

        let frame = Json::parse(
            &encode_request(&Request::Submit {
                config: EvaluationConfig::smoke(),
                profilers: vec![ProfilerKind::HarpU],
            })
            .render()
            .replace("[\"HARP-U\"]", "[]"),
        )
        .unwrap();
        assert!(decode_request(&frame).unwrap_err().contains("empty"));
    }
}
