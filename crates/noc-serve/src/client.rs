//! Blocking client for the `rlnoc-wire v1` campaign service.
//!
//! One [`Client`] owns one TCP connection; requests are strictly
//! sequential (write a frame, read the reply), which matches the
//! server's per-connection request loop. `watch` is the only
//! multi-frame exchange: it streams `event` frames into a callback
//! until the terminal `watch-done`.

use crate::wire::{payload_field, read_frame, write_frame, Frame, FrameType, WireError};
use std::fmt;
use std::io::{self, BufReader};
use std::net::TcpStream;

/// Errors a client call can surface.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The byte stream violated `rlnoc-wire v1` framing.
    Wire(String),
    /// The server answered with an `error` frame.
    Server(String),
    /// The server answered with an unexpected frame type or payload.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Wire(m) => write!(f, "wire protocol error: {m}"),
            Self::Server(m) => write!(f, "server error: {m}"),
            Self::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Closed => Self::Wire("connection closed mid-exchange".to_string()),
            WireError::Io(io) => Self::Io(io),
            WireError::Malformed(m) => Self::Wire(m),
        }
    }
}

/// Acknowledgement of a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitAck {
    /// Assigned campaign id (`c-<fingerprint:016x>`).
    pub campaign: String,
    /// Total tasks in the campaign grid.
    pub tasks: usize,
    /// Tasks already completed (from checkpoint restore / dedup).
    pub completed: usize,
    /// State right after registration.
    pub state: String,
}

/// Reply to a status query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusReply {
    /// Lifecycle state token (`queued`/`running`/`done`/`cancelled`/
    /// `failed`).
    pub state: String,
    /// Tasks with checkpointed reports.
    pub completed: usize,
    /// Total tasks.
    pub total: usize,
}

/// A connected service client.
#[derive(Debug)]
pub struct Client {
    /// Replies are read through one buffer that lives across frames;
    /// requests are written to the socket underneath it.
    stream: BufReader<TcpStream>,
}

fn need<'a>(text: &'a str, key: &str) -> Result<&'a str, ClientError> {
    payload_field(text, key)
        .ok_or_else(|| ClientError::Protocol(format!("reply is missing `{key}`")))
}

fn need_usize(text: &str, key: &str) -> Result<usize, ClientError> {
    need(text, key)?
        .parse()
        .map_err(|_| ClientError::Protocol(format!("`{key}` is not a number")))
}

impl Client {
    /// Connects to a server address (`host:port`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Each request is one whole frame; Nagle would only delay it.
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: BufReader::new(stream),
        })
    }

    /// One request/reply exchange, mapping `error` frames to
    /// [`ClientError::Server`].
    fn request(&mut self, frame: &Frame, expect: FrameType) -> Result<String, ClientError> {
        write_frame(self.stream.get_mut(), frame)?;
        self.read_reply(expect)
    }

    fn read_reply(&mut self, expect: FrameType) -> Result<String, ClientError> {
        let reply = read_frame(&mut self.stream)?;
        let text = reply
            .payload_text()
            .map_err(|_| ClientError::Protocol("reply payload is not UTF-8".to_string()))?
            .to_string();
        if reply.kind == FrameType::Error {
            return Err(ClientError::Server(
                payload_field(&text, "message")
                    .unwrap_or("unspecified server error")
                    .to_string(),
            ));
        }
        if reply.kind != expect {
            return Err(ClientError::Protocol(format!(
                "expected {} reply, got {}",
                expect.token(),
                reply.kind.token()
            )));
        }
        Ok(text)
    }

    /// Submits an `rlnoc-spec v1` document for `tenant` at `priority`.
    ///
    /// # Errors
    ///
    /// Fails if the spec is rejected or the exchange breaks.
    pub fn submit(
        &mut self,
        tenant: &str,
        priority: u32,
        spec_text: &str,
    ) -> Result<SubmitAck, ClientError> {
        let body = format!("tenant={tenant}\npriority={priority}\nspec\n{spec_text}");
        let text = self.request(&Frame::text(FrameType::Submit, &body), FrameType::SubmitOk)?;
        Ok(SubmitAck {
            campaign: need(&text, "campaign")?.to_string(),
            tasks: need_usize(&text, "tasks")?,
            completed: need_usize(&text, "completed")?,
            state: need(&text, "state")?.to_string(),
        })
    }

    /// Queries one campaign's progress.
    ///
    /// # Errors
    ///
    /// Fails for unknown campaigns or broken exchanges.
    pub fn status(&mut self, tenant: &str, campaign: &str) -> Result<StatusReply, ClientError> {
        let body = format!("tenant={tenant}\ncampaign={campaign}\n");
        let text = self.request(&Frame::text(FrameType::Status, &body), FrameType::StatusOk)?;
        Ok(StatusReply {
            state: need(&text, "state")?.to_string(),
            completed: need_usize(&text, "completed")?,
            total: need_usize(&text, "total")?,
        })
    }

    /// Subscribes to a campaign's telemetry stream. `on_event` receives
    /// each JSONL line; the call returns the campaign's final state
    /// token once the server sends `watch-done` (immediately, for a
    /// campaign that is already final).
    ///
    /// # Errors
    ///
    /// Fails for unknown campaigns or broken exchanges.
    pub fn watch(
        &mut self,
        tenant: &str,
        campaign: &str,
        on_event: &mut dyn FnMut(&str),
    ) -> Result<String, ClientError> {
        let body = format!("tenant={tenant}\ncampaign={campaign}\n");
        write_frame(self.stream.get_mut(), &Frame::text(FrameType::Watch, &body))?;
        loop {
            let reply = read_frame(&mut self.stream)?;
            let text = reply
                .payload_text()
                .map_err(|_| ClientError::Protocol("event payload is not UTF-8".to_string()))?
                .to_string();
            match reply.kind {
                FrameType::Event => on_event(&text),
                FrameType::WatchDone => return Ok(need(&text, "state")?.to_string()),
                FrameType::Error => {
                    return Err(ClientError::Server(
                        payload_field(&text, "message")
                            .unwrap_or("unspecified server error")
                            .to_string(),
                    ))
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected {} frame in watch stream",
                        other.token()
                    )))
                }
            }
        }
    }

    /// Fetches the canonical result text of a `done` campaign
    /// (see [`crate::server::render_result_text`] for the format).
    ///
    /// # Errors
    ///
    /// Fails when the campaign is not done or the exchange breaks.
    pub fn result(&mut self, tenant: &str, campaign: &str) -> Result<String, ClientError> {
        let body = format!("tenant={tenant}\ncampaign={campaign}\n");
        self.request(&Frame::text(FrameType::Result, &body), FrameType::ResultOk)
    }

    /// Cancels a campaign; returns its resulting state token (`done`,
    /// `cancelled` and `failed` campaigns are left as-is).
    ///
    /// # Errors
    ///
    /// Fails for unknown campaigns or broken exchanges.
    pub fn cancel(&mut self, tenant: &str, campaign: &str) -> Result<String, ClientError> {
        let body = format!("tenant={tenant}\ncampaign={campaign}\n");
        let text = self.request(&Frame::text(FrameType::Cancel, &body), FrameType::CancelOk)?;
        Ok(need(&text, "state")?.to_string())
    }
}
