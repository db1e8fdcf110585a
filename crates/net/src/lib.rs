//! sciml-net — std-only readiness reactor for the serving tier.
//!
//! The paper's disaggregated-preprocessing argument needs a serving
//! front-end that scales in *connections*, not threads: one training
//! fleet can hold thousands of mostly-idle sockets open against a
//! preprocessing node, and a thread-per-connection server burns a
//! stack and a scheduler slot on each. This crate provides the
//! event-driven alternative with zero external dependencies:
//!
//! * [`poller`] — the level-triggered readiness
//!   [`Poller`](poller::Poller): Linux epoll, via direct `extern "C"`
//!   declarations (std already links libc), plus the loop-wakeup
//!   channel. Linux is the serving tier's platform; no other target
//!   builds this crate.
//! * [`frame`] — frame-boundary detection for the length-prefixed wire
//!   layout (`[len u32 LE][payload][crc32 LE]`) and the payload cap,
//!   [`MAX_PAYLOAD`]. The reactor splits streams into frames; CRC
//!   checks and message parsing stay in the service layer.
//! * [`reactor`] — the event loop itself: non-blocking accept with
//!   admission control, per-connection state machines (read-frame →
//!   dispatch → write-with-backpressure), a worker pool running the
//!   [`Service`] callback, bounded outbound queues of reply
//!   [`Piece`]s written with `writev`, idle timeouts, and graceful
//!   drain (stop accepting, finish in-flight, flush, then close).
//!
//! `sciml-serve` plugs its protocol in as a [`reactor::Service`]; this
//! crate knows nothing about datasets or messages beyond the frame
//! envelope.

#![deny(missing_docs)]

pub mod frame;
pub mod poller;
pub mod reactor;

pub use frame::{FrameError, HEADER_BYTES, MAX_PAYLOAD, TRAILER_BYTES};
pub use reactor::{
    ConnId, Piece, Reactor, ReactorConfig, ReactorHandle, ReactorMetrics, Reply, Service,
};
