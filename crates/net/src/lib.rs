//! Dependency-free readiness I/O for the `resyn` server.
//!
//! The server's north star is sustaining thousands of concurrent
//! connections, which rules out a thread per socket. This crate is the
//! minimal event-driven substrate the `resyn serve` front end multiplexes
//! on, hand-rolled in the same no-external-deps spirit as the workspace's
//! proptest shim:
//!
//! * [`sys`] — thin `extern "C"` declarations against the libc symbols the
//!   loop needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`,
//!   `read`, `write`, `close`). `std` already links libc on Linux, so no
//!   crate dependency is involved.
//! * [`Epoll`] — a safe wrapper over a level-triggered epoll instance:
//!   register file descriptors under caller-chosen `u64` tokens with a
//!   read/write [`Interest`], then [`Epoll::wait`] for [`Event`]s.
//! * [`Waker`] — an `eventfd` registered on the epoll so threads *outside*
//!   the I/O loop (the synthesis workers handing back verdicts) can knock
//!   it out of `epoll_wait`. Wakes coalesce; [`Waker::drain`] resets.
//! * [`LineReader`] — incremental single-line frame assembly for the
//!   newline-delimited wire protocol: feed whatever bytes the socket had,
//!   pop complete lines, with a byte cap per line so one client cannot
//!   balloon server memory with an unterminated frame.
//! * [`WriteQueue`] — a bounded per-connection output queue flushed
//!   opportunistically against a nonblocking socket; the bound is the
//!   slow-reader disconnect threshold.
//!
//! Sockets themselves stay `std::net` types — only `set_nonblocking(true)`
//! is required of them — so the crate contains no socket FFI at all, and
//! everything except the epoll/eventfd syscalls is testable with plain
//! in-memory readers and writers.
//!
//! This crate is Linux-only, exactly like the syscalls it names. The rest
//! of the workspace builds without it on other platforms; the server crate
//! is the only consumer.

pub mod buffer;
pub mod poll;
pub mod sys;
pub mod wake;

pub use buffer::{LineEvent, LineReader, WriteQueue};
pub use poll::{Epoll, Event, Interest};
pub use wake::Waker;
