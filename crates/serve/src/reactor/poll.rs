//! The readiness shim: a minimal, std-only binding of `poll(2)`.
//!
//! The reactor (DESIGN.md §13) needs exactly one thing the standard
//! library does not expose: "block until any of these sockets is
//! readable/writable, or a tick elapses". `poll(2)` is the portable
//! POSIX answer — level-triggered, no registration state in the kernel,
//! no hidden allocation — and binding it needs no `libc` crate: the
//! symbol lives in the C library every Rust program on a unix target
//! already links, and `std::os::fd` hands out the raw descriptors.
//!
//! This module is the serve crate's **only** unsafe site (the crate
//! root is `#![deny(unsafe_code)]`; the scoped allow below is on the
//! `man-analyze` unsafe allowlist and audited by the `static-analysis`
//! CI job). Everything above it — slab, state machines, framing — is
//! safe code over `TcpStream`s it owns.

use std::io;
use std::os::fd::RawFd;

/// `POLLIN`: the descriptor has bytes to read (or a peer hangup to
/// observe — Linux also flags readability on EOF).
pub(crate) const POLLIN: i16 = 0x001;
/// `POLLOUT`: a write would accept at least one byte.
pub(crate) const POLLOUT: i16 = 0x004;
/// `POLLERR`: error condition (revents only; always polled).
pub(crate) const POLLERR: i16 = 0x008;
/// `POLLHUP`: peer hung up (revents only; always polled).
pub(crate) const POLLHUP: i16 = 0x010;
/// `POLLNVAL`: the fd is not open (revents only; a slab bookkeeping
/// bug if it ever appears — the reactor closes such slots defensively).
pub(crate) const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` set — layout-compatible with the C
/// `struct pollfd` on every unix libc (three naturally-aligned
/// integers; `repr(C)` pins field order).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    /// The raw descriptor (from `AsRawFd`; the owner keeps it open
    /// across the call).
    pub(crate) fd: RawFd,
    /// Requested readiness: a bitset of [`POLLIN`] / [`POLLOUT`].
    pub(crate) events: i16,
    /// Kernel-reported readiness, filled in by [`poll_fds`].
    pub(crate) revents: i16,
}

impl PollFd {
    /// An entry asking for `events` readiness on `fd`.
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the kernel flagged any of `mask` (or an error/hangup
    /// condition, which `poll` reports regardless of `events`).
    pub(crate) fn ready(&self, mask: i16) -> bool {
        self.revents & (mask | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

// The C library's poll(2). Binding the symbol directly keeps the
// workspace free of the `libc` crate: std already links the platform C
// library on every unix target, so the symbol resolves at link time.
// `nfds_t` is `c_ulong` on the platforms this builds for (Linux, the
// BSDs, macOS); `usize` matches its width there.
#[allow(unsafe_code)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
}

/// Blocks until at least one entry of `fds` is ready, `timeout_ms`
/// elapses (`0` returns immediately, negative blocks forever), or a
/// signal interrupts the wait. Returns how many entries have non-zero
/// `revents`; `Ok(0)` means the timeout elapsed.
///
/// # Errors
///
/// The raw OS error (`EINTR` is mapped to `Ok(0)` — the reactor treats
/// an interrupted wait exactly like an idle tick).
#[allow(unsafe_code)]
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: the single unsafe expression of this crate. `fds` is a
    // live, exclusively-borrowed slice of `repr(C)` `PollFd` entries
    // whose layout matches the C `struct pollfd`, so the pointer/len
    // pair describes exactly `nfds` writable entries for the syscall's
    // duration; poll(2) only *writes* the `revents` field of each entry
    // (any i16 bit pattern is a valid value — no invariants to break)
    // and dereferences nothing else. Every fd value was obtained from a
    // live std socket via `AsRawFd` whose owner outlives the call
    // (closed-early fds are still memory-safe: the kernel just reports
    // POLLNVAL). No aliasing, no retained pointers, no unwinding
    // (extern "C"). The man-analyze unsafe audit pins this allow to
    // exactly this file.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn timeout_elapses_on_idle_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let mut fds = [PollFd::new(accepted.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 10).expect("poll");
        assert_eq!(n, 0, "idle socket must time out, not report readiness");
        assert!(!fds[0].ready(POLLIN));
        drop(stream);
    }

    #[test]
    fn written_byte_flags_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let mut stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        stream.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(accepted.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 1_000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN));
    }

    #[test]
    fn hangup_is_reported_even_without_pollin() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        drop(stream);
        let mut fds = [PollFd::new(accepted.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 1_000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN), "EOF must wake the poller");
    }
}
