// lapack90/net/listener.hpp
//
// The la::net server side: a loopback TCP listener that fronts a
// serve::Server with the wire.hpp protocol. One event-loop thread per
// listener poll()s the listen socket, a wake eventfd and every
// connection's non-blocking socket, however many connections there are.
//
// Each connection's bytes collect in one receive buffer: the version
// handshake first (mismatched peers are acked accept = 0 and dropped),
// then Submit frames, so a read may split a frame anywhere. Each job's
// operand payloads are copied into server-owned storage and expanded into
// type-erased units with a completion hook. The jobs decoded in one pass
// of the loop, from every readable connection, enter the embedded
// serve::Server together through one submit_many call, so its locks and
// its dispatcher wake-up are paid once per pass rather than once per job
// (ListenerStats::admissions counts those calls). A connection with
// `conn_inflight` jobs already in flight gets a wire-level rejection
// (Result with info = serve::kInfoRejected) without touching the server
// — the per-connection admission layer in front of the server-wide
// queue_depth bound. A malformed or oversized frame drops the connection
// (the wire contract).
//
// The completion hook appends the finished job to one mutex-guarded list
// and wakes the loop, which encodes results in completion order (results
// stream back out-of-order relative to submission, tagged by the
// client-assigned job id), frees the in-flight slot, and sends all of a
// connection's pending frames with one send(). Bytes the socket does not
// take wait in the connection's buffer for POLLOUT. Backpressure: the
// loop stops reading a connection with more than 256 KiB unsent, so TCP
// stalls a peer that does not read its results.
//
// An abrupt client disconnect never leaks: in-flight jobs keep their
// server-owned storage alive through the completion hook, and the closed
// connection stays in the loop's table until they are back; their
// results are discarded.
//
// Knobs (all through the shared hardened detail::env_knob reader;
// a nonzero / non-negative Config field wins):
//
//   LAPACK90_NET_PORT           bind port (default 0 = ephemeral; the
//                               bound port is reported by port())
//   LAPACK90_NET_BACKLOG        listen(2) backlog            (default 16)
//   LAPACK90_NET_CONN_INFLIGHT  per-connection in-flight job cap
//                               (default 256)
//   LAPACK90_NET_MAX_FRAME      largest frame read or written, bytes
//                               (default 64 MiB)
//
// The listener binds 127.0.0.1 only: la::net is a host-local serving
// front end, not an authenticated network service.
#pragma once

#include <cstdint>
#include <memory>

#include "lapack90/core/types.hpp"
#include "lapack90/serve/server.hpp"

namespace la::net {

/// Listener knobs; 0 (port: negative) = resolve through the environment.
struct ListenerConfig {
  int port = -1;              ///< bind port; 0 = ephemeral, -1 = env
  idx backlog = 0;            ///< listen backlog
  idx conn_inflight = 0;      ///< per-connection in-flight job cap
  std::size_t max_frame = 0;  ///< largest frame accepted, bytes
  serve::Config serve;        ///< knobs for the embedded serve::Server
};

/// Transport-level counters (the compute-level ones live in
/// serve::Stats via server().stats()).
struct ListenerStats {
  std::uint64_t connections = 0;      ///< accepted sockets
  std::uint64_t handshake_fail = 0;   ///< dropped at the version handshake
  std::uint64_t frames_in = 0;        ///< well-formed frames decoded
  std::uint64_t frames_out = 0;       ///< result frames written
  std::uint64_t malformed = 0;        ///< connections dropped on bad bytes
  std::uint64_t conn_rejects = 0;     ///< wire-level per-connection rejects
  std::uint64_t admissions = 0;       ///< serve submit calls: the jobs of
                                      ///< one loop pass enter together, so
                                      ///< frames_in / admissions is the
                                      ///< mean jobs per admission
};

class Listener {
 public:
  /// Bind + listen + start the event loop. ok() reports failure
  /// (port in use, no socket) instead of throwing.
  Listener();
  explicit Listener(const ListenerConfig& cfg);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// False when bind/listen failed; every other accessor stays safe.
  [[nodiscard]] bool ok() const noexcept;

  /// The actually bound port (resolves ephemeral 0).
  [[nodiscard]] int port() const noexcept;

  /// The knob values resolved at construction.
  [[nodiscard]] ListenerConfig config() const noexcept;

  /// The embedded compute server (stats, wait_idle).
  [[nodiscard]] serve::Server& server() noexcept;

  [[nodiscard]] ListenerStats stats() const;

  /// Drain the compute server (the loop sends what it can meanwhile),
  /// stop the event loop, close every connection and discard unsent
  /// results. Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace la::net
