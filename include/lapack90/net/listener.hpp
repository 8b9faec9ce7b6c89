// lapack90/net/listener.hpp
//
// The la::net server side: a loopback TCP listener that fronts a
// serve::Server with the wire.hpp protocol. One accept thread plus two
// threads per connection:
//
//   reader — performs the version handshake (mismatched peers are acked
//            accept = 0 and dropped), then decodes Submit frames. Each
//            job's operand payloads are copied into server-owned storage,
//            expanded into type-erased units, and submitted into the
//            embedded serve::Server with a completion hook. A connection
//            with `conn_inflight` jobs already in flight gets a wire-level
//            rejection (Result with info = serve::kInfoRejected) without
//            touching the server — the per-connection admission layer in
//            front of the server-wide queue_depth bound. A malformed or
//            oversized frame drops the connection (the wire contract).
//   writer — drains completed jobs in completion order (results stream
//            back out-of-order relative to submission, tagged by the
//            client-assigned job id), encoding many Result frames into one
//            buffer per wake-up so a saturated connection pays one
//            syscall for a whole batch of results.
//
// An abrupt client disconnect never leaks: in-flight jobs keep their
// server-owned storage alive through the completion callback; the writer
// discards results it can no longer send and the connection's threads are
// joined by shutdown (or by the accept loop's reaping of dead
// connections).
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
};

class Listener {
 public:
  /// Bind + listen + start the accept thread. ok() reports failure
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

  /// Stop accepting, drain the compute server, flush or discard pending
  /// results, join every connection thread. Idempotent; the destructor
  /// calls it.
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace la::net
