// lapack90_netserve: stand up a la::net listener over a serve::Server and
// keep it running until stdin closes (or a line "quit" arrives). Prints
// the bound port on startup — with the default ephemeral port this is how
// a driving process learns where to connect — and the transport + compute
// statistics on exit.
//
//   lapack90_netserve [--port P] [--queue N] [--batch N]
//
// Every knob left off the command line falls back to its LAPACK90_*
// environment variable (see net/listener.hpp and serve/server.hpp). Flag
// values are parsed strictly: --port takes 0..65535 (0 = ephemeral), the
// rest a positive integer within the knob's legal range. Anything else
// prints the usage and exits 2 before binding.

#include <cstdio>
#include <cstring>

#include "lapack90/core/env.hpp"
#include "lapack90/net/net.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--queue N] [--batch N]\n", argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using la::EnvSpec;
  using la::detail::env_spec_max;
  la::net::ListenerConfig cfg;
  la::idx port = cfg.port;
  const struct {
    const char* name;
    la::idx max;
    la::idx* out;
  } flags[] = {
      {"--port", 65535, &port},
      {"--queue", env_spec_max(EnvSpec::ServeQueueDepth),
       &cfg.serve.queue_depth},
      {"--batch", env_spec_max(EnvSpec::ServeBatchMax), &cfg.serve.batch_max},
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0]);
      return 0;
    }
    la::idx v = -1;
    for (const auto& f : flags) {
      if (std::strcmp(argv[i], f.name) == 0 && i + 1 < argc) {
        const char* s = argv[++i];
        // parse_env_idx takes [1, max]; port 0 (ephemeral) is legal too.
        v = f.out == &port && std::strcmp(s, "0") == 0
                ? 0
                : la::detail::parse_env_idx(s, f.max, -1);
        *f.out = v;
        break;
      }
    }
    if (v < 0) {
      usage(argv[0]);
      return 2;
    }
  }
  cfg.port = static_cast<int>(port);

  la::net::Listener listener(cfg);
  if (!listener.ok()) {
    std::fprintf(stderr, "lapack90_netserve: bind/listen failed (port %d)\n",
                 cfg.port);
    return 1;
  }
  std::printf("lapack90_netserve: listening on 127.0.0.1:%d\n",
              listener.port());
  std::fflush(stdout);

  // Serve until the controlling process closes stdin (or says quit).
  char line[64];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::strncmp(line, "quit", 4) == 0) {
      break;
    }
  }

  listener.shutdown();
  const la::net::ListenerStats ns = listener.stats();
  const la::serve::Stats ss = listener.server().stats();
  std::printf("connections=%llu frames_in=%llu frames_out=%llu "
              "handshake_fail=%llu malformed=%llu conn_rejects=%llu\n",
              static_cast<unsigned long long>(ns.connections),
              static_cast<unsigned long long>(ns.frames_in),
              static_cast<unsigned long long>(ns.frames_out),
              static_cast<unsigned long long>(ns.handshake_fail),
              static_cast<unsigned long long>(ns.malformed),
              static_cast<unsigned long long>(ns.conn_rejects));
  std::printf("jobs=%llu completed=%llu rejected=%llu batches=%llu "
              "p50=%.1fus p99=%.1fus\n",
              static_cast<unsigned long long>(ss.submitted_jobs),
              static_cast<unsigned long long>(ss.completed_jobs),
              static_cast<unsigned long long>(ss.rejected_jobs),
              static_cast<unsigned long long>(ss.batches),
              ss.p50_us(), ss.p99_us());
  return 0;
}
