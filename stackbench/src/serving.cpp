// serve_closed: the n=8 mix through 2 client threads over loopback TCP
// (net::Client -> net::Listener), each keeping a 128-job window in flight.
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "mix.hpp"

namespace stackbench {

namespace {

constexpr int kClients = 2;
// Held below the listener's 256-job per-connection cap on purpose: at
// window == cap the slot-release race gives spurious kInfoRejected results.
constexpr int kWindow = 128;
// Enough distinct problems that set-up is steady computation, not noise.
constexpr std::size_t kMixProblems = 16384;
/// The quiet share of windows. A neighbour's burst cuts this stack's
/// throughput up to tenfold; with one busy thread beside the benchmark
/// half the time, a third of the windows still spread 20% from run to run
/// and a fifth about 10%.
constexpr double kQuietShare = 1.0 / 5.0;

}  // namespace

Outcome run_serve_closed(const Options& opt, Tracer& tr) {
  Mix mix;
  std::unique_ptr<la::net::Listener> listener;
  std::vector<std::unique_ptr<la::net::Client>> clients;
  bool connected = true;
  Outcome out;
  out.add("setup_s", median_setup_s(11, [&] {
            clients.clear();
            listener.reset();
            mix = Mix();
            mix.build(opt.seed, kMixProblems);
            listener = std::make_unique<la::net::Listener>();
            connected = listener->ok();
            for (int c = 0; c < kClients; ++c) {
              clients.push_back(std::make_unique<la::net::Client>());
              connected = connected &&
                          clients.back()->connect("127.0.0.1", listener->port());
            }
          }),
          "s");
  if (!connected) {
    std::fprintf(stderr, "serve_closed: loopback listener/client setup failed\n");
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  LoopResult r = closed_loop(
      mix, kClients, kWindow, opt.seconds, opt.seed, tr, "net.submit",
      "net.wait", [&](int c) {
        return NetPort{*clients[static_cast<std::size_t>(c)]};
      });
  out.attempted = r.jobs;
  out.failed = r.failed;
  // Every job is verified (a failure fails the run), so the quiet
  // windows' completion rate is their verified rate.
  const QuietFigures q = quiet_windows(r.windows(), kQuietShare);
  out.add("jobs_per_s", q.jobs_per_s, "1/s");
  out.add("gflops",
          q.jobs_per_s * r.flops / static_cast<double>(r.jobs - r.failed) *
              1e-9,
          "GFLOP/s");
  out.add("latency_p50_us", q.lat_us.percentile(50.0), "us");
  out.add("latency_tail_us", q.lat_us.percentile(99.0), "us");
  out.headline = q.jobs_per_s;
  return out;
}

}  // namespace stackbench
