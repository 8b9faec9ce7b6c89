// la::net transport — the socket side of the remote serving front end.
// The wire format itself lives in include/lapack90/net/wire.hpp (pure
// encode/decode, tested without sockets); this file owns the file
// descriptors and the threads.
//
// Thread-safety ground rules, chosen so the whole subsystem is clean
// under TSan:
//
//  - Server side: one event-loop thread per Listener owns the listen
//    socket, every connection socket and all per-connection state. The
//    only shared structure is the completion list: serve completion
//    callbacks run on the dispatcher thread, append the finished job
//    under one mutex and write the wake eventfd when the list was empty.
//    The loop never holds that mutex while it calls into serve, whose
//    admission rejects complete synchronously on the calling thread.
//  - All sends use MSG_NOSIGNAL: a vanished peer yields EPIPE, never
//    SIGPIPE.
//  - Client side: the socket fd is const while the reader thread runs;
//    close() unblocks it with ::shutdown(fd, SHUT_RDWR) and closes the fd
//    after joining it. The public API locks one mutex around the write
//    buffer and the pending map; the reader thread takes the same mutex
//    only to deliver results. Nothing blocks on the network while holding
//    it: a flush hands the buffer to a second mutex that serializes
//    send()s and releases the first while it sends, so results keep
//    being read while the listener holds back a large submission.

#include "lapack90/net/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lapack90/core/env.hpp"

namespace la::net {

namespace {

using u64 = std::uint64_t;

// -- socket helpers ----------------------------------------------------------

bool read_exact(int fd, void* dst, std::size_t n) noexcept {
  auto* p = static_cast<std::byte*>(dst);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r > 0) {
      p += r;
      n -= static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) {
      continue;
    }
    return false;  // orderly EOF or error
  }
  return true;
}

/// Send from the front of `buf` until it is empty or the socket would
/// block, erasing what was sent; false when the peer is gone. A blocking
/// socket returns with `buf` empty or false.
bool send_buf(int fd, std::vector<std::byte>& buf) {
  std::size_t sent = 0;
  bool alive = true;
  while (sent < buf.size()) {
    const ssize_t r =
        ::send(fd, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
    } else if (r == 0 || errno != EINTR) {
      alive = r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      break;
    }
  }
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(sent));
  return alive;
}

void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Receive buffer that keeps its storage between reads. The unconsumed
/// bytes are [head, tail); recv() writes at the tail into storage that is
/// allocated for overwrite, so no read pays for zero-filling. When fewer
/// than kMinRead bytes are free at the tail, the unconsumed bytes move to
/// the front, or, when that would still leave too little room (a frame
/// larger than the buffer), the storage doubles.
struct RecvBuf {
  static constexpr std::size_t kInitial = std::size_t{256} << 10;
  static constexpr std::size_t kMinRead = std::size_t{64} << 10;

  std::unique_ptr<std::byte[]> data;
  std::size_t cap = 0;
  std::size_t head = 0;
  std::size_t tail = 0;

  [[nodiscard]] std::span<const std::byte> view() const noexcept {
    return {data.get() + head, tail - head};
  }

  void consume(std::size_t n) noexcept {
    head += n;
    if (head == tail) {
      head = tail = 0;
    }
  }

  /// recv() once into the tail; false on EOF/error. A non-blocking socket
  /// with nothing to read yet leaves the buffer as it was and returns true.
  [[nodiscard]] bool fill(int fd) {
    make_room();
    ssize_t r;
    do {
      r = ::recv(fd, data.get() + tail, cap - tail, 0);
    } while (r < 0 && errno == EINTR);
    if (r <= 0) {
      return r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    tail += static_cast<std::size_t>(r);
    return true;
  }

 private:
  void make_room() {
    if (cap - tail >= kMinRead) {
      return;
    }
    const std::size_t live = tail - head;
    if (cap - live >= kMinRead) {
      std::memmove(data.get(), data.get() + head, live);
    } else {
      std::size_t grown = std::max(kInitial, 2 * cap);
      while (grown - live < kMinRead) {
        grown *= 2;
      }
      auto bigger = std::make_unique_for_overwrite<std::byte[]>(grown);
      if (live > 0) {
        std::memcpy(bigger.get(), data.get() + head, live);
      }
      data = std::move(bigger);
      cap = grown;
    }
    head = 0;
    tail = live;
  }
};

/// Userspace flush threshold for client submit buffering (large enough to
/// amortize syscalls, small enough to keep pipelines moving), and the
/// unsent-result level past which the listener stops reading a peer.
constexpr std::size_t kWriteHighWater = std::size_t{256} << 10;

}  // namespace

// ===========================================================================
// Listener
// ===========================================================================

struct Listener::Impl {
  ListenerConfig cfg;  // resolved knob values
  serve::Server server;
  int listen_fd = -1;
  int wake_fd = -1;  // eventfd: completions queued, or stop requested
  int bound_port = 0;

  std::atomic<u64> n_connections{0};
  std::atomic<u64> n_handshake_fail{0};
  std::atomic<u64> n_frames_in{0};
  std::atomic<u64> n_frames_out{0};
  std::atomic<u64> n_malformed{0};
  std::atomic<u64> n_conn_rejects{0};
  std::atomic<u64> n_admissions{0};

  /// One decoded job living server-side: the operand payloads are copied
  /// out of the frame into `blob` (packed, ld = rows — exactly the wire
  /// layout, so the result payload is a straight copy back out), the
  /// type-erased units point into it, and the serve completion hook
  /// fills `res`. Ownership is linear — loop → serve callback ctx →
  /// completion list → loop — so a job costs no shared_ptr control block;
  /// `conn` names the submitting connection in the loop's table.
  /// `meta` packs the per-entry INFO (first `count`) and ITER (second
  /// `count`) output slots into one allocation.
  struct JobData {
    Impl* owner = nullptr;
    u64 conn = 0;
    u64 job_id = 0;
    serve::Dtype dtype = serve::Dtype::d;
    std::uint8_t want = 0;
    std::vector<wire::EntryDims> dims;
    std::vector<std::byte> blob;
    std::vector<idx> meta;
    std::vector<serve::detail::Unit> units;
    serve::JobResult res;
  };

  /// One connection, touched by the loop thread only. A closed connection
  /// (fd = -1) stays in the table until every job it submitted has come
  /// back, so a completion always finds its entry; its results are then
  /// discarded.
  struct Conn {
    int fd = -1;
    bool greeted = false;        // handshake done
    bool writable = true;        // the last send did not hit EAGAIN
    idx inflight = 0;            // submitted, result not yet encoded
    RecvBuf rb;                  // handshake, then frames
    std::vector<std::byte> out;  // encoded, not yet sent
    u64 out_frames = 0;          // result frames in `out`
  };

  std::unordered_map<u64, Conn> conns;  // loop thread only
  u64 next_conn = 0;
  // Jobs decoded in the current pass, from every connection, not yet
  // handed to serve (loop thread only).
  std::vector<serve::Submission> subs;
  bool accepting = true;  // false while the process is out of descriptors

  std::mutex done_mu;
  std::vector<std::unique_ptr<JobData>> done;  // guarded by done_mu

  std::atomic<bool> stopping{false};
  std::atomic<bool> shut{false};
  std::thread loop;  // last: it uses every member above

  explicit Impl(const ListenerConfig& c) : cfg(resolve(c)), server(c.serve) {
    wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (wake_fd < 0 || listen_fd < 0) {
      close_fd(listen_fd);
      return;
    }
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg.port));
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_fd, static_cast<int>(cfg.backlog)) != 0) {
      close_fd(listen_fd);
      return;
    }
    socklen_t alen = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen) ==
        0) {
      bound_port = ntohs(addr.sin_port);
    }
    loop = std::thread([this] { run(); });
  }

  [[nodiscard]] static ListenerConfig resolve(const ListenerConfig& c) {
    using la::detail::env_knob;
    ListenerConfig r = c;
    if (r.port < 0) {
      r.port = static_cast<int>(
          env_knob("LAPACK90_NET_PORT", idx{65535}, idx{0}));
    }
    if (r.backlog <= 0) {
      r.backlog = env_knob("LAPACK90_NET_BACKLOG", idx{4096}, idx{16});
    }
    if (r.conn_inflight <= 0) {
      r.conn_inflight =
          env_knob("LAPACK90_NET_CONN_INFLIGHT", idx{1} << 20, idx{256});
    }
    if (r.max_frame == 0) {
      r.max_frame = static_cast<std::size_t>(
          env_knob("LAPACK90_NET_MAX_FRAME", idx{1} << 30,
                   static_cast<idx>(wire::kDefaultMaxFrame)));
    }
    return r;
  }

  static void close_fd(int& fd) noexcept {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  void wake() const noexcept {
    const u64 one = 1;
    // EAGAIN means the counter is already nonzero: the loop is woken anyway.
    [[maybe_unused]] const ssize_t r = ::write(wake_fd, &one, sizeof(one));
  }

  /// The event loop: accept, read and decode, encode completions, send.
  /// Every pass rebuilds the poll set from the connection table.
  void run() {
    std::vector<pollfd> pfds;
    std::vector<u64> ids;  // connection id of pfds[i + 2]
    std::vector<std::unique_ptr<JobData>> finished;
    std::vector<wire::EntryResult> ents;
    while (!stopping.load(std::memory_order_acquire)) {
      pfds.clear();
      ids.clear();
      pfds.push_back({accepting ? listen_fd : -1, POLLIN, 0});
      pfds.push_back({wake_fd, POLLIN, 0});
      for (auto& [id, c] : conns) {
        if (c.fd < 0) {
          continue;
        }
        // Bytes left over from the last pass mean send() hit EAGAIN.
        c.writable = c.out.empty();
        // Backpressure: a peer that leaves more than kWriteHighWater of
        // its results unread is not read either, so TCP stalls its
        // submissions instead of its results piling up here.
        const short ev = (c.out.size() > kWriteHighWater ? 0 : POLLIN) |
                         (c.writable ? 0 : POLLOUT);
        pfds.push_back({c.fd, ev, 0});
        ids.push_back(id);
      }
      if (::poll(pfds.data(), pfds.size(), -1) < 0 && errno != EINTR) {
        break;  // nothing left to wait with: drop every peer below
      }
      // Clear the wake before taking the list: a completion appended
      // after the swap below finds the list empty and wakes us again.
      if ((pfds[1].revents & POLLIN) != 0) {
        u64 n = 0;
        [[maybe_unused]] const ssize_t r = ::read(wake_fd, &n, sizeof(n));
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const short rev = pfds[i + 2].revents;
        Conn& c = conns.find(ids[i])->second;
        c.writable = c.writable || (rev & POLLOUT) != 0;
        if ((rev & (POLLIN | POLLHUP | POLLERR)) != 0 &&
            (!c.rb.fill(c.fd) || !serve_input(ids[i], c))) {
          close_conn(c);
        }
      }
      admit();
      if ((pfds[0].revents & POLLIN) != 0) {
        accept_all();
      }
      {
        std::lock_guard<std::mutex> lk(done_mu);
        finished.swap(done);
      }
      for (const std::unique_ptr<JobData>& jd : finished) {
        Conn& c = conns.find(jd->conn)->second;
        // Free the slot before the bytes leave: a client that honours the
        // window resubmits as soon as it reads a result, and must find the
        // slot already free.
        --c.inflight;
        if (c.fd >= 0) {
          encode_result(c.out, *jd, ents);
          ++c.out_frames;
        }
      }
      finished.clear();  // encoded: release job storage promptly
      // One send per writable connection per pass carries every frame
      // queued since the last one; the rest waits for POLLOUT.
      for (auto it = conns.begin(); it != conns.end();) {
        Conn& c = it->second;
        if (c.fd >= 0 && c.writable && !c.out.empty() && !flush(c)) {
          close_conn(c);
        }
        if (c.fd < 0 && c.inflight == 0) {
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Every peer gets its EOF; results not yet sent are discarded.
    for (auto& [id, c] : conns) {
      close_fd(c.fd);
    }
  }

  void accept_all() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (fd >= 0) {
        set_nodelay(fd);
        n_connections.fetch_add(1, std::memory_order_relaxed);
        conns[next_conn++].fd = fd;
        continue;
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      // Out of descriptors or memory: polling the listen socket again
      // would spin, so resume once a connection closes.
      accepting = errno == EAGAIN || errno == EWOULDBLOCK;
      return;
    }
  }

  void close_conn(Conn& c) {
    close_fd(c.fd);
    c.rb = RecvBuf{};
    c.out = {};
    accepting = true;
  }

  /// Send what the socket takes now; false when the peer is gone.
  [[nodiscard]] bool flush(Conn& c) {
    if (!send_buf(c.fd, c.out)) {
      return false;
    }
    if (c.out.empty()) {
      n_frames_out.fetch_add(c.out_frames, std::memory_order_relaxed);
      c.out_frames = 0;
    }
    return true;
  }

  /// The handshake (12 fixed bytes each way before any framing), then
  /// every complete frame in the receive buffer. False drops the peer.
  [[nodiscard]] bool serve_input(u64 id, Conn& c) {
    if (!c.greeted) {
      const auto in = c.rb.view();
      if (in.size() < wire::kHelloBytes) {
        return true;
      }
      wire::Hello hello;
      wire::HelloAck a;
      a.accept = wire::decode_hello(in.first(wire::kHelloBytes), hello);
      a.max_frame = static_cast<std::uint32_t>(
          std::min(cfg.max_frame, std::size_t{1} << 30));
      c.rb.consume(wire::kHelloBytes);
      wire::encode_hello_ack(c.out, a);
      if (!a.accept) {
        // Mismatched peers get their refusal (12 bytes always fit an
        // idle socket's buffer), then EOF.
        n_handshake_fail.fetch_add(1, std::memory_order_relaxed);
        (void)flush(c);
        return false;
      }
      c.greeted = true;
    }
    for (;;) {
      wire::FrameView fv;
      const auto status = wire::parse_frame(c.rb.view(), cfg.max_frame, fv);
      if (status == wire::FrameStatus::need_more) {
        return true;
      }
      if (status == wire::FrameStatus::malformed ||
          !handle_frame(id, c, fv)) {
        n_malformed.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      c.rb.consume(fv.consumed);
    }
  }

  [[nodiscard]] bool handle_frame(u64 id, Conn& c, const wire::FrameView& fv) {
    if (fv.type != wire::FrameType::submit) {
      return false;  // clients only send Submit
    }
    wire::SubmitMsg m;
    if (!wire::decode_submit(fv.payload, m)) {
      return false;
    }
    n_frames_in.fetch_add(1, std::memory_order_relaxed);
    if (c.inflight >= cfg.conn_inflight) {
      // Per-connection admission: turn the job away at the wire without
      // touching the compute server.
      n_conn_rejects.fetch_add(1, std::memory_order_relaxed);
      wire::encode_reject(c.out, m.job_id, serve::kInfoRejected);
      ++c.out_frames;
      return true;
    }
    auto jd = std::make_unique<JobData>();
    jd->owner = this;
    jd->conn = id;
    jd->job_id = m.job_id;
    jd->dtype = m.dtype;
    jd->want = m.want;
    jd->dims = std::move(m.dims);
    jd->blob.assign(m.payload, m.payload + m.payload_bytes);
    const idx count = static_cast<idx>(jd->dims.size());
    const auto size = static_cast<std::size_t>(count);
    jd->meta.assign(2 * size, 0);
    jd->units.resize(size);
    const std::size_t esz = wire::scalar_bytes(m.dtype);
    std::size_t off = 0;
    for (idx i = 0; i < count; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const wire::EntryDims& d = jd->dims[ui];
      serve::detail::Unit& u = jd->units[ui];
      u.routine = m.routine;
      u.dtype = m.dtype;
      u.uplo = m.uplo;
      u.trans = m.trans;
      u.a = jd->blob.data() + off;
      off += static_cast<std::size_t>(d.am) * static_cast<std::size_t>(d.an) *
             esz;
      u.am = d.am;
      u.an = d.an;
      u.lda = std::max<idx>(d.am, 1);
      u.b = jd->blob.data() + off;
      off += static_cast<std::size_t>(d.bm) * static_cast<std::size_t>(d.bn) *
             esz;
      u.bm = d.bm;
      u.bn = d.bn;
      u.ldb = std::max<idx>(d.bm, 1);
      u.info_out = &jd->meta[ui];
      u.iter_out = &jd->meta[size + ui];
    }
    ++c.inflight;
    serve::detail::Unit* units = jd->units.data();
    // Ownership transfers to the callback context; serve invokes on_done
    // exactly once per submitted job (including rejects and drain).
    subs.push_back({units, count, &Impl::on_job_done, jd.release(), nullptr});
    return true;
  }

  /// Hand every job decoded in this pass to serve with one admission:
  /// one take of its locks and one dispatcher wake-up for all of them.
  /// A connection dropped for a bad frame after good ones still has its
  /// good jobs here, so they run, come back and free its in-flight slots.
  void admit() {
    if (subs.empty()) {
      return;
    }
    n_admissions.fetch_add(1, std::memory_order_relaxed);
    server.submit_many(subs);
    subs.clear();
  }

  /// serve::CompletionFn: reclaims the JobData and appends it to the
  /// completion list, waking the loop when the list was empty. Runs on
  /// the dispatcher thread (on the loop thread for admission rejects).
  static void on_job_done(void* ctx, const serve::JobResult& r) {
    std::unique_ptr<JobData> jd(static_cast<JobData*>(ctx));
    jd->res = r;
    Impl& im = *jd->owner;
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lk(im.done_mu);
      was_empty = im.done.empty();
      im.done.push_back(std::move(jd));
    }
    if (was_empty) {
      im.wake();
    }
  }

  static void encode_result(std::vector<std::byte>& out, const JobData& jd,
                            std::vector<wire::EntryResult>& ents) {
    const auto count = jd.dims.size();
    ents.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      ents[i].info = jd.meta[i];
      ents[i].iter = jd.meta[count + i];
      ents[i].dims = jd.dims[i];
    }
    const std::size_t at = wire::encode_result_header(
        out, jd.job_id, jd.res.info, jd.res.iter, jd.want, ents);
    // The blob is already in the packed wire layout; ship the wanted
    // operands straight back out.
    const bool both =
        (jd.want & (wire::kWantA | wire::kWantB)) ==
        (wire::kWantA | wire::kWantB);
    if (both) {
      out.insert(out.end(), jd.blob.begin(), jd.blob.end());
    } else if (jd.want != 0) {
      // Walk the blob's A-then-B-per-entry layout, shipping only the
      // wanted ranges (offsets are implied by the dims, not stored).
      const std::size_t esz = wire::scalar_bytes(jd.dtype);
      std::size_t off = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const wire::EntryDims& d = jd.dims[i];
        const std::size_t a_bytes = static_cast<std::size_t>(d.am) *
                                    static_cast<std::size_t>(d.an) * esz;
        const std::size_t b_bytes = static_cast<std::size_t>(d.bm) *
                                    static_cast<std::size_t>(d.bn) * esz;
        if ((jd.want & wire::kWantA) != 0) {
          const std::byte* p = jd.blob.data() + off;
          out.insert(out.end(), p, p + a_bytes);
        }
        off += a_bytes;
        if ((jd.want & wire::kWantB) != 0) {
          const std::byte* p = jd.blob.data() + off;
          out.insert(out.end(), p, p + b_bytes);
        }
        off += b_bytes;
      }
    }
    wire::end_frame(out, at);
  }

  void shutdown() {
    if (shut.exchange(true)) {
      return;
    }
    // Drain the compute server first: the loop keeps sending results while
    // the last jobs complete, and every completion callback has fired once
    // this returns.
    server.shutdown();
    if (loop.joinable()) {
      stopping.store(true, std::memory_order_release);
      wake();
      loop.join();
    }
    close_fd(listen_fd);
    close_fd(wake_fd);
  }

  ~Impl() { shutdown(); }
};

Listener::Listener() : Listener(ListenerConfig{}) {}

Listener::Listener(const ListenerConfig& cfg)
    : impl_(std::make_unique<Impl>(cfg)) {}

Listener::~Listener() = default;

bool Listener::ok() const noexcept { return impl_->listen_fd >= 0; }

int Listener::port() const noexcept { return impl_->bound_port; }

ListenerConfig Listener::config() const noexcept { return impl_->cfg; }

serve::Server& Listener::server() noexcept { return impl_->server; }

ListenerStats Listener::stats() const {
  ListenerStats s;
  s.connections = impl_->n_connections.load(std::memory_order_relaxed);
  s.handshake_fail = impl_->n_handshake_fail.load(std::memory_order_relaxed);
  s.frames_in = impl_->n_frames_in.load(std::memory_order_relaxed);
  s.frames_out = impl_->n_frames_out.load(std::memory_order_relaxed);
  s.malformed = impl_->n_malformed.load(std::memory_order_relaxed);
  s.conn_rejects = impl_->n_conn_rejects.load(std::memory_order_relaxed);
  s.admissions = impl_->n_admissions.load(std::memory_order_relaxed);
  return s;
}

void Listener::shutdown() { impl_->shutdown(); }

// ===========================================================================
// Client
// ===========================================================================

struct Client::Impl {
  int fd = -1;
  std::thread reader;
  std::size_t peer_max_frame = wire::kDefaultMaxFrame;

  // Taken before `mu`, never while holding it: serializes send() on fd and
  // close()'s ::close, and guards the frames being sent.
  std::mutex send_mu;
  std::vector<std::byte> sbuf;
  std::vector<u64> sending;

  std::mutex mu;  // guards everything below
  bool open = false;
  u64 next_ticket = 1;
  std::vector<std::byte> wbuf;

  // One in-flight job. Results are handed over with a plain {res, done}
  // pair under `mu` plus the shared `cv_result` instead of a per-job
  // promise/future: at small job sizes the two shared-state allocations
  // a promise costs per job are measurable against the wire loop, and
  // the windowed usage pattern means waits almost always find `done`
  // already set. `claimed` gives wait() exclusive ownership of the entry
  // (a second wait on the same ticket reports kInfoNetClosed, matching
  // the old moved-from-future contract).
  struct Pending {
    serve::JobResult res;
    serve::Dtype dtype = serve::Dtype::d;
    std::uint8_t want = 0;
    std::vector<EntryRef> entries;
    idx* infos = nullptr;
    idx* iters = nullptr;
    bool done = false;
    bool sent = false;
    bool claimed = false;
  };
  std::unordered_map<u64, std::unique_ptr<Pending>> pending;
  std::condition_variable cv_result;
  // Tickets whose Submit frames are still sitting in wbuf. wait() only
  // needs a flush when the awaited ticket is in here — flushing
  // unconditionally would cost one send() syscall per job once a
  // submission window is full, which dominates small-job throughput.
  std::vector<u64> unsent;

  ~Impl() { close(); }

  void fail_all_locked(idx info) {
    for (auto& [id, p] : pending) {
      if (!p->done) {
        p->done = true;
        p->res = serve::JobResult{};
        p->res.info = info;
        p->res.entries = static_cast<idx>(p->entries.size());
      }
    }
    open = false;
    cv_result.notify_all();
  }

  /// Send the buffered Submit frames; `lk` holds `mu` on entry and exit
  /// but not during send(). The listener stops reading a peer that leaves
  /// its results unread, so the reader thread must be able to take `mu`
  /// and deliver while a large flush waits for the socket.
  void flush(std::unique_lock<std::mutex>& lk) {
    if (wbuf.empty()) {
      return;
    }
    lk.unlock();
    std::lock_guard<std::mutex> sl(send_mu);
    lk.lock();
    sbuf.swap(wbuf);  // empty when another flush took these frames
    sending.swap(unsent);
    bool ok = open;
    if (ok && !sbuf.empty()) {
      lk.unlock();
      ok = send_buf(fd, sbuf);
      lk.lock();
    }
    sbuf.clear();
    if (ok) {
      for (const u64 id : sending) {
        const auto it = pending.find(id);
        if (it != pending.end()) {
          it->second->sent = true;
        }
      }
    } else {
      wbuf.clear();
      unsent.clear();
      fail_all_locked(kInfoNetClosed);
    }
    sending.clear();
  }

  void reader_loop() {
    RecvBuf rb;
    for (;;) {
      wire::FrameView fv;
      const auto status =
          wire::parse_frame(rb.view(), peer_max_frame, fv);
      if (status == wire::FrameStatus::malformed) {
        break;
      }
      if (status == wire::FrameStatus::ok) {
        if (!deliver(fv)) {
          break;
        }
        rb.consume(fv.consumed);
        continue;
      }
      if (!rb.fill(fd)) {
        break;
      }
    }
    std::lock_guard<std::mutex> lk(mu);
    fail_all_locked(kInfoNetClosed);
  }

  [[nodiscard]] bool deliver(const wire::FrameView& fv) {
    if (fv.type != wire::FrameType::result ||
        fv.payload.size() < sizeof(u64)) {
      return false;
    }
    const u64 id = wire::detail::load_le<u64>(fv.payload.data());
    std::lock_guard<std::mutex> lk(mu);
    const auto it = pending.find(id);
    if (it == pending.end() || it->second->done) {
      return false;  // unknown or duplicate id: protocol violation
    }
    Pending& p = *it->second;
    wire::ResultMsg m;
    if (!wire::decode_result(fv.payload, p.dtype, m)) {
      return false;
    }
    const auto count = p.entries.size();
    if (!m.entries.empty() && m.entries.size() != count) {
      return false;
    }
    // The peer cannot resize our buffers: every echoed dimension must
    // match what we submitted, or the frame is treated as hostile.
    for (std::size_t i = 0; i < m.entries.size(); ++i) {
      const wire::EntryDims& d = m.entries[i].dims;
      const EntryRef& e = p.entries[i];
      if (d.am != e.am || d.an != e.an || d.bm != e.bm || d.bn != e.bn) {
        return false;
      }
    }
    const std::size_t esz = wire::scalar_bytes(p.dtype);
    const std::byte* src = m.payload;
    for (std::size_t i = 0; i < m.entries.size(); ++i) {
      const EntryRef& e = p.entries[i];
      if ((m.flags & wire::kWantA) != 0) {
        src += wire::scatter_matrix(src, e.a, e.am, e.an, e.lda, esz);
      }
      if ((m.flags & wire::kWantB) != 0) {
        src += wire::scatter_matrix(src, e.b, e.bm, e.bn, e.ldb, esz);
      }
      if (p.infos != nullptr) {
        p.infos[i] = m.entries[i].info;
      }
      if (p.iters != nullptr) {
        p.iters[i] = m.entries[i].iter;
      }
    }
    p.res = serve::JobResult{};
    p.res.info = m.info;
    p.res.iter = m.iter;
    p.res.entries = static_cast<idx>(count);
    p.done = true;
    cv_result.notify_all();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(mu);
      open = false;
      wbuf.clear();
      unsent.clear();  // stale ticket ids must not leak into a reconnect
    }
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
    }
    if (reader.joinable()) {
      reader.join();  // reader fails any still-pending tickets
    }
    {
      // A send still on fd has failed since the shutdown above.
      std::lock_guard<std::mutex> sl(send_mu);
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
    std::lock_guard<std::mutex> lk(mu);
    fail_all_locked(kInfoNetClosed);
  }
};

Client::Client() : impl_(std::make_unique<Impl>()) {}

Client::~Client() = default;

bool Client::connect(const char* host, int port) {
  Impl& im = *impl_;
  im.close();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (std::strcmp(host, "localhost") == 0) {
    host = "127.0.0.1";
  }
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  set_nodelay(fd);
  std::vector<std::byte> hello;
  wire::encode_hello(hello);
  std::byte ab[wire::kHelloBytes];
  wire::HelloAck ack;
  if (!send_buf(fd, hello) ||
      !read_exact(fd, ab, sizeof(ab)) ||
      !wire::decode_hello_ack({ab, sizeof(ab)}, ack) || !ack.accept) {
    ::close(fd);
    return false;
  }
  im.fd = fd;
  im.peer_max_frame = ack.max_frame != 0 ? ack.max_frame
                                         : wire::kDefaultMaxFrame;
  {
    std::lock_guard<std::mutex> lk(im.mu);
    im.open = true;
  }
  im.reader = std::thread([&im] { im.reader_loop(); });
  return true;
}

bool Client::ok() const noexcept {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->open;
}

void Client::close() { impl_->close(); }

void Client::flush() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->flush(lk);
}

serve::JobResult Client::wait(Ticket t) {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lk(im.mu);
  const auto it = im.pending.find(t);
  if (it == im.pending.end() || it->second->claimed) {
    serve::JobResult r;
    r.info = kInfoNetClosed;
    return r;  // unknown or already-waited ticket
  }
  Impl::Pending* p = it->second.get();
  p->claimed = true;
  // Flush only when this ticket's Submit frame is still buffered:
  // results for an already-sent job arrive regardless of what else
  // sits in wbuf, and skipping the send here is what lets a full
  // submission window amortize syscalls across many jobs.
  if (!p->sent) {
    im.flush(lk);
  }
  im.cv_result.wait(lk, [p] { return p->done; });
  const serve::JobResult r = p->res;
  im.pending.erase(t);
  return r;
}

Client::Ticket Client::submit_raw(serve::Routine rt, serve::Dtype dt,
                                  Uplo uplo, Trans trans, std::uint8_t want,
                                  const EntryRef* entries, idx count,
                                  idx* infos, idx* iters) {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lk(im.mu);
  const Ticket t = im.next_ticket++;
  auto p = std::make_unique<Impl::Pending>();
  p->dtype = dt;
  p->want = want;
  p->entries.assign(entries, entries + count);
  p->infos = infos;
  p->iters = iters;
  const std::size_t esz = wire::scalar_bytes(dt);
  // Single-problem submits are the hot path; keep their dims off the heap.
  std::array<wire::EntryDims, 8> dims_small;
  std::vector<wire::EntryDims> dims_big;
  wire::EntryDims* dims_ptr = dims_small.data();
  if (count > static_cast<idx>(dims_small.size())) {
    dims_big.resize(static_cast<std::size_t>(count));
    dims_ptr = dims_big.data();
  }
  const std::span<wire::EntryDims> dims(dims_ptr,
                                        static_cast<std::size_t>(count));
  std::uint64_t payload = 0;
  for (idx i = 0; i < count; ++i) {
    const EntryRef& e = entries[i];
    auto& d = dims[static_cast<std::size_t>(i)];
    d.am = e.am;
    d.an = e.an;
    d.bm = e.bm;
    d.bn = e.bn;
    payload += wire::entry_payload_bytes(d, dt, wire::kWantA | wire::kWantB);
  }
  // Budget against the Result frame, whose fixed and per-entry overhead
  // both exceed the Submit's: a job admitted here must also fit on the
  // way back, or the server's reply would blow the client's own parse cap
  // and take the whole connection down.
  const bool too_big =
      wire::worst_frame_bytes(payload, static_cast<std::uint64_t>(count)) >
      im.peer_max_frame;
  if (!im.open || too_big) {
    p->res.info = im.open ? kInfoTooLarge : kInfoNetClosed;
    p->res.entries = count;
    p->done = true;
    p->sent = true;  // nothing buffered for this ticket
    im.pending.emplace(t, std::move(p));
    return t;
  }
  const std::size_t at = wire::encode_submit_header(
      im.wbuf, t, rt, dt, uplo, trans, want, dims);
  for (idx i = 0; i < count; ++i) {
    const EntryRef& e = entries[i];
    wire::append_matrix(im.wbuf, e.a, e.am, e.an, e.lda, esz);
    wire::append_matrix(im.wbuf, e.b, e.bm, e.bn, e.ldb, esz);
  }
  wire::end_frame(im.wbuf, at);
  im.pending.emplace(t, std::move(p));
  im.unsent.push_back(t);
  if (im.wbuf.size() >= kWriteHighWater) {
    im.flush(lk);
  }
  return t;
}

}  // namespace la::net
