// la::net transport — the socket side of the remote serving front end.
// The wire format itself lives in include/lapack90/net/wire.hpp (pure
// encode/decode, tested without sockets); this file owns the file
// descriptors and the threads.
//
// Thread-safety ground rules, chosen so the whole subsystem is clean
// under TSan:
//
//  - A socket fd is const for the lifetime of the object that owns it.
//    Peers are unblocked with ::shutdown(fd, SHUT_RDWR) (which is safe
//    against concurrent reads/writes on the same fd); ::close happens
//    exactly once, after every thread using the fd has been joined.
//  - All sends use MSG_NOSIGNAL: a vanished peer yields EPIPE, never
//    SIGPIPE.
//  - Server side: completion callbacks run on serve dispatcher threads
//    and only enqueue the finished job under the connection's writer
//    mutex; the writer thread does all encoding and all sending, many
//    frames per wake-up, so a saturated connection pays one syscall per
//    result batch.
//  - Client side: the public API locks one mutex around the write buffer
//    and the pending map; the reader thread takes the same mutex only to
//    deliver results. Nothing blocks on the network while holding it
//    except the actual flush send, which is safe because the peer's
//    reader drains independently of its writer.

#include "lapack90/net/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
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

bool send_all(int fd, const std::byte* p, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t r = ::send(fd, p, n, MSG_NOSIGNAL);
    if (r > 0) {
      p += r;
      n -= static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Grow-and-compact receive buffer: keeps unconsumed bytes at the front.
struct RecvBuf {
  std::vector<std::byte> data;
  std::size_t head = 0;

  [[nodiscard]] std::span<const std::byte> view() const noexcept {
    return {data.data() + head, data.size() - head};
  }

  void consume(std::size_t n) noexcept {
    head += n;
    if (head == data.size()) {
      data.clear();
      head = 0;
    } else if (head > (std::size_t{1} << 20)) {
      data.erase(data.begin(),
                 data.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }

  /// recv() once into the tail; false on EOF/error.
  [[nodiscard]] bool fill(int fd) {
    constexpr std::size_t kChunk = std::size_t{256} << 10;
    const std::size_t old = data.size();
    data.resize(old + kChunk);
    ssize_t r;
    do {
      r = ::recv(fd, data.data() + old, kChunk, 0);
    } while (r < 0 && errno == EINTR);
    if (r <= 0) {
      data.resize(old);
      return false;
    }
    data.resize(old + static_cast<std::size_t>(r));
    return true;
  }
};

/// Userspace flush threshold for submit/result buffering: large enough to
/// amortize syscalls, small enough to keep pipelines moving.
constexpr std::size_t kWriteHighWater = std::size_t{256} << 10;

}  // namespace

// ===========================================================================
// Listener
// ===========================================================================

struct Listener::Impl {
  ListenerConfig cfg;  // resolved knob values
  serve::Server server;
  int listen_fd = -1;
  int bound_port = 0;
  std::thread acceptor;

  std::atomic<u64> n_connections{0};
  std::atomic<u64> n_handshake_fail{0};
  std::atomic<u64> n_frames_in{0};
  std::atomic<u64> n_frames_out{0};
  std::atomic<u64> n_malformed{0};
  std::atomic<u64> n_conn_rejects{0};

  struct ConnState;

  /// One decoded job living server-side: the operand payloads are copied
  /// out of the frame into `blob` (packed, ld = rows — exactly the wire
  /// layout, so the result payload is a straight copy back out), the
  /// type-erased units point into it, and the serve completion hook
  /// fills `res`. Ownership is linear — reader → serve callback ctx →
  /// ReadyItem → writer — so a job costs no shared_ptr control block;
  /// `conn` keeps the connection state alive for the callback, so an
  /// abrupt disconnect never frees memory under a running batch.
  /// `meta` packs the per-entry INFO (first `count`) and ITER (second
  /// `count`) output slots into one allocation.
  struct JobData {
    u64 job_id = 0;
    serve::Dtype dtype = serve::Dtype::d;
    std::uint8_t want = 0;
    std::vector<wire::EntryDims> dims;
    std::vector<std::byte> blob;
    std::vector<idx> meta;
    std::vector<serve::detail::Unit> units;
    serve::JobResult res;
    std::shared_ptr<ConnState> conn;
  };

  /// A completed (or wire-rejected) job ready to encode; `jd` is null for
  /// per-connection admission rejects, which carry only the id + info.
  struct ReadyItem {
    std::unique_ptr<JobData> jd;
    u64 job_id = 0;
    idx info = 0;
  };

  /// State shared between a connection's reader, its writer, and any
  /// serve completion callbacks still holding a reference.
  struct ConnState {
    Impl* owner = nullptr;
    int fd = -1;  // const after construction; closed by join_conn only
    std::atomic<idx> inflight{0};  // submitted, result not yet encoded
    std::mutex wmu;
    std::condition_variable wcv;
    std::deque<ReadyItem> ready;  // guarded by wmu
    bool closing = false;         // guarded by wmu
    std::atomic<bool> dead{false};      // send side failed
    std::atomic<bool> finished{false};  // both threads have exited
    std::atomic<int> parts_done{0};     // reader + writer exit bookkeeping

    /// Each of the two connection threads calls this once on exit; the
    /// second caller marks the connection reapable.
    void mark_part_done() noexcept {
      if (parts_done.fetch_add(1, std::memory_order_acq_rel) == 1) {
        finished.store(true, std::memory_order_release);
      }
    }
  };

  struct Conn {
    std::shared_ptr<ConnState> st;
    std::thread reader;
    std::thread writer;
  };

  std::mutex conns_mu;
  std::vector<std::unique_ptr<Conn>> conns;  // guarded by conns_mu
  bool shut = false;                         // guarded by conns_mu

  explicit Impl(const ListenerConfig& c) : cfg(resolve(c)), server(c.serve) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) {
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
      ::close(listen_fd);
      listen_fd = -1;
      return;
    }
    socklen_t alen = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen) ==
        0) {
      bound_port = ntohs(addr.sin_port);
    }
    acceptor = std::thread([this] { accept_loop(); });
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

  void accept_loop() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) {
          continue;
        }
        return;  // listen fd shut down: we're done
      }
      set_nodelay(fd);
      n_connections.fetch_add(1, std::memory_order_relaxed);
      auto st = std::make_shared<ConnState>();
      st->owner = this;
      st->fd = fd;
      auto conn = std::make_unique<Conn>();
      conn->st = st;
      conn->reader = std::thread([this, st] { reader_loop(st); });
      conn->writer = std::thread([this, st] { writer_loop(st); });
      std::lock_guard<std::mutex> lk(conns_mu);
      if (shut) {
        // shutdown() won the race: it will not see this connection, so
        // close it here (threads exit via closing/shutdown below).
        begin_close(*st);
        ::shutdown(fd, SHUT_RDWR);
        conn->reader.join();
        conn->writer.join();
        ::close(fd);
        continue;
      }
      // Reap finished connections so a long-lived listener's vector does
      // not grow without bound.
      std::erase_if(conns, [](const std::unique_ptr<Conn>& c) {
        if (!c->st->finished.load(std::memory_order_acquire)) {
          return false;
        }
        c->reader.join();
        c->writer.join();
        ::close(c->st->fd);
        return true;
      });
      conns.push_back(std::move(conn));
    }
  }

  static void begin_close(ConnState& st) {
    {
      std::lock_guard<std::mutex> lk(st.wmu);
      st.closing = true;
    }
    st.wcv.notify_all();
  }

  void reader_loop(const std::shared_ptr<ConnState>& st) {
    const int fd = st->fd;
    // Handshake: 12 fixed bytes each way before any framing.
    std::byte hb[wire::kHelloBytes];
    wire::Hello hello;
    const bool got =
        read_exact(fd, hb, sizeof(hb)) &&
        wire::decode_hello({hb, sizeof(hb)}, hello);
    std::vector<std::byte> ack;
    wire::HelloAck a;
    a.accept = got;
    a.max_frame = static_cast<std::uint32_t>(
        std::min(cfg.max_frame, std::size_t{1} << 30));
    wire::encode_hello_ack(ack, a);
    if (!send_all(fd, ack.data(), ack.size()) || !got) {
      if (!got) {
        n_handshake_fail.fetch_add(1, std::memory_order_relaxed);
      }
      ::shutdown(fd, SHUT_RDWR);  // flush the ack, give the peer its EOF
      begin_close(*st);
      st->mark_part_done();
      return;
    }
    RecvBuf rb;
    for (;;) {
      wire::FrameView fv;
      const auto status = wire::parse_frame(rb.view(), cfg.max_frame, fv);
      if (status == wire::FrameStatus::malformed) {
        n_malformed.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (status == wire::FrameStatus::ok) {
        const bool good = handle_frame(st, fv);
        rb.consume(fv.consumed);
        if (!good) {
          n_malformed.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        continue;
      }
      if (!rb.fill(fd)) {
        break;  // EOF or error: the peer is gone
      }
    }
    // Unblock a writer stuck in send() on a half-dead socket, then let it
    // drain whatever serve still owes this connection.
    ::shutdown(fd, SHUT_RDWR);
    begin_close(*st);
    st->mark_part_done();
  }

  [[nodiscard]] bool handle_frame(const std::shared_ptr<ConnState>& st,
                                  const wire::FrameView& fv) {
    if (fv.type != wire::FrameType::submit) {
      return false;  // clients only send Submit
    }
    wire::SubmitMsg m;
    if (!wire::decode_submit(fv.payload, m)) {
      return false;
    }
    n_frames_in.fetch_add(1, std::memory_order_relaxed);
    if (st->inflight.load(std::memory_order_relaxed) >= cfg.conn_inflight) {
      // Per-connection admission: turn the job away at the wire without
      // touching the compute server.
      n_conn_rejects.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lk(st->wmu);
        st->ready.push_back(
            ReadyItem{nullptr, m.job_id, serve::kInfoRejected});
      }
      st->wcv.notify_one();
      return true;
    }
    auto jd = std::make_unique<JobData>();
    jd->job_id = m.job_id;
    jd->dtype = m.dtype;
    jd->want = m.want;
    jd->dims = std::move(m.dims);
    jd->blob.assign(m.payload, m.payload + m.payload_bytes);
    const idx count = static_cast<idx>(jd->dims.size());
    const auto size = static_cast<std::size_t>(count);
    jd->meta.assign(2 * size, 0);
    jd->units.resize(size);
    jd->conn = st;  // the completion callback outlives the reader
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
    st->inflight.fetch_add(1, std::memory_order_relaxed);
    serve::detail::Unit* units = jd->units.data();
    // Ownership transfers to the callback context; serve invokes on_done
    // exactly once per submitted job (including rejects and drain).
    server.submit_units(units, count, &Impl::on_job_done, jd.release());
    return true;
  }

  /// serve::CompletionFn: reclaims the JobData and hands it to the
  /// connection's writer. Runs on the dispatcher thread (submitting
  /// thread for rejects).
  static void on_job_done(void* ctx, const serve::JobResult& r) {
    std::unique_ptr<JobData> jd(static_cast<JobData*>(ctx));
    jd->res = r;
    const std::shared_ptr<ConnState> st = jd->conn;
    const u64 id = jd->job_id;
    {
      std::lock_guard<std::mutex> lk(st->wmu);
      st->ready.push_back(ReadyItem{std::move(jd), id, r.info});
    }
    st->wcv.notify_one();
  }

  void writer_loop(const std::shared_ptr<ConnState>& st) {
    const int fd = st->fd;
    std::vector<std::byte> wbuf;
    std::deque<ReadyItem> local;
    std::vector<wire::EntryResult> ents;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(st->wmu);
        st->wcv.wait(lk, [&] {
          return !st->ready.empty() ||
                 (st->closing &&
                  st->inflight.load(std::memory_order_relaxed) == 0);
        });
        if (st->ready.empty()) {
          break;  // closing and nothing left in flight
        }
        local.swap(st->ready);
      }
      wbuf.clear();
      idx done = 0;
      for (ReadyItem& it : local) {
        encode_item(wbuf, it, ents);
        if (it.jd != nullptr) {
          ++done;
        }
        it.jd.reset();  // encoded: release job storage promptly
      }
      const std::size_t frames = local.size();
      local.clear();
      // Free the slots before the bytes leave: a client that honours the
      // window resubmits as soon as it reads a result, and must find the
      // slot already free.
      if (done > 0) {
        st->inflight.fetch_sub(done, std::memory_order_relaxed);
      }
      if (!st->dead.load(std::memory_order_relaxed)) {
        if (send_all(fd, wbuf.data(), wbuf.size())) {
          n_frames_out.fetch_add(frames, std::memory_order_relaxed);
        } else {
          st->dead.store(true, std::memory_order_relaxed);
          ::shutdown(fd, SHUT_RDWR);  // wake the reader too
        }
      }
    }
    st->mark_part_done();
  }

  static void encode_item(std::vector<std::byte>& out, const ReadyItem& it,
                          std::vector<wire::EntryResult>& ents) {
    if (it.jd == nullptr) {
      wire::encode_reject(out, it.job_id, it.info);
      return;
    }
    const JobData& jd = *it.jd;
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
    {
      std::lock_guard<std::mutex> lk(conns_mu);
      if (shut) {
        return;
      }
      shut = true;
    }
    if (listen_fd >= 0) {
      ::shutdown(listen_fd, SHUT_RDWR);
    }
    if (acceptor.joinable()) {
      acceptor.join();
    }
    // Drain the compute server first so every outstanding completion
    // callback has fired and the writers can observe inflight == 0.
    server.shutdown();
    std::vector<std::unique_ptr<Conn>> local;
    {
      std::lock_guard<std::mutex> lk(conns_mu);
      local.swap(conns);
    }
    for (auto& c : local) {
      ::shutdown(c->st->fd, SHUT_RDWR);
      begin_close(*c->st);
      c->reader.join();
      c->writer.join();
      ::close(c->st->fd);
    }
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
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

  std::mutex mu;  // guards everything below + the write path
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

  bool flush_locked() {
    if (wbuf.empty()) {
      return true;
    }
    if (!open || !send_all(fd, wbuf.data(), wbuf.size())) {
      wbuf.clear();
      unsent.clear();
      fail_all_locked(kInfoNetClosed);
      return false;
    }
    wbuf.clear();
    for (const u64 id : unsent) {
      const auto it = pending.find(id);
      if (it != pending.end()) {
        it->second->sent = true;
      }
    }
    unsent.clear();
    return true;
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
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
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
  if (!send_all(fd, hello.data(), hello.size()) ||
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
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->flush_locked();
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
    im.flush_locked();
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
  std::lock_guard<std::mutex> lk(im.mu);
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
    im.flush_locked();
  }
  return t;
}

}  // namespace la::net
