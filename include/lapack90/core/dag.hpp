// lapack90/core/dag.hpp
//
// A small dependency-graph task scheduler for the tiled factorizations
// (lapack/tiled.hpp). A TaskGraph is built once per factorization call —
// tile tasks with atomic dependency counts — and then drained by the
// existing thread pool (core/parallel.hpp) via detail::parallel_run; the
// scheduler spawns no threads of its own.
//
// Design points:
//
//  * Edges are derived, never written by hand. Each task declares the
//    integer keys (tiles) it reads and the keys it writes; the last writer
//    of a key goes before every later reader, and the last writer plus the
//    readers since then go before the next writer (the dependence-inference
//    model of PLASMA's QUARK runtime). Every pair of tasks that touch the
//    same key is therefore ordered by a path of edges by construction.
//  * The graph is static: all tasks are added single-threaded before
//    run(). add() is not thread-safe; run() is.
//  * Two priority levels. High-priority tasks (panel factorizations and
//    the updates feeding the next panel) are drained before normal ones,
//    which is what produces panel lookahead: as soon as the tiles feeding
//    panel k+1 finish, the panel factors while step-k trailing updates
//    are still in flight. Within a level the queue is FIFO in insertion
//    order, so a serial drain replays the program order of the builder.
//  * Determinism: the scheduler never splits or reorders a task's body,
//    so any topological execution order yields identical bits as long as
//    the declared keys cover the memory each task touches (see DESIGN.md
//    section 14). successors()/predecessors()/invoke() expose the built
//    graph so a test can drain it in any other topological order.
//  * Cancellation: cancel(status) latches the first non-zero status and
//    makes every not-yet-executed task a no-op. Dependency counters are
//    still drained, so workers always terminate — a failed tile-workspace
//    probe surfaces INFO=-100 without deadlocking the pool.
//  * Nesting: when the graph runs inside an existing parallel region (or
//    with a one-worker team) it drains serially on the calling thread in
//    deterministic priority-FIFO order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "lapack90/core/parallel.hpp"
#include "lapack90/core/types.hpp"

namespace la {

class TaskGraph {
 public:
  using TaskId = idx;
  using Key = idx;
  enum class Priority { Normal = 0, High = 1 };

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Number of tasks added so far.
  [[nodiscard]] idx size() const noexcept {
    return static_cast<idx>(nodes_.size());
  }

  /// Add a task that reads the keys `reads` and writes the keys `writes`
  /// (small non-negative integers, e.g. flattened tile coordinates; a key
  /// may appear in both lists). Its edges are derived from earlier tasks'
  /// declarations. Build phase only (single-threaded, before run()).
  TaskId add(std::function<void()> fn, std::span<const Key> reads,
             std::span<const Key> writes, Priority pr = Priority::Normal) {
    const auto id = static_cast<TaskId>(nodes_.size());
    nodes_.emplace_back(std::move(fn), pr == Priority::High);
    for (const Key k : reads) {
      KeyState& ks = access(k);
      add_edge(ks.writer, id);
      ks.readers.push_back(id);
    }
    for (const Key k : writes) {
      KeyState& ks = access(k);
      add_edge(ks.writer, id);
      for (const TaskId r : ks.readers) {
        add_edge(r, id);  // includes `id` itself when it also reads k
      }
      ks.writer = id;
      ks.readers.clear();
    }
    return id;
  }

  /// Tasks that wait on `t`, in insertion order.
  [[nodiscard]] const std::vector<TaskId>& successors(TaskId t) const {
    return nodes_[static_cast<std::size_t>(t)].succ;
  }

  /// Number of tasks `t` waits on (before run()).
  [[nodiscard]] idx predecessors(TaskId t) const {
    return nodes_[static_cast<std::size_t>(t)].deps.load(
        std::memory_order_relaxed);
  }

  /// Run `t`'s body unless the graph is cancelled. No dependency
  /// bookkeeping: run() does that; a caller draining the graph itself
  /// must respect successors()/predecessors().
  void invoke(TaskId t) {
    if (!cancelled_.load(std::memory_order_acquire)) {
      nodes_[static_cast<std::size_t>(t)].fn();
    }
  }

  /// Latch `status` (first caller wins) and skip every task that has not
  /// started yet. Safe to call from inside a task.
  void cancel(idx status) noexcept {
    idx expected = 0;
    status_.compare_exchange_strong(expected, status,
                                    std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
  }

  /// True once cancel() has been called.
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// The latched cancellation status (0 when never cancelled).
  [[nodiscard]] idx status() const noexcept {
    return status_.load(std::memory_order_relaxed);
  }

  /// Execute the graph to completion and return status(). Workers come
  /// from the existing thread pool; an empty graph returns immediately
  /// without touching the pool.
  idx run() {
    const idx ntasks = size();
    if (ntasks == 0) {
      return status();
    }
    remaining_.store(ntasks, std::memory_order_relaxed);
    done_ = false;
    for (TaskId t = 0; t < ntasks; ++t) {
      if (nodes_[static_cast<std::size_t>(t)].deps.load(
              std::memory_order_relaxed) == 0) {
        push_ready(t);
      }
    }
    const idx nt = std::min<idx>(num_threads(), ntasks);
    if (nt <= 1 || detail::in_parallel_region()) {
      drain_serial();
    } else {
      detail::parallel_run(nt, nt, [this](idx, int) { worker(); });
    }
    return status();
  }

 private:
  struct Node {
    std::function<void()> fn;
    std::vector<TaskId> succ;
    std::atomic<idx> deps{0};
    bool high;
    Node(std::function<void()> f, bool h) : fn(std::move(f)), high(h) {}
  };

  struct KeyState {
    TaskId writer = -1;
    std::vector<TaskId> readers;  // since the last write
  };

  KeyState& access(Key k) {
    if (static_cast<std::size_t>(k) >= keys_.size()) {
      keys_.resize(static_cast<std::size_t>(k) + 1);
    }
    return keys_[static_cast<std::size_t>(k)];
  }

  /// `after` must not start until `before` has finished. Tasks are added in
  /// order and `after` is always the newest, so a repeated edge is the last
  /// entry of `before`'s successor list; a self-edge or a missing writer
  /// (-1) is no edge.
  void add_edge(TaskId before, TaskId after) {
    if (before < 0 || before == after) {
      return;
    }
    auto& succ = nodes_[static_cast<std::size_t>(before)].succ;
    if (!succ.empty() && succ.back() == after) {
      return;
    }
    succ.push_back(after);
    nodes_[static_cast<std::size_t>(after)].deps.fetch_add(
        1, std::memory_order_relaxed);
  }

  void push_ready(TaskId t) {
    (nodes_[static_cast<std::size_t>(t)].high ? high_ : normal_).push_back(t);
  }

  // Caller holds mutex_ and has checked that a task is ready.
  TaskId pop_ready() {
    auto& q = high_.empty() ? normal_ : high_;
    const TaskId t = q.front();
    q.pop_front();
    return t;
  }

  [[nodiscard]] bool have_ready() const {
    return !high_.empty() || !normal_.empty();
  }

  /// Run one task body (unless cancelled), then release its successors.
  /// Returns true when this was the last task of the graph.
  bool execute(TaskId t) {
    invoke(t);
    const Node& node = nodes_[static_cast<std::size_t>(t)];
    std::vector<TaskId> ready;
    for (const TaskId s : node.succ) {
      if (nodes_[static_cast<std::size_t>(s)].deps.fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        ready.push_back(s);
      }
    }
    const bool finished =
        remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1;
    if (!ready.empty() || finished) {
      {
        std::lock_guard<std::mutex> lk(mutex_);
        for (const TaskId s : ready) {
          push_ready(s);
        }
        if (finished) {
          done_ = true;
        }
      }
      if (finished || ready.size() > 1) {
        cv_.notify_all();
      } else {
        cv_.notify_one();
      }
    }
    return finished;
  }

  /// Pool worker: pull ready tasks until the graph is drained.
  void worker() {
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      cv_.wait(lk, [this] { return done_ || have_ready(); });
      if (done_ && !have_ready()) {
        return;
      }
      const TaskId t = pop_ready();
      lk.unlock();
      execute(t);
      lk.lock();
    }
  }

  /// Deterministic serial drain on the calling thread (nested or
  /// one-worker case): priority FIFO, program order within a level.
  void drain_serial() {
    for (;;) {
      TaskId t;
      {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!have_ready()) {
          return;  // done, or (malformed cyclic graph) nothing runnable
        }
        t = pop_ready();
      }
      if (execute(t)) {
        return;
      }
    }
  }

  std::deque<Node> nodes_;  // deque: Node is immovable (atomic member)
  std::vector<KeyState> keys_;  // build phase: per-key access history
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<TaskId> high_;
  std::deque<TaskId> normal_;
  bool done_ = false;
  std::atomic<idx> remaining_{0};
  std::atomic<idx> status_{0};
  std::atomic<bool> cancelled_{false};
};

}  // namespace la
