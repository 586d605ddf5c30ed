#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>

#include "serve/coalescer.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/session.h"

/// \file service.h
/// \brief The `goggles_serve` request loop: newline-delimited JSON
/// requests in, one JSON response line per request out (in input order).
///
/// Two execution modes share one protocol:
///  - **Pipelined** (default): requests flow through a staged flowgraph
///    (decode → extract → infer → encode, util/pipeline.h) over
///    lock-free SPSC queues. The extraction stage drains whatever label
///    requests are queued (up to `pipeline.max_batch`), groups them by
///    (session, shape), dedups identical pixels, and scores each group
///    with ONE batched `Session::BuildQueryRows` call — cross-request
///    micro-batching with zero added window latency; the GEMM-bound
///    extraction stage overlaps the EM-posterior inference stage across
///    requests. Admission control bounds in-flight requests at the
///    reader (block, or reject with a clean error response).
///  - **Monolithic** (`pipeline.enabled = false`): the original flat
///    worker pool over a bounded MPMC queue, each worker running
///    decode→extract→infer→encode end to end (optionally through the
///    window-based Coalescer).
/// Responses are bit-identical between the modes at any thread/stage
/// configuration — the batched GEMM scorer accumulates each output row
/// in a fixed order independent of batch shape, so grouped extraction
/// row i equals the singleton extraction of image i, and inference is
/// row-independent.
///
/// Protocol (one JSON object per line; docs/serve_protocol.md has the
/// full specification):
///   {"op":"stats"}
///   {"op":"label","image":{"channels":C,"height":H,"width":W,
///                          "pixels":[...C*H*W floats...]}}
///   {"op":"label_batch","images":[{...},{...}]}
///   {"op":"list_tasks"} | {"op":"load","task":T} | {"op":"unload","task":T}
/// Requests routed to a multi-task registry carry "task":"name"; an
/// absent "task" falls back to the default (single-artifact) session,
/// keeping the original one-artifact protocol byte-compatible.
/// Responses always carry "ok" (true/false); errors carry "error".

namespace goggles::serve {

/// \brief Bounded multi-producer/multi-consumer queue. Push blocks while
/// the queue is full (backpressure); Pop blocks while it is empty and
/// returns nullopt once the queue is closed and drained.
template <typename T>
class BoundedQueue {
 public:
  /// \brief Queue holding at most `capacity` items before Push blocks.
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  /// \brief False iff the queue was closed before the item was accepted.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// \brief Blocks until an item is available (or the queue is closed
  /// and drained, yielding nullopt).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// \brief Closes the queue: pending items still drain, new Push calls
  /// are refused, blocked producers/consumers wake.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// \brief Items currently queued.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
  std::deque<T> queue_;
  size_t capacity_;
  bool closed_ = false;
};

/// \brief Staged-flowgraph tuning for Run() (see util/pipeline.h).
struct PipelineOptions {
  /// Master switch: true routes Run() through the staged flowgraph,
  /// false through the original monolithic worker pool. Results are
  /// bit-identical either way.
  bool enabled = true;
  /// Threads for the parse/validate/route stage (also handles non-label
  /// ops end to end).
  int decode_threads = 1;
  /// Threads for the batched-extraction stage (backbone forward + GEMM
  /// scoring — the hot stage).
  int extract_threads = 2;
  /// Threads for the posterior-inference stage.
  int infer_threads = 1;
  /// Threads for the response-encode stage.
  int encode_threads = 1;
  /// Capacity of each SPSC crossbar edge between stages.
  int queue_capacity = 64;
  /// Max label requests the extraction stage groups into one batched
  /// scoring call. With `batch_wait_micros` == 0, grouping never waits —
  /// it takes what is queued.
  int max_batch = 8;
  /// Bounded extract-stage batch-gather window in microseconds: a
  /// worker holding a partial batch parks up to this long for more
  /// arrivals before extracting (the pipelined analogue of the
  /// monolithic Coalescer's window — trades latency for dedup/GEMM
  /// amortization). 0 (default) = extract whatever is queued at once.
  int64_t batch_wait_micros = 0;
  /// Admission cap on in-flight requests (submitted minus written);
  /// <= 0 means "use ServiceConfig::queue_capacity".
  int admission_capacity = 0;
  /// true: a request arriving with `admission_capacity` already in
  /// flight gets an immediate {"ok":false,...} response instead of
  /// stalling the reader (load-shedding mode).
  bool reject_on_full = false;
  /// Stall watchdog budget for the staged flowgraph: a monitor thread
  /// flags any stage-function call running longer than this (see
  /// Pipeline::SetWatchdogBudgetMicros; surfaced as per-stage "stalls"
  /// in the stats op). 0 (default) = watchdog off, zero overhead.
  int64_t watchdog_budget_micros = 0;
};

/// \brief Overlays the `GOGGLES_PIPELINE*` environment knobs on
/// `defaults`: GOGGLES_PIPELINE (0 disables), _DECODE_THREADS,
/// _EXTRACT_THREADS, _INFER_THREADS, _ENCODE_THREADS, _QUEUE,
/// _MAX_BATCH, _BATCH_WAIT, _ADMISSION, _REJECT. Values go through the strict env
/// parser (util/env.h): malformed or trailing-garbage values warn and
/// fall back to the default; range clamping happens when the Service is
/// constructed.
PipelineOptions PipelineOptionsFromEnv(PipelineOptions defaults = {});

/// \brief Service tuning knobs.
struct ServiceConfig {
  /// Worker threads handling requests in monolithic mode. Each worker's
  /// labeling call already fans out over ParallelFor internally, so a
  /// small pool suffices to keep the machine busy while hiding
  /// per-request latency.
  int num_workers = 2;
  /// Bounded request-queue capacity (backpressure threshold); also the
  /// default pipeline admission cap.
  size_t queue_capacity = 64;
  /// Cross-request micro-batching of `label` requests (see coalescer.h).
  /// Off by default, and only used by the monolithic path — the staged
  /// pipeline batches naturally in its extraction stage without the
  /// window latency.
  CoalescerConfig coalesce;
  /// Staged-flowgraph execution of Run() (on by default).
  PipelineOptions pipeline;
  /// Per-request deadline measured from admission (the reader accepting
  /// the request line) to response encode. A request that overruns it is
  /// answered with {"ok":false,"error":...,"error_code":
  /// "deadline_exceeded"} instead of its result — stages check the
  /// deadline before starting expensive work, so a stalled stage sheds
  /// queued work instead of processing stale requests. 0 (default) =
  /// no deadline. Applies to both execution modes.
  int64_t request_deadline_micros = 0;
};

/// \brief The startup "ready" line `goggles_serve` prints on stderr: one
/// JSON object echoing the artifact path and directory, the service
/// configuration `config` as given on the command line, the task memory
/// budget, the active ISA tier, whether failpoints are compiled in, and
/// the startup time. Strings go through JsonValue's escaping, so any
/// path yields valid JSON.
std::string ReadyLine(const std::string& artifact,
                      const std::string& artifact_dir,
                      const ServiceConfig& config,
                      uint64_t task_budget_bytes, double startup_seconds);

/// \brief Serves labeling requests — either against one fitted Session
/// (the original single-artifact mode) or as a multi-task gateway over a
/// SessionRegistry, with optional cross-request micro-batching.
class Service {
 public:
  /// \brief Single-artifact service: every request hits `session`;
  /// "task"-routed requests and registry ops are rejected.
  explicit Service(std::shared_ptr<const Session> session,
                   ServiceConfig config = {});

  /// \brief Multi-task gateway: "task"-routed requests resolve through
  /// `registry` (loading artifacts on demand); requests without a "task"
  /// hit `default_session`, which may be null (then a task is required).
  Service(std::shared_ptr<SessionRegistry> registry,
          std::shared_ptr<const Session> default_session,
          ServiceConfig config = {});

  /// \brief Handles one parsed request (also the unit tests' entry
  /// point). Thread-safe.
  JsonValue HandleRequest(const JsonValue& request) const;

  /// \brief Handles one raw request line: parse + dispatch + serialize.
  std::string HandleLine(const std::string& line) const;

  /// \brief Pumps `in` to exhaustion: reads request lines, runs them
  /// through the staged flowgraph (or the monolithic worker pool when
  /// `pipeline.enabled` is false), writes responses to `out` in input
  /// order. Returns after every response is flushed.
  Status Run(std::istream& in, std::ostream& out);

  /// \brief Graceful-drain trigger (thread-safe, callable from a signal
  /// watcher thread): a running Run() stops admitting new requests,
  /// flushes every in-flight response, and returns OK. Requests read
  /// but not yet admitted are dropped. Idempotent; a Run() started
  /// after a stop returns immediately.
  void RequestStop();

  /// \brief True once RequestStop() has been called.
  bool stop_requested() const { return stop_requested_.load(); }

  /// \brief Total requests handled so far (including errored ones).
  uint64_t requests_served() const { return requests_served_.load(); }

  /// \brief Requests shed by reject-on-full admission control.
  uint64_t requests_rejected() const { return pipeline_rejected_.load(); }

  /// \brief The micro-batcher (stats inspection; never null).
  const Coalescer& coalescer() const { return *coalescer_; }

  /// \brief The normalized configuration the service runs with.
  const ServiceConfig& config() const { return config_; }

 private:
  /// Resolves the session a request targets: its "task" member through
  /// the registry, or the default session when absent.
  Result<std::shared_ptr<const Session>> ResolveSession(
      const JsonValue& request) const;

  /// Registry ops (load/unload/list_tasks); `op` is pre-validated.
  JsonValue HandleRegistryOp(const std::string& op,
                             const JsonValue& request) const;

  /// The `failpoint` chaos op (arm/disarm/disarm_all/list). Arming
  /// requires a binary built with -DGOGGLES_FAILPOINTS=ON; otherwise
  /// answers error_code "unimplemented". `list` always works.
  JsonValue HandleFailpointOp(const JsonValue& request) const;

  /// The original flat worker pool over a bounded MPMC queue.
  Status RunMonolithic(std::istream& in, std::ostream& out);

  /// The staged flowgraph (decode → extract → infer → encode) over SPSC
  /// crossbars, with reader-side admission control.
  Status RunPipelined(std::istream& in, std::ostream& out);

  std::shared_ptr<SessionRegistry> registry_;   // null in single mode
  std::shared_ptr<const Session> session_;      // may be null in gateway mode
  ServiceConfig config_;
  std::unique_ptr<Coalescer> coalescer_;
  mutable std::atomic<uint64_t> requests_served_{0};
  mutable std::atomic<uint64_t> errors_{0};
  mutable std::atomic<uint64_t> pipeline_rejected_{0};
  /// Set for the duration of a pipelined Run: snapshots the live
  /// flowgraph for the `stats` op's "pipeline" section.
  mutable std::mutex pipeline_stats_mu_;
  mutable std::function<JsonValue()> pipeline_stats_fn_;
  /// Graceful-drain flag + a pointer to the active Run's wake condvar
  /// so RequestStop() can rouse a reader blocked on admission control.
  std::atomic<bool> stop_requested_{false};
  std::mutex run_wake_mu_;
  std::condition_variable* run_wake_cv_ = nullptr;
};

}  // namespace goggles::serve
