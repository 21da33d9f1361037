// Simulated control plane. An RPC is a small request message over the shared
// network, a server-side service delay, and a small response message back —
// together these realize the paper's per-block namenode communication cost
// `Tn`. RPC messages ride the same NICs as data but, like real small TCP
// flows, are not stuck behind queued bulk packets (control priority).
//
// The bus also hosts the control-plane half of fault injection: calls to or
// from a down host are dropped (and counted, so timeouts are attributable in
// logs), and an optional chaos configuration loses or delays individual
// control messages with seeded randomness.
//
// Every call lives in one pooled call record, like net::Network's in-flight
// records: the caller's closures are moved in once, and each request,
// response, service-queue op, timeout and backoff carries only a small
// {record, generation, attempt} step, which stays inline in the event queue.
// A record counts the message chains, queued ops and pending relaunches that
// still need it (plus one while a retried call is unsettled) and returns to
// the bus's free list when the count reaches zero; a timer that fires later
// sees a changed generation and does nothing. DESIGN.md §13 "Call records".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "net/network.hpp"
#include "rpc/service_queue.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::rpc {

/// Wire sizes of one control request and its response.
inline constexpr Bytes kRequestWireSize = 256;
inline constexpr Bytes kResponseWireSize = 512;
/// Server-side processing time per call on a server without a ServiceQueue.
inline constexpr SimDuration kServiceTime = microseconds(200);

/// Fault-injection knobs for the control plane. Loss and delay apply per
/// control message (request and response independently), drawn from the
/// simulation RNG — and only when enabled, so fault-free runs make no extra
/// RNG draws and stay bit-identical to historical traces.
struct RpcChaos {
  double loss_probability = 0.0;   ///< per-message drop probability
  SimDuration delay_mean = 0;      ///< fixed extra latency per message
  SimDuration delay_jitter = 0;    ///< uniform extra in [0, delay_jitter)

  bool enabled() const {
    return loss_probability > 0.0 || delay_mean > 0 || delay_jitter > 0;
  }
};

/// Client-side retry policy of rpc::call_with_retry (retry.hpp).
struct RetryPolicy {
  /// Per-attempt response deadline.
  SimDuration timeout = seconds(2);
  /// Total attempts (first try included). Must be >= 1.
  int max_attempts = 4;
  /// Backoff before attempt k (k >= 2) is base * 2^(k-2), capped at max,
  /// then scaled by a jitter factor in [1-jitter, 1+jitter].
  SimDuration backoff_base = milliseconds(200);
  SimDuration backoff_max = seconds(5);
  double jitter = 0.2;
};

/// Aggregated per-client retry accounting, surfaced in the metrics report.
struct RetryStats {
  std::uint64_t retries = 0;   ///< attempts beyond the first, across calls
  std::uint64_t give_ups = 0;  ///< calls abandoned after max_attempts
};

namespace detail {
template <typename Resp>
struct Retry;
/// Its address identifies a response type's record pool (not const, so no
/// linker option may fold two of them together).
template <typename Resp>
inline char pool_key = 0;
}  // namespace detail

class RpcBus {
 public:
  explicit RpcBus(net::Network& network) : network_(network) {}
  /// Pending events and queued ops point into the bus's record pools.
  RpcBus(const RpcBus&) = delete;
  RpcBus& operator=(const RpcBus&) = delete;

  /// Marks a host unreachable: requests to it and responses from it vanish
  /// (callers time out at the protocol layer). Used by fault injection.
  void set_host_down(NodeId node, bool down);
  bool host_down(NodeId node) const;

  /// Installs (or clears, with a default-constructed value) the control-plane
  /// chaos configuration.
  void set_chaos(RpcChaos chaos) { chaos_ = chaos; }
  const RpcChaos& chaos() const { return chaos_; }

  /// Installs a finite-capacity service model for `server`. Calls addressed
  /// to it queue through `queue` (per-class modeled cost, optional admission
  /// control) instead of the flat `kServiceTime`. Pass nullptr to clear. The
  /// queue is owned by the caller and must outlive the bus's use of it.
  void set_service_queue(NodeId server, ServiceQueue* queue);
  ServiceQueue* service_queue(NodeId server) const;

  /// Typed request/response call. `handler` runs on the server after the
  /// request arrives plus the service time; its return value is shipped back
  /// and passed to `on_response` on the caller. `options` classify the call
  /// for an installed ServiceQueue; `shed_response` (optional) is evaluated
  /// on the caller when the typed rejection it stands for arrives, after
  /// admission control shed the call, instead of leaving the caller to time
  /// out.
  template <typename Resp>
  void call(NodeId client, NodeId server, std::function<Resp()> handler,
            std::function<void(Resp)> on_response, CallOptions options = {},
            std::function<Resp()> shed_response = nullptr) {
    Call<Resp>* rec = open_call<Resp>(client, server, options);
    rec->handler = std::move(handler);
    rec->on_response = std::move(on_response);
    rec->shed_response = std::move(shed_response);
    start_attempt(rec, 1);
    unref(rec);
  }

  /// Like call(), but the server handler completes asynchronously by
  /// invoking the supplied `respond` continuation (possibly much later, e.g.
  /// after a bulk data transfer it coordinates). Only the first invocation
  /// responds. A handler that never responds keeps its record until the bus
  /// is destroyed.
  template <typename Resp>
  void call_async(NodeId client, NodeId server,
                  std::function<void(std::function<void(Resp)>)> handler,
                  std::function<void(Resp)> on_response, CallOptions options = {},
                  std::function<Resp()> shed_response = nullptr) {
    Call<Resp>* rec = open_call<Resp>(client, server, options);
    rec->async_handler = std::move(handler);
    rec->on_response = std::move(on_response);
    rec->shed_response = std::move(shed_response);
    start_attempt(rec, 1);
    unref(rec);
  }

  /// One-way notification (e.g. heartbeat): no response message. When the
  /// receiver has a ServiceQueue installed, the handler rides it under
  /// `options`; a shed notification is silently dropped (and counted by the
  /// queue) — its handler never executes.
  void notify(NodeId sender, NodeId receiver, std::function<void()> handler,
              CallOptions options = {});

  std::uint64_t calls_started() const { return calls_started_; }
  std::uint64_t calls_completed() const { return calls_completed_; }
  /// Call and notification records not yet back on the free lists.
  std::size_t records_in_use() const { return records_in_use_; }

 private:
  template <typename Resp>
  friend struct detail::Retry;

  /// Records recycled through a free list (each record type has a
  /// `next_free` link). They are allocated a chunk at a time, so growing a
  /// pool and destroying it take a few allocations, not one per record.
  template <typename T>
  class FreeList {
   public:
    T* acquire() {
      if (T* rec = free_) {
        free_ = rec->next_free;
        return rec;
      }
      if (chunks_.empty() || used_ == kChunk) {
        chunks_.push_back(std::make_unique<T[]>(kChunk));
        used_ = 0;
      }
      return &chunks_.back()[used_++];
    }
    void release(T* rec) {
      rec->next_free = free_;
      free_ = rec;
    }

   private:
    static constexpr std::size_t kChunk = 32;
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::size_t used_ = 0;
    T* free_ = nullptr;
  };

  template <typename Resp>
  struct Pool;

  /// Per-label retry counters ("rpc.<label>.retries"), resolved once per
  /// label and bus.
  struct LabelCounters {
    explicit LabelCounters(const char* label)
        : name(label),
          retries("rpc." + name + ".retries"),
          overload_retries("rpc." + name + ".overload_retries") {}
    std::string name;
    metrics::Cached<metrics::Counter> retries;
    metrics::Cached<metrics::Counter> overload_retries;
  };

  /// One logical call, from the caller's closures to the last message of its
  /// last attempt.
  template <typename Resp>
  struct Call {
    Pool<Resp>* pool = nullptr;
    Call* next_free = nullptr;
    /// Bumped on release; a timer holding an older value is stale.
    std::uint32_t generation = 0;
    /// Message chains, queued ops and pending relaunches that need this
    /// record, plus one while the caller's side is open (see open_call).
    std::uint32_t refs = 0;
    NodeId client;
    NodeId server;
    CallOptions options;
    /// Exactly one of the two handlers is set.
    std::function<Resp()> handler;
    std::function<void(std::function<void(Resp)>)> async_handler;
    bool awaiting_async = false;
    std::function<void(Resp)> on_response;
    std::function<Resp()> shed_response;

    // call_with_retry only; on_reply is null for a single-attempt call.
    void (*on_reply)(Call*, std::uint32_t attempt, Resp&&) = nullptr;
    sim::Simulation* sim = nullptr;
    RetryPolicy policy;
    std::uint32_t attempt = 0;  ///< attempts issued so far
    bool settled = false;
    /// A retryable response arrived and its backoff relaunch is pending;
    /// suppresses the same attempt's timeout so it cannot double-launch.
    bool response_retry_pending = false;
    std::function<void()> on_give_up;
    std::function<bool(const Resp&)> retry_on;
    std::shared_ptr<RetryStats> stats;
    LabelCounters* label = nullptr;
  };

  /// A served response on its way back to the caller.
  template <typename Resp>
  struct Reply {
    std::optional<Resp> value;
    Reply* next_free = nullptr;
  };

  enum class Stage : std::uint8_t {
    kRequest,       ///< request in flight to the server
    kServe,         ///< service time elapsed / queued op reached
    kShed,          ///< admission control rejected the queued op
    kResponse,      ///< served response in flight to the caller
    kShedResponse,  ///< typed rejection in flight to the caller
  };

  /// What every message, service event and queued op of a call carries.
  template <typename Resp>
  struct Step {
    Call<Resp>* call;
    Reply<Resp>* reply;  ///< kResponse only
    std::uint32_t generation;
    std::uint32_t attempt;
    Stage stage;

    void operator()() const { call->pool->bus->run(*this); }
    /// The message vanished (chaos loss, partition): its chain ends.
    void lost() const { call->pool->bus->end_chain(*this); }
  };

  /// call_async's `respond` continuation; small and trivially copyable, so
  /// std::function keeps it inline.
  template <typename Resp>
  struct Responder {
    Call<Resp>* call;
    std::uint32_t generation;
    std::uint32_t attempt;

    void operator()(Resp resp) const {
      call->pool->bus->respond_async(*this, std::move(resp));
    }
  };

  struct PoolBase {
    virtual ~PoolBase() = default;
  };

  /// Records of one response type.
  template <typename Resp>
  struct Pool final : PoolBase {
    explicit Pool(RpcBus* owner) : bus(owner) {}
    RpcBus* bus;
    FreeList<Call<Resp>> calls;
    FreeList<Reply<Resp>> replies;

    void recycle(Reply<Resp>* reply) {
      reply->value.reset();
      replies.release(reply);
    }
  };

  /// One notification: request, then the handler (one chain, no refcount).
  struct Notice {
    RpcBus* bus = nullptr;
    Notice* next_free = nullptr;
    std::uint32_t generation = 0;
    NodeId sender;
    NodeId receiver;
    CallOptions options;
    std::function<void()> handler;
  };

  enum class NoticeStage : std::uint8_t {
    kDeliver,  ///< request arrived at the receiver
    kRun,      ///< flat service time elapsed: run unconditionally
    kServe,    ///< queued op reached: run unless the receiver died
    kShed,     ///< admission control dropped it
  };

  struct NoticeStep {
    Notice* notice;
    std::uint32_t generation;
    NoticeStage stage;

    void operator()() const { notice->bus->run(*this); }
    void lost() const { notice->bus->release(notice); }
  };

  /// The bus's and the retry path's registry counters.
  struct Metrics {
    metrics::Cached<metrics::Counter> calls_dropped{"rpc.calls_dropped"};
    metrics::Cached<metrics::Counter> messages_lost{"rpc.messages_lost"};
    metrics::Cached<metrics::Counter> messages_delayed{"rpc.messages_delayed"};
    metrics::Cached<metrics::Counter> retries{"rpc.retries"};
    metrics::Cached<metrics::Counter> overload_retries{"rpc.overload_retries"};
    metrics::Cached<metrics::Counter> give_ups{"rpc.give_ups"};
  };

  template <typename Resp>
  Pool<Resp>& pool();
  /// Takes a record off the free list holding the caller's reference, which
  /// the caller drops once the call is launched (or, for a retried call,
  /// once it settles).
  template <typename Resp>
  Call<Resp>* open_call(NodeId client, NodeId server, CallOptions options);
  /// Sends attempt `attempt`'s request; counts it in calls_started().
  template <typename Resp>
  void start_attempt(Call<Resp>* call, std::uint32_t attempt);
  /// Drops one reference; the last one returns the record to the pool.
  template <typename Resp>
  void unref(Call<Resp>* call);
  template <typename Resp>
  void run(const Step<Resp>& step);
  /// Ends a step's chain without delivering it.
  template <typename Resp>
  void end_chain(const Step<Resp>& step);
  /// The server is done: ship `resp` back unless the server died.
  template <typename Resp>
  void respond(Call<Resp>* call, std::uint32_t attempt, Resp&& resp);
  template <typename Resp>
  void respond_async(const Responder<Resp>& responder, Resp&& resp);

  void run(const NoticeStep& step);
  void release(Notice* notice);
  LabelCounters& label_counters(const char* label);

  /// Counts a call abandoned because an endpoint was down at some stage
  /// (request never sent, server died mid-call, response undeliverable) as
  /// `rpc.calls_dropped`. Chaos-lost messages count separately, as
  /// `rpc.messages_lost`: those hosts were healthy.
  void record_dropped_call(NodeId client, NodeId server);

  /// Applies chaos to one control message: false when it is lost, otherwise
  /// sets `extra` to its added delay. Draws from the simulation RNG only when
  /// chaos is enabled.
  bool admit_under_chaos(NodeId from, NodeId to, SimDuration& extra);

  /// Sends one control message, applying chaos loss/delay when configured;
  /// a message that never arrives has `msg.lost()` called instead.
  template <typename Msg>
  void send_control(NodeId from, NodeId to, Bytes size, Msg msg);
  template <typename Msg>
  void transmit(NodeId from, NodeId to, Bytes size, const Msg& msg);

  net::Network& network_;
  RpcChaos chaos_;
  std::vector<bool> down_;
  std::vector<ServiceQueue*> queues_;  // indexed by server NodeId
  std::uint64_t calls_started_ = 0;
  std::uint64_t calls_completed_ = 0;
  std::size_t records_in_use_ = 0;
  std::vector<std::pair<const void*, std::unique_ptr<PoolBase>>> pools_;
  FreeList<Notice> notices_;
  std::vector<std::unique_ptr<LabelCounters>> labels_;
  Metrics metrics_;
};

// --- template definitions ---------------------------------------------------

template <typename Resp>
RpcBus::Pool<Resp>& RpcBus::pool() {
  const void* key = &detail::pool_key<Resp>;
  for (auto& [k, p] : pools_) {
    if (k == key) return static_cast<Pool<Resp>&>(*p);
  }
  pools_.emplace_back(key, std::make_unique<Pool<Resp>>(this));
  return static_cast<Pool<Resp>&>(*pools_.back().second);
}

template <typename Resp>
RpcBus::Call<Resp>* RpcBus::open_call(NodeId client, NodeId server,
                                      CallOptions options) {
  Pool<Resp>& p = pool<Resp>();
  Call<Resp>* call = p.calls.acquire();
  call->pool = &p;
  ++records_in_use_;
  call->refs = 1;
  call->client = client;
  call->server = server;
  call->options = options;
  call->awaiting_async = false;
  call->on_reply = nullptr;
  call->attempt = 0;
  call->settled = false;
  call->response_retry_pending = false;
  return call;
}

template <typename Resp>
void RpcBus::start_attempt(Call<Resp>* call, std::uint32_t attempt) {
  static_assert(sim::Simulation::Callback::stores_inline<Step<Resp>>());
  ++calls_started_;
  if (host_down(call->client) || host_down(call->server)) {
    record_dropped_call(call->client, call->server);  // lost request
    return;
  }
  ++call->refs;
  send_control(call->client, call->server, kRequestWireSize,
               Step<Resp>{call, nullptr, call->generation, attempt,
                          Stage::kRequest});
}

template <typename Resp>
void RpcBus::unref(Call<Resp>* call) {
  SMARTH_CHECK(call->refs > 0);
  if (--call->refs > 0) return;
  call->handler = nullptr;
  call->async_handler = nullptr;
  call->on_response = nullptr;
  call->shed_response = nullptr;
  call->on_give_up = nullptr;
  call->retry_on = nullptr;
  call->stats.reset();
  ++call->generation;
  call->pool->calls.release(call);
  --records_in_use_;
}

template <typename Resp>
void RpcBus::end_chain(const Step<Resp>& step) {
  if (step.reply != nullptr) step.call->pool->recycle(step.reply);
  unref(step.call);
}

template <typename Resp>
void RpcBus::run(const Step<Resp>& step) {
  Call<Resp>* call = step.call;
  SMARTH_DCHECK(call->generation == step.generation);
  switch (step.stage) {
    case Stage::kRequest: {
      if (host_down(call->server)) {  // died mid-flight
        record_dropped_call(call->client, call->server);
        end_chain(step);
        return;
      }
      Step<Resp> serve = step;
      serve.stage = Stage::kServe;
      ServiceQueue* queue = service_queue(call->server);
      if (queue == nullptr) {
        network_.simulation().schedule_after(kServiceTime, serve);
        return;
      }
      Step<Resp> shed = step;
      shed.stage = Stage::kShed;
      queue->submit(call->options.svc, call->options.tenant, serve, shed);
      return;
    }
    case Stage::kServe:
      if (host_down(call->server)) {
        record_dropped_call(call->client, call->server);
        end_chain(step);
        return;
      }
      if (call->async_handler) {
        call->awaiting_async = true;
        call->async_handler(
            Responder<Resp>{call, step.generation, step.attempt});
        return;
      }
      respond(call, step.attempt, call->handler());
      return;
    case Stage::kShed:
      if (!call->shed_response) {  // shed silently: the caller times out
        end_chain(step);
        return;
      }
      // A shed call is rejected cheaply: no service cost, just the response
      // wire trip carrying the typed rejection.
      if (host_down(call->server)) {
        record_dropped_call(call->client, call->server);
        end_chain(step);
        return;
      }
      send_control(call->server, call->client, kResponseWireSize,
                   Step<Resp>{call, nullptr, step.generation, step.attempt,
                              Stage::kShedResponse});
      return;
    case Stage::kResponse:
    case Stage::kShedResponse: {
      if (host_down(call->client)) {
        record_dropped_call(call->client, call->server);
        end_chain(step);
        return;
      }
      ++calls_completed_;
      Resp resp = step.stage == Stage::kResponse
                      ? std::move(*step.reply->value)
                      : call->shed_response();
      if (step.reply != nullptr) call->pool->recycle(step.reply);
      if (call->on_reply != nullptr) {
        call->on_reply(call, step.attempt, std::move(resp));
      } else {
        call->on_response(std::move(resp));
      }
      unref(call);
      return;
    }
  }
}

template <typename Resp>
void RpcBus::respond(Call<Resp>* call, std::uint32_t attempt, Resp&& resp) {
  if (host_down(call->server)) {  // died before responding
    record_dropped_call(call->client, call->server);
    unref(call);
    return;
  }
  Reply<Resp>* reply = call->pool->replies.acquire();
  reply->value.emplace(std::move(resp));
  send_control(call->server, call->client, kResponseWireSize,
               Step<Resp>{call, reply, call->generation, attempt,
                          Stage::kResponse});
}

template <typename Resp>
void RpcBus::respond_async(const Responder<Resp>& responder, Resp&& resp) {
  Call<Resp>* call = responder.call;
  if (call->generation != responder.generation || !call->awaiting_async) {
    return;  // a repeated answer, or one for a recycled record
  }
  call->awaiting_async = false;
  respond(call, responder.attempt, std::move(resp));
}

template <typename Msg>
void RpcBus::send_control(NodeId from, NodeId to, Bytes size, Msg msg) {
  SimDuration extra = 0;
  if (chaos_.enabled() && !admit_under_chaos(from, to, extra)) {
    msg.lost();
    return;
  }
  if (extra > 0) {
    auto later = [this, from, to, size, msg] { transmit(from, to, size, msg); };
    static_assert(sim::Simulation::Callback::stores_inline<decltype(later)>());
    network_.simulation().schedule_after(extra, later);
  } else {
    transmit(from, to, size, msg);
  }
}

template <typename Msg>
void RpcBus::transmit(NodeId from, NodeId to, Bytes size, const Msg& msg) {
  if (!network_.send(from, to, size, msg, net::LinkPriority::kControl)) {
    msg.lost();
  }
}

}  // namespace smarth::rpc
